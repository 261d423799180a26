"""Text format: parsing, diagnostics, canonical emission."""

import random
import tracemalloc

import pytest

from goodpairs import textio
from goodpairs.composition import Composition
from goodpairs.digraph import Digraph
from goodpairs.errors import InvalidInput
from goodpairs.families import random_composition
from goodpairs.textio import (
    composition_document,
    emit_document,
    flat_document,
    parse_document,
)

FLAT = """\
# a triangle with one digon
vertices a b c
arc a b
arc b c
arc c a
arc a c
roots a c
"""

NESTED = """\
quotient {
  vertices top bottom
  arc top bottom
  arc bottom top
}
part top {
  vertices x y
}
part bottom {
  vertices z
  # no internal structure
}
roots x z
"""


def test_parse_flat():
    doc = parse_document(FLAT)
    assert isinstance(doc.target, Digraph)
    assert doc.names == ("a", "b", "c")
    assert doc.roots == (0, 2)
    assert doc.target.has_arc(0, 1) and doc.target.has_arc(0, 2)
    assert not doc.target.has_arc(1, 0)


def test_parse_composition():
    doc = parse_document(NESTED)
    assert isinstance(doc.target, Composition)
    assert doc.target.s == 2
    assert doc.part_names == ("top", "bottom")
    assert doc.names == ("x", "y", "z")
    assert doc.roots == (0, 2)
    flat = doc.flat
    assert flat.has_arc(0, 2) and flat.has_arc(2, 1)
    assert not flat.has_arc(0, 1)


def test_round_trip_is_identity():
    for text in (FLAT, NESTED):
        doc = parse_document(text)
        emitted = emit_document(doc)
        again = parse_document(emitted)
        assert again == doc
        assert emit_document(again) == emitted


def test_builders_round_trip():
    g = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    doc = flat_document(g, roots=(1, 2))
    assert parse_document(emit_document(doc)) == doc

    comp = random_composition(17)
    cdoc = composition_document(comp)
    assert parse_document(emit_document(cdoc)) == cdoc


@pytest.mark.parametrize(
    "text, needle",
    [
        ("arc a b\n", "line 1"),
        ("vertices a b\narc a q\n", "unknown vertex"),
        ("vertices a a\n", "duplicate"),
        ("vertices a b\narc a b\narc a b\n", "duplicate arc"),
        ("vertices a\narc a a\n", "loop"),
        ("vertices a b\nroots a\n", "roots"),
        ("quotient {\n  vertices q\n}\n", "part"),
        ("", "empty"),
    ],
)
def test_diagnostics_name_the_offense(text, needle):
    with pytest.raises(InvalidInput) as err:
        parse_document(text)
    assert needle in str(err.value)


def test_duplicate_arc_in_a_part_names_its_line():
    text = (
        "quotient {\n  vertices p q\n  arc p q\n  arc q p\n}\n"
        "part p {\n  vertices a b\n  arc a b\n  arc b a\n  arc a b\n}\n"
        "part q {\n  vertices c\n}\n"
    )
    with pytest.raises(InvalidInput) as err:
        parse_document(text)
    assert str(err.value) == "line 10: duplicate arc 'a' -> 'b'"


def test_fault_line_is_found_within_its_block():
    # "  arc a b" is valid on line 7, in part p; the same text on line 11,
    # in part q, names a vertex q does not have
    text = (
        "quotient {\n  vertices p q\n  arc p q\n}\n"
        "part p {\n  vertices a b\n  arc a b\n}\n"
        "part q {\n  vertices c d\n  arc a b\n}\n"
    )
    with pytest.raises(InvalidInput) as err:
        parse_document(text)
    assert str(err.value) == "line 11: unknown vertex 'a' in arc line"


def test_keyword_names_parse_as_names():
    doc = parse_document("vertices arc roots x\narc arc roots\nroots arc roots\n")
    assert doc.names == ("arc", "roots", "x")
    assert sorted(doc.target.arcs()) == [(0, 1)]
    assert doc.roots == (0, 1)


def test_parse_keeps_no_list_per_line():
    # the complete digraph on 60 vertices is 3541 lines; a parser that
    # keeps one word list per line peaks near 1330 KB, the streamed one
    # near 725 KB (Python 3.10 and 3.11)
    n = 60
    g = Digraph(n, [(a, b) for a in range(n) for b in range(n) if a != b])
    text = emit_document(flat_document(g))
    tracemalloc.start()
    try:
        doc = parse_document(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc.target == g
    assert peak < 900 * 1024, peak


def test_index_of_names():
    doc = parse_document(FLAT)
    assert doc.index_of("b") == 1
    with pytest.raises(InvalidInput):
        doc.index_of("zz")


# --- the arc-list parser as it was before rows, kept as the reference ---


def _fail(lineno, msg):
    raise InvalidInput(f"line {lineno}: {msg}")


def _reference_tokens(text):
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line.split()))
    return lines


class _ReferenceBlock:
    """Collects (line, tail, head) arc triples and fills the digraph
    through a set of arc tuples and `Digraph(n, arcs)`."""

    def __init__(self):
        self.names = []
        self.arcs = []

    def feed(self, lineno, words):
        if words[0] == "vertices":
            if self.names:
                _fail(lineno, "second vertices line in one block")
            if len(words) == 1:
                _fail(lineno, "vertices line needs at least one name")
            self.names = words[1:]
        elif words[0] == "arc":
            if len(words) != 3:
                _fail(lineno, "arc lines read: arc <tail> <head>")
            self.arcs.append((lineno, words[1], words[2]))
        else:
            _fail(lineno, f"unexpected {words[0]!r} inside a block")

    def digraph(self, lineno):
        if not self.names:
            _fail(lineno, "block is missing its vertices line")
        if len(set(self.names)) != len(self.names):
            _fail(lineno, "duplicate vertex name in one block")
        index = {name: i for i, name in enumerate(self.names)}
        arcs = set()
        for arc_line, a, b in self.arcs:
            for w in (a, b):
                if w not in index:
                    _fail(arc_line, f"unknown vertex {w!r} in arc line")
            if a == b:
                _fail(arc_line, f"loop arc at {a!r}")
            arc = (index[a], index[b])
            if arc in arcs:
                _fail(arc_line, f"duplicate arc {a!r} -> {b!r}")
            arcs.add(arc)
        return Digraph(len(self.names), arcs), self.names


def _reference_document(text):
    lines = _reference_tokens(text)
    if not lines:
        raise InvalidInput("empty document")
    head = lines[0][1][0]
    if head == "vertices":
        return _reference_flat(lines)
    if head == "quotient":
        return _reference_composition(lines)
    raise InvalidInput(
        f"line {lines[0][0]}: documents start with 'vertices' or 'quotient'"
    )


def _reference_roots(lineno, words, names):
    if len(words) != 3:
        _fail(lineno, "roots lines read: roots <u> <v>")
    index = {name: i for i, name in enumerate(names)}
    for w in words[1:]:
        if w not in index:
            _fail(lineno, f"root {w!r} is not a declared vertex")
    return index[words[1]], index[words[2]]


def _reference_flat(lines):
    block = _ReferenceBlock()
    roots = None
    roots_line = None
    for lineno, words in lines:
        if words[0] == "roots":
            if roots_line is not None:
                _fail(lineno, "second roots line")
            roots_line = (lineno, words)
        else:
            block.feed(lineno, words)
    g, names = block.digraph(lines[0][0])
    if roots_line is not None:
        roots = _reference_roots(*roots_line, names)
    return textio.InputDocument(target=g, names=tuple(names), roots=roots)


def _reference_composition(lines):
    quotient_block = None
    part_blocks = {}
    roots_line = None
    open_block = None  # (kind, name, lineno, block)
    for lineno, words in lines:
        if open_block is not None:
            if words == ["}"]:
                kind, name, at, block = open_block
                if kind == "quotient":
                    quotient_block = (at, block)
                else:
                    part_blocks[name] = (at, block)
                open_block = None
            else:
                open_block[3].feed(lineno, words)
            continue
        if words[0] == "quotient":
            if words != ["quotient", "{"]:
                _fail(lineno, "quotient blocks open with: quotient {")
            if quotient_block is not None:
                _fail(lineno, "second quotient block")
            open_block = ("quotient", "", lineno, _ReferenceBlock())
        elif words[0] == "part":
            if len(words) != 3 or words[2] != "{":
                _fail(lineno, "part blocks open with: part <name> {")
            if words[1] in part_blocks:
                _fail(lineno, f"second block for part {words[1]!r}")
            open_block = ("part", words[1], lineno, _ReferenceBlock())
        elif words[0] == "roots":
            if roots_line is not None:
                _fail(lineno, "second roots line")
            roots_line = (lineno, words)
        else:
            _fail(lineno, f"unexpected {words[0]!r} between blocks")
    if open_block is not None:
        _fail(open_block[2], "unclosed block")
    if quotient_block is None:
        raise InvalidInput("composition document has no quotient block")
    quotient, part_names = quotient_block[1].digraph(quotient_block[0])
    if sorted(part_blocks) != sorted(part_names):
        missing = set(part_names) - set(part_blocks)
        extra = set(part_blocks) - set(part_names)
        raise InvalidInput(
            f"part blocks disagree with the quotient: missing {sorted(missing)},"
            f" undeclared {sorted(extra)}"
        )
    parts = []
    names = []
    for part_name in part_names:
        at, block = part_blocks[part_name]
        sub, sub_names = block.digraph(at)
        parts.append(sub)
        names.extend(sub_names)
    if len(set(names)) != len(names):
        raise InvalidInput("vertex names must be unique across parts")
    roots = None
    if roots_line is not None:
        roots = _reference_roots(*roots_line, names)
    return textio.InputDocument(
        target=Composition(quotient, tuple(parts)),
        names=tuple(names),
        roots=roots,
        part_names=tuple(part_names),
    )


def _outcome(parse, text):
    try:
        return parse(text)
    except InvalidInput as err:
        return f"InvalidInput: {err}"


def _parse_or_message(text):
    return _outcome(parse_document, text)


def _reference_parse(text):
    return _outcome(_reference_document, text)


def _without_comments(text):
    """The same document with every '#' comment cut off its line."""
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def _noise(rng):
    return rng.choice(["", "   ", "# note", "  # indented note", "\t"])


def _block_lines(rng, names, indent):
    """A vertices line and shuffled arc lines, with comments and blank
    lines between them; arcs may come before the vertices line."""
    arcs = [(a, b) for a in names for b in names if a != b and rng.random() < 0.4]
    rng.shuffle(arcs)
    lines = [
        f"{indent}arc {a} {b}" + rng.choice(["", "  # arc", "\t"]) for a, b in arcs
    ]
    lines.insert(rng.randint(0, len(lines)), f"{indent}vertices " + " ".join(names))
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randint(0, len(lines)), _noise(rng))
    return lines


def _random_document(rng):
    """Lines of a valid flat or composition document."""
    # keywords are valid vertex names, and a parser that reads tokens
    # without their place on the line would confuse them
    pool = [f"{c}{i}" for c in "abxy" for i in range(12)]
    pool += ["arc", "vertices", "roots", "part", "quotient"]
    rng.shuffle(pool)
    if rng.random() < 0.5:
        names = pool[: rng.randint(1, 10)]
        lines = _block_lines(rng, names, "")
        # a flat document opens with its vertices line
        lines.remove("vertices " + " ".join(names))
        lines.insert(0, "vertices " + " ".join(names))
        lines.insert(0, _noise(rng))
        flat = names
    else:
        s = rng.randint(1, 4)
        part_names = [f"p{i}" for i in range(s)]
        lines = [_noise(rng), "quotient {", *_block_lines(rng, part_names, "  "), "}"]
        flat = []
        blocks = []
        for p in part_names:
            local = [pool.pop() for _ in range(rng.randint(1, 3))]
            flat += local
            blocks.append([f"part {p} {{", *_block_lines(rng, local, "  "), "}"])
        rng.shuffle(blocks)
        for block in blocks:
            lines += block
    if rng.random() < 0.7:
        lines.append(f"roots {rng.choice(flat)} {rng.choice(flat)}  # roots")
    return lines


def _arc_line_indices(lines):
    """Well-formed arc lines: 'arc', a tail and a head."""
    return [
        i
        for i, line in enumerate(lines)
        if (words := line.split("#")[0].split())[:1] == ["arc"] and len(words) == 3
    ]


def _vertices_indices(lines):
    return [i for i, line in enumerate(lines) if line.split()[:1] == ["vertices"]]


def _inject_fault(rng, lines, fault):
    lines = list(lines)
    arcs = _arc_line_indices(lines)
    at = rng.choice(_vertices_indices(lines))
    names = lines[at].split()[1:]
    indent = lines[at][: len(lines[at]) - len(lines[at].lstrip())]
    if fault == "unknown name":
        if arcs:
            i = rng.choice(arcs)
            words = lines[i].split("#")[0].split()
            words[rng.randint(1, 2)] = "nosuch"
            lines[i] = indent + " ".join(words)
        else:
            lines.insert(at + 1, f"{indent}arc {names[0]} nosuch")
    elif fault == "loop":
        w = rng.choice(names)
        lines.insert(rng.randint(at + 1, len(lines)), f"{indent}arc {w} {w}")
    elif fault == "duplicate arc":
        if arcs:
            i = rng.choice(arcs)
            lines.insert(rng.randint(i + 1, len(lines)), lines[i])
        else:
            arc = f"{indent}arc {names[0]} {names[-1]}"  # a loop if one name
            lines[at + 1 : at + 1] = [arc, arc]
    elif fault == "duplicate vertex name":
        lines[at] = lines[at] + " " + rng.choice(names)
    elif fault == "wrong arc arity":
        words = rng.choice([["arc"], ["arc", names[0]], ["arc", names[0], "x", "y"]])
        lines.insert(at + 1, indent + " ".join(words))
    elif fault == "stray brace":
        lines.insert(rng.randint(1, len(lines)), "}")
    elif fault == "second roots line":
        w = names[0]
        lines.insert(rng.randint(1, len(lines)), f"roots {w} {w}")
        lines.append(f"roots {w} {w}")
    return lines


FAULTS = (
    "unknown name",
    "loop",
    "duplicate arc",
    "duplicate vertex name",
    "wrong arc arity",
    "stray brace",
    "second roots line",
)


def test_row_parser_matches_the_arc_list_reference():
    rng = random.Random(20)
    for _ in range(400):
        text = "\n".join(_random_document(rng)) + "\n"
        bare = _without_comments(text)
        assert "#" not in bare
        for version in (text, bare):
            doc = parse_document(version)
            assert doc == _reference_parse(version)
            digraphs = (
                [doc.target.quotient, *doc.target.parts]
                if isinstance(doc.target, Composition)
                else [doc.target]
            )
            for g in digraphs:
                assert g.in_masks == Digraph(g.n, g.arcs()).in_masks


@pytest.mark.parametrize("fault", [*FAULTS, "two faults"])
def test_row_parser_reports_the_reference_fault(fault):
    rng = random.Random(fault)
    for _ in range(60):
        lines = _random_document(rng)
        if fault == "two faults":
            for one in rng.sample(FAULTS, 2):
                lines = _inject_fault(rng, lines, one)
        else:
            lines = _inject_fault(rng, lines, fault)
        text = "\n".join(lines) + "\n"
        for version in (text, _without_comments(text)):
            want = _reference_parse(version)
            assert isinstance(want, str), version
            assert _parse_or_message(version) == want, version


@pytest.mark.parametrize("sep", ["\r\n", "\r", "\x0c", "\x1c", "\u2028", "\x85"])
def test_line_breaks_match_the_reference(sep):
    # every separator str.splitlines() breaks at counts as a line, so the
    # fault on the sixth line is reported there, with or without comments
    flat = "vertices a b c||arc a b  # first|arc b c|# note|arc a b".split("|")
    nested = NESTED.splitlines()
    for lines in (flat, flat[:-1] + ["roots a c"], nested, nested + ["roots x y"]):
        bare = [line.split("#", 1)[0] for line in lines]
        for version in (sep.join(lines) + sep, sep.join(bare) + sep):
            assert _parse_or_message(version) == _reference_parse(version), version
    want = "InvalidInput: line 6: duplicate arc 'a' -> 'b'"
    assert _parse_or_message(sep.join(flat)) == want
