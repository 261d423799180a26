"""Text format: parsing, diagnostics, canonical emission."""

import random

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


def test_index_of_names():
    doc = parse_document(FLAT)
    assert doc.index_of("b") == 1
    with pytest.raises(InvalidInput):
        doc.index_of("zz")


# --- the arc-list parser as it was before rows, kept as the reference ---


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
                textio._fail(lineno, "second vertices line in one block")
            if len(words) == 1:
                textio._fail(lineno, "vertices line needs at least one name")
            self.names = words[1:]
        elif words[0] == "arc":
            if len(words) != 3:
                textio._fail(lineno, "arc lines read: arc <tail> <head>")
            self.arcs.append((lineno, words[1], words[2]))
        else:
            textio._fail(lineno, f"unexpected {words[0]!r} inside a block")

    def digraph(self, lineno):
        if not self.names:
            textio._fail(lineno, "block is missing its vertices line")
        if len(set(self.names)) != len(self.names):
            textio._fail(lineno, "duplicate vertex name in one block")
        index = {name: i for i, name in enumerate(self.names)}
        arcs = set()
        for arc_line, a, b in self.arcs:
            for w in (a, b):
                if w not in index:
                    textio._fail(arc_line, f"unknown vertex {w!r} in arc line")
            if a == b:
                textio._fail(arc_line, f"loop arc at {a!r}")
            arc = (index[a], index[b])
            if arc in arcs:
                textio._fail(arc_line, f"duplicate arc {a!r} -> {b!r}")
            arcs.add(arc)
        return Digraph(len(self.names), arcs), self.names


def _parse_or_message(text):
    try:
        return parse_document(text)
    except InvalidInput as err:
        return f"InvalidInput: {err}"


def _reference_parse(text, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(textio, "_tokens", _reference_tokens)
        m.setattr(textio, "_Block", _ReferenceBlock)
        return _parse_or_message(text)


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
    pool = [f"{c}{i}" for c in "abxy" for i in range(12)]
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


def test_row_parser_matches_the_arc_list_reference(monkeypatch):
    rng = random.Random(20)
    for _ in range(400):
        text = "\n".join(_random_document(rng)) + "\n"
        doc = parse_document(text)
        assert doc == _reference_parse(text, monkeypatch)
        digraphs = (
            [doc.target.quotient, *doc.target.parts]
            if isinstance(doc.target, Composition)
            else [doc.target]
        )
        for g in digraphs:
            assert g.in_masks == Digraph(g.n, g.arcs()).in_masks


@pytest.mark.parametrize("fault", [*FAULTS, "two faults"])
def test_row_parser_reports_the_reference_fault(fault, monkeypatch):
    rng = random.Random(fault)
    for _ in range(60):
        lines = _random_document(rng)
        if fault == "two faults":
            for one in rng.sample(FAULTS, 2):
                lines = _inject_fault(rng, lines, one)
        else:
            lines = _inject_fault(rng, lines, fault)
        text = "\n".join(lines) + "\n"
        want = _reference_parse(text, monkeypatch)
        assert isinstance(want, str), text
        assert _parse_or_message(text) == want, text
