"""Plain-text instance documents for the command line.

Flat form::

    vertices a b c
    arc a b
    arc b c
    roots a c

Composition form::

    quotient {
      vertices x y
      arc x y
    }
    part x {
      vertices a b
      arc a b
    }
    part y {
      vertices c
    }
    roots a c

Vertex names are unique tokens without braces or '#'.  Lines may carry
'#' comments.  The `roots` line is optional; roots can come from flags
instead.  Parsing an emitted document gives the document back.

The parser splits each line into words once (`_lines`); a diagnostic's
line number counts every line, blank and comment-only ones included.
Arc lines may come before their block's vertices line; an arc naming an
unknown vertex, a loop and a repeated arc are rejected, in that order of
precedence on one line.
"""

from __future__ import annotations

from dataclasses import dataclass

from .composition import Composition
from .digraph import Digraph
from .errors import InvalidInput


@dataclass(frozen=True)
class InputDocument:
    target: Digraph | Composition
    names: tuple[str, ...]  # flat vertex index -> name
    roots: tuple[int, int] | None
    part_names: tuple[str, ...] | None = None  # composition only

    @property
    def flat(self) -> Digraph:
        if isinstance(self.target, Composition):
            return self.target.flatten()
        return self.target

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InvalidInput(f"unknown vertex name {name!r}") from None


def _lines(text: str) -> list[list[str]]:
    """The words before '#' of every line, [] for a blank one, so a
    line's number is its list index plus one."""
    if "#" not in text:
        return list(map(str.split, text.splitlines()))
    return [raw.split("#", 1)[0].split() for raw in text.splitlines()]


def _fail(lineno: int, msg: str):
    raise InvalidInput(f"line {lineno}: {msg}")


class _Block:
    """One vertices line plus arc lines, as found inside any block.

    Arc lines may come before the vertices line, so they are kept as
    their word lists from `lines` (the document's `_lines`) until
    `digraph` fills the bitset rows: each name is looked up once, one
    test per arc catches every fault, and a duplicate arc is the bit
    already set in its tail's row.  Only a faulty arc looks for its line
    number, by identity among `lines`, since an earlier line may hold
    the same words.
    """

    def __init__(self, lines: list[list[str]]):
        self.lines = lines
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.arcs: list[list[str]] = []

    def feed(self, lineno, words):
        if words[0] == "arc":
            if len(words) != 3:
                _fail(lineno, "arc lines read: arc <tail> <head>")
            self.arcs.append(words)
        elif words[0] == "vertices":
            if self.names:
                _fail(lineno, "second vertices line in one block")
            if len(words) == 1:
                _fail(lineno, "vertices line needs at least one name")
            self.names = words[1:]
        else:
            _fail(lineno, f"unexpected {words[0]!r} inside a block")

    def digraph(self, lineno) -> tuple[Digraph, list[str]]:
        names = self.names
        if not names:
            _fail(lineno, "block is missing its vertices line")
        index = self.index = {name: i for i, name in enumerate(names)}
        if len(index) != len(names):
            _fail(lineno, "duplicate vertex name in one block")
        get = index.get
        out_masks = [0] * len(names)
        in_masks = [0] * len(names)
        for words in self.arcs:
            i = get(words[1])
            j = get(words[2])
            if i is None or j is None or i == j or out_masks[i] >> j & 1:
                self._arc_fault(words)
            out_masks[i] |= 1 << j
            in_masks[j] |= 1 << i
        return Digraph.from_rows(out_masks, in_masks), names

    def _arc_fault(self, words):
        _, a, b = words
        if a not in self.index:
            msg = f"unknown vertex {a!r} in arc line"
        elif b not in self.index:
            msg = f"unknown vertex {b!r} in arc line"
        elif a == b:
            msg = f"loop arc at {a!r}"
        else:
            msg = f"duplicate arc {a!r} -> {b!r}"
        _fail(next(i for i, w in enumerate(self.lines, 1) if w is words), msg)


def parse_document(text: str) -> InputDocument:
    """Parse a flat or composition document, with line-number diagnostics."""
    lines = _lines(text)
    first = next((i for i, words in enumerate(lines, 1) if words), None)
    if first is None:
        raise InvalidInput("empty document")
    head = lines[first - 1][0]
    if head == "vertices":
        return _parse_flat(lines, first)
    if head == "quotient":
        return _parse_composition(lines)
    raise InvalidInput(
        f"line {first}: documents start with 'vertices' or 'quotient'"
    )


def _take_roots(lineno, words, index):
    if len(words) != 3:
        _fail(lineno, "roots lines read: roots <u> <v>")
    for w in words[1:]:
        if w not in index:
            _fail(lineno, f"root {w!r} is not a declared vertex")
    return index[words[1]], index[words[2]]


def _parse_flat(lines, first) -> InputDocument:
    block = _Block(lines)
    arcs = block.arcs
    roots_line = None
    for lineno, words in enumerate(lines, 1):
        if len(words) == 3 and words[0] == "arc":  # the bulk, fed inline
            arcs.append(words)
        elif not words:
            continue
        elif words[0] == "roots":
            if roots_line is not None:
                _fail(lineno, "second roots line")
            roots_line = (lineno, words)
        else:
            block.feed(lineno, words)
    g, names = block.digraph(first)
    roots = None
    if roots_line is not None:
        roots = _take_roots(*roots_line, block.index)
    return InputDocument(target=g, names=tuple(names), roots=roots)


def _parse_composition(lines) -> InputDocument:
    quotient_block = None
    part_blocks: dict[str, tuple[int, _Block]] = {}
    roots_line = None
    open_block = None  # (kind, name, lineno, _Block)
    for lineno, words in enumerate(lines, 1):
        if not words:
            continue
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
            open_block = ("quotient", "", lineno, _Block(lines))
        elif words[0] == "part":
            if len(words) != 3 or words[2] != "{":
                _fail(lineno, "part blocks open with: part <name> {")
            if words[1] in part_blocks:
                _fail(lineno, f"second block for part {words[1]!r}")
            open_block = ("part", words[1], lineno, _Block(lines))
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
    names: list[str] = []
    for part_name in part_names:  # flat order follows the quotient line
        at, block = part_blocks[part_name]
        sub, sub_names = block.digraph(at)
        parts.append(sub)
        names.extend(sub_names)
    if len(set(names)) != len(names):
        raise InvalidInput("vertex names must be unique across parts")
    comp = Composition(quotient, tuple(parts))
    roots = None
    if roots_line is not None:
        index = {name: i for i, name in enumerate(names)}
        roots = _take_roots(*roots_line, index)
    return InputDocument(
        target=comp,
        names=tuple(names),
        roots=roots,
        part_names=tuple(part_names),
    )


def default_names(n: int, prefix: str = "v") -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(n))


def emit_document(doc: InputDocument) -> str:
    """Canonical text for a document: sorted arcs, two-space indent."""
    names = doc.names
    out = []
    if isinstance(doc.target, Composition):
        comp = doc.target
        part_names = doc.part_names or default_names(comp.s, "p")
        out.append("quotient {")
        out.append("  vertices " + " ".join(part_names))
        for a, b in sorted(comp.quotient.arcs()):
            out.append(f"  arc {part_names[a]} {part_names[b]}")
        out.append("}")
        for i, part in enumerate(comp.parts):
            off = comp.offsets[i]
            local = names[off : off + part.n]
            out.append(f"part {part_names[i]} {{")
            out.append("  vertices " + " ".join(local))
            for a, b in sorted(part.arcs()):
                out.append(f"  arc {local[a]} {local[b]}")
            out.append("}")
    else:
        g = doc.target
        out.append("vertices " + " ".join(names))
        for a, b in sorted(g.arcs()):
            out.append(f"arc {names[a]} {names[b]}")
    if doc.roots is not None:
        u, v = doc.roots
        out.append(f"roots {names[u]} {names[v]}")
    return "\n".join(out) + "\n"


def flat_document(
    g: Digraph, roots=None, names=None
) -> InputDocument:
    return InputDocument(
        target=g,
        names=tuple(names) if names else default_names(g.n),
        roots=tuple(roots) if roots else None,
    )


def composition_document(
    comp: Composition, roots=None, names=None, part_names=None
) -> InputDocument:
    return InputDocument(
        target=comp,
        names=tuple(names) if names else default_names(comp.n),
        roots=tuple(roots) if roots else None,
        part_names=tuple(part_names) if part_names else default_names(comp.s, "p"),
    )
