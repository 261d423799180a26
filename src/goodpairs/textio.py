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

The parser streams the lines: it splits each line once and drops its
words, keeping per block only the vertex names and two flat lists of
arc tail and head names, never a list per line.  A diagnostic's line
number counts every line, blank and comment-only ones included; only a
faulty arc's block splits its lines again to find it.  Arc lines may
come before their block's vertices line; an arc naming an unknown
vertex, a loop and a repeated arc are rejected, in that order of
precedence on one line.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

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


def _fail(lineno: int, msg: str):
    raise InvalidInput(f"line {lineno}: {msg}")


class _Block:
    """One vertices line plus arc lines, as found inside any block.

    A block keeps its names and, for the arc lines, only two flat lists of
    tail and head names; arc lines may come before the vertices line.
    `digraph` resolves every name in bulk and fills the bitset rows in
    one loop over index pairs, and three block-wide tests catch every
    arc fault: a name with no index, a bit on the rows' diagonal (a loop)
    and fewer row bits than arcs (a duplicate).  Only a faulty block runs
    `_arc_fault`, which finds the first faulty arc and, by splitting the
    block's lines again, its line number.
    """

    __slots__ = ("at", "names", "tails", "heads")

    def __init__(self, at: int):
        self.at = at  # the line the block opens at
        self.names: list[str] = []
        self.tails: list[str] = []
        self.heads: list[str] = []

    def feed(self, lineno, words):
        """Take a line other than a well-formed arc line."""
        if words[0] == "arc":
            _fail(lineno, "arc lines read: arc <tail> <head>")
        if words[0] != "vertices":
            _fail(lineno, f"unexpected {words[0]!r} inside a block")
        if self.names:
            _fail(lineno, "second vertices line in one block")
        if len(words) == 1:
            _fail(lineno, "vertices line needs at least one name")
        self.names = words[1:]

    def digraph(self, lines: list[str]) -> Digraph:
        names = self.names
        if not names:
            _fail(self.at, "block is missing its vertices line")
        n = len(names)
        index = dict(zip(names, range(n)))
        if len(index) != n:
            _fail(self.at, "duplicate vertex name in one block")
        bit = [1 << i for i in range(n)]
        out_masks = [0] * n
        in_masks = [0] * n
        try:
            tails = list(map(index.__getitem__, self.tails))
            heads = list(map(index.__getitem__, self.heads))
        except KeyError:  # an unknown name
            self._arc_fault(lines, index)
        for i, j in zip(tails, heads):
            out_masks[i] |= bit[j]
            in_masks[j] |= bit[i]
        # a loop sets a diagonal bit, and a repeated arc no new bit
        if any(map(int.__and__, out_masks, bit)) or sum(
            map(int.bit_count, out_masks)
        ) != len(tails):
            self._arc_fault(lines, index)
        return Digraph.from_rows(out_masks, in_masks)

    def _arc_fault(self, lines, index):
        """Raise for the block's first faulty arc, which must exist."""
        seen = set()
        for k, arc in enumerate(zip(self.tails, self.heads)):
            a, b = arc
            if a not in index:
                msg = f"unknown vertex {a!r} in arc line"
            elif b not in index:
                msg = f"unknown vertex {b!r} in arc line"
            elif a == b:
                msg = f"loop arc at {a!r}"
            elif arc in seen:
                msg = f"duplicate arc {a!r} -> {b!r}"
            else:
                seen.add(arc)
                continue
            # the block's k-th arc line: every arc line from the block's
            # opening line up to its last arc belongs to it
            at = self.at
            arc_lines = (
                lineno
                for lineno, words in enumerate(map(str.split, lines[at - 1 :]), at)
                if len(words) == 3 and words[0] == "arc"
            )
            _fail(next(islice(arc_lines, k, None)), msg)


class _Reader:
    """What the lines of a document have declared so far.

    A flat document is one block that opens at its first line and never
    closes; a composition document opens and closes a quotient block and
    part blocks.  `feed` takes every line but the well-formed arc lines
    and returns the block that the next arc lines belong to, or None
    between blocks.
    """

    def __init__(self):
        self.flat: _Block | None = None
        self.quotient: _Block | None = None
        self.parts: dict[str, _Block] = {}
        self.open: _Block | None = None
        self.roots = None  # (lineno, words)

    def feed(self, lineno, words) -> _Block | None:
        head = words[0]
        if self.flat is None and self.quotient is None:  # the first line
            if head not in ("vertices", "quotient"):
                _fail(lineno, "documents start with 'vertices' or 'quotient'")
            if head == "vertices":
                self.open = self.flat = _Block(lineno)
        block = self.open
        if head == "roots" and block is self.flat:  # flat, or between blocks
            if self.roots is not None:
                _fail(lineno, "second roots line")
            self.roots = (lineno, words)
        elif block is None:
            self._open(lineno, words)
        elif words == ["}"] and block is not self.flat:
            self.open = None
        else:
            block.feed(lineno, words)
        return self.open

    def _open(self, lineno, words):
        if words[0] == "quotient":
            if words != ["quotient", "{"]:
                _fail(lineno, "quotient blocks open with: quotient {")
            if self.quotient is not None:
                _fail(lineno, "second quotient block")
            self.open = self.quotient = _Block(lineno)
        elif words[0] == "part":
            if len(words) != 3 or words[2] != "{":
                _fail(lineno, "part blocks open with: part <name> {")
            if words[1] in self.parts:
                _fail(lineno, f"second block for part {words[1]!r}")
            self.open = self.parts[words[1]] = _Block(lineno)
        else:
            _fail(lineno, f"unexpected {words[0]!r} between blocks")

    def roots_among(self, names) -> tuple[int, int] | None:
        if self.roots is None:
            return None
        lineno, words = self.roots
        if len(words) != 3:
            _fail(lineno, "roots lines read: roots <u> <v>")
        for w in words[1:]:
            if w not in names:
                _fail(lineno, f"root {w!r} is not a declared vertex")
        return names.index(words[1]), names.index(words[2])


def parse_document(text: str) -> InputDocument:
    """Parse a flat or composition document, with line-number diagnostics."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    reader = _Reader()
    block = None
    for lineno, words in enumerate(map(str.split, lines), 1):
        if block is not None and len(words) == 3 and words[0] == "arc":
            block.tails.append(words[1])
            block.heads.append(words[2])
        elif words:
            block = reader.feed(lineno, words)
    if reader.flat is None and reader.quotient is None:
        raise InvalidInput("empty document")
    if reader.flat is not None:
        g = reader.flat.digraph(lines)
        names = tuple(reader.flat.names)
        return InputDocument(target=g, names=names, roots=reader.roots_among(names))
    if reader.open is not None:
        _fail(reader.open.at, "unclosed block")
    quotient = reader.quotient.digraph(lines)
    part_names = reader.quotient.names
    if sorted(reader.parts) != sorted(part_names):
        missing = set(part_names) - set(reader.parts)
        extra = set(reader.parts) - set(part_names)
        raise InvalidInput(
            f"part blocks disagree with the quotient: missing {sorted(missing)},"
            f" undeclared {sorted(extra)}"
        )
    parts = []
    names: list[str] = []
    for part_name in part_names:  # flat order follows the quotient line
        block = reader.parts[part_name]
        parts.append(block.digraph(lines))
        names.extend(block.names)
    if len(set(names)) != len(names):
        raise InvalidInput("vertex names must be unique across parts")
    names = tuple(names)
    return InputDocument(
        target=Composition(quotient, tuple(parts)),
        names=names,
        roots=reader.roots_among(names),
        part_names=tuple(part_names),
    )


def default_names(n: int, prefix: str = "v") -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(n))


def emit_document(doc: InputDocument) -> str:
    """Canonical text for a document: sorted arcs, two-space indent.
    `arcs()` lists the arcs of each row in turn, so they come sorted."""
    names = doc.names
    out = []
    if isinstance(doc.target, Composition):
        comp = doc.target
        part_names = doc.part_names or default_names(comp.s, "p")
        out.append("quotient {")
        out.append("  vertices " + " ".join(part_names))
        for a, b in comp.quotient.arcs():
            out.append(f"  arc {part_names[a]} {part_names[b]}")
        out.append("}")
        for i, part in enumerate(comp.parts):
            off = comp.offsets[i]
            local = names[off : off + part.n]
            out.append(f"part {part_names[i]} {{")
            out.append("  vertices " + " ".join(local))
            for a, b in part.arcs():
                out.append(f"  arc {local[a]} {local[b]}")
            out.append("}")
    else:
        out.append("vertices " + " ".join(names))
        for a, b in doc.target.arcs():
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
