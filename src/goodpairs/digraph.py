"""Dense digraph primitives: bitset adjacency, strong components, path counts.

Vertices are the integers 0..n-1.  Vertex sets are Python-int bitmasks
throughout; the graphs this package cares about are dense and tiny, so
O(1) arc tests and whole-row mask operations beat any sparse structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInput

Arc = tuple[int, int]


def bits(mask: int):
    """Iterate the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Digraph:
    """Digraph without loops or parallel arcs, held as its bitset rows
    and nothing else; `from_rows` says who may edit the rows."""

    __slots__ = ("n", "out_masks", "in_masks")

    def __init__(self, n: int, arcs=()):
        if n < 0:
            raise InvalidInput(f"negative vertex count {n}")
        self.n = n
        out_masks = [0] * n
        in_masks = [0] * n
        for a, b in arcs:
            if a == b:
                raise InvalidInput(f"loop at vertex {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise InvalidInput(f"arc ({a},{b}) outside 0..{n - 1}")
            out_masks[a] |= 1 << b
            in_masks[b] |= 1 << a
        self.out_masks = out_masks
        self.in_masks = in_masks

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_arc(self, a: int, b: int) -> bool:
        return bool(self.out_masks[a] >> b & 1)

    def is_vertex(self, x) -> bool:
        """Whether x, a value from outside input, is a vertex here: an int
        in 0..n-1 that is not a bool (JSON true/false)."""
        return type(x) is int and 0 <= x < self.n

    def is_arc(self, arc) -> bool:
        """Whether arc, a sequence from outside input, is an arc here: two
        vertices that the digraph joins."""
        if len(arc) != 2:
            return False
        a, b = arc
        return self.is_vertex(a) and self.is_vertex(b) and self.has_arc(a, b)

    def arcs(self) -> list[Arc]:
        """The arcs in sorted order, as a fresh list built from the rows."""
        return [(a, b) for a in range(self.n) for b in bits(self.out_masks[a])]

    @property
    def m(self) -> int:
        return sum(map(int.bit_count, self.out_masks))

    def out_degree(self, v: int, within: int | None = None) -> int:
        row = self.out_masks[v]
        if within is not None:
            row &= within
        return row.bit_count()

    def in_degree(self, v: int, within: int | None = None) -> int:
        row = self.in_masks[v]
        if within is not None:
            row &= within
        return row.bit_count()

    @classmethod
    def from_rows(cls, out_masks: list[int], in_masks: list[int]) -> "Digraph":
        """Digraph on the given rows, taken as they are and not copied: the
        caller owns that they describe one loopless arc set inside 0..n-1.
        A caller that edits the rows afterwards edits the digraph, and
        must keep out_masks and in_masks in step."""
        h = cls.__new__(cls)
        h.n = len(out_masks)
        h.out_masks = out_masks
        h.in_masks = in_masks
        return h

    def converse(self) -> "Digraph":
        return Digraph.from_rows(self.in_masks[:], self.out_masks[:])

    def without_arcs(self, removed) -> "Digraph":
        """Copy with the removed arcs cleared; absent arcs are ignored."""
        n = self.n
        out_masks = self.out_masks[:]
        in_masks = self.in_masks[:]
        for a, b in removed:
            if 0 <= a < n and 0 <= b < n:
                out_masks[a] &= ~(1 << b)
                in_masks[b] &= ~(1 << a)
        return Digraph.from_rows(out_masks, in_masks)

    def with_arcs(self, added) -> "Digraph":
        return Digraph(self.n, set(self.arcs()) | set(added))

    def induced(self, vertex_mask: int) -> tuple["Digraph", list[int]]:
        """Subgraph on the masked vertices; returns (graph, new-to-old map)."""
        old = list(bits(vertex_mask))
        # maximal runs of consecutive kept vertices: (first old vertex,
        # run mask at bit 0, first new index)
        runs = []
        rest = vertex_mask
        while rest:
            start = (rest & -rest).bit_length() - 1
            width = ((rest >> start) + 1 & ~(rest >> start)).bit_length() - 1
            runs.append((start, (1 << width) - 1, len(old) - rest.bit_count()))
            rest &= ~(((1 << width) - 1) << start)

        def compress(row: int) -> int:
            new = 0
            for start, run, at in runs:
                new |= (row >> start & run) << at
            return new

        out_masks = [compress(self.out_masks[a]) for a in old]
        in_masks = [compress(self.in_masks[a]) for a in old]
        return Digraph.from_rows(out_masks, in_masks), old

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Digraph)
            and self.n == other.n
            and self.out_masks == other.out_masks
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.out_masks)))

    def __repr__(self) -> str:
        return f"Digraph({self.n}, {self.arcs()!r})"


def _spread(rows: list[int], start: int, allowed: int) -> int:
    """Vertices of `allowed` that the start mask (inside `allowed`)
    reaches along the rows, one whole frontier per step."""
    seen = frontier = start
    while frontier:
        new = 0
        while frontier:
            low = frontier & -frontier
            new |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = new & allowed & ~seen
        seen |= frontier
    return seen


def reach_mask(g: Digraph, start: int, within: int | None = None, banned=None) -> int:
    """Vertices reachable from the start set (a mask), along allowed arcs."""
    allowed = g.full_mask if within is None else within
    rows = g.out_masks
    if banned:
        rows = rows[:]
        for a, b in banned:
            rows[a] &= ~(1 << b)
    return _spread(rows, start & allowed, allowed)


def coreach_mask(g: Digraph, start: int, within: int | None = None, banned=None) -> int:
    """Vertices that can reach the start set (a mask), along allowed arcs."""
    allowed = g.full_mask if within is None else within
    rows = g.in_masks
    if banned:
        rows = rows[:]
        for a, b in banned:
            rows[b] &= ~(1 << a)
    return _spread(rows, start & allowed, allowed)


@dataclass
class SccDecomposition:
    """Strong components in acyclic order: cross arcs go low index -> high."""

    components: list[int]  # vertex masks
    comp_of: dict[int, int]
    initial: list[int]  # component indices with no entering arc
    terminal: list[int]  # component indices with no leaving arc

    @property
    def t(self) -> int:
        return len(self.components)


def is_strong(g: Digraph) -> bool:
    """Whether g is strong: n >= 1, and vertex 0 reaches every vertex
    and is reached by every vertex."""
    full = g.full_mask
    return (
        g.n >= 1
        and _spread(g.out_masks, 1, full) == full
        and _spread(g.in_masks, 1, full) == full
    )


def strong_components(g: Digraph, within: int | None = None) -> SccDecomposition:
    """Strong components of g restricted to `within` (default: all of g).

    A strong input, one whose lowest vertex reaches and is reached by
    every allowed vertex, is answered by those two row searches as the
    one component Tarjan would give.  Otherwise an iterative Tarjan on
    bitset rows finds the components, in acyclic order, and rows
    restricted to `within` find the initial and terminal ones.
    """
    allowed = g.full_mask if within is None else within
    if allowed:
        first = allowed & -allowed
        if (
            _spread(g.out_masks, first, allowed) == allowed
            and _spread(g.in_masks, first, allowed) == allowed
        ):
            return SccDecomposition(
                [allowed], {v: 0 for v in bits(allowed)}, [0], [0]
            )
    out_masks = g.out_masks
    index = [0] * g.n
    lowlink = [0] * g.n
    visited = on_stack = 0
    stack: list[int] = []
    components: list[int] = []
    counter = 0

    # Iterative Tarjan; components complete in reverse topological order.
    # A vertex's next child is its lowest unvisited successor, as in a
    # scan of its row; its on-stack successors are read when it finishes,
    # since no component that holds one completes while it is open.
    while roots := allowed & ~visited:
        work = [(roots & -roots).bit_length() - 1]
        while work:
            v = work[-1]
            if not visited >> v & 1:
                index[v] = lowlink[v] = counter
                counter += 1
                visited |= 1 << v
                on_stack |= 1 << v
                stack.append(v)
            fresh = out_masks[v] & allowed & ~visited
            if fresh:
                work.append((fresh & -fresh).bit_length() - 1)
                continue
            work.pop()
            low = lowlink[v]
            for w in bits(out_masks[v] & on_stack):
                if index[w] < low:
                    low = index[w]
            lowlink[v] = low
            if work and low < lowlink[work[-1]]:
                lowlink[work[-1]] = low
            if low == index[v]:
                comp = 0
                while True:
                    w = stack.pop()
                    comp |= 1 << w
                    if w == v:
                        break
                on_stack &= ~comp
                components.append(comp)

    components.reverse()
    comp_of = {v: i for i, comp in enumerate(components) for v in bits(comp)}

    initial = []
    terminal = []
    for i, comp in enumerate(components):
        outside = allowed & ~comp
        out_row = in_row = 0
        for v in bits(comp):
            out_row |= g.out_masks[v]
            in_row |= g.in_masks[v]
        if not in_row & outside:
            initial.append(i)
        if not out_row & outside:
            terminal.append(i)
    return SccDecomposition(components, comp_of, initial, terminal)


def unit_flow(
    g: Digraph,
    source_mask: int,
    sink: int,
    within: int | None = None,
    cap: int | None = None,
) -> int:
    """Max number of arc-disjoint paths from the source set to sink, up
    to cap paths.  Arcs inside the source set are ignored and vertices
    outside `within` are unusable.

    Flow lives in bitset rows: used[v] and used_in[v] hold the heads and
    tails of v's arcs carrying flow, so each BFS step of the augmenting
    loop takes its residual arcs as whole-row masks.
    """
    allowed = g.full_mask if within is None else within
    if source_mask >> sink & 1:
        raise InvalidInput("sink inside the source set")
    n = g.n
    out_masks = g.out_masks
    used = [0] * n
    used_in = [0] * n
    sink_bit = 1 << sink
    value = 0
    while cap is None or value < cap:
        # BFS in the residual graph; parent[w] is v for a forward arc
        # (v, w) and ~v for a backward step along the used arc (w, v).
        parent = [0] * n
        seen = source_mask & allowed
        frontier = list(bits(seen))
        found = False
        while frontier and not found:
            nxt = []
            for v in frontier:
                fwd = out_masks[v] & allowed & ~seen & ~used[v]
                if fwd & sink_bit:
                    parent[sink] = v
                    found = True
                    break
                for w in bits(fwd):
                    parent[w] = v
                    nxt.append(w)
                seen |= fwd
                bwd = used_in[v] & allowed & ~seen
                if bwd & sink_bit:
                    parent[sink] = ~v
                    found = True
                    break
                for w in bits(bwd):
                    parent[w] = ~v
                    nxt.append(w)
                seen |= bwd
            frontier = nxt
        if not found:
            return value
        # Augment along the path.
        v = sink
        while not (source_mask >> v & 1):
            p = parent[v]
            if p >= 0:
                used[p] |= 1 << v
                used_in[v] |= 1 << p
            else:
                p = ~p
                used[v] &= ~(1 << p)
                used_in[p] &= ~(1 << v)
            v = p
        value += 1
    return value


def is_k_arc_strong(g: Digraph, k: int) -> bool:
    """True iff every local arc connectivity is at least k: vertex 0
    sends and receives k arc-disjoint paths to and from every vertex."""
    if g.n < 2:
        raise InvalidInput("is_k_arc_strong needs n >= 2")
    return all(
        unit_flow(g, 1 << x, t, cap=k) >= k
        for y in range(1, g.n)
        for x, t in ((0, y), (y, 0))
    )


def small_digraph_match(
    g: Digraph, pattern: Digraph, pinned: dict[int, int] | None = None, bound: int = 8
):
    """Arc-preserving bijection pattern -> g extending pinned, or None."""
    if pattern.n > bound:
        raise InvalidInput(f"pattern size {pattern.n} over the bound {bound}")
    if g.n != pattern.n:
        return None
    pinned = pinned or {}
    degs_g = {
        v: (g.out_degree(v), g.in_degree(v)) for v in range(g.n)
    }
    degs_p = {
        v: (pattern.out_degree(v), pattern.in_degree(v)) for v in range(pattern.n)
    }
    if sorted(degs_g.values()) != sorted(degs_p.values()):
        return None
    order = sorted(
        range(pattern.n), key=lambda v: (v not in pinned, -sum(degs_p[v]), v)
    )
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def consistent(p: int, q: int) -> bool:
        if degs_p[p] != degs_g[q]:
            return False
        for p2, q2 in mapping.items():
            if pattern.has_arc(p, p2) != g.has_arc(q, q2):
                return False
            if pattern.has_arc(p2, p) != g.has_arc(q2, q):
                return False
        return True

    def solve(i: int):
        if i == len(order):
            return dict(mapping)
        p = order[i]
        candidates = [pinned[p]] if p in pinned else range(g.n)
        for q in candidates:
            if q in used or not consistent(p, q):
                continue
            mapping[p] = q
            used.add(q)
            result = solve(i + 1)
            if result is not None:
                return result
            del mapping[p]
            used.remove(q)
        return None

    return solve(0)
