"""Compositions: a quotient digraph with a digraph substituted per vertex.

Substituting H_1..H_s into the vertices of S yields the flat digraph with
a copy of each H_i and, for every quotient arc ij, all arcs from the i-th
copy to the j-th.  Flat vertices are numbered part by part, in order.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .digraph import Digraph, bits, strong_components
from .errors import InvalidInput


@dataclass(frozen=True)
class Composition:
    quotient: Digraph
    parts: tuple[Digraph, ...]
    offsets: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if self.quotient.n != len(self.parts):
            raise InvalidInput("one part per quotient vertex required")
        if self.quotient.n < 1:
            raise InvalidInput("empty quotient")
        offsets = []
        total = 0
        for p in self.parts:
            if p.n < 1:
                raise InvalidInput("empty part")
            offsets.append(total)
            total += p.n
        object.__setattr__(self, "offsets", tuple(offsets))

    @property
    def s(self) -> int:
        return self.quotient.n

    @property
    def n(self) -> int:
        return self.offsets[-1] + self.parts[-1].n

    def part_of(self, flat: int) -> int:
        if not 0 <= flat < self.n:
            raise InvalidInput(f"flat vertex {flat} out of range")
        return bisect_right(self.offsets, flat) - 1

    def local(self, flat: int) -> int:
        return flat - self.offsets[self.part_of(flat)]

    def flat_index(self, part: int, local: int) -> int:
        if not (0 <= part < self.s and 0 <= local < self.parts[part].n):
            raise InvalidInput(f"local vertex {local} outside part {part}")
        return self.offsets[part] + local

    def part_mask(self, part: int) -> int:
        return ((1 << self.parts[part].n) - 1) << self.offsets[part]

    def flatten(self) -> Digraph:
        """Each flat row is its part row, shifted to the part's offset,
        plus every vertex of the quotient successor (or predecessor) parts.

        Built once per composition and shared by every later call, so
        callers must not edit its rows (residual digraphs copy them).  The
        cache is not a dataclass field: eq, hash and repr ignore it.
        """
        flat = getattr(self, "_flat", None)
        if flat is not None:
            return flat
        masks = [self.part_mask(i) for i in range(self.s)]
        out_masks: list[int] = []
        in_masks: list[int] = []
        for i, p in enumerate(self.parts):
            off = self.offsets[i]
            succ = pred = 0
            for j in bits(self.quotient.out_masks[i]):
                succ |= masks[j]
            for j in bits(self.quotient.in_masks[i]):
                pred |= masks[j]
            out_masks.extend(row << off | succ for row in p.out_masks)
            in_masks.extend(row << off | pred for row in p.in_masks)
        flat = Digraph.from_rows(out_masks, in_masks)
        object.__setattr__(self, "_flat", flat)
        return flat


def is_semicomplete(g: Digraph) -> bool:
    full = g.full_mask
    return all(
        (g.out_masks[x] | g.in_masks[x] | 1 << x) == full for x in range(g.n)
    )


def is_oriented(g: Digraph) -> bool:
    return all(not g.out_masks[x] & g.in_masks[x] for x in range(g.n))


def _pack(rows: list[int], n: int) -> int:
    """The rows side by side in one int, row x at bits x*n..x*n+n-1."""
    packed = 0
    for row in reversed(rows):
        packed = packed << n | row
    return packed


def _two_steps_closed(g: Digraph, either_way: bool) -> bool:
    """Whether every path xyz with x != z is closed by an arc xz (or,
    when either_way, by an arc xz or zx).

    Bit-parallel over all x at once (the "Four Russians" packing of
    Arlazarov et al.): with the out-rows packed into A, `A >> y & ones`
    has bit x*n set exactly for the in-neighbours x of y, and multiplying
    it by out[y] writes out[y] into each of their rows without carries.
    `bad` holds every packed bit outside the allowed rows and off the
    diagonal x*n+x, so one `&` per middle vertex y tests all its
    two-step paths.  Middle vertices without in- or out-arcs are skipped.
    """
    n = g.n
    if n < 2:
        return True
    out_masks = g.out_masks
    in_masks = g.in_masks
    packed = _pack(out_masks, n)
    allowed = packed | _pack(in_masks, n) if either_way else packed
    ones = ((1 << n * n) - 1) // ((1 << n) - 1)
    diag = ((1 << n * (n + 1)) - 1) // ((1 << n + 1) - 1)
    bad = ~(allowed | diag)
    for y in range(n):
        if in_masks[y] and out_masks[y]:
            if (packed >> y & ones) * out_masks[y] & bad:
                return False
    return True


def is_transitive(g: Digraph) -> bool:
    """Arcs xy and yz with x != z always force xz: two-step closure
    within the out-rows, tested by the packed kernel."""
    return _two_steps_closed(g, either_way=False)


def is_quasi_transitive(g: Digraph) -> bool:
    """Arcs xy and yz with x != z always force xz or zx: two-step
    closure within the out- and in-rows together, tested by the packed
    kernel."""
    return _two_steps_closed(g, either_way=True)


def quotient_of(g: Digraph, masks: list[int]) -> Digraph | None:
    """The quotient of g over the part masks `masks` (a partition of
    g's vertices): vertex i for masks[i], and an arc ij when part i
    sends every arc to part j.  None when some part pair is not
    uniformly joined, which holds exactly when the vertices of each
    part share one row outside it and that row holds every other part
    whole or not at all."""
    s = len(masks)
    out_masks = [0] * s
    in_masks = [0] * s
    for i, mi in enumerate(masks):
        row = g.out_masks[(mi & -mi).bit_length() - 1] & ~mi
        if any(g.out_masks[a] & ~mi != row for a in bits(mi)):
            return None
        for j, mj in enumerate(masks):
            joined = row & mj
            if joined == mj:
                out_masks[i] |= 1 << j
                in_masks[j] |= 1 << i
            elif joined:
                return None
    return Digraph.from_rows(out_masks, in_masks)


def composition_from_partition(g: Digraph, part_masks: list[int]):
    """Rebuild g as a composition over the given vertex partition.

    Returns (Composition, order) with order[flat index] = g vertex, or
    None when some part pair is not uniformly joined.
    """
    cover = 0
    for m in part_masks:
        if not m or cover & m:
            raise InvalidInput("part masks must partition the vertex set")
        cover |= m
    if cover != g.full_mask:
        raise InvalidInput("part masks must partition the vertex set")
    quotient = quotient_of(g, part_masks)
    if quotient is None:
        return None
    parts = []
    order: list[int] = []
    for m in part_masks:
        sub, old = g.induced(m)
        parts.append(sub)
        order.extend(old)
    return Composition(quotient, tuple(parts)), order


def cells_of(masks: list[int], n: int) -> tuple[int, ...]:
    """cells[x] = the index of the mask that holds vertex x."""
    cells = [0] * n
    for i, m in enumerate(masks):
        for x in bits(m):
            cells[x] = i
    return tuple(cells)


def complement_components(g: Digraph, within: int) -> list[int]:
    """Components of the non-adjacency graph of g on the vertices of
    `within`, ordered by smallest vertex."""
    unseen = within
    comps = []
    while unseen:
        start = unseen & -unseen
        comp = start
        frontier = start
        while frontier:
            new = 0
            for v in bits(frontier):
                non_adj = within & ~(g.out_masks[v] | g.in_masks[v] | 1 << v)
                new |= non_adj & ~comp
            comp |= new
            frontier = new
        comps.append(comp)
        unseen &= ~comp
    return comps


def _finest_cells(g: Digraph, part: int) -> list[int]:
    """Smallest cell partition of the vertices of `part` whose cell
    pairs are uniformly joined in g.

    Cells start as non-adjacency components and merge while some pair
    carries a partial join, so the cells of any uniform partition of
    the part are unions of the returned cells.
    """
    cells = complement_components(g, part)
    changed = True
    while changed and len(cells) > 1:
        changed = False
        for i in range(len(cells)):
            for j in range(len(cells)):
                if i == j:
                    continue
                a, b = cells[i], cells[j]
                forward = sum((g.out_masks[x] & b).bit_count() for x in bits(a))
                if forward not in (0, a.bit_count() * b.bit_count()):
                    cells[i] = a | b
                    del cells[j]
                    changed = True
                    break
            if changed:
                break
    cells.sort(key=lambda m: m & -m)
    return cells


def finest_refinement(g: Digraph, masks: list[int]) -> list[int]:
    """Split the parts `masks` of g into the smallest cells keeping the
    quotient semicomplete, part by part, each part's cells ordered by
    smallest vertex.

    Cell pairs inside an old part are adjacent and uniformly joined by
    construction; cell pairs from different old parts inherit the old
    quotient arcs, so the refined quotient is semicomplete whenever the
    original one is.  No part splits exactly when the result is as long
    as `masks`.
    """
    return [cell for m in masks for cell in _finest_cells(g, m)]


@dataclass(frozen=True)
class QtDecomposition:
    kind: str  # "strong" or "non-strong"
    composition: Composition
    order: tuple[int, ...]  # flat composition vertex -> original vertex


def strong_qt_parts(g: Digraph) -> tuple[list[int], Digraph]:
    """(part masks, quotient) of a strong quasi-transitive g: its
    non-adjacency components, ordered by smallest vertex, and the
    quotient built to check them.  Raise InvalidInput when they do not
    form a composition over a semicomplete quotient, as they always do
    for a strong quasi-transitive digraph."""
    masks = complement_components(g, g.full_mask)
    if len(masks) < 2:
        raise InvalidInput("strong input with connected non-adjacency graph")
    quotient = quotient_of(g, masks)
    if quotient is None:
        raise InvalidInput("non-uniform join between non-adjacency components")
    if not is_semicomplete(quotient):
        raise InvalidInput("quotient of strong input is not semicomplete")
    return masks, quotient


def qt_decompose(g: Digraph) -> QtDecomposition:
    """Canonical decomposition of a quasi-transitive digraph.

    Strong inputs split along non-adjacency components with a strong
    semicomplete quotient (`strong_qt_parts`); non-strong inputs split
    into their strong components under a transitive oriented quotient.
    Inputs that fail the uniformity this structure promises are
    rejected.
    """
    if g.n < 2:
        raise InvalidInput("decomposition needs at least two vertices")
    if not is_quasi_transitive(g):
        raise InvalidInput("input digraph is not quasi-transitive")
    scc = strong_components(g)
    if scc.t == 1:
        comp, order = composition_from_partition(g, strong_qt_parts(g)[0])
        return QtDecomposition("strong", comp, tuple(order))
    built = composition_from_partition(g, scc.components)
    if built is None:
        raise InvalidInput("non-uniform join between strong components")
    comp, order = built
    if not (is_transitive(comp.quotient) and is_oriented(comp.quotient)):
        raise InvalidInput("quotient of non-strong input is not transitive oriented")
    return QtDecomposition("non-strong", comp, tuple(order))


def singleton() -> Digraph:
    return Digraph(1, [])


def independent(n: int) -> Digraph:
    return Digraph(n, [])


def directed_cycle(n: int) -> Digraph:
    return Digraph(n, [(i, (i + 1) % n) for i in range(n)])


def transitive_tournament(n: int) -> Digraph:
    return Digraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def ring_tournament(n: int) -> Digraph:
    """Tournament on 1..n (as 0..n-1): consecutive arcs forward, skips back."""
    if n < 3:
        raise InvalidInput("ring tournament needs n >= 3")
    arcs = [(i, i + 1) for i in range(n - 1)]
    arcs += [(j, i) for i in range(n) for j in range(i + 2, n)]
    return Digraph(n, arcs)
