"""Brute-force reference oracle for good (u,v)-pairs.

The oracle knows nothing about structure theory.  It enumerates spanning
out-branchings rooted at u by include/exclude decisions on frontier arcs
and, for each one, asks whether an in-branching rooted at v survives in
the leftover arcs.  Slow but self-evidently correct; every engine verdict
at desk scale is compared against it.
"""

from __future__ import annotations

from .branchings import Branching, BranchingPair, find_branching
from .digraph import Arc, Digraph, bits, coreach_mask, reach_mask, strong_components
from .errors import InvalidInput, ResourceExceeded

DEFAULT_MAX_N = 9
DEFAULT_BUDGET = 4_000_000


def _frontier_arc(g: Digraph, tree_mask: int, banned: set[Arc]) -> Arc | None:
    for x in bits(tree_mask):
        for y in bits(g.out_masks[x] & ~tree_mask):
            if (x, y) not in banned:
                return (x, y)
    return None


def enumerate_out_branchings(
    g: Digraph, root: int, budget: int = DEFAULT_BUDGET
):
    """Every spanning out-branching rooted at `root`, once each, as a generator."""
    if not g.is_vertex(root):
        raise InvalidInput("roots out of range")
    full = g.full_mask
    counter = [0]

    def step(tree_mask: int, tree_arcs: tuple[Arc, ...], banned: set[Arc]):
        counter[0] += 1
        if counter[0] > budget:
            raise ResourceExceeded("out-branching enumeration budget exhausted")
        if tree_mask == full:
            yield Branching(root=root, arcs=tree_arcs, kind="out")
            return
        if reach_mask(g.without_arcs(banned), tree_mask) != full:
            return
        arc = _frontier_arc(g, tree_mask, banned)
        if arc is None:
            return
        yield from step(tree_mask | 1 << arc[1], tree_arcs + (arc,), banned)
        banned.add(arc)
        yield from step(tree_mask, tree_arcs, banned)
        banned.remove(arc)

    return step(1 << root, (), set())


def oracle_good_pair(
    g: Digraph,
    u: int,
    v: int,
    max_n: int = DEFAULT_MAX_N,
    budget: int = DEFAULT_BUDGET,
) -> BranchingPair | None:
    """Search every out-branching at u for one leaving an in-branching at v."""
    if g.n > max_n:
        raise InvalidInput(f"oracle limited to n <= {max_n}, got {g.n}")
    if not (g.is_vertex(u) and g.is_vertex(v)):
        raise InvalidInput("roots out of range")
    full = g.full_mask
    if reach_mask(g, 1 << u) != full or coreach_mask(g, 1 << v) != full:
        return None
    counter = [0]

    def step(tree_mask: int, tree_arcs: tuple[Arc, ...], banned: set[Arc]):
        counter[0] += 1
        if counter[0] > budget:
            raise ResourceExceeded("good-pair search budget exhausted")
        # the final in-branching avoids all chosen arcs, so every vertex
        # must still reach v without them
        left = g.without_arcs(tree_arcs)
        if coreach_mask(left, 1 << v) != full:
            return None
        if tree_mask == full:
            tree = Branching(root=u, arcs=tree_arcs, kind="out")
            inn = find_branching(left, v, "in")
            if inn is None:
                return None
            return BranchingPair(tree, inn)
        if reach_mask(g.without_arcs(banned), tree_mask) != full:
            return None
        arc = _frontier_arc(g, tree_mask, banned)
        if arc is None:
            return None
        found = step(tree_mask | 1 << arc[1], tree_arcs + (arc,), banned)
        if found is not None:
            return found
        banned.add(arc)
        found = step(tree_mask, tree_arcs, banned)
        banned.remove(arc)
        return found

    return step(1 << u, (), set())


def oracle_all_pairs(
    g: Digraph, max_n: int = 8, budget: int = DEFAULT_BUDGET
) -> list[int]:
    """Bitmask matrix yes[u] of all v with a good (u,v)-pair.

    Enumerates the out-branchings of each root once and reads off every
    compatible v from the leftover graph: the in-branching roots are
    exactly the vertices of its terminal strong component, provided that
    component is unique.  The last component in acyclic order is
    terminal, and it is the only one when every vertex reaches it.
    """
    if g.n > max_n:
        raise InvalidInput(f"all-pairs oracle limited to n <= {max_n}, got {g.n}")
    yes = [0] * g.n
    for u in range(g.n):
        if reach_mask(g, 1 << u) != g.full_mask:
            continue
        for tree in enumerate_out_branchings(g, u, budget=budget):
            leftover = set(tree.arcs)
            left = g.without_arcs(leftover)
            last = strong_components(left)[-1]
            if coreach_mask(left, last) == g.full_mask:
                yes[u] |= last
            if yes[u] == g.full_mask:
                break
    return yes
