"""Branchings, good-pair verification and the complete good-pair search.

A good (u,v)-pair is an out-branching rooted at u and an in-branching
rooted at v sharing no arc.  Everything here returns explicit arc sets so
callers and tests can re-verify results independently; inside, the
complete search keeps residual rows (g less its bans) as the greedy does.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import (
    Arc,
    Digraph,
    _spread,
    bits,
    coreach_mask,
    reach_mask,
)
from .errors import InvalidInput, ResourceExceeded


@dataclass(frozen=True)
class Branching:
    """A spanning out- or in-tree given by its arc set."""

    root: int
    arcs: tuple[Arc, ...]
    kind: str  # "out" or "in"

    def __post_init__(self):
        if self.kind not in ("out", "in"):
            raise InvalidInput(f"bad branching kind {self.kind!r}")
        object.__setattr__(self, "arcs", tuple(sorted(self.arcs)))

    @property
    def arc_set(self) -> frozenset[Arc]:
        return frozenset(self.arcs)


@dataclass(frozen=True)
class BranchingPair:
    out_branching: Branching
    in_branching: Branching

    @property
    def shared_arcs(self) -> frozenset[Arc]:
        return self.out_branching.arc_set & self.in_branching.arc_set


def branching_violation(g: Digraph, branching: Branching) -> str | None:
    """None if the branching is a valid spanning tree of g, else a reason.

    One pass over the arcs checks each on g's rows, with the type and
    range checks of `Digraph.is_arc`, and records its child in a parent
    mask and in its parent's child row; the parent mask gives coverage
    and a spread over the child rows from the root gives the tree check.
    """
    root = branching.root
    if not g.is_vertex(root):
        return f"root {root} outside the spanned set"
    n, rows = g.n, g.out_masks
    out = branching.kind == "out"
    parented = 0
    children = [0] * n
    for arc in branching.arcs:
        try:
            a, b = arc
        except ValueError:
            a = b = None
        if not (
            type(a) is type(b) is int and 0 <= a < n and 0 <= b < n and rows[a] >> b & 1
        ):
            return f"arc ({','.join(map(str, arc))}) not in the digraph"
        child = b if out else a
        if child == root:
            return f"root {root} has a parent arc"
        if parented >> child & 1:
            return f"vertex {child} has two parent arcs"
        parented |= 1 << child
        children[a if out else b] |= 1 << child
    span = g.full_mask
    missing = span & ~parented & ~(1 << root)
    if missing:
        return f"vertices {list(bits(missing))} not covered"
    # every vertex but the root has one parent, so the spread meets each
    # vertex at most once and covers the span only along a tree
    if _spread(children, 1 << root, span) != span:
        return "parent arcs do not form a tree reaching the root"
    return None


def good_pair_violation(g: Digraph, u: int, v: int, pair: BranchingPair) -> str | None:
    if pair.out_branching.kind != "out" or pair.in_branching.kind != "in":
        return "pair components have wrong kinds"
    if pair.out_branching.root != u:
        return f"out-branching rooted at {pair.out_branching.root}, expected {u}"
    if pair.in_branching.root != v:
        return f"in-branching rooted at {pair.in_branching.root}, expected {v}"
    reason = branching_violation(g, pair.out_branching)
    if reason:
        return f"out-branching: {reason}"
    reason = branching_violation(g, pair.in_branching)
    if reason:
        return f"in-branching: {reason}"
    if not set(pair.out_branching.arcs).isdisjoint(pair.in_branching.arcs):
        return f"shared arcs {sorted(pair.shared_arcs)}"
    return None


def verify_good_pair(g: Digraph, u: int, v: int, pair: BranchingPair) -> bool:
    return good_pair_violation(g, u, v, pair) is None


def _bfs(
    g: Digraph,
    root: int,
    kind: str = "out",
    ban: list[int] | None = None,
) -> tuple[int, list[int], list[int]]:
    """BFS tree at root: (covered mask, parent row, `upto` masks).

    `parent[y]` is y's tree neighbour, -1 at the root and off the tree:
    the tree arc is (parent[y], y) in an out-tree and (y, parent[y]) in
    an in-tree (`_tree_arcs`).  `ban` holds one mask per row the search
    reads (out-rows for "out", in-rows for "in"): x's row loses ban[x].
    `upto[y]` holds the covered vertices no deeper than y, 0 where y is
    not covered.  See `_may_cut` for what the depths are good for.
    `ban` is folded into a copy of the rows, once per call.
    """
    rows = g.out_masks if kind == "out" else g.in_masks
    if ban is not None:
        rows = [r & ~b for r, b in zip(rows, ban)]
    seen = 1 << root
    parent = [-1] * g.n
    upto = [0] * g.n
    upto[root] = seen
    frontier = [root]
    while frontier:
        nxt = []
        for x in frontier:
            new = rows[x] & ~seen
            if not new:
                continue
            seen |= new
            while new:
                low = new & -new
                y = low.bit_length() - 1
                parent[y] = x
                nxt.append(y)
                new ^= low
        for y in nxt:
            upto[y] = seen
        frontier = nxt
    return seen, parent, upto


def _tree_arcs(parent: list[int], kind: str = "out") -> list[Arc]:
    """The arcs of a `_bfs` parent row, in the order of their far ends."""
    if kind == "out":
        return [(x, y) for y, x in enumerate(parent) if x >= 0]
    return [(y, x) for y, x in enumerate(parent) if x >= 0]


def _may_cut(g: Digraph, kind: str, upto: list[int], arc: Arc) -> bool:
    """Level test: can removing `arc`, an arc of a BFS tree of g (its
    `upto` masks from `_bfs`), shrink the set the tree's root covers?

    For an out-tree, only if the arc's head y has no in-neighbour w other
    than the arc's tail with depth(w) <= depth(y): the tree path to such
    a w visits only vertices no deeper than w and does not end at y, so
    it avoids the arc, and w -> y reaches y again, and with it all of
    y's subtree.  An in-tree is the mirror image, on the arc's tail.
    The test reads g's rows, so for a tree searched with a `ban` it
    holds only where no banned arc meets the arc's far end.
    """
    x, y = arc
    if kind == "out":
        return not g.in_masks[y] & upto[y] & ~(1 << x)
    return not g.out_masks[x] & upto[x] & ~(1 << y)


def first_cut(g: Digraph, root: int, kind: str = "out", skip=()) -> Arc | None:
    """First arc of g, in sorted order and not in `skip`, whose removal
    leaves a vertex unreached from root (out) or unable to reach it (in).

    The root must cover g.  Only a BFS tree arc that passes the level
    test (`_may_cut`) can cut; each is tested by one search with its bit
    cleared in a copy of the rows the search reads.
    """
    full = g.full_mask
    _, parent, upto = _bfs(g, root, kind)
    rows = (g.out_masks if kind == "out" else g.in_masks)[:]
    for arc in sorted(_tree_arcs(parent, kind)):
        if arc in skip or not _may_cut(g, kind, upto, arc):
            continue
        x, y = arc if kind == "out" else arc[::-1]
        rows[x] ^= 1 << y
        cut = _spread(rows, 1 << root, full) != full
        rows[x] ^= 1 << y
        if cut:
            return arc
    return None


def is_two_arc_strong(g: Digraph) -> bool:
    """Whether g is 2-arc-strong: strong, and strong without any one arc.

    Only an arc of a BFS out-tree at 0 can cut 0 from a vertex, and only
    an arc of a BFS in-tree at 0 can cut a vertex from 0, so a strong
    bridge is a tree arc that passes the level test and whose removal
    shrinks what its tree covers (the strong-bridge view of Italiano,
    Laura and Santaroni), which `first_cut` finds.
    `digraph.is_k_arc_strong`, which counts paths with `unit_flow` up to
    k, is the general test and the reference for this one.
    """
    if g.n < 2:
        raise InvalidInput("is_two_arc_strong needs n >= 2")
    full = g.full_mask
    for kind, span in (("out", reach_mask), ("in", coreach_mask)):
        if span(g, 1) != full or first_cut(g, 0, kind) is not None:
            return False
    return True


def find_branching(g: Digraph, root: int, kind: str = "out") -> Branching | None:
    """BFS spanning branching of g at root, or None when the root does
    not span g.  Its arcs are those of `_bfs`'s parent row, built only
    once the tree spans."""
    seen, parent, _ = _bfs(g, root, kind)
    if seen != g.full_mask:
        return None
    return Branching(root=root, arcs=tuple(_tree_arcs(parent, kind)), kind=kind)


# Node budget of search_good_pair: the bound of the oracle's own search.
SEARCH_BUDGET = 4_000_000


def search_good_pair(g: Digraph, u: int, v: int) -> BranchingPair | None:
    """First good (u,v)-pair, or None: the pair of `oracle.oracle_good_pair`.

    A complete include/exclude search over out-branching arcs at u.
    Each node branches on its first unbanned arc (x, y) with x in the
    tree and y outside it, x then y increasing, "include" first.  A
    spanning tree T is answered with the BFS in-branching at v that
    avoids T.  This is the oracle's search, and it returns the same pair.

    Pruning only ever bans arcs that no accepted tree below the node
    can use, so it cuts the search without reordering it.  The
    in-branching must avoid F, the tree arcs plus the only unbanned
    entry of each vertex outside the tree: every vertex must reach v
    without F, and a vertex w != v with a single exit e outside F leaves
    by e, which the out-tree then cannot use.  Bans repeat until none is
    new, and the tree must still reach every vertex past them.  Good
    pairs are NP-complete to decide in general digraphs, so the search
    counts its nodes and raises ResourceExceeded past SEARCH_BUDGET.
    Like the greedy, it keeps residual rows: g less the bans, edited in
    place and undone per node, and the tree's rows by tail and by head.
    """
    if not (g.is_vertex(u) and g.is_vertex(v)):
        raise InvalidInput("roots out of range")
    n, full, out_masks, in_masks = g.n, g.full_mask, g.out_masks, g.in_masks
    live, live_in = out_masks[:], in_masks[:]
    tree_out, tree_in = [0] * n, [0] * n
    nodes = 0

    def alive(tree_mask: int, added: list[Arc]) -> bool:
        """Ban what the node rules out (logged in `added`); False if it is dead."""
        while _spread(live, tree_mask, full) == full:
            # F by tail and by head; each vertex off the tree has an entry
            forced_out, forced_in = tree_out[:], tree_in[:]
            for y in bits(full & ~tree_mask):
                entry = live_in[y]
                if not entry & (entry - 1):
                    forced_in[y] = entry
                    forced_out[entry.bit_length() - 1] |= 1 << y
            rest_in = [r & ~f for r, f in zip(in_masks, forced_in)]
            if _spread(rest_in, 1 << v, full) != full:
                return False
            banned = len(added)
            for w in range(n):
                exit_ = out_masks[w] & ~forced_out[w]
                if w != v and not exit_ & (exit_ - 1) and live[w] & exit_:
                    z = exit_.bit_length() - 1
                    live[w] ^= exit_
                    live_in[z] ^= 1 << w
                    added.append((w, z))
            if len(added) == banned:
                return True
        return False

    def grow(tree_mask: int) -> BranchingPair | None:
        # the exclude branch of a node is the same node with one more ban,
        # so recursion only goes as deep as the tree
        nonlocal nodes
        added: list[Arc] = []
        try:
            while True:
                nodes += 1
                if nodes > SEARCH_BUDGET:
                    raise ResourceExceeded(
                        f"good-pair search budget of {SEARCH_BUDGET} nodes "
                        f"exhausted at n={n}"
                    )
                if not alive(tree_mask, added):
                    return None
                if tree_mask == full:
                    spanned, parent, _ = _bfs(g, v, "in", ban=tree_in)
                    if spanned != full:
                        return None
                    out = [(t.bit_length() - 1, y) for y, t in enumerate(tree_in) if t]
                    inn = Branching(v, _tree_arcs(parent, "in"), "in")
                    return BranchingPair(Branching(u, out, "out"), inn)
                x = next(x for x in bits(tree_mask) if live[x] & ~tree_mask)
                heads = live[x] & ~tree_mask
                y = (heads & -heads).bit_length() - 1
                tree_out[x] ^= 1 << y
                tree_in[y] = 1 << x
                found = grow(tree_mask | 1 << y)
                tree_out[x] ^= 1 << y
                tree_in[y] = 0
                if found is not None:
                    return found
                live[x] ^= 1 << y
                live_in[y] ^= 1 << x
                added.append((x, y))
        finally:
            for w, z in added:
                live[w] |= 1 << z
                live_in[z] |= 1 << w

    return grow(1 << u)
