"""Good-pair decision for flat strong or non-strong semicomplete digraphs.

A good (u,v)-pair exists unless one of four obstructions is present: a
root that does not span, one of six small exceptional digraphs with the
roots in fixed position, a single arc whose removal starves both roots,
or a layered kind-A witness with at least five levels.  `dispatch`
tests the roots for every class, and `decide_semicomplete` is this
class's finder for the other three: a NO with its evidence, or None.
The pairs live here too, for every class: `dispatch.decide` answers YES
with the verified greedy pair of `greedy_good_pair` and, past a greedy
miss that no finder blocks, with `searched_good_pair`, the complete
`branchings.search_good_pair`.  `construct_good_pair` is those two in
one call.

The arc-obstruction scan, the witness enumeration and the greedy's
guarded growth rest on two BFS-tree facts.  An arc off a BFS tree cannot
cut any vertex from its root, and removing it leaves the tree exactly as
it was (same distances, same first-found parents); so the growth keeps
v's in-tree across its steps; when it takes one of the tree's own arcs
it re-points that arc's tail one level nearer v where it can and
rebuilds the tree only where it cannot.  And a tree arc (x, y) of a BFS
out-tree can cut y from the root only if y has no in-neighbour other
than x at depth at most depth(y), the level test of `branchings._may_cut`
(mirrored for in-trees); so a tree arc that fails it needs no reach
check either.
"""

from __future__ import annotations

from .branchings import (
    Branching,
    BranchingPair,
    _bfs,
    _may_cut,
    _tree_arcs,
    search_good_pair,
    verify_good_pair,
)
from .digraph import (
    Arc,
    Digraph,
    coreach_mask,
    reach_mask,
)
from .errors import InternalInconsistency
from .verdicts import (
    ARC_OBSTRUCTION,
    LAYERED_A,
    SMALL_EXCEPTION,
    Verdict,
)

# The six root-pinned digraphs that block a good pair despite passing the
# reachability and single-arc tests.  Two non-strong shapes on the roots
# u, v (ids "a", "b") and four strong shapes (ids "c".."f").
EXCEPTION_PATTERNS: dict[str, tuple[Digraph, int, int]] = {
    "a": (Digraph(2, [(0, 1)]), 0, 1),
    "b": (Digraph(3, [(0, 1), (0, 2), (1, 2)]), 0, 2),
    "c": (Digraph(3, [(0, 1), (1, 0), (0, 2), (2, 1)]), 0, 1),
    "d": (
        Digraph(4, [(0, 2), (1, 3), (3, 0), (0, 1), (1, 2), (2, 3)]),
        0,
        3,
    ),
    "e": (
        Digraph(4, [(0, 2), (1, 3), (3, 0), (0, 1), (1, 2), (2, 3), (3, 1)]),
        0,
        3,
    ),
    "f": (
        Digraph(4, [(0, 2), (1, 3), (3, 0), (0, 1), (1, 2), (2, 3), (2, 0)]),
        0,
        3,
    ),
}


def match_small_exception(g: Digraph, u: int, v: int):
    """(id, mapping) if g with roots u,v is one of the blocked shapes."""
    from .digraph import small_digraph_match

    for name, (pattern, pu, pv) in EXCEPTION_PATTERNS.items():
        if pattern.n != g.n:
            continue
        mapping = small_digraph_match(g, pattern, pinned={pu: u, pv: v})
        if mapping is not None:
            ordered = tuple(mapping[i] for i in range(pattern.n))
            return name, ordered
    return None


def trivial_pair(u: int) -> BranchingPair:
    return BranchingPair(Branching(u, (), "out"), Branching(u, (), "in"))


def try_construct_pair(g: Digraph, u: int, v: int) -> BranchingPair | None:
    """Deterministic greedy attempts; every hit is verified by the caller.

    The trees are `_bfs` parent rows, and `succ[x]` is x's successor in
    v's in-tree: (x, y) is one of its arcs exactly when succ[x] == y.

    Two whole-tree attempts come first, and only when u == v: u's BFS
    out-tree banning v's BFS in-tree, then v's in-tree banning u's
    out-tree.  For u != v neither can span.  A BFS in-tree at v holds
    every arc into v, so the first search never reaches v; a BFS
    out-tree at u holds every arc out of u, so the second never reaches
    u.  The growth below needs only v's in-tree.

    The growth tests a cut by one forward search from the arc's tail x
    that stops at v (a path through the arc meets x first, so x is cut
    off if any vertex is), and scans only the `live` out-tree vertices:
    one with no frontier arc, or only a cutting one, is never picked.
    Taking x's tree arc (x, y) re-points succ[x] at x's lowest other
    out-neighbour at y's depth, and only when x has none is the tree
    rebuilt by a BFS.  A re-point changes no distance to v, so `upto`
    stays exact, and the tree stays a shortest-path tree: an arc off it
    cuts nothing and the level test holds on it, so the growth accepts
    the arcs it would accept on the BFS tree.  It is not the BFS tree,
    though, so when the tree was re-pointed since its last rebuild one
    more BFS of the final rows gives the in-branching.  That is the tree
    a BFS per taken tree arc ends with: every arc taken since the last
    rebuild was off that rebuild's BFS tree, and removing such arcs
    leaves a BFS tree as it is.
    """
    full = g.full_mask
    spanned, succ, upto = _bfs(g, v, "in")
    if spanned != full:
        return None
    if u == v:
        # ban[x]: the bit of x's in-tree successor, then of its out-tree parent
        covered, parent, _ = _bfs(g, u, ban=[1 << s if s >= 0 else 0 for s in succ])
        inn = succ
        if covered != full:
            covered, parent, _ = _bfs(g, u)
            if covered == full:
                ban = [1 << p if p >= 0 else 0 for p in parent]
                covered, inn, _ = _bfs(g, v, "in", ban=ban)
        if covered == full:
            return BranchingPair(
                Branching(u, tuple(_tree_arcs(parent)), "out"),
                Branching(v, tuple(_tree_arcs(inn, "in")), "in"),
            )
    # guarded growth on the residual rows (g less the chosen arcs): accept
    # a frontier arc only while every vertex still reaches v without it.
    # Only an arc of v's in-tree that passes the level test can cut a
    # vertex from v, and x has one tree arc, so x's lowest frontier arc is
    # taken unless it is that arc and cuts; then the next one is.  Rows
    # only lose bits and the tree only grows, so an arc that cuts keeps
    # cutting and a vertex out of `live` stays out.  A taken off-tree arc
    # leaves the in-tree as it is; a taken tree arc (x, y) re-points x at
    # out_rows[x] & upto[y], its out-neighbours at y's depth, if any, and
    # else rebuilds it; `stale` marks a re-point since the last rebuild.
    out_rows, in_rows = g.out_masks[:], g.in_masks[:]
    res = Digraph.from_rows(out_rows, in_rows)
    tree = live = 1 << u
    arcs: list[Arc] = []
    stale = False
    while tree != full:
        scan = live
        while scan:
            bit = scan & -scan
            scan ^= bit
            x = bit.bit_length() - 1
            cand = out_rows[x] & ~tree
            if not cand:
                live ^= bit
                continue
            y = (cand & -cand).bit_length() - 1
            if succ[x] == y and not out_rows[x] & upto[x] & ~(1 << y):
                out_rows[x] ^= 1 << y
                seen = todo = bit
                while todo and not seen >> v & 1:
                    low = todo & -todo
                    new = out_rows[low.bit_length() - 1] & ~seen
                    seen |= new
                    todo ^= low | new
                out_rows[x] ^= 1 << y
                if not seen >> v & 1:
                    cand ^= 1 << y
                    if not cand:
                        live ^= bit
                        continue
                    y = (cand & -cand).bit_length() - 1
            break
        else:
            return None
        out_rows[x] ^= 1 << y
        in_rows[y] ^= 1 << x
        arcs.append((x, y))
        tree |= 1 << y
        live |= 1 << y
        if succ[x] == y:
            level = out_rows[x] & upto[y]
            if level:
                succ[x] = (level & -level).bit_length() - 1
                stale = True
            else:
                _, succ, upto = _bfs(res, v, "in")
                stale = False
    if stale:
        _, succ, _ = _bfs(res, v, "in")
    return BranchingPair(
        Branching(u, tuple(arcs), "out"),
        Branching(v, tuple(_tree_arcs(succ, "in")), "in"),
    )


def greedy_good_pair(g: Digraph, u: int, v: int) -> BranchingPair | None:
    """The greedy pair of `try_construct_pair` when it verifies, else None.

    A verified pair is a complete YES certificate, so `dispatch.decide`
    asks for it before any class's obstruction tests, and a NO can only
    follow a miss.
    """
    pair = try_construct_pair(g, u, v)
    if pair is not None and verify_good_pair(g, u, v, pair):
        return pair
    return None


def searched_good_pair(g: Digraph, u: int, v: int) -> BranchingPair:
    """The complete search's pair once the greedy missed and no finder
    blocked the roots, so the decision promised one.

    The pair is verified, so callers need not check again.  No pair at
    all, or one that fails verification, contradicts the promise and
    raises InternalInconsistency; a search past its node budget raises
    ResourceExceeded.
    """
    pair = search_good_pair(g, u, v)
    if pair is None:
        raise InternalInconsistency(
            f"characterization promised a good ({u},{v})-pair but none was built"
        )
    if not verify_good_pair(g, u, v, pair):
        raise InternalInconsistency("constructed pair failed verification")
    return pair


def construct_good_pair(g: Digraph, u: int, v: int) -> BranchingPair:
    """A good (u,v)-pair the caller's decision promised; never a silent miss.

    The verified greedy pair when there is one, else `searched_good_pair`:
    the pair every class answers YES with.  `dispatch.decide` calls the
    two halves apart, with the class's obstruction finder between them,
    so the greedy runs once per decision.
    """
    pair = greedy_good_pair(g, u, v)
    if pair is None:
        pair = searched_good_pair(g, u, v)
    return pair


def _obstruction_arc(g: Digraph, u: int, v: int) -> Arc | None:
    """First arc, in g.arcs() order, cutting both reach from u and to v.

    Needs every vertex reachable from u and reaching v.  An arc outside a
    spanning out-branching at u cannot cut reach from u, nor one outside a
    spanning in-branching at v reach to v, so only the (at most n-1) arcs
    of both BFS trees are tested, in sorted order, and of those only the
    ones that pass the level test (`branchings._may_cut`) on both trees,
    with the arc's bit cleared in copies of the rows.
    """
    full = g.full_mask
    _, parent, out_upto = _bfs(g, u)
    _, succ, in_upto = _bfs(g, v, "in")
    h = Digraph.from_rows(g.out_masks[:], g.in_masks[:])
    common = [(x, y) for y, x in enumerate(parent) if x >= 0 and succ[x] == y]
    for x, y in sorted(common):
        e = (x, y)
        if not (_may_cut(g, "out", out_upto, e) and _may_cut(g, "in", in_upto, e)):
            continue
        h.out_masks[x] ^= 1 << y
        h.in_masks[y] ^= 1 << x
        cut = reach_mask(h, 1 << u) != full and coreach_mask(h, 1 << v) != full
        h.out_masks[x] ^= 1 << y
        h.in_masks[y] ^= 1 << x
        if cut:
            return e
    return None


def decide_semicomplete(g: Digraph, u: int, v: int) -> Verdict | None:
    """The semicomplete obstruction finder, past the root tests of
    `dispatch`: the small exceptions, the single-arc scan and the
    kind-A witnesses, each a NO with its evidence, else None.
    """
    from .witnesses import iter_type_a
    hit = match_small_exception(g, u, v)
    if hit is not None:
        name, mapping = hit
        return Verdict(
            yes=False,
            u=u,
            v=v,
            reason=SMALL_EXCEPTION,
            exception_id=name,
            mapping=mapping,
        )
    e = _obstruction_arc(g, u, v)
    if e is not None:
        return Verdict(yes=False, u=u, v=v, reason=ARC_OBSTRUCTION, arc=e)
    for w in iter_type_a(g, u, v):
        if w.alpha >= 2:
            return Verdict(yes=False, u=u, v=v, reason=LAYERED_A, witness=w)
    return None

