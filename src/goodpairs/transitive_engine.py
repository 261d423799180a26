"""Good-pair decisions for compositions with a transitive quotient.

A transitive quotient collapses reachability into domination: once the
out-root reaches every vertex it dominates everything outside its own
part, and dually everything outside the in-root's part dominates the
in-root.  That rigidity leaves exactly three flat obstruction shapes on
top of the generic root-component and degree failures.  `dispatch.decide`
runs the root and degree tests and the semicomplete greedy on the flat
digraph for every class; only a greedy miss enters
`decide_transitive_composition`, which tests the shapes, and an
instance that no shape blocks is built by the complete search, as in
every class.

Non-strong quasi-transitive digraphs, through `qt_decompose`, and
compositions over a non-strong semicomplete quotient, through
`condensed_transitive`, reach this tail over a renumbered composition;
`translate_verdict` maps the verdict back to the input's own vertices.
"""

from __future__ import annotations

from .branchings import Branching, BranchingPair, verify_good_pair
from .composition import Composition, composition_from_partition
from .digraph import Digraph, bits, strong_components
from .errors import InternalInconsistency, InvalidInput
from .semicomplete import searched_good_pair
from .verdicts import (
    LAYERED_A,
    LAYERED_B,
    MIDDLE_BLOCKED,
    TREE_SIDE,
    YES,
    Verdict,
    middle_blocked_violation,
    tree_side_violation,
)


def decide_transitive_composition(flat: Digraph, u: int, v: int) -> Verdict:
    """The tail of `dispatch.decide` for a composition over a transitive
    quotient, past a greedy miss on `flat`, its flat digraph: the two
    flat shapes, each a NO, then the search's verified pair."""
    if u != v:
        if middle_blocked_violation(flat, u, v) is None:
            return Verdict(yes=False, u=u, v=v, reason=MIDDLE_BLOCKED)
        for side in ("out", "in"):
            if tree_side_violation(flat, u, v, side) is None:
                return Verdict(yes=False, u=u, v=v, reason=TREE_SIDE, side=side)
    pair = construct_transitive_pair(flat, u, v)
    return Verdict(yes=True, u=u, v=v, reason=YES, pair=pair)


# --- construction ---


def construct_transitive_pair(flat: Digraph, u: int, v: int) -> BranchingPair:
    """A verified pair for a transitive composition that is not blocked,
    once the greedy missed: the search pair of
    `semicomplete.searched_good_pair`, as in every other class.
    """
    return searched_good_pair(flat, u, v)


def _pair_through(flat: Digraph, order, pair: BranchingPair, u: int, v: int):
    """The pair relabelled through order[inner vertex] = flat vertex,
    rooted at (u, v) and verified on flat."""

    def relabel(b: Branching) -> Branching:
        arcs = tuple((order[x], order[y]) for x, y in b.arcs)
        return Branching(root=order[b.root], arcs=arcs, kind=b.kind)

    out = BranchingPair(relabel(pair.out_branching), relabel(pair.in_branching))
    if not verify_good_pair(flat, u, v, out):
        raise InternalInconsistency("translated pair fails verification")
    return out


def condensed_transitive(comp: Composition):
    """Regroup a composition with a non-strong semicomplete quotient as a
    transitive composition by merging parts along the quotient's strong
    components.

    Returns (composition, order) with order[new flat] = old flat vertex.
    Between two strong components of a semicomplete digraph every arc
    runs the same way, so the merged parts are uniformly joined and the
    new quotient is a transitive tournament.
    """
    scc = strong_components(comp.quotient)
    if scc.t < 2:
        raise InvalidInput("quotient is already strong")
    flat = comp.flatten()
    masks = []
    for comp_mask in scc.components:
        m = 0
        for part in bits(comp_mask):
            m |= comp.part_mask(part)
        masks.append(m)
    built = composition_from_partition(flat, masks)
    if built is None:
        raise InternalInconsistency(
            "quotient strong components did not merge uniformly"
        )
    return built


def translate_verdict(
    flat: Digraph, comp: Composition, order, verdict: Verdict, u: int, v: int
) -> Verdict:
    """Relabel a verdict through order[inner vertex] = flat vertex.

    `flat` is only used to re-verify a translated pair; obstruction
    evidence is positional and survives relabelling as-is.
    """
    order = list(order)

    def amap(arc):
        return (order[arc[0]], order[arc[1]])

    pair = None
    if verdict.pair is not None:
        pair = _pair_through(flat, order, verdict.pair, u, v)
    mapping = None
    if verdict.mapping is not None:
        mapping = tuple(order[x] for x in verdict.mapping)
    arc = amap(verdict.arc) if verdict.arc is not None else None
    refinement = None
    if verdict.reason in (LAYERED_A, LAYERED_B):
        cells = verdict.refinement
        if cells is None:
            cells = tuple(comp.part_of(i) for i in range(comp.n))
        out_cells = [0] * len(order)
        for i, cell in enumerate(cells):
            out_cells[order[i]] = cell
        refinement = tuple(out_cells)
    forcing = None
    if verdict.forcing is not None:
        forcing = tuple(
            (
                side,
                rule,
                order[a] if a >= 0 else a,
                order[b] if b >= 0 else b,
            )
            for side, rule, a, b in verdict.forcing
        )
    return Verdict(
        yes=verdict.yes,
        u=u,
        v=v,
        reason=verdict.reason,
        pair=pair,
        exception_id=verdict.exception_id,
        mapping=mapping,
        side=verdict.side,
        arc=arc,
        witness=verdict.witness,
        conditions=verdict.conditions,
        refinement=refinement,
        forcing=forcing,
        family=verdict.family,
        family_reversed=verdict.family_reversed,
        note=verdict.note,
    )
