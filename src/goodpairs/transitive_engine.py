"""Good-pair decisions for compositions with a transitive quotient.

A transitive quotient collapses reachability into domination: once the
out-root reaches every vertex it dominates everything outside its own
part, and dually everything outside the in-root's part dominates the
in-root.  That rigidity leaves exactly three flat obstruction shapes on
top of the generic root-component and degree failures.  Past the root
and degree tests the semicomplete greedy runs on the flat digraph first,
and a pair that verifies answers YES before the shapes are tested; an
instance that the greedy misses and no shape blocks is built by the
complete search, as in every class.

`decide_quasi_transitive` is the front door for flat quasi-transitive
digraphs.  It runs the root tests on the input itself, then the class
check and the degree test, then the greedy on the input's rows
renumbered part by part, as the decomposition's flat digraph numbers
them; a pair that verifies is mapped back, verified on the input and
answers YES.  Only a miss decomposes the input and enters its engine
past the engine's own greedy: strong inputs go to the semicomplete
composition engine and non-strong ones stay here.  The evidence is
mapped back to the original vertex labels.
"""

from __future__ import annotations

from .branchings import Branching, BranchingPair, verify_good_pair
from .composition import (
    Composition,
    composition_from_partition,
    is_quasi_transitive,
    is_transitive,
    qt_decompose,
    qt_parts,
)
from .digraph import (
    Digraph,
    bits,
    coreach_mask,
    reach_mask,
    strong_components,
)
from .errors import InternalInconsistency, InvalidInput
from .semicomplete import greedy_good_pair, searched_good_pair
from .verdicts import (
    DEGREE,
    LAYERED_A,
    LAYERED_B,
    MIDDLE_BLOCKED,
    ROOT_COMPONENT,
    TREE_SIDE,
    YES,
    Verdict,
    middle_blocked_violation,
    tree_side_violation,
)

def decide_transitive_composition(comp: Composition, u: int, v: int) -> Verdict:
    """Decide a composition whose quotient is a transitive digraph.

    NO comes as a starved root side, a starved root degree, or one of
    two exact flat shapes; YES comes with a verified branching pair, the
    greedy's, tried before the shapes, or else the search's.
    """
    if comp.s < 2:
        raise InvalidInput("composition needs at least two parts")
    if not is_transitive(comp.quotient):
        raise InvalidInput("quotient is not transitive")
    flat = comp.flatten()
    if not (0 <= u < flat.n and 0 <= v < flat.n):
        raise InvalidInput("roots out of range")
    full = flat.full_mask
    if reach_mask(flat, 1 << u) != full:
        return Verdict(yes=False, u=u, v=v, reason=ROOT_COMPONENT, side="out")
    if coreach_mask(flat, 1 << v) != full:
        return Verdict(yes=False, u=u, v=v, reason=ROOT_COMPONENT, side="in")
    if u != v and (flat.out_degree(u) < 2 or flat.in_degree(v) < 2):
        return Verdict(yes=False, u=u, v=v, reason=DEGREE)
    pair = greedy_good_pair(flat, u, v)
    if pair is not None:
        return Verdict(yes=True, u=u, v=v, reason=YES, pair=pair)
    return _decide_greedy_miss(flat, u, v)


def _decide_greedy_miss(flat: Digraph, u: int, v: int) -> Verdict:
    """`decide_transitive_composition` past a greedy miss on the flat
    digraph: the two flat shapes, then the search.
    `decide_quasi_transitive` enters here too."""
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


def _as_pair(u, v, out_arcs, in_arcs) -> BranchingPair:
    return BranchingPair(
        Branching(root=u, arcs=tuple(out_arcs), kind="out"),
        Branching(root=v, arcs=tuple(in_arcs), kind="in"),
    )


# --- quasi-transitive front door ---


def decide_quasi_transitive(g: Digraph, u: int, v: int) -> Verdict:
    """Decide a flat quasi-transitive digraph.

    A root side that misses a vertex (u does not reach everything, or
    not everything reaches v) is a NO in any digraph, so that test runs
    on g itself, out side first, before the class check.  Then come
    the class check, the degree test, and the greedy on g's rows
    renumbered part by part through the `qt_parts` that `qt_decompose`
    builds on: non-adjacency components when g is strong, strong
    components otherwise.  Those rows are the decomposition's flat
    digraph, so a greedy hit is the pair the engines would build;
    mapped back, it is verified on g and answers YES.  Only a miss
    decomposes g and runs the rest of its engine: strong inputs go over
    a semicomplete quotient to the composition engine, non-strong ones
    over a transitive quotient stay here.  All evidence comes back
    relabelled to the input's own vertices.
    """
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise InvalidInput("roots out of range")
    if g.n == 1:
        return Verdict(
            yes=True, u=u, v=v, reason=YES, pair=_as_pair(u, v, [], [])
        )
    full = g.full_mask
    if reach_mask(g, 1 << u) != full:
        return Verdict(yes=False, u=u, v=v, reason=ROOT_COMPONENT, side="out")
    if coreach_mask(g, 1 << v) != full:
        return Verdict(yes=False, u=u, v=v, reason=ROOT_COMPONENT, side="in")
    if not is_quasi_transitive(g):
        raise InvalidInput("input digraph is not quasi-transitive")
    if u != v and (g.out_degree(u) < 2 or g.in_degree(v) < 2):
        return Verdict(yes=False, u=u, v=v, reason=DEGREE)
    order = _part_order(g)
    a, b = order.index(u), order.index(v)
    pair = greedy_good_pair(_renumbered(g, order), a, b)
    if pair is not None:
        pair = _pair_through(g, order, pair, u, v)
        return Verdict(yes=True, u=u, v=v, reason=YES, pair=pair)
    dec = qt_decompose(g)
    comp = dec.composition
    if dec.kind == "strong":
        from .composition_engine import _decide_greedy_miss as composition_miss

        inner = composition_miss(comp, comp.flatten(), a, b)
    else:
        inner = _decide_greedy_miss(comp.flatten(), a, b)
    return translate_verdict(g, comp, dec.order, inner, u, v)


def _part_order(g: Digraph) -> list[int]:
    """`qt_decompose(g).order` without the composition: the vertices of
    the `qt_parts` of g, part by part."""
    _, parts = qt_parts(g)
    return [x for part in parts for x in bits(part)]


def _renumbered(g: Digraph, order: list[int]) -> Digraph:
    """g with vertex order[i] renumbered i.

    Rows are mapped four bits at a time: table c sends each value of
    bits 4c..4c+3 to those vertices' new bits, so a row costs n/4
    lookups whatever its arc count.
    """
    new_bit = [0] * g.n
    for new, old in enumerate(order):
        new_bit[old] = 1 << new
    tables = []
    for c in range(0, g.n, 4):
        table = [0]
        for b in new_bit[c : c + 4]:
            table += [t | b for t in table]
        tables.append(table)

    def renumber(rows: list[int]) -> list[int]:
        out = []
        for x in order:
            row, acc = rows[x], 0
            for table in tables:
                acc |= table[row & 15]
                row >>= 4
            out.append(acc)
        return out

    return Digraph.from_rows(renumber(g.out_masks), renumber(g.in_masks))


def _pair_through(flat: Digraph, order, pair: BranchingPair, u: int, v: int):
    """The pair relabelled through order[inner vertex] = flat vertex,
    rooted at (u, v) and verified on flat."""
    out = _as_pair(
        u,
        v,
        [(order[x], order[y]) for x, y in pair.out_branching.arcs],
        [(order[x], order[y]) for x, y in pair.in_branching.arcs],
    )
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
    target, comp: Composition, order, verdict: Verdict, u: int, v: int
) -> Verdict:
    """Relabel a verdict through order[inner vertex] = target vertex.

    `target` is only used to re-verify a translated pair; obstruction
    evidence is positional and survives relabelling as-is.
    """
    order = list(order)

    def amap(arc):
        return (order[arc[0]], order[arc[1]])

    pair = None
    if verdict.pair is not None:
        flat = target.flatten() if isinstance(target, Composition) else target
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
