"""Good-pair decisions for compositions with a transitive quotient.

A transitive quotient collapses reachability into domination: once the
out-root reaches every vertex it dominates everything outside its own
part, and dually everything outside the in-root's part dominates the
in-root.  That rigidity leaves exactly three flat obstruction shapes on
top of the generic root-component and degree failures, and it lets a
small bank of fan and tree templates build the pair for the remaining
instances.  Every candidate from the bank is verified before it is
returned; an instance no template fits goes to
`semicomplete.construct_good_pair`, the greedy and complete search that
ends every engine.

`decide_quasi_transitive` is the front door for flat quasi-transitive
digraphs: it answers a starved root side from a reach test on the input
itself, decomposes the rest, routes strong inputs to the semicomplete
composition engine and non-strong ones here, and maps the evidence back
to the original vertex labels.
"""

from __future__ import annotations

from .branchings import Branching, BranchingPair, find_branching, verify_good_pair
from .composition import (
    Composition,
    composition_from_partition,
    is_transitive,
    qt_decompose,
)
from .digraph import (
    Digraph,
    bits,
    coreach_mask,
    reach_mask,
    strong_components,
)
from .errors import InternalInconsistency, InvalidInput
from .semicomplete import construct_good_pair
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
    two exact flat shapes; YES comes with a verified branching pair.
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
    if u != v:
        if flat.out_degree(u) < 2 or flat.in_degree(v) < 2:
            return Verdict(yes=False, u=u, v=v, reason=DEGREE)
        if middle_blocked_violation(flat, u, v) is None:
            return Verdict(yes=False, u=u, v=v, reason=MIDDLE_BLOCKED)
        for side in ("out", "in"):
            if tree_side_violation(flat, u, v, side) is None:
                return Verdict(yes=False, u=u, v=v, reason=TREE_SIDE, side=side)
    pair = construct_transitive_pair(comp, flat, u, v)
    return Verdict(yes=True, u=u, v=v, reason=YES, pair=pair)


# --- construction ---


def construct_transitive_pair(
    comp: Composition, flat: Digraph, u: int, v: int
) -> BranchingPair:
    """A verified pair for a transitive composition that is not blocked.

    Candidates come from a template bank run on the digraph and on its
    converse with the roots swapped; an instance the bank misses goes to
    `semicomplete.construct_good_pair`, the greedy and the complete
    search every engine ends in.
    """
    a_mask = comp.part_mask(comp.part_of(u))
    b_mask = comp.part_mask(comp.part_of(v))
    pair = _bank_pair(flat, a_mask, b_mask, u, v)
    if pair is not None:
        return pair
    return construct_good_pair(flat, u, v)


def _as_pair(u, v, out_arcs, in_arcs) -> BranchingPair:
    return BranchingPair(
        Branching(root=u, arcs=tuple(out_arcs), kind="out"),
        Branching(root=v, arcs=tuple(in_arcs), kind="in"),
    )


def _bank_pair(flat, a_mask, b_mask, u, v) -> BranchingPair | None:
    for out_arcs, in_arcs in _proposals(flat, a_mask, b_mask, u, v):
        pair = _as_pair(u, v, out_arcs, in_arcs)
        if verify_good_pair(flat, u, v, pair):
            return pair
    conv = flat.converse()
    for out_arcs, in_arcs in _proposals(conv, b_mask, a_mask, v, u):
        pair = _as_pair(
            u,
            v,
            [(y, x) for x, y in in_arcs],
            [(y, x) for x, y in out_arcs],
        )
        if verify_good_pair(flat, u, v, pair):
            return pair
    return None


def _first(mask: int, k: int) -> list[int]:
    picked = []
    for x in bits(mask):
        picked.append(x)
        if len(picked) == k:
            break
    return picked


def _feed_plans(g, mask, root, kind) -> list[list]:
    """Ways to cover the root's part minus the root itself.

    Either an internal tree, or a star from one crossing neighbor; the
    quotient being uniform makes any crossing neighbor of the root a
    neighbor of the whole part.
    """
    others = mask & ~(1 << root)
    if not others:
        return [[]]
    plans = []
    if kind == "out":
        for p in _first(g.in_masks[root] & ~mask, 3):
            plans.append([(p, y) for y in bits(others)])
        tree = find_branching(g, root, kind="out", within=mask)
        if tree is not None:
            plans.append(list(tree.arcs))
    else:
        for q in _first(g.out_masks[root] & ~mask, 3):
            plans.append([(y, q) for y in bits(others)])
        tree = find_branching(g, root, kind="in", within=mask)
        if tree is not None:
            plans.append(list(tree.arcs))
    return plans


def _proposals(g, a_mask, b_mask, u, v):
    """Candidate (out arcs, in arcs) lists; the caller verifies each.

    Emission is deliberately liberal: a candidate may lean on an arc
    the instance happens to lack or may close a stray cycle, and the
    verifier simply moves on to the next one.
    """
    full = g.full_mask
    outside_a = full & ~a_mask
    outside_b = full & ~b_mask
    rest = outside_a & outside_b

    def fan(skip=0):
        return [(u, z) for z in bits(outside_a & ~skip)]

    def star(skip=0):
        return [(z, v) for z in bits(outside_b & ~skip)]

    if u == v:
        # Past the reachability prechecks the quotient is complete, so
        # any outside vertex anchors the root's own part both ways.
        others = a_mask & ~(1 << u)
        for z in _first(outside_a, 3):
            out = fan() + [(z, y) for y in bits(others)]
            inn = star() + [(y, z) for y in bits(others)]
            yield out, inn
        return

    if a_mask == b_mask:
        yield from _same_part_proposals(g, a_mask, u, v)
        return

    entry_plans = _feed_plans(g, a_mask, u, "out")
    exit_plans = _feed_plans(g, b_mask, v, "in")
    a_others = a_mask & ~(1 << u)
    b_others = b_mask & ~(1 << v)

    # Fan from u everywhere but v; a helper w hands v its tree arc while
    # the in-branching routes w through the in-root's part.
    if b_others:
        y1 = _first(b_others, 1)[0]
        for w in _first((rest | a_others) & ~(1 << v), 4):
            for ep in entry_plans:
                for xp in exit_plans:
                    out = fan(skip=1 << v) + ep + [(w, v)]
                    inn = (
                        star(skip=(1 << u) | (1 << w))
                        + [(u, v), (w, y1)]
                        + xp
                    )
                    yield out, inn

    # Keep the arc uv in the out-branching and let a spare vertex s be
    # fed by someone else while the in-branching uses u -> s.
    for s in _first(rest, 3):
        for x in _first(g.in_masks[s] & ~(1 << u), 3):
            for ep in entry_plans:
                for xp in exit_plans:
                    out = (
                        fan(skip=(1 << v) | (1 << s))
                        + [(u, v), (x, s)]
                        + ep
                    )
                    inn = star(skip=1 << u) + [(u, s)] + xp
                    yield out, inn

    # Singleton out-part: u dominates everything, so reroute one target
    # y through an alternative feeder and exit u via y instead.
    if a_mask == 1 << u:
        pool = [v] + _first(full & ~(1 << u) & ~(1 << v), 5)
        for y in pool:
            for x in _first(g.in_masks[y] & ~(1 << u), 3):
                for xp in exit_plans:
                    out = [
                        (u, z)
                        for z in bits(full & ~(1 << u) & ~(1 << y))
                    ]
                    out.append((x, y))
                    inn = star(skip=1 << u) + [(u, y)] + xp
                    yield out, inn


def _same_part_proposals(g, part, u, v):
    """Both roots in one part: the quotient is complete here, so every
    outside vertex pairs with the whole part in both directions."""
    outside = g.full_mask & ~part
    inner = part & ~(1 << u) & ~(1 << v)
    zs = _first(outside, 3)
    for z1 in zs:
        for z2 in zs:
            if z2 == z1:
                continue
            out = [(u, z) for z in bits(outside & ~(1 << z1))]
            out += [(v, z1), (z2, v)] + [(z1, y) for y in bits(inner)]
            inn = [(z, v) for z in bits(outside & ~(1 << z2))]
            inn += [(z2, z1), (u, z1)] + [(y, z2) for y in bits(inner)]
            yield out, inn
    # One-anchor variants for a single outside vertex or thin wiring.
    for z in zs:
        for y1 in _first(g.in_masks[v] & inner, 2):
            out = [(u, z), (y1, v)] + [(z, y) for y in bits(inner)]
            for exit_ in _first(g.out_masks[u] & (inner | 1 << v), 2):
                inn = [(u, exit_), (z, v)] + [(y, z) for y in bits(inner)]
                yield out, inn
        if g.has_arc(u, v):
            out = [(u, v), (v, z)] + [(z, y) for y in bits(inner)]
            inn = [(u, z), (z, v)] + [(y, z) for y in bits(inner)]
            yield out, inn


# --- quasi-transitive front door ---


def decide_quasi_transitive(g: Digraph, u: int, v: int) -> Verdict:
    """Decide a flat quasi-transitive digraph.

    A root side that misses a vertex (u does not reach everything, or
    not everything reaches v) is a NO in any digraph, so that test runs
    on g itself, out side first, and such inputs never decompose; the
    caller owns the class check for them.  The rest decompose through
    `qt_decompose`, which checks the class: strong inputs go over a
    semicomplete quotient to the composition engine, non-strong ones
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
    dec = qt_decompose(g)
    inv = [0] * g.n
    for new, old in enumerate(dec.order):
        inv[old] = new
    if dec.kind == "strong":
        from .composition_engine import decide_composition

        inner = decide_composition(dec.composition, inv[u], inv[v])
    else:
        inner = decide_transitive_composition(dec.composition, inv[u], inv[v])
    return translate_verdict(g, dec.composition, dec.order, inner, u, v)


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
        pair = _as_pair(
            u,
            v,
            [amap(a) for a in verdict.pair.out_branching.arcs],
            [amap(a) for a in verdict.pair.in_branching.arcs],
        )
        flat = target.flatten() if isinstance(target, Composition) else target
        if not verify_good_pair(flat, u, v, pair):
            raise InternalInconsistency("translated pair fails verification")
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
