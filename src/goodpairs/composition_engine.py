"""Obstruction finder for compositions over a strong semicomplete quotient.

The flattened digraph of such a composition either carries an
arc-disjoint out-branching rooted at u and in-branching rooted at v,
or it falls into a short list of blocked shapes: a root with too few
arcs, one of seven named small families, or a layered quotient witness
whose designated arcs all keep their blocking power once part sizes
are taken into account.  `dispatch` runs the root and degree tests for
every class; `decide_composition` checks the other blocked shapes
exactly and returns a NO with its evidence, or None.  It reads the
input's own flat rows, with the parts as vertex masks of them and their
quotient: a composition's own, or a strong quasi-transitive digraph's
non-adjacency components (`composition.strong_qt_parts`).  Only the
layered test refines the parts (`composition.finest_refinement`), and it
builds a new quotient only when a part splits; its NO names the cells in
`refinement`, so the verdict checks against the flat rows alone.
`dispatch.decide` builds a YES pair with the greedy and the search
every class shares.

Each family is a predicate on the flat digraph's bitset rows: five say
which arcs every row must hold and which it may add, and the other two
are shapes defined once elsewhere (family b is the middle-blocked shape
of `verdicts`, family g the semicomplete exception "e"), so the engine
and the verdict checker share one definition of each.
"""

from __future__ import annotations

from . import semicomplete
from .branchings import BranchingPair, is_two_arc_strong
from .composition import cells_of, finest_refinement, quotient_of
from .digraph import Digraph, bits, is_strong
from .errors import InternalInconsistency, ResourceExceeded
from .forcing import force_trace
from .verdicts import (
    ARC_FORCING,
    KNOWN_FAMILY,
    LAYERED_A,
    LAYERED_B,
    Verdict,
    middle_blocked_violation,
)
from .witnesses import arc_condition, iter_type_a, iter_type_b


# --- the seven blocked family shapes, recognized on the flat digraph ---


def _fits(g: Digraph, want: list[int], extra: list[int]) -> bool:
    """Every out-row holds its wanted arcs and nothing beyond extra."""
    return all(
        row & w == w and not row & ~(w | e)
        for row, w, e in zip(g.out_masks, want, extra)
    )


def _match_head_pair(g: Digraph, u: int, v: int) -> bool:
    """Two independent pairs cycling into a two-vertex head part.

    The only blocked shape that is 2-arc-strong: a three part cycle
    whose parts are two independent pairs and {u, v}, with at most the
    arc v->u inside the head.
    """
    if g.n != 6 or u == v or g.has_arc(u, v):
        return False
    ends = 1 << u | 1 << v
    first = g.out_masks[u] & g.out_masks[v] & ~(g.in_masks[u] | g.in_masks[v])
    if first.bit_count() != 2:
        return False
    second = g.full_mask & ~(ends | first)
    want = [ends if second >> x & 1 else second for x in range(g.n)]
    want[u] = want[v] = first
    extra = [0] * g.n
    extra[v] = 1 << u
    return _fits(g, want, extra)


def _match_thin_cycle(g: Digraph, u: int, v: int) -> bool:
    """Cycle u -> middle -> v -> u where the middle has at most one arc."""
    if u == v or g.n < 3:
        return False
    middle = g.full_mask & ~(1 << u | 1 << v)
    want = [1 << v] * g.n
    want[u], want[v] = middle, 1 << u
    extra = [middle] * g.n
    extra[u] = extra[v] = 0
    return _fits(g, want, extra) and g.m <= 2 * middle.bit_count() + 2


def _match_hub(g: Digraph, u: int, v: int) -> bool:
    """Part around u, part around v, and a single hub z cycling them.

    The u part may carry extra arcs pointing at u, the v part extra
    arcs leaving v; everything else is the plain three part cycle
    u-part -> v-part -> z -> u-part.  The parts are z's strict out- and
    in-neighbourhoods.
    """
    if u == v:
        return False
    for z in bits(g.full_mask & ~(1 << u | 1 << v)):
        head = g.out_masks[z] & ~g.in_masks[z]
        tail = g.in_masks[z] & ~g.out_masks[z]
        if not (head >> u & 1 and tail >> v & 1):
            continue
        if head | tail | 1 << z != g.full_mask:
            continue
        want = [tail if head >> w & 1 else 1 << z for w in range(g.n)]
        want[z] = head
        extra = [1 << u if head >> w & 1 else 0 for w in range(g.n)]
        extra[v] = tail
        if _fits(g, want, extra):
            return True
    return False


def _match_ring(g: Digraph, u: int, v: int) -> str | None:
    """Four or five part ring, optionally with a reworked head block.

    Returns "e" for the clean ring (head part -> hub -> z -> u part ->
    v, all skips backward), "f" for the strong variant where the hub is
    a single vertex and some head-to-hub arcs are reversed or doubled,
    and None otherwise.
    """
    if u == v:
        return None
    head_u, after = g.in_masks[v], g.out_masks[v]
    if head_u & after or not head_u >> u & 1:
        return None
    if head_u | after | 1 << v != g.full_mask:
        return None
    for z in bits(after):
        hub = g.in_masks[z] & ~(1 << v)
        if not hub or hub & ~after:
            continue
        head = after & ~(hub | 1 << z)
        # the u part feeds v, the head block and the hub and may add arcs
        # into u; the head block is free inside and feeds the whole hub
        feed = 1 << v | head | hub
        want = [feed if head_u >> w & 1 else 1 << z for w in range(g.n)]
        extra = [1 << u if head_u >> w & 1 else 0 for w in range(g.n)]
        for h in bits(head):
            want[h], extra[h] = hub, head
        want[z], want[v] = head_u | head, after
        if _fits(g, want, extra):
            return "e"
        if hub.bit_count() != 1 or not head:
            continue
        # a single hub k may meet each head vertex in either direction
        k = hub.bit_length() - 1
        for h in bits(head):
            want[h], extra[h] = 0, head | hub
        extra[k] = head
        joined = g.in_masks[k] | g.out_masks[k]
        if _fits(g, want, extra) and not head & ~joined and is_strong(g):
            return "f"
    return None


_FLAT_MATCHERS = (
    ("a", _match_head_pair),
    ("b", lambda g, u, v: g.n >= 3 and middle_blocked_violation(g, u, v) is None),
    ("c", _match_thin_cycle),
    ("d", _match_hub),
)


def match_known_family(flat: Digraph, u: int, v: int):
    """(family id, reversed flag) when the flat digraph is a blocked shape.

    The families a, c and d and the ring e/f are matched row by row
    against the arcs their shape wants and allows; family b is the
    middle-blocked shape of `verdicts.middle_blocked_violation` and
    family g is the semicomplete exception "e", so each of those has
    one definition.  The reversed flag records that the converse
    digraph with the roots swapped matched instead of the digraph
    itself.
    """
    if u == v:
        return None
    for reversed_ in (False, True):
        g, a, b = (flat, u, v) if not reversed_ else (flat.converse(), v, u)
        for family, matcher in _FLAT_MATCHERS:
            if matcher(g, a, b):
                return family, reversed_
        ring = _match_ring(g, a, b)
        if ring is not None:
            return ring, reversed_
        hit = semicomplete.match_small_exception(g, a, b)
        if hit is not None and hit[0] == "e":
            return "g", reversed_
    return None


# --- constructions: no engine calls them; bench/tracer.py reads their spans ---


def two_arc_strong_pair(g: Digraph, u: int, v: int) -> BranchingPair:
    """Good (u, v)-pair in a 2-arc-strong digraph outside the blocked
    shapes, once the greedy missed: the verified search pair."""
    return semicomplete.searched_good_pair(g, u, v)


def construct_composition_pair(flat: Digraph, u: int, v: int) -> BranchingPair:
    """Verified pair on the flat digraph once the greedy missed and the
    decision promised one: the pair of `semicomplete.searched_good_pair`.
    """
    return semicomplete.searched_good_pair(flat, u, v)


def decide_composition(
    flat: Digraph, u: int, v: int, parts: list[int], quotient: Digraph
) -> Verdict | None:
    """The obstruction finder for a composition over a strong
    semicomplete quotient, past the shared steps of `dispatch`: `flat`
    is the flat digraph, `parts` its part masks and `quotient` their
    quotient.

    A NO carries checkable evidence: the matched family, a quotient
    witness with the per-arc blocking conditions, or a forcing trace.
    None means no blocked shape is present: a 2-arc-strong flat digraph
    is outside them all.  When a witness enumeration ran out of budget
    and forcing does not block, its ResourceExceeded is raised instead.
    """
    hit = match_known_family(flat, u, v)
    if hit is not None:
        family, reversed_ = hit
        return Verdict(
            yes=False,
            u=u,
            v=v,
            reason=KNOWN_FAMILY,
            family=family,
            family_reversed=reversed_,
        )
    if is_two_arc_strong(flat):
        return None
    # A layered witness on coarser parts lifts to the finest uniform
    # partition, and coarse parts can hide one, so only the finest
    # partition is tried.
    refined = finest_refinement(flat, parts)
    if len(refined) != len(parts):
        quotient = quotient_of(flat, refined)
        if quotient is None:
            raise InternalInconsistency("parts are not uniformly joined")
    deferred: ResourceExceeded | None = None
    try:
        verdict = _layered_no(flat, u, v, refined, quotient)
    except ResourceExceeded as exc:
        deferred = exc
    else:
        if verdict is not None:
            return verdict
    status, trace = force_trace(flat, u, v)
    if status == "blocked":
        return Verdict(yes=False, u=u, v=v, reason=ARC_FORCING, forcing=trace)
    if deferred is not None:
        raise deferred
    return None


def _layered_no(
    flat: Digraph, u: int, v: int, masks: list[int], quotient: Digraph
) -> Verdict | None:
    """Blocking layered verdict over the part partition `masks` of flat,
    whose quotient is `quotient`, if any; its refinement names those
    parts as cells."""
    pu = next(i for i, m in enumerate(masks) if m >> u & 1)
    pv = next(i for i, m in enumerate(masks) if m >> v & 1)

    def no(reason: str, w, conds: tuple[bool, ...]) -> Verdict:
        return Verdict(
            yes=False,
            u=u,
            v=v,
            reason=reason,
            witness=w,
            conditions=conds,
            refinement=cells_of(masks, flat.n),
        )

    for w in iter_type_a(quotient, pu, pv):
        conds = tuple(arc_condition(flat, masks, arc) for arc in w.backward_arcs)
        if all(conds):
            return no(LAYERED_A, w, conds)
    if pu != pv:
        for w in iter_type_b(quotient, pu, pv):
            conds = tuple(arc_condition(flat, masks, arc) for arc in w.backward_arcs)
            if any(conds):
                return no(LAYERED_B, w, conds)
    return None
