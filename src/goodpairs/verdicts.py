"""Decision outcomes with machine-checkable evidence.

A YES verdict carries the constructed pair; a NO verdict names its
obstruction and carries enough data to re-check it against the input
without trusting the engine.  `validate_verdict` is that re-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .branchings import Branching, BranchingPair, good_pair_violation
from .composition import Composition, is_semicomplete, quotient_of
from .digraph import Arc, Digraph, bits, coreach_mask, is_strong, mask_of, reach_mask
from .errors import InvalidInput

if TYPE_CHECKING:
    from .witnesses import TypeABWitness

YES = "good-pair"
SMALL_EXCEPTION = "small-exception"
ROOT_COMPONENT = "root-component"
ARC_OBSTRUCTION = "arc-obstruction"
LAYERED_A = "layered-a"
LAYERED_B = "layered-b"
KNOWN_FAMILY = "known-family"
DEGREE = "degree"
MIDDLE_BLOCKED = "middle-blocked"
TREE_SIDE = "tree-side"
ARC_FORCING = "arc-forcing"

NO_REASONS = (
    SMALL_EXCEPTION,
    ROOT_COMPONENT,
    ARC_OBSTRUCTION,
    LAYERED_A,
    LAYERED_B,
    KNOWN_FAMILY,
    DEGREE,
    MIDDLE_BLOCKED,
    TREE_SIDE,
    ARC_FORCING,
)


@dataclass(frozen=True)
class Verdict:
    yes: bool
    u: int
    v: int
    reason: str
    pair: BranchingPair | None = None
    exception_id: str | None = None
    mapping: tuple[int, ...] | None = None
    side: str | None = None  # root-component: "out" or "in"
    arc: Arc | None = None
    witness: TypeABWitness | None = None
    conditions: tuple[bool, ...] | None = None
    # the uniform partition of the flat digraph whose quotient a layered
    # witness lives on: refinement[flat vertex] = cell index.  Every
    # layered NO of a composition or quasi-transitive input sets it; the
    # semicomplete finder's witness, on the flat digraph, leaves it None
    refinement: tuple[int, ...] | None = None
    forcing: tuple | None = None
    family: str | None = None
    family_reversed: bool = False

    def __post_init__(self):
        if self.yes != (self.reason == YES):
            raise InvalidInput("yes flag disagrees with reason")
        if self.yes and self.pair is None:
            raise InvalidInput("YES verdict without a pair")
        if not self.yes and self.reason not in NO_REASONS:
            raise InvalidInput(f"unknown NO reason {self.reason!r}")


def validate_verdict(target, verdict: Verdict) -> str | None:
    """None if the verdict's evidence holds against target, else a reason.

    For NO verdicts this confirms the claimed obstruction is really
    present; completeness (that the obstruction rules out every pair) is
    the engine's theory and is covered by the oracle cross-checks.
    Every check reads the flat digraph alone: a composition's parts
    add nothing a verdict needs.
    """
    flat = target.flatten() if isinstance(target, Composition) else target
    u, v = verdict.u, verdict.v
    if not (flat.is_vertex(u) and flat.is_vertex(v)):
        return "roots out of range"
    if verdict.yes:
        return good_pair_violation(flat, u, v, verdict.pair)
    handler = _NO_CHECKS.get(verdict.reason)
    if handler is None:
        return f"unknown reason {verdict.reason!r}"
    return handler(flat, verdict)


def _check_small_exception(flat, verdict: Verdict) -> str | None:
    from .semicomplete import EXCEPTION_PATTERNS

    if verdict.exception_id not in EXCEPTION_PATTERNS:
        return f"unknown exception id {verdict.exception_id!r}"
    pattern, pu, pv = EXCEPTION_PATTERNS[verdict.exception_id]
    m = verdict.mapping
    if (
        m is None
        or pattern.n != flat.n
        or not all(flat.is_vertex(x) for x in m)
        or sorted(m) != list(range(flat.n))
    ):
        return "mapping is not a bijection onto the input"
    if m[pu] != verdict.u or m[pv] != verdict.v:
        return "mapping does not send the pattern roots to the query roots"
    for a in range(pattern.n):
        for b in range(pattern.n):
            if a != b and pattern.has_arc(a, b) != flat.has_arc(m[a], m[b]):
                return "mapping is not an isomorphism"
    return None


def _check_root_component(flat, verdict: Verdict) -> str | None:
    if verdict.side == "out":
        if reach_mask(flat, 1 << verdict.u) == flat.full_mask:
            return "out-root reaches every vertex after all"
        return None
    if verdict.side == "in":
        if coreach_mask(flat, 1 << verdict.v) == flat.full_mask:
            return "every vertex reaches the in-root after all"
        return None
    return f"bad side {verdict.side!r}"


def _check_arc_obstruction(flat, verdict: Verdict) -> str | None:
    arc = verdict.arc
    if arc is None or not flat.is_arc(arc):
        return "claimed arc missing from the input"
    banned = {arc}
    if reach_mask(flat, 1 << verdict.u, banned=banned) == flat.full_mask:
        return "out-root still spans without the arc"
    if coreach_mask(flat, 1 << verdict.v, banned=banned) == flat.full_mask:
        return "in-root still spanned without the arc"
    return None


def _refined_parts(flat: Digraph, refinement) -> tuple[Digraph, list[int]] | str:
    """(quotient, part masks) of the cell partition a layered verdict
    names, or why it is not one.

    Any uniform partition of the flat digraph with a strong semicomplete
    quotient supports the forced-sharing argument, so the check accepts
    every such partition, not just the one the engine derived.
    """
    cells = tuple(refinement)
    if len(cells) != flat.n:
        return "refinement length disagrees with the vertex count"
    ids = sorted(set(cells))
    if ids != list(range(len(ids))) or len(ids) < 2:
        return "refinement cells must be numbered 0..k-1 with k >= 2"
    masks = [0] * len(ids)
    for vertex, cell in enumerate(cells):
        masks[cell] |= 1 << vertex
    quotient = quotient_of(flat, masks)
    if quotient is None:
        return "refinement cells are not uniformly joined"
    if not is_semicomplete(quotient):
        return "refined quotient is not semicomplete"
    if not is_strong(quotient):
        return "refined quotient is not strong"
    return quotient, masks


def _check_layered(flat, verdict: Verdict) -> str | None:
    from .witnesses import arc_condition, validate_witness
    w = verdict.witness
    if w is None:
        return "no witness attached"
    expected_kind = "A" if verdict.reason == LAYERED_A else "B"
    if w.kind != expected_kind:
        return "witness kind disagrees with reason"
    if verdict.refinement is None:
        # the semicomplete finder's witness lives on the flat digraph
        if not (flat.is_vertex(w.a) and flat.is_vertex(w.b)):
            return "witness roots are not vertices of the digraph"
        reason = validate_witness(flat, w)
        if reason:
            return reason
        if w.a != verdict.u or w.b != verdict.v:
            return "witness roots disagree with query roots"
        return None
    rebuilt = _refined_parts(flat, verdict.refinement)
    if isinstance(rebuilt, str):
        return rebuilt
    quotient, masks = rebuilt
    pu, pv = verdict.refinement[verdict.u], verdict.refinement[verdict.v]
    if not (quotient.is_vertex(w.a) and quotient.is_vertex(w.b)):
        return "witness roots are not vertices of the quotient"
    reason = validate_witness(quotient, w)
    if reason:
        return reason
    if w.a != pu or w.b != pv:
        return "witness roots disagree with the root parts"
    conds = tuple(arc_condition(flat, masks, arc) for arc in w.backward_arcs)
    if verdict.conditions is not None and tuple(verdict.conditions) != conds:
        return "claimed per-arc conditions disagree with the input"
    if verdict.reason == LAYERED_A and not all(conds):
        return "some designated arc loses its blocking power"
    if verdict.reason == LAYERED_B and not any(conds):
        return "no designated arc keeps its blocking power"
    return None


def _check_known_family(flat, verdict: Verdict) -> str | None:
    from .composition_engine import match_known_family

    hit = match_known_family(flat, verdict.u, verdict.v)
    if hit is None:
        return "input does not match any known family"
    family, reversed_ = hit
    if family != verdict.family or reversed_ != verdict.family_reversed:
        return (
            f"input matches family {family!r} (reversed={reversed_}), "
            f"verdict claims {verdict.family!r} (reversed={verdict.family_reversed})"
        )
    return None


def _check_degree(flat, verdict: Verdict) -> str | None:
    if verdict.u == verdict.v:
        return "degree obstruction needs distinct roots"
    if flat.out_degree(verdict.u) >= 2 and flat.in_degree(verdict.v) >= 2:
        return "both root degrees are at least two"
    return None


def _check_forcing(flat, verdict: Verdict) -> str | None:
    from .forcing import replay
    if verdict.forcing is None:
        return "no forcing trace attached"
    return replay(flat, verdict.u, verdict.v, verdict.forcing)


def middle_blocked_violation(g: Digraph, u: int, v: int) -> str | None:
    """None if g has the middle-blocked shape at (u,v), else what breaks it.

    The shape: u dominates all, all dominate v, and the rest is an
    independent middle wired only as u -> x -> v.  Any pair would fight
    over the arc uv.
    """
    if u == v or not g.has_arc(u, v):
        return "shape needs distinct roots joined by an arc"
    middle = g.full_mask & ~(1 << u | 1 << v)
    if g.out_masks[u] != g.full_mask & ~(1 << u):
        return "out-root does not dominate everything"
    if g.in_masks[v] != g.full_mask & ~(1 << v):
        return "in-root is not dominated by everything"
    for x in bits(middle):
        if g.out_masks[x] & middle or g.in_masks[x] & middle:
            return "middle vertices are not independent"
        if g.in_masks[x] != 1 << u or g.out_masks[x] != 1 << v:
            return "middle vertex with stray arcs"
    return None


def tree_side_violation(g: Digraph, u: int, v: int, side: str) -> str | None:
    """None if g has the tree-side shape on `side` at (u,v), else what
    breaks it.

    On the "out" side every arc either feeds the sink v or belongs to an
    out-tree on the other vertices rooted at u; the "in" side is the same
    shape in the converse with the roots swapped.  That is 2n-3 arcs, one
    short of the 2n-2 that two arc-disjoint spanning branchings must use.
    """
    if side == "in":
        g = g.converse()
        u, v = v, u
    elif side != "out":
        return f"bad side {side!r}"
    rest = g.full_mask & ~(1 << v)
    if u == v:
        return "shape needs distinct roots"
    if g.out_masks[v]:
        return "in-root is not a sink"
    for x in bits(rest):
        if not g.has_arc(x, v) and x != v:
            return "some vertex misses the arc to the in-root"
        if x != u and g.in_degree(x, within=rest) != 1:
            return "side digraph is not a tree rooted at the out-root"
    if g.in_degree(u, within=rest) != 0:
        return "out-root has a parent inside the side digraph"
    if reach_mask(g, 1 << u, within=rest) != rest:
        return "side digraph is not an out-tree from the out-root"
    return None


_NO_CHECKS = {
    SMALL_EXCEPTION: _check_small_exception,
    ROOT_COMPONENT: _check_root_component,
    ARC_OBSTRUCTION: _check_arc_obstruction,
    LAYERED_A: _check_layered,
    LAYERED_B: _check_layered,
    KNOWN_FAMILY: _check_known_family,
    DEGREE: _check_degree,
    MIDDLE_BLOCKED: lambda flat, w: middle_blocked_violation(flat, w.u, w.v),
    TREE_SIDE: lambda flat, w: tree_side_violation(flat, w.u, w.v, w.side),
    ARC_FORCING: _check_forcing,
}


def _branching_to_dict(b: Branching) -> dict:
    return {"root": b.root, "kind": b.kind, "arcs": [list(a) for a in b.arcs]}


def _branching_from_dict(d: dict) -> Branching:
    return Branching(
        root=d["root"], arcs=tuple(tuple(a) for a in d["arcs"]), kind=d["kind"]
    )


def verdict_to_dict(verdict: Verdict) -> dict:
    out: dict = {
        "answer": "yes" if verdict.yes else "no",
        "u": verdict.u,
        "v": verdict.v,
        "reason": verdict.reason,
    }
    if verdict.pair is not None:
        out["pair"] = {
            "out": _branching_to_dict(verdict.pair.out_branching),
            "in": _branching_to_dict(verdict.pair.in_branching),
        }
    if verdict.exception_id is not None:
        out["exception"] = verdict.exception_id
        out["mapping"] = list(verdict.mapping)
    if verdict.side is not None:
        out["side"] = verdict.side
    if verdict.arc is not None:
        out["arc"] = list(verdict.arc)
    if verdict.witness is not None:
        w = verdict.witness
        out["witness"] = {
            "kind": w.kind,
            "levels": [sorted(bits(m)) for m in w.sets],
            "backward_arcs": [list(a) for a in w.backward_arcs],
            "a": w.a,
            "b": w.b,
        }
    if verdict.conditions is not None:
        out["conditions"] = list(verdict.conditions)
    if verdict.refinement is not None:
        out["refinement"] = list(verdict.refinement)
    if verdict.forcing is not None:
        out["forcing"] = [list(step) for step in verdict.forcing]
    if verdict.family is not None:
        out["family"] = verdict.family
        out["family_reversed"] = verdict.family_reversed
    return out


def _level_mask(level, bound: int) -> int:
    """Mask of a JSON witness level, whose entries must be ints in
    0..bound-1; `mask_of` alone would read true as vertex 1, and a huge
    entry would allocate a huge mask before n is known."""
    if not all(type(x) is int and 0 <= x < bound for x in level):
        raise InvalidInput(f"malformed verdict document: level {level!r}")
    return mask_of(level)


def _refinement(cells) -> tuple[int, ...]:
    """JSON refinement as a tuple of plain ints (bools are not cells)."""
    if not isinstance(cells, list) or not all(type(x) is int for x in cells):
        raise InvalidInput(f"malformed verdict document: refinement {cells!r}")
    return tuple(cells)


def _forcing(steps) -> tuple[tuple[str, str, int, int], ...]:
    """JSON forcing trace as tuples of [side, rule, int, int] steps."""
    kinds = (str, str, int, int)
    if not isinstance(steps, list) or not all(
        isinstance(step, list)
        and len(step) == 4
        and all(type(x) is t for x, t in zip(step, kinds))
        for step in steps
    ):
        raise InvalidInput(f"malformed verdict document: forcing {steps!r}")
    return tuple(tuple(step) for step in steps)


def verdict_from_dict(d: dict) -> Verdict:
    from .witnesses import TypeABWitness
    try:
        yes = d["answer"] == "yes"
        pair = None
        if "pair" in d:
            pair = BranchingPair(
                _branching_from_dict(d["pair"]["out"]),
                _branching_from_dict(d["pair"]["in"]),
            )
        witness = None
        if "witness" in d:
            wd = d["witness"]
            # valid levels partition 0..N-1, so every entry is below the
            # number of entries
            entries = sum(len(level) for level in wd["levels"])
            witness = TypeABWitness(
                kind=wd["kind"],
                sets=tuple(_level_mask(level, entries) for level in wd["levels"]),
                backward_arcs=tuple(tuple(a) for a in wd["backward_arcs"]),
                a=wd["a"],
                b=wd["b"],
            )
        return Verdict(
            yes=yes,
            u=d["u"],
            v=d["v"],
            reason=d["reason"],
            pair=pair,
            exception_id=d.get("exception"),
            mapping=tuple(d["mapping"]) if "mapping" in d else None,
            side=d.get("side"),
            arc=tuple(d["arc"]) if "arc" in d else None,
            witness=witness,
            conditions=tuple(d["conditions"]) if "conditions" in d else None,
            refinement=_refinement(d["refinement"]) if "refinement" in d else None,
            forcing=_forcing(d["forcing"]) if "forcing" in d else None,
            family=d.get("family"),
            family_reversed=d.get("family_reversed", False),
        )
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"malformed verdict document: {exc}") from exc
