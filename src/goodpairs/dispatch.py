"""The one decision path: every class shares its first steps.

`recognize` checks the class once and returns the record that every
later step reads: the route, the flat digraph and, for a composition of
two or more parts, its part masks on the flat rows and its own quotient.
`decide` and `blocked` then check the roots: out of range is an error,
one vertex is a trivial YES, a root side that misses a vertex is a NO,
and so is a starved root degree outside the semicomplete class.  Next
the greedy of `semicomplete.greedy_good_pair` runs on the flat rows,
since a pair that verifies is a whole YES certificate.  Only a miss
imports and runs the route's obstruction finder, which returns a NO
verdict with its evidence or None:

- semicomplete: `semicomplete.decide_semicomplete`;
- a composition over a strong semicomplete quotient, or a strong
  quasi-transitive digraph over its non-adjacency components
  (`composition.strong_qt_parts`): `composition_engine.decide_composition`;
- any other composition or quasi-transitive digraph:
  `transitive_engine.decide_transitive_composition`.

No step renumbers a vertex, so every verdict checks against the flat
digraph alone.  `decide` builds a miss that the finder does not block
with `semicomplete.searched_good_pair`, the one complete search on the
decision path; `blocked` stops before it, so it answers None exactly
where `decide` answers YES.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .composition import (
    Composition,
    is_quasi_transitive,
    is_semicomplete,
    is_transitive,
    strong_qt_parts,
)
from .digraph import Digraph, coreach_mask, is_strong, reach_mask
from .errors import InvalidInput
from .semicomplete import greedy_good_pair, searched_good_pair, trivial_pair
from .verdicts import DEGREE, ROOT_COMPONENT, YES, Verdict

CLASSES = ("auto", "semicomplete", "composition", "transitive", "qt")


@dataclass
class Recognized:
    """An input as `recognize` found it: its route, a class other than
    "auto", its flat digraph and, for a composition of two or more parts,
    its part masks on the flat rows and its own quotient."""

    route: str
    flat: Digraph
    parts: list[int] | None = None
    quotient: Digraph | None = None

    @cached_property
    def strong(self) -> bool:
        """Whether the flat digraph is strong: tested once, on first use,
        on the quotient where there is one."""
        return is_strong(self.flat if self.quotient is None else self.quotient)


def recognize(target, klass: str = "auto") -> Recognized:
    """The record `decide` routes by, or raise InvalidInput: "auto" takes
    the input's class, and a forced class must accept the input.  A
    single-part composition is its flattening, as is any composition on
    the semicomplete or qt route.  Auto routes a composition over a
    strong semicomplete quotient to "composition", then one over a
    transitive quotient to "transitive", then any other semicomplete
    quotient to "composition"."""
    if klass not in CLASSES:
        raise InvalidInput(f"unknown class {klass!r}")
    if isinstance(target, Composition) and (
        target.s < 2 or klass in ("semicomplete", "qt")
    ):
        if klass in ("composition", "transitive"):
            raise InvalidInput("composition needs at least two parts")
        target = target.flatten()
    if isinstance(target, Composition):
        q = target.quotient
        parts = [target.part_mask(i) for i in range(target.s)]
        rec = Recognized(klass, target.flatten(), parts, q)
        if klass == "transitive" and not is_transitive(q):
            raise InvalidInput("quotient is not transitive")
        if klass == "composition" and not is_semicomplete(q):
            raise InvalidInput("quotient is not semicomplete")
        if klass == "auto":
            semicomplete = is_semicomplete(q)
            if not (semicomplete and rec.strong) and is_transitive(q):
                rec.route = "transitive"
            elif semicomplete:
                rec.route = "composition"
            else:
                raise InvalidInput(
                    "composition quotient is neither semicomplete nor transitive"
                )
        return rec
    if klass == "auto":
        if is_semicomplete(target):
            klass = "semicomplete"
        elif target.n == 1 or is_quasi_transitive(target):
            klass = "qt"
        else:
            raise InvalidInput("digraph is neither semicomplete nor quasi-transitive")
    elif klass == "semicomplete" and not is_semicomplete(target):
        raise InvalidInput("digraph is not semicomplete")
    elif klass == "transitive" and not is_transitive(target):
        raise InvalidInput("digraph is not transitive")
    elif klass == "qt" and not is_quasi_transitive(target):
        raise InvalidInput("input digraph is not quasi-transitive")
    elif klass == "composition":
        raise InvalidInput("composition class needs a composition input")
    return Recognized(klass, target)


def decide(target, u: int, v: int, klass: str = "auto") -> Verdict:
    """Decide a good (u,v)-pair question for a flat Digraph or a
    Composition, on the route `recognize` takes for `klass`.  The verdict
    speaks in the target's own vertex numbering."""
    rec = recognize(target, klass)
    ver = _settle(rec, u, v)
    if ver is not None:
        return ver
    pair = searched_good_pair(rec.flat, u, v)
    return Verdict(yes=True, u=u, v=v, reason=YES, pair=pair)


def blocked(target, u: int, v: int) -> Verdict | None:
    """The NO verdict `decide` gives for these roots, or None where it
    answers YES, without the complete search: the steps before the
    search are `decide`'s own, so a greedy miss that the finder does not
    block is one that `decide` answers YES."""
    ver = _settle(recognize(target), u, v)
    return None if ver is None or ver.yes else ver


def _settle(rec: Recognized, u: int, v: int) -> Verdict | None:
    """The verdict when the steps every route shares, the greedy or the
    route's obstruction finder settle it, else None."""
    flat = rec.flat
    if not (flat.is_vertex(u) and flat.is_vertex(v)):
        raise InvalidInput("roots out of range")
    if flat.n == 1:
        return Verdict(yes=True, u=u, v=v, reason=YES, pair=trivial_pair(u))
    if reach_mask(flat, 1 << u) != flat.full_mask:
        return Verdict(yes=False, u=u, v=v, reason=ROOT_COMPONENT, side="out")
    if coreach_mask(flat, 1 << v) != flat.full_mask:
        return Verdict(yes=False, u=u, v=v, reason=ROOT_COMPONENT, side="in")
    # semicomplete inputs skip the degree test: their finder names a
    # starved degree by its own evidence, a small exception or an
    # obstructing arc
    if rec.route != "semicomplete" and u != v and (
        flat.out_degree(u) < 2 or flat.in_degree(v) < 2
    ):
        return Verdict(yes=False, u=u, v=v, reason=DEGREE)
    pair = greedy_good_pair(flat, u, v)
    if pair is not None:
        return Verdict(yes=True, u=u, v=v, reason=YES, pair=pair)
    from .composition_engine import decide_composition
    from .semicomplete import decide_semicomplete
    from .transitive_engine import decide_transitive_composition
    if rec.route == "semicomplete":
        return decide_semicomplete(flat, u, v)
    if rec.route == "composition" and rec.strong:
        return decide_composition(flat, u, v, rec.parts, rec.quotient)
    if rec.quotient is not None or not rec.strong:
        return decide_transitive_composition(flat, u, v)
    return decide_composition(flat, u, v, *strong_qt_parts(flat))
