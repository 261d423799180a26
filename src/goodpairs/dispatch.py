"""The one decision path: every class shares its first steps.

`decide` and `blocked` check the class, then the roots: out of range is
an error, one vertex is a trivial YES, a root side that misses a vertex
is a NO, and so is a starved root degree outside the semicomplete class.
Past those steps each class has one obstruction finder, which returns
a NO verdict with its evidence or None:

- semicomplete: `semicomplete.decide_semicomplete`;
- composition over a strong semicomplete quotient:
  `composition_engine.decide_composition`;
- composition over any other quotient, and non-strong quasi-transitive
  digraphs: `transitive_engine.decide_transitive_composition`, whose
  shapes are predicates on the flat digraph alone;
- strong quasi-transitive digraphs: the composition finder too, on the
  input's own rows with its non-adjacency components as the parts
  (`composition.strong_qt_parts`).

Every layered NO of the composition finder names its cells in
`refinement`, so each verdict checks against the flat digraph alone.

Before its finder, each route tries the greedy of
`semicomplete.greedy_good_pair` on the flat digraph in the input's own
numbering, since a pair that verifies is a whole YES certificate; only
a miss imports and runs the finder.  `decide` builds a miss that the
finder does not block with `semicomplete.searched_good_pair`, on the
same rows: the one call of the complete search on the decision path.
`blocked` takes the same steps and stops there, so it answers None
exactly where `decide` answers YES.
"""

from __future__ import annotations

from .composition import (
    Composition,
    finest_refinement,
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


def recognize(target) -> str:
    """The class whose route `decide` takes for this input, or raise
    InvalidInput.  A single-part composition is its flattening."""
    if isinstance(target, Composition):
        if target.s < 2:
            return recognize(target.flatten())
        q = target.quotient
        semicomplete = is_semicomplete(q)
        if semicomplete and is_strong(q):
            return "composition"
        if is_transitive(q):
            return "transitive"
        if semicomplete:
            return "composition"
        raise InvalidInput(
            "composition quotient is neither semicomplete nor transitive"
        )
    if is_semicomplete(target):
        return "semicomplete"
    if target.n == 1 or is_quasi_transitive(target):
        return "qt"
    raise InvalidInput(
        "digraph is neither semicomplete nor quasi-transitive"
    )


def decide(target, u: int, v: int, klass: str = "auto") -> Verdict:
    """Decide a good (u,v)-pair question for any supported input.

    `target` is a flat Digraph or a Composition.  `klass` forces a route
    (useful for adversarial tests); "auto" takes the class `recognize`
    names.  The verdict always speaks in the target's own vertex
    numbering.
    """
    flat, ver = _settle(target, u, v, klass)
    if ver is not None:
        return ver
    pair = searched_good_pair(flat, u, v)
    return Verdict(yes=True, u=u, v=v, reason=YES, pair=pair)


def blocked(target, u: int, v: int) -> Verdict | None:
    """The NO verdict `decide` gives for these roots, or None where it
    answers YES, without the complete search: the steps before the
    search are `decide`'s own, so a greedy miss that the finder does not
    block is one that `decide` answers YES."""
    ver = _settle(target, u, v, "auto")[1]
    return None if ver is None or ver.yes else ver


def _settle(target, u: int, v: int, klass: str) -> tuple[Digraph, Verdict | None]:
    """(flat, verdict): the flat digraph, and the verdict when the steps
    every route shares, the greedy or the class's finder settle it, else
    None.  A single-part or flat-route composition is decided as its
    flattening."""
    if klass not in CLASSES:
        raise InvalidInput(f"unknown class {klass!r}")
    if isinstance(target, Composition) and (
        target.s < 2 or klass in ("semicomplete", "qt")
    ):
        # the quotient adds nothing to these routes: decide the flat digraph
        if klass in ("composition", "transitive"):
            raise InvalidInput("composition needs at least two parts")
        target = target.flatten()
    if klass == "auto":
        klass = recognize(target)
    else:
        _check_forced_class(target, klass)
    flat = target.flatten() if isinstance(target, Composition) else target
    if not (0 <= u < flat.n and 0 <= v < flat.n):
        raise InvalidInput("roots out of range")
    if flat.n == 1:
        return flat, Verdict(yes=True, u=u, v=v, reason=YES, pair=trivial_pair(u))
    if reach_mask(flat, 1 << u) != flat.full_mask:
        return flat, Verdict(yes=False, u=u, v=v, reason=ROOT_COMPONENT, side="out")
    if coreach_mask(flat, 1 << v) != flat.full_mask:
        return flat, Verdict(yes=False, u=u, v=v, reason=ROOT_COMPONENT, side="in")
    # semicomplete inputs skip the degree test: their finder names a
    # starved degree by its own evidence, a small exception or an
    # obstructing arc
    if klass != "semicomplete" and u != v and (
        flat.out_degree(u) < 2 or flat.in_degree(v) < 2
    ):
        return flat, Verdict(yes=False, u=u, v=v, reason=DEGREE)
    pair = greedy_good_pair(flat, u, v)
    if pair is not None:
        return flat, Verdict(yes=True, u=u, v=v, reason=YES, pair=pair)
    return flat, _find_obstruction(target, flat, u, v, klass)


def _find_obstruction(
    target, flat: Digraph, u: int, v: int, klass: str
) -> Verdict | None:
    """The class's obstruction finder on `flat`, target's flat digraph,
    past the shared steps: a NO verdict in the input's own numbering, or
    None.  The composition finder takes the finest uniform parts: a
    composition's parts are refined here, and a strong quasi-transitive
    input is decided on its own rows over its non-adjacency components,
    each of which is already one finest cell."""
    from .composition_engine import decide_composition
    from .semicomplete import decide_semicomplete
    from .transitive_engine import decide_transitive_composition
    if klass == "semicomplete":
        return decide_semicomplete(flat, u, v)
    if isinstance(target, Composition):
        if klass == "composition" and is_strong(target.quotient):
            parts = [target.part_mask(i) for i in range(target.s)]
            return decide_composition(flat, u, v, finest_refinement(flat, parts))
        return decide_transitive_composition(flat, u, v)
    if not is_strong(flat):
        return decide_transitive_composition(flat, u, v)
    return decide_composition(flat, u, v, strong_qt_parts(flat))


def _check_forced_class(target, klass: str) -> None:
    """Raise InvalidInput unless the forced class's route accepts target."""
    if isinstance(target, Composition):
        if klass == "composition" and not is_semicomplete(target.quotient):
            raise InvalidInput("quotient is not semicomplete")
        if klass == "transitive" and not is_transitive(target.quotient):
            raise InvalidInput("quotient is not transitive")
    elif klass == "semicomplete" and not is_semicomplete(target):
        raise InvalidInput("digraph is not semicomplete")
    elif klass == "transitive" and not is_transitive(target):
        raise InvalidInput("digraph is not transitive")
    elif klass == "qt" and not is_quasi_transitive(target):
        raise InvalidInput("input digraph is not quasi-transitive")
    elif klass == "composition":
        raise InvalidInput("composition class needs a composition input")
