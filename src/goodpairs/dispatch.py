"""The one decision path: every class shares its first steps.

`decide` checks the class, then the roots: out of range is an error,
one vertex is a trivial YES, a root side that misses a vertex is a NO,
and so is a starved root degree outside the semicomplete class.  Then
the greedy of `semicomplete.greedy_good_pair` runs once, on the flat
digraph in the input's own numbering; a pair that verifies is a whole
YES certificate.  Only a miss imports and runs the class's own tail,
which looks for the class's obstructions and else builds the pair with
the complete search:

- semicomplete: `semicomplete.decide_semicomplete`;
- composition over a strong semicomplete quotient:
  `composition_engine.decide_composition`;
- composition over a transitive quotient:
  `transitive_engine.decide_transitive_composition`;
- composition over a non-strong semicomplete quotient: its parts merged
  along the quotient's strong components (`condensed_transitive`), then
  the transitive tail;
- quasi-transitive: `qt_decompose`, then the strong or the transitive tail.

A tail that works on a renumbered composition has its verdict mapped
back by `translate_verdict`, so every verdict speaks in the input's own
numbering.
"""

from __future__ import annotations

from .composition import (
    Composition,
    is_quasi_transitive,
    is_semicomplete,
    is_transitive,
    qt_decompose,
)
from .digraph import Digraph, coreach_mask, reach_mask, strong_components
from .errors import InvalidInput
from .semicomplete import greedy_good_pair, trivial_pair
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
        if semicomplete and strong_components(q).is_strong:
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
        return Verdict(yes=True, u=u, v=v, reason=YES, pair=trivial_pair(u))
    full = flat.full_mask
    if reach_mask(flat, 1 << u) != full:
        return Verdict(yes=False, u=u, v=v, reason=ROOT_COMPONENT, side="out")
    if coreach_mask(flat, 1 << v) != full:
        return Verdict(yes=False, u=u, v=v, reason=ROOT_COMPONENT, side="in")
    # semicomplete inputs skip the degree test: their tail names a starved
    # degree by its own evidence, a small exception or an obstructing arc
    if klass != "semicomplete" and u != v and (
        flat.out_degree(u) < 2 or flat.in_degree(v) < 2
    ):
        return Verdict(yes=False, u=u, v=v, reason=DEGREE)
    pair = greedy_good_pair(flat, u, v)
    if pair is not None:
        return Verdict(yes=True, u=u, v=v, reason=YES, pair=pair)
    return _decide_greedy_miss(target, flat, u, v, klass)


def _decide_greedy_miss(
    target, flat: Digraph, u: int, v: int, klass: str
) -> Verdict:
    """The class's tail past a greedy miss on `flat`, target's flat
    digraph.  Quasi-transitive inputs and compositions over a non-strong
    semicomplete quotient are decided over a renumbered composition and
    their verdict mapped back."""
    from .composition_engine import decide_composition
    from .semicomplete import decide_semicomplete
    from .transitive_engine import (
        condensed_transitive,
        decide_transitive_composition,
        translate_verdict,
    )
    if klass == "semicomplete":
        return decide_semicomplete(flat, u, v)
    if isinstance(target, Composition):
        if klass == "transitive":
            return decide_transitive_composition(flat, u, v)
        if strong_components(target.quotient).is_strong:
            return decide_composition(target, flat, u, v)
        comp, order = condensed_transitive(target)
        strong = False
    else:
        dec = qt_decompose(flat, recognized=True)
        comp, order, strong = dec.composition, dec.order, dec.kind == "strong"
    inv = [0] * flat.n
    for new, old in enumerate(order):
        inv[old] = new
    if strong:
        inner = decide_composition(comp, comp.flatten(), inv[u], inv[v])
    else:
        inner = decide_transitive_composition(comp.flatten(), inv[u], inv[v])
    return translate_verdict(flat, comp, order, inner, u, v)


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
