"""Route a decision request to the engine that owns the input's class."""

from __future__ import annotations

from .composition import (
    Composition,
    is_quasi_transitive,
    is_semicomplete,
    is_transitive,
)
from .digraph import strong_components
from .errors import InvalidInput
from .semicomplete import decide_semicomplete
from .transitive_engine import (
    condensed_transitive,
    decide_quasi_transitive,
    decide_transitive_composition,
    translate_verdict,
)
from .verdicts import Verdict

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
    if isinstance(target, Composition):
        if klass == "transitive":
            return decide_transitive_composition(target, u, v)
        if strong_components(target.quotient).is_strong:
            from .composition_engine import decide_composition

            return decide_composition(target, u, v)
        return _condensed_decide(target, u, v)
    if klass == "semicomplete":
        return decide_semicomplete(target, u, v)
    # transitive digraphs are quasi-transitive; reuse that front door
    return decide_quasi_transitive(target, u, v)


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


def _condensed_decide(comp: Composition, u: int, v: int) -> Verdict:
    """Non-strong semicomplete quotient: merge parts along its strong
    components, decide over the resulting transitive quotient, and
    relabel the evidence back."""
    tcomp, order = condensed_transitive(comp)
    inv = [0] * tcomp.n
    for new, old in enumerate(order):
        inv[old] = new
    inner = decide_transitive_composition(tcomp, inv[u], inv[v])
    return translate_verdict(comp, tcomp, order, inner, u, v)
