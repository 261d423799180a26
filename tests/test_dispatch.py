"""`recognize` names the class whose route an automatic `decide` takes,
and `decide` runs the steps every class shares once."""

import sys

import pytest
from test_corpus import GROUPS, blocked_line, corpus, corpus_pass, digest, targets

from goodpairs import composition_engine
from goodpairs.branchings import search_good_pair
from goodpairs.composition import (
    Composition,
    directed_cycle,
    finest_refinement,
    is_quasi_transitive,
    is_semicomplete,
    is_transitive,
    quotient_of,
    singleton,
    transitive_tournament,
)
from goodpairs.digraph import Digraph, is_strong
from goodpairs.dispatch import CLASSES, blocked, decide, recognize
from goodpairs.errors import InternalInconsistency, InvalidInput, ResourceExceeded
from goodpairs.families import all_digraphs, family_c, random_composition
from goodpairs.semicomplete import greedy_good_pair
from goodpairs.verdicts import validate_verdict
from test_semicomplete import greedy_miss_yes
from test_transitive import (
    DEGREE_NON_STRONG,
    DEGREE_STRONG,
    GREEDY_MISS_YES_NON_STRONG,
    GREEDY_MISS_YES_STRONG,
)


def assert_recognize_agrees(target, roots):
    try:
        klass = recognize(target).route
    except InvalidInput:
        for u, v in roots:
            with pytest.raises(InvalidInput):
                decide(target, u, v)
        return
    for u, v in roots:
        assert decide(target, u, v) == decide(target, u, v, klass)


def test_single_part_composition_is_recognized_as_its_flattening():
    # a one-part quotient is trivially transitive, but decide flattens
    # such an input: a 3-cycle part is semicomplete and a path part is
    # rejected as neither semicomplete nor quasi-transitive
    for h in (singleton(), *all_digraphs(3)):
        comp = Composition(singleton(), (h,))
        assert_recognize_agrees(comp, [(u, v) for u in range(h.n) for v in range(h.n)])


@pytest.mark.parametrize("group", GROUPS)
def test_recognize_agrees_with_decide_on_the_corpus(group):
    for target, roots in targets(group):
        assert_recognize_agrees(target, [roots[0], roots[-1]])


def _klass_inputs():
    """One input of each kind `decide` meets, with its roots."""
    c3 = directed_cycle(3)
    one = (singleton(),)
    condensed = Digraph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)])
    sink = Digraph(3, [(1, 2), (2, 0), (2, 1)])
    return {
        "flat semicomplete": (c3, 0, 1),
        "flat quasi-transitive": (Digraph(4, QT_STRONG_MISS_NO[0]), 0, 0),
        "flat neither": (Digraph(4, [(0, 1), (1, 2), (2, 3)]), 0, 3),
        "one part": (Composition(singleton(), (c3,)), 0, 1),
        "strong semicomplete quotient": (random_composition(0), 0, 0),
        "non-strong semicomplete quotient": (Composition(condensed, one * 4), 0, 3),
        "transitive quotient": (Composition(transitive_tournament(2), (*one, sink)), 0, 1),
        "neither quotient": (Composition(Digraph(3, [(0, 1), (1, 2)]), one * 3), 0, 2),
    }


NOT_SEMI = "digraph is not semicomplete"
NOT_QT = "input digraph is not quasi-transitive"
NOT_TRANS = "digraph is not transitive"
NO_COMP = "composition class needs a composition input"
ONE_PART = "composition needs at least two parts"
NEITHER = "digraph is neither semicomplete nor quasi-transitive"

# The verdict's reason, or the exact InvalidInput message, of every
# class in CLASSES order (auto, semicomplete, composition, transitive,
# qt) on each input kind of `_klass_inputs`.
KLASS_TABLE = {
    "flat semicomplete": ("arc-obstruction", "arc-obstruction", NO_COMP, NOT_TRANS, "degree"),
    "flat quasi-transitive": ("layered-a", NOT_SEMI, NO_COMP, NOT_TRANS, "layered-a"),
    "flat neither": (NEITHER, NOT_SEMI, NO_COMP, NOT_TRANS, NOT_QT),
    "one part": ("arc-obstruction", "arc-obstruction", ONE_PART, ONE_PART, "degree"),
    "strong semicomplete quotient": (
        "layered-a", NOT_SEMI, "layered-a", "quotient is not transitive", "layered-a"
    ),
    "non-strong semicomplete quotient": (
        "good-pair", "good-pair", "good-pair", "quotient is not transitive", "good-pair"
    ),
    "transitive quotient": ("good-pair", NOT_SEMI, "good-pair", "good-pair", NOT_QT),
    "neither quotient": (
        "composition quotient is neither semicomplete nor transitive",
        NOT_SEMI,
        "quotient is not semicomplete",
        "quotient is not transitive",
        NOT_QT,
    ),
}


def _outcome(fn, *args):
    """fn's verdict, or the message of the InvalidInput it raised."""
    try:
        return fn(*args)
    except InvalidInput as exc:
        return str(exc)


@pytest.mark.parametrize("kind", KLASS_TABLE)
def test_every_class_on_every_input_kind(kind):
    # a forced class either decides the input or refuses it with its own
    # message, and `blocked` takes auto's steps and answers alike
    target, u, v = _klass_inputs()[kind]
    got = []
    for klass in CLASSES:
        ver = _outcome(decide, target, u, v, klass)
        if isinstance(ver, str):
            got.append(ver)
            continue
        assert validate_verdict(target, ver) is None
        got.append(ver.reason)
    assert tuple(got) == KLASS_TABLE[kind]
    auto = _outcome(decide, target, u, v)
    want = None if getattr(auto, "yes", False) else auto
    assert _outcome(blocked, target, u, v) == want


def record_calls(monkeypatch, fn) -> list:
    """Record the arguments of every call of fn from now on, under each
    name a goodpairs module looks it up by."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("goodpairs") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def forbid_everywhere(monkeypatch, fn) -> None:
    """Make fn fail the test if called, under each name a goodpairs
    module looks it up by."""

    def unreachable(*args, **kwargs):
        raise AssertionError(f"{fn.__name__} ran")

    for name, module in list(sys.modules.items()):
        if name.startswith("goodpairs") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, unreachable)


@pytest.mark.parametrize(
    "target",
    [Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]), random_composition(0)],
)
@pytest.mark.parametrize("u, v", [(True, 0), (0, False), (1.0, 0), (0, 2.0)])
def test_roots_must_be_int_vertices(target, u, v):
    # a bool or a float is no vertex, even where it equals one
    for ask in (decide, blocked):
        with pytest.raises(InvalidInput, match="^roots out of range$"):
            ask(target, u, v)


def test_layered_no_of_a_strong_quasi_transitive_input_builds_one_quotient(
    monkeypatch,
):
    # the quotient strong_qt_parts builds to check the parts is the one
    # the layered test reads: the refinement keeps every part
    quotients = record_calls(monkeypatch, quotient_of)
    layered = record_calls(monkeypatch, composition_engine._layered_no)
    ver = decide(Digraph(3, [(0, 2), (1, 0), (2, 1)]), 0, 0, "qt")
    assert ver.reason == "layered-a"
    assert len(layered) == 1 and len(quotients) == 1


def test_compositions_refine_only_for_the_layered_test(monkeypatch):
    # a composition's quotient is tested for strongness once per decision,
    # and its parts are refined only where the layered test runs, not
    # where a known family or 2-arc-strength settles the finder first
    strong = record_calls(monkeypatch, is_strong)
    finders = record_calls(monkeypatch, composition_engine.decide_composition)
    refined = record_calls(monkeypatch, finest_refinement)
    layered = record_calls(monkeypatch, composition_engine._layered_no)
    for seed in range(60):
        comp = random_composition(seed)
        for u in range(comp.n):
            for v in range(comp.n):
                strong.clear()
                decide(comp, u, v)
                assert sum(args[0] is comp.quotient for args in strong) == 1
    assert len(finders) > len(refined) == len(layered) > 0


@pytest.mark.parametrize("group", GROUPS)
def test_blocked_is_decides_no_without_a_pair(group, monkeypatch):
    # blocked runs decide's steps up to the search: it gives None where
    # decide answers YES, decide's very NO elsewhere and decide's error,
    # and it never runs the complete search
    want = corpus_pass(group).blocked
    forbid_everywhere(monkeypatch, search_good_pair)
    lines = []
    for target, u, v in corpus(group):
        try:
            outcome = blocked(target, u, v)
        except (InvalidInput, ResourceExceeded, InternalInconsistency) as exc:
            outcome = exc
        lines.append(blocked_line(outcome))
    assert digest(lines) == want


def test_root_starved_quasi_transitive_input_checks_its_class_once(monkeypatch):
    # 0 -> 1, 0 -> 2 is quasi-transitive but not semicomplete, and the
    # in-root 1 is reached from 0 only: the root test answers before
    # any obstruction finder runs
    calls = record_calls(monkeypatch, is_quasi_transitive)
    g = Digraph(3, [(0, 1), (0, 2)])
    ver = decide(g, 0, 1)
    assert not ver.yes and ver.reason == "root-component" and ver.side == "in"
    assert len(calls) == 1


def _flat_case(case, reason, klass):
    arcs, u, v = case
    return Digraph(max(max(a) for a in arcs) + 1, arcs), u, v, reason, klass


# quasi-transitive but not semicomplete, so `recognize` routes them "qt"
QT_STRONG_MISS_NO = ([(0, 3), (1, 3), (2, 0), (2, 1), (3, 2)], 0, 0)
QT_NON_STRONG_MISS_NO = ([(1, 0), (2, 0), (3, 0), (3, 1), (3, 2)], 3, 0)


def front_door_cases(route):
    """(class predicate, [(target, u, v, reason, klass)]) for one route:
    greedy misses, then a starved root degree where the route tests it.
    The `GREEDY_MISS_*` and `DEGREE_*` digraphs are semicomplete too, so
    they force the quasi-transitive route."""
    tt2 = transitive_tournament(2)
    if route == "semicomplete":
        return is_semicomplete, [(*greedy_miss_yes(), "good-pair", "auto")]
    if route == "composition":
        comp, u, v = family_c(1, 0)
        return is_semicomplete, [
            (random_composition(21), 0, 2, "good-pair", "auto"),
            (comp, u, v, "degree", "auto"),
        ]
    if route == "transitive":
        sink = Digraph(3, [(1, 2), (2, 0), (2, 1)])
        return is_transitive, [
            (Composition(tt2, (singleton(), sink)), 0, 1, "good-pair", "auto"),
            (Composition(tt2, (singleton(), singleton())), 0, 1, "degree", "auto"),
        ]
    if route == "condensed":
        # a 3-cycle under a source: semicomplete, neither strong nor
        # transitive; its spanning roots cannot starve a degree
        q = Digraph(4, [(1, 2), (2, 3), (3, 1), (0, 1), (0, 2), (0, 3)])
        comp = Composition(q, (singleton(),) * 4)
        return is_semicomplete, [(comp, 0, 1, "good-pair", "auto")]
    if route == "qt-strong":
        return is_quasi_transitive, [
            _flat_case(QT_STRONG_MISS_NO, "layered-a", "auto"),
            _flat_case(GREEDY_MISS_YES_STRONG, "good-pair", "qt"),
            _flat_case(DEGREE_STRONG, "degree", "qt"),
        ]
    return is_quasi_transitive, [
        _flat_case(QT_NON_STRONG_MISS_NO, "middle-blocked", "auto"),
        _flat_case(GREEDY_MISS_YES_NON_STRONG, "good-pair", "qt"),
        _flat_case(DEGREE_NON_STRONG, "degree", "qt"),
    ]


ROUTES = (
    "semicomplete",
    "composition",
    "transitive",
    "condensed",
    "qt-strong",
    "qt-non-strong",
)


@pytest.mark.parametrize("route", ROUTES)
def test_front_door_runs_each_step_once(route, monkeypatch):
    # decide checks the class once, and runs the greedy once on the flat
    # digraph at the roots: a finder past a miss never runs it again, and a
    # degree NO runs none
    predicate, cases = front_door_cases(route)
    greedy = record_calls(monkeypatch, greedy_good_pair)
    checks = record_calls(monkeypatch, predicate)
    for target, u, v, reason, klass in cases:
        composed = isinstance(target, Composition)
        flat = target.flatten() if composed else target
        assert reason == "degree" or greedy_good_pair(flat, u, v) is None
        greedy.clear()
        checks.clear()
        ver = decide(target, u, v, klass)
        assert len(checks) == 1
        assert checks[0][0] is (target.quotient if composed else target)
        if reason == "degree":
            assert greedy == []
        else:
            assert len(greedy) == 1 and greedy[0][0] is flat
            assert greedy[0][1:] == (u, v)
        assert ver.reason == reason and validate_verdict(target, ver) is None
        auto = decide(target, u, v)
        assert blocked(target, u, v) == (None if auto.yes else auto)
