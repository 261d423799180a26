import dataclasses
import json
import tracemalloc

import pytest

from goodpairs.branchings import Branching, BranchingPair
from goodpairs.composition import Composition, singleton
from goodpairs.digraph import Digraph
from goodpairs.dispatch import decide
from goodpairs.errors import InvalidInput
from goodpairs.families import kind_a_instance, random_composition
from goodpairs.semicomplete import EXCEPTION_PATTERNS
from goodpairs.verdicts import (
    ARC_FORCING,
    ARC_OBSTRUCTION,
    DEGREE,
    LAYERED_A,
    MIDDLE_BLOCKED,
    NO_REASONS,
    ROOT_COMPONENT,
    TREE_SIDE,
    YES,
    Verdict,
    validate_verdict,
    verdict_from_dict,
    verdict_to_dict,
)
from test_corpus import corpus


def two_cycle():
    return Digraph(2, [(0, 1), (1, 0)])


def test_constructor_guards():
    # [TRIVIAL] flag, reason, and payload must agree
    with pytest.raises(InvalidInput):
        Verdict(yes=True, u=0, v=0, reason=YES)  # no pair
    with pytest.raises(InvalidInput):
        Verdict(yes=False, u=0, v=0, reason="made-up")
    with pytest.raises(InvalidInput):
        Verdict(yes=True, u=0, v=0, reason=ROOT_COMPONENT)


def test_validate_yes_pair():
    g = two_cycle()
    pair = BranchingPair(
        Branching(0, ((0, 1),), "out"), Branching(1, ((0, 1),), "in")
    )
    bad = validate_verdict(
        g, Verdict(yes=True, u=0, v=1, reason=YES, pair=pair)
    )
    # [TRIVIAL] the single arc cannot serve both branchings
    assert bad is not None
    trip = Digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2), (2, 1), (1, 0)])
    ver = decide(trip, 0, 1, "semicomplete")
    assert ver.yes and validate_verdict(trip, ver) is None


def test_validate_root_component_sides():
    g = Digraph(2, [(0, 1)])
    ok = Verdict(yes=False, u=1, v=0, reason=ROOT_COMPONENT, side="out")
    assert validate_verdict(g, ok) is None
    # [TRIVIAL] vertex 1 is reachable from 0, so the "in" claim is false
    bad = Verdict(yes=False, u=1, v=1, reason=ROOT_COMPONENT, side="in")
    assert validate_verdict(g, bad) is not None


def test_validate_arc_obstruction():
    g = two_cycle()
    ok = Verdict(yes=False, u=0, v=1, reason=ARC_OBSTRUCTION, arc=(0, 1))
    assert validate_verdict(g, ok) is None
    # [DERIVED] removing (1,0) leaves 0 -> 1, which still spans from 0
    bad = Verdict(yes=False, u=0, v=1, reason=ARC_OBSTRUCTION, arc=(1, 0))
    assert validate_verdict(g, bad) is not None


def test_validate_small_exception_through_engine():
    # [DERIVED] relabelled two-cycle-plus-hub blocks the pinned roots
    g = Digraph(3, [(2, 1), (1, 2), (2, 0), (0, 1)])
    ver = decide(g, 2, 1, "semicomplete")
    assert ver.reason == "small-exception" and ver.exception_id == "c"
    assert validate_verdict(g, ver) is None
    tampered = Verdict(
        yes=False,
        u=2,
        v=1,
        reason=ver.reason,
        exception_id=ver.exception_id,
        mapping=tuple(reversed(ver.mapping)),
    )
    assert validate_verdict(g, tampered) is not None


def test_validate_layered_on_flat_tournament():
    # [DERIVED] five singleton levels with designated arcs (4,2),(3,1),(2,0);
    # every pair rooted (3,1) must reuse a designated arc, and the oracle
    # confirmed this instance is a NO
    up = [(0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (3, 4)]
    g = Digraph(5, up + [(4, 2), (3, 1), (2, 0)])
    ver = decide(g, 3, 1, "semicomplete")
    assert ver.reason == LAYERED_A
    assert ver.witness.backward_arcs == ((4, 2), (3, 1), (2, 0))
    assert validate_verdict(g, ver) is None
    moved = Verdict(yes=False, u=3, v=0, reason=LAYERED_A, witness=ver.witness)
    assert validate_verdict(g, moved) is not None


def test_validate_degree_needs_small_root_degree():
    comp = Composition(Digraph(2, [(0, 1)]), (singleton(), singleton()))
    ok = Verdict(yes=False, u=0, v=1, reason=DEGREE)
    assert validate_verdict(comp, ok) is None
    big = Composition(
        Digraph(2, [(0, 1), (1, 0)]),
        (Digraph(2, []), Digraph(2, [])),
    )
    assert validate_verdict(big, Verdict(yes=False, u=0, v=2, reason=DEGREE))


def test_validate_middle_blocked():
    g = Digraph(4, [(0, 3), (0, 1), (0, 2), (1, 3), (2, 3)])
    ok = Verdict(yes=False, u=0, v=3, reason=MIDDLE_BLOCKED)
    assert validate_verdict(g, ok) is None
    noisy = g.with_arcs([(1, 2)])
    assert validate_verdict(noisy, ok) is not None


def test_validate_tree_side():
    # [DERIVED] path 0 -> 1 plus all arcs into 2: out-side tree shape
    g = Digraph(3, [(0, 1), (0, 2), (1, 2)])
    ok = Verdict(yes=False, u=0, v=2, reason=TREE_SIDE, side="out")
    assert validate_verdict(g, ok) is None
    flipped = Verdict(yes=False, u=2, v=0, reason=TREE_SIDE, side="in")
    assert validate_verdict(g.converse(), flipped) is None
    assert validate_verdict(g, flipped) is not None


# corpus groups whose decisions reach every reason constant between them
ROUND_TRIP_GROUPS = (
    "random-composition",
    "kind-ab",
    "transitive-3-parts",
    "families",
    "random-qt",
)


def test_dict_round_trip():
    g = two_cycle()
    ver = decide(g, 0, 1, "semicomplete")
    assert verdict_from_dict(verdict_to_dict(ver)) == ver
    trip = Digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2), (2, 1), (1, 0)])
    yes = decide(trip, 0, 1, "semicomplete")
    assert verdict_from_dict(verdict_to_dict(yes)) == yes
    with pytest.raises(InvalidInput):
        verdict_from_dict({"answer": "no"})
    # every verdict survives JSON text and still validates, the layered
    # refinement and the forcing trace included
    reasons = set()
    for group in ROUND_TRIP_GROUPS:
        for target, u, v in corpus(group):
            ver = decide(target, u, v)
            back = verdict_from_dict(json.loads(json.dumps(verdict_to_dict(ver))))
            assert back == ver, (group, u, v)
            assert validate_verdict(target, back) is None, (group, u, v)
            # the evidence needs no parts: the flat rows alone check it
            flat = target.flatten() if isinstance(target, Composition) else target
            assert validate_verdict(flat, back) is None, (group, u, v)
            reasons.add(ver.reason)
    assert reasons == {YES, *NO_REASONS}


def test_forged_refinement_and_forcing_from_json_are_rejected():
    # this witness lives on a finer partition than the composition's
    # own, with the two-vertex cell 3, so the flat digraph is not
    # semicomplete and the witness without its cells checks nothing
    comp = random_composition(263)
    d = verdict_to_dict(decide(comp, 2, 1))
    assert d["reason"] == LAYERED_A
    assert d["refinement"] == [0, 1, 2, 3, 3, 4]
    assert validate_verdict(comp, verdict_from_dict(d)) is None
    stripped = {k: x for k, x in d.items() if k != "refinement"}
    assert validate_verdict(comp, verdict_from_dict(stripped)) is not None
    cells = d["refinement"]
    for bad in (
        [True, *cells[1:]],
        [float(cells[0]), *cells[1:]],
        [str(cells[0]), *cells[1:]],
        [None, *cells[1:]],
        [[cells[0]], *cells[1:]],
        "0" * len(cells),
        {"0": 0},
        7,
        None,
    ):
        with pytest.raises(InvalidInput, match="malformed verdict document"):
            verdict_from_dict({**d, "refinement": bad})
    # well-typed but wrong cells reach the checker and get a reason
    for bad in (cells[:-1], [0] * len(cells), [c + 1 for c in cells], [-1, *cells[1:]]):
        assert validate_verdict(comp, verdict_from_dict({**d, "refinement": bad}))
    comp = random_composition(908)
    verdicts = [decide(comp, u, v) for u in range(comp.n) for v in range(comp.n)]
    d = verdict_to_dict(next(x for x in verdicts if x.reason == ARC_FORCING))
    steps = d["forcing"]
    assert validate_verdict(comp, verdict_from_dict(d)) is None
    side, rule, x, y = steps[0]
    for bad_step in (
        [side, rule, x],
        [side, rule, x, y, 0],
        [side, rule, True, y],
        [side, rule, x, float(y)],
        [side, rule, str(x), y],
        [0, rule, x, y],
        [side, None, x, y],
        (side, rule, x, y),
        7,
        None,
    ):
        with pytest.raises(InvalidInput, match="malformed verdict document"):
            verdict_from_dict({**d, "forcing": [bad_step, *steps[1:]]})
    for bad in ("steps", {"0": steps[0]}, 7, None):
        with pytest.raises(InvalidInput, match="malformed verdict document"):
            verdict_from_dict({**d, "forcing": bad})
    # a well-typed forged trace reaches the replay and gets a reason
    for bad in ([], steps[:-1], [[side, rule, comp.n, y], *steps[1:]]):
        assert validate_verdict(comp, verdict_from_dict({**d, "forcing": bad}))


def test_arc_obstruction_from_json_rejects_arcs_outside_the_input():
    g = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    base = {"answer": "no", "u": 0, "v": 1, "reason": ARC_OBSTRUCTION}
    for arc in ([5, 0], [0, 5], [0], [0, 1, 2], [], [-1, 0], ["a", 1], [0.0, 1]):
        ver = verdict_from_dict({**base, "arc": arc})
        assert validate_verdict(g, ver) is not None, arc


def test_good_pair_from_json_rejects_arcs_outside_the_input():
    k3 = Digraph(3, [(a, b) for a in range(3) for b in range(3) if a != b])
    inn = {"root": 1, "kind": "in", "arcs": [[0, 1], [2, 1]]}
    for arc in ([-1, 1], [5, 1], [0, 1, 2], [0], [1.0, 2], [2, 1.5]):
        out = {"root": 0, "kind": "out", "arcs": [[0, 2], arc]}
        d = {"answer": "yes", "u": 0, "v": 1, "reason": YES}
        ver = verdict_from_dict({**d, "pair": {"out": out, "in": inn}})
        reason = validate_verdict(k3, ver)
        assert reason is not None and "not in the digraph" in reason, arc


def test_small_exception_from_json_rejects_a_mapping_off_the_vertices():
    k3 = Digraph(3, [(a, b) for a in range(3) for b in range(3) if a != b])
    base = {"answer": "no", "u": 0, "v": 1, "reason": "small-exception"}
    for last in ("x", 2.0, -1, 3):
        d = {**base, "exception": "c", "mapping": [0, 1, last]}
        assert (
            validate_verdict(k3, verdict_from_dict(d))
            == "mapping is not a bijection onto the input"
        ), last


def test_small_exception_from_json_rejects_bool_mapping_entries():
    # the true mapping of exception "c" onto itself is (0, 1, 2)
    pattern, pu, pv = EXCEPTION_PATTERNS["c"]
    base = {"answer": "no", "u": pu, "v": pv, "reason": "small-exception"}
    d = {**base, "exception": "c", "mapping": [0, 1, 2]}
    assert validate_verdict(pattern, verdict_from_dict(d)) is None
    for mapping in ([False, True, 2], [0, True, 2]):
        d = {**base, "exception": "c", "mapping": mapping}
        assert (
            validate_verdict(pattern, verdict_from_dict(d))
            == "mapping is not a bijection onto the input"
        ), mapping


def test_verdict_roots_from_json_must_be_int_vertices():
    k3 = Digraph(3, [(a, b) for a in range(3) for b in range(3) if a != b])
    out = {"root": 0, "kind": "out", "arcs": [[0, 2], [2, 1]]}
    inn = {"root": 1, "kind": "in", "arcs": [[0, 1], [2, 0]]}
    pair = {"out": out, "in": inn}
    yes = {"answer": "yes", "u": 0, "v": 1, "reason": YES, "pair": pair}
    assert validate_verdict(k3, verdict_from_dict(yes)) is None
    no = {"answer": "no", "u": 0, "v": 1, "reason": "root-component", "side": "out"}
    for bad in ("0", None, 0.0, False, -1, 3):
        for d in (yes, no):
            ver = verdict_from_dict({**d, "u": bad})
            assert validate_verdict(k3, ver) == "roots out of range", (bad, d)
    # a pair written with false/true in place of 0/1 is not a good pair
    out = {"root": False, "kind": "out", "arcs": [[False, 2], [2, True]]}
    inn = {"root": True, "kind": "in", "arcs": [[False, True], [2, False]]}
    d = {**yes, "u": False, "v": True, "pair": {"out": out, "in": inn}}
    assert validate_verdict(k3, verdict_from_dict(d)) == "roots out of range"
    d = {**yes, "pair": {"out": out, "in": inn}}
    assert validate_verdict(k3, verdict_from_dict(d)) is not None


def test_layered_witness_from_json_must_name_int_vertices():
    g, _ = kind_a_instance(0)
    d = verdict_to_dict(decide(g, 6, 2))
    assert d["reason"] == LAYERED_A
    assert validate_verdict(g, verdict_from_dict(d)) is None
    for field in ("a", "b"):
        for bad in ("0", None, 1.5, True, -1, g.n):
            edited = {**d, "witness": {**d["witness"], field: bad}}
            reason = validate_verdict(g, verdict_from_dict(edited))
            assert reason == "witness roots are not vertices of the digraph"
    # so is each end of a designated arc
    arcs = d["witness"]["backward_arcs"]
    assert arcs[0] == [7, 4]
    for bad in (["7", 4], [7, None], [7, 4.0], [-1, 4], [7, 4, 1], [True, 4], [7, [4]]):
        edited = {**d, "witness": {**d["witness"], "backward_arcs": [bad, *arcs[1:]]}}
        reason = validate_verdict(g, verdict_from_dict(edited))
        assert reason.startswith("designated arc ("), (bad, reason)
    # a level entry is an int vertex: true is not folded into vertex 1
    assert d["witness"]["levels"][0] == [0, 1]
    for bad in (True, "1", 1.0, None, -1):
        levels = [[0, bad], *d["witness"]["levels"][1:]]
        edited = {**d, "witness": {**d["witness"], "levels": levels}}
        with pytest.raises(InvalidInput, match="malformed verdict document"):
            verdict_from_dict(edited)
    # valid levels partition 0..N-1, so an entry past the number of
    # entries is malformed; it is refused before any mask is built
    entries = sum(map(len, d["witness"]["levels"]))
    for bad in (entries, 10**8):
        levels = [[0, bad], *d["witness"]["levels"][1:]]
        edited = {**d, "witness": {**d["witness"], "levels": levels}}
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInput, match="malformed verdict document"):
                verdict_from_dict(edited)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    levels = [[0, entries - 1], *d["witness"]["levels"][1:]]
    edited = {**d, "witness": {**d["witness"], "levels": levels}}
    assert validate_verdict(g, verdict_from_dict(edited)) == "levels overlap"
    # on a composition the witness lives on the quotient
    comp = random_composition(0)
    ver = decide(comp, 0, 0)
    assert ver.reason == LAYERED_A and validate_verdict(comp, ver) is None
    for bad in ("0", True, comp.s):
        w = dataclasses.replace(ver.witness, a=bad)
        reason = validate_verdict(comp, dataclasses.replace(ver, witness=w))
        assert reason == "witness roots are not vertices of the quotient"


def test_forged_forcing_trace_is_rejected():
    # [DERIVED] the complete digraph on 3 vertices has a good (0,1)-pair,
    # so no forcing trace may validate; vertex 7 does not exist
    k3 = Digraph(3, [(a, b) for a in range(3) for b in range(3) if a != b])
    forged = Verdict(
        yes=False, u=0, v=1, reason=ARC_FORCING, forcing=(("in", "severed", 7, -1),)
    )
    assert validate_verdict(k3, forged) is not None
    for step in (
        ("out", "stuck", "a", -1),
        ("in", "severed", -1, -1),
        ("out", "stuck", 2, 5),
        ("out", "stuck", 2, 0),
        ("in", "severed", 2, None),
        ("out", "only-entry", 0, 9),
        ("in", "cut-exit", None, 1),
        ("out", "cut-entry", [0], 1),
        ("out", "stuck", 2),
        ["in", ["severed"], 2, -1],
        7,
        None,
    ):
        ver = Verdict(yes=False, u=0, v=1, reason=ARC_FORCING, forcing=(step,))
        assert validate_verdict(k3, ver) is not None, step
