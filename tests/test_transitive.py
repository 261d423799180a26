"""Transitive compositions and the quasi-transitive route of `decide`."""

import random

import pytest

from goodpairs import composition, composition_engine, dispatch, transitive_engine
from goodpairs.branchings import (
    Branching,
    BranchingPair,
    search_good_pair,
    verify_good_pair,
)
from goodpairs.composition import (
    Composition,
    independent,
    qt_decompose,
    singleton,
    transitive_tournament,
)
from goodpairs.digraph import Digraph, coreach_mask, is_strong, reach_mask
from goodpairs.dispatch import decide, recognize
from goodpairs.errors import InvalidInput
from goodpairs.families import (
    all_quasi_transitive,
    family_b,
    random_quasi_transitive,
    random_strong_semicomplete,
)
from goodpairs.oracle import oracle_good_pair
from goodpairs.semicomplete import (
    construct_good_pair,
    greedy_good_pair,
    try_construct_pair,
)
from goodpairs.transitive_engine import translate_verdict
from goodpairs.verdicts import YES, Verdict, validate_verdict
from test_corpus import without_pair
from test_semicomplete import count_greedy_calls, forbid, greedy_hits

TT2 = Digraph(2, [(0, 1)])


def tt3_middle(t):
    comp, u, v = family_b(t, back_arc=False)
    return comp, u, v


def test_rejects_bad_inputs():
    comp = Composition(Digraph(3, [(0, 1), (1, 2), (2, 0)]), (singleton(),) * 3)
    with pytest.raises(InvalidInput):
        decide(comp, 0, 1, "transitive")  # cycle quotient
    one = Composition(Digraph(1, []), (independent(3),))
    with pytest.raises(InvalidInput):
        decide(one, 0, 1, "transitive")
    good, u, v = tt3_middle(2)
    with pytest.raises(InvalidInput):
        decide(good, 0, 99, "transitive")


def test_root_component_sides():
    comp = Composition(TT2, (singleton(), singleton()))
    ver = decide(comp, 1, 1, "transitive")
    assert (not ver.yes) and ver.reason == "root-component" and ver.side == "out"
    ver = decide(comp, 0, 0, "transitive")
    assert ver.reason == "root-component" and ver.side == "in"
    assert validate_verdict(comp, ver) is None


def test_middle_blocked_family():
    # [DERIVED] source over an independent middle over a sink, plus the
    # direct arc: both branchings would need that arc
    for t in (1, 2, 3):
        comp, u, v = tt3_middle(t)
        ver = decide(comp, u, v, "transitive")
        assert not ver.yes and ver.reason == "middle-blocked"
        assert validate_verdict(comp, ver) is None
        assert oracle_good_pair(comp.flatten(), u, v) is None


def test_tree_side_both_orientations():
    # chain trees: a star tree would collapse into the middle-blocked
    # shape instead, which is matched first
    out_tree = Digraph(3, [(0, 1), (1, 2)])
    comp = Composition(TT2, (out_tree, singleton()))
    ver = decide(comp, 0, 3, "transitive")
    assert not ver.yes and ver.reason == "tree-side" and ver.side == "out"
    assert validate_verdict(comp, ver) is None
    assert oracle_good_pair(comp.flatten(), 0, 3) is None

    in_tree = Digraph(3, [(0, 1), (1, 2)])
    comp = Composition(TT2, (singleton(), in_tree))
    ver = decide(comp, 0, 3, "transitive")
    assert not ver.yes and ver.reason == "tree-side" and ver.side == "in"
    assert validate_verdict(comp, ver) is None
    assert oracle_good_pair(comp.flatten(), 0, 3) is None


def test_star_tree_is_the_blocked_middle():
    # the star instance of the one-sided tree is exactly the blocked
    # middle shape; reason stays deterministic
    comp = Composition(TT2, (Digraph(3, [(0, 1), (0, 2)]), singleton()))
    ver = decide(comp, 0, 3, "transitive")
    assert ver.reason == "middle-blocked"
    assert validate_verdict(comp, ver) is None


def test_tree_plus_return_arc_is_yes():
    # the 2n-3 count only bites when the in-root is a sink; one arc back
    # out of v already allows a pair
    g = Digraph(3, [(0, 1), (0, 2), (1, 2), (2, 1)])
    ver = decide(g, 0, 2, "qt")
    assert ver.yes and validate_verdict(g, ver) is None
    # and a fabricated tree-side claim on it must not validate
    fake = Verdict(yes=False, u=0, v=2, reason="tree-side", side="out")
    assert validate_verdict(g, fake) == "in-root is not a sink"


def test_degree_starved_same_part_root():
    # u and v share a part; u's only arcs leave through the other part
    part = Digraph(2, [(1, 0)])
    comp = Composition(Digraph(2, [(0, 1), (1, 0)]), (part, singleton()))
    ver = decide(comp, 0, 1, "transitive")
    assert not ver.yes and ver.reason == "degree"
    assert oracle_good_pair(comp.flatten(), 0, 1) is None


def test_middle_part_with_internal_arc_is_yes():
    # one internal arc in the middle breaks the blocked shape
    comp = Composition(
        transitive_tournament(3),
        (singleton(), Digraph(2, [(0, 1)]), singleton()),
    )
    ver = decide(comp, 0, 3, "transitive")
    assert ver.yes and validate_verdict(comp, ver) is None


def test_same_part_roots_construct():
    digon = Digraph(2, [(0, 1), (1, 0)])
    comp = Composition(digon, (digon, singleton()))
    for u, v in ((0, 1), (1, 0), (0, 0)):
        ver = decide(comp, u, v, "transitive")
        want = oracle_good_pair(comp.flatten(), u, v) is not None
        assert ver.yes == want
        assert validate_verdict(comp, ver) is None


def test_matches_oracle_on_mixed_samples():
    import random

    rng = random.Random(5)
    checked = 0
    for _ in range(40):
        t = rng.randint(2, 3)
        parts = []
        for _ in range(t):
            k = rng.randint(1, 3)
            arcs = [
                (a, b)
                for a in range(k)
                for b in range(k)
                if a != b and rng.random() < 0.5
            ]
            parts.append(Digraph(k, arcs))
        comp = Composition(transitive_tournament(t), tuple(parts))
        flat = comp.flatten()
        if flat.n > 8:
            continue
        for u in range(flat.n):
            for v in range(flat.n):
                ver = decide(comp, u, v, "transitive")
                assert ver.yes == (oracle_good_pair(flat, u, v) is not None)
                assert validate_verdict(comp, ver) is None
                if ver.yes:
                    # one constructor: the pair is the greedy-plus-search one
                    assert ver.pair == construct_good_pair(flat, u, v)
                checked += 1
    assert checked > 200


@pytest.mark.parametrize(
    "sink_arcs",
    [[(1, 2), (2, 0), (2, 1)], [(1, 0), (2, 0), (2, 1)]],
)
def test_greedy_miss_is_built_by_the_search(sink_arcs, monkeypatch):
    # u alone in the source part, v in a 3-vertex sink part: the greedy
    # finds no pair here and the complete search builds it
    comp = Composition(
        transitive_tournament(2), (singleton(), Digraph(3, sink_arcs))
    )
    flat = comp.flatten()
    u, v = 0, 1
    greedy = try_construct_pair(flat, u, v)
    assert greedy is None or not verify_good_pair(flat, u, v, greedy)
    calls = count_greedy_calls(monkeypatch)
    ver = decide(comp, u, v, "transitive")
    # the shapes and the search follow a single greedy attempt
    assert calls == [(u, v)]
    assert ver.yes and ver.pair == search_good_pair(flat, u, v)
    assert validate_verdict(comp, ver) is None
    assert oracle_good_pair(flat, u, v) is not None


def test_verified_greedy_pair_answers_before_the_shapes(monkeypatch):
    # a pair that verifies is a whole YES certificate: neither flat shape
    # nor the search may run once the greedy has built one
    two_cycle = Digraph(2, [(0, 1), (1, 0)])
    three_cycle = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    comp = Composition(
        transitive_tournament(3), (two_cycle, independent(2), three_cycle)
    )
    want = greedy_hits(comp.flatten())
    assert len(want) == 6  # u in the source part, v in the sink part
    forbid(
        monkeypatch,
        transitive_engine,
        (
            "middle_blocked_violation",
            "tree_side_violation",
            "construct_transitive_pair",
            "searched_good_pair",
        ),
    )
    for (u, v), pair in want.items():
        ver = decide(comp, u, v, "transitive")
        assert ver.yes and ver.pair == pair


def test_quasi_transitive_front_door_relabels():
    comp, u, v = tt3_middle(2)
    flat = comp.flatten()
    perm = [3, 0, 2, 1]  # old -> new label
    g = Digraph(flat.n, [(perm[a], perm[b]) for a, b in flat.arcs()])
    ver = decide(g, perm[u], perm[v], "qt")
    assert not ver.yes and ver.reason == "middle-blocked"
    assert ver.u == perm[u] and ver.v == perm[v]
    assert validate_verdict(g, ver) is None


def test_quasi_transitive_yes_pair_speaks_original_labels():
    g = random_quasi_transitive(12, 6)
    hits = 0
    for u in range(g.n):
        for v in range(g.n):
            ver = decide(g, u, v, "qt")
            assert ver.yes == (oracle_good_pair(g, u, v) is not None)
            assert validate_verdict(g, ver) is None
            hits += ver.yes
    assert hits  # sample admits at least one good pair


def test_quasi_transitive_rejects_other_digraphs():
    path = Digraph(3, [(0, 1), (1, 2)])  # 0,2 nonadjacent after a 2-path
    with pytest.raises(InvalidInput):
        decide(path, 0, 2, "qt")
    single = Digraph(1, [])
    ver = decide(single, 0, 0, "qt")
    assert ver.yes and validate_verdict(single, ver) is None


def test_condensed_route_for_non_strong_semicomplete_quotient():
    # quotient: a 3-cycle component over a sink vertex; not transitive,
    # semicomplete but not strong, so parts merge along its components
    q = Digraph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)])
    comp = Composition(q, (singleton(),) * 4)
    assert recognize(comp).route == "composition"
    ver = decide(comp, 0, 3)
    assert ver.yes and validate_verdict(comp, ver) is None
    assert oracle_good_pair(comp.flatten(), 0, 3) is not None
    # the transitive shapes are predicates on the flat digraph, so the
    # route is the non-strong quasi-transitive one on the same rows
    flat = comp.flatten()
    for u in range(4):
        for v in range(4):
            assert decide(comp, u, v) == decide(flat, u, v, "qt")


def test_dispatch_recognize_and_overrides():
    semi = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert recognize(semi).route == "semicomplete"
    qt = family_b(2, back_arc=False)[0].flatten()
    assert recognize(qt).route == "qt"
    comp, u, v = tt3_middle(2)
    assert recognize(comp).route == "transitive"
    with pytest.raises(InvalidInput):
        recognize(Digraph(4, [(0, 1), (1, 2), (2, 3)]))
    with pytest.raises(InvalidInput):
        decide(semi, 0, 1, klass="composition")
    with pytest.raises(InvalidInput):
        decide(qt, 0, 1, klass="semicomplete")
    ver = decide(comp, u, v, klass="transitive")
    assert ver.reason == "middle-blocked"


def decide_by_decomposition(g, dec, u, v):
    """The verdict of the decomposition route: qt_decompose, then the
    route its kind names, with a NO mapped back by translate_verdict and
    a YES pair relabelled.  decide builds a YES pair on g's own rows
    instead, so the pair may differ."""
    order = dec.order
    inv = [0] * g.n
    for new, old in enumerate(order):
        inv[old] = new
    klass = "composition" if dec.kind == "strong" else "transitive"
    inner = decide(dec.composition, inv[u], inv[v], klass)
    if not inner.yes:
        return translate_verdict(order, inner, u, v)

    def relabel(b):
        arcs = tuple((order[x], order[y]) for x, y in b.arcs)
        return Branching(order[b.root], arcs, b.kind)

    out, inn = inner.pair.out_branching, inner.pair.in_branching
    pair = BranchingPair(relabel(out), relabel(inn))
    return Verdict(yes=True, u=u, v=v, reason=YES, pair=pair)


def _root_check_samples():
    for seed in range(60):
        yield random_quasi_transitive(seed, 8 + seed * 32 // 59)
    yield from all_quasi_transitive(4)


def test_root_check_agrees_with_the_decomposition_route():
    starved = 0
    for g in _root_check_samples():
        dec = qt_decompose(g)
        for u in range(g.n):
            for v in range(g.n):
                ver = decide(g, u, v, "qt")
                want = decide_by_decomposition(g, dec, u, v)
                # a YES pair may differ: the greedy runs on g's own rows
                assert without_pair(ver) == without_pair(want), (g, u, v)
                assert validate_verdict(g, ver) is None
                starved += ver.reason == "root-component"
    assert starved


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Digraph(g.n, [(perm[a], perm[b]) for a, b in g.arcs()])


def _composed_quasi_transitive(rng, n, strong):
    """A strong quasi-transitive digraph on n >= 2 vertices, random
    quasi-transitive parts over a random strong tournament (a 2-cycle in
    the quotient would need the parts on it to be semicomplete); or a
    non-strong one, strong end parts and independent or random middle
    parts over a transitive tournament, so that most roots span."""
    if n == 1:
        return singleton()
    if n == 2 and strong:
        return Digraph(2, [(0, 1), (1, 0)])
    s = rng.randint(3 if strong else 2, min(5, n))
    cut = sorted(rng.sample(range(1, n), s - 1))
    sizes = [b - a for a, b in zip([0] + cut, cut + [n])]
    if strong:
        quotient = random_strong_semicomplete(rng, s, 0.0)
        parts = [random_quasi_transitive(rng.randrange(1 << 30), k) for k in sizes]
    else:
        quotient = transitive_tournament(s)
        parts = [
            independent(k)
            if rng.random() < 0.3
            else random_quasi_transitive(rng.randrange(1 << 30), k)
            for k in sizes
        ]
        parts[0] = _composed_quasi_transitive(rng, sizes[0], True)
        parts[-1] = _composed_quasi_transitive(rng, sizes[-1], True)
    return Composition(quotient, tuple(parts)).flatten()


def _front_door_samples():
    """Seeded random quasi-transitive digraphs n 2..60 under a random
    numbering, so that the parts are scattered: at each n one of
    `random_quasi_transitive`, one strong and one non-strong with a
    single initial and terminal part."""
    rng = random.Random("qt-front-door")
    for n in range(2, 61):
        yield _relabelled(random_quasi_transitive(rng.randrange(1 << 30), n), rng)
        for strong in (True, False):
            yield _relabelled(_composed_quasi_transitive(rng, n, strong), rng)


def test_front_door_agrees_with_the_decomposition_route_at_spanning_roots():
    # the decomposition route gives the same answer, reason and evidence;
    # a YES pair may differ, since the front door's greedy runs on the
    # input's own rows, so each one is validated instead
    rng = random.Random("qt-front-door/roots")
    seen = {}
    for g in _front_door_samples():
        full = g.full_mask
        dec = qt_decompose(g)
        sources = [u for u in range(g.n) if reach_mask(g, 1 << u) == full]
        sinks = [v for v in range(g.n) if coreach_mask(g, 1 << v) == full]
        roots = [(u, v) for u in sources for v in sinks]
        for u, v in rng.sample(roots, min(len(roots), 12)):
            ver = decide(g, u, v, "qt")
            want = decide_by_decomposition(g, dec, u, v)
            assert without_pair(ver) == without_pair(want), (g, u, v)
            if ver.yes:
                assert validate_verdict(g, ver) is None
            key = (dec.kind, ver.yes)
            seen[key] = seen.get(key, 0) + 1
    # non-strong NOs at spanning roots are rare at random; the
    # exhaustive n = 4 sweep above and the shapes below decide them
    assert seen.get(("strong", False), 0) > 50
    assert seen[("strong", True)] > 500 and seen[("non-strong", True)] > 500


# (arcs, u, v): a greedy miss on each route, and a starved degree
GREEDY_MISS_YES_NON_STRONG = ([(0, 2), (1, 0), (1, 2), (2, 0)], 1, 2)
GREEDY_MISS_YES_STRONG = ([(0, 2), (1, 0), (1, 2), (2, 0), (2, 1)], 1, 2)
GREEDY_MISS_NO_NON_STRONG = ([(1, 0), (2, 0), (2, 1)], 2, 0)
GREEDY_MISS_NO_STRONG = ([(0, 2), (1, 0), (2, 1)], 0, 0)
DEGREE_NON_STRONG = ([(0, 1)], 0, 1)
DEGREE_STRONG = ([(0, 2), (1, 0), (2, 1)], 0, 1)


def _front_door_case(case):
    arcs, u, v = case
    g = Digraph(max(max(a) for a in arcs) + 1, arcs)
    return g, qt_decompose(g), u, v


@pytest.mark.parametrize(
    "case, kind, reason",
    [
        (GREEDY_MISS_YES_NON_STRONG, "non-strong", "good-pair"),
        (GREEDY_MISS_YES_STRONG, "strong", "good-pair"),
        (GREEDY_MISS_NO_NON_STRONG, "non-strong", "middle-blocked"),
        (GREEDY_MISS_NO_STRONG, "strong", "layered-a"),
    ],
)
def test_front_door_greedy_miss_runs_the_greedy_once(case, kind, reason, monkeypatch):
    g, dec, u, v = _front_door_case(case)
    assert dec.kind == kind and greedy_good_pair(g, u, v) is None
    want = decide_by_decomposition(g, dec, u, v)
    calls = count_greedy_calls(monkeypatch)
    ver = decide(g, u, v, "qt")
    # the front door's greedy on the input's own rows, and no other
    assert calls == [(u, v)]
    assert ver == want and ver.reason == reason
    assert validate_verdict(g, ver) is None
    assert ver.yes == (oracle_good_pair(g, u, v) is not None)


@pytest.mark.parametrize(
    "case, kind", [(DEGREE_NON_STRONG, "non-strong"), (DEGREE_STRONG, "strong")]
)
def test_front_door_degree_no_runs_no_greedy(case, kind, monkeypatch):
    g, dec, u, v = _front_door_case(case)
    assert dec.kind == kind
    want = decide_by_decomposition(g, dec, u, v)
    calls = count_greedy_calls(monkeypatch)
    forbid(monkeypatch, dispatch, ("strong_qt_parts",))
    ver = decide(g, u, v, "qt")
    assert calls == [] and ver == want and ver.reason == "degree"
    assert validate_verdict(g, ver) is None


def test_front_door_greedy_hit_builds_no_composition(monkeypatch):
    # a greedy hit answers from the input's rows alone: no
    # decomposition, obstruction finder or verdict translation runs
    hits = []
    for g in _front_door_samples():
        if 20 <= g.n <= 23:
            kind = qt_decompose(g).kind
            for u in range(g.n):
                for v in range(g.n):
                    pair = greedy_good_pair(g, u, v)
                    if pair is not None:
                        hits.append((g, kind, u, v, pair))
    forbid(monkeypatch, dispatch, ("strong_qt_parts",))
    # dispatch imports the finders when a miss runs them, from their modules
    forbid(
        monkeypatch,
        transitive_engine,
        ("translate_verdict", "decide_transitive_composition"),
    )
    forbid(monkeypatch, composition_engine, ("decide_composition",))
    kinds = {"strong": 0, "non-strong": 0}
    for g, kind, u, v, pair in hits:
        ver = decide(g, u, v, "qt")
        assert ver.yes and ver.pair == pair, (g, u, v)
        kinds[kind] += 1
    assert kinds["strong"] > 100 and kinds["non-strong"] > 20


def _strong_samples():
    """The strong members of `all_quasi_transitive(4)`, then seeded
    strong quasi-transitive digraphs with n 6-9, six at each n."""
    for g in all_quasi_transitive(4):
        if is_strong(g):
            yield g
    rng = random.Random("qt-strong")
    for n in range(6, 10):
        for _ in range(6):
            yield _composed_quasi_transitive(rng, n, True)


def test_strong_verdicts_survive_relabelling():
    # the decomposition does not depend on the numbering, so neither may
    # the answer, its reason or its family; the evidence may move
    rng = random.Random("qt-strong/relabel")
    reasons = set()
    for g in _strong_samples():
        want = {(u, v): decide(g, u, v) for u in range(g.n) for v in range(g.n)}
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Digraph(g.n, [(perm[a], perm[b]) for a, b in g.arcs()])
            for (u, v), ver in want.items():
                got = decide(h, perm[u], perm[v])
                assert (got.reason, got.family) == (ver.reason, ver.family), (g, perm, u, v)
                assert validate_verdict(h, got) is None
                reasons.add(got.reason)
    assert {"known-family", "layered-a", "good-pair"} <= reasons


def _reaches_the_finder(g, u, v):
    full = g.full_mask
    return (
        reach_mask(g, 1 << u) == full
        and coreach_mask(g, 1 << v) == full
        and (u == v or (g.out_degree(u) >= 2 and g.in_degree(v) >= 2))
        and greedy_good_pair(g, u, v) is None
    )


def test_strong_greedy_miss_builds_no_renumbered_composition(monkeypatch):
    # a strong miss is decided on the input's own rows: nothing rebuilds
    # it as a composition or maps a verdict back, and the verdict is the
    # one the decomposition route gives
    misses = []
    for g in _strong_samples():
        if recognize(g).route != "qt":
            continue  # semicomplete: the semicomplete route
        dec = qt_decompose(g)
        for u in range(g.n):
            for v in range(g.n):
                if _reaches_the_finder(g, u, v):
                    misses.append((g, u, v, decide_by_decomposition(g, dec, u, v)))
    forbid(monkeypatch, composition, ("qt_decompose", "composition_from_partition"))
    forbid(monkeypatch, transitive_engine, ("translate_verdict",))
    reasons = set()
    for g, u, v, want in misses:
        ver = decide(g, u, v)
        assert without_pair(ver) == without_pair(want), (g, u, v)
        reasons.add(ver.reason)
    assert {"known-family", "layered-a", "good-pair"} <= reasons
