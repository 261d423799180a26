import random
from itertools import combinations, permutations, product

import pytest

from goodpairs import branchings, semicomplete, witnesses
from goodpairs.branchings import (
    Branching,
    BranchingPair,
    branching_violation,
    search_good_pair,
    verify_good_pair,
)
from goodpairs.digraph import (
    Digraph,
    bits,
    coreach_mask,
    is_strong,
    reach_mask,
)
from goodpairs.dispatch import blocked, decide
from goodpairs.errors import InternalInconsistency, InvalidInput, ResourceExceeded
from goodpairs.families import (
    all_digraphs,
    all_semicomplete,
    kind_a_instance,
    random_composition,
    random_quasi_transitive,
    random_semicomplete,
    random_strong_semicomplete,
    random_two_arc_strong_semicomplete,
    random_wide_composition,
)
from goodpairs.oracle import oracle_all_pairs, oracle_good_pair
from goodpairs.semicomplete import (
    EXCEPTION_PATTERNS,
    _obstruction_arc,
    construct_good_pair,
    match_small_exception,
    try_construct_pair,
)
from goodpairs.verdicts import validate_verdict
from goodpairs.witnesses import iter_type_a, iter_type_b
from test_branchings import _two_arc_strong_inputs, enumerated_pair, reference_bfs
from test_large_inputs import fixture_a
from test_witnesses import level_test_inputs


def all_tournaments(n):
    pairs = list(combinations(range(n), 2))
    for choice in product(range(2), repeat=len(pairs)):
        yield Digraph(
            n, [(a, b) if c == 0 else (b, a) for (a, b), c in zip(pairs, choice)]
        )


def five_level_chain():
    # five singleton levels, designated arcs (4,2),(3,1),(2,0), roots (3,1)
    up = [(0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (3, 4)]
    return Digraph(5, up + [(4, 2), (3, 1), (2, 0)])


def test_rejects_non_semicomplete():
    with pytest.raises(InvalidInput):
        decide(Digraph(3, [(0, 1), (1, 2)]), 0, 2, "semicomplete")
    with pytest.raises(InvalidInput):
        decide(Digraph(2, [(0, 1)]), 0, 2, "semicomplete")


def test_single_vertex_is_trivially_yes():
    ver = decide(Digraph(1, []), 0, 0, "semicomplete")
    assert ver.yes and validate_verdict(Digraph(1, []), ver) is None


def test_exception_patterns_match_at_pinned_roots_only():
    for name, (pattern, pu, pv) in EXCEPTION_PATTERNS.items():
        hit = match_small_exception(pattern, pu, pv)
        assert hit is not None and hit[0] == name
        ver = decide(pattern, pu, pv, "semicomplete")
        assert ver.reason == "small-exception" and ver.exception_id == name
        assert validate_verdict(pattern, ver) is None


def test_relabelled_exception_found():
    # [DERIVED] pattern "b" under the permutation 0->1, 1->2, 2->0
    g = Digraph(3, [(1, 2), (1, 0), (2, 0)])
    ver = decide(g, 1, 0, "semicomplete")
    assert ver.reason == "small-exception" and ver.exception_id == "b"
    assert ver.mapping == (1, 2, 0)


def _exception_images():
    """(n, arc set, u, v) -> (id, mapping) for the image of every
    exception under every bijection of its vertices, the first id in
    EXCEPTION_PATTERNS order where two images meet."""
    table = {}
    for name, (pattern, pu, pv) in EXCEPTION_PATTERNS.items():
        for m in permutations(range(pattern.n)):
            arcs = frozenset((m[a], m[b]) for a, b in pattern.arcs())
            table.setdefault((pattern.n, arcs, m[pu], m[pv]), (name, m))
    return table


_EXCEPTION_IMAGES = _exception_images()


def brute_exception_match(g, u, v):
    """The engine-free small-exception matcher: (id, mapping) if g with
    roots u, v is the image of an exception under some bijection, else
    None."""
    return _EXCEPTION_IMAGES.get((g.n, frozenset(g.arcs()), u, v))


def test_exceptions_have_no_root_fixing_automorphism():
    # so a placement that fits is the only one, and the matcher's try
    # order cannot change a mapping
    for name, (pattern, pu, pv) in EXCEPTION_PATTERNS.items():
        n, arcs = pattern.n, set(pattern.arcs())
        fixing = [
            m
            for m in permutations(range(n))
            if m[pu] == pu
            and m[pv] == pv
            and {(m[a], m[b]) for a, b in arcs} == arcs
        ]
        assert fixing == [tuple(range(n))], name


def test_exception_matcher_matches_every_bijection_exhaustively():
    # every digraph with n <= 4, every root pair, and its converse
    cases = hits = 0
    for n in range(1, 5):
        for g in all_digraphs(n):
            for h in (g, g.converse()):
                for u, v in product(range(n), repeat=2):
                    want = brute_exception_match(h, u, v)
                    assert match_small_exception(h, u, v) == want, (h, u, v)
                    cases += 1
                    hits += want is not None
    assert (cases, hits) == (132258, 172)


def test_arc_obstruction_on_two_cycle():
    g = Digraph(2, [(0, 1), (1, 0)])
    ver = decide(g, 0, 1, "semicomplete")
    assert ver.reason == "arc-obstruction" and ver.arc == (0, 1)
    assert validate_verdict(g, ver) is None


def test_layered_verdict_on_five_level_chain():
    g = five_level_chain()
    ver = decide(g, 3, 1, "semicomplete")
    assert ver.reason == "layered-a" and ver.witness.alpha == 2
    assert validate_verdict(g, ver) is None


def test_agrees_with_oracle_on_all_four_vertex_tournaments():
    # [DERIVED] full cross-check, YES pairs re-verified
    for g in all_tournaments(4):
        rows = oracle_all_pairs(g)
        for u in range(4):
            for v in range(4):
                ver = decide(g, u, v, "semicomplete")
                assert ver.yes == bool(rows[u] >> v & 1)
                if ver.yes:
                    assert verify_good_pair(g, u, v, ver.pair)


def rotational_tournament():
    # [DERIVED] the rotational five-vertex tournament is arc-three-strong
    # enough to admit pairs at every root choice
    return Digraph(
        5,
        [(i, (i + 1) % 5) for i in range(5)] + [(i, (i + 2) % 5) for i in range(5)],
    )


def greedy_miss_yes():
    """The first 4-vertex semicomplete (g, u, v) with a good pair that the
    greedy does not build."""
    return next(
        (g, u, v)
        for g in all_semicomplete(4)
        for u in range(4)
        for v in range(4)
        if semicomplete.greedy_good_pair(g, u, v) is None
        and oracle_good_pair(g, u, v) is not None
    )


def greedy_hits(g) -> dict:
    """{(u, v): the verified greedy pair} at every root pair of g where
    the greedy builds one."""
    hits = {}
    for u in range(g.n):
        for v in range(g.n):
            pair = semicomplete.greedy_good_pair(g, u, v)
            if pair is not None:
                hits[u, v] = pair
    return hits


def forbid(monkeypatch, module, names) -> None:
    """Make each named function of module fail the test if called."""

    def unreachable(*args, **kwargs):
        raise AssertionError("ran after the greedy pair verified")

    for name in names:
        monkeypatch.setattr(module, name, unreachable)


def count_greedy_calls(monkeypatch) -> list:
    """Record the roots of every `try_construct_pair` call from now on."""
    calls = []
    real = semicomplete.try_construct_pair

    def counted(g, u, v):
        calls.append((u, v))
        return real(g, u, v)

    monkeypatch.setattr(semicomplete, "try_construct_pair", counted)
    return calls


def test_construct_good_pair_on_strong_tournaments():
    g = rotational_tournament()
    for u in range(5):
        for v in range(5):
            pair = construct_good_pair(g, u, v)
            assert verify_good_pair(g, u, v, pair)


def test_search_budget_overrun_names_budget_and_size(monkeypatch):
    g, u, v = greedy_miss_yes()
    assert construct_good_pair(g, u, v) == oracle_good_pair(g, u, v)
    monkeypatch.setattr(branchings, "SEARCH_BUDGET", 1)
    with pytest.raises(ResourceExceeded, match=r"budget of 1 nodes .* n=4$"):
        construct_good_pair(g, u, v)


def test_construct_good_pair_verifies_the_search_pair(monkeypatch):
    # callers take the pair as verified, so a search pair that is not a
    # good pair (here both trees use (0,1)) must not come back
    g = Digraph(3, [(a, b) for a in range(3) for b in range(3) if a != b])
    bad = BranchingPair(
        Branching(0, ((0, 1), (0, 2)), "out"), Branching(1, ((0, 1), (2, 1)), "in")
    )
    monkeypatch.setattr(semicomplete, "try_construct_pair", lambda g, u, v: None)
    monkeypatch.setattr(semicomplete, "search_good_pair", lambda g, u, v: bad)
    with pytest.raises(InternalInconsistency, match="failed verification"):
        construct_good_pair(g, 0, 1)


def test_verified_greedy_pair_answers_before_any_obstruction_test(monkeypatch):
    # a pair that verifies is a whole YES certificate: no obstruction
    # layer and no search may run once the greedy has built one
    g = rotational_tournament()
    want = greedy_hits(g)
    assert len(want) == 20  # the greedy misses 5 of the 25 root pairs
    forbid(
        monkeypatch,
        semicomplete,
        (
            "match_small_exception",
            "_obstruction_arc",
            "searched_good_pair",
            "search_good_pair",
        ),
    )
    # the finder imports iter_type_a when it runs, from its own module
    forbid(monkeypatch, witnesses, ("iter_type_a",))
    for (u, v), pair in want.items():
        ver = decide(g, u, v, "semicomplete")
        assert ver.yes and ver.pair == pair


# Out-rows of a 9-vertex tournament on which the complete search backs
# out of 140 include branches at roots (8, 0); no other measured search
# backs out of more than 3.
BACKTRACKING_TOURNAMENT = (
    (3, 4, 5, 6),
    (0, 2, 3, 4, 5, 6, 8),
    (0, 3, 4, 5, 6, 7, 8),
    (4, 5),
    (6, 7),
    (4, 8),
    (3, 5, 8),
    (0, 1, 3, 5, 6, 8),
    (0, 3, 4),
)


def test_backtracking_tournament_is_a_greedy_miss_that_the_search_builds():
    g = _rows_digraph(BACKTRACKING_TOURNAMENT)
    pairs = combinations(range(g.n), 2)
    assert all(g.has_arc(a, b) != g.has_arc(b, a) for a, b in pairs)  # a tournament
    u, v = 8, 0
    assert semicomplete.greedy_good_pair(g, u, v) is None
    assert blocked(g, u, v) is None
    ver = decide(g, u, v)
    assert ver.yes and verify_good_pair(g, u, v, ver.pair)
    assert oracle_good_pair(g, u, v) is not None


# Out-rows of a 9-vertex semicomplete digraph, found by hill-climbing on
# the search's work, on which the greedy misses at roots (3, 4) and the
# pruned search takes 9639 nodes to build the oracle's pair.
HUNTED_SEMICOMPLETE = (
    (1, 2, 3, 4, 5, 6, 7, 8),
    (2, 3, 6, 7, 8),
    (1, 3, 6, 7, 8),
    (4, 6, 7, 8),
    (1, 2, 3, 6, 7, 8),
    (0, 1, 2, 3, 4, 6, 7, 8),
    (1, 2, 7, 8),
    (1, 2, 5, 6),
    (1, 6, 7),
)


def tight_layered_yes(seed):
    """(g, u, v): the `layered-no` benchmark's construction (a planted
    five-level kind-A witness in a semicomplete host) with n fixed at 48,
    then one one-way arc, drawn by the same generator, reversed."""
    rng = random.Random(seed)
    n = 48
    sizes = [1] * 5
    for _ in range(n - 5):
        sizes[rng.randrange(5)] += 1
    levels, base = [], 0
    for size in sizes:
        levels.append(list(range(base, base + size)))
        base += size
    x_of = {i: levels[5 - i][-1] for i in range(1, 4)}
    y_of = {i: levels[3 - i][0] for i in range(1, 4)}
    backward = [(x_of[i], y_of[i]) for i in range(1, 4)]
    designated = {frozenset(a) for a in backward}
    arcs = [
        (a, b)
        for lo in range(5)
        for hi in range(lo + 1, 5)
        for a in levels[lo]
        for b in levels[hi]
        if frozenset((a, b)) not in designated
    ]
    for x, y in backward:
        arcs.append((x, y))
        if rng.random() < 0.3:
            arcs.append((y, x))
    for li, ids in enumerate(levels):
        first, last = y_of.get(3 - li), x_of.get(5 - li)
        middle = [w for w in ids if w not in (first, last)]
        rng.shuffle(middle)
        order = [w for w in (first,) if w is not None] + middle
        if last is not None and last != first:
            order.append(last)
        arcs.extend((a, b) for j, a in enumerate(order) for b in order[j + 1 :])
    g = Digraph(n, arcs)
    while True:
        u, v = rng.choice(levels[3]), rng.choice(levels[1])
        if g.out_degree(u) >= 2 and g.in_degree(v) >= 2:
            break
    a, b = rng.choice([(a, b) for a, b in g.arcs() if not g.has_arc(b, a)])
    return g.without_arcs([(a, b)]).with_arcs([(b, a)]), u, v


def _rows_digraph(rows):
    return Digraph(len(rows), [(a, b) for a, heads in enumerate(rows) for b in heads])


@pytest.mark.parametrize(
    "rows, u, v, nodes",
    [(HUNTED_SEMICOMPLETE, 3, 4, 9639), (BACKTRACKING_TOURNAMENT, 8, 0, 289)],
    ids=["hunted", "backtracking"],
)
def test_search_node_count_is_pinned(monkeypatch, rows, u, v, nodes):
    g = _rows_digraph(rows)
    assert semicomplete.greedy_good_pair(g, u, v) is None
    assert blocked(g, u, v) is None
    monkeypatch.setattr(branchings, "SEARCH_BUDGET", nodes - 1)
    with pytest.raises(ResourceExceeded, match=f"budget of {nodes - 1} nodes"):
        search_good_pair(g, u, v)
    monkeypatch.setattr(branchings, "SEARCH_BUDGET", nodes)
    pair = search_good_pair(g, u, v)
    assert pair is not None and pair == oracle_good_pair(g, u, v)


def test_search_builds_a_tight_layered_yes_at_n_48_in_50_nodes(monkeypatch):
    g, u, v = tight_layered_yes(5800)
    assert (g.n, u, v) == (48, 34, 15)
    assert all(g.has_arc(a, b) or g.has_arc(b, a) for a, b in combinations(range(48), 2))
    assert semicomplete.greedy_good_pair(g, u, v) is None
    assert blocked(g, u, v) is None
    monkeypatch.setattr(branchings, "SEARCH_BUDGET", 49)
    with pytest.raises(ResourceExceeded, match="budget of 49 nodes .* n=48$"):
        search_good_pair(g, u, v)
    monkeypatch.setattr(branchings, "SEARCH_BUDGET", 50)
    pair = search_good_pair(g, u, v)
    assert pair is not None and verify_good_pair(g, u, v, pair)
    ver = decide(g, u, v)
    assert ver.yes and ver.pair == pair and validate_verdict(g, ver) is None


def test_greedy_miss_runs_the_obstructions_then_the_search_once(monkeypatch):
    g, u, v = greedy_miss_yes()
    calls = count_greedy_calls(monkeypatch)
    ver = decide(g, u, v, "semicomplete")
    assert ver.yes and ver.pair == search_good_pair(g, u, v)
    assert ver.pair == construct_good_pair(g, u, v)
    assert validate_verdict(g, ver) is None
    # the greedy ran once for the decision, once more for the comparison
    assert calls == [(u, v)] * 2


def test_funnel_structure_and_pair():
    # [DERIVED] strong tournament where every (0,0) pair is blocked: the
    # out-side ends and the in-side starts share the single bridge arc
    g = Digraph(4, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 1), (2, 3)])
    assert not decide(g, 0, 0, "semicomplete").yes


def test_almost_good_pair_kind_a_each_shared_arc():
    g = five_level_chain()
    wit = [w for w in iter_type_a(g, 3, 1) if w.alpha == 2]
    assert wit
    for w in wit[:1]:
        for r in range(len(w.backward_arcs)):
            shared = frozenset({w.backward_arcs[r]})
            pair = enumerated_pair(g, w.a, w.b, shared)
            assert pair is not None and pair.shared_arcs == shared
            assert branching_violation(g, pair.out_branching) is None
            assert branching_violation(g, pair.in_branching) is None


def test_almost_good_pair_kind_b_shares_backward_set():
    g = Digraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 0)])
    for w in iter_type_b(g, 3, 0):
        shared = frozenset(w.backward_arcs)
        pair = enumerated_pair(g, w.a, w.b, shared)
        assert pair is not None and pair.shared_arcs == shared
        assert branching_violation(g, pair.out_branching) is None
        assert branching_violation(g, pair.in_branching) is None


def _first_obstruction_arcs(g):
    """Full m-arc scan for every root pair at once: the first arc of
    g.arcs() whose removal cuts both reach from u and reach to v."""
    n, full = g.n, g.full_mask
    first = {}
    for a, b in g.arcs():
        reach = [g.out_masks[x] | 1 << x for x in range(n)]
        reach[a] = g.out_masks[a] & ~(1 << b) | 1 << a
        for k in range(n):
            for x in range(n):
                if reach[x] >> k & 1:
                    reach[x] |= reach[k]
        cut_from = [x for x in range(n) if reach[x] != full]
        cut_to = full
        for r in reach:
            cut_to &= r
        for u in cut_from:
            for v in range(n):
                if not cut_to >> v & 1:
                    first.setdefault((u, v), (a, b))
    return first


def _assert_tree_scan_matches_full_scan(g):
    first = _first_obstruction_arcs(g)
    for u in range(g.n):
        for v in range(g.n):
            assert _obstruction_arc(g, u, v) == first.get((u, v)), (g, u, v)
    return len(first)


def test_tree_scan_finds_the_full_scans_first_arc_exhaustively():
    graphs = 0
    obstructed = 0
    for n in range(2, 6):
        for g in all_semicomplete(n):
            if is_strong(g):
                graphs += 1
                obstructed += _assert_tree_scan_matches_full_scan(g)
    assert graphs > 50000 and obstructed > 0


def _near_transitive_tournament(rng, n):
    # random tournaments are nearly always 2-arc-strong; reversing a few
    # arcs of a transitive one leaves arcs whose removal cuts reachability
    pairs = list(combinations(range(n), 2))
    while True:
        flipped = set(rng.sample(pairs, rng.randint(n // 4, n)))
        g = Digraph(n, [(b, a) if (a, b) in flipped else (a, b) for a, b in pairs])
        if is_strong(g):
            return g


def test_tree_scan_finds_the_full_scans_first_arc_on_random_graphs():
    obstructed = 0
    for n in range(7, 41, 3):
        rng = random.Random(f"tree-scan/{n}")
        for g in (
            random_strong_semicomplete(rng, n, 0.0),
            random_strong_semicomplete(rng, n, 0.25),
            _near_transitive_tournament(rng, n),
        ):
            obstructed += _assert_tree_scan_matches_full_scan(g) > 0
    assert obstructed >= 10


def _tree_scan_obstruction_arc(g, u, v):
    """The arc scan before the level test: every arc of both BFS trees,
    in sorted order, checked by a reach and a coreach."""
    full = g.full_mask
    tree_arcs = set(branchings.find_branching(g, u, "out").arcs)
    tree_arcs &= set(branchings.find_branching(g, v, "in").arcs)
    for e in sorted(tree_arcs):
        rest = g.without_arcs({e})
        if reach_mask(rest, 1 << u) != full and coreach_mask(rest, 1 << v) != full:
            return e
    return None


def test_level_scan_finds_the_tree_scans_first_arc():
    # the witness-bearing hosts of the enumeration test, then strong
    # near-transitive tournaments, whose arcs often do cut; every root
    # pair at which both roots span
    rng = random.Random("level-scan")
    graphs = [g for g, _ in level_test_inputs()]
    graphs += [_near_transitive_tournament(rng, n) for n in range(10, 31)]
    cases = found = 0
    for g in graphs:
        full = g.full_mask
        for u, v in product(range(g.n), repeat=2):
            if reach_mask(g, 1 << u) != full or coreach_mask(g, 1 << v) != full:
                continue
            want = _tree_scan_obstruction_arc(g, u, v)
            assert _obstruction_arc(g, u, v) == want, (g, u, v)
            cases += 1
            found += want is not None
    assert cases > 30000 and found > 3500


def _one_shot_pair(g, u, v):
    """The greedy's two one-shot BFS attempts, as in `try_construct_pair`."""
    in_first = branchings.find_branching(g, v, "in")
    if in_first is not None:
        out = branchings.find_branching(g.without_arcs(in_first.arc_set), u, "out")
        if out is not None:
            return BranchingPair(out, in_first)
    out_first = branchings.find_branching(g, u, "out")
    if out_first is not None:
        inn = branchings.find_branching(g.without_arcs(out_first.arc_set), v, "in")
        if inn is not None:
            return BranchingPair(out_first, inn)
    return None


def _try_construct_pair_by_full_coreach(g, u, v):
    """The greedy with its guarded growth testing every frontier arc by a
    full coreach from v; also says whether the growth ran."""
    full = g.full_mask
    pair = _one_shot_pair(g, u, v)
    if pair is not None:
        return pair, False
    tree = 1 << u
    arcs = []
    chosen = set()
    while tree != full:
        picked = None
        for x in bits(tree):
            for y in bits(g.out_masks[x] & ~tree):
                chosen.add((x, y))
                ok = coreach_mask(g.without_arcs(chosen), 1 << v) == full
                chosen.remove((x, y))
                if ok:
                    picked = (x, y)
                    break
            if picked:
                break
        if picked is None:
            return None, True
        chosen.add(picked)
        arcs.append(picked)
        tree |= 1 << picked[1]
    inn = branchings.find_branching(g.without_arcs(chosen), v, "in")
    if inn is None:
        return None, True
    return BranchingPair(Branching(u, tuple(arcs), "out"), inn), True


def _quasi_transitive_inputs():
    """(digraph, root pairs): seeded quasi-transitive digraphs, n 12-60,
    the first 20 with spanning roots (u reaches every vertex and every
    vertex reaches v), at up to 12 of those root pairs each.  Here the
    greedy's cut test really cuts: most level-test candidates are cuts."""
    rng = random.Random("quasi-transitive-greedy")
    inputs = []
    seed = 0
    while len(inputs) < 20:
        g = random_quasi_transitive(seed, rng.randint(12, 60))
        seed += 1
        full = g.full_mask
        outs = [x for x in range(g.n) if reach_mask(g, 1 << x) == full]
        ins = [x for x in range(g.n) if coreach_mask(g, 1 << x) == full]
        roots = list(product(outs, ins))
        if roots:
            inputs.append((g, rng.sample(roots, min(12, len(roots)))))
    return inputs


def _assert_greedy_matches_full_coreach(g, roots):
    grown = 0
    for u, v in roots:
        want, grew = _try_construct_pair_by_full_coreach(g, u, v)
        assert try_construct_pair(g, u, v) == want, (g, u, v)
        grown += grew and want is not None
    return grown


def test_guarded_growth_matches_full_coreach_exhaustively():
    grown = 0
    for n in range(1, 5):
        roots = list(product(range(n), repeat=2))
        for g in all_semicomplete(n):
            grown += _assert_greedy_matches_full_coreach(g, roots)
    assert grown > 3000


def test_guarded_growth_matches_full_coreach_on_random_graphs():
    grown = 0
    for n in range(5, 31):
        rng = random.Random(f"guarded-growth/{n}")
        roots = rng.sample(list(product(range(n), repeat=2)), 8)
        for g in (
            random_strong_semicomplete(rng, n, 0.0),
            random_strong_semicomplete(rng, n, 0.25),
            _near_transitive_tournament(rng, n),
        ):
            grown += _assert_greedy_matches_full_coreach(g, roots)
    assert grown > 300
    grown = 0
    for g, roots in _quasi_transitive_inputs():
        grown += _assert_greedy_matches_full_coreach(g, roots)
    assert grown > 100


def _try_construct_pair_by_sets(g, u, v):
    """The greedy on arc sets: v's BFS in-tree rebuilt at every growth
    step with the chosen arcs banned, each tree-arc candidate tested by a
    coreach banning a fresh `chosen | {(x, y)}`."""
    full = g.full_mask
    pair = _one_shot_pair(g, u, v)
    if pair is not None:
        return pair, False
    tree = 1 << u
    arcs = []
    chosen = set()
    while tree != full:
        in_tree = branchings.find_branching(g.without_arcs(chosen), v, "in")
        if in_tree is None:
            return None, True
        in_arcs = in_tree.arc_set
        picked = None
        for x in bits(tree):
            for y in bits(g.out_masks[x] & ~tree):
                if (x, y) not in in_arcs or coreach_mask(
                    g.without_arcs(chosen | {(x, y)}), 1 << v
                ) == full:
                    picked = (x, y)
                    break
            if picked:
                break
        if picked is None:
            return None, True
        chosen.add(picked)
        arcs.append(picked)
        tree |= 1 << picked[1]
    inn = branchings.find_branching(g.without_arcs(chosen), v, "in")
    if inn is None:
        return None, True
    return BranchingPair(Branching(u, tuple(arcs), "out"), inn), True


def _reference_find_branching(g, root, kind, banned=None):
    seen, arcs, _ = reference_bfs(g, root, kind, banned=banned)
    return Branching(root, tuple(arcs), kind) if seen == g.full_mask else None


def reference_try_construct_pair(g, u, v):
    """`try_construct_pair` on arc sets, as it was before the parent rows:
    the trees are `reference_bfs` arc sets, the first attempt bans the
    in-tree's set, and the growth tests tree membership by set lookup."""
    full = g.full_mask
    spanned, in_tree, upto = reference_bfs(g, v, "in")
    if spanned == full:
        out = _reference_find_branching(g, u, "out", banned=in_tree)
        if out is not None:
            return BranchingPair(out, Branching(v, tuple(in_tree), "in"))
    out_first = _reference_find_branching(g, u, "out")
    if out_first is not None:
        inn = _reference_find_branching(g, v, "in", banned=out_first.arc_set)
        if inn is not None:
            return BranchingPair(out_first, inn)
    if spanned != full:
        return None
    res = Digraph.from_rows(g.out_masks[:], g.in_masks[:])
    tree = 1 << u
    arcs = []
    while tree != full:
        picked = None
        for x in bits(tree):
            for y in bits(res.out_masks[x] & ~tree):
                if (x, y) in in_tree and branchings._may_cut(res, "in", upto, (x, y)):
                    res.in_masks[y] ^= 1 << x
                    cut = coreach_mask(res, 1 << v) != full
                    res.in_masks[y] ^= 1 << x
                    if cut:
                        continue
                picked = (x, y)
                break
            if picked:
                break
        if picked is None:
            return None
        x, y = picked
        res.out_masks[x] ^= 1 << y
        res.in_masks[y] ^= 1 << x
        arcs.append(picked)
        tree |= 1 << y
        if picked in in_tree:
            _, in_tree, upto = reference_bfs(res, v, "in")
    return BranchingPair(
        Branching(u, tuple(arcs), "out"), Branching(v, tuple(in_tree), "in")
    )


def test_parent_row_greedy_matches_the_arc_set_reference(monkeypatch):
    # every root pair of random semicomplete digraphs, strong or not, and
    # of the 2-arc-strong test's inputs (dense and sparse digraphs with
    # and without 2-cycles, flattened compositions), then the
    # quasi-transitive inputs
    rng = random.Random("parent-row-greedy")
    graphs = []
    for n in range(3, 21):
        graphs += [random_strong_semicomplete(rng, n, p) for p in (0.0, 0.25)]
        graphs.append(random_semicomplete(rng, n, 0.1))
        if n >= 4:
            graphs.append(_near_transitive_tournament(rng, n))
    graphs += _two_arc_strong_inputs()
    cases = built = 0
    for g in graphs:
        for u, v in product(range(g.n), repeat=2):
            want = reference_try_construct_pair(g, u, v)
            assert try_construct_pair(g, u, v) == want, (g, u, v)
            cases += 1
            built += want is not None
    assert cases > 75000 and built > 45000
    inputs = _quasi_transitive_inputs()
    # the reference's only coreach is its cut test: count the cuts it finds
    coreach, cuts = coreach_mask, 0

    def counted(g, start):
        nonlocal cuts
        mask = coreach(g, start)
        cuts += mask != g.full_mask
        return mask

    monkeypatch.setitem(globals(), "coreach_mask", counted)
    cases = built = 0
    for g, roots in inputs:
        for u, v in roots:
            want = reference_try_construct_pair(g, u, v)
            assert try_construct_pair(g, u, v) == want, (g, u, v)
            cases += 1
            built += want is not None
    assert cases > 100 and built > 100 and cuts > 100


def _large_growth_inputs():
    """(digraph, root pairs): seeded strong semicomplete digraphs, with
    and without 2-cycles, and strong near-transitive tournaments at n
    40-120, at eight sampled root pairs each.  Here the greedy takes a
    tree arc at almost every step, and its tail almost always has another
    out-neighbour one level nearer v.  The quasi-transitive inputs meet
    the same reference in the parent-row greedy test."""
    rng = random.Random("re-pointed-growth")
    for n in range(40, 121, 10):
        for g in (
            random_strong_semicomplete(rng, n, 0.0),
            random_strong_semicomplete(rng, n, 0.25),
            _near_transitive_tournament(rng, n),
        ):
            yield g, [(rng.randrange(n), rng.randrange(n)) for _ in range(8)]


def _count_bfs(monkeypatch) -> tuple[list[int], list[int]]:
    """Counters of the greedy's `_bfs` calls and of the reference's
    `reference_bfs` calls, each in its one cell."""
    greedy, reference = [0], [0]

    def counting(bfs, calls):
        def counted(*args, **kwargs):
            calls[0] += 1
            return bfs(*args, **kwargs)

        return counted

    monkeypatch.setattr(semicomplete, "_bfs", counting(semicomplete._bfs, greedy))
    monkeypatch.setitem(globals(), "reference_bfs", counting(reference_bfs, reference))
    return greedy, reference


def test_re_pointed_growth_matches_the_rebuilding_reference_at_large_n(monkeypatch):
    # the reference rebuilds v's in-tree at every tree arc it takes; the
    # greedy re-points it and must build the same pairs with far fewer
    # BFS calls
    greedy, reference = _count_bfs(monkeypatch)
    cases = built = 0
    for g, roots in _large_growth_inputs():
        for u, v in roots:
            want = reference_try_construct_pair(g, u, v)
            assert try_construct_pair(g, u, v) == want, (g, u, v)
            cases += 1
            built += want is not None
    assert cases == 216 and built > 200
    assert reference[0] > 4 * greedy[0], (reference, greedy)


def test_greedy_rebuilds_the_in_tree_only_when_it_cannot_re_point(monkeypatch):
    # the 96-vertex document of `goodpairs gen --family two-arc-strong
    # --n 96 --seed 1` at roots v3, v17, then seeded tournaments at n 48
    # and 96, as (reference, greedy) BFS calls.  On the document the
    # reference makes 39: v's in-tree, three for the whole-tree attempts
    # it runs at every root pair, and 35 rebuilds, one per tree arc its
    # growth takes.  The greedy makes 4: the first in-tree, two rebuilds,
    # where a taken tree arc's tail had no other out-neighbour one level
    # nearer v, and one BFS at the end, since it re-pointed the tree
    # after its last rebuild.
    cases = [(random_two_arc_strong_semicomplete(1, 96), 3, 17)]
    rng = random.Random("greedy-bfs-count")
    for n in (48, 96):
        for _ in range(3):
            g = random_strong_semicomplete(rng, n, 0.0)
            cases.append((g, rng.randrange(n), rng.randrange(n)))
    greedy, reference = _count_bfs(monkeypatch)
    counts = []
    for g, u, v in cases:
        greedy[0] = reference[0] = 0
        want = reference_try_construct_pair(g, u, v)
        assert try_construct_pair(g, u, v) == want, (g, u, v)
        assert verify_good_pair(g, u, v, want), (g, u, v)
        counts.append((reference[0], greedy[0]))
    assert counts == [(39, 4), (14, 3), (18, 2), (6, 3), (15, 3), (13, 4), (12, 3)]


def test_greedy_leaves_the_digraph_rows_unchanged():
    # the growth edits copies of the rows and its own successor row
    rng = random.Random("greedy-rows")
    graphs = [random_two_arc_strong_semicomplete(1, 96)]
    graphs += [random_strong_semicomplete(rng, n, 0.25) for n in (20, 60)]
    graphs += [g for g, _ in _quasi_transitive_inputs()[:5]]
    for g in graphs:
        out_rows, in_rows = list(g.out_masks), list(g.in_masks)
        for u, v in [(0, 0), (0, g.n - 1), (g.n - 1, 0), (g.n // 2, 1)]:
            try_construct_pair(g, u, v)
            assert g.out_masks == out_rows and g.in_masks == in_rows, (g, u, v)


def reference_try_construct_pair_with_both_attempts(g, u, v):
    """`try_construct_pair` as it was when its two whole-tree attempts ran
    at every root pair, u != v included."""
    full = g.full_mask
    spanned, succ, upto = branchings._bfs(g, v, "in")
    if spanned != full:
        return None
    ban = [1 << s if s >= 0 else 0 for s in succ]
    covered, parent, _ = branchings._bfs(g, u, ban=ban)
    inn = succ
    if covered != full:
        covered, parent, _ = branchings._bfs(g, u)
        if covered == full:
            ban = [1 << p if p >= 0 else 0 for p in parent]
            covered, inn, _ = branchings._bfs(g, v, "in", ban=ban)
    if covered == full:
        return BranchingPair(
            Branching(u, tuple(branchings._tree_arcs(parent)), "out"),
            Branching(v, tuple(branchings._tree_arcs(inn, "in")), "in"),
        )
    out_rows, in_rows = g.out_masks[:], g.in_masks[:]
    res = Digraph.from_rows(out_rows, in_rows)
    tree = 1 << u
    arcs = []
    while tree != full:
        for x in bits(tree):
            cand = out_rows[x] & ~tree
            if not cand:
                continue
            y = (cand & -cand).bit_length() - 1
            if succ[x] == y and not out_rows[x] & upto[x] & ~(1 << y):
                in_rows[y] ^= 1 << x
                cut = coreach_mask(res, 1 << v) != full
                in_rows[y] ^= 1 << x
                if cut:
                    cand ^= 1 << y
                    if not cand:
                        continue
                    y = (cand & -cand).bit_length() - 1
            break
        else:
            return None
        out_rows[x] ^= 1 << y
        in_rows[y] ^= 1 << x
        arcs.append((x, y))
        tree |= 1 << y
        if succ[x] == y:
            _, succ, upto = branchings._bfs(res, v, "in")
    return BranchingPair(
        Branching(u, tuple(arcs), "out"),
        Branching(v, tuple(branchings._tree_arcs(succ, "in")), "in"),
    )


def _random_digraphs(rng):
    """Seeded digraphs n 2..9 at several arc densities, 2-cycles allowed."""
    for n in range(2, 10):
        for p in (0.2, 0.35, 0.5, 0.7):
            for _ in range(12):
                arcs = [
                    (a, b)
                    for a in range(n)
                    for b in range(n)
                    if a != b and rng.random() < p
                ]
                yield Digraph(n, arcs)


def test_whole_tree_attempts_run_only_for_equal_roots():
    # for u != v the attempts cannot span, so leaving them out changes no
    # pair; u == v keeps them and must agree too
    rng = random.Random("whole-tree-attempts")
    cases = spanning = same_root = 0
    for g in [*_random_digraphs(rng), *_two_arc_strong_inputs()]:
        full = g.full_mask
        for u, v in product(range(g.n), repeat=2):
            want = reference_try_construct_pair_with_both_attempts(g, u, v)
            assert try_construct_pair(g, u, v) == want, (g, u, v)
            cases += 1
            if reach_mask(g, 1 << u) == full and coreach_mask(g, 1 << v) == full:
                spanning += 1
                same_root += u == v and want is not None
    assert cases > 75000 and spanning > 50000 and same_root > 5000


def _growth_inputs():
    """(digraph, root pairs): digraphs like the five benchmark workloads'
    at a few sampled root pairs each, then every root pair of small
    strong and non-strong semicomplete digraphs and of flattened
    compositions, spanning roots or not."""
    rng = random.Random("row-growth")

    def sampled(g, *fixed):
        pairs = list(product(range(g.n), repeat=2))
        return g, list(fixed) + rng.sample(pairs, 6)

    g, u, v = fixture_a()
    yield g, [(u, v)]
    for i in range(12):
        n = rng.randint(13, 36)
        if i % 2:
            yield sampled(_near_transitive_tournament(rng, n))
        else:
            yield sampled(random_strong_semicomplete(rng, n, 0.25 if i % 4 else 0.0))
    for seed in range(12):
        g, w = kind_a_instance(seed)
        yield sampled(g, (w.a, w.b))
        yield sampled(random_quasi_transitive(seed, rng.randint(12, 40)))
        comp, _ = random_wide_composition(seed, rng.randint(1, 3))
        yield sampled(comp.flatten())
    for n in range(3, 17):
        every = list(product(range(n), repeat=2))
        for i in range(10):
            yield random_strong_semicomplete(rng, n, 0.25 if i % 2 else 0.0), every
        for _ in range(3):
            yield random_semicomplete(rng, n, 0.1), every
    for seed in range(60):
        g = random_composition(seed).flatten()
        yield g, list(product(range(g.n), repeat=2))


def test_row_growth_matches_the_set_reference():
    cases = grown = built = starved = 0
    for g, roots in _growth_inputs():
        full = g.full_mask
        for u, v in roots:
            want, grew = _try_construct_pair_by_sets(g, u, v)
            assert try_construct_pair(g, u, v) == want, (g, u, v)
            cases += 1
            grown += grew
            built += grew and want is not None
            starved += reach_mask(g, 1 << u) != full or coreach_mask(g, 1 << v) != full
    assert cases > 20000 and grown > 18000 and built > 17000 and starved > 100
