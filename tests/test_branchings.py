from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from goodpairs.branchings import (
    Branching,
    BranchingPair,
    branching_avoiding_path,
    branching_violation,
    find_branching,
    good_pair_violation,
    out_branching_avoiding_path,
    path_arcs,
    search_good_pair,
    verify_good_pair,
)
from goodpairs.digraph import CutWitness, Digraph, mask_of
from goodpairs.families import all_semicomplete, kind_a_instance, kind_b_instance
from goodpairs.oracle import enumerate_out_branchings, oracle_good_pair


def cycle3():
    return Digraph(3, [(0, 1), (1, 2), (2, 0)])


def complete_digraph(n):
    return Digraph(n, [(a, b) for a in range(n) for b in range(n) if a != b])


def test_find_branching_out_and_in():
    g = Digraph(3, [(0, 1), (0, 2), (1, 2)])
    b = find_branching(g, 0, "out")
    assert b is not None and branching_violation(g, b) is None
    assert find_branching(g, 1, "out") is None
    b = find_branching(g, 2, "in")
    assert b is not None and branching_violation(g, b) is None


def test_find_branching_within_and_banned():
    g = cycle3()
    b = find_branching(g, 1, "out", within=mask_of([1, 2]))
    assert b is not None and b.arcs == ((1, 2),)
    assert find_branching(g, 0, "out", banned={(0, 1)}) is None


def test_branching_violation_reasons():
    g = Digraph(3, [(0, 1), (1, 2), (2, 1)])
    ok = Branching(0, ((0, 1), (1, 2)), "out")
    assert branching_violation(g, ok) is None
    two_parents = Branching(0, ((0, 1), (1, 2), (2, 1)), "out")
    assert "two parent" in branching_violation(g, two_parents)
    not_an_arc = Branching(0, ((0, 2), (0, 1)), "out")
    assert "not in the digraph" in branching_violation(g, not_an_arc)
    floating_cycle = Branching(0, ((1, 2), (2, 1)), "out")
    assert branching_violation(g, floating_cycle) is not None


def test_good_pair_verification():
    g = complete_digraph(3)
    pair = BranchingPair(
        Branching(0, ((0, 1), (0, 2)), "out"),
        Branching(0, ((1, 0), (2, 0)), "in"),
    )
    assert verify_good_pair(g, 0, 0, pair)
    shared = BranchingPair(
        Branching(0, ((0, 1), (1, 2)), "out"),
        Branching(2, ((0, 2), (1, 2)), "in"),
    )
    assert "shared" in good_pair_violation(g, 0, 2, shared)


def assert_branching_plus_path(g, result, root, start, end):
    assert result is not None and not isinstance(result, CutWitness)
    tree, path = result
    assert branching_violation(g, tree) is None
    assert tree.root == root
    assert path[0] == start and path[-1] == end
    assert len(set(path)) == len(path)
    for a, b in path_arcs(path):
        assert g.has_arc(a, b)
    assert not set(path_arcs(path)) & tree.arc_set


def test_branching_avoiding_path_success():
    g = complete_digraph(4)
    assert_branching_plus_path(g, branching_avoiding_path(g, 0, 3), 0, 0, 3)
    # fallback route must also handle the two-path graph 0->1, 0->2->1
    h = Digraph(3, [(0, 1), (0, 2), (2, 1)])
    assert_branching_plus_path(h, branching_avoiding_path(h, 0, 1), 0, 0, 1)


def test_branching_avoiding_path_same_endpoints():
    result = branching_avoiding_path(cycle3(), 0, 0)
    assert_branching_plus_path(cycle3(), result, 0, 0, 0)


def test_branching_avoiding_path_cut():
    # [DERIVED] only one arc enters 2 in the triangle, so no second path
    result = branching_avoiding_path(cycle3(), 0, 2)
    assert isinstance(result, CutWitness)
    assert result.validate(cycle3())


def test_out_branching_avoiding_path():
    g = complete_digraph(4)
    result = out_branching_avoiding_path(g, 0, 1, 2)
    assert_branching_plus_path(g, result, 0, 1, 2)
    # [DERIVED] in the triangle, removing the only 1->2 walk's first arc
    # disconnects the root, so no branching can avoid a 1->2 path
    assert out_branching_avoiding_path(cycle3(), 0, 1, 2) is None


def test_search_matches_the_oracle_on_small_semicomplete_digraphs():
    for n in range(1, 5):
        for g in all_semicomplete(n):
            for u in range(n):
                for v in range(n):
                    assert search_good_pair(g, u, v) == oracle_good_pair(g, u, v)


@st.composite
def _rooted_digraph(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    u = draw(st.integers(min_value=0, max_value=n - 1))
    v = draw(st.integers(min_value=0, max_value=n - 1))
    return Digraph(n, arcs), u, v


@settings(max_examples=300, deadline=None)
@given(case=_rooted_digraph())
def test_search_matches_the_oracle_on_random_digraphs(case):
    g, u, v = case
    assert search_good_pair(g, u, v) == oracle_good_pair(g, u, v)


def enumerated_pair(g, a, b, shared):
    """Reference for the shared form: the first out-branching at a, in
    enumeration order, whose BFS in-branching at b avoiding its arcs
    outside `shared` makes a pair sharing exactly `shared`."""
    for out_b in enumerate_out_branchings(g, a):
        inn = find_branching(g, b, "in", banned=out_b.arc_set - shared)
        if inn is None:
            continue
        pair = BranchingPair(out_b, inn)
        if pair.shared_arcs == shared:
            return pair
    return None


def test_shared_search_matches_enumeration_on_witnesses():
    found = 0
    for seed in range(10):
        for make in (kind_a_instance, kind_b_instance):
            g, w = make(seed)
            back = w.backward_arcs
            for r in range(len(back) + 1):
                for chosen in combinations(back, r):
                    shared = frozenset(chosen)
                    pair = search_good_pair(g, w.a, w.b, shared=shared)
                    assert pair == enumerated_pair(g, w.a, w.b, shared)
                    found += pair is not None
    assert found
