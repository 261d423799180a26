import random

import pytest

from goodpairs.branchings import search_good_pair, verify_good_pair
from goodpairs.digraph import Digraph
from goodpairs.errors import InvalidInput, ResourceExceeded
from goodpairs.families import all_digraphs
from goodpairs.oracle import (
    enumerate_out_branchings,
    oracle_all_pairs,
    oracle_good_pair,
)


def cycle3():
    return Digraph(3, [(0, 1), (1, 2), (2, 0)])


def tt3():
    return Digraph(3, [(0, 1), (0, 2), (1, 2)])


def complete_digraph(n):
    return Digraph(n, [(a, b) for a in range(n) for b in range(n) if a != b])


def test_enumeration_counts():
    # [DERIVED] Cayley: n^(n-2) arborescences per root in the complete digraph
    assert sum(1 for _ in enumerate_out_branchings(complete_digraph(3), 0)) == 3
    assert sum(1 for _ in enumerate_out_branchings(complete_digraph(4), 0)) == 16
    # [DERIVED] one out-branching per root in a directed cycle
    assert sum(1 for _ in enumerate_out_branchings(cycle3(), 1)) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda g, r: oracle_good_pair(g, r, 0),
        lambda g, r: oracle_good_pair(g, 0, r),
        lambda g, r: search_good_pair(g, r, 0),
        lambda g, r: search_good_pair(g, 0, r),
        # raised by the call itself, before any tree is asked for
        lambda g, r: enumerate_out_branchings(g, r),
    ],
    ids=["oracle-u", "oracle-v", "search-u", "search-v", "enumerate"],
)
@pytest.mark.parametrize("root", [3, -1, True, 1.0], ids=["n", "-1", "True", "1.0"])
def test_roots_must_be_vertices(call, root):
    # a root that is not an int vertex is refused, rather than read as
    # "no pair", as a negative shift, or as a tree rooted at True
    with pytest.raises(InvalidInput, match="^roots out of range$"):
        call(complete_digraph(3), root)


def test_enumeration_budget():
    with pytest.raises(ResourceExceeded):
        list(enumerate_out_branchings(complete_digraph(5), 0, budget=10))


def test_triangle_has_no_good_pairs():
    # [DERIVED] each root has a unique branching; the out- and in-trees
    # always overlap, so all nine ordered pairs fail
    g = cycle3()
    for u in range(3):
        for v in range(3):
            assert oracle_good_pair(g, u, v) is None
    assert oracle_all_pairs(g) == [0, 0, 0]


def test_complete_digraph_has_all_good_pairs():
    g = complete_digraph(3)
    for u in range(3):
        for v in range(3):
            pair = oracle_good_pair(g, u, v)
            assert pair is not None
            assert verify_good_pair(g, u, v, pair)
    assert oracle_all_pairs(g) == [7, 7, 7]


def test_transitive_tournament_blocks_saturated_root():
    # [DERIVED] in 0 -> 1 -> 2, 0 -> 2: vertex 1 forces (1,2) into any
    # in-branching at 2, so the out-branching must spend both arcs of 0
    g = tt3()
    assert oracle_good_pair(g, 0, 2) is None
    assert oracle_good_pair(g, 1, 2) is None
    assert oracle_all_pairs(g) == [0, 0, 0]


def test_unreachable_roots_fail_fast():
    g = tt3()
    assert oracle_good_pair(g, 2, 0) is None
    assert oracle_good_pair(g, 1, 1) is None


def test_oracle_respects_size_guard():
    g = complete_digraph(10)
    with pytest.raises(InvalidInput):
        oracle_good_pair(g, 0, 1)
    pair = oracle_good_pair(g, 0, 1, max_n=10)
    assert pair is not None and verify_good_pair(g, 0, 1, pair)


def test_all_pairs_matches_single_pair_oracle():
    g = Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (0, 3), (2, 0)])
    matrix = oracle_all_pairs(g)
    for u in range(4):
        for v in range(4):
            assert bool(matrix[u] >> v & 1) == (oracle_good_pair(g, u, v) is not None)


def test_all_pairs_matches_single_pair_oracle_on_small_and_seeded_digraphs():
    # every digraph with n <= 3, then 300 seeded ones with n 4-6 at
    # random densities; the all-pairs oracle reads its YES roots off the
    # last strong component of the leftover digraph
    rng = random.Random("all-pairs")
    graphs = [g for n in range(1, 4) for g in all_digraphs(n)]
    for _ in range(300):
        n = rng.randint(4, 6)
        p = rng.uniform(0.3, 0.9)
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        graphs.append(Digraph(n, [ab for ab in pairs if rng.random() < p]))
    pairs_checked = yes = 0
    for g in graphs:
        matrix = oracle_all_pairs(g)
        for u in range(g.n):
            for v in range(g.n):
                want = oracle_good_pair(g, u, v) is not None
                assert bool(matrix[u] >> v & 1) == want, (g, u, v)
                pairs_checked += 1
                yes += want
    assert (pairs_checked, yes) == (8334, 4357)
