"""Generator invariants: the test corpus must be what it claims to be."""

import random

import pytest

from goodpairs.composition import is_transitive
from goodpairs.digraph import Digraph, is_k_arc_strong, strong_components
from goodpairs.families import (
    all_quasi_transitive,
    all_semicomplete,
    all_tournaments,
    family_b,
    kind_a_instance,
    kind_b_instance,
    known_family_members,
    near_miss_members,
    random_composition,
    random_quasi_transitive,
    random_strong_semicomplete,
    random_two_arc_strong_semicomplete,
    random_wide_composition,
)
from goodpairs.oracle import oracle_good_pair
from goodpairs.witnesses import is_semicomplete, validate_witness


def qt_violation(g: Digraph) -> bool:
    # independent restatement: x->y->z forces x,z adjacent
    for x in range(g.n):
        for y in range(g.n):
            for z in range(g.n):
                if len({x, y, z}) < 3:
                    continue
                if g.has_arc(x, y) and g.has_arc(y, z):
                    if not (g.has_arc(x, z) or g.has_arc(z, x)):
                        return True
    return False


def test_enumerator_counts():
    # [DERIVED] labeled counts: 2^(pairs) tournaments, 3^(pairs) semicomplete
    assert sum(1 for _ in all_tournaments(3)) == 8
    assert sum(1 for _ in all_tournaments(4)) == 64
    assert sum(1 for _ in all_semicomplete(3)) == 27
    for g in all_semicomplete(3):
        assert is_semicomplete(g)


def test_quasi_transitive_enumeration_is_exact():
    got = sum(1 for _ in all_quasi_transitive(3))
    expected = 0
    for g in _all_digraphs_3():
        if not qt_violation(g):
            expected += 1
    assert got == expected
    for g in all_quasi_transitive(3):
        assert not qt_violation(g)


def _all_digraphs_3():
    pairs = [(0, 1), (0, 2), (1, 2)]
    for code in range(4 ** 3):
        arcs = []
        c = code
        for a, b in pairs:
            state = c % 4
            c //= 4
            if state in (1, 3):
                arcs.append((a, b))
            if state in (2, 3):
                arcs.append((b, a))
        yield Digraph(3, arcs)


def test_family_sweep_labels_and_blockage():
    members = list(known_family_members())
    assert {label for label, *_ in members} == set("abcdefg")
    assert 50 <= len(members) <= 300
    # spot check: one member per label is oracle-blocked
    seen = set()
    for label, comp, u, v in members:
        if label in seen or comp.n > 9:
            continue
        seen.add(label)
        assert oracle_good_pair(comp.flatten(), u, v) is None


def test_family_b_quotient_shape():
    for back_arc in (False, True):
        comp, u, v = family_b(2, back_arc)
        strong = strong_components(comp.quotient).t == 1
        assert strong == back_arc
        if not back_arc:
            assert is_transitive(comp.quotient)


def test_kind_witnesses_fit_their_digraphs():
    for seed in range(12):
        for build, kind in ((kind_a_instance, "A"), (kind_b_instance, "B")):
            g, w = build(seed)
            assert w.kind == kind
            assert validate_witness(g, w) is None
            assert is_semicomplete(g)
            # determinism per seed
            g2, w2 = build(seed)
            assert g2 == g and w2 == w


def test_near_miss_witnesses_live_on_the_quotient():
    for comp, u, v, w in near_miss_members(5):
        assert validate_witness(comp.quotient, w) is None
        assert (w.a, w.b) == (comp.part_of(u), comp.part_of(v))


def test_random_generators_are_deterministic():
    assert random_composition(42) == random_composition(42)
    assert random_quasi_transitive(42, 6) == random_quasi_transitive(42, 6)
    g = random_two_arc_strong_semicomplete(42, 7)
    assert g == random_two_arc_strong_semicomplete(42, 7)
    ok = is_k_arc_strong(g, 2)
    assert ok and is_semicomplete(g)
    assert random_composition(42) != random_composition(43)


def test_strong_semicomplete_refuses_two_vertices_without_two_cycles():
    # a 2-vertex tournament is never strong, so the draw loop would not end
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError):
        random_strong_semicomplete(rng, 2, 0.0)
    assert rng.getstate() == state  # the refusal draws nothing
    g = random_strong_semicomplete(rng, 2, 0.25)
    assert g.arcs() == [(0, 1), (1, 0)]


def test_wide_composition_has_the_promised_slack():
    for seed in range(8):
        for k in (1, 2):
            comp, wide = random_wide_composition(seed, k)
            part = comp.parts[wide]
            assert part.n == k + 1 and not part.arcs()
            ok = is_k_arc_strong(comp.flatten(), k)
            assert ok
