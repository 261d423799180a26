"""Decisions past the oracle's size: pinned fixtures and seeded sweeps.

Every YES must come with a pair that `validate_verdict` accepts, whatever
the size; no decision may raise InternalInconsistency.
"""

import random

from goodpairs.composition import Composition, independent
from goodpairs.digraph import Digraph, coreach_mask, reach_mask
from goodpairs.dispatch import decide
from goodpairs.families import kind_a_instance, random_strong_semicomplete
from goodpairs.verdicts import validate_verdict


def fixture_a():
    """Transitive tournament on 0..39 with ten arcs reversed, roots 6,6.

    A good pair exists (an ILP finds one); the greedy misses it.
    """
    flipped = {
        (12, 7), (29, 5), (29, 10), (31, 27), (33, 4),
        (37, 0), (37, 10), (37, 13), (38, 13), (39, 19),
    }
    arcs = [
        (b, a) if (b, a) in flipped else (a, b)
        for a in range(40)
        for b in range(a + 1, 40)
    ]
    return Digraph(40, arcs), 6, 6


def fixture_b():
    """The kind_a_instance(9) quotient with independent parts of sizes
    2,3,2,2,1,1,3 (n=14), roots (10,5); the greedy misses it and the
    search builds the pair."""
    quotient, _ = kind_a_instance(9)
    parts = tuple(independent(s) for s in (2, 3, 2, 2, 1, 1, 3))
    return Composition(quotient, parts), 10, 5


def assert_decides_yes(target, u, v):
    verdict = decide(target, u, v)
    assert verdict.yes
    assert validate_verdict(target, verdict) is None


def test_fixture_a_semicomplete_n40():
    assert_decides_yes(*fixture_a())


def test_fixture_b_composition_n14():
    assert_decides_yes(*fixture_b())


def near_transitive(rng, n):
    """Transitive tournament on 0..n-1 with n/4..n random pairs reversed."""
    flipped = {
        tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(n // 4, n))
    }
    arcs = [
        (b, a) if (a, b) in flipped else (a, b)
        for a in range(n)
        for b in range(a + 1, n)
    ]
    return Digraph(n, arcs)


def test_near_transitive_tournaments_n13_to_40():
    decided = 0
    for seed in range(60):
        rng = random.Random(seed)
        g = near_transitive(rng, rng.randint(13, 40))
        full = g.full_mask
        outs = [x for x in range(g.n) if reach_mask(g, 1 << x) == full]
        ins = [x for x in range(g.n) if coreach_mask(g, 1 << x) == full]
        for _ in range(5 if outs and ins else 0):
            u, v = rng.choice(outs), rng.choice(ins)
            verdict = decide(g, u, v)
            assert validate_verdict(g, verdict) is None, (seed, u, v)
            decided += 1
    assert decided >= 250


def random_part(rng):
    size = rng.randint(1, 4)
    if rng.random() < 0.6:
        return independent(size)
    return Digraph(
        size,
        [(a, b) for a in range(size) for b in range(size) if a != b and rng.random() < 0.3],
    )


def test_kind_a_quotients_with_independent_parts():
    """Roots in the witness parts of a kind-A quotient, as in fixture (b):
    the quotient has no good pair, so every YES is built on the flat
    digraph alone."""
    decided = 0
    for seed in range(120):
        rng = random.Random(seed)
        quotient, w = kind_a_instance(seed)
        comp = Composition(
            quotient, tuple(independent(rng.randint(1, 4)) for _ in range(quotient.n))
        )
        if comp.n <= 12:
            continue
        for _ in range(4):
            u = comp.flat_index(w.a, rng.randrange(comp.parts[w.a].n))
            v = comp.flat_index(w.b, rng.randrange(comp.parts[w.b].n))
            verdict = decide(comp, u, v)
            assert validate_verdict(comp, verdict) is None, (seed, u, v)
            decided += 1
    assert decided >= 200


def test_random_compositions_past_twelve_vertices():
    decided = 0
    for seed in range(60):
        rng = random.Random(seed)
        quotient = random_strong_semicomplete(rng, rng.randint(4, 7))
        comp = Composition(quotient, tuple(random_part(rng) for _ in range(quotient.n)))
        if comp.n <= 12:
            continue
        for _ in range(4):
            u, v = rng.randrange(comp.n), rng.randrange(comp.n)
            verdict = decide(comp, u, v)
            assert validate_verdict(comp, verdict) is None, (seed, u, v)
            decided += 1
    assert decided >= 100
