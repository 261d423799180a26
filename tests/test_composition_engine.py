"""Composition engine: families, layering, forcing, constructions."""

import random
from collections import Counter

import pytest

from goodpairs import composition_engine, semicomplete
from goodpairs.composition import (
    Composition,
    finest_refinement,
    independent,
    quotient_of,
    singleton,
    strong_qt_parts,
)
from goodpairs.composition_engine import (
    _FLAT_MATCHERS,
    _layered_no,
    _match_ring,
    match_known_family,
    two_arc_strong_pair,
)
from goodpairs.dispatch import decide
from goodpairs.digraph import Digraph, is_k_arc_strong, is_strong
from goodpairs.errors import InvalidInput
from goodpairs.families import (
    all_digraphs,
    family_a,
    family_b,
    family_c,
    family_g,
    known_family_members,
    near_miss_members,
    random_composition,
    random_quasi_transitive,
    random_two_arc_strong_semicomplete,
)
from goodpairs.semicomplete import match_small_exception
from goodpairs.oracle import oracle_good_pair
from goodpairs.branchings import is_two_arc_strong, search_good_pair, verify_good_pair
from goodpairs.verdicts import middle_blocked_violation, validate_verdict
from test_semicomplete import (
    brute_exception_match,
    count_greedy_calls,
    forbid,
    greedy_hits,
)


def test_rejects_non_strong_or_single_part():
    # a non-strong semicomplete quotient is decided by the transitive
    # finder on the flat digraph's own rows; one that is not semicomplete
    # has no composition route
    comp = Composition(Digraph(2, []), (singleton(), singleton()))
    with pytest.raises(InvalidInput):
        decide(comp, 0, 1, "composition")
    comp = Composition(Digraph(1, []), (independent(2),))
    with pytest.raises(InvalidInput):
        decide(comp, 0, 1, "composition")


def test_family_match_direct_and_reversed():
    comp, u, v = family_a(back_arc=False)
    assert match_known_family(comp.flatten(), u, v) == ("a", False)
    ver = decide(comp, u, v, "composition")
    assert not ver.yes and ver.reason == "known-family" and ver.family == "a"
    assert validate_verdict(comp, ver) is None
    # swapped roots stay blocked and the verdict still validates
    swapped = decide(comp, v, u, "composition")
    assert not swapped.yes
    assert validate_verdict(comp, swapped) is None
    assert oracle_good_pair(comp.flatten(), v, u) is None


def test_family_c_blocked_and_validated():
    # the t=1 member is small enough for the degree precheck to claim it
    for t, reason in ((1, "degree"), (2, "known-family")):
        comp, u, v = family_c(t, 0)
        ver = decide(comp, u, v, "composition")
        assert not ver.yes and ver.reason == reason
        assert validate_verdict(comp, ver) is None
        assert oracle_good_pair(comp.flatten(), u, v) is None


def test_family_g_is_the_pinned_quad():
    comp, u, v = family_g()
    ver = decide(comp, u, v, "composition")
    assert not ver.yes and validate_verdict(comp, ver) is None
    assert oracle_good_pair(comp.flatten(), u, v) is None


def test_refined_layering_beats_the_given_presentation():
    # [DERIVED] seed 263 at roots (2,1) needs the finest repartition:
    # the four given parts hide a five-cell type-A layering
    comp = random_composition(263)
    ver = decide(comp, 2, 1, "composition")
    assert not ver.yes and ver.reason == "layered-a"
    assert ver.refinement == (0, 1, 2, 3, 3, 4)
    assert validate_verdict(comp, ver) is None
    assert oracle_good_pair(comp.flatten(), 2, 1) is None


def test_forced_arc_cascade():
    # [DERIVED] seed 908: no family, no layering at roots (3,2)/(4,2),
    # but pinned unit arcs cascade into a stuck vertex
    comp = random_composition(908)
    flat = comp.flatten()
    for u, v, reason in (
        (1, 2, "layered-b"),
        (2, 2, "layered-a"),
        (3, 2, "arc-forcing"),
        (4, 2, "arc-forcing"),
    ):
        ver = decide(comp, u, v, "composition")
        assert not ver.yes and ver.reason == reason
        assert validate_verdict(comp, ver) is None
        assert oracle_good_pair(flat, u, v) is None


def test_two_arc_strong_always_yes():
    for seed in range(6):
        g = random_two_arc_strong_semicomplete(seed, 6)
        ok = is_k_arc_strong(g, 2)
        assert ok
        for u, v in ((0, 0), (0, 5), (3, 2)):
            pair = two_arc_strong_pair(g, u, v)
            assert verify_good_pair(g, u, v, pair)


def test_verified_greedy_pair_answers_before_any_blocked_shape(monkeypatch):
    # a pair that verifies is a whole YES certificate: no family, witness,
    # forcing or search layer may run once the greedy has built one
    comp = random_composition(74)
    want = greedy_hits(comp.flatten())
    assert len(want) == comp.n**2 - 2  # the greedy misses (1, 0) and (1, 4)
    forbid(
        monkeypatch,
        composition_engine,
        (
            "match_known_family",
            "is_two_arc_strong",
            "_layered_no",
            "iter_type_a",
            "iter_type_b",
            "force_trace",
            "two_arc_strong_pair",
            "construct_composition_pair",
            "finest_refinement",
        ),
    )
    forbid(monkeypatch, semicomplete, ("searched_good_pair",))
    for (u, v), pair in want.items():
        ver = decide(comp, u, v, "composition")
        assert ver.yes and ver.pair == pair


@pytest.mark.parametrize(
    "seed, u, v, two_arc_strong",
    [(21, 0, 2, False), (74, 1, 0, True)],
)
def test_greedy_miss_is_built_by_the_search(seed, u, v, two_arc_strong, monkeypatch):
    # a greedy miss on either YES path: past the 2-arc-strong test, or
    # past the layered and forcing tests
    comp = random_composition(seed)
    flat = comp.flatten()
    assert is_two_arc_strong(flat) == two_arc_strong
    calls = count_greedy_calls(monkeypatch)
    ver = decide(comp, u, v, "composition")
    # the blocked shapes and the search run after one greedy attempt
    assert calls == [(u, v)]
    assert ver.yes and ver.pair == search_good_pair(flat, u, v)
    assert validate_verdict(comp, ver) is None
    assert oracle_good_pair(flat, u, v) is not None


def test_finest_refinement_blocks_wherever_the_given_parts_block():
    # decide_composition runs its layered test on the finest uniform
    # repartition of the parts it is given, and on no other, so a layered
    # witness on a composition's own parts must have one on the
    # refinement too
    blocked = 0
    for seed in range(600):
        comp = random_composition(seed)
        flat = comp.flatten()
        parts = [comp.part_mask(i) for i in range(comp.s)]
        refined = finest_refinement(flat, parts)
        if len(refined) == len(parts):
            continue
        quotient = quotient_of(flat, refined)
        for u in range(flat.n):
            for v in range(flat.n):
                if _layered_no(flat, u, v, parts, comp.quotient) is not None:
                    blocked += 1
                    assert _layered_no(flat, u, v, refined, quotient), (seed, u, v)
    assert blocked > 500


def test_strong_qt_parts_are_already_finest():
    # dispatch hands strong_qt_parts and their quotient to
    # decide_composition: each part is one non-adjacency component of the
    # whole digraph, so finest_refinement keeps it whole and the layered
    # test reuses that quotient
    strong = 0
    for n in (8, 20):
        for seed in range(300):
            g = random_quasi_transitive(seed, n)
            if is_strong(g):
                strong += 1
                parts, quotient = strong_qt_parts(g)
                assert finest_refinement(g, parts) == parts, (seed, n)
                assert quotient == quotient_of(g, parts), (seed, n)
    assert strong == 69


def test_random_sweep_matches_oracle():
    for seed in range(40):
        comp = random_composition(seed)
        flat = comp.flatten()
        for u in range(flat.n):
            for v in range(flat.n):
                ver = decide(comp, u, v, "composition")
                assert ver.yes == (oracle_good_pair(flat, u, v) is not None)
                assert validate_verdict(comp, ver) is None


# --- reference: the set-based family matchers the row matchers replaced ---


def _ref_head_pair(g, u, v):
    if g.n != 6 or u == v or g.has_arc(u, v):
        return False
    rest = [w for w in range(g.n) if w not in (u, v)]
    first = [
        w
        for w in rest
        if g.has_arc(u, w)
        and g.has_arc(v, w)
        and not g.has_arc(w, u)
        and not g.has_arc(w, v)
    ]
    if len(first) != 2:
        return False
    second = [w for w in rest if w not in first]
    expected = set()
    for w in first:
        expected.add((u, w))
        expected.add((v, w))
        for x in second:
            expected.add((w, x))
    for x in second:
        expected.add((x, u))
        expected.add((x, v))
    actual = set(g.arcs())
    if not expected <= actual:
        return False
    return actual - expected <= {(v, u)}


def _ref_middle_row(g, u, v):
    if u == v or g.n < 3:
        return False
    middle = [w for w in range(g.n) if w not in (u, v)]
    expected = {(u, v)}
    for w in middle:
        expected.add((u, w))
        expected.add((w, v))
    actual = set(g.arcs())
    if not expected <= actual:
        return False
    return actual - expected <= {(v, u)}


def _ref_thin_cycle(g, u, v):
    if u == v or g.n < 3:
        return False
    middle = set(range(g.n)) - {u, v}
    expected = {(v, u)}
    for w in middle:
        expected.add((u, w))
        expected.add((w, v))
    actual = set(g.arcs())
    if not expected <= actual:
        return False
    extras = actual - expected
    if len(extras) > 1:
        return False
    return all(x in middle and y in middle for x, y in extras)


def _ref_hub(g, u, v):
    if u == v or g.n < 3:
        return False
    vertices = set(range(g.n))
    actual = set(g.arcs())
    for z in sorted(vertices - {u, v}):
        head = {
            w for w in vertices if w != z and g.has_arc(z, w) and not g.has_arc(w, z)
        }
        tail = {
            w for w in vertices if w != z and g.has_arc(w, z) and not g.has_arc(z, w)
        }
        if u not in head or v not in tail:
            continue
        if head & tail or head | tail | {z} != vertices:
            continue
        expected = set()
        for w in head:
            expected.add((z, w))
            for x in tail:
                expected.add((w, x))
        for x in tail:
            expected.add((x, z))
        if not expected <= actual:
            continue
        extras = actual - expected
        ok = all(
            (y == u and x in head and x != u) or (x == v and y in tail and y != v)
            for x, y in extras
        )
        if ok:
            return True
    return False


def _ref_ring(g, u, v):
    if u == v:
        return None
    vertices = set(range(g.n))
    head_u = {w for w in vertices if g.has_arc(w, v)}
    after = {w for w in vertices if g.has_arc(v, w)}
    if head_u & after or u not in head_u:
        return None
    if head_u | after | {v} != vertices:
        return None
    arcs = set(g.arcs())
    for z in sorted(after):
        hub = {w for w in vertices if g.has_arc(w, z)} - {v}
        if not hub or z in hub or not hub <= after:
            continue
        head = after - {z} - hub
        expected = set()
        for w in head_u:
            expected.add((w, v))
            expected.add((z, w))
            for x in head | hub:
                expected.add((w, x))
        for k in hub:
            expected.add((k, z))
            expected.add((v, k))
        expected.add((v, z))
        for h in head:
            expected.add((v, h))
            expected.add((z, h))
        if not expected <= arcs:
            continue
        rest = {a for a in arcs if not (a[0] in head and a[1] in head)} - expected
        star = {(x, y) for x, y in rest if x in head_u and x != u and y == u}
        cross = rest - star
        if cross == {(h, k) for h in head for k in hub}:
            return "e"
        if len(hub) == 1 and head:
            k1 = next(iter(hub))
            shapes_ok = all(
                (x in head and y == k1) or (x == k1 and y in head) for x, y in cross
            )
            joined = {x for x, y in cross if y == k1} | {
                y for x, y in cross if x == k1
            }
            if shapes_ok and joined == head and is_strong(g):
                return "f"
    return None


def _ref_blocked_quad(g, u, v):
    hit = brute_exception_match(g, u, v)
    return hit is not None and hit[0] == "e"


_REF_FLAT = (
    ("a", _ref_head_pair),
    ("b", _ref_middle_row),
    ("c", _ref_thin_cycle),
    ("d", _ref_hub),
)


def _ref_known_family(flat, u, v):
    if u == v:
        return None
    for reversed_ in (False, True):
        g, a, b = (flat, u, v) if not reversed_ else (flat.converse(), v, u)
        for family, matcher in _REF_FLAT:
            if matcher(g, a, b):
                return family, reversed_
        ring = _ref_ring(g, a, b)
        if ring is not None:
            return ring, reversed_
        if _ref_blocked_quad(g, a, b):
            return "g", reversed_
    return None


def _shape_matches(g, u, v):
    """Every shape's answer at (u, v): the engine's, then the reference's."""
    hit = match_small_exception(g, u, v)
    engine = [m(g, u, v) for _, m in _FLAT_MATCHERS]
    engine += [_match_ring(g, u, v), hit is not None and hit[0] == "e"]
    ref = [m(g, u, v) for _, m in _REF_FLAT]
    ref += [_ref_ring(g, u, v), _ref_blocked_quad(g, u, v)]
    return engine, ref


def _flips(g, count, rng):
    """g with one arc toggled, every way, then `count` random two-arc toggles."""
    pairs = [(a, b) for a in range(g.n) for b in range(g.n) if a != b]
    arcs = set(g.arcs())
    for p in pairs:
        yield Digraph(g.n, arcs ^ {p})
    for _ in range(count):
        yield Digraph(g.n, arcs ^ set(rng.sample(pairs, 2)))


def _all_roots(g):
    return [(u, v) for u in range(g.n) for v in range(g.n)]


def _matcher_corpus():
    """(flat digraph, root pairs) the row matchers are checked on."""
    rng = random.Random(5)
    for _, comp, u, v in known_family_members():
        flat = comp.flatten()
        for g in (flat, flat.converse()):
            yield g, _all_roots(g)
        for g in _flips(flat, 12, rng):
            yield g, [(u, v), (v, u)]
    for comp, u, v, _ in near_miss_members(20):
        yield comp.flatten(), _all_roots(comp.flatten())
    for seed in range(300):
        flat = random_composition(seed).flatten()
        yield flat, _all_roots(flat)
    for n in range(1, 5):
        for g in all_digraphs(n):
            yield g, _all_roots(g)
    for seed in range(40):
        g = random_quasi_transitive(seed, 6 + seed % 5)
        yield g, _all_roots(g)


def test_row_matchers_agree_with_the_set_reference():
    hits = Counter()
    for g, roots in _matcher_corpus():
        for u, v in roots:
            engine, ref = _shape_matches(g, u, v)
            assert engine == ref, (g, u, v)
            assert match_known_family(g, u, v) == _ref_known_family(g, u, v)
            hits.update((i, x) for i, x in enumerate(ref) if x)
    # the corpus reaches every shape, the ring as both "e" and "f"
    assert set(hits) == {(0, True), (1, True), (2, True), (3, True),
                         (4, "e"), (4, "f"), (5, True)}


def test_family_b_is_the_middle_blocked_shape_on_both_routes():
    # without the back arc the quotient is transitive; with it, strong,
    # and the flat route re-decomposes to check the family it names
    for t in (1, 2, 3):
        for back_arc in (False, True):
            comp, u, v = family_b(t, back_arc)
            flat = comp.flatten()
            assert middle_blocked_violation(flat, u, v) is None
            want = ("known-family", "b") if back_arc else ("middle-blocked", None)
            # with t = 1 the flat digraph is semicomplete and takes that route
            for target in (comp, flat) if t >= 2 else (comp,):
                ver = decide(target, u, v)
                assert (ver.reason, ver.family) == want
                assert validate_verdict(target, ver) is None
