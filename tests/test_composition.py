import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodpairs.composition import (
    Composition,
    complement_components,
    composition_from_partition,
    directed_cycle,
    independent,
    is_oriented,
    is_quasi_transitive,
    is_semicomplete,
    is_transitive,
    qt_decompose,
    quotient_of,
    ring_tournament,
    singleton,
    transitive_tournament,
)
from goodpairs.digraph import Digraph, bits, mask_of
from goodpairs.dispatch import decide
from goodpairs.errors import InvalidInput
from goodpairs.families import random_composition, random_quasi_transitive


def test_flatten_middle_layer():
    comp = Composition(
        transitive_tournament(3), (singleton(), independent(2), singleton())
    )
    g = comp.flatten()
    assert g.n == 4
    assert sorted(g.arcs()) == [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]


def test_flatten_keeps_part_arcs():
    comp = Composition(directed_cycle(3), (Digraph(2, [(0, 1)]), singleton(), singleton()))
    g = comp.flatten()
    assert g.has_arc(0, 1) and not g.has_arc(1, 0)
    assert g.has_arc(0, 2) and g.has_arc(1, 2)
    assert g.has_arc(3, 0) and g.has_arc(3, 1)


def test_indexing_helpers():
    comp = Composition(directed_cycle(3), (independent(2), singleton(), independent(3)))
    assert comp.n == 6 and comp.s == 3
    assert [comp.part_of(i) for i in range(6)] == [0, 0, 1, 2, 2, 2]
    assert comp.local(4) == 1
    assert comp.flat_index(2, 1) == 4
    assert comp.part_mask(0) == mask_of([0, 1])
    # a flat vertex past the last part, or a local vertex outside its
    # part, is no vertex of the composition
    for flat in (-1, 6, 7):
        with pytest.raises(InvalidInput):
            comp.part_of(flat)
        with pytest.raises(InvalidInput):
            comp.local(flat)
    for part, local in ((0, 2), (1, 1), (2, 3), (0, -1), (3, 0), (-1, 0)):
        with pytest.raises(InvalidInput):
            comp.flat_index(part, local)
    assert [comp.flat_index(comp.part_of(x), comp.local(x)) for x in range(6)] == [
        *range(6)
    ]


def test_size_validation():
    with pytest.raises(InvalidInput):
        Composition(directed_cycle(3), (singleton(), singleton()))


def test_class_predicates():
    c3 = directed_cycle(3)
    tt3 = transitive_tournament(3)
    assert is_semicomplete(c3) and is_oriented(c3)
    assert not is_transitive(c3) and is_quasi_transitive(c3)
    assert is_transitive(tt3) and is_quasi_transitive(tt3)
    assert is_semicomplete(tt3) and is_oriented(tt3)
    indep = independent(2)
    assert not is_semicomplete(indep) and is_oriented(indep)
    assert is_transitive(indep) and is_quasi_transitive(indep)
    two_cycle = Digraph(2, [(0, 1), (1, 0)])
    assert is_semicomplete(two_cycle)
    assert not is_oriented(two_cycle)
    # [DERIVED] 0 -> 1 -> 2 with 0,2 non-adjacent is not quasi-transitive
    path = Digraph(3, [(0, 1), (1, 2)])
    assert not is_quasi_transitive(path)


def test_ring_tournament_shape():
    g = ring_tournament(4)
    assert is_semicomplete(g) and is_oriented(g)
    assert sorted(g.arcs()) == [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (3, 1)]
    assert ring_tournament(3) == directed_cycle(3)


def test_complement_components():
    comp = Composition(directed_cycle(3), (independent(2), singleton(), singleton()))
    g = comp.flatten()
    assert complement_components(g, g.full_mask) == [mask_of([0, 1]), 1 << 2, 1 << 3]
    # within a vertex set, a path through an outside vertex joins nothing
    two = Digraph(3, [(0, 1), (1, 0)])
    assert complement_components(two, two.full_mask) == [two.full_mask]
    assert complement_components(two, mask_of([0, 1])) == [1 << 0, 1 << 1]


def test_composition_from_partition_uniform():
    comp = Composition(directed_cycle(3), (independent(2), singleton(), singleton()))
    g = comp.flatten()
    rebuilt = composition_from_partition(g, [mask_of([0, 1]), 1 << 2, 1 << 3])
    assert rebuilt is not None
    back, order = rebuilt
    assert order == [0, 1, 2, 3]
    assert back.quotient == directed_cycle(3)
    assert back.flatten() == g


def test_composition_from_partition_rejects_nonuniform():
    g = Digraph(3, [(0, 2), (2, 1)])
    assert composition_from_partition(g, [mask_of([0, 1]), 1 << 2]) is None


def uniform_quotient_arcs(g, masks):
    """Quotient arcs by definition: each ordered part pair has all of its
    vertex pairs joined or none; None when some pair is mixed."""
    arcs = []
    for i, mi in enumerate(masks):
        for j, mj in enumerate(masks):
            if i == j:
                continue
            joins = {g.has_arc(a, b) for a in bits(mi) for b in bits(mj)}
            if len(joins) > 1:
                return None
            if joins == {True}:
                arcs.append((i, j))
    return arcs


@st.composite
def _digraph_and_partition(draw: st.DrawFn):
    n = draw(st.integers(min_value=1, max_value=7))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    masks = [mask_of(x for x in range(n) if labels[x] == c) for c in range(n)]
    masks = [m for m in masks if m]
    k = len(masks)
    between = [(i, j) for i in range(k) for j in range(k) if i != j]
    joined = draw(st.sets(st.sampled_from(between))) if between else set()
    arcs = {(a, b) for i, j in joined for a in bits(masks[i]) for b in bits(masks[j])}
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    inside = [(a, b) for a, b in pairs if labels[a] == labels[b]]
    arcs |= draw(st.sets(st.sampled_from(inside))) if inside else set()
    # a few toggled vertex pairs usually break some join
    toggled = draw(st.sets(st.sampled_from(pairs), max_size=2)) if pairs else set()
    return n, arcs ^ toggled, masks


@settings(max_examples=300, deadline=None)
@given(_digraph_and_partition())
def test_composition_from_partition_matches_per_arc_uniformity(case):
    n, arcs, masks = case
    g = Digraph(n, arcs)
    expected = uniform_quotient_arcs(g, masks)
    built = composition_from_partition(g, masks)
    if expected is None:
        assert built is None and quotient_of(g, masks) is None
        return
    # both rows of the quotient, read off g's own rows
    quotient, want = quotient_of(g, masks), Digraph(len(masks), expected)
    assert (quotient.out_masks, quotient.in_masks) == (want.out_masks, want.in_masks)
    comp, order = built
    assert comp.quotient.arcs() == expected
    assert order == [x for m in masks for x in bits(m)]
    relabeled = [(order[a], order[b]) for a, b in comp.flatten().arcs()]
    assert Digraph(n, relabeled) == g


def test_qt_decompose_strong():
    comp = Composition(directed_cycle(3), (independent(2), singleton(), singleton()))
    g = comp.flatten()
    dec = qt_decompose(g)
    assert dec.kind == "strong"
    assert dec.composition.quotient == directed_cycle(3)
    assert dec.order == (0, 1, 2, 3)
    relabeled = [
        (dec.order[a], dec.order[b]) for a, b in dec.composition.flatten().arcs()
    ]
    assert sorted(relabeled) == sorted(g.arcs())


def test_qt_decompose_non_strong():
    comp = Composition(Digraph(2, [(0, 1)]), (directed_cycle(3), directed_cycle(3)))
    g = comp.flatten()
    dec = qt_decompose(g)
    assert dec.kind == "non-strong"
    assert dec.composition.s == 2
    assert all(p.n == 3 for p in dec.composition.parts)
    assert is_transitive(dec.composition.quotient)


def test_qt_decompose_rejects_non_qt():
    with pytest.raises(InvalidInput):
        qt_decompose(Digraph(3, [(0, 1), (1, 2)]))


def flatten_by_arcs(comp):
    """The arc-list rebuild of the flattening."""
    arcs = []
    for i, p in enumerate(comp.parts):
        off = comp.offsets[i]
        arcs.extend((off + a, off + b) for a, b in p.arcs())
    for i, j in comp.quotient.arcs():
        arcs.extend(
            (a, b) for a in bits(comp.part_mask(i)) for b in bits(comp.part_mask(j))
        )
    return Digraph(comp.n, arcs)


@st.composite
def _digraphs(draw: st.DrawFn, min_n: int = 1, max_n: int = 8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    return Digraph(n, draw(st.sets(st.sampled_from(pairs))) if pairs else ())


@st.composite
def _compositions(draw: st.DrawFn):
    s = draw(st.integers(min_value=1, max_value=4))
    quotient = draw(_digraphs(s, s))
    return Composition(quotient, tuple(draw(_digraphs(1, 3)) for _ in range(s)))


@settings(max_examples=300, deadline=None)
@given(_compositions())
def test_flatten_matches_arc_rebuild(comp):
    g = comp.flatten()
    want = flatten_by_arcs(comp)
    assert g == want and g.in_masks == want.in_masks
    assert g.arcs() == want.arcs()


def classes_by_triples(g):
    """(transitive, quasi-transitive) from every arc pair xy, yz, x != z."""
    transitive = quasi = True
    for x, y in g.arcs():
        for z in bits(g.out_masks[y]):
            if z == x:
                continue
            if not g.has_arc(x, z):
                transitive = False
                if not g.has_arc(z, x):
                    quasi = False
    return transitive, quasi


def test_transitivity_predicates_match_triples_exhaustively():
    seen = set()
    for n in range(1, 5):
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        for choice in range(1 << len(pairs)):
            g = Digraph(n, [p for i, p in enumerate(pairs) if choice >> i & 1])
            want = classes_by_triples(g)
            assert (is_transitive(g), is_quasi_transitive(g)) == want, g
            seen.add(want)
    assert seen == {(True, True), (False, True), (False, False)}


@settings(max_examples=300, deadline=None)
@given(st.one_of(_digraphs(5, 8), _compositions().map(Composition.flatten)))
def test_transitivity_predicates_match_triples_on_random_digraphs(g):
    # flattenings over transitive quotients and parts give the YES cases
    assert (is_transitive(g), is_quasi_transitive(g)) == classes_by_triples(g)


def test_transitivity_predicates_on_flattened_compositions():
    # a transitive quotient over transitive parts is transitive; over a
    # directed cycle part only quasi-transitive
    tt = transitive_tournament(3)
    g = Composition(tt, (directed_cycle(3), independent(2), singleton())).flatten()
    assert classes_by_triples(g) == (False, True)
    assert not is_transitive(g) and is_quasi_transitive(g)
    g = Composition(tt, (transitive_tournament(2), independent(2), singleton())).flatten()
    assert classes_by_triples(g) == (True, True)
    assert is_transitive(g) and is_quasi_transitive(g)


def _two_step_row(g, x):
    """Every z != x with a path xyz, one out-row per middle vertex y."""
    row = 0
    for y in bits(g.out_masks[x]):
        row |= g.out_masks[y]
    return row & ~(1 << x)


def reference_is_transitive(g):
    """The per-vertex two-step test the packed kernel replaced."""
    return all(not _two_step_row(g, x) & ~g.out_masks[x] for x in range(g.n))


def reference_is_quasi_transitive(g):
    return all(
        not _two_step_row(g, x) & ~(g.out_masks[x] | g.in_masks[x])
        for x in range(g.n)
    )


def _kernel_inputs():
    """Every digraph with n <= 4, then seeded random digraphs n <= 70 at
    several densities, random quasi-transitive digraphs n 5..40 and
    transitive tournaments with some arcs reversed."""
    for n in range(5):
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        for choice in range(1 << len(pairs)):
            yield Digraph(n, [p for i, p in enumerate(pairs) if choice >> i & 1])
    rng = random.Random("packed-two-step")
    for n in (5, 8, 13, 21, 34, 55, 70):
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        for p in (0.02, 0.1, 0.5, 0.9, 0.995):
            for _ in range(4):
                yield Digraph(n, [ab for ab in pairs if rng.random() < p])
    for n in range(5, 41, 5):
        for seed in range(6):
            yield random_quasi_transitive(seed, n)
    for n in (3, 6, 17, 40, 64):
        tt = transitive_tournament(n).arcs()
        for flips in (1, 2, 5):
            for _ in range(4):
                flipped = set(rng.sample(tt, min(flips, len(tt))))
                yield Digraph(n, [(b, a) if (a, b) in flipped else (a, b) for a, b in tt])


def test_packed_kernel_matches_the_row_reference():
    counts = {}
    for g in _kernel_inputs():
        want = (reference_is_transitive(g), reference_is_quasi_transitive(g))
        assert (is_transitive(g), is_quasi_transitive(g)) == want, g
        key = (g.n > 4, *want)
        counts[key] = counts.get(key, 0) + 1
    # every answer shows up both on the exhaustive and on the large inputs
    for large in (False, True):
        assert counts[(large, True, True)] > 5
        assert counts[(large, False, True)] > 50
        assert counts[(large, False, False)] > 50


def test_flatten_is_built_once():
    comp = random_composition(3)
    fresh = Composition(comp.quotient, comp.parts)
    flat = comp.flatten()
    assert comp.flatten() is flat
    # the cache is not a field: eq, hash and repr ignore it
    assert comp == fresh and hash(comp) == hash(fresh) and repr(comp) == repr(fresh)
    assert fresh.flatten() is not flat and fresh.flatten() == flat


def test_decide_leaves_the_cached_flattening_unchanged():
    for seed in range(200):
        comp = random_composition(seed)
        flat = comp.flatten()
        for u, v in ((0, 0), (0, comp.n - 1), (comp.n - 1, seed % comp.n)):
            decide(comp, u, v)
        assert comp.flatten() is flat
        want = flatten_by_arcs(comp)
        assert flat.out_masks == want.out_masks and flat.in_masks == want.in_masks
