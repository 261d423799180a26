import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodpairs.digraph import (
    Digraph,
    SccDecomposition,
    bits,
    coreach_mask,
    is_k_arc_strong,
    is_strong,
    mask_of,
    reach_mask,
    small_digraph_match,
    strong_components,
    unit_flow,
)
from goodpairs.errors import InvalidInput
from goodpairs.families import all_digraphs
from goodpairs.textio import emit_document, flat_document


def cycle3():
    return Digraph(3, [(0, 1), (1, 2), (2, 0)])


def tt3():
    return Digraph(3, [(0, 1), (0, 2), (1, 2)])


def complete_digraph(n):
    return Digraph(n, [(a, b) for a in range(n) for b in range(n) if a != b])


def tripartite_cycle():
    # parts {0,1} -> {2,3} -> {4,5} -> {0,1}, complete between consecutive parts
    arcs = []
    parts = [(0, 1), (2, 3), (4, 5)]
    for i in range(3):
        for a in parts[i]:
            for b in parts[(i + 1) % 3]:
                arcs.append((a, b))
    return Digraph(6, arcs)


def test_rejects_loops_and_out_of_range():
    with pytest.raises(InvalidInput):
        Digraph(2, [(0, 0)])
    with pytest.raises(InvalidInput):
        Digraph(2, [(0, 2)])


def test_rejects_a_negative_vertex_count():
    # before its first row query, not as a bare ValueError from a shift
    with pytest.raises(InvalidInput, match="negative vertex count -1"):
        Digraph(-1, [])
    assert Digraph(0, []).full_mask == 0


def test_bits_and_mask_roundtrip():
    assert list(bits(mask_of([0, 3, 5]))) == [0, 3, 5]
    assert list(bits(0)) == []


def test_arc_queries():
    g = tt3()
    assert g.has_arc(0, 2) and not g.has_arc(2, 0)
    assert g.m == 3
    assert g.out_degree(0) == 2 and g.in_degree(2) == 2
    assert g.out_degree(0, within=mask_of([1])) == 1


def test_arcs_and_m_follow_an_in_place_row_edit():
    # the growth loop and the arc-obstruction scan edit the rows of a
    # from_rows digraph in place, between reads of its arcs
    g = cycle3()
    h = Digraph.from_rows(g.out_masks[:], g.in_masks[:])
    assert h.arcs() == [(0, 1), (1, 2), (2, 0)] and h.m == 3
    h.out_masks[0] ^= 1 << 1
    h.in_masks[1] ^= 1 << 0
    assert h.arcs() == [(1, 2), (2, 0)] and h.m == 2
    h.out_masks[0] |= 1 << 2
    h.in_masks[2] |= 1 << 0
    assert h.arcs() == [(0, 2), (1, 2), (2, 0)] and h.m == 3
    assert h == Digraph(3, h.arcs())
    assert g.arcs() == [(0, 1), (1, 2), (2, 0)]


def test_arcs_is_a_fresh_list_each_call():
    g = tt3()
    arcs = g.arcs()
    assert arcs is not g.arcs()
    arcs.clear()
    assert g.arcs() == [(0, 1), (0, 2), (1, 2)] and g.m == 3


def test_emitting_a_digraph_keeps_no_per_arc_memory():
    # a digraph is its rows: writing its document must leave nothing
    # behind on it once the text is dropped; an arc-tuple cache would keep
    # about 67 B per arc, and the bound leaves room for allocator noise
    rng = random.Random(60)
    pairs = [(a, b) for a in range(60) for b in range(60) if a != b]
    arcs = [arc for arc in pairs if rng.random() < 0.6]
    g = Digraph(60, arcs)
    m = len(arcs)
    del pairs, arcs
    assert m > 2000
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = emit_document(flat_document(g))
        assert text.count("\narc ") == m
        del text
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 4 * m, retained


def test_vertices_and_arcs_are_ints_not_bools():
    # JSON true/false and floats are not vertices, though True == 1 == 1.0
    g = tt3()
    assert g.is_vertex(0) and g.is_vertex(2)
    for x in (True, False, 1.0, "1", None, -1, 3):
        assert not g.is_vertex(x), x
    assert g.is_arc((0, 1)) and g.is_arc([1, 2])
    for arc in ((False, True), (0, True), (True, 2), (0.0, 1)):
        assert not g.is_arc(arc), arc


def test_converse_swaps_arcs():
    g = tt3()
    h = g.converse()
    assert sorted(h.arcs()) == [(1, 0), (2, 0), (2, 1)]


def test_induced_relabels():
    g = tt3()
    sub, old = g.induced(mask_of([0, 2]))
    assert old == [0, 2]
    assert sub.arcs() == [(0, 1)]


def test_reach_and_coreach():
    g = tt3()
    assert reach_mask(g, 1 << 0) == mask_of([0, 1, 2])
    assert reach_mask(g, 1 << 2) == mask_of([2])
    assert coreach_mask(g, 1 << 2) == mask_of([0, 1, 2])
    assert reach_mask(g, 1 << 0, banned={(0, 1)}) == mask_of([0, 2])
    assert reach_mask(g, 1 << 0, within=mask_of([0, 1])) == mask_of([0, 1])


def test_scc_cycle_is_strong():
    # [TRIVIAL] a directed triangle is strongly connected
    scc = strong_components(cycle3())
    assert scc.t == 1 and is_strong(cycle3())
    assert scc.components == [mask_of([0, 1, 2])]
    assert scc.initial == [0] and scc.terminal == [0]


def test_scc_transitive_tournament_orders_singletons():
    # [DERIVED] acyclic, so singleton components in topological order
    scc = strong_components(tt3())
    assert scc.components == [1 << 0, 1 << 1, 1 << 2]
    assert scc.initial == [0] and scc.terminal == [2]


def test_scc_flattened_middle_layer():
    # [DERIVED] 0 -> {1,2} -> 3 plus 0 -> 3: four singleton components,
    # 0 first and 3 last; cross arcs must respect the component order.
    g = Digraph(4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)])
    scc = strong_components(g)
    assert scc.t == 4
    assert scc.comp_of[0] == 0 and scc.comp_of[3] == 3
    for a, b in g.arcs():
        assert scc.comp_of[a] < scc.comp_of[b]
    assert scc.initial == [0] and scc.terminal == [3]


def test_scc_within_restricts():
    g = cycle3()
    scc = strong_components(g, within=mask_of([0, 1]))
    assert scc.t == 2
    assert scc.components == [1 << 0, 1 << 1]


def test_local_connectivity_values():
    # [DERIVED] in TT_3: two arc-disjoint 0->2 paths, one 0->1 path, none 2->0
    g = tt3()
    assert unit_flow(g, 1 << 0, 2) == 2
    assert unit_flow(g, 1 << 0, 1) == 1
    assert unit_flow(g, 1 << 2, 0) == 0
    # [DERIVED] complete digraph on 4 vertices has connectivity 3
    assert unit_flow(complete_digraph(4), 1 << 0, 1) == 3
    with pytest.raises(InvalidInput):
        unit_flow(g, mask_of([0, 2]), 2)


def test_local_connectivity_cap_stops_early():
    # K_5 has four arc-disjoint 0->1 paths; the cap counts only two
    g = complete_digraph(5)
    assert unit_flow(g, 1 << 0, 1) == 4
    assert unit_flow(g, 1 << 0, 1, cap=2) == 2


def test_k_arc_strong():
    # [DERIVED] the 3-partite directed cycle with parts of size 2 is
    # 2-arc-strong but not 3-arc-strong (out-degrees are 2)
    g = tripartite_cycle()
    assert is_k_arc_strong(g, 2)
    assert not is_k_arc_strong(g, 3)
    assert not is_k_arc_strong(tt3(), 1)


def test_is_strong_matches_components_on_every_small_digraph():
    # [DERIVED] n <= 4: 1 + 4 + 64 + 4096 digraphs
    count = 0
    for n in range(1, 5):
        for g in all_digraphs(n):
            assert is_strong(g) == (strong_components(g).t == 1), g
            count += 1
    assert count == 4165
    assert not is_strong(Digraph(0))


def test_is_strong_matches_components_on_random_digraphs():
    rng = random.Random("is-strong")
    strong = 0
    for n in range(1, 15):
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        for p in (0.1, 0.25, 0.5, 0.8):
            for _ in range(8):
                g = Digraph(n, [ab for ab in pairs if rng.random() < p])
                want = strong_components(g).t == 1
                assert is_strong(g) == want, g
                strong += want
    assert 50 < strong < 14 * 4 * 8 - 50


def test_small_match_rotation():
    g = cycle3()
    mapping = small_digraph_match(g, cycle3(), pinned={0: 1})
    assert mapping is not None
    assert mapping[0] == 1
    for a, b in cycle3().arcs():
        assert g.has_arc(mapping[a], mapping[b])


def test_small_match_rejects_wrong_shape():
    assert small_digraph_match(tt3(), cycle3()) is None
    assert small_digraph_match(cycle3(), tt3()) is None


def test_small_match_respects_pin():
    # pinning 0 to the sink of TT_3 cannot work: 0 has out-degree 2
    assert small_digraph_match(tt3(), tt3(), pinned={0: 2}) is None
    assert small_digraph_match(tt3(), tt3(), pinned={0: 0}) is not None


@st.composite
def _digraph_and_removal(draw: st.DrawFn):
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    arcs = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    removal = draw(
        st.one_of(
            st.just(set()),
            st.just(set(arcs)),
            st.sets(st.sampled_from(pairs)) if pairs else st.just(set()),
        )
    )
    return n, arcs, removal


@settings(max_examples=200, deadline=None)
@given(_digraph_and_removal())
def test_without_arcs_matches_rebuild(case):
    # removals may be empty, absent from g, or every arc of g
    n, arcs, removal = case
    g = Digraph(n, arcs)
    h = g.without_arcs(removal)
    expected = Digraph(n, arcs - removal)
    assert h == expected
    assert h.in_masks == expected.in_masks
    assert h.arcs() == expected.arcs()
    assert g == Digraph(n, arcs)


def test_without_arcs_ignores_arcs_outside_the_vertex_range():
    g = complete_digraph(3)
    h = g.without_arcs([(-1, 0), (0, -1), (2, 3), (5, 1)])
    assert h == g and h.in_masks == g.in_masks


@st.composite
def _digraph_and_mask(draw: st.DrawFn):
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    arcs = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    mask = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return n, arcs, mask


def induced_by_arcs(g, vertex_mask):
    """The arc-list rebuild of the induced subgraph."""
    old = list(bits(vertex_mask))
    index = {v: i for i, v in enumerate(old)}
    arcs = [
        (index[a], index[b])
        for a, b in g.arcs()
        if vertex_mask >> a & 1 and vertex_mask >> b & 1
    ]
    return Digraph(len(old), arcs), old


@settings(max_examples=300, deadline=None)
@given(_digraph_and_mask())
def test_induced_and_converse_match_arc_rebuild(case):
    # masks may be empty, full, one run of vertices or scattered ones
    n, arcs, mask = case
    g = Digraph(n, arcs)
    sub, old = g.induced(mask)
    want, want_old = induced_by_arcs(g, mask)
    assert old == want_old
    assert sub == want and sub.in_masks == want.in_masks
    assert sub.arcs() == want.arcs()
    conv = g.converse()
    want = Digraph(n, [(b, a) for a, b in arcs])
    assert conv == want and conv.in_masks == want.in_masks
    assert g == Digraph(n, arcs)


def ends_by_arc_walk(g, components, within):
    """Initial and terminal component indices from a walk over g's arcs."""
    allowed = g.full_mask if within is None else within
    comp_of = {v: i for i, c in enumerate(components) for v in bits(c)}
    entered = [False] * len(components)
    left = [False] * len(components)
    for a, b in g.arcs():
        if allowed >> a & 1 and allowed >> b & 1 and comp_of[a] != comp_of[b]:
            entered[comp_of[b]] = True
            left[comp_of[a]] = True
    initial = [i for i, e in enumerate(entered) if not e]
    terminal = [i for i, e in enumerate(left) if not e]
    return initial, terminal


@settings(max_examples=300, deadline=None)
@given(_digraph_and_mask())
def test_scc_ends_match_arc_walk(case):
    n, arcs, mask = case
    g = Digraph(n, arcs)
    for within in (None, mask):
        scc = strong_components(g, within=within)
        initial, terminal = ends_by_arc_walk(g, scc.components, within)
        assert scc.initial == initial and scc.terminal == terminal


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.sampled_from(
                    [(a, b) for a in range(n) for b in range(n) if a != b]
                )
            ),
            st.integers(min_value=0, max_value=3),
        )
    )
)
def test_k_arc_strong_matches_all_pairs_connectivity(case):
    n, arcs, k = case
    g = Digraph(n, arcs)
    lowest = min(
        unit_flow(g, 1 << x, y)
        for x in range(n)
        for y in range(n)
        if x != y
    )
    assert is_k_arc_strong(g, k) == (lowest >= k)
    for x, y in ((0, 1), (1, 0), (n - 1, 0)):
        full = unit_flow(g, 1 << x, y)
        assert unit_flow(g, 1 << x, y, cap=k) == min(full, k)


def augmenting_flow_by_sets(g, source_mask, sink, allowed, cap):
    """The set-based augmenting loop that bitset rows replaced: used arcs
    are tuples looked up once per candidate bit.  Returns the value."""
    used = set()
    value = 0
    while cap is None or value < cap:
        parents = {}
        seen = source_mask & allowed
        frontier = list(bits(seen))
        found = False
        while frontier and not found:
            nxt = []
            for v in frontier:
                fwd = g.out_masks[v] & allowed & ~seen
                for w in bits(fwd):
                    if (v, w) in used:
                        continue
                    parents[w] = (v, (v, w), True)
                    seen |= 1 << w
                    if w == sink:
                        found = True
                        break
                    nxt.append(w)
                if found:
                    break
                bwd = g.in_masks[v] & allowed & ~seen
                for w in bits(bwd):
                    if (w, v) in used:
                        parents[w] = (v, (w, v), False)
                        seen |= 1 << w
                        if w == sink:
                            found = True
                            break
                        nxt.append(w)
                if found:
                    break
            frontier = nxt
        if not found:
            return value
        v = sink
        while not (source_mask >> v & 1):
            prev, arc, forward = parents[v]
            if forward:
                used.add(arc)
            else:
                used.remove(arc)
            v = prev
        value += 1
    return value


# Flow 0 -> 6: the first path 0-1-2-6 must be rerouted.  The second BFS
# reaches 2 with the forward arc 2 -> 4 and the backward step to 1 both
# open, so only an augmenting loop that walks used arcs backward finds
# the second path.
REROUTE = [(0, 1), (0, 3), (1, 2), (2, 6), (3, 2), (1, 5), (2, 4), (4, 5), (5, 6)]


def _flow_samples(rng):
    """(g, source, sink) triples: the reroute digraph under random
    labels, then random digraphs with random source sets."""
    for _ in range(30):
        perm = rng.sample(range(7), 7)
        g = Digraph(7, [(perm[a], perm[b]) for a, b in REROUTE])
        yield g, 1 << perm[0], perm[6]
    for _ in range(300):
        n = rng.randint(2, 14)
        density = rng.choice((0.2, 0.4, 0.7))
        g = Digraph(
            n, [(a, b) for a in range(n) for b in range(n) if a != b and rng.random() < density]
        )
        for _ in range(6):
            sink = rng.randrange(n)
            yield g, rng.getrandbits(n) & ~(1 << sink) or 1 << (sink + 1) % n, sink


def test_row_flow_matches_the_set_reference():
    rng = random.Random(14)
    queries = 0
    for g, source_mask, sink in _flow_samples(rng):
        n = g.n
        arcs = g.arcs()
        # an unused draw of an arc sample keeps the seeded queries fixed
        rng.sample(arcs, rng.randint(0, len(arcs) // 3))
        allowed = rng.choice((g.full_mask, rng.getrandbits(n) | source_mask | 1 << sink))
        for within in (g.full_mask, allowed):
            for cap in (None, 1, 2, 3):
                value = unit_flow(g, source_mask, sink, within=within, cap=cap)
                assert value == augmenting_flow_by_sets(
                    g, source_mask, sink, within, cap
                ), (g, source_mask, sink, within, cap)
                queries += 1
    assert queries == (30 + 300 * 6) * 2 * 4


def tarjan_components(g, within=None):
    """strong_components without its shortcut for strong inputs: Tarjan
    on every input, then the initial and terminal components from rows."""
    allowed = g.full_mask if within is None else within
    index, lowlink, on_stack, stack, components = {}, {}, set(), [], []
    for root in bits(allowed):
        if root in index:
            continue
        index[root] = lowlink[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(bits(g.out_masks[root] & allowed)))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(bits(g.out_masks[w] & allowed))))
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
                if lowlink[v] == index[v]:
                    comp = 0
                    while True:
                        w = stack.pop()
                        on_stack.remove(w)
                        comp |= 1 << w
                        if w == v:
                            break
                    components.append(comp)
    components.reverse()
    comp_of = {v: i for i, comp in enumerate(components) for v in bits(comp)}
    initial, terminal = [], []
    for i, comp in enumerate(components):
        outside = allowed & ~comp
        out_row = in_row = 0
        for v in bits(comp):
            out_row |= g.out_masks[v]
            in_row |= g.in_masks[v]
        if not in_row & outside:
            initial.append(i)
        if not out_row & outside:
            terminal.append(i)
    return SccDecomposition(components, comp_of, initial, terminal)


def _scc_inputs():
    """Seeded digraphs n 1..12 at several densities, strong ones among
    them, each with the full set, a random mask and a strong sub-mask."""
    rng = random.Random("scc-shortcut")
    for n in range(1, 13):
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        for p in (0.1, 0.25, 0.5, 0.8):
            for _ in range(6):
                g = Digraph(n, [ab for ab in pairs if rng.random() < p])
                masks = [None, rng.getrandbits(n), g.full_mask & ~(1 << rng.randrange(n))]
                # a strong component of g as `within`, whole or less a vertex
                comp = max(tarjan_components(g).components, key=int.bit_count)
                masks += [comp, comp & (comp - 1)]
                for within in masks:
                    yield g, within


def test_scc_shortcut_matches_tarjan():
    strong = split = 0
    for g, within in _scc_inputs():
        want = tarjan_components(g, within)
        assert strong_components(g, within) == want, (g, within)
        if want.t == 1:
            strong += 1
        elif want.t > 1:
            split += 1
    assert strong > 600 and split > 300


@settings(max_examples=300, deadline=None)
@given(_digraph_and_mask())
def test_scc_matches_tarjan_with_and_without_within(case):
    n, arcs, mask = case
    g = Digraph(n, arcs)
    for within in (None, mask):
        assert strong_components(g, within) == tarjan_components(g, within)
