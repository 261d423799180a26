import random
from dataclasses import astuple
from itertools import combinations

import pytest

from goodpairs.branchings import _ban_rows, _bfs
from goodpairs.composition import Composition, directed_cycle, independent, singleton
from goodpairs.digraph import Digraph, mask_of, unit_flow
from goodpairs.errors import ResourceExceeded
from goodpairs.families import (
    all_semicomplete,
    kind_a_instance,
    kind_b_instance,
    random_strong_semicomplete,
)
from goodpairs.witnesses import (
    TypeABWitness,
    _closed_supersets,
    _in_initial_component,
    _in_terminal_component,
    arc_condition,
    iter_type_a,
    iter_type_b,
    validate_type_a,
    validate_type_b,
    validate_witness,
)


def complete_digraph(n):
    return Digraph(n, [(a, b) for a in range(n) for b in range(n) if a != b])


def back_arc_order4():
    # total order 0 < 1 < 2 < 3 plus the single backward arc 3 -> 0
    return Digraph(
        4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 0)]
    )


def chain_order4():
    # levels {0} < {1,2} < {3} with designated chain 3 -> 1 -> 0
    return Digraph(
        4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 1), (1, 0)]
    )


def test_hand_built_type_a_validates():
    w = TypeABWitness(
        kind="A",
        sets=(1 << 0, mask_of([1, 2]), 1 << 3),
        backward_arcs=((3, 0),),
        a=1,
        b=2,
    )
    assert validate_type_a(back_arc_order4(), w) is None
    assert validate_witness(back_arc_order4(), w) is None


def test_type_a_validator_rejects_tampering():
    g = back_arc_order4()
    base = dict(
        kind="A",
        sets=(1 << 0, mask_of([1, 2]), 1 << 3),
        backward_arcs=((3, 0),),
        a=1,
        b=2,
    )
    wrong_root = TypeABWitness(**{**base, "a": 3})
    assert "out-root" in validate_type_a(g, wrong_root)
    wrong_arc = TypeABWitness(**{**base, "backward_arcs": ((3, 1),)})
    assert validate_type_a(g, wrong_arc) is not None
    swapped = TypeABWitness(**{**base, "sets": (1 << 3, mask_of([1, 2]), 1 << 0)})
    assert validate_type_a(g, swapped) is not None
    not_semi = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert "semicomplete" in validate_type_a(not_semi, TypeABWitness(**base))


def test_hand_built_type_b_validates():
    w = TypeABWitness(
        kind="B",
        sets=(1 << 1, mask_of([0, 2])),
        backward_arcs=((0, 1),),
        a=0,
        b=1,
    )
    assert validate_type_b(directed_cycle(3), w) is None


def test_type_b_two_level_chain_validates():
    w = TypeABWitness(
        kind="B",
        sets=(1 << 0, mask_of([1, 2]), 1 << 3),
        backward_arcs=((3, 1), (1, 0)),
        a=3,
        b=0,
    )
    assert validate_type_b(chain_order4(), w) is None
    same_roots = TypeABWitness(
        kind="B",
        sets=(1 << 0, mask_of([1, 2]), 1 << 3),
        backward_arcs=((3, 1), (1, 0)),
        a=0,
        b=0,
    )
    assert "distinct roots" in validate_type_b(chain_order4(), same_roots)


def test_enumerate_type_a_back_arc_order():
    # [DERIVED] only the split {0} | {1,2} | {3} leaves a single downward arc
    g = back_arc_order4()
    found = list(iter_type_a(g, 1, 2))
    assert len(found) == 1
    w = found[0]
    assert w.sets == (1 << 0, mask_of([1, 2]), 1 << 3)
    assert w.backward_arcs == ((3, 0),)
    assert validate_type_a(g, w) is None
    # [DERIVED] the roots (3, 0) admit no kind-A split
    assert list(iter_type_a(g, 3, 0)) == []


def test_enumerate_type_b_back_arc_order():
    g = back_arc_order4()
    assert list(iter_type_b(g, 1, 2)) == []
    # [DERIVED] the bottom level can be any downward-closed chunk of the
    # total order 0 < 1 < 2 that keeps (3,0) as its only entering arc
    found = list(iter_type_b(g, 3, 0))
    assert sorted(w.sets[0] for w in found) == [
        mask_of([0]),
        mask_of([0, 1]),
        mask_of([0, 1, 2]),
    ]
    for w in found:
        assert w.backward_arcs == ((3, 0),)
        assert validate_type_b(g, w) is None


def test_enumerate_type_b_chain():
    g = chain_order4()
    found = list(iter_type_b(g, 3, 0))
    for w in found:
        assert validate_type_b(g, w) is None
    assert any(w.beta == 2 and w.backward_arcs == ((3, 1), (1, 0)) for w in found)
    assert any(w.beta == 1 for w in found)


def test_enumerate_triangle():
    g = directed_cycle(3)
    found = list(iter_type_b(g, 0, 1))
    assert sorted(w.sets[0] for w in found) == [mask_of([1]), mask_of([1, 2])]
    for w in found:
        assert w.backward_arcs == ((0, 1),)
        assert validate_type_b(g, w) is None
    # same-root witnesses only come in kind A
    assert list(iter_type_b(g, 2, 2)) == []
    same = list(iter_type_a(g, 2, 2))
    assert len(same) == 1
    assert same[0].sets == (1 << 1, 1 << 2, 1 << 0)
    assert validate_type_a(g, same[0]) is None


def test_enumerate_nothing_on_well_connected():
    # [DERIVED] every vertex subset of the complete digraph on 4 vertices
    # has in-degree at least 3, so no layered witness exists
    g = complete_digraph(4)
    for u in range(4):
        for v in range(4):
            assert list(iter_type_a(g, u, v)) == []
            assert list(iter_type_b(g, u, v)) == []


def test_enumeration_budget():
    g = back_arc_order4()
    with pytest.raises(
        ResourceExceeded,
        match=r"^witness enumeration budget of 2 nodes exhausted at n=4$",
    ):
        list(iter_type_a(g, 1, 2, budget=2))


# Unfiltered copies of iter_type_a and iter_type_b: they call
# _closed_supersets on every candidate designated arc, and their nodes
# are counted in `counter` without a budget.
UNLIMITED = float("inf")


def reference_type_a(g, u, v, counter):
    full = g.full_mask

    def close(prefix, level, sets, intro):
        if level % 2 or level < 2:
            return
        landing = intro[level - 3][0] if level >= 3 else None
        top_arc = intro[level - 2]
        include = 1 << u | (1 << landing if landing is not None else 0)
        if level == 2:
            include |= 1 << v
        if prefix & include:
            return
        for w_mask in _closed_supersets(
            g, prefix | include, 1 << top_arc[0], {top_arc}, counter, UNLIMITED
        ):
            new_level = w_mask & ~prefix
            top = full & ~w_mask
            if not top:
                continue
            if landing is not None and not _in_terminal_component(
                g, new_level, landing
            ):
                continue
            if not _in_terminal_component(g, top, top_arc[0]):
                continue
            yield TypeABWitness(
                "A", tuple(sets + [new_level, top]), tuple(reversed(intro)), u, v
            )

    def grow(prefix, level, sets, intro):
        yield from close(prefix, level, sets, intro)
        landing = intro[level - 3][0] if level >= 3 else None
        crossing = intro[level - 2]
        for f in g.arcs():
            if f in intro:
                continue
            xf, yf = f
            include = 1 << yf | (1 << landing if landing is not None else 0)
            if level == 2:
                include |= 1 << v
            exclude = 1 << xf | 1 << u | 1 << crossing[0]
            if include & exclude or prefix & include:
                continue
            for w_mask in _closed_supersets(
                g, prefix | include, exclude, {crossing, f}, counter, UNLIMITED
            ):
                new_level = w_mask & ~prefix
                if not _in_initial_component(g, new_level, yf):
                    continue
                if landing is not None and not _in_terminal_component(
                    g, new_level, landing
                ):
                    continue
                yield from grow(w_mask, level + 1, sets + [new_level], intro + [f])

    for e in g.arcs():
        xe, ye = e
        if ye in (u, v):
            continue
        exclude = 1 << xe | 1 << u | 1 << v
        for w1 in _closed_supersets(g, 1 << ye, exclude, {e}, counter, UNLIMITED):
            if _in_initial_component(g, w1, ye):
                yield from grow(w1, 2, [w1], [e])


def reference_type_b(g, u, v, counter):
    if u == v:
        return
    full = g.full_mask

    def grow(prefix, sets, intro):
        top = full & ~prefix
        if top >> u & 1 and _in_terminal_component(g, top, intro[-1][0]):
            yield TypeABWitness("B", tuple(sets + [top]), tuple(reversed(intro)), u, v)
        pending = intro[-1][0]
        for f in g.arcs():
            if f in intro:
                continue
            xf, yf = f
            include = 1 << yf | 1 << pending
            exclude = 1 << xf | 1 << u
            if include & exclude or prefix & include:
                continue
            for w_mask in _closed_supersets(
                g, prefix | include, exclude, {f}, counter, UNLIMITED
            ):
                new_level = w_mask & ~prefix
                if yf != pending:
                    k = unit_flow(g, 1 << yf, pending, within=new_level, cap=2)
                    if k < 2:
                        continue
                yield from grow(w_mask, sets + [new_level], intro + [f])

    for e in g.arcs():
        xe, ye = e
        if ye == u or xe == v:
            continue
        for w1 in _closed_supersets(
            g, 1 << ye | 1 << v, 1 << xe | 1 << u, {e}, counter, UNLIMITED
        ):
            if _in_initial_component(g, w1, ye):
                yield from grow(w1, [w1], [e])


def assert_filtered_matches_reference(g, u, v) -> int:
    """Same witnesses, same order and the same node count N as the
    reference: the filtered enumerators raise at budget N-1 and finish
    at budget N.  Returns the number of witnesses found."""
    found = 0
    for filtered, reference in (
        (iter_type_a, reference_type_a),
        (iter_type_b, reference_type_b),
    ):
        counter = [0]
        expected = [astuple(w) for w in reference(g, u, v, counter)]
        nodes = counter[0]
        got = [astuple(w) for w in filtered(g, u, v, budget=nodes)]
        assert got == expected, (g, u, v, filtered.__name__)
        if nodes:
            with pytest.raises(ResourceExceeded):
                list(filtered(g, u, v, budget=nodes - 1))
        found += len(expected)
    return found


def near_transitive(rng, n):
    # a transitive tournament with a few reversed arcs; often not strong,
    # so u misses some heads and the unreached-head rule is exercised
    pairs = list(combinations(range(n), 2))
    flipped = set(rng.sample(pairs, rng.randint(1, n)))
    return Digraph(n, [(b, a) if (a, b) in flipped else (a, b) for a, b in pairs])


def test_filtered_enumeration_matches_unfiltered_reference():
    found = 0
    for g in all_semicomplete(4):
        for u in range(4):
            for v in range(4):
                found += assert_filtered_matches_reference(g, u, v)
    rng = random.Random(5)
    for n in range(5, 15):
        for g in (random_strong_semicomplete(rng, n), near_transitive(rng, n)):
            for _ in range(2):
                found += assert_filtered_matches_reference(
                    g, rng.randrange(n), rng.randrange(n)
                )
    for seed in range(20):
        for g, w in (kind_a_instance(seed), kind_b_instance(seed)):
            assert assert_filtered_matches_reference(g, w.a, w.b) > 0
    assert found > 0


def test_arc_condition():
    comp = Composition(
        directed_cycle(3), (independent(2), singleton(), singleton())
    )
    flat, masks = comp.flatten(), [comp.part_mask(i) for i in range(comp.s)]
    assert arc_condition(flat, masks, (1, 2))
    assert arc_condition(flat, masks, (2, 0))
    assert arc_condition(flat, masks, (0, 1))
    thick = Composition(
        directed_cycle(3), (Digraph(2, [(0, 1)]), singleton(), singleton())
    )
    # vertex 0 now has two out-arcs, so a backward arc leaving part 0
    # loses its blocking power
    assert not arc_condition(thick.flatten(), masks, (0, 1))
    assert arc_condition(thick.flatten(), masks, (1, 2))
    # the masks need not be runs: the same parts, numbered apart
    scattered = Digraph(4, [(2, 0), (2, 1), (0, 3), (1, 3), (3, 2)])
    split = [mask_of([2]), mask_of([0, 1]), mask_of([3])]
    assert arc_condition(scattered, split, (1, 2))
    assert arc_condition(scattered, split, (0, 1))


# The enumerators before the level test, kept as the reference for it:
# they filter g.arcs() per loop with `_tree_opens` on u's BFS out-tree
# (in g less the crossing arc in `grow`).


def _tree_opens(tree, f):
    """Whether f is an arc of the tree, `_bfs`'s (covered mask, parent
    row), or has its head off the tree."""
    reached, parent = tree
    return parent[f[1]] == f[0] or not reached >> f[1] & 1


def tree_filtered_type_a(g, u, v, counter, budget):
    full = g.full_mask
    trees = {}

    def close(prefix, level, sets, intro):
        if level % 2 or level < 2:
            return
        landing = intro[level - 3][0] if level >= 3 else None
        top_arc = intro[level - 2]
        include = 1 << u | (1 << landing if landing is not None else 0)
        if level == 2:
            include |= 1 << v
        if prefix & include:
            return
        for w_mask in _closed_supersets(
            g, prefix | include, 1 << top_arc[0], {top_arc}, counter, budget
        ):
            new_level = w_mask & ~prefix
            top = full & ~w_mask
            if not top:
                continue
            if landing is not None and not _in_terminal_component(
                g, new_level, landing
            ):
                continue
            if not _in_terminal_component(g, top, top_arc[0]):
                continue
            yield TypeABWitness(
                "A", tuple(sets + [new_level, top]), tuple(reversed(intro)), u, v
            )

    def grow(prefix, level, sets, intro):
        yield from close(prefix, level, sets, intro)
        landing = intro[level - 3][0] if level >= 3 else None
        crossing = intro[level - 2]
        if crossing not in trees:
            trees[crossing] = _bfs(g, u, "out", _ban_rows(g, "out", {crossing}))[:2]
        tree = trees[crossing]
        for f in g.arcs():
            if f in intro or not _tree_opens(tree, f):
                continue
            xf, yf = f
            include = 1 << yf | (1 << landing if landing is not None else 0)
            if level == 2:
                include |= 1 << v
            exclude = 1 << xf | 1 << u | 1 << crossing[0]
            if include & exclude or prefix & include:
                continue
            for w_mask in _closed_supersets(
                g, prefix | include, exclude, {crossing, f}, counter, budget
            ):
                new_level = w_mask & ~prefix
                if not _in_initial_component(g, new_level, yf):
                    continue
                if landing is not None and not _in_terminal_component(
                    g, new_level, landing
                ):
                    continue
                yield from grow(w_mask, level + 1, sets + [new_level], intro + [f])

    tree = _bfs(g, u)[:2]
    for e in g.arcs():
        xe, ye = e
        if ye in (u, v) or not _tree_opens(tree, e):
            continue
        exclude = 1 << xe | 1 << u | 1 << v
        for w1 in _closed_supersets(g, 1 << ye, exclude, {e}, counter, budget):
            if _in_initial_component(g, w1, ye):
                yield from grow(w1, 2, [w1], [e])


def tree_filtered_type_b(g, u, v, counter, budget):
    if u == v:
        return
    full = g.full_mask
    tree = _bfs(g, u)[:2]

    def grow(prefix, sets, intro):
        top = full & ~prefix
        if top >> u & 1 and _in_terminal_component(g, top, intro[-1][0]):
            yield TypeABWitness("B", tuple(sets + [top]), tuple(reversed(intro)), u, v)
        pending = intro[-1][0]
        for f in g.arcs():
            if f in intro or not _tree_opens(tree, f):
                continue
            xf, yf = f
            include = 1 << yf | 1 << pending
            exclude = 1 << xf | 1 << u
            if include & exclude or prefix & include:
                continue
            for w_mask in _closed_supersets(
                g, prefix | include, exclude, {f}, counter, budget
            ):
                new_level = w_mask & ~prefix
                if yf != pending:
                    k = unit_flow(g, 1 << yf, pending, within=new_level, cap=2)
                    if k < 2:
                        continue
                yield from grow(w_mask, sets + [new_level], intro + [f])

    for e in g.arcs():
        xe, ye = e
        if ye == u or xe == v or not _tree_opens(tree, e):
            continue
        for w1 in _closed_supersets(
            g, 1 << ye | 1 << v, 1 << xe | 1 << u, {e}, counter, budget
        ):
            if _in_initial_component(g, w1, ye):
                yield from grow(w1, [w1], [e])


def layered_no_shape(rng, n):
    """A host like the benchmark's layered-no documents, with its roots.

    Five transitive levels joined upward; designated arc i runs from the
    last vertex of level 6-i down to the first of level 4-i, sometimes
    beside its reverse; the roots lie in levels 4 and 2.
    """
    sizes = [1] * 5
    for _ in range(n - 5):
        sizes[rng.randrange(5)] += 1
    levels, base = [], 0
    for size in sizes:
        levels.append(list(range(base, base + size)))
        base += size
    backward = [(levels[5 - i][-1], levels[3 - i][0]) for i in (1, 2, 3)]
    arcs = {
        (a, b)
        for lo in range(5)
        for hi in range(lo + 1, 5)
        for a in levels[lo]
        for b in levels[hi]
        if (b, a) not in backward
    }
    for x, y in backward:
        arcs.add((x, y))
        if rng.random() < 0.3:
            arcs.add((y, x))
    for ids in levels:
        # first and last stay pinned: they are the levels' designated ends
        middle = ids[1:-1]
        rng.shuffle(middle)
        order = ids[:1] + middle + ids[1:][-1:]
        arcs.update((a, b) for j, a in enumerate(order) for b in order[j + 1 :])
    return Digraph(n, sorted(arcs)), rng.choice(levels[3]), rng.choice(levels[1])


def level_test_inputs():
    """(digraph, root pairs): kind-A and kind-B instances, layered-no
    hosts, and random strong and near-transitive semicomplete digraphs
    with n 10..30."""
    rng = random.Random("level-filter")
    for seed in range(20):
        for g, w in (kind_a_instance(seed), kind_b_instance(seed)):
            yield g, [(w.a, w.b), (rng.randrange(g.n), rng.randrange(g.n))]
    for _ in range(20):
        g, a, b = layered_no_shape(rng, rng.randint(10, 24))
        yield g, [(a, b), (rng.randrange(g.n), rng.randrange(g.n))]
    for n in range(10, 31):
        for g in (
            random_strong_semicomplete(rng, n, rng.choice((0.0, 0.25))),
            near_transitive(rng, n),
        ):
            yield g, [(rng.randrange(n), rng.randrange(n)) for _ in range(2)]


def test_level_filtered_enumeration_matches_the_tree_filtered_reference():
    """Same witnesses, same order, same budget: the smallest budget at
    which the reference finishes (its node count N) finishes the level
    filter too, and N-1 makes both raise."""
    found = 0
    for g, roots in level_test_inputs():
        for u, v in roots:
            for new, reference in (
                (iter_type_a, tree_filtered_type_a),
                (iter_type_b, tree_filtered_type_b),
            ):
                counter = [0]
                expected = [astuple(w) for w in reference(g, u, v, counter, UNLIMITED)]
                nodes = counter[0]
                got = [astuple(w) for w in new(g, u, v, budget=nodes)]
                assert got == expected, (g, u, v, new.__name__)
                if nodes:
                    with pytest.raises(ResourceExceeded):
                        list(new(g, u, v, budget=nodes - 1))
                    with pytest.raises(ResourceExceeded):
                        list(reference(g, u, v, [0], nodes - 1))
                found += len(expected)
    assert found > 0
