import random

from hypothesis import given, settings
from hypothesis import strategies as st

from goodpairs.branchings import (
    Branching,
    BranchingPair,
    _ban_rows,
    _bfs,
    _may_cut,
    _tree_arcs,
    branching_violation,
    find_branching,
    good_pair_violation,
    is_two_arc_strong,
    search_good_pair,
    verify_good_pair,
)
from goodpairs.digraph import (
    Digraph,
    bits,
    coreach_mask,
    is_k_arc_strong,
    reach_mask,
)
from goodpairs.families import (
    all_semicomplete,
    kind_a_instance,
    kind_b_instance,
    known_family_members,
    near_miss_members,
    random_composition,
    random_quasi_transitive,
    random_semicomplete,
    random_strong_semicomplete,
)
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


def test_find_branching_with_banned_arcs():
    g = cycle3()
    b = find_branching(g, 1, "out")
    assert b is not None and b.arcs == ((1, 2), (2, 0))
    assert find_branching(g, 0, "out", banned={(0, 1)}) is None
    b = find_branching(complete_digraph(3), 0, "out", banned={(0, 1)})
    assert b is not None and b.arcs == ((0, 2), (2, 1))
    b = find_branching(complete_digraph(3), 0, "in", banned={(1, 0)})
    assert b is not None and b.arcs == ((1, 2), (2, 0))


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


def test_branching_root_must_be_an_int_vertex():
    g = Digraph(3, [(0, 1), (1, 2), (2, 1)])
    for root in (False, 0.0, "0", None):
        b = Branching(root, ((0, 1), (1, 2)), "out")
        assert branching_violation(g, b) == f"root {root} outside the spanned set"


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


def test_shared_arcs_message_lists_every_shared_arc_sorted():
    # two valid branchings of K4 sharing (0,3) and (1,2), given unsorted
    g = complete_digraph(4)
    out = Branching(0, ((3, 1), (1, 2), (0, 3)), "out")
    inn = Branching(2, ((3, 2), (1, 2), (0, 3)), "in")
    assert branching_violation(g, out) is None
    assert branching_violation(g, inn) is None
    pair = BranchingPair(out, inn)
    assert good_pair_violation(g, 0, 2, pair) == "shared arcs [(0, 3), (1, 2)]"
    assert not verify_good_pair(g, 0, 2, pair)


def test_search_matches_the_oracle_on_small_semicomplete_digraphs():
    for n in range(1, 5):
        for g in all_semicomplete(n):
            for u in range(n):
                for v in range(n):
                    assert search_good_pair(g, u, v) == oracle_good_pair(g, u, v)
    # kind-A and kind-B witness digraphs at the witness roots, n up to 8
    for seed in range(10):
        for make in (kind_a_instance, kind_b_instance):
            g, w = make(seed)
            assert search_good_pair(g, w.a, w.b) == oracle_good_pair(g, w.a, w.b)


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
    """Brute-force pair rooted (a, b) sharing exactly `shared`, or None:
    the first out-branching at a, in enumeration order, whose BFS
    in-branching at b avoiding its arcs outside `shared` makes one."""
    for out_b in enumerate_out_branchings(g, a):
        inn = find_branching(g, b, "in", banned=out_b.arc_set - shared)
        if inn is None:
            continue
        pair = BranchingPair(out_b, inn)
        if pair.shared_arcs == shared:
            return pair
    return None


def _cut_test_inputs():
    """Seeded semicomplete (strong or not), quasi-transitive and sparse
    digraphs, n 2..16."""
    rng = random.Random("level-test")
    for n in range(2, 17):
        yield random_strong_semicomplete(rng, n, 0.25)
        yield random_semicomplete(rng, n, 0.1)
        yield random_quasi_transitive(n, n + rng.randint(0, 8))
        p = rng.choice((0.1, 0.2, 0.35))
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        yield Digraph(n, [ab for ab in pairs if rng.random() < p])


def _two_arc_strong_inputs():
    """Seeded digraphs n 2..16 at several densities, with and without
    2-cycles, random semicomplete ones, and flattened compositions."""
    rng = random.Random("two-arc-strong")
    for n in range(2, 17):
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        for p in (0.3, 0.5, 0.7, 0.9):
            for two_cycles in (False, True):
                for _ in range(4):
                    arcs = []
                    for a, b in pairs:
                        if rng.random() < p:
                            arcs.append((a, b) if rng.random() < 0.5 else (b, a))
                        if two_cycles and rng.random() < p * 0.5:
                            arcs.append(rng.choice(((a, b), (b, a))))
                    yield Digraph(n, arcs)
        yield random_semicomplete(rng, n, 0.45)
        yield random_strong_semicomplete(rng, n, 0.1)
    for seed in range(300):
        yield random_composition(seed).flatten()
    for _, comp, _, _ in known_family_members():
        yield comp.flatten()
    for comp, _, _, _ in near_miss_members():
        yield comp.flatten()


def test_two_arc_strong_matches_the_flow_test():
    answers = {True: 0, False: 0}
    strong_not_two = 0
    for g in _two_arc_strong_inputs():
        want = is_k_arc_strong(g, 2)
        assert is_two_arc_strong(g) == want, g.arcs()
        answers[want] += 1
        strong_not_two += not want and is_k_arc_strong(g, 1)
    assert answers[True] > 200 and answers[False] > 600 and strong_not_two > 400


def reference_bfs(g, root, kind="out", banned=None):
    """The arc-set BFS the parent-row `_bfs` replaced: (covered mask,
    tree arcs, `upto` masks), skipping the arcs of the `banned` set."""
    banned = banned or ()
    rows = g.out_masks if kind == "out" else g.in_masks
    seen = 1 << root
    upto = [0] * g.n
    upto[root] = seen
    frontier = [root]
    arcs = set()
    while frontier:
        nxt = []
        for x in frontier:
            for y in bits(rows[x] & ~seen):
                arc = (x, y) if kind == "out" else (y, x)
                if arc in banned:
                    continue
                seen |= 1 << y
                arcs.add(arc)
                nxt.append(y)
        for y in nxt:
            upto[y] = seen
        frontier = nxt
    return seen, arcs, upto


def test_parent_row_bfs_matches_the_arc_set_reference():
    # every root and kind, with no ban, one banned arc, a random arc set
    # and a small random arc set; the tree must be the reference's, arc
    # for arc, with the same depths, and find_branching must agree with it
    rng = random.Random("parent-rows")
    trees = banned_trees = 0
    for g in _cut_test_inputs():
        arcs = g.arcs()
        for root in range(g.n):
            for kind in ("out", "in"):
                bans = [set(), set(rng.sample(arcs, min(1, g.m)))]
                bans.append(set(rng.sample(arcs, rng.randint(0, g.m))))
                bans.append(set(rng.sample(arcs, rng.randint(0, g.m // 4))))
                for banned in bans:
                    want = reference_bfs(g, root, kind, banned)
                    ban = _ban_rows(g, kind, banned)
                    covered, parent, upto = _bfs(g, root, kind, ban)
                    got = covered, set(_tree_arcs(parent, kind)), upto
                    assert got == want, (g, root, kind, banned)
                    assert parent[root] == -1
                    spans = covered == g.full_mask
                    b = find_branching(g, root, kind, banned)
                    assert (b is not None) == spans
                    if b is not None:
                        assert b.arc_set == want[1]
                    trees += 1
                    banned_trees += bool(banned) and spans
    assert trees > 4500 and banned_trees > 1500


def test_level_test_passes_over_only_arcs_that_cut_nothing():
    # every root, out- and in-trees, with no banned arc and with one; a
    # tree arc that fails the level test must leave its far end (and so
    # everything the tree covers) reached from, or reaching, the root
    rng = random.Random("level-test/banned")
    passed = cut = kept = 0
    for g in _cut_test_inputs():
        for root in range(g.n):
            for kind, span in (("out", reach_mask), ("in", coreach_mask)):
                far = 1 if kind == "out" else 0
                one_arc = [{a} for a in rng.sample(g.arcs(), min(2, g.m))]
                for banned in [set()] + one_arc:
                    ban = _ban_rows(g, kind, banned)
                    covered, parent, upto = _bfs(g, root, kind, ban=ban)
                    assert span(g, 1 << root, banned=banned) == covered
                    for arc in _tree_arcs(parent, kind):
                        # the test reads g's rows, so where a banned arc
                        # meets the far end the callers do not apply it
                        meets = any(b[far] == arc[far] for b in banned)
                        after = span(g, 1 << root, banned=banned | {arc})
                        if meets or _may_cut(g, kind, upto, arc):
                            cut += after != covered
                            kept += after == covered
                        else:
                            passed += 1
                            assert after == covered, (g, root, kind, banned, arc)
    assert passed > 25000 and cut > 2000 and kept > 1000


def reference_branching_violation(g, branching):
    """The arc-dict and rebuilt-digraph check the row version replaced."""
    span = g.full_mask
    if not g.is_vertex(branching.root):
        return f"root {branching.root} outside the spanned set"
    seen = {}
    for arc in branching.arcs:
        if not g.is_arc(arc):
            return f"arc ({','.join(map(str, arc))}) not in the digraph"
        a, b = arc
        child = b if branching.kind == "out" else a
        if child == branching.root:
            return f"root {branching.root} has a parent arc"
        if child in seen:
            return f"vertex {child} has two parent arcs"
        seen[child] = (a, b)
    missing = [v for v in bits(span) if v != branching.root and v not in seen]
    if missing:
        return f"vertices {missing} not covered"
    sub = Digraph(g.n, branching.arcs)
    if branching.kind == "out":
        reached = reach_mask(sub, 1 << branching.root)
    else:
        reached = coreach_mask(sub, 1 << branching.root)
    if reached != span:
        return "parent arcs do not form a tree reaching the root"
    return None


def _mutated_branchings(rng, g, b):
    """The branching b of g, then copies with one fault each: a dropped
    arc, a second parent, a floating cycle, a parent arc into the root,
    a non-arc, bool, negative or out-of-range vertices, an arc of length
    other than 2, and random swaps."""
    arcs = list(b.arcs)
    out = b.kind == "out"

    def child(arc):
        return arc[1] if out else arc[0]

    def variant(new_arcs, root=b.root):
        return Branching(root, tuple(new_arcs), b.kind)

    yield b
    if arcs:
        drop = rng.randrange(len(arcs))
        yield variant(arcs[:drop] + arcs[drop + 1 :])
    extra = [a for a in g.arcs() if a not in b.arc_set]
    for arc in rng.sample(extra, min(3, len(extra))):
        yield variant(arcs + [arc])  # a second parent, or one into the root
    into_root = [a for a in g.arcs() if child(a) == b.root]
    if into_root:
        yield variant(arcs + [rng.choice(into_root)])
    # a 2-cycle away from the root replaces the parents of its two ends
    for x, y in g.arcs():
        if g.has_arc(y, x) and b.root not in (x, y):
            kept = [a for a in arcs if child(a) not in (x, y)]
            yield variant(kept + [(x, y), (y, x)])
            break
    non_arcs = [(x, y) for x in range(g.n) for y in range(g.n) if not g.has_arc(x, y)]
    for arc in rng.sample(non_arcs, min(2, len(non_arcs))):
        yield variant(arcs + [arc])
    for bad in (True, False, -1, -g.n - 1, g.n, g.n + 5):
        yield variant(arcs, root=bad)
        if arcs:
            i = rng.randrange(len(arcs))
            x, y = arcs[i]
            yield variant(arcs[:i] + [(bad, y)] + arcs[i + 1 :])
            yield variant(arcs[:i] + [(x, bad)] + arcs[i + 1 :])
            yield variant(arcs[:i] + [(bad, bad)] + arcs[i + 1 :])
    if arcs:
        # arcs of length other than 2, in place of a tree arc
        i = rng.randrange(len(arcs))
        x, y = arcs[i]
        for wrong in ((), (x,), (x, y, y), (x, y, 0, 1)):
            yield variant(arcs[:i] + [wrong] + arcs[i + 1 :])
    for _ in range(3):
        swapped = rng.sample(arcs, max(0, len(arcs) - 2))
        yield variant(swapped + rng.sample(g.arcs(), min(2, g.m)))


def test_row_branching_check_matches_the_reference():
    rng = random.Random("branching-rows")
    reasons = {}
    for n in range(1, 13):
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        for p in (0.3, 0.6, 0.9):
            g = Digraph(n, [ab for ab in pairs if rng.random() < p])
            for root in range(n):
                for kind in ("out", "in"):
                    b = find_branching(g, root, kind)
                    if b is None:
                        # a partial tree still exercises every rule
                        parent = _bfs(g, root, kind)[1]
                        b = Branching(root, tuple(_tree_arcs(parent, kind)), kind)
                    for m in _mutated_branchings(rng, g, b):
                        want = reference_branching_violation(g, m)
                        assert branching_violation(g, m) == want, (g, m)
                        key = want.split(" ")[0] if want else None
                        reasons[key] = reasons.get(key, 0) + 1
    # each reason by its first word, "parent" for the tree check
    assert set(reasons) == {None, "root", "arc", "vertex", "vertices", "parent"}
    assert min(reasons.values()) > 20, reasons
