"""Acceptance gate: nine oracle-anchored criteria, one pass/fail line each.

Every expected value here is either computed on the spot by the exhaustive
oracle or derived once and frozen with a [DERIVED] note.  Runtime budgets
are part of the contract and asserted, not just hoped for.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import lru_cache
from itertools import combinations

from goodpairs.branchings import find_branching, verify_good_pair
from goodpairs.digraph import bits, is_k_arc_strong, reach_mask, strong_components
from goodpairs.dispatch import decide
from goodpairs.families import (
    all_quasi_transitive,
    all_semicomplete,
    all_tournaments,
    kind_a_instance,
    kind_b_instance,
    known_family_members,
    near_miss_members,
    random_composition,
    random_quasi_transitive,
    random_two_arc_strong_semicomplete,
    random_wide_composition,
)
from goodpairs.oracle import enumerate_out_branchings, oracle_good_pair
from goodpairs.verdicts import validate_verdict
from goodpairs.witnesses import iter_type_a, iter_type_b, validate_witness
from test_branchings import enumerated_pair

BUDGET_SMALL_SWEEP = 60.0
BUDGET_FAMILY_SWEEP = 120.0
BUDGET_COMPOSITION_SWEEP = 600.0
BUDGET_QT_SWEEP = 300.0


@lru_cache(maxsize=1)
def _small_sweep():
    """Exhaustive semicomplete n<=4 plus all n=5 tournaments, all root pairs."""
    t0 = time.perf_counter()
    rows = []
    graphs = []
    for n in range(1, 5):
        graphs.extend(all_semicomplete(n))
    graphs.extend(all_tournaments(5))
    for g in graphs:
        for u in range(g.n):
            for v in range(g.n):
                verdict = decide(g, u, v, "semicomplete")
                oracle_yes = oracle_good_pair(g, u, v) is not None
                rows.append((g, u, v, verdict, oracle_yes))
    return rows, time.perf_counter() - t0


def test_01_exhaustive_small_semicomplete_agreement():
    rows, elapsed = _small_sweep()
    mismatches = sum(1 for _, _, _, ver, oracle_yes in rows if ver.yes != oracle_yes)
    assert mismatches == 0
    for g, u, v, ver, _ in rows:
        assert validate_verdict(g, ver) is None
        if ver.yes:
            assert verify_good_pair(g, u, v, ver.pair)
    assert len(rows) == 37520  # [DERIVED] 1784 graphs, all ordered root pairs
    assert elapsed < BUDGET_SMALL_SWEEP


def _root_component_fires(g, u, v):
    scc = strong_components(g)
    if scc.t == 1:
        return False
    return not (scc.components[0] >> u & 1 and scc.components[-1] >> v & 1)


def _arc_obstruction_fires(g, u, v):
    if strong_components(g).t != 1:
        return False
    for e in g.arcs():
        h = g.without_arcs([e])
        scc = strong_components(h)
        if not scc.components[0] >> u & 1 and not scc.components[-1] >> v & 1:
            return True
    return False


def _layer_witness_fires(g, u, v):
    if next(iter_type_a(g, u, v), None) is not None:
        return True
    return next(iter_type_b(g, u, v), None) is not None


def test_02_exception_catalog_is_exact():
    # Among the small sweep, the NO instances where the reachability, the
    # single-arc, and the layered conditions all stay silent must be exactly
    # the five root-pinned catalog shapes b..f, nothing more, nothing less.
    rows, _ = _small_sweep()
    silent_ids: Counter[str] = Counter()
    for g, u, v, ver, _ in rows:
        if ver.yes or g.n > 4:
            continue
        if _root_component_fires(g, u, v):
            continue
        if _arc_obstruction_fires(g, u, v):
            continue
        if _layer_witness_fires(g, u, v):
            continue
        assert ver.reason == "small-exception", (g, u, v, ver.reason)
        silent_ids[ver.exception_id] += 1
    # [DERIVED] labeled copies per shape: 3! for the 3-vertex shapes with
    # both roots pinned, 4! for the 4-vertex ones
    assert dict(silent_ids) == {"b": 6, "c": 6, "d": 24, "e": 24, "f": 24}


def test_03_blocked_family_regression():
    t0 = time.perf_counter()
    members = list(known_family_members())
    assert {label for label, *_ in members} == set("abcdefg")
    for label, comp, u, v in members:
        ver = decide(comp, u, v)
        assert not ver.yes, (label, u, v, ver.reason)
        assert validate_verdict(comp, ver) is None
        assert oracle_good_pair(comp.flatten(), u, v) is None, (label, u, v)
    assert len(members) == 134  # [DERIVED] full parameter sweep size
    assert time.perf_counter() - t0 < BUDGET_FAMILY_SWEEP


def test_04_random_composition_crosscheck():
    t0 = time.perf_counter()
    mismatches = 0
    for seed in range(1000):
        comp = random_composition(seed)
        flat = comp.flatten()
        for u in range(flat.n):
            for v in range(flat.n):
                ver = decide(comp, u, v, "composition")
                if ver.yes != (oracle_good_pair(flat, u, v) is not None):
                    mismatches += 1
                    continue
                if ver.yes:
                    assert verify_good_pair(flat, u, v, ver.pair)
                assert validate_verdict(comp, ver) is None
    assert mismatches == 0
    assert time.perf_counter() - t0 < BUDGET_COMPOSITION_SWEEP


def test_05_two_arc_strong_is_always_yes():
    for seed in range(200):
        n = 5 + seed % 3
        g = random_two_arc_strong_semicomplete(seed, n)
        ok = is_k_arc_strong(g, 2)
        assert ok
        for u in range(n):
            for v in range(n):
                ver = decide(g, u, v, "semicomplete")
                assert ver.yes, (seed, u, v, ver.reason)
                assert verify_good_pair(g, u, v, ver.pair)

    accepted = excluded = 0
    seed = 0
    while accepted < 200:
        assert seed < 5000, "seed scan ran away"
        comp = random_composition(seed)
        seed += 1
        flat = comp.flatten()
        ok = is_k_arc_strong(flat, 2)
        if not ok or flat.n > 8:
            continue
        blocked_pairs = []
        for u in range(flat.n):
            for v in range(flat.n):
                ver = decide(comp, u, v, "composition")
                if not ver.yes:
                    blocked_pairs.append(ver)
                else:
                    assert verify_good_pair(flat, u, v, ver.pair)
        if blocked_pairs:
            # only the one pinned 2-arc-strong family may ever say NO
            assert all(
                ver.reason == "known-family" and ver.family == "a"
                for ver in blocked_pairs
            )
            excluded += 1
            continue
        accepted += 1
    assert accepted == 200


def test_06_wide_part_deletion_keeps_connectivity():
    count = 0
    for seed in range(100):
        for k in (1, 2):
            comp, wide = random_wide_composition(seed, k)
            assert strong_components(comp.quotient).t == 1
            assert all(p.n >= k for p in comp.parts)
            part = comp.parts[wide]
            assert part.n == k + 1 and not part.arcs()
            flat = comp.flatten()
            ok = is_k_arc_strong(flat, k)
            assert ok
            victim = min(bits(comp.part_mask(wide)))
            sub, _ = flat.induced(flat.full_mask & ~(1 << victim))
            ok = is_k_arc_strong(sub, k)
            assert ok
            count += 1
    assert count == 200


def test_07_almost_good_pairs_share_exactly_the_backward_arcs():
    for seed in range(100):
        g, w = kind_a_instance(seed)
        assert validate_witness(g, w) is None
        back = set(w.backward_arcs)
        idx = seed % len(back)
        # an almost good pair shares exactly the designated arc picked
        shared = frozenset({w.backward_arcs[idx]})
        pair = enumerated_pair(g, w.a, w.b, shared)
        assert pair is not None and pair.shared_arcs == shared
        # every out/in branching pair shares at least one backward arc:
        # equivalently no split S of the backward set lets an out-branching
        # avoid back-S while an in-branching avoids S
        for r in range(len(back) + 1):
            for chosen in combinations(sorted(back), r):
                s = set(chosen)
                outb = find_branching(g.without_arcs(back - s), w.a, "out")
                inb = find_branching(g.without_arcs(s), w.b, "in")
                assert not (outb and inb), (seed, s)

    # direct enumeration anchor for the subset argument
    for seed in range(3):
        g, w = kind_a_instance(seed)
        back = set(w.backward_arcs)
        for outb in enumerate_out_branchings(g, w.a):
            assert find_branching(g, w.b, "in", banned=outb.arc_set & back) is None

    for seed in range(100):
        g, w = kind_b_instance(seed)
        assert validate_witness(g, w) is None
        shared = frozenset(w.backward_arcs)
        pair = enumerated_pair(g, w.a, w.b, shared)
        assert pair is not None and pair.shared_arcs == shared


def _tree_beside_path(g, u, w, v):
    """Whether g has an out-branching at u and a w->v path sharing no
    arc: a walk over simple w->v paths that drops every step after which
    u no longer spans g without the path's arcs."""
    full = g.full_mask

    def walk(path, used):
        if reach_mask(g, 1 << u, banned=used) != full:
            return False
        here = path[-1]
        return here == v or any(
            walk(path + [z], used | {(here, z)})
            for z in bits(g.out_masks[here])
            if z not in path
        )

    return walk([w], frozenset())


def test_08_path_conditions_do_not_characterize():
    # blocked members where nonetheless every branching-plus-path demand is
    # satisfiable, in both orientations
    count = 0
    for comp, u, v, _ in near_miss_members(20):
        ver = decide(comp, u, v)
        assert not ver.yes
        assert validate_verdict(comp, ver) is None
        flat = comp.flatten()
        conv = flat.converse()
        for w in range(flat.n):
            assert _tree_beside_path(flat, u, w, v)
        for z in range(flat.n):
            assert _tree_beside_path(conv, v, z, u)
        count += 1
    assert count == 20


def test_09_quasi_transitive_end_to_end():
    t0 = time.perf_counter()
    mismatches = 0
    for n in range(1, 5):
        for g in all_quasi_transitive(n):
            for u in range(n):
                for v in range(n):
                    ver = decide(g, u, v, "qt")
                    if ver.yes != (oracle_good_pair(g, u, v) is not None):
                        mismatches += 1
                    assert validate_verdict(g, ver) is None
    for seed in range(500):
        g = random_quasi_transitive(seed, 6)
        for u in range(g.n):
            for v in range(g.n):
                ver = decide(g, u, v, "qt")
                if ver.yes != (oracle_good_pair(g, u, v) is not None):
                    mismatches += 1
                    continue
                assert validate_verdict(g, ver) is None
    assert mismatches == 0
    assert time.perf_counter() - t0 < BUDGET_QT_SWEEP
