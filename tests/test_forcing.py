"""Forced-arc saturation traces and their independent replay."""

import random

from goodpairs.digraph import Digraph, bits, coreach_mask, reach_mask
from goodpairs.families import (
    random_composition,
    random_two_arc_strong_semicomplete,
)
from goodpairs.branchings import first_cut
from goodpairs.forcing import _State, force_trace, replay


def blocked_instance():
    # [DERIVED] seed 908 at roots (3,2): unit parts force a cascade that
    # severs the out-branching before it can leave vertex 4
    return random_composition(908).flatten(), 3, 2


def test_blocked_trace_replays_clean():
    flat, u, v = blocked_instance()
    status, trace = force_trace(flat, u, v)
    assert status == "blocked"
    assert replay(flat, u, v, trace) is None


def test_trace_steps_are_well_formed():
    flat, u, v = blocked_instance()
    _, trace = force_trace(flat, u, v)
    assert trace
    for side, rule, a, b in trace:
        assert side in ("out", "in")
        assert rule in (
            "only-entry",
            "cut-entry",
            "only-exit",
            "cut-exit",
            "stuck",
            "severed",
        )
        assert 0 <= a < flat.n
        assert b == -1 or 0 <= b < flat.n
    side, rule, a, b = trace[-1]
    assert rule in ("stuck", "severed") and b == -1


def test_tampered_trace_is_rejected():
    flat, u, v = blocked_instance()
    _, trace = force_trace(flat, u, v)

    # drop the terminal step: the claim no longer ends in a dead end
    assert replay(flat, u, v, trace[:-1])

    # swap a forced arc for one the rules never derive
    side, rule, a, b = trace[0]
    forged = [((side, rule, b, a))] + list(trace[1:])
    assert replay(flat, u, v, forged)

    # empty trace proves nothing
    assert replay(flat, u, v, [])

    # a dead end names one vertex and -1, nothing else
    side, rule, a, _ = trace[-1]
    assert replay(flat, u, v, trace[:-1] + ((side, rule, a, 0),))


def test_replay_rejects_bool_vertices():
    # the trace replays clean, and True/False in place of the vertices 1/0
    # (as a JSON trace may carry them) make its steps malformed
    flat, u, v = blocked_instance()
    _, trace = force_trace(flat, u, v)
    assert ("in", "only-exit", 0, 1) in trace
    for forged_step in (("in", "only-exit", False, 1), ("in", "only-exit", 0, True)):
        forged = [forged_step if s == ("in", "only-exit", 0, 1) else s for s in trace]
        assert replay(flat, u, v, forged) == f"malformed step {forged_step!r}"


def test_open_instances_stay_open():
    flat, _, _ = blocked_instance()
    status, _ = force_trace(flat, 3, 0)
    assert status == "open"

    g = random_two_arc_strong_semicomplete(0, 6)
    status, _ = force_trace(g, 0, 1)
    assert status == "open"


def test_open_status_never_carries_a_dead_end():
    flat, _, _ = blocked_instance()
    for u in range(flat.n):
        for v in range(flat.n):
            status, trace = force_trace(flat, u, v)
            terminal = [s for s in trace if s[1] in ("stuck", "severed")]
            if status == "open":
                assert not terminal
            else:
                assert len(terminal) == 1 and trace[-1] is terminal[0]


# --- reference: the two-sided rules the one-sided ones replaced ---


class _RefState:
    def __init__(self):
        self.entry = {}
        self.exit = {}
        self.entry_arcs = set()
        self.exit_arcs = set()


def _ref_entry_would_cycle(state, a, b):
    x = a
    while True:
        pin = state.entry.get(x)
        if pin is None:
            return False
        x = pin[0]
        if x == b:
            return True


def _ref_exit_would_cycle(state, a, b):
    x = b
    while True:
        pin = state.exit.get(x)
        if pin is None:
            return False
        x = pin[1]
        if x == a:
            return True


def _ref_entry_usable(g, state, a, b):
    arc = (a, b)
    if arc in state.exit_arcs:
        return False
    pin = state.entry.get(b)
    if pin is not None and pin != arc:
        return False
    return not _ref_entry_would_cycle(state, a, b)


def _ref_exit_usable(g, state, a, b):
    arc = (a, b)
    if arc in state.entry_arcs:
        return False
    pin = state.exit.get(a)
    if pin is not None and pin != arc:
        return False
    return not _ref_exit_would_cycle(state, a, b)


def _ref_entry_candidates(g, state, w):
    return [(a, w) for a in bits(g.in_masks[w]) if _ref_entry_usable(g, state, a, w)]


def _ref_exit_candidates(g, state, w):
    return [(w, b) for b in bits(g.out_masks[w]) if _ref_exit_usable(g, state, w, b)]


def _ref_usable(g, state, side):
    usable = _ref_entry_usable if side == "out" else _ref_exit_usable
    return Digraph(g.n, [arc for arc in g.arcs() if usable(g, state, *arc)])


def _ref_pin_entry(state, arc):
    state.entry[arc[1]] = arc
    state.entry_arcs.add(arc)


def _ref_pin_exit(state, arc):
    state.exit[arc[0]] = arc
    state.exit_arcs.add(arc)


def _ref_force_trace(g, u, v):
    state = _RefState()
    trace = []

    def units(side):
        skip, pins, candidates, pin, only = (
            (u, state.entry, _ref_entry_candidates, _ref_pin_entry, "only-entry")
            if side == "out"
            else (v, state.exit, _ref_exit_candidates, _ref_pin_exit, "only-exit")
        )
        for w in range(g.n):
            if w == skip or w in pins:
                continue
            cands = candidates(g, state, w)
            if not cands:
                trace.append((side, "stuck", w, -1))
                return "blocked"
            if len(cands) == 1:
                pin(state, cands[0])
                trace.append((side, only, *cands[0]))
        return None

    def cuts(side):
        span, start, pinned, pin, rule = (
            (reach_mask, 1 << u, state.entry_arcs, _ref_pin_entry, "cut-entry")
            if side == "out"
            else (coreach_mask, 1 << v, state.exit_arcs, _ref_pin_exit, "cut-exit")
        )
        h = _ref_usable(g, state, side)
        seen = span(h, start)
        if seen != g.full_mask:
            missing = (g.full_mask & ~seen).bit_length() - 1
            trace.append((side, "severed", missing, -1))
            return "blocked"
        for arc in h.arcs():
            if arc in pinned:
                continue
            if span(h.without_arcs({arc}), start) != g.full_mask:
                pin(state, arc)
                trace.append((side, rule, *arc))
                return None
        return None

    while True:
        before = len(trace)
        for phase, side in ((units, "out"), (units, "in"), (cuts, "out"), (cuts, "in")):
            if phase(side) == "blocked":
                return "blocked", tuple(trace)
        if len(trace) == before:
            return "open", tuple(trace)


def _ref_replay(g, u, v, trace):
    state = _RefState()
    steps = tuple(trace)
    if not steps:
        return "empty trace proves nothing"
    for index, step in enumerate(steps):
        if len(step) != 4:
            return f"malformed step {step!r}"
        side, rule, x, y = step
        last = index == len(steps) - 1
        if rule in _RULES[:4]:
            if last:
                return "trace ends without a contradiction"
        elif not last:
            return "contradiction before the end of the trace"
        if side == "out":
            if rule == "only-entry":
                if y == u:
                    return "entry pin targets the out-root"
                if _ref_entry_candidates(g, state, y) != [(x, y)]:
                    return f"vertex {y} has other usable entries"
                _ref_pin_entry(state, (x, y))
            elif rule == "cut-entry":
                h = _ref_usable(g, state, "out")
                if not h.has_arc(x, y):
                    return f"arc {(x, y)} is not usable"
                if reach_mask(h.without_arcs({(x, y)}), 1 << u) == g.full_mask:
                    return f"arc {(x, y)} is not a necessity"
                _ref_pin_entry(state, (x, y))
            elif rule == "stuck":
                if x == u or x in state.entry:
                    return "stuck vertex is pinned or the root"
                if _ref_entry_candidates(g, state, x):
                    return f"vertex {x} still has a usable entry"
            elif rule == "severed":
                if reach_mask(_ref_usable(g, state, "out"), 1 << u) & (1 << x):
                    return f"vertex {x} is still reachable"
            else:
                return f"unknown rule {rule!r}"
        elif side == "in":
            if rule == "only-exit":
                if x == v:
                    return "exit pin leaves the in-root"
                if _ref_exit_candidates(g, state, x) != [(x, y)]:
                    return f"vertex {x} has other usable exits"
                _ref_pin_exit(state, (x, y))
            elif rule == "cut-exit":
                h = _ref_usable(g, state, "in")
                if not h.has_arc(x, y):
                    return f"arc {(x, y)} is not usable"
                if coreach_mask(h.without_arcs({(x, y)}), 1 << v) == g.full_mask:
                    return f"arc {(x, y)} is not a necessity"
                _ref_pin_exit(state, (x, y))
            elif rule == "stuck":
                if x == v or x in state.exit:
                    return "stuck vertex is pinned or the root"
                if _ref_exit_candidates(g, state, x):
                    return f"vertex {x} still has a usable exit"
            elif rule == "severed":
                if coreach_mask(_ref_usable(g, state, "in"), 1 << v) & (1 << x):
                    return f"vertex {x} can still reach the in-root"
            else:
                return f"unknown rule {rule!r}"
        else:
            return f"unknown side {side!r}"
    return None


_RULES = ("only-entry", "cut-entry", "only-exit", "cut-exit", "stuck", "severed")


def _forge(trace, n, rng):
    """One in-range variant: a step's side, rule or vertex changed, a
    step dropped or a dead end appended; a stuck or severed step keeps -1."""
    steps = list(trace)
    i = rng.randrange(len(steps))
    side, rule, x, y = steps[i]
    move = rng.randrange(5)
    if move == 0:
        side = rng.choice(("out", "in", "sideways"))
    elif move == 1:
        rule = rng.choice(_RULES + ("bogus",))
    elif move == 2:
        x = rng.randrange(n)
    elif move == 3:
        del steps[i]
        return steps
    else:
        steps.append((rng.choice(("out", "in")), rng.choice(("stuck", "severed")),
                      rng.randrange(n), -1))
        return steps
    if rule in ("stuck", "severed"):
        y = -1
    elif y == -1:
        y = rng.randrange(n)
    steps[i] = (side, rule, x, y)
    return steps


def test_one_sided_rules_agree_with_the_two_sided_reference():
    rng = random.Random(7)
    queries = forged = 0
    for seed in (*range(60), 908, 943):
        flat = random_composition(seed).flatten()
        for u in range(flat.n):
            for v in range(flat.n):
                status, trace = force_trace(flat, u, v)
                assert (status, trace) == _ref_force_trace(flat, u, v), (seed, u, v)
                variants = [trace]
                if trace:
                    variants += [_forge(trace, flat.n, rng) for _ in range(6)]
                for steps in variants:
                    assert replay(flat, u, v, steps) == _ref_replay(flat, u, v, steps)
                queries += 1
                forged += len(variants) - 1
    assert queries == 1354 and forged > 4000


def _full_cut_scan(h, side, root, pinned):
    """The cut scan `forcing.cuts` ran before the tree scan: every arc of
    h in order, skipping the pinned ones, one span with it banned each."""
    span = reach_mask if side == 0 else coreach_mask
    for arc in h.arcs():
        if arc not in pinned and span(h.without_arcs({arc}), 1 << root) != h.full_mask:
            return arc
    return None


def _pinned_states(rng, g):
    """Forcing states on g, pinned one random usable arc on a random side
    at a time, as the rules pin them; the state is shared between yields."""
    state = _State()
    yield state
    for _ in range(rng.randint(1, g.n)):
        side = rng.randrange(2)
        arcs = [a for a in g.arcs() if state.usable(side, a)]
        if not arcs:
            return
        state.pin(side, rng.choice(arcs))
        yield state


def test_tree_cut_scan_matches_the_full_scan_on_usable_digraphs():
    # usable digraphs of random pin states on flattened compositions and
    # random digraphs, every root that spans one; the rows must hold the
    # arcs `usable` admits, and the scan must find the full scan's arc
    rng = random.Random("cut-scan")
    graphs = [random_composition(seed).flatten() for seed in range(80)]
    for n in range(3, 13):
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        for p in (0.3, 0.5, 0.8):
            graphs.append(Digraph(n, [ab for ab in pairs if rng.random() < p]))
    scans = cuts = 0
    for g in graphs:
        for state in _pinned_states(rng, g):
            for side, kind, span in ((0, "out", reach_mask), (1, "in", coreach_mask)):
                h = state.usable_digraph(g, side)
                want = Digraph(g.n, [a for a in g.arcs() if state.usable(side, a)])
                assert (h.out_masks, h.in_masks) == (want.out_masks, want.in_masks)
                for root in range(g.n):
                    if span(h, 1 << root) != g.full_mask:
                        continue
                    pinned = state.arcs[side]
                    found = _full_cut_scan(h, side, root, pinned)
                    assert first_cut(h, root, kind, skip=pinned) == found, (g, root)
                    scans += 1
                    cuts += found is not None
    assert scans > 4000 and cuts > 1500
