"""Forced-arc propagation for the two-branching problem.

Any arc-disjoint pair (out-branching at u, in-branching at v) obeys
unit and cut consequences: a vertex with one usable entry pins that
arc into the out-branching, a vertex with one usable exit pins it
into the in-branching, and an arc whose removal severs the remaining
reachability is pinned as well.  Saturating these rules either stops
with no contradiction or proves no pair exists; the recorded trace
replays step by step against the definitions, so a blocked verdict
does not rely on trusting the engine that produced it.

Sides: "out" is the out-branching rooted at u (one entry arc per
other vertex), "in" is the in-branching rooted at v (one exit arc
per other vertex).  Pins on one side ban the arc on the other.
"""

from __future__ import annotations

from .digraph import Arc, Digraph, bits, coreach_mask, reach_mask
from .errors import InvalidInput

Step = tuple[str, str, int, int]

ONLY_ENTRY = "only-entry"
CUT_ENTRY = "cut-entry"
ONLY_EXIT = "only-exit"
CUT_EXIT = "cut-exit"
STUCK = "stuck"
SEVERED = "severed"

_PIN_RULES = {ONLY_ENTRY, CUT_ENTRY, ONLY_EXIT, CUT_EXIT}


class _State:
    """Pinned entries (out side) and exits (in side) plus arc sets."""

    __slots__ = ("entry", "exit", "entry_arcs", "exit_arcs")

    def __init__(self):
        self.entry: dict[int, Arc] = {}
        self.exit: dict[int, Arc] = {}
        self.entry_arcs: set[Arc] = set()
        self.exit_arcs: set[Arc] = set()


def _entry_would_cycle(state: _State, a: int, b: int) -> bool:
    # entry pins chain each vertex to its parent; arc a->b cycles when
    # b is an ancestor of a along that chain
    x = a
    while True:
        pin = state.entry.get(x)
        if pin is None:
            return False
        x = pin[0]
        if x == b:
            return True


def _exit_would_cycle(state: _State, a: int, b: int) -> bool:
    x = b
    while True:
        pin = state.exit.get(x)
        if pin is None:
            return False
        x = pin[1]
        if x == a:
            return True


def _entry_usable(g: Digraph, state: _State, a: int, b: int) -> bool:
    arc = (a, b)
    if arc in state.exit_arcs:
        return False
    pin = state.entry.get(b)
    if pin is not None and pin != arc:
        return False
    return not _entry_would_cycle(state, a, b)


def _exit_usable(g: Digraph, state: _State, a: int, b: int) -> bool:
    arc = (a, b)
    if arc in state.entry_arcs:
        return False
    pin = state.exit.get(a)
    if pin is not None and pin != arc:
        return False
    return not _exit_would_cycle(state, a, b)


def _entry_candidates(g: Digraph, state: _State, w: int) -> list[Arc]:
    return [(a, w) for a in bits(g.in_masks[w]) if _entry_usable(g, state, a, w)]


def _exit_candidates(g: Digraph, state: _State, w: int) -> list[Arc]:
    return [(w, b) for b in bits(g.out_masks[w]) if _exit_usable(g, state, w, b)]


def _usable(g: Digraph, state: _State, side: str) -> Digraph:
    """The arcs one side may still use, as a digraph of their own."""
    usable = _entry_usable if side == "out" else _exit_usable
    return Digraph(g.n, [arc for arc in g.arcs() if usable(g, state, *arc)])


def _pin_entry(state: _State, arc: Arc) -> None:
    state.entry[arc[1]] = arc
    state.entry_arcs.add(arc)


def _pin_exit(state: _State, arc: Arc) -> None:
    state.exit[arc[0]] = arc
    state.exit_arcs.add(arc)


def force_trace(g: Digraph, u: int, v: int) -> tuple[str, tuple[Step, ...]]:
    """Saturate the forcing rules; ("blocked"|"open", trace).

    A "blocked" trace ends with a stuck vertex (no usable entry or
    exit) or a severed one (unreachable however the free arcs are
    spent); every earlier step pins an arc.  An "open" result proves
    nothing about existence.
    """
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise InvalidInput("roots out of range")
    state = _State()
    trace: list[Step] = []

    def units(side: str) -> str | None:
        skip, pins, candidates, pin, only = (
            (u, state.entry, _entry_candidates, _pin_entry, ONLY_ENTRY)
            if side == "out"
            else (v, state.exit, _exit_candidates, _pin_exit, ONLY_EXIT)
        )
        for w in range(g.n):
            if w == skip or w in pins:
                continue
            cands = candidates(g, state, w)
            if not cands:
                trace.append((side, STUCK, w, -1))
                return "blocked"
            if len(cands) == 1:
                pin(state, cands[0])
                trace.append((side, only, *cands[0]))
        return None

    def cuts(side: str) -> str | None:
        span, start, pinned, pin, rule = (
            (reach_mask, 1 << u, state.entry_arcs, _pin_entry, CUT_ENTRY)
            if side == "out"
            else (coreach_mask, 1 << v, state.exit_arcs, _pin_exit, CUT_EXIT)
        )
        h = _usable(g, state, side)
        seen = span(h, start)
        if seen != g.full_mask:
            missing = (g.full_mask & ~seen).bit_length() - 1
            trace.append((side, SEVERED, missing, -1))
            return "blocked"
        for arc in h.arcs():
            if arc in pinned:
                continue
            if span(h, start, banned={arc}) != g.full_mask:
                pin(state, arc)
                trace.append((side, rule, *arc))
                return None
        return None

    while True:
        before = len(trace)
        for phase, side in (
            (units, "out"),
            (units, "in"),
            (cuts, "out"),
            (cuts, "in"),
        ):
            if phase(side) == "blocked":
                return "blocked", tuple(trace)
        if len(trace) == before:
            return "open", tuple(trace)


def replay(g: Digraph, u: int, v: int, trace) -> str | None:
    """None if the trace is a valid blocked derivation, else a reason.

    Each step's precondition is re-established from the state the
    earlier steps build up, so a fabricated trace is rejected even if
    it ends with a contradiction marker.
    """
    if not (0 <= u < g.n and 0 <= v < g.n):
        return "roots out of range"
    state = _State()
    steps = tuple(trace)
    if not steps:
        return "empty trace proves nothing"
    for index, step in enumerate(steps):
        if len(step) != 4:
            return f"malformed step {step!r}"
        side, rule, x, y = step
        last = index == len(steps) - 1
        if rule in _PIN_RULES:
            if last:
                return "trace ends without a contradiction"
        elif not last:
            return "contradiction before the end of the trace"
        if side == "out":
            if rule == ONLY_ENTRY:
                if y == u:
                    return "entry pin targets the out-root"
                if _entry_candidates(g, state, y) != [(x, y)]:
                    return f"vertex {y} has other usable entries"
                _pin_entry(state, (x, y))
            elif rule == CUT_ENTRY:
                h = _usable(g, state, "out")
                if not h.has_arc(x, y):
                    return f"arc {(x, y)} is not usable"
                if reach_mask(h, 1 << u, banned={(x, y)}) == g.full_mask:
                    return f"arc {(x, y)} is not a necessity"
                _pin_entry(state, (x, y))
            elif rule == STUCK:
                if x == u or x in state.entry:
                    return "stuck vertex is pinned or the root"
                if _entry_candidates(g, state, x):
                    return f"vertex {x} still has a usable entry"
            elif rule == SEVERED:
                if reach_mask(_usable(g, state, "out"), 1 << u) & (1 << x):
                    return f"vertex {x} is still reachable"
            else:
                return f"unknown rule {rule!r}"
        elif side == "in":
            if rule == ONLY_EXIT:
                if x == v:
                    return "exit pin leaves the in-root"
                if _exit_candidates(g, state, x) != [(x, y)]:
                    return f"vertex {x} has other usable exits"
                _pin_exit(state, (x, y))
            elif rule == CUT_EXIT:
                h = _usable(g, state, "in")
                if not h.has_arc(x, y):
                    return f"arc {(x, y)} is not usable"
                if coreach_mask(h, 1 << v, banned={(x, y)}) == g.full_mask:
                    return f"arc {(x, y)} is not a necessity"
                _pin_exit(state, (x, y))
            elif rule == STUCK:
                if x == v or x in state.exit:
                    return "stuck vertex is pinned or the root"
                if _exit_candidates(g, state, x):
                    return f"vertex {x} still has a usable exit"
            elif rule == SEVERED:
                if coreach_mask(_usable(g, state, "in"), 1 << v) & (1 << x):
                    return f"vertex {x} can still reach the in-root"
            else:
                return f"unknown rule {rule!r}"
        else:
            return f"unknown side {side!r}"
    return None
