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
per other vertex).  Pins on one side ban the arc on the other.  Each
rule is written once for both: a side sees an arc as (key, other),
where key is the vertex the arc enters (out) or leaves (in).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .branchings import first_cut
from .digraph import Arc, Digraph, bits, coreach_mask, reach_mask
from .errors import InvalidInput

Step = tuple[str, str, int, int]

ONLY_ENTRY = "only-entry"
CUT_ENTRY = "cut-entry"
ONLY_EXIT = "only-exit"
CUT_EXIT = "cut-exit"
STUCK = "stuck"
SEVERED = "severed"

_PIN_RULES = (ONLY_ENTRY, CUT_ENTRY, ONLY_EXIT, CUT_EXIT)


class _Side(NamedTuple):
    """One branching's trace name, span function, rules and replay words."""

    name: str
    span: Callable[..., int]
    only: str
    cut: str
    one: str
    many: str
    root_pin: str
    severed: str


_SIDES = (
    _Side("out", reach_mask, ONLY_ENTRY, CUT_ENTRY, "entry", "entries",
          "entry pin targets the out-root", "is still reachable"),
    _Side("in", coreach_mask, ONLY_EXIT, CUT_EXIT, "exit", "exits",
          "exit pin leaves the in-root", "can still reach the in-root"),
)
_NAMES = tuple(s.name for s in _SIDES)


def _ends(side: int, pair: tuple[int, int]) -> tuple[int, int]:
    """An arc as (key, other) on this side, and (key, other) as an arc."""
    return (pair[1], pair[0]) if side == 0 else pair


class _State:
    """Per side (0 out, 1 in): pinned other end by key, pinned arcs."""

    __slots__ = ("pins", "arcs")

    def __init__(self):
        self.pins: tuple[dict[int, int], dict[int, int]] = ({}, {})
        self.arcs: tuple[set[Arc], set[Arc]] = (set(), set())

    def usable(self, side: int, arc: Arc) -> bool:
        if arc in self.arcs[1 - side]:
            return False
        pins = self.pins[side]
        key, x = _ends(side, arc)
        pin = pins.get(key)
        if pin is not None and pin != x:
            return False
        # pins chain each vertex to its parent (out) or successor (in);
        # the arc closes a cycle when key lies on that chain from other
        while (x := pins.get(x)) is not None:
            if x == key:
                return False
        return True

    def candidates(self, g: Digraph, side: int, key: int) -> list[Arc]:
        row = (g.in_masks if side == 0 else g.out_masks)[key]
        arcs = [_ends(side, (key, other)) for other in bits(row)]
        return [arc for arc in arcs if self.usable(side, arc)]

    def usable_digraph(self, g: Digraph, side: int) -> Digraph:
        """The arcs one side may still use, as a digraph of their own:
        g less the arcs `usable` refuses, the other side's pins, the arcs
        at a pinned key other than its pin, and the arcs (key, x) whose
        key lies on x's pin chain."""
        pins = self.pins[side]
        key_rows = g.in_masks if side == 0 else g.out_masks
        refused = list(self.arcs[1 - side])
        for key, pin in pins.items():
            others = key_rows[key] & ~(1 << pin)
            refused += [_ends(side, (key, x)) for x in bits(others)]
        for x in pins:
            key = x
            while (key := pins.get(key)) is not None:
                refused.append(_ends(side, (key, x)))
        return g.without_arcs(refused)

    def pin(self, side: int, arc: Arc) -> None:
        key, other = _ends(side, arc)
        self.pins[side][key] = other
        self.arcs[side].add(arc)


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
    roots = (u, v)

    def units(side: int) -> str | None:
        s = _SIDES[side]
        for w in range(g.n):
            if w == roots[side] or w in state.pins[side]:
                continue
            cands = state.candidates(g, side, w)
            if not cands:
                trace.append((s.name, STUCK, w, -1))
                return "blocked"
            if len(cands) == 1:
                state.pin(side, cands[0])
                trace.append((s.name, s.only, *cands[0]))
        return None

    def cuts(side: int) -> str | None:
        s = _SIDES[side]
        h = state.usable_digraph(g, side)
        seen = s.span(h, 1 << roots[side])
        if seen != g.full_mask:
            missing = (g.full_mask & ~seen).bit_length() - 1
            trace.append((s.name, SEVERED, missing, -1))
            return "blocked"
        arc = first_cut(h, roots[side], s.name, skip=state.arcs[side])
        if arc is not None:
            state.pin(side, arc)
            trace.append((s.name, s.cut, *arc))
        return None

    while True:
        before = len(trace)
        for phase, side in ((units, 0), (units, 1), (cuts, 0), (cuts, 1)):
            if phase(side) == "blocked":
                return "blocked", tuple(trace)
        if len(trace) == before:
            return "open", tuple(trace)


def replay(g: Digraph, u: int, v: int, trace) -> str | None:
    """None if the trace is a valid blocked derivation, else a reason.

    Each step's precondition is re-established from the state the
    earlier steps build up, so a fabricated trace is rejected even if
    it ends with a contradiction marker.  A step names a side, a rule
    and an arc; a stuck or severed step names one vertex and -1.
    """
    if not (0 <= u < g.n and 0 <= v < g.n):
        return "roots out of range"
    state = _State()
    steps = tuple(trace)
    if not steps:
        return "empty trace proves nothing"
    for index, step in enumerate(steps):
        if not isinstance(step, (tuple, list)) or len(step) != 4:
            return f"malformed step {step!r}"
        name, rule, x, y = step
        dead_end = rule in (STUCK, SEVERED)
        if not g.is_vertex(x) or not (
            isinstance(y, int) and y == -1 if dead_end else g.is_vertex(y)
        ):
            return f"malformed step {step!r}"
        last = index == len(steps) - 1
        if rule in _PIN_RULES:
            if last:
                return "trace ends without a contradiction"
        elif not last:
            return "contradiction before the end of the trace"
        if name not in _NAMES:
            return f"unknown side {name!r}"
        side = _NAMES.index(name)
        s, root = _SIDES[side], (u, v)[side]
        if rule == s.only:
            key = _ends(side, (x, y))[0]
            if key == root:
                return s.root_pin
            if state.candidates(g, side, key) != [(x, y)]:
                return f"vertex {key} has other usable {s.many}"
            state.pin(side, (x, y))
        elif rule == s.cut:
            h = state.usable_digraph(g, side)
            if not h.has_arc(x, y):
                return f"arc {(x, y)} is not usable"
            if s.span(h.without_arcs([(x, y)]), 1 << root) == g.full_mask:
                return f"arc {(x, y)} is not a necessity"
            state.pin(side, (x, y))
        elif rule == STUCK:
            if x == root or x in state.pins[side]:
                return "stuck vertex is pinned or the root"
            if state.candidates(g, side, x):
                return f"vertex {x} still has a usable {s.one}"
        elif rule == SEVERED:
            if s.span(state.usable_digraph(g, side), 1 << root) & (1 << x):
                return f"vertex {x} {s.severed}"
        else:
            return f"unknown rule {rule!r}"
    return None
