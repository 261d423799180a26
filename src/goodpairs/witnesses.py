"""Layered cut obstructions that block good pairs in strong semicomplete digraphs.

A witness is an ordered partition V_1 (bottom) .. V_p (top) of a strong
semicomplete digraph in which every arc between levels goes upward except
for a short chain of designated backward arcs.  The out-root sits near the
top, the in-root near the bottom, so the branchings are forced through the
backward chain and collide there.

Kind A uses an odd number of levels 2a+1 with backward arc i jumping two
levels down, from V_{2a+2-i} to V_{2a-i}; the out-root lies in V_{2a} and
the in-root in V_2.  Kind B uses b+1 levels with backward arc i dropping
one level, from V_{b+2-i} to V_{b+1-i}; the out-root lies at the very top
and the in-root at the very bottom, and consecutive backward arcs are
linked by two arc-disjoint paths inside the level they share.
"""

from __future__ import annotations

from dataclasses import dataclass

from .branchings import _bfs, _may_cut
from .composition import is_semicomplete
from .digraph import (
    Arc,
    Digraph,
    bits,
    coreach_mask,
    reach_mask,
    strong_components,
    unit_flow,
)
from .errors import ResourceExceeded

DEFAULT_WITNESS_BUDGET = 200_000


@dataclass(frozen=True)
class TypeABWitness:
    kind: str  # "A" or "B"
    sets: tuple[int, ...]  # level masks, bottom (V_1) to top (V_p)
    backward_arcs: tuple[Arc, ...]  # arc i at index i-1, top-down
    a: int  # intended out-root
    b: int  # intended in-root

    @property
    def p(self) -> int:
        return len(self.sets)

    @property
    def alpha(self) -> int:
        return (self.p - 1) // 2

    @property
    def beta(self) -> int:
        return self.p - 1

    def source_level(self, j: int) -> int:
        """0-based level index holding x_{j+1}."""
        return self.p - 1 - j

    def target_level(self, j: int) -> int:
        """0-based level index holding y_{j+1}."""
        if self.kind == "A":
            return self.p - 3 - j
        return self.p - 2 - j


def _partition_violation(g: Digraph, w: TypeABWitness) -> str | None:
    cover = 0
    for m in w.sets:
        if not m:
            return "empty level"
        if cover & m:
            return "levels overlap"
        cover |= m
    if cover != g.full_mask:
        return "levels do not cover the vertex set"
    return None


def _level_index(w: TypeABWitness) -> dict[int, int]:
    idx = {}
    for i, m in enumerate(w.sets):
        for v in bits(m):
            idx[v] = i
    return idx


def _backward_arc_violation(g: Digraph, w: TypeABWitness) -> str | None:
    for arc in w.backward_arcs:
        if not g.is_arc(arc):
            return f"designated arc {arc} missing from the digraph"
    if len(set(w.backward_arcs)) != len(w.backward_arcs):
        return "repeated designated arc"
    for j, (x, y) in enumerate(w.backward_arcs):
        if not w.sets[w.source_level(j)] >> x & 1:
            return f"x_{j + 1} = {x} on the wrong level"
        if not w.sets[w.target_level(j)] >> y & 1:
            return f"y_{j + 1} = {y} on the wrong level"
    idx = _level_index(w)
    designated = set(w.backward_arcs)
    for a, b in g.arcs():
        if idx[a] > idx[b] and (a, b) not in designated:
            return f"undesignated downward arc ({a},{b})"
    return None


def _in_initial_component(g: Digraph, mask: int, v: int) -> bool:
    """Whether v's strong component in g[mask] is initial: every vertex
    of mask that reaches v inside it is reached from v."""
    reach = reach_mask(g, 1 << v, mask)
    return bool(reach >> v & 1) and not coreach_mask(g, 1 << v, mask) & ~reach


def _in_terminal_component(g: Digraph, mask: int, v: int) -> bool:
    """Whether v's strong component in g[mask] is terminal: every vertex
    of mask that v reaches inside it reaches v."""
    coreach = coreach_mask(g, 1 << v, mask)
    return bool(coreach >> v & 1) and not reach_mask(g, 1 << v, mask) & ~coreach


def validate_type_a(g: Digraph, w: TypeABWitness) -> str | None:
    """None iff w is a valid kind-A witness for roots (w.a, w.b) in g."""
    if w.kind != "A":
        return "wrong kind"
    if not is_semicomplete(g):
        return "host digraph is not semicomplete"
    if w.p < 3 or w.p % 2 == 0:
        return f"kind A needs an odd number of levels >= 3, got {w.p}"
    if len(w.backward_arcs) != w.p - 2:
        return f"kind A with {w.p} levels needs {w.p - 2} designated arcs"
    reason = _partition_violation(g, w)
    if reason:
        return reason
    if not w.sets[1] >> w.b & 1:
        return f"in-root {w.b} not on level 2"
    if not w.sets[w.p - 2] >> w.a & 1:
        return f"out-root {w.a} not on level {w.p - 1}"
    reason = _backward_arc_violation(g, w)
    if reason:
        return reason
    for j, (x, y) in enumerate(w.backward_arcs):
        if not _in_terminal_component(g, w.sets[w.source_level(j)], x):
            return f"x_{j + 1} = {x} outside the terminal component of its level"
        if not _in_initial_component(g, w.sets[w.target_level(j)], y):
            return f"y_{j + 1} = {y} outside the initial component of its level"
    return None


def validate_type_b(g: Digraph, w: TypeABWitness) -> str | None:
    """None iff w is a valid kind-B witness for roots (w.a, w.b) in g."""
    if w.kind != "B":
        return "wrong kind"
    if not is_semicomplete(g):
        return "host digraph is not semicomplete"
    if w.p < 2:
        return "kind B needs at least two levels"
    if len(w.backward_arcs) != w.p - 1:
        return f"kind B with {w.p} levels needs {w.p - 1} designated arcs"
    reason = _partition_violation(g, w)
    if reason:
        return reason
    if w.a == w.b:
        return "kind B needs distinct roots"
    if not w.sets[0] >> w.b & 1:
        return f"in-root {w.b} not on the bottom level"
    if not w.sets[w.p - 1] >> w.a & 1:
        return f"out-root {w.a} not on the top level"
    reason = _backward_arc_violation(g, w)
    if reason:
        return reason
    x1 = w.backward_arcs[0][0]
    if not _in_terminal_component(g, w.sets[w.p - 1], x1):
        return f"x_1 = {x1} outside the terminal component of the top level"
    y_last = w.backward_arcs[-1][1]
    if not _in_initial_component(g, w.sets[0], y_last):
        return f"y_{w.beta} = {y_last} outside the initial component of the bottom level"
    for j in range(1, len(w.backward_arcs)):
        prev_y = w.backward_arcs[j - 1][1]
        x = w.backward_arcs[j][0]
        level = w.sets[w.source_level(j)]
        if prev_y == x:
            continue
        k = unit_flow(g, 1 << prev_y, x, within=level, cap=2)
        if k < 2:
            return (
                f"only {k} arc-disjoint paths from y_{j} = {prev_y} "
                f"to x_{j + 1} = {x} inside their level"
            )
    return None


def validate_witness(g: Digraph, w: TypeABWitness) -> str | None:
    return validate_type_a(g, w) if w.kind == "A" else validate_type_b(g, w)


def arc_condition(flat: Digraph, masks: list[int], arc: Arc) -> bool:
    """Does a designated quotient arc stay blocking after substitution?

    `masks` are the part masks of the flat digraph, in quotient order.
    A backward arc x -> y keeps its blocking power when every vertex of
    a non-trivial tail part has a unique out-arc in the flat digraph and
    every vertex of a non-trivial head part a unique in-arc; so always
    when both end parts are trivial.
    """
    tail, head = masks[arc[0]], masks[arc[1]]
    if tail.bit_count() >= 2 and any(flat.out_degree(w) != 1 for w in bits(tail)):
        return False
    if head.bit_count() >= 2 and any(flat.in_degree(w) != 1 for w in bits(head)):
        return False
    return True


def _closed_supersets(
    g: Digraph, required: int, excluded: int, banned: set[Arc], counter, budget: int
):
    """In-closed vertex sets of g - banned containing required, avoiding excluded.

    In-closed means no arc of g - banned enters the set, so every yielded
    set is a union of strong components closed under predecessors.  The
    walk decides each component in acyclic order: it is required when it
    meets required's in-closure, and it can join once the tails of its
    entering arcs have, which the mask built so far shows.
    """
    h = g.without_arcs(banned) if banned else g
    base = coreach_mask(h, required)
    if base & excluded:
        return
    components = strong_components(h)
    t = len(components)
    entering = []
    for m in components:
        tails = 0
        for b in bits(m):
            tails |= h.in_masks[b]
        entering.append(tails & ~m)

    def rec(i: int, mask: int):
        counter[0] += 1
        if counter[0] > budget:
            raise ResourceExceeded(
                f"witness enumeration budget of {budget} nodes exhausted at n={g.n}"
            )
        if i == t:
            yield mask
            return
        m = components[i]
        can_take = not m & excluded and not entering[i] & ~mask
        if m & base:
            if can_take:
                yield from rec(i + 1, mask | m)
            return
        yield from rec(i + 1, mask)
        if can_take:
            yield from rec(i + 1, mask | m)

    yield from rec(0, 0)


def _opens(g: Digraph, u: int, crossing: Arc | None = None) -> list[Arc]:
    """The arcs f, in g.arcs() order, on which a `_closed_supersets` call
    that bans f and `crossing`, excludes u and requires f's head can yield.

    The call returns before it counts a node when u still reaches f's
    head in g - crossing - f.  With u's BFS out-tree in g - crossing,
    that holds when f is off the tree and its head on it, and when f is
    a tree arc that fails the level test (`branchings._may_cut`): its
    head has another in-neighbour no deeper than itself.  What is left
    are the arcs into heads the tree misses and the tree arcs that pass
    the test, at most n-1 arcs when u spans.  The tree arc into the
    crossing's head is kept untested, as the test would count the
    crossing's tail as such a neighbour.
    """
    ban = crossing and [1 << crossing[1] if x == crossing[0] else 0 for x in range(g.n)]
    reached, parent, upto = _bfs(g, u, ban=ban)
    missed = g.full_mask & ~reached
    opens = [(x, y) for y in bits(missed) for x in bits(g.in_masks[y])]
    head = crossing[1] if crossing else -1
    for y, x in enumerate(parent):
        if x >= 0 and (y == head or _may_cut(g, "out", upto, (x, y))):
            opens.append((x, y))
    opens.sort()
    return opens


def iter_type_a(
    g: Digraph, u: int, v: int, budget: int = DEFAULT_WITNESS_BUDGET
):
    """All kind-A witnesses of g with out-root u and in-root v.

    Every designated-arc loop excludes u and requires the new arc's
    head, so it visits only the arcs `_opens` lists for the arcs already
    banned (the crossing arc in `grow`, none in the first loop): off u's
    BFS out-tree, an arc whose head the tree reaches cannot open, nor a
    tree arc whose head has another in-neighbour no deeper than itself
    (the level test).  Skipped calls count no node and the lists keep
    the order of g.arcs(), so the witnesses, their order and the budget
    used are those of a loop over every arc.
    """
    counter = [0]
    full = g.full_mask
    opening: dict[Arc, list[Arc]] = {}  # per crossing arc

    def close(prefix: int, level: int, sets: list[int], intro: list[Arc]):
        # level = index of the level being created = 2a; the arc introduced
        # two levels below lands here, the last one lands on top
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
                kind="A",
                sets=tuple(sets + [new_level, top]),
                backward_arcs=tuple(reversed(intro)),
                a=u,
                b=v,
            )

    def grow(prefix: int, level: int, sets: list[int], intro: list[Arc]):
        # option 1: this level is V_{2a}, close the witness
        yield from close(prefix, level, sets, intro)
        # option 2: keep stacking with a fresh designated arc into this level
        landing = intro[level - 3][0] if level >= 3 else None
        crossing = intro[level - 2]
        if crossing not in opening:
            opening[crossing] = _opens(g, u, crossing)
        for f in opening[crossing]:
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

    for e in _opens(g, u):
        xe, ye = e
        if ye in (u, v):
            continue
        exclude = 1 << xe | 1 << u | 1 << v
        for w1 in _closed_supersets(g, 1 << ye, exclude, {e}, counter, budget):
            if not _in_initial_component(g, w1, ye):
                continue
            yield from grow(w1, 2, [w1], [e])


def iter_type_b(
    g: Digraph, u: int, v: int, budget: int = DEFAULT_WITNESS_BUDGET
):
    """All kind-B witnesses of g with out-root u and in-root v.

    As in `iter_type_a`, the loops visit only the arcs `_opens` lists;
    only the new arc is banned, so one list, from u's BFS out-tree in
    g, serves every loop.
    """
    if u == v:
        return
    counter = [0]
    full = g.full_mask
    opening = _opens(g, u)

    def close(prefix: int, sets: list[int], intro: list[Arc]):
        top = full & ~prefix
        x1 = intro[-1][0]
        if not top >> u & 1:
            return
        if not _in_terminal_component(g, top, x1):
            return
        yield TypeABWitness(
            kind="B",
            sets=tuple(sets + [top]),
            backward_arcs=tuple(reversed(intro)),
            a=u,
            b=v,
        )

    def grow(prefix: int, sets: list[int], intro: list[Arc]):
        yield from close(prefix, sets, intro)
        pending = intro[-1][0]
        for f in opening:
            if f in intro:
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

    for e in opening:
        xe, ye = e
        if ye == u or xe == v:
            continue
        for w1 in _closed_supersets(
            g, 1 << ye | 1 << v, 1 << xe | 1 << u, {e}, counter, budget
        ):
            if not _in_initial_component(g, w1, ye):
                continue
            yield from grow(w1, [w1], [e])
