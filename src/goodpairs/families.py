"""Instance generators: blocked families, witness hosts, random samplers.

Everything here is deterministic in its arguments; random variants take a
seed and build their own generator.  The constructions are used by the
test suite and by the command line generator, and none of them consults
the deciders, so engine-versus-oracle comparisons stay independent.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from .branchings import is_two_arc_strong
from .composition import (
    Composition,
    directed_cycle,
    independent,
    is_quasi_transitive,
    is_semicomplete,
    ring_tournament,
    singleton,
    transitive_tournament,
)
from .digraph import Arc, Digraph, is_strong
from .errors import InvalidInput
from .witnesses import TypeABWitness, validate_witness


def _star_into(size: int, arc_count: int) -> Digraph:
    """Part whose internal arcs all aim at local vertex 0."""
    if size > 0 and not 0 <= arc_count < size:
        raise InvalidInput(f"no star part of {size} vertices has {arc_count} arcs")
    return Digraph(size, [(i, 0) for i in range(1, min(size, arc_count + 1))])


def _star_out_of(size: int, arc_count: int) -> Digraph:
    return _star_into(size, arc_count).converse()


def family_a(back_arc: bool) -> tuple[Composition, int, int]:
    """Triangle over two independent pairs and the root part; the only
    blocked shape whose flattening is 2-arc-strong."""
    hub = Digraph(2, [(1, 0)] if back_arc else [])
    comp = Composition(directed_cycle(3), (independent(2), independent(2), hub))
    return comp, comp.flat_index(2, 0), comp.flat_index(2, 1)


def family_b(t: int, back_arc: bool) -> tuple[Composition, int, int]:
    """Source u over an independent middle over sink v, optional v -> u."""
    quotient = transitive_tournament(3)
    if back_arc:
        quotient = quotient.with_arcs([(2, 0)])
    comp = Composition(quotient, (singleton(), independent(t), singleton()))
    return comp, 0, comp.flat_index(2, 0)


def family_c(t: int, arcs: int) -> tuple[Composition, int, int]:
    """Triangle u -> middle -> v -> u with at most one arc in the middle."""
    if t > 0 and not 0 <= arcs <= min(1, t - 1):
        raise InvalidInput(f"no middle part of {t} vertices has {arcs} arcs")
    middle = Digraph(t, [(0, 1)] if arcs and t >= 2 else [])
    comp = Composition(directed_cycle(3), (singleton(), middle, singleton()))
    return comp, 0, comp.flat_index(2, 0)


def family_d(tu: int, ku: int, tv: int, kv: int) -> tuple[Composition, int, int]:
    """Triangle root-part -> root-part -> bottleneck vertex z."""
    comp = Composition(
        directed_cycle(3),
        (_star_into(tu, ku), _star_out_of(tv, kv), singleton()),
    )
    return comp, 0, comp.flat_index(1, 0)


def family_e4(t: int, hu: int, ku: int) -> tuple[Composition, int, int]:
    """Four-ring: independent block, bottleneck z, root part, sink root."""
    comp = Composition(
        ring_tournament(4),
        (independent(t), singleton(), _star_into(hu, ku), singleton()),
    )
    return comp, comp.flat_index(2, 0), comp.flat_index(3, 0)


def family_e5(
    head: Digraph, t: int, hu: int, ku: int
) -> tuple[Composition, int, int]:
    """Five-ring with a free head part before the independent block."""
    comp = Composition(
        ring_tournament(5),
        (head, independent(t), singleton(), _star_into(hu, ku), singleton()),
    )
    return comp, comp.flat_index(3, 0), comp.flat_index(4, 0)


def family_f(
    head: Digraph, orientations: tuple[str, ...], hu: int, ku: int
) -> tuple[Composition, int, int]:
    """Five-ring with a single buffer vertex whose arcs to the head part
    are re-oriented per vertex ("fwd", "back", or "both").

    The head part must be semicomplete so the instance stays expressible
    with singleton parts; the whole quotient must stay strong.
    """
    hs = head.n
    if len(orientations) != hs:
        raise InvalidInput("one orientation per head vertex")
    if not is_semicomplete(head):
        raise InvalidInput("head part must be semicomplete here")
    k, z, hu_q, v_q = hs, hs + 1, hs + 2, hs + 3
    arcs: list[Arc] = head.arcs()
    for h, mode in enumerate(orientations):
        if mode in ("fwd", "both"):
            arcs.append((h, k))
        if mode in ("back", "both"):
            arcs.append((k, h))
        if mode not in ("fwd", "back", "both"):
            raise InvalidInput(f"bad orientation {mode!r}")
    arcs.append((k, z))
    arcs.append((z, hu_q))
    arcs.append((hu_q, v_q))
    for h in range(hs):
        arcs.extend([(z, h), (hu_q, h), (v_q, h)])
    arcs.extend([(hu_q, k), (v_q, k), (v_q, z)])
    quotient = Digraph(hs + 4, arcs)
    if not is_strong(quotient):
        raise InvalidInput("re-orientation broke strong connectivity")
    parts = tuple(
        [singleton()] * (hs + 2) + [_star_into(hu, ku)] + [singleton()]
    )
    comp = Composition(quotient, parts)
    return comp, comp.flat_index(hu_q, 0), comp.flat_index(v_q, 0)


def family_g() -> tuple[Composition, int, int]:
    """The pinned four-vertex blocked digraph, one vertex per part."""
    from .semicomplete import EXCEPTION_PATTERNS

    pattern, pu, pv = EXCEPTION_PATTERNS["e"]
    comp = Composition(pattern, tuple(singleton() for _ in range(pattern.n)))
    return comp, pu, pv


def known_family_members():
    """Deterministic sweep of every family over the desk-scale grid."""
    for back in (False, True):
        yield "a", *family_a(back)
    for t in (1, 2, 3):
        for back in (False, True):
            yield "b", *family_b(t, back)
    for t in (1, 2, 3):
        for arcs in (0, 1) if t >= 2 else (0,):
            yield "c", *family_c(t, arcs)
    for tu, tv in product((1, 2, 3), repeat=2):
        if tu + tv + 1 > 7:
            continue
        for ku in range(tu):
            for kv in range(tv):
                yield "d", *family_d(tu, ku, tv, kv)
    for t in (1, 2, 3):
        for hu in (1, 2, 3):
            if t + hu + 2 > 8:
                continue
            for ku in range(hu):
                yield "e", *family_e4(t, hu, ku)
    heads = [Digraph(1, []), Digraph(2, [(0, 1)]), Digraph(2, [(0, 1), (1, 0)])]
    for head in heads:
        for t in (1, 2):
            for hu in (1, 2):
                if head.n + t + hu + 2 > 8:
                    continue
                for ku in range(hu):
                    yield "e", *family_e5(head, t, hu, ku)
    for head in heads:
        for modes in product(("fwd", "back", "both"), repeat=head.n):
            for hu in (1, 2):
                for ku in range(hu):
                    try:
                        yield "f", *family_f(head, modes, hu, ku)
                    except InvalidInput:
                        continue
    yield "g", *family_g()


def _layer_tournament(
    rng: random.Random, ids: list[int], first: int | None, last: int | None
) -> list[Arc]:
    """Transitive tournament over ids with pinned head and tail."""
    middle = [w for w in ids if w not in (first, last)]
    rng.shuffle(middle)
    order = [w for w in (first,) if w is not None] + middle
    if last is not None and last != first:
        order.append(last)
    return [(a, b) for i, a in enumerate(order) for b in order[i + 1 :]]


def kind_a_instance(seed: int) -> tuple[Digraph, TypeABWitness]:
    """Semicomplete host carrying a kind-A witness, roots a != b."""
    rng = random.Random(seed)
    alpha = rng.choice((1, 2))
    if alpha == 1:
        sizes = [rng.choice((1, 2)), rng.choice((2, 3)), rng.choice((2, 3))]
    else:
        while True:
            sizes = [rng.choice((1, 2)) for _ in range(5)]
            if sum(sizes) <= 8:
                break
    p = 2 * alpha + 1
    levels: list[list[int]] = []
    base = 0
    for s in sizes:
        levels.append(list(range(base, base + s)))
        base += s
    # arc i leaves the tail of level 2a+2-i and enters the head of 2a-i
    backward: list[Arc] = []
    x_of: dict[int, int] = {}
    y_of: dict[int, int] = {}
    for i in range(1, 2 * alpha):
        x_of[i] = levels[p + 1 - i - 1][-1]
        y_of[i] = levels[p - 1 - i - 1][0]
        backward.append((x_of[i], y_of[i]))
    arcs: list[Arc] = []
    designated_pairs = {frozenset(a) for a in backward}
    for lo in range(p):
        for hi in range(lo + 1, p):
            for a in levels[lo]:
                for b in levels[hi]:
                    if frozenset((a, b)) not in designated_pairs:
                        arcs.append((a, b))
    for x, y in backward:
        arcs.append((x, y))
        if rng.random() < 0.3:
            arcs.append((y, x))
    for li, ids in enumerate(levels):
        level_no = li + 1
        first = y_of.get(2 * alpha - level_no)
        last = x_of.get(2 * alpha + 2 - level_no)
        arcs.extend(_layer_tournament(rng, ids, first, last))
    g = Digraph(base, arcs)
    while True:
        if alpha == 1:
            a, b = rng.sample(levels[1], 2)
        else:
            a = rng.choice(levels[3])
            b = rng.choice(levels[1])
        # roots with a single incident arc would force that arc into both
        # branchings, ruling out the promised exact sharing
        if g.out_degree(a) >= 2 and g.in_degree(b) >= 2:
            break
    w = TypeABWitness(
        kind="A",
        sets=tuple(sum(1 << v for v in ids) for ids in levels),
        backward_arcs=tuple(backward),
        a=a,
        b=b,
    )
    err = validate_witness(g, w)
    assert err is None, err
    return g, w


def kind_b_instance(seed: int) -> tuple[Digraph, TypeABWitness]:
    """Semicomplete host carrying a kind-B witness with strongly tied
    level chords, so a pair sharing exactly the designated arcs exists."""
    rng = random.Random(seed)
    beta = rng.choice((1, 2, 3))
    # each level is either collapsed (entry equals exit) or a complete
    # triple giving two arc-disjoint routes between them
    while True:
        merged = [rng.random() < 0.6 for _ in range(beta + 1)]
        sizes = [1 if m else 3 for m in merged]
        if sum(sizes) <= 8:
            break
    levels: list[list[int]] = []
    base = 0
    for s in sizes:
        levels.append(list(range(base, base + s)))
        base += s
    backward = []
    x_of: dict[int, int] = {}
    y_of: dict[int, int] = {}
    for i in range(1, beta + 1):
        src = levels[beta + 1 - i]
        dst = levels[beta - i]
        x_of[i] = src[-1] if merged[beta + 1 - i] else src[1]
        y_of[i] = dst[0]
        backward.append((x_of[i], y_of[i]))
    arcs: list[Arc] = []
    designated_pairs = {frozenset(a) for a in backward}
    for lo in range(beta + 1):
        for hi in range(lo + 1, beta + 1):
            for a in levels[lo]:
                for b in levels[hi]:
                    if frozenset((a, b)) not in designated_pairs:
                        arcs.append((a, b))
    for x, y in backward:
        arcs.append((x, y))
    for ids in levels:
        arcs.extend((a, b) for a in ids for b in ids if a != b)
    g = Digraph(base, arcs)
    top, bottom = levels[-1], levels[0]
    a = x_of[1] if merged[beta] else top[0]
    b = y_of[beta] if merged[0] else bottom[-1]
    w = TypeABWitness(
        kind="B",
        sets=tuple(sum(1 << v for v in ids) for ids in levels),
        backward_arcs=tuple(backward),
        a=a,
        b=b,
    )
    err = validate_witness(g, w)
    assert err is None, err
    return g, w


def near_miss_members(count: int = 20):
    """Compositions with no good (u,v)-pair although every vertex admits
    an out-branching avoiding a path through it, and dually.

    Quotient: five levels with singleton ends, three designated arcs; the
    end parts are independent pairs so every designated arc keeps its
    blocking power.
    """
    combos = sorted(product((2, 3, 4), repeat=3))
    for seed, (n2, n3, n4) in enumerate(combos[:count]):
        rng = random.Random(seed)
        y3 = 0
        v2 = list(range(1, 1 + n2))
        v3 = list(range(1 + n2, 1 + n2 + n3))
        v4 = list(range(1 + n2 + n3, 1 + n2 + n3 + n4))
        x1 = 1 + n2 + n3 + n4
        levels = [[y3], v2, v3, v4, [x1]]
        y2, v = v2[0], v2[-1]
        y1, x3 = v3[0], v3[-1]
        u, x2 = v4[0], v4[-1]
        backward = [(x1, y1), (x2, y2), (x3, y3)]
        arcs: list[Arc] = list(backward)
        designated_pairs = {frozenset(a) for a in backward}
        for lo in range(5):
            for hi in range(lo + 1, 5):
                for a in levels[lo]:
                    for b in levels[hi]:
                        if frozenset((a, b)) not in designated_pairs:
                            arcs.append((a, b))
        arcs.extend(_layer_tournament(rng, v2, y2, v))
        arcs.extend(_layer_tournament(rng, v3, y1, x3))
        arcs.extend(_layer_tournament(rng, v4, u, x2))
        quotient = Digraph(x1 + 1, arcs)
        parts = [singleton() for _ in range(x1 + 1)]
        parts[y3] = independent(2)
        parts[x1] = independent(2)
        comp = Composition(quotient, tuple(parts))
        witness = TypeABWitness(
            kind="A",
            sets=tuple(sum(1 << w for w in ids) for ids in levels),
            backward_arcs=tuple(backward),
            a=u,
            b=v,
        )
        err = validate_witness(quotient, witness)
        assert err is None, err
        yield comp, comp.flat_index(u, 0), comp.flat_index(v, 0), witness


def all_digraphs(n: int):
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    for choice in product((False, True), repeat=len(pairs)):
        yield Digraph(n, [p for p, keep in zip(pairs, choice) if keep])


def all_semicomplete(n: int):
    pairs = list(combinations(range(n), 2))
    for choice in product(range(3), repeat=len(pairs)):
        arcs: list[Arc] = []
        for (a, b), c in zip(pairs, choice):
            if c == 0:
                arcs.append((a, b))
            elif c == 1:
                arcs.append((b, a))
            else:
                arcs.extend(((a, b), (b, a)))
        yield Digraph(n, arcs)


def all_tournaments(n: int):
    pairs = list(combinations(range(n), 2))
    for choice in product(range(2), repeat=len(pairs)):
        yield Digraph(
            n, [(a, b) if c == 0 else (b, a) for (a, b), c in zip(pairs, choice)]
        )


def all_quasi_transitive(n: int):
    for g in all_digraphs(n):
        if is_quasi_transitive(g):
            yield g


def random_semicomplete(rng: random.Random, n: int, two_cycle: float = 0.25):
    arcs: list[Arc] = []
    for a, b in combinations(range(n), 2):
        if rng.random() < two_cycle:
            arcs.extend(((a, b), (b, a)))
        elif rng.random() < 0.5:
            arcs.append((a, b))
        else:
            arcs.append((b, a))
    return Digraph(n, arcs)


def random_strong_semicomplete(rng: random.Random, n: int, two_cycle: float = 0.25):
    # a 2-vertex draw without 2-cycles is one arc, never strong; the
    # check draws nothing, so the rng stream of every other call is kept
    if n == 2 and two_cycle <= 0:
        raise ValueError("no strong semicomplete digraph on 2 vertices without 2-cycles")
    while True:
        g = random_semicomplete(rng, n, two_cycle)
        if is_strong(g):
            return g


def random_part(rng: random.Random, max_size: int = 2) -> Digraph:
    size = rng.randint(1, max_size)
    if size == 1:
        return singleton()
    arcs = [a for a in ((0, 1), (1, 0)) if rng.random() < 0.4]
    return Digraph(2, arcs)


def random_composition(seed: int) -> Composition:
    """Strong semicomplete quotient on 2..4 parts, each part at most two
    vertices; flattenings stay within oracle range."""
    rng = random.Random(seed)
    s = rng.randint(2, 4)
    quotient = random_strong_semicomplete(rng, s)
    return Composition(quotient, tuple(random_part(rng) for _ in range(s)))


def random_two_arc_strong_semicomplete(seed: int, n: int) -> Digraph:
    if n < 3:  # out-degree 2 needs 3 vertices: a smaller draw never ends
        raise InvalidInput(f"two-arc-strong needs n >= 3, not {n}")
    rng = random.Random(seed)
    while True:
        g = random_semicomplete(rng, n, two_cycle=0.45)
        if is_two_arc_strong(g):
            return g


def random_wide_composition(seed: int, k: int) -> tuple[Composition, int]:
    """Composition whose parts all have at least k vertices, with one
    independent part of k+1 vertices; returns (comp, that part's index)."""
    rng = random.Random(seed)
    s = rng.randint(2, 3)
    quotient = random_strong_semicomplete(rng, s)
    wide = rng.randrange(s)
    parts = []
    for i in range(s):
        if i == wide:
            parts.append(independent(k + 1))
        else:
            size = k if rng.random() < 0.7 else k + 1
            arcs = [
                (a, b)
                for a in range(size)
                for b in range(size)
                if a != b and rng.random() < 0.3
            ]
            parts.append(Digraph(size, arcs))
    return Composition(quotient, tuple(parts)), wide


def _random_transitive(rng: random.Random, t: int) -> Digraph:
    arcs = set()
    for a, b in combinations(range(t), 2):
        if rng.random() < 0.6:
            arcs.add((a, b))
    changed = True
    while changed:
        changed = False
        for a, b in list(arcs):
            for c, d in list(arcs):
                if b == c and (a, d) not in arcs:
                    arcs.add((a, d))
                    changed = True
    return Digraph(t, sorted(arcs))


def _random_qt_flat(rng: random.Random, n: int) -> Digraph:
    if n == 1:
        return singleton()
    s = rng.randint(2, min(4, n))
    cut = sorted(rng.sample(range(1, n), s - 1))
    sizes = [b - a for a, b in zip([0] + cut, cut + [n])]
    parts = tuple(_random_qt_flat(rng, size) for size in sizes)
    if rng.random() < 0.5:
        quotient = random_semicomplete(rng, s)
    else:
        quotient = _random_transitive(rng, s)
    return Composition(quotient, parts).flatten()


def random_quasi_transitive(seed: int, n: int) -> Digraph:
    if n < 1:
        raise InvalidInput(f"random-qt needs n >= 1, not {n}")
    rng = random.Random(seed)
    while True:
        g = _random_qt_flat(rng, n)
        if g.n == n and is_quasi_transitive(g):
            return g
