"""Seeded instance documents for the benchmark workloads.

Each workload is a fixed corpus of generated digraphs (document i comes
from random.Random("<workload>/<i>")), a single verbatim fixture, or
both.  The seed shuffles the documents and, where the workload relabels,
applies a random vertex permutation to every corpus digraph
(compositions: a permutation of the parts and of the vertices inside
each part), so each seed gives other documents and other search orders
over the same graphs.  `semicomplete` does not relabel: its
near-transitive documents reach the n > 12 construction cliff (ROADMAP
item 2) under some numberings, and a benchmark workload must be one on
which no decision fails.  The cliff is measured on its own by `cliff-a`
(fixture (a)) and by fixture (b) in `composition`.

Fresh graphs per seed would be simpler, but decision cost is heavy
tailed (the slowest 1% of composition and quasi-transitive documents
take a fifth of the time, single documents up to 100x the median), so
throughput on a fresh sample moved by 15-30% from seed to seed.  A fixed
corpus keeps that tail in every pool.  Relabeling keeps every answer and
reason line, which are pinned per corpus document in expected.json.

The program receives only the documents, written in the CLI text format
before any timing starts.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

from goodpairs import families
from goodpairs.composition import Composition, independent
from goodpairs.digraph import Digraph, coreach_mask, reach_mask
from goodpairs.textio import composition_document, emit_document, flat_document

Instance = tuple[Digraph | Composition, tuple[int, int]]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class Doc:
    key: str  # corpus index, or "fixture"
    text: str  # the document the program decides
    base: str  # digest of the document before relabeling, pinned


def _spanning_roots(rng: random.Random, g: Digraph) -> tuple[int, int]:
    """Roots that span where any exist, else uniform vertices."""
    full = g.full_mask
    outs = [x for x in range(g.n) if reach_mask(g, 1 << x) == full]
    ins = [x for x in range(g.n) if coreach_mask(g, 1 << x) == full]
    u = rng.choice(outs) if outs else rng.randrange(g.n)
    v = rng.choice(ins) if ins else rng.randrange(g.n)
    return u, v


# --- semicomplete: flat, n 13..36, half random strong, half near-transitive


def _near_transitive(rng: random.Random, n: int) -> Digraph:
    """Transitive tournament on 0..n-1 with n/4..n random pairs reversed."""
    reversed_pairs = set()
    for _ in range(rng.randint(n // 4, n)):
        reversed_pairs.add(tuple(sorted(rng.sample(range(n), 2))))
    arcs = [
        (b, a) if (a, b) in reversed_pairs else (a, b)
        for a in range(n)
        for b in range(a + 1, n)
    ]
    return Digraph(n, arcs)


def _semicomplete(i: int, rng: random.Random) -> Instance:
    n = rng.randint(13, 36)
    if i % 2:
        g = _near_transitive(rng, n)
    else:
        g = families.random_strong_semicomplete(rng, n, 0.25 if i % 4 else 0.0)
    return g, _spanning_roots(rng, g)


def _fixture_a() -> Instance:
    """ROADMAP item 2 fixture (a): a transitive tournament on 0..39 with
    ten arcs reversed, roots 6,6; an ILP finds a good pair."""
    flipped = {
        (12, 7), (29, 5), (29, 10), (31, 27), (33, 4),
        (37, 0), (37, 10), (37, 13), (38, 13), (39, 19),
    }
    arcs = [
        (b, a) if (b, a) in flipped else (a, b)
        for a in range(40)
        for b in range(a + 1, 40)
    ]
    return Digraph(40, arcs), (6, 6)


# --- layered-no: semicomplete hosts, n 10..24, planted 5-level kind-A witness


def _layered_no(i: int, rng: random.Random) -> Instance:
    """families.kind_a_instance with alpha=2, scaled to n vertices.

    Five levels; designated arc i runs from the tail of level 6-i down to
    the head of level 4-i; every other pair of levels is joined upward and
    each level is a transitive tournament with pinned head and tail.  The
    roots sit in levels 4 and 2, as in kind_a_instance.
    """
    n = rng.randint(10, 24)
    sizes = [1] * 5
    for _ in range(n - 5):
        sizes[rng.randrange(5)] += 1
    levels, base = [], 0
    for s in sizes:
        levels.append(list(range(base, base + s)))
        base += s
    x_of = {i: levels[5 - i][-1] for i in range(1, 4)}
    y_of = {i: levels[3 - i][0] for i in range(1, 4)}
    backward = [(x_of[i], y_of[i]) for i in range(1, 4)]
    designated = {frozenset(a) for a in backward}
    arcs = [
        (a, b)
        for lo in range(5)
        for hi in range(lo + 1, 5)
        for a in levels[lo]
        for b in levels[hi]
        if frozenset((a, b)) not in designated
    ]
    for x, y in backward:
        arcs.append((x, y))
        if rng.random() < 0.3:
            arcs.append((y, x))
    for li, ids in enumerate(levels):
        first = y_of.get(3 - li)
        last = x_of.get(5 - li)
        middle = [w for w in ids if w not in (first, last)]
        rng.shuffle(middle)
        order = [w for w in (first,) if w is not None] + middle
        if last is not None and last != first:
            order.append(last)
        arcs.extend((a, b) for j, a in enumerate(order) for b in order[j + 1 :])
    g = Digraph(n, arcs)
    while True:
        a, b = rng.choice(levels[3]), rng.choice(levels[1])
        if g.out_degree(a) >= 2 and g.in_degree(b) >= 2:
            return g, (a, b)


# --- composition: S[H_1..H_s], s 4..8, every third quotient kind-A


def _random_part(rng: random.Random) -> Digraph:
    size = rng.randint(1, 8)
    if size == 1 or rng.random() < 0.6:
        return independent(size)
    arcs = [
        (a, b)
        for a in range(size)
        for b in range(size)
        if a != b and rng.random() < 0.3
    ]
    return Digraph(size, arcs)


def _composition(i: int, rng: random.Random) -> Instance:
    if i % 3 == 0:
        quotient, w = families.kind_a_instance(rng.randrange(1 << 30))
        pa, pb = w.a, w.b
    else:
        quotient = families.random_strong_semicomplete(rng, rng.randint(4, 8), 0.25)
        pa, pb = rng.randrange(quotient.n), rng.randrange(quotient.n)
    comp = Composition(quotient, tuple(_random_part(rng) for _ in range(quotient.n)))
    u = comp.flat_index(pa, rng.randrange(comp.parts[pa].n))
    v = comp.flat_index(pb, rng.randrange(comp.parts[pb].n))
    return comp, (u, v)


def _fixture_b() -> Instance:
    """ROADMAP item 2 fixture (b): the kind_a_instance(9) quotient with
    independent parts of sizes 2,3,2,2,1,1,3, roots (10,5); the oracle
    with max_n=14 finds a good pair."""
    quotient, _ = families.kind_a_instance(9)
    parts = tuple(independent(s) for s in (2, 3, 2, 2, 1, 1, 3))
    return Composition(quotient, parts), (10, 5)


# --- quasi-transitive: flat, n 12..60


def _quasi_transitive(i: int, rng: random.Random) -> Instance:
    g = families.random_quasi_transitive(rng.randrange(1 << 30), rng.randint(12, 60))
    return g, _spanning_roots(rng, g)


# --- documents


def _emit(instance: Instance) -> str:
    target, roots = instance
    if isinstance(target, Composition):
        return emit_document(composition_document(target, roots=roots))
    return emit_document(flat_document(target, roots=roots))


def _relabel(instance: Instance, rng: random.Random) -> Instance:
    """The same instance under a random vertex numbering."""
    target, (u, v) = instance
    if isinstance(target, Digraph):
        perm = list(range(target.n))
        rng.shuffle(perm)
        g = Digraph(target.n, [(perm[a], perm[b]) for a, b in target.arcs()])
        return g, (perm[u], perm[v])
    comp = target
    new_part = list(range(comp.s))
    rng.shuffle(new_part)
    q = Digraph(comp.s, [(new_part[a], new_part[b]) for a, b in comp.quotient.arcs()])
    local = [list(range(p.n)) for p in comp.parts]
    for perm in local:
        rng.shuffle(perm)
    parts = [None] * comp.s
    for old, p in enumerate(comp.parts):
        perm = local[old]
        parts[new_part[old]] = Digraph(p.n, [(perm[a], perm[b]) for a, b in p.arcs()])
    out = Composition(q, tuple(parts))

    def move(x: int) -> int:
        old = comp.part_of(x)
        return out.flat_index(new_part[old], local[old][comp.local(x)])

    return out, (move(u), move(v))


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # corpus documents, besides the fixture
    traced: int  # corpus prefix the traced run decides, plus the fixture
    make: Callable[[int, random.Random], Instance]
    fixture: Callable[[], Instance] | None = None
    relabel: bool = True

    def instances(self, traced: bool = False) -> list[tuple[str, Instance]]:
        """(key, instance) in corpus order; traced keeps the traced prefix."""
        count = self.traced if traced else self.size
        out = [
            (str(i), self.make(i, random.Random(f"{self.name}/{i}")))
            for i in range(count)
        ]
        if self.fixture is not None:
            out.append(("fixture", self.fixture()))
        return out

    def corpus(self) -> list[Doc]:
        """The documents as generated, before relabeling, for pinning."""
        docs = []
        for key, instance in self.instances():
            text = _emit(instance)
            docs.append(Doc(key, text, _digest(text)))
        return docs

    def pool(self, seed: int, traced: bool = False) -> list[Doc]:
        """The documents for a seed, in the order they are decided.

        Corpus digraphs are relabeled by the seed where the workload
        relabels; the fixture stays verbatim, since it pins one exact
        document.
        """
        rng = random.Random(f"pool/{self.name}/{seed}")
        docs = []
        for key, instance in self.instances(traced):
            base = _emit(instance)
            verbatim = key == "fixture" or not self.relabel
            text = base if verbatim else _emit(_relabel(instance, rng))
            docs.append(Doc(key, text, _digest(base)))
        rng.shuffle(docs)
        return docs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("semicomplete", 104, 50, _semicomplete, relabel=False),
        Workload("cliff-a", 0, 0, _semicomplete, _fixture_a),
        Workload("layered-no", 120, 60, _layered_no),
        Workload("composition", 240, 120, _composition, _fixture_b),
        Workload("quasi-transitive", 300, 300, _quasi_transitive),
    )
}
