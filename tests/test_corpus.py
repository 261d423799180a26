"""Pinned verdict bytes on a fixed corpus.

Every group decides a deterministic set of inputs at fixed root pairs and
hashes one line per decision: `repr(verdict)`, which carries every
field, the `forcing` trace and the layered `refinement` included, or the
exception a decision raised.  The digests were recorded
from the engine as it stood before its duplicated helpers were merged,
so any change to a verdict, its evidence or an error message shows up
as a digest mismatch.  A second, pair-free digest per group clears the
pair of every YES verdict, so it pins answers, reasons, NO evidence and
errors even when a constructor is meant to pick other pairs.
Regenerate with `python tests/test_corpus.py` only when a verdict is
meant to change.  The same pass also checks that no NO verdict has a
greedy pair that verifies, since `decide` answers YES from such a pair
before any class looks for an obstruction; counts the YES verdicts whose
greedy misses, the decisions that reach `decide`'s one call of the
complete search; and digests the lines `dispatch.blocked` must give.
"""

import copy
import functools
import hashlib
from typing import NamedTuple

import pytest

from goodpairs.composition import Composition, singleton, transitive_tournament
from goodpairs.dispatch import decide
from goodpairs.errors import InternalInconsistency, InvalidInput, ResourceExceeded
from goodpairs.families import (
    all_digraphs,
    all_quasi_transitive,
    all_semicomplete,
    kind_a_instance,
    kind_b_instance,
    known_family_members,
    near_miss_members,
    random_composition,
    random_quasi_transitive,
)
from goodpairs.forcing import force_trace, replay
from goodpairs.semicomplete import greedy_good_pair

# random_composition seeds 908 and 943 are the only ones below 1200 whose
# decisions end in an arc-forcing verdict
COMPOSITION_SEEDS = (*range(60), 908, 943)


def _all_roots(target):
    return [(u, v) for u in range(target.n) for v in range(target.n)]


def targets(group):
    """(target, root pairs) for one corpus group, in a fixed order."""
    if group == "semicomplete-n4":
        for n in range(1, 5):
            for g in all_semicomplete(n):
                yield g, _all_roots(g)
    elif group == "families":
        for _, comp, u, v in known_family_members():
            yield comp, [(u, v)]
        for comp, u, v, _ in near_miss_members(20):
            yield comp, [(u, v)]
    elif group == "random-composition":
        for seed in COMPOSITION_SEEDS:
            comp = random_composition(seed)
            yield comp, _all_roots(comp)
    elif group == "random-qt":
        for seed in range(60):
            g = random_quasi_transitive(seed, 7)
            yield g, _all_roots(g)
    elif group == "all-qt-4":
        for g in all_quasi_transitive(4):
            yield g, _all_roots(g)
    elif group == "kind-ab":
        for make in (kind_a_instance, kind_b_instance):
            for seed in range(10):
                g, _ = make(seed)
                yield g, _all_roots(g)
    elif group == "transitive-3-parts":
        # the only inputs that reach a tree-side verdict: no random
        # generator produces that shape
        for h in all_digraphs(3):
            for parts in ((h, singleton()), (singleton(), h)):
                comp = Composition(transitive_tournament(2), parts)
                yield comp, _all_roots(comp)
    elif group == "digraphs-3":
        # every 3-vertex digraph, flat and as the only part of a
        # composition; the ones outside every class pin the rejections
        for h in all_digraphs(3):
            yield h, _all_roots(h)
            yield Composition(singleton(), (h,)), _all_roots(h)
    else:
        raise KeyError(group)


GROUPS = (
    "semicomplete-n4",
    "families",
    "random-composition",
    "random-qt",
    "all-qt-4",
    "kind-ab",
    "transitive-3-parts",
    "digraphs-3",
)


def corpus(group):
    """(target, u, v) for every decision of one group."""
    for target, roots in targets(group):
        for u, v in roots:
            yield target, u, v


def without_pair(verdict):
    """The verdict with its pair field cleared.

    A copy, since `dataclasses.replace` re-runs the constructor guard
    that a YES verdict carries a pair.
    """
    bare = copy.copy(verdict)
    object.__setattr__(bare, "pair", None)
    return bare


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def decision(target, u, v):
    """The verdict of one decision, or the exception it raised."""
    try:
        return decide(target, u, v)
    except (InvalidInput, ResourceExceeded, InternalInconsistency) as exc:
        return exc


def decision_lines(outcome) -> tuple[str, str]:
    """(full line, pair-free line) for one decision's outcome."""
    if isinstance(outcome, Exception):
        line = f"{type(outcome).__name__}: {outcome}"
        return line, line
    return repr(outcome), repr(without_pair(outcome))


def blocked_line(outcome) -> str:
    """The line of `dispatch.blocked`'s outcome for one decision, or of
    the one `decide`'s outcome asks of it: None for a YES, the NO's
    repr, or the exception."""
    if isinstance(outcome, Exception):
        return decision_lines(outcome)[0]
    return "None" if outcome is None or outcome.yes else repr(outcome)


class CorpusPass(NamedTuple):
    decisions: int
    full: str  # digest of the full lines
    pair_free: str  # digest of the pair-free lines
    blocked: str  # digest of the lines `blocked` must give
    false_no: tuple  # (target, u, v, reason) of NOs with a verified greedy pair
    searched: int  # YES decisions whose greedy misses


@functools.lru_cache(maxsize=None)
def corpus_pass(group) -> CorpusPass:
    """The digests and counts of one group, from one decision pass that
    the tests share; only digests of the lines are kept, so the cache
    stays small."""
    full, bare, blocked, false_no, searched = [], [], [], [], 0
    for target, u, v in corpus(group):
        outcome = decision(target, u, v)
        line, free = decision_lines(outcome)
        full.append(line)
        bare.append(free)
        blocked.append(blocked_line(outcome))
        if isinstance(outcome, Exception):
            continue
        flat = target.flatten() if isinstance(target, Composition) else target
        hit = greedy_good_pair(flat, u, v) is not None
        if outcome.yes:
            searched += not hit
        elif hit:
            false_no.append((target, u, v, outcome.reason))
    return CorpusPass(
        len(full),
        digest(full),
        digest(bare),
        digest(blocked),
        tuple(false_no),
        searched,
    )


def forcing_lines():
    lines = []
    for seed in COMPOSITION_SEEDS:
        flat = random_composition(seed).flatten()
        for u, v in _all_roots(flat):
            status, trace = force_trace(flat, u, v)
            lines.append(f"{status} {trace!r} {replay(flat, u, v, trace)!r}")
    return lines


# group: (decisions, sha256 of the joined lines); re-pinned when the
# unused `note` field left `Verdict`, as the earlier digests of the same
# lines with ", note=None" stripped from each; "families" and
# "random-composition" re-pinned again when every layered NO of a
# composition came to name its cells, 20 lines each whose
# "refinement=None" became the composition's part cells
VERDICT_DIGESTS = {
    "semicomplete-n4": (11920, "05f5341ae9f5ca5c2ec8b1afa2f729c8fc0b9e80bcd1e2c0bad66d38ec85387b"),
    "families": (154, "9afca548dfa12d462435f538ee3d73373a0e28e7af8aabfa8199fc0da406d74d"),
    "random-composition": (1354, "4b57ffd1393f3e1b976c2d3740c01f5c7894c5faa0f5fe598a516375ae81eb18"),
    "random-qt": (2940, "d838c8c925cca334ed47e28fa6e311c96301ea91c4d0dd2ae3f6a079cc1df5e2"),
    "all-qt-4": (17424, "81f27f86b8df9f24877acee58cddb54f8510a784977f892290ddd4ca2f2464db"),
    "kind-ab": (685, "f1bb5143f0c1195e0ff6d43cf45985a31179a34fbfeae5e852645656c7487106"),
    "transitive-3-parts": (2048, "6ed5b4b472000d374674ddd26afd093b91a9b2cd72513564c0f737b42a793822"),
    "digraphs-3": (1152, "1b94a12ce4fa18576513f14cddaa7a133b30e514564e5591b29941aaac498fe3"),
}

# group: sha256 of the joined pair-free lines (the pair of a YES verdict
# cleared, error lines as they are); recorded before the composition
# constructor was reduced to greedy plus search, and re-pinned like the
# full digests when `note` went and when layered NOs named their cells
PAIR_FREE_DIGESTS = {
    "semicomplete-n4": "776738787675c988216bb0d315073bd6ec746ac46fa60a4c9d869cbfb941e51a",
    "families": "9afca548dfa12d462435f538ee3d73373a0e28e7af8aabfa8199fc0da406d74d",
    "random-composition": "13c50e96dae1dea51bba5c9b5679447076b1e332f37d3e0946a534e0da773c61",
    "random-qt": "df9423013bc2f9eeed5b847f2925af2549968bfd4a77c5189daf0c8214b89322",
    "all-qt-4": "266f8d00cc70563ef36ea7510231edd5de9729a52d975827f93e6f478c091ade",
    "kind-ab": "e8c9630051bc6780c1957ca0c036edeccf8477dd93aba1d7f98663eac8856979",
    "transitive-3-parts": "bc5cb455799dfb34217caee2bcfd05644aa930e4fcf8c229e24a86652866ca33",
    "digraphs-3": "4df3649f932212d175a86c23a30cd0ddccb9fbb09f94e42d932f0bfe475472b4",
}

# group: YES decisions whose greedy misses, so that decide builds their
# pair with the complete search
SEARCHED = {
    "semicomplete-n4": 912,
    "families": 0,
    "random-composition": 61,
    "random-qt": 26,
    "all-qt-4": 900,
    "kind-ab": 9,
    "transitive-3-parts": 31,
    "digraphs-3": 24,
}

FORCING_DIGEST = (1354, "d83b7d742e4ee20c288458546b65f1507b08bb50e54d253234fbf916a99a62df")


@pytest.mark.parametrize("group", GROUPS)
def test_verdict_bytes_are_pinned(group):
    count, full, pair_free = corpus_pass(group)[:3]
    # the pair-free digest pins answers, reasons, NO evidence and errors
    # on their own, so a change that only picks other YES pairs shows
    # here as a full-digest mismatch alone
    assert pair_free == PAIR_FREE_DIGESTS[group]
    assert (count, full) == VERDICT_DIGESTS[group]


@pytest.mark.parametrize("group", GROUPS)
def test_no_verdict_has_a_verified_greedy_pair(group):
    # decide answers YES from a greedy pair that verifies before any
    # class looks for an obstruction, so a NO here with such a pair would
    # be a NO the engine should never have reached: a false NO
    assert corpus_pass(group).false_no == ()


@pytest.mark.parametrize("group", GROUPS)
def test_search_reach_is_pinned(group):
    # a YES whose greedy misses is built by decide's one search call
    assert corpus_pass(group).searched == SEARCHED[group]


def test_forcing_traces_and_replays_are_pinned():
    lines = forcing_lines()
    assert (len(lines), digest(lines)) == FORCING_DIGEST


if __name__ == "__main__":
    for name in GROUPS:
        count, full = corpus_pass(name)[:2]
        print(f'    "{name}": ({count}, "{full}"),')
    for name in GROUPS:
        print(f'    "{name}": "{corpus_pass(name).pair_free}",')
    found = forcing_lines()
    print(f'FORCING_DIGEST = ({len(found)}, "{digest(found)}")')
