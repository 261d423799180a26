"""Engine-versus-oracle sweeps.

Each helper returns (checked root pairs, issue descriptions).  An issue
is either a YES/NO disagreement with the exhaustive oracle or a verdict
whose evidence fails validation; a clean run returns an empty list.
"""

from __future__ import annotations

from .composition import Composition
from .dispatch import decide
from .families import (
    all_quasi_transitive,
    all_semicomplete,
    all_tournaments,
    random_composition,
    random_quasi_transitive,
)
from .oracle import oracle_good_pair
from .verdicts import validate_verdict


def check_target(target, roots=None) -> tuple[int, list[str]]:
    """Compare decide() with the oracle on the given root pairs.

    `roots` defaults to every ordered pair.  The flat digraph must be
    inside oracle range.
    """
    flat = target.flatten() if isinstance(target, Composition) else target
    if roots is None:
        roots = [(u, v) for u in range(flat.n) for v in range(flat.n)]
    issues = []
    for u, v in roots:
        try:
            verdict = decide(target, u, v)
        except Exception as exc:  # noqa: BLE001 - report, don't abort the sweep
            issues.append(f"u={u} v={v}: decide raised {exc!r}")
            continue
        want = oracle_good_pair(flat, u, v) is not None
        if verdict.yes != want:
            issues.append(
                f"u={u} v={v}: engine says {verdict.yes} ({verdict.reason}), "
                f"oracle says {want}"
            )
            continue
        err = validate_verdict(target, verdict)
        if err:
            issues.append(f"u={u} v={v}: evidence rejected: {err}")
    return len(roots), issues


def _sweep(instances, label: str) -> tuple[int, int, list[str]]:
    count = 0
    pairs = 0
    issues: list[str] = []
    for tag, target in instances:
        count += 1
        done, found = check_target(target)
        pairs += done
        issues.extend(f"{label} {tag}: {msg}" for msg in found)
    return count, pairs, issues


def sweep_semicomplete(max_n: int, tournaments_n: int = 0):
    """All semicomplete digraphs with n <= max_n, plus all tournaments on
    tournaments_n vertices when given; every ordered root pair."""
    def gen():
        for n in range(1, max_n + 1):
            for i, g in enumerate(all_semicomplete(n)):
                yield f"n{n}#{i}", g
        if tournaments_n > max_n:
            for i, g in enumerate(all_tournaments(tournaments_n)):
                yield f"t{tournaments_n}#{i}", g

    return _sweep(gen(), "semicomplete")


def sweep_compositions(count: int, start_seed: int = 0):
    """Seeded random compositions with strong semicomplete quotients."""
    def gen():
        for seed in range(start_seed, start_seed + count):
            yield f"seed{seed}", random_composition(seed)

    return _sweep(gen(), "composition")


def sweep_quasi_transitive(exhaustive_n: int, samples: int = 0, sample_n: int = 6):
    """Exhaustive quasi-transitive digraphs up to exhaustive_n vertices,
    plus seeded samples at sample_n vertices."""
    def gen():
        for n in range(1, exhaustive_n + 1):
            for i, g in enumerate(all_quasi_transitive(n)):
                yield f"n{n}#{i}", g
        for seed in range(samples):
            yield f"seed{seed}", random_quasi_transitive(seed, sample_n)

    return _sweep(gen(), "qt")
