"""Property-based crosschecks between the engine, the oracle, and the formats."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from goodpairs.branchings import verify_good_pair
from goodpairs.digraph import Digraph
from goodpairs.dispatch import decide
from goodpairs.families import random_composition, random_quasi_transitive
from goodpairs.oracle import oracle_good_pair
from goodpairs.textio import (
    composition_document,
    emit_document,
    flat_document,
    parse_document,
)
from goodpairs.verdicts import validate_verdict

PROPERTY_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def _semicomplete(draw: st.DrawFn) -> Digraph:
    n = draw(st.integers(min_value=1, max_value=5))
    arcs = []
    for a in range(n):
        for b in range(a + 1, n):
            state = draw(st.integers(min_value=0, max_value=2))
            if state != 1:
                arcs.append((a, b))
            if state != 0:
                arcs.append((b, a))
    return Digraph(n, arcs)


@st.composite
def _rooted_semicomplete(draw: st.DrawFn):
    g = draw(_semicomplete())
    u = draw(st.integers(min_value=0, max_value=g.n - 1))
    v = draw(st.integers(min_value=0, max_value=g.n - 1))
    return g, u, v


class TestEngineAgainstOracle:
    @PROPERTY_SETTINGS
    @given(case=_rooted_semicomplete())
    def test_semicomplete_answer_matches_exhaustive_search(self, case) -> None:
        g, u, v = case
        verdict = decide(g, u, v, "semicomplete")
        assert verdict.yes == (oracle_good_pair(g, u, v) is not None)
        assert validate_verdict(g, verdict) is None
        if verdict.yes:
            assert verify_good_pair(g, u, v, verdict.pair)

    @PROPERTY_SETTINGS
    @given(case=_rooted_semicomplete())
    def test_converse_swaps_the_roots(self, case) -> None:
        g, u, v = case
        mirrored = decide(g.converse(), v, u, "semicomplete")
        assert decide(g, u, v, "semicomplete").yes == mirrored.yes

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=5000),
        u=st.integers(min_value=0, max_value=5),
        v=st.integers(min_value=0, max_value=5),
    )
    def test_quasi_transitive_answer_matches_exhaustive_search(
        self, seed: int, u: int, v: int
    ) -> None:
        g = random_quasi_transitive(seed, 6)
        verdict = decide(g, u, v, "qt")
        assert verdict.yes == (oracle_good_pair(g, u, v) is not None)
        assert validate_verdict(g, verdict) is None

    @PROPERTY_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=5000))
    def test_dispatch_agrees_with_oracle_on_compositions(self, seed: int) -> None:
        comp = random_composition(seed)
        flat = comp.flatten()
        u, v = seed % flat.n, (seed // 7) % flat.n
        verdict = decide(comp, u, v)
        assert verdict.yes == (oracle_good_pair(flat, u, v) is not None)
        assert validate_verdict(comp, verdict) is None


class TestFormatRoundTrip:
    @PROPERTY_SETTINGS
    @given(case=_rooted_semicomplete())
    def test_flat_documents_survive_emit_then_parse(self, case) -> None:
        g, u, v = case
        doc = flat_document(g, roots=(u, v))
        assert parse_document(emit_document(doc)) == doc

    @PROPERTY_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=5000))
    def test_composition_documents_survive_emit_then_parse(self, seed: int) -> None:
        doc = composition_document(random_composition(seed))
        again = parse_document(emit_document(doc))
        assert again == doc
        assert emit_document(again) == emit_document(doc)
