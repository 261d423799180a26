"""`recognize` names the class whose route an automatic `decide` takes."""

import sys

import pytest
from test_corpus import GROUPS, targets

from goodpairs.composition import Composition, is_quasi_transitive, singleton
from goodpairs.digraph import Digraph
from goodpairs.dispatch import decide, recognize
from goodpairs.errors import InvalidInput
from goodpairs.families import all_digraphs


def assert_recognize_agrees(target, roots):
    try:
        klass = recognize(target)
    except InvalidInput:
        for u, v in roots:
            with pytest.raises(InvalidInput):
                decide(target, u, v)
        return
    for u, v in roots:
        assert decide(target, u, v) == decide(target, u, v, klass)


def test_single_part_composition_is_recognized_as_its_flattening():
    # a one-part quotient is trivially transitive, but decide flattens
    # such an input: a 3-cycle part is semicomplete and a path part is
    # rejected as neither semicomplete nor quasi-transitive
    for h in (singleton(), *all_digraphs(3)):
        comp = Composition(singleton(), (h,))
        assert_recognize_agrees(comp, [(u, v) for u in range(h.n) for v in range(h.n)])


@pytest.mark.parametrize("group", GROUPS)
def test_recognize_agrees_with_decide_on_the_corpus(group):
    for target, roots in targets(group):
        assert_recognize_agrees(target, [roots[0], roots[-1]])


def test_root_starved_quasi_transitive_input_checks_its_class_once(monkeypatch):
    # 0 -> 1, 0 -> 2 is quasi-transitive but not semicomplete, and the
    # in-root 1 is reached from 0 only: the root test answers before
    # qt_decompose would check the class a second time
    calls = []

    def counted(g):
        calls.append(g)
        return is_quasi_transitive(g)

    for name, module in list(sys.modules.items()):
        if name.startswith("goodpairs") and (
            getattr(module, "is_quasi_transitive", None) is is_quasi_transitive
        ):
            monkeypatch.setattr(module, "is_quasi_transitive", counted)
    g = Digraph(3, [(0, 1), (0, 2)])
    ver = decide(g, 0, 1)
    assert not ver.yes and ver.reason == "root-component" and ver.side == "in"
    assert len(calls) == 1
