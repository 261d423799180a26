"""`recognize` names the class whose route an automatic `decide` takes."""

import pytest
from test_corpus import GROUPS, targets

from goodpairs.composition import Composition, singleton
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
