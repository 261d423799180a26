"""Text format: parsing, diagnostics, canonical emission."""

import pytest

from goodpairs.composition import Composition
from goodpairs.digraph import Digraph
from goodpairs.errors import InvalidInput
from goodpairs.families import random_composition
from goodpairs.textio import (
    composition_document,
    emit_document,
    flat_document,
    parse_document,
)

FLAT = """\
# a triangle with one digon
vertices a b c
arc a b
arc b c
arc c a
arc a c
roots a c
"""

NESTED = """\
quotient {
  vertices top bottom
  arc top bottom
  arc bottom top
}
part top {
  vertices x y
}
part bottom {
  vertices z
  # no internal structure
}
roots x z
"""


def test_parse_flat():
    doc = parse_document(FLAT)
    assert isinstance(doc.target, Digraph)
    assert doc.names == ("a", "b", "c")
    assert doc.roots == (0, 2)
    assert doc.target.has_arc(0, 1) and doc.target.has_arc(0, 2)
    assert not doc.target.has_arc(1, 0)


def test_parse_composition():
    doc = parse_document(NESTED)
    assert isinstance(doc.target, Composition)
    assert doc.target.s == 2
    assert doc.part_names == ("top", "bottom")
    assert doc.names == ("x", "y", "z")
    assert doc.roots == (0, 2)
    flat = doc.flat
    assert flat.has_arc(0, 2) and flat.has_arc(2, 1)
    assert not flat.has_arc(0, 1)


def test_round_trip_is_identity():
    for text in (FLAT, NESTED):
        doc = parse_document(text)
        emitted = emit_document(doc)
        again = parse_document(emitted)
        assert again == doc
        assert emit_document(again) == emitted


def test_builders_round_trip():
    g = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    doc = flat_document(g, roots=(1, 2))
    assert parse_document(emit_document(doc)) == doc

    comp = random_composition(17)
    cdoc = composition_document(comp)
    assert parse_document(emit_document(cdoc)) == cdoc


@pytest.mark.parametrize(
    "text, needle",
    [
        ("arc a b\n", "line 1"),
        ("vertices a b\narc a q\n", "unknown vertex"),
        ("vertices a a\n", "duplicate"),
        ("vertices a b\narc a b\narc a b\n", "duplicate arc"),
        ("vertices a\narc a a\n", "loop"),
        ("vertices a b\nroots a\n", "roots"),
        ("quotient {\n  vertices q\n}\n", "part"),
        ("", "empty"),
    ],
)
def test_diagnostics_name_the_offense(text, needle):
    with pytest.raises(InvalidInput) as err:
        parse_document(text)
    assert needle in str(err.value)


def test_duplicate_arc_in_a_part_names_its_line():
    text = (
        "quotient {\n  vertices p q\n  arc p q\n  arc q p\n}\n"
        "part p {\n  vertices a b\n  arc a b\n  arc b a\n  arc a b\n}\n"
        "part q {\n  vertices c\n}\n"
    )
    with pytest.raises(InvalidInput) as err:
        parse_document(text)
    assert str(err.value) == "line 10: duplicate arc 'a' -> 'b'"


def test_index_of_names():
    doc = parse_document(FLAT)
    assert doc.index_of("b") == 1
    with pytest.raises(InvalidInput):
        doc.index_of("zz")
