"""The result records keep the behaviour they had as ``@dataclass``es:
field-tuple equality, the dataclass ``repr``, hashing and immutability of
the frozen ones, no hash for the others."""

import pytest

from monoidkit import monoids as mk
from monoidkit.abgroup import AbelianGroup, GroupPresentation
from monoidkit.geometry import HeightOnePoint
from monoidkit.monoids import ValidationReport, Violation
from monoidkit.spectra import Ideal
from monoidkit.torreal import HomologyGroup, HurewiczReport

IDEM = mk.build_from_presentation(["x"], [("x^2", "x")])

FROZEN = [
    (lambda: AbelianGroup(1, (2,)), lambda: AbelianGroup(1, (4,))),
    (lambda: Ideal(IDEM, frozenset({0})), lambda: Ideal(IDEM, frozenset({0, 1}))),
    (lambda: HeightOnePoint("D", (1, 0), 1, (0,)), lambda: HeightOnePoint("D", (1, 0), 2, (0,))),
]


@pytest.mark.parametrize("make, make_other", FROZEN)
def test_frozen_records_are_hashable_and_immutable(make, make_other):
    a, b, c = make(), make(), make_other()
    assert a == b and not a != b
    assert a != c
    assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in a._fields))
    assert len({a, b, c}) == 2
    assert a != tuple(getattr(a, f) for f in a._fields)  # another class never equals
    for name in a._fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_mutable_records_compare_by_fields_and_are_unhashable():
    h = HomologyGroup(1, (2,))
    assert h == HomologyGroup(1, (2,)) and h != HomologyGroup(1, ())
    assert HurewiczReport(1, h, True) == HurewiczReport(1, HomologyGroup(1, (2,)), True)
    with pytest.raises(TypeError, match="unhashable"):
        hash(h)
    h.betti = 0  # not frozen
    assert h == HomologyGroup(0, (2,))


def test_default_lists_are_fresh_per_record():
    assert GroupPresentation(1).relations == []
    assert GroupPresentation(1).relations is not GroupPresentation(1).relations
    first, second = ValidationReport(), ValidationReport()
    first.add("Kind", (1,))
    assert second.ok and not first.ok


def test_reprs_match_the_dataclass_reprs():
    assert repr(AbelianGroup(1, (2,))) == "AbelianGroup(free_rank=1, torsion=(2,))"
    assert repr(HomologyGroup(1, (2, 3))) == "HomologyGroup(betti=1, torsion=(2, 3))"
    report = ValidationReport([Violation("K", (1,))])
    assert repr(report) == "ValidationReport(violations=[Violation(kind='K', witness=(1,))])"
    assert repr(GroupPresentation(2)) == (
        "GroupPresentation(n_generators=2, relations=[], generator_labels=None)"
    )
