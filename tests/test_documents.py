import json

import pytest

from monoidkit import asets as ak
from monoidkit import documents as docs
from monoidkit import homological as hm
from monoidkit import monoids as mk
from monoidkit.errors import ValidationError


def test_monoid_roundtrip():
    m = mk.build_from_presentation(["x", "y"], [("x^2", "x"), ("y^2", "y")])
    doc = docs.monoid_to_doc(m)
    m2 = docs.parse_monoid(json.loads(json.dumps(doc)))
    assert m2.elements == m.elements
    assert m2.table == m.table


def test_presentation_document():
    m = docs.parse_monoid(
        {
            "kind": "presentation",
            "generators": ["x"],
            "relations": [["x^3", "0"]],
        }
    )
    assert m.elements == ["0", "1", "x", "x^2"]


def test_unknown_field_rejected():
    with pytest.raises(ValidationError):
        docs.parse_monoid(
            {"kind": "monogenic", "name": "N", "surprise": True}
        )
    with pytest.raises(ValidationError):
        docs.parse_aset(
            {"kind": "aset", "base": {"kind": "monogenic"}, "carrier": ["0"],
             "action": {"t": [0]}, "extra": 1}
        )


def test_invalid_table_rejected():
    # identity row broken: 1 * x must be x
    with pytest.raises(ValidationError):
        docs.parse_monoid(
            {
                "kind": "finite-table",
                "elements": ["0", "1", "x"],
                "mul": [[0, 0, 0], [0, 1, 1], [0, 2, 1]],
            }
        )


def test_aset_roundtrip_monogenic():
    x = ak.aset_from_theta([0, 2, 0], name="T")
    doc = docs.aset_to_doc(x)
    x2 = docs.parse_aset(json.loads(json.dumps(doc)))
    assert x2.action == x.action


def test_aset_roundtrip_table_base():
    m = mk.build_from_presentation(["x"], [("x^3", "0")])
    a = ak.aset_from_monoid(m)
    doc = docs.aset_to_doc(a)
    a2 = docs.parse_aset(doc)
    assert a2.carrier == a.carrier
    assert a2.action == a.action


def test_simplicial_roundtrip():
    m = mk.build_from_presentation([], [], name="F1")
    x = ak.ASet(m, ["0", "a"], action=[[0, 0], [0, 1]], name="pt")
    s = hm.constant_simplicial(x, 2)
    doc = docs.simplicial_to_doc(s)
    s2 = docs.parse_simplicial(json.loads(json.dumps(doc)))
    assert [len(l.carrier) for l in s2.levels] == [2, 2, 2]


def test_scheme_roundtrip():
    from monoidkit import geometry as gm

    p2 = gm.projective_space(2)
    doc = docs.scheme_to_doc(p2)
    p2b = docs.parse_scheme(json.loads(json.dumps(doc)))
    assert gm.pic(p2b) == gm.pic(p2)


def test_scheme_roundtrip_keeps_each_chart_degree_bound():
    from monoidkit import geometry as gm

    charts = [
        mk.AffineMonoid(f"L{i}", 1, [(1,)], degree_bound=bound)
        for i, bound in enumerate((3, 8, 11))
    ]
    lines = gm.GluedScheme(1, charts, glue="generic", name="lines3")
    doc = json.loads(json.dumps(docs.scheme_to_doc(lines)))
    back = docs.parse_scheme(doc)
    assert [c.degree_bound for c in back.charts] == [3, 8, 11]
    assert docs.scheme_to_doc(back) == doc
