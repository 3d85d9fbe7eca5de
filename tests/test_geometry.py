import os
import subprocess
import sys

import pytest

from monoidkit import geometry as gm
from monoidkit.abgroup import AbelianGroup
from monoidkit.errors import NotNormal, OracleMismatch
from monoidkit.monoids import AffineMonoid


def numeric(gens, name="A", **kw):
    rank = len(gens[0])
    return AffineMonoid(name, rank, [tuple(g) for g in gens], **kw)


def cone_xy_z2():
    # generated by (1,0), (1,2), (1,1): the quadric-cone chart
    return numeric([(1, 0), (1, 2), (1, 1)], name="xy=z2")


def test_facet_normals_orthant():
    aff = numeric([(1, 0), (0, 1)])
    assert gm.facet_normals(aff.generators, 2) == [(0, 1), (1, 0)]


def test_facet_normals_quadric():
    aff = cone_xy_z2()
    assert gm.facet_normals(aff.generators, 2) == [(0, 1), (2, -1)]


def test_facet_normals_one_dim():
    aff = numeric([(2,), (3,)])
    assert gm.facet_normals(aff.generators, 1) == [(1,)]


def test_free_monoid_is_normal():
    for d in (1, 2, 3):
        gens = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
        assert gm.is_normal(numeric(gens))


def test_numerical_semigroup_normalization():
    aff = numeric([(2,), (3,)])
    assert not gm.is_normal(aff)
    nor = gm.normalize_affine(aff)
    assert nor.generators == [(1,)]
    # idempotent
    again = gm.normalize_affine(nor)
    assert again.generators == [(1,)]


def test_quadric_cone_is_normal():
    assert gm.is_normal(cone_xy_z2())


def test_smash_of_normals_is_normal():
    # direct product of normal charts (smash on the monoid side)
    a = numeric([(1,)])
    b = cone_xy_z2()
    gens = [(1, 0, 0)] + [(0,) + g for g in b.generators]
    assert gm.is_normal(numeric(gens))


def test_normalize_pc_axes():
    aff = AffineMonoid(
        "axes", 2, [(1, 0), (0, 1)], monomial_ideal=[(1, 1)]
    )
    comps = gm.normalize_pc(aff)
    assert len(comps) == 2
    gen_sets = sorted(tuple(c.generators) for c in comps)
    assert gen_sets == [(((0, 1),)), (((1, 0),))]
    # global sections live in the product of the components
    assert gm.global_sections_contains(comps, [(1, 0), (0, 0)])
    assert gm.global_sections_contains(comps, [(0, 0), (0, 2)])


def test_normalize_pc_cancellative_is_single_component():
    aff = cone_xy_z2()
    comps = gm.normalize_pc(aff)
    assert len(comps) == 1
    assert gm.is_normal(comps[0])


def test_seminormalization_saturates_t2_t3():
    aff = numeric([(2,), (3,)])
    sn = gm.seminormalize_cancellative(aff)
    assert sn.contains((1,))


def test_seminormal_but_not_normal_example():
    # generated by x, y^2, xy inside Z^2
    aff = numeric([(1, 0), (0, 2), (1, 1)], name="A+")
    assert not gm.is_normal(aff)
    sn = gm.seminormalize_cancellative(aff)
    # seminormalization fixes it: same monoid on a window
    for v in gm.saturation_points_in_box(aff):
        assert sn.contains(v) == aff.contains(v)
    nor = gm.normalize_affine(aff)
    assert nor.contains((0, 1))
    assert not aff.contains((0, 1))


def test_seminormal_membership_oracle_agrees():
    for aff in (numeric([(2,), (3,)]), numeric([(1, 0), (0, 2), (1, 1)])):
        for v in gm.saturation_points_in_box(aff):
            exact = gm.seminormal_membership(aff, v)
            powers = gm.seminormal_membership_powers(aff, v)
            assert exact == powers, (aff.name, v)


def test_seminormalization_check_catches_a_wrong_oracle(monkeypatch):
    exact = gm.seminormal_membership
    monkeypatch.setattr(gm, "seminormal_membership", lambda aff, v: not exact(aff, v))
    with pytest.raises(OracleMismatch):
        gm.seminormalize_cancellative(numeric([(2,), (3,)]))


def test_normalization_check_catches_a_wrong_oracle(monkeypatch):
    monkeypatch.setattr(gm, "is_normal", lambda aff: False)
    with pytest.raises(OracleMismatch):
        gm.normalize_affine(numeric([(2,), (3,)]))


ORACLE_LIES_UNDER_O = """
from monoidkit import geometry as gm
from monoidkit.errors import OracleMismatch
from monoidkit.monoids import AffineMonoid

exact = gm.seminormal_membership
gm.seminormal_membership = lambda aff, v: not exact(aff, v)
try:
    gm.seminormalize_cancellative(AffineMonoid("A", 1, [(2,), (3,)]))
except OracleMismatch:
    print("raised, __debug__ =", __debug__)
"""


def test_oracle_checks_survive_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gm.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", ORACLE_LIES_UNDER_O],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised, __debug__ = False"


def test_units_preserved_by_seminormalization():
    # a chart with a genuine unit direction: cone spanned by (1,0), (-1,0), (0,2), (1,1)
    aff = numeric([(1, 0), (-1, 0), (0, 2), (1, 1)], name="U")
    sn = gm.seminormalize_cancellative(aff)
    u1 = gm.unit_lattice_of_chart(aff)
    u2 = gm.unit_lattice_of_chart(sn)
    assert all(gm.in_subgroup(u2, v) for v in u1)
    assert all(gm.in_subgroup(u1, v) for v in u2)


def test_dv_check_line():
    aff = numeric([(1,)])
    (w, scale), = gm.chart_valuations(aff)
    rep = gm.dv_check(aff, w, scale)
    assert rep.is_dv and rep.uniformizer == (1,)


def test_dv_check_quadric_facet():
    aff = cone_xy_z2()
    for w, scale in gm.chart_valuations(aff):
        rep = gm.dv_check(aff, w, scale)
        assert rep.is_dv, (w, rep)


def test_dv_check_fails_non_normal():
    aff = numeric([(2,), (3,)])
    (w, scale), = gm.chart_valuations(aff)
    rep = gm.dv_check(aff, w, scale)
    assert not rep.is_dv


def test_intersection_of_localizations():
    assert gm.intersect_localizations_check(numeric([(1, 0), (0, 1)])).holds
    assert gm.intersect_localizations_check(cone_xy_z2()).holds
    rep = gm.intersect_localizations_check(numeric([(2,), (3,)]))
    assert not rep.holds
    assert (1,) in rep.witnesses


def test_divisors_of_quadric():
    x = gm.affine_scheme(cone_xy_z2())
    pts = gm.height_one_points(x)
    assert len(pts) == 2
    div_x = gm.divisor_of(x, (1, 0), pts)
    div_z = gm.divisor_of(x, (1, 1), pts)
    # div(x) = 2 p1; div(z) = p1 + p2
    assert sorted(div_x.values()) == [2]
    assert sorted(div_z.values()) == [1, 1]
    div_xy = gm.divisor_of(x, (2, 2), pts)
    assert div_xy == {
        k: div_x.get(k, 0) + gm.divisor_of(x, (1, 2), pts).get(k, 0)
        for k in div_xy
    }


def test_class_group_quadric_is_z2():
    x = gm.affine_scheme(cone_xy_z2())
    assert gm.class_group(x).invariants() == AbelianGroup(0, (2,))


def test_class_group_affine_space_trivial():
    for d in (1, 2, 3):
        gens = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
        x = gm.affine_scheme(numeric(gens))
        assert gm.class_group(x).invariants().is_trivial


def test_class_group_on_sublattice_charts():
    # the generators span 2Z^2, so the divisors come from a basis of 2Z^2
    plane = gm.affine_scheme(numeric([(2, 0), (0, 2)]))
    assert gm.class_group(plane).invariants() == AbelianGroup(0)
    quadric = gm.affine_scheme(numeric([(2, 0), (2, 2), (2, 4)]))
    assert gm.class_group(quadric).invariants() == AbelianGroup(0, (2,))


def test_class_group_requires_normal():
    x = gm.affine_scheme(numeric([(2,), (3,)]))
    with pytest.raises(NotNormal):
        gm.class_group(x)


def test_glued_lines_class_group():
    for n in (1, 2, 3):
        x = gm.glued_lines(n + 1)
        assert gm.class_group(x).invariants() == AbelianGroup(n)


def test_projective_space_divisors():
    p2 = gm.projective_space(2)
    pts = gm.height_one_points(p2)
    assert len(pts) == 3
    # div(x_i/x_0) = [x_i] - [x_0]
    d1 = gm.divisor_of(p2, (1, 0), pts)
    assert sorted(d1.values()) == [-1, 1]


def test_projective_space_class_and_pic():
    for n in (1, 2, 3):
        pn = gm.projective_space(n)
        assert gm.class_group(pn).invariants() == AbelianGroup(1)
        assert gm.pic(pn) == AbelianGroup(1)


def test_pic_affine_trivial():
    x = gm.affine_scheme(cone_xy_z2())
    assert gm.pic(x).is_trivial


def test_pic_glued_lines_matches_class_group():
    # locally factorial charts: the two groups agree
    for n in (1, 2, 3):
        x = gm.glued_lines(n + 1)
        assert gm.pic(x) == gm.class_group(x).invariants()


def test_pic_embeds_in_class_group_quadric():
    # Pic of the affine quadric is 0, Cl is Z/2: the inclusion is strict
    x = gm.affine_scheme(cone_xy_z2())
    assert gm.pic(x).is_trivial
    assert gm.class_group(x).invariants() == AbelianGroup(0, (2,))


def test_class_group_products():
    q = gm.affine_scheme(cone_xy_z2())
    p1 = gm.projective_space(1)
    cases = [
        (q, q),
        (p1, p1),
        (p1, q),
    ]
    for a, b in cases:
        prod = gm.product_scheme(a, b)
        ca = gm.class_group(a).invariants()
        cb = gm.class_group(b).invariants()
        cp = gm.class_group(prod).invariants()
        assert cp.free_rank == ca.free_rank + cb.free_rank
        assert sorted(cp.torsion) == sorted(ca.torsion + cb.torsion)


def test_excision_surjection():
    p2 = gm.projective_space(2)
    pts = gm.height_one_points(p2)
    full = gm.class_group(p2).invariants()
    dropped = gm.class_group(p2, drop_points={pts[0].label}).invariants()
    # removing one hyperplane from P^2 leaves affine space: Cl = 0
    assert full == AbelianGroup(1)
    assert dropped.is_trivial


def test_torsion_units_flow_into_pic():
    # two tagged charts glued along the generic point; units Z/2
    ax = AffineMonoid(
        "Ax", 1, [(1,), (1,)], unit_orders=[2], unit_tags=[(0,), (1,)]
    )
    ainv = AffineMonoid(
        "Ainv", 1, [(-1,), (-1,)], unit_orders=[2], unit_tags=[(0,), (1,)]
    )
    x = gm.GluedScheme(1, [ax, ainv], unit_orders=[2], glue="generic")
    p = gm.pic(x)
    assert p == AbelianGroup(1, (2,))


def test_cartier_of_affine():
    x = gm.affine_scheme(numeric([(1, 0), (0, 1)]))
    cart = gm.cartier_group(x)
    # generic units modulo chart units: the full lattice here
    assert cart == AbelianGroup(2)
