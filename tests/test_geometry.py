import ast
import glob
import hashlib
import importlib.util
import itertools
import json
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monoidkit import geometry as gm
from monoidkit import intlin
from monoidkit.abgroup import AbelianGroup, GroupPresentation, quotient_group
from monoidkit.documents import load_document
from monoidkit.errors import NotNormal, OracleMismatch, ValidationError
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


@pytest.mark.parametrize("vec", [(1, 0, 0), (1,), (0, 1, 0), ()])
def test_seminormal_membership_refuses_vectors_of_the_wrong_length(vec):
    # the chart holds (1, 0) and (0, 1); a longer or shorter vector is no
    # element of Z^2, whatever its leading entries
    aff = numeric([(1, 0), (0, 1)])
    assert gm.seminormal_membership(aff, vec) is False
    assert gm.seminormal_membership_powers(aff, vec) is False
    assert aff.contains(vec) is False


def test_seminormalization_check_catches_a_wrong_oracle(monkeypatch):
    exact = gm.seminormal_membership
    monkeypatch.setattr(gm, "seminormal_membership", lambda aff, v: not exact(aff, v))
    with pytest.raises(OracleMismatch):
        gm.seminormalize_cancellative(numeric([(2,), (3,)]))


def test_normalization_check_catches_a_wrong_oracle(monkeypatch):
    monkeypatch.setattr(gm, "is_normal", lambda aff: False)
    with pytest.raises(OracleMismatch):
        gm.normalize_affine(numeric([(2,), (3,)]))


def test_charts_with_a_monomial_ideal_are_refused():
    # normalize_pc normalizes such a chart's components; normalize_affine
    # used to return P_nor with the ideal dropped
    pc = AffineMonoid("P", 2, [(1, 0), (0, 1)], monomial_ideal=[(1, 1)])
    for run in (gm.normalize_affine, gm.is_normal, gm.seminormalize_cancellative):
        with pytest.raises(ValidationError):
            run(pc)


# -- normalization: Hilbert basis on pointed charts, greedy with units ---------


def greedy_generators(rank, cand, bound):
    """Reference: drop the candidates greedily, largest first, whenever a
    trial chart on the others writes them in at most ``bound`` summands."""
    keep = list(cand)
    for g in sorted(cand, key=lambda v: (-sum(abs(x) for x in v), v)):
        rest = [h for h in keep if h != g]
        if rest and AffineMonoid("trial", rank, rest, degree_bound=bound).contains(g):
            keep = rest
    return sorted(keep)


def box_height(gens):
    """Largest coordinate sum in the zonotope box of nonnegative vectors.
    Summands that are nonzero and nonnegative each add at least 1 to it,
    so no box point needs more of them: bounded membership is exact."""
    return max(1, sum(map(sum, gens)))


@st.composite
def pointed_charts(draw):
    """Rank 1-3, 1-3 nonnegative generators (so the cone is pointed), with
    entries small enough for the greedy reference's trial charts."""
    rank = draw(st.integers(1, 3))
    entry = st.integers(0, {1: 6, 2: 2, 3: 1}[rank])
    return rank, draw(st.lists(st.tuples(*[entry] * rank), min_size=1, max_size=3))


@settings(max_examples=60, deadline=None)
@given(pointed_charts())
@example((2, [(1, 0), (1, 1), (1, 3)]))  # (1,2) joins the Hilbert basis
@example((3, [(1, 0, 0), (0, 1, 0), (1, 1, 2), (0, 0, 1)]))  # (1,1,2) is dropped
@example((2, [(2, 0), (2, 4), (0, 0)]))  # sublattice, zero generator
@example((2, [(0, 0)]))  # no candidates
def test_normalization_is_the_greedy_minimal_generating_set(chart):
    rank, gens = chart
    aff = AffineMonoid("H", rank, gens)
    assert gm.unit_lattice_of_chart(aff) == []
    want = greedy_generators(rank, gm.saturation_generators(aff), box_height(gens))
    # the is_normal oracle scans the normalization's own box, so cover it too
    bound = max(box_height(gens), box_height(want))
    nor = gm.normalize_affine(AffineMonoid("H", rank, gens, degree_bound=bound))
    assert nor.generators == want
    assert_cone_answers_as_fresh(nor, box(gens, rank))
    assert gm.normalize_affine(nor).generators == want


def benchmark_chart_cases():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "generators.py")
    spec = importlib.util.spec_from_file_location("perfbench_generators", path)
    generators = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = generators  # its dataclasses look themselves up
    spec.loader.exec_module(generators)
    return generators.chart_cases()


def test_normalization_of_the_benchmark_charts():
    # images of base charts with closed-form Hilbert bases, each under the
    # bound that makes its bounded searches exact
    for case in benchmark_chart_cases():
        aff = AffineMonoid("C", case.rank, case.gens, degree_bound=case.degree_bound())
        assert gm.unit_lattice_of_chart(aff) == [], case.gens
        nor = gm.normalize_affine(aff)
        assert nor.generators == case.hilbert, case.gens
        cand = gm.saturation_generators(aff)
        assert greedy_generators(case.rank, cand, aff.degree_bound) == case.hilbert
        assert gm.normalize_affine(nor).generators == case.hilbert


@pytest.mark.parametrize(
    "gens, want",
    [
        ([(2, 0), (-2, 0), (1, 1), (0, 3)], [(-1, 0), (0, 1), (1, 0)]),
        ([(1, 0), (-1, 0), (1, 2)], [(-1, 0), (0, 2), (1, 0)]),
    ],
)
def test_charts_with_units_keep_the_greedy_generators(gens, want):
    # with a unit direction the minimal generating set is not unique; the
    # greedy order fixes which one comes out
    aff = numeric(gens)
    assert gm.unit_lattice_of_chart(aff) != []
    assert gm.normalize_affine(aff).generators == want
    assert greedy_generators(2, gm.saturation_generators(aff), aff.degree_bound) == want


def fewest_summands(aff):
    """The least number of generators of a pointed chart summing to a
    vector (infinite when none do), as a function with a shared memo.

    Descends from the vector one nonzero generator at a time, staying in
    the cone, where every sum of generators lies.  The sum of the facet
    normals is positive on every nonzero point of a pointed cone, so it
    falls at each step and the descent ends."""
    normals = gm.chart_cone(aff).normals
    steps = sorted({g for g in aff.generators if any(g)})
    fewest = {}

    def summands(v):
        v = tuple(v)
        if not any(v):
            return 0
        if v not in fewest:
            rests = [tuple(a - b for a, b in zip(v, g)) for g in steps]
            fewest[v] = min(
                (1 + summands(r) for r in rests
                 if all(sum(map(int.__mul__, w, r)) >= 0 for w in normals)),
                default=math.inf,
            )
        return fewest[v]

    return summands


def test_pointed_normality_is_the_hilbert_basis_among_the_generators():
    # the old bounded check, every box point a sum of at most degree_bound
    # generators, is the oracle: where it finds them all the chart is
    # normal, and where the two differ the bound cut the search off
    rng = random.Random(1)
    pointed, differ = 0, 0
    for _ in range(400):
        rank = rng.randint(1, 3)
        gens = [tuple(rng.randint(-3, 3) for _ in range(rank))
                for _ in range(rng.randint(1, 5))]
        aff = AffineMonoid("C", rank, gens)
        if gm.unit_lattice_of_chart(aff):
            continue
        pointed += 1
        box_pts = gm.saturation_points_in_box(aff)
        bounded = all(aff.contains(v) for v in box_pts)
        if gm.is_normal(aff) != bounded:
            differ += 1
            assert not bounded, gens
            summands = fewest_summands(aff)
            assert all(summands(v) <= 64 for v in box_pts), gens
    assert (pointed, differ) == (259, 12)


def test_pointed_normality_reads_no_bounded_membership(monkeypatch):
    def refuse(self, vec, bound=None):
        raise AssertionError("bounded membership asked")

    monkeypatch.setattr(AffineMonoid, "contains", refuse)
    pointed = (
        ([(1, 0), (1, 2), (1, 1)], True), ([(2,), (3,)], False), ([(-3, 2), (1, -1)], True),
    )
    for gens, normal in pointed:
        aff = numeric(gens)
        aff.degree_bound = None
        assert gm.is_normal(aff) is normal
        assert gm.intersect_localizations_check(aff).holds is normal
    # the DV check reads no bound on a chart with units either
    for gens in [g for g, _ in pointed] + [[(1, 0), (-1, 0), (1, 2)]]:
        aff = numeric(gens)
        aff.degree_bound = None
        for w, _ in gm.chart_valuations(aff):
            gm.dv_check(aff, w)


def test_normalization_past_the_degree_bound():
    # the box point (-3, -1) = 4 (-3, 2) + 9 (1, -1) needs 13 summands, past
    # the default bound 8; the bounded normality check of the output used
    # to raise OracleMismatch here
    aff = AffineMonoid("C", 2, [(2, -2), (-3, -1), (-3, 2)])
    nor = gm.normalize_affine(aff)
    assert nor.generators == [(-3, 2), (1, -1)]
    assert not gm.is_normal(aff) and gm.is_normal(nor)
    assert fewest_summands(nor)((-3, -1)) == 13


def test_localization_checks_past_the_degree_bound():
    # the same normal chart: the bounded checks missed (-3, -1), which
    # needs 13 summands, and called it no intersection of its
    # localizations and not DV at the facet (-1, -1)
    nor = gm.normalize_affine(AffineMonoid("C", 2, [(2, -2), (-3, -1), (-3, 2)]))
    assert gm.intersect_localizations_check(nor) == gm.IntersectionReport(True, [])
    reports = {w: gm.dv_check(nor, w) for w, _ in gm.chart_valuations(nor)}
    assert reports == {
        (-2, -3): gm.DVReport(True, (1, -1), None),
        (-1, -1): gm.DVReport(True, (-3, 2), None),
    }
    assert bounded_dv_check(nor, (-1, -1)) == gm.DVReport(False, (-3, 2), (-3, -1))
    with pytest.raises(ValidationError, match="not a facet normal"):
        gm.dv_check(nor, (1, 1))


def test_each_chart_box_is_scanned_once(monkeypatch):
    aff = numeric([(1, 0), (0, 2), (1, 1)], name="xy2")  # pointed, not normal
    scans, built = [], []
    box_points, affine = gm._box_points, gm.AffineMonoid
    monkeypatch.setattr(
        gm, "_box_points", lambda lo, hi: scans.append((tuple(lo), tuple(hi))) or box_points(lo, hi)
    )
    monkeypatch.setattr(gm, "AffineMonoid", lambda *a, **kw: built.append(a) or affine(*a, **kw))
    assert not gm.is_normal(aff)
    nor = gm.normalize_affine(aff)
    assert built == [("xy2_nor", 2, [(0, 1), (1, 0)])]  # the output, no trial charts
    gm.seminormalize_cancellative(aff)
    for w, _ in gm.chart_valuations(aff):
        gm.dv_check(aff, w)
    gm.class_group(gm.affine_scheme(nor))
    assert sorted(scans) == [((0, 0), (1, 1)), ((0, 0), (2, 3))]  # nor, aff

    # callers get their own lists
    pts = gm.saturation_points_in_box(aff)
    want = list(pts)
    pts.clear()
    assert gm.saturation_points_in_box(aff) == want != []
    unit_chart = numeric([(1, 0), (-1, 0), (1, 2)])
    gm.unit_lattice_of_chart(unit_chart)[0][0] = 7
    assert gm.unit_lattice_of_chart(unit_chart) == [[1, 0]]


ORACLE_LIES_UNDER_O = """
from monoidkit import asets as ak, geometry as gm, monoids as mk, projk as pk
from monoidkit import spectra as sp
from monoidkit.errors import OracleMismatch


def caught(module, run):
    try:
        run()
    except OracleMismatch:
        print(module, "raised")


exact = gm.seminormal_membership
gm.seminormal_membership = lambda aff, v: not exact(aff, v)
caught("geometry", lambda: gm.seminormalize_cancellative(mk.AffineMonoid("A", 1, [(2,), (3,)])))
# a second unit doubles the expected automorphism group order
pk.units = lambda m: [1, 1]
caught("projk", lambda: pk.k1_bruteforce(mk.build_from_presentation([], [], name="F1"), 1))
# a section that never exists, for 0 -> A -> A v A -> A -> 0 that splits
line2 = mk.build_from_presentation(["x"], [("x^2", "0")], name="line2")
a = ak.aset_from_monoid(line2)
w = ak.wedge([a, a])
project = ak.ASetMorphism(w, a, [0, 0, 0, 1, 2])
ak.section = lambda f: None
caught("asets", lambda: ak.split_check(ak.wedge_inclusions(w)[0], project))
# no component is primary
sp.is_primary = lambda m, ideal: False
caught("spectra", lambda: sp.primary_decomposition(line2, [0]))
print("__debug__ =", __debug__)
"""


def test_oracle_checks_survive_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gm.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", ORACLE_LIES_UNDER_O],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:-1] == [
        "geometry raised", "projk raised", "asets raised",
        "spectra raised", "__debug__ = False",
    ]


def test_library_has_no_bare_assert():
    # a bare assert vanishes under python -O; oracle checks raise OracleMismatch
    src = os.path.dirname(os.path.abspath(gm.__file__))
    found = []
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True)):
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [
            f"{os.path.basename(path)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_degree_bound_acts_only_where_the_readme_says():
    # the geometry functions that ask bounded membership (a call of
    # .contains) or read degree_bound: the unit-chart branches of the
    # normality, normalization and intersection checks, the product and
    # powers membership, the seminormalization's verification window, and
    # the constructors that copy the bound; an exact path must stay off it
    with open(gm.__file__) as fh:
        tree = ast.parse(fh.read())
    defs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        defs += [n for n in cls.body if isinstance(n, ast.FunctionDef)]
    bounded = sorted(
        fn.name for fn in defs
        if any(
            isinstance(node, ast.Attribute) and node.attr in ("contains", "degree_bound")
            for node in ast.walk(fn)
        )
    )
    assert bounded == [
        "_greedy_generators", "global_sections_contains", "intersect_localizations_check",
        "is_normal", "normalize_affine", "normalize_pc", "seminormal_membership_powers",
        "seminormalize_cancellative",
    ]


def test_units_preserved_by_seminormalization():
    # a chart with a genuine unit direction: cone spanned by (1,0), (-1,0), (0,2), (1,1)
    aff = numeric([(1, 0), (-1, 0), (0, 2), (1, 1)], name="U")
    sn = gm.seminormalize_cancellative(aff)
    u1 = gm.unit_lattice_of_chart(aff)
    u2 = gm.unit_lattice_of_chart(sn)
    assert all(v in intlin.Sublattice(u2, aff.rank) for v in u1)
    assert all(v in intlin.Sublattice(u1, aff.rank) for v in u2)


def test_seminormalization_of_a_group_chart_builds_no_level_set():
    # the chart is a group (unit lattice of rank 3), so every box point is a
    # member and a generator of the result: the verification window asks
    # only about generators, which needs no bound-8 level set (5.3 s before)
    aff = numeric([(-2, 1, 1), (-2, -1, 1), (0, 2, 1), (-3, 1, -3), (3, 0, -1)], name="G3")
    sn = gm.seminormalize_cancellative(aff)
    assert len(sn.generators) == 527
    assert set(sn.generators) == set(gm.saturation_points_in_box(aff)) | set(aff.generators)
    assert sn._level_sets == {}


def test_dv_check_line():
    aff = numeric([(1,)])
    (w, _), = gm.chart_valuations(aff)
    rep = gm.dv_check(aff, w)
    assert rep.is_dv and rep.uniformizer == (1,)


def test_dv_check_quadric_facet():
    aff = cone_xy_z2()
    for w, _ in gm.chart_valuations(aff):
        rep = gm.dv_check(aff, w)
        assert rep.is_dv, (w, rep)


def test_dv_check_fails_non_normal():
    aff = numeric([(2,), (3,)])
    (w, _), = gm.chart_valuations(aff)
    rep = gm.dv_check(aff, w)
    assert not rep.is_dv


def bounded_dv_check(aff, normal, scale=1):
    """Oracle: bounded membership in the localized monoid S + Z(face of S)
    and the unit-times-power factorization checked on the saturation box.
    It tries (2 degree_bound + 1)^|face generators| shifts per point."""
    gens = aff.generators
    face_gens = [g for g in gens if gm._dot(normal, g) == 0]

    def loc_contains(vec):
        # vec = s + z with s in S and z in the group on the face
        coeffs = range(-aff.degree_bound, aff.degree_bound + 1)
        if not face_gens:
            return aff.contains(vec)
        for combo in itertools.product(coeffs, repeat=len(face_gens)):
            shift = [
                vec[i] - sum(c * g[i] for c, g in zip(combo, face_gens))
                for i in range(aff.rank)
            ]
            if aff.contains(shift):
                return True
        return False

    def value(vec):
        return gm._dot(normal, vec) // scale

    # find a uniformizer: bounded scan over the saturation box
    box = gm.saturation_points_in_box(aff)
    uni = None
    for v in box:
        if value(v) == 1 and loc_contains(v):
            uni = v
            break
    if uni is None:
        return gm.DVReport(False, None, None)
    # bounded factorization: every localized element is unit * power
    for v in box:
        if not loc_contains(v):
            continue
        k = value(v)
        u = tuple(a - k * b for a, b in zip(v, uni))
        neg_u = tuple(-a for a in u)
        if not (loc_contains(u) and loc_contains(neg_u)):
            return gm.DVReport(False, uni, v)
    return gm.DVReport(True, uni, None)


def test_closed_form_dv_check_against_the_bounded_search():
    # rank <= 2 and at most one generator on the facet keep the oracle's
    # shifts few; the bound 6 cuts some of its searches off, and there the
    # closed form's certificate is checked by intlin.solve instead
    rng = random.Random(4)
    counts = {"both": 0, "closed only": 0, "neither": 0}
    for _ in range(1000):
        rank = rng.randint(1, 2)
        gens = [tuple(rng.randint(-3, 3) for _ in range(rank))
                for _ in range(rng.randint(1, 4))]
        aff = AffineMonoid("C", rank, gens, degree_bound=6)
        for w, scale in gm.chart_valuations(aff):
            face = [g for g in gens if gm._dot(w, g) == 0]
            if len(face) > 1:
                continue
            mat = [[g[i] for g in face] for i in range(rank)]

            def unit(vec):  # in the group of the face, by intlin.solve
                return intlin.solve(mat, list(vec)) is not None if face else not any(vec)

            def unit_part(g, pi):
                return [a - gm._dot(w, g) // scale * b for a, b in zip(g, pi)]

            closed, bounded = gm.dv_check(aff, w), bounded_dv_check(aff, w, scale)
            # the oracle's DV answers are exact, so the closed form agrees
            assert closed.is_dv or not bounded.is_dv, (gens, w)
            pi = closed.uniformizer
            if pi is None:
                assert not closed.is_dv and scale not in [gm._dot(w, g) for g in gens], (gens, w)
            else:
                assert pi == min(g for g in gens if gm._dot(w, g) == scale), (gens, w)
            if not closed.is_dv:
                counts["neither"] += 1
                if pi is not None:
                    assert closed.witness in gens and not unit(unit_part(closed.witness, pi))
                continue
            # the certificate: every generator is a unit times a power of pi
            assert all(unit(unit_part(g, pi)) for g in gens), (gens, w)
            if bounded.is_dv:
                counts["both"] += 1
                # the two uniformizers differ by a unit of the localization
                assert unit([a - b for a, b in zip(bounded.uniformizer, pi)]), (gens, w)
            else:
                counts["closed only"] += 1
    assert counts == {"both": 617, "closed only": 57, "neither": 182}


@pytest.mark.parametrize("gens, want", [
    ([(1, 0), (-1, 0), (1, 2)], gm.DVReport(True, (1, 2), None)),  # scale 2
    ([(0, 1), (0, -1), (2, 0), (3, 0)], gm.DVReport(False, None, None)),  # values 2, 3
])
def test_dv_check_on_charts_with_units(gens, want):
    # the facet holds the lineality, and the facet's group takes the units in
    aff = numeric(gens)
    (w, scale), = gm.chart_valuations(aff)
    assert gm.dv_check(aff, w) == want
    assert bounded_dv_check(aff, w, scale).is_dv is want.is_dv


@pytest.mark.parametrize("gens, normal, pi", [
    ([(2, 0), (0, 2)], (1, 0), (2, 0)),
    ([(1, 0), (-1, 0), (1, 2)], (0, 1), (1, 2)),
])
def test_dv_check_reads_the_facet_scale(gens, normal, pi):
    # the lattice pairs with the normal in multiples of 2; a scale that
    # defaulted to 1 found no generator of value 1 and answered "not DV"
    aff = numeric(gens)
    assert gm.dv_check(aff, normal) == gm.DVReport(True, pi, None)
    assert bounded_dv_check(aff, normal, 2).is_dv


def test_intersection_of_localizations():
    assert gm.intersect_localizations_check(numeric([(1, 0), (0, 1)])).holds
    assert gm.intersect_localizations_check(cone_xy_z2()).holds
    rep = gm.intersect_localizations_check(numeric([(2,), (3,)]))
    assert not rep.holds
    assert (1,) in rep.witnesses


def box_scan_witnesses(aff, cone):
    """The old scan: points of box, lattice and span where cone membership
    and bounded chart membership differ."""
    return sorted(
        v for v in box(aff.generators, aff.rank)
        if any(v) and v in cone.lattice and cone.in_span(v)
        and cone.in_cone(v) != aff.contains(v)
    )


def test_intersection_witnesses_match_a_scan_of_the_whole_box():
    # with units the witnesses are the old scan's; on a pointed chart they
    # are the Hilbert-basis elements that are not generators, each of which
    # bounded membership misses, and the check holds iff the chart is normal
    rng = random.Random(3)
    charts = [AffineMonoid("C", case.rank, case.gens) for case in benchmark_chart_cases()]
    for _ in range(60):
        rank = rng.randint(1, 3)
        gens = [tuple(rng.randint(-2, 2) for _ in range(rank))
                for _ in range(rng.randint(1, 4))]
        charts.append(AffineMonoid("C", rank, gens))
    for aff in charts:
        cone = gm.ChartCone(aff.generators, aff.rank)
        rep = gm.intersect_localizations_check(aff)
        if gm.unit_lattice_of_chart(aff):
            want = box_scan_witnesses(aff, cone)
            assert (rep.holds, rep.witnesses) == (not want, want), aff.generators
            continue
        assert rep.holds == gm.is_normal(aff), aff.generators
        # the irreducible points of the saturation in the box, by a scan
        sat = [v for v in box(aff.generators, aff.rank)
               if any(v) and v in cone.lattice and cone.in_cone(v)]
        hilbert = [g for g in sat if not any(
            h != g and cone.in_cone([a - b for a, b in zip(g, h)]) for h in sat)]
        assert gm.chart_cone(aff).hilbert_basis() == hilbert, aff.generators
        assert rep.witnesses == [h for h in hilbert if h not in aff.generators], aff.generators
        assert not any(aff.contains(h) for h in rep.witnesses), aff.generators
    # under its degree_bound() bounded membership is exact on the box, so
    # the old scan finds nothing exactly where the check holds
    for case in benchmark_chart_cases():
        aff = AffineMonoid("C", case.rank, case.gens, degree_bound=case.degree_bound())
        rep = gm.intersect_localizations_check(aff)
        want = box_scan_witnesses(aff, gm.ChartCone(aff.generators, aff.rank))
        assert rep.holds == (not want), case.gens


def test_each_chart_filters_its_hilbert_basis_once(monkeypatch):
    # is_normal, normalize_affine and the class group of the normalization
    # filter the chart's box and the normalization's own box, once each
    runs = []
    hilbert_basis = gm.ChartCone.hilbert_basis

    def counted(self):
        if self._hilbert is None:
            runs.append(self.gens)
        return hilbert_basis(self)

    monkeypatch.setattr(gm.ChartCone, "hilbert_basis", counted)
    aff = numeric([(1, 0), (0, 2), (1, 1)], name="xy2")
    assert not gm.is_normal(aff)
    nor = gm.normalize_affine(aff)
    gm.class_group(gm.affine_scheme(nor))
    assert runs == [aff.generators, nor.generators]


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


@pytest.mark.parametrize(
    "gens, cl",
    [
        ([(1,)] * 10, AbelianGroup(0)),
        ([(1, 0), (0, 1)] * 5, AbelianGroup(0)),
        ([(1, 0), (1, 2), (1, 1)] * 4, AbelianGroup(0, (2,))),
        ([(2, 0), (0, 2)] * 6 + [(0, 0)], AbelianGroup(0)),
    ],
)
def test_repeated_generators_do_not_widen_the_box(gens, cl):
    # the box of sums of distinct generators holds the Hilbert basis; a
    # box summing repeats reached past the default bound of 8 summands
    chart = numeric(gens)
    distinct = numeric(sorted(set(gens)))
    assert gm.saturation_points_in_box(chart) == gm.saturation_points_in_box(distinct)
    assert gm.is_normal(chart)
    assert gm.class_group(gm.affine_scheme(chart)).invariants() == cl


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


def test_quotient_group_needs_the_denominator_inside_the_numerator():
    # Pic's quotient N / D: 2Z / 4Z is Z/2, but Z is not inside 2Z
    assert quotient_group(1, [[2]], [[4]]) == AbelianGroup(0, (2,))
    with pytest.raises(ValidationError, match="denominator not contained"):
        quotient_group(1, [[2]], [[1]])


def test_quotient_group_of_dependent_generators():
    # N is presented on a basis, not on its generators: two copies of e_1
    # span Z, and e_1, e_2, e_1 + e_2 span Z^2 (both read one Z too many)
    assert quotient_group(1, [[1], [1]], []) == AbelianGroup(1)
    assert quotient_group(2, [[1, 0], [0, 1], [1, 1]], [[2, 0]]) == AbelianGroup(1, (2,))


@st.composite
def lattice_pairs(draw):
    """Dimension 1-3, 1-4 generators of N (repeats, zeros and dependent
    sets allowed), and up to 3 columns of D, each an integer combination
    of the generators."""
    dim = draw(st.integers(1, 3))
    gens = draw(st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
                         min_size=1, max_size=4))
    combos = draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)),
                           max_size=3))
    den = [[sum(c * g[i] for c, g in zip(combo, gens)) for i in range(dim)] for combo in combos]
    return dim, gens, den


@settings(max_examples=150, deadline=None)
@given(lattice_pairs())
@example((1, [[1], [1]], []))
@example((2, [[1, 0], [0, 1], [1, 1]], [[2, 0]]))
@example((3, [[2, 0, 0], [0, 0, 0], [4, 0, 0]], [[6, 0, 0]]))
def test_quotient_group_matches_a_presentation_on_all_generators(case):
    # oracle: Z^k on every generator, modulo the generators' integer
    # relations and one preimage of each column of D
    dim, gens, den = case
    mat = [[g[i] for g in gens] for i in range(dim)]
    rels = [list(k) for k in intlin.kernel_basis(mat)]
    rels += [intlin.solve(mat, d) for d in den]
    want = GroupPresentation(len(gens), rels).invariants()
    assert quotient_group(dim, gens, den) == want


def test_cart_and_pic_match_closed_forms():
    # a smooth complete fan: Cart is free on its rays and Pic = Cl; lines
    # glued at the generic point: one Cartier generator per chart
    cases = [(gm.projective_space(n), n + 1, 1) for n in range(1, 5)]
    cases += [(gm.glued_lines(k), k, k - 1) for k in range(1, 6)]
    p1 = gm.projective_space(1)
    cases.append((gm.product_scheme(p1, p1), 4, 2))
    for x, cart_rank, pic_rank in cases:
        assert gm.cartier_and_pic(x) == (AbelianGroup(cart_rank), AbelianGroup(pic_rank)), x.name


def test_group_presentation_rejects_relations_of_the_wrong_length():
    # a relation longer than the generator list used to be reduced as it
    # stood: Z / (1, 1) printed 0
    with pytest.raises(ValidationError, match="not one per generator"):
        GroupPresentation(1, [[1, 1]])
    with pytest.raises(ValidationError, match="not one per generator"):
        GroupPresentation(2, [[1, 0], [3]])
    assert str(GroupPresentation(2, [[1, 1]])) == "Z"


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


def test_tagged_cart_and_pic_are_pinned():
    """One sha256 over Cart and Pic of 585 two-chart schemes glued along
    the generic point: unit orders 2, 3, 4 and 6, every pair of tags on
    the two generators, degree bounds 1-3, and the generator shapes
    (1),(-1) / (1),(1) / (1),(2) with the second chart negated.  The
    digest was taken while each chart's torsion units were still closed
    into the subgroup the found tags generate."""
    digest = hashlib.sha256()
    schemes = 0
    for order in (2, 3, 4, 6):
        for tags in itertools.product(range(order), repeat=2):
            for bound in (1, 2, 3):
                for shape in ((1, -1), (1, 1), (1, 2)):
                    charts = [
                        AffineMonoid(
                            name, 1, [(sign * g,) for g in shape],
                            unit_orders=[order], unit_tags=[(t,) for t in tags],
                            degree_bound=bound,
                        )
                        for name, sign in (("U", 1), ("V", -1))
                    ]
                    x = gm.GluedScheme(1, charts, unit_orders=[order], glue="generic")
                    cart, pic = gm.cartier_and_pic(x)
                    digest.update(repr((order, tags, bound, shape, cart, pic)).encode())
                    schemes += 1
    assert schemes == 585
    assert digest.hexdigest() == (
        "6afa5e7551944ba034d78273ef0a03c66318e1e396691fb044e48d911d8867cf"
    )
    # Z/4 with tags (1), (0) at bound 1 finds only the tags 0 and 1, which
    # is no subgroup; Cart and Pic add 4 e_t, so the tag 1 spans it all
    chart = AffineMonoid(
        "U", 1, [(1,), (-1,)], unit_orders=[4], unit_tags=[(1,), (0,)], degree_bound=1
    )
    assert gm._tagged_torsion_units(chart, [4]) == [(1,)]


def bounded_torsion_units(chart, torsion):
    """Oracle: the nonzero tags of every nonnegative combination with zero
    lattice part whose coefficients are at most the chart's degree bound."""
    gens, tags, bound = chart.generators, chart.unit_tags, chart.degree_bound
    found = set()
    for coeffs in itertools.product(range(bound + 1), repeat=len(gens)):
        if not any(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(chart.rank)):
            tag = [sum(c * t[s] for c, t in zip(coeffs, tags)) for s in range(len(torsion))]
            found.add(tuple(t % o for t, o in zip(tag, torsion)))
    return sorted(t for t in found if any(t))


def torsion_span(tags, torsion):
    """The lattice the tags span together with each torsion order times e_t."""
    u = len(torsion)
    orders = [[o * (s == t) for s in range(u)] for t, o in enumerate(torsion)]
    return intlin.Sublattice([list(t) for t in tags] + orders, u)


def same_span(tags, other, torsion):
    a, b = torsion_span(tags, torsion), torsion_span(other, torsion)
    return all(list(t) in b for t in tags) and all(list(t) in a for t in other)


def test_tagged_torsion_units_span_as_the_bounded_search():
    # the two-generator charts of the pinned family, both signs
    charts = 0
    for order in (2, 3, 4, 6):
        for tags in itertools.product(range(order), repeat=2):
            for bound in (1, 2, 3):
                for shape in ((1, -1), (1, 1), (1, 2)):
                    for sign in (1, -1):
                        chart = AffineMonoid(
                            "U", 1, [(sign * g,) for g in shape], unit_orders=[order],
                            unit_tags=[(t,) for t in tags], degree_bound=bound,
                        )
                        want = bounded_torsion_units(chart, [order])
                        assert same_span(gm._tagged_torsion_units(chart, [order]), want,
                                         [order]), (order, tags, bound, shape, sign)
                        charts += 1
    assert charts == 1170
    # on rank-2 charts the bounded search finds a part of the units
    rng = random.Random(2)
    for _ in range(60):
        torsion = [rng.choice((2, 3, 4))]
        gens = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(1, 4))]
        chart = AffineMonoid("U", 2, gens, unit_orders=torsion, degree_bound=3,
                             unit_tags=[(rng.randrange(torsion[0]),) for _ in gens])
        closed = gm._tagged_torsion_units(chart, torsion)
        lattice = torsion_span(closed, torsion)
        assert all(list(t) in lattice for t in bounded_torsion_units(chart, torsion)), gens


def test_tagged_torsion_units_read_no_degree_bound():
    chart = AffineMonoid("U", 1, [(2,), (-3,)], unit_orders=[5], unit_tags=[(1,), (0,)])
    chart.degree_bound = None
    # the dependency 3 (2) + 2 (-3) = 0 carries the tag 3
    assert gm._tagged_torsion_units(chart, [5]) == [(3,)]
    # at rank 0 every generator is zero, so each tag is a unit
    chart = AffineMonoid("P", 0, [(), ()], unit_orders=[4], unit_tags=[(1,), (2,)])
    chart.degree_bound = None
    assert gm._tagged_torsion_units(chart, [4]) == [(1,), (2,)]


@pytest.mark.parametrize("bound", range(1, 9))
def test_tagged_pic_does_not_move_with_the_degree_bound(bound):
    # U's torsion units are the multiples of the tag 3 of (3, 2), all of
    # Z/5, so Pic = 0 at every bound; the bounded search found none at
    # bounds 1 and 2 and answered Z/5
    u = AffineMonoid("U", 1, [(2,), (-3,)], unit_orders=[5], unit_tags=[(1,), (0,)],
                     degree_bound=bound)
    v = AffineMonoid("V", 1, [(1,)], unit_orders=[5], unit_tags=[(0,)], degree_bound=bound)
    x = gm.GluedScheme(1, [u, v], unit_orders=[5], glue="generic")
    assert gm.cartier_and_pic(x) == (AbelianGroup(1, (5,)), AbelianGroup(0))


def test_cartier_of_affine():
    x = gm.affine_scheme(numeric([(1, 0), (0, 1)]))
    cart = gm.cartier_group(x)
    # generic units modulo chart units: the full lattice here
    assert cart == AbelianGroup(2)


# -- the cached cone against direct rank/solve answers -------------------------


def _det(m):
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


class DirectChart:
    """Membership answered without the cached cone: span by the integer
    kernel of the generator rows (v is in the span iff it is orthogonal
    to that complement), lattice by the Smith-free ``HermiteSublattice``,
    cone by Caratheodory (v is a nonnegative combination of some basis of
    the span chosen among the generators, with coefficients from Cramer's
    rule).  The complement and the Hermite rows are built once per chart,
    so each vector is answered with dot products.

    Each simplex keeps its cofactor columns: the determinant of its square
    with column j replaced by x is <cofactors[j], x>, so Cramer's
    coefficients of a vector are dot products."""

    def __init__(self, gens, rank):
        self.orth = (intlin.kernel_basis([list(g) for g in gens]) if gens
                     else [[int(i == j) for j in range(rank)] for i in range(rank)])
        self.lattice = HermiteSublattice(gens, rank)
        self.dim = rank - len(self.orth)
        self.simplices = []
        for basis in itertools.combinations(gens, self.dim):
            for rows in itertools.combinations(range(rank), self.dim):
                square = [[b[r] for b in basis] for r in rows]
                det = _det(square)
                if det:
                    cofactors = [
                        [
                            (-1) ** (i + j) * _det([
                                row[:j] + row[j + 1:]
                                for k, row in enumerate(square) if k != i
                            ])
                            for i in range(self.dim)
                        ]
                        for j in range(self.dim)
                    ]
                    self.simplices.append((rows, det, cofactors))
                    break

    def in_span(self, v):
        return not any(sum(a * b for a, b in zip(w, v)) for w in self.orth)

    def in_lattice(self, v):
        return v in self.lattice

    def in_cone(self, v):
        if not self.in_span(v):
            return False
        for rows, det, cofactors in self.simplices:
            vr = [v[r] for r in rows]
            if all(
                det * sum(c * x for c, x in zip(col, vr)) >= 0 for col in cofactors
            ):
                return True
        return False


@st.composite
def cone_charts(draw):
    rank = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-3, 3)] * rank)
    gens = draw(st.lists(vec, min_size=0, max_size=5))
    sums = st.lists(st.integers(0, max(len(gens) - 1, 0)), min_size=1, max_size=3)
    ideal = [
        tuple(sum(gens[i][k] for i in idx) if gens else 0 for k in range(rank))
        for idx in draw(st.lists(sums, min_size=1, max_size=2))
    ]
    return rank, gens, ideal


# fixed draws: a new chart each run made its time swing from 0.9 to 10.5 s
@settings(max_examples=60, deadline=None, derandomize=True)
@given(cone_charts())
@example((2, [(1, 1), (2, 2)], [(1, 1)]))  # lower-dimensional cone
@example((2, [(2, 0), (0, 1)], [(2, 1)]))  # faces with different lattices
@example((2, [(2, 0), (0, 2), (0, 0)], [(2, 2)]))  # sublattice, zero generator
@example((3, [(1, 0, 0), (-1, 0, 0), (0, 1, 1)], [(0, 1, 1)]))  # unit direction
@example((1, [], [(0,)]))
def test_cached_cone_matches_direct_answers(chart):
    rank, gens, ideal = chart
    aff = AffineMonoid("C", rank, gens)
    cone = gm.chart_cone(aff)
    assert gm.chart_cone(aff) is cone
    assert cone.normals == gm.facet_normals(gens, rank)
    direct = DirectChart(gens, rank)
    fs = gm.faces(aff)
    face_charts = {f: DirectChart([gens[i] for i in sorted(f)], rank) for f in fs}
    for f, sub in face_charts.items():
        # a face holds every generator in its own cone
        assert all(i in f for i, g in enumerate(gens) if sub.in_cone(g)), f
    lo, hi = gm._zonotope_box(gens, rank)
    for v in gm._box_points(lo, hi):
        assert cone.in_span(v) == direct.in_span(v), v
        assert (v in cone.lattice) == direct.in_lattice(v), v
        in_cone = direct.in_cone(v)
        assert cone.in_cone(v) == in_cone, v
        holders = [f for f, sub in face_charts.items() if in_cone and sub.in_cone(v)]
        for f in fs:
            assert cone.in_face(f, v) == (f in holders), (f, v)
        if not in_cone:
            continue
        # the smallest face holding v is the face of v
        own = min(holders, key=len)
        on_face = face_charts[own].in_lattice(v)
        t = gm._face_of_point(v, cone.normals)
        assert (v in cone.face_lattice(t)) == on_face, v
        assert gm.seminormal_membership(aff, v) == (direct.in_lattice(v) and on_face), v

    pc = AffineMonoid("P", rank, gens, monomial_ideal=ideal)
    avoiding = [
        f for f in fs
        if not any(face_charts[f].in_cone(v) for v in ideal)
    ]
    want = sorted((f for f in avoiding if not any(f < g for g in avoiding)), key=sorted)
    assert gm.faces(pc) == fs
    assert gm.minimal_primes_pc(pc) == want

    # the count does not depend on the bound; bound 1 keeps the
    # verification window to the seminormalization's own generators
    fresh = AffineMonoid("S", rank, gens, degree_bound=1)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        normals = gm.facet_normals
        mp.setattr(gm, "facet_normals", lambda *a: calls.append(a) or normals(*a))
        gm.seminormalize_cancellative(fresh)
    assert len(calls) == 1


# -- cofactor normals, one Smith form per lattice, one cone per saturation -----


def box(gens, rank):
    lo, hi = gm._zonotope_box(gens, rank)
    return list(gm._box_points(lo, hi))


def kernel_facet_normals(gens, rank):
    """Oracle: the facet normals as the integer kernel of each
    (dim - 1)-subset of generators with the span's complement rows, kept
    when the generators they vanish on span dim - 1 dimensions."""
    gens = [tuple(g) for g in gens]
    if gens:
        orth = [list(k) for k in intlin.kernel_basis([list(g) for g in gens])]
    else:
        orth = [[int(i == j) for j in range(rank)] for i in range(rank)]
    dim = rank - len(orth)
    if dim == 0:
        return []
    normals = set()
    for combo in itertools.combinations(gens, dim - 1):
        for cand in intlin.kernel_basis([list(c) for c in combo] + orth or [[0] * rank]):
            g = math.gcd(*cand)
            w = tuple(x // g for x in cand)
            vals = [sum(a * b for a, b in zip(w, x)) for x in gens]
            if not any(vals) or min(vals) < 0 < max(vals):
                continue
            sign = 1 if min(vals) >= 0 else -1
            zeros = [list(x) for x, v in zip(gens, vals) if v == 0]
            if (intlin.rank(zeros) if zeros else 0) == dim - 1:
                normals.add(tuple(sign * x for x in w))
    return sorted(normals)


def hermite_rows(vectors, rank):
    """Row Hermite normal form of the span of ``vectors``, by gcd row
    operations alone: echelon rows with positive pivots, the entries above
    each pivot reduced into [0, pivot), zero rows dropped.  Two families
    span the same lattice iff their forms are equal."""
    rows = [list(v) for v in vectors]
    hnf = []
    for c in range(rank):
        live = [r for r in rows if r[c]]
        while len(live) > 1:  # Euclid down column c
            p = min(live, key=lambda r: abs(r[c]))
            rows = [r if r is p or not r[c] else [a - r[c] // p[c] * b for a, b in zip(r, p)]
                    for r in rows]
            live = [r for r in rows if r[c]]
        if not live:
            continue
        rows.remove(live[0])
        p = live[0] if live[0][c] > 0 else [-a for a in live[0]]
        hnf = [[a - r[c] // p[c] * b for a, b in zip(r, p)] for r in hnf] + [p]
    return hnf


class HermiteSublattice:
    """Oracle: the Hermite rows of the generators as basis; v is a member
    iff subtracting the rows in order, each an integer number of times to
    clear its pivot column, leaves zero."""

    def __init__(self, gens, rank):
        self.basis = hermite_rows(gens, rank)

    def __contains__(self, vec):
        v = list(vec)
        for row in self.basis:
            c = next(i for i, a in enumerate(row) if a)
            q, rem = divmod(v[c], row[c])
            if rem:
                return False
            v = [a - q * b for a, b in zip(v, row)]
        return not any(v)


@st.composite
def generator_sets(draw):
    """Rank 1-4 and at most 6 generators, with entries small enough to keep
    the zonotope box small.  A set may gain a repeat, a sum of two of its
    generators or the zero vector, and may be pushed into the hyperplane
    x_0 = x_1."""
    rank = draw(st.integers(1, 4))
    bound = {1: 4, 2: 3, 3: 1, 4: 1}[rank]
    gens = draw(st.lists(st.tuples(*[st.integers(-bound, bound)] * rank), max_size=5))
    if gens:
        i = draw(st.integers(0, len(gens) - 1))
        j = draw(st.integers(0, len(gens) - 1))
        extra = draw(st.sampled_from(
            [None, gens[i], tuple(a + b for a, b in zip(gens[i], gens[j])), (0,) * rank]
        ))
        if extra is not None:
            gens.append(extra)
    if rank >= 2 and draw(st.booleans()):
        gens = [(g[0],) + g[:1] + g[2:] for g in gens]
    return rank, gens


@settings(max_examples=150, deadline=None)
@given(generator_sets())
@example((3, []))
@example((2, [(0, 0), (0, 0)]))  # zero generators only
@example((3, [(1, 0, 1), (1, 0, 1), (0, 1, 0)]))  # a repeated generator
@example((3, [(1, 1, 0), (0, 1, 1), (1, 2, 1), (1, 0, -1)]))  # dependent, a plane
@example((4, [(1, 1, 0, 0), (2, 2, 0, 0), (0, 0, 0, 0)]))  # a ray
@example((4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1), (-1, 0, 0, 0)]))
@example((2, [(2, 0), (1, 3), (-1, 3)]))  # index-6 sublattice
def test_cofactor_normals_and_one_smith_lattice_match_the_old_constructions(chart):
    rank, gens = chart
    assert gm.facet_normals(gens, rank) == kernel_facet_normals(gens, rank)
    lattice, oracle = intlin.Sublattice(gens, rank), HermiteSublattice(gens, rank)
    # an independent family spanning the generators' lattice
    assert hermite_rows(lattice.basis, rank) == oracle.basis
    assert len(lattice.basis) == len(oracle.basis)
    mat = [[g[i] for g in gens] for i in range(rank)]
    for v in box(gens, rank):
        member = v in lattice
        assert member == (v in oracle), v
        solvable = intlin.solve(mat, list(v)) is not None if gens else not any(v)
        assert member == solvable, v
        # the coordinates rebuild v from the basis, and exist only for members
        y = lattice.coordinates(v)
        if solvable:
            rebuilt = [sum(c * b[i] for c, b in zip(y, lattice.basis)) for i in range(rank)]
            assert rebuilt == list(v), v
        else:
            assert y is None, v


def test_sublattice_refuses_columns_and_vectors_of_the_wrong_length():
    with pytest.raises(ValidationError, match="3 entries, not 2"):
        intlin.Sublattice([[1, 2, 3]], 2)
    with pytest.raises(ValidationError, match="1 entries, not 2"):
        intlin.Sublattice([[1, 0], [4]], 2)
    with pytest.raises(ValidationError, match="0 entries, not 1"):
        intlin.Sublattice([[0], []], 1)  # a zero column is checked too
    lattice = intlin.Sublattice([[1, 0]], 2)
    for vec in ([1, 0, 5], [1], [1, 0, 0]):
        with pytest.raises(ValidationError, match=f"{len(vec)} entries, not 2"):
            vec in lattice
        with pytest.raises(ValidationError, match=f"{len(vec)} entries, not 2"):
            lattice.coordinates(vec)
    assert [1, 0] in lattice and [0, 1] not in lattice


@st.composite
def column_sets(draw):
    """dim 0-4 and up to 5 columns; the last may be a repeat, a sum of two
    others or zero."""
    dim = draw(st.integers(0, 4))
    cols = draw(st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim), max_size=4))
    if cols:
        i, j = draw(st.integers(0, len(cols) - 1)), draw(st.integers(0, len(cols) - 1))
        extra = draw(st.sampled_from(
            [None, cols[i], [a + b for a, b in zip(cols[i], cols[j])], [0] * dim]
        ))
        if extra is not None:
            cols.append(extra)
    return dim, cols


@settings(max_examples=150, deadline=None)
@given(column_sets())
@example((0, []))
@example((0, [[], []]))
@example((3, []))
@example((3, [[0, 0, 0]]))
@example((3, [[1, 2, 3], [2, 4, 6], [0, 0, 0]]))  # one direction
@example((4, [[2, 0, 0, 0], [0, 3, 0, 0], [1, 1, 1, 1], [3, 4, 1, 1]]))  # dependent, index 6
def test_lattice_complement_is_the_kernel_of_the_transposed_matrix(case):
    dim, cols = case
    lattice = intlin.Sublattice(cols, dim)
    if cols:
        oracle = [list(k) for k in intlin.kernel_basis(cols)]
    else:
        oracle = [[int(i == j) for j in range(dim)] for i in range(dim)]
    # every row is orthogonal to every column
    assert all(sum(a * b for a, b in zip(w, c)) == 0 for w in lattice.complement for c in cols)
    # the ranks add up to dim
    assert len(lattice.complement) + len(lattice.basis) == dim
    # and the rows span the same integer complement as the kernel's
    assert hermite_rows(lattice.complement, dim) == hermite_rows(oracle, dim)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
))
@example([[0, 2, 1], [1, 0, 0], [0, 1, 3]])  # a zero pivot, swapped
@example([[1, 2], [2, 4]])
def test_fraction_free_determinant_matches_laplace(square):
    assert gm._det(square) == _det(square)


def test_cofactors_are_orthogonal_to_the_rows():
    # <w, x> = det([x; rows]), so w is orthogonal to both rows
    assert gm._cofactors([[1, 0, 0], [0, 1, 0]], 3) == [0, 0, 1]
    assert gm._cofactors([[1, 2, 3], [2, 4, 6]], 3) == [0, 0, 0]


def assert_cone_answers_as_fresh(out, points):
    """out's cone record, built from its input's, answers as one built from
    out's own generators: normals, unit lattice, and span, cone and lattice
    membership at ``points``."""
    shared, fresh = gm.chart_cone(out), gm.ChartCone(out.generators, out.rank)
    assert shared.normals == fresh.normals
    assert shared.unit_lattice() == fresh.unit_lattice()
    for v in points:
        assert shared.in_span(v) == fresh.in_span(v), v
        assert shared.in_cone(v) == fresh.in_cone(v), v
        assert (v in shared.lattice) == (v in fresh.lattice), v


def corpus_charts():
    """The corpus's cancellative charts: its affine monoid documents (a
    monomial ideal replaced by the components ``normalize_pc`` normalizes)
    and the charts of its scheme documents."""
    root = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "corpus")
    charts = []
    for path in sorted(glob.glob(os.path.join(root, "monoids", "*.json"))):
        with open(path, encoding="utf-8") as fh:
            if json.load(fh)["kind"] != "affine":
                continue
        aff = load_document(path)
        if aff.is_pc_quotient:
            charts += [
                AffineMonoid(f"{aff.name}_c{k}", aff.rank, [aff.generators[i] for i in sorted(f)])
                for k, f in enumerate(gm.minimal_primes_pc(aff))
            ]
        else:
            charts.append(aff)
    for path in sorted(glob.glob(os.path.join(root, "schemes", "*.json"))):
        charts += load_document(path).charts
    return charts


SHARED_CONE_CHARTS = [
    (2, [(1, 1), (2, 2)]),
    (2, [(2, 0), (0, 1)]),
    (2, [(2, 0), (0, 2), (0, 0)]),
    (3, [(1, 0, 0), (-1, 0, 0), (0, 1, 1)]),
    (1, []),
    (2, [(1, 0), (-1, 0), (0, 2), (1, 1)]),
    (2, [(2, 0), (-2, 0), (1, 1), (0, 3)]),
]


@pytest.mark.parametrize(
    "aff",
    [AffineMonoid("C", rank, gens) for rank, gens in SHARED_CONE_CHARTS] + corpus_charts(),
    ids=lambda aff: f"{aff.name}{aff.generators}",
)
def test_normalization_shares_the_cone_of_its_chart(aff, monkeypatch):
    calls = []
    normals = gm.facet_normals
    monkeypatch.setattr(gm, "facet_normals", lambda *a: calls.append(a) or normals(*a))
    fresh = AffineMonoid(aff.name, aff.rank, aff.generators)
    nor = gm.normalize_affine(fresh)
    assert len(calls) == 1  # the output's is_normal check reuses the normals
    gm.seminormalize_cancellative(fresh)
    assert len(calls) == 1  # the seminormalization's cone waits for first use
    assert_cone_answers_as_fresh(nor, box(aff.generators, aff.rank))
    # how the saturation was made does not change its own normalization
    again = AffineMonoid(nor.name, nor.rank, nor.generators)
    assert gm.normalize_affine(nor).generators == gm.normalize_affine(again).generators


@pytest.mark.parametrize("rank, gens, smith_forms", [
    # pointed, full lattice; pointed, an index-4 sublattice of Z^2
    (2, [(1, 0), (1, 1), (1, 2)], (2, 2, 0)),
    (2, [(2, 0), (2, 2), (2, 4)], (2, 2, 0)),
    # a unit direction: both unit lattices need a kernel
    (2, [(1, 0), (-1, 0), (0, 2), (1, 1)], (4, 1, 0)),
])
def test_each_chart_lattice_is_one_smith_form(rank, gens, smith_forms, monkeypatch):
    """normalize_affine: the chart's and the saturation's lattices, plus
    each one's unit-lattice kernel when the cone has units, since a
    pointed cone, and so its saturation, has a zero unit lattice read
    off its normals.  seminormalize_cancellative: one lattice
    per facet a box point lies on; the whole-cone face is the chart
    lattice.  class_group of the normalization: none, as the span check
    and the divisor rows read the saturation's lattice and the span
    complement came with it."""
    calls = []
    snf = intlin.snf
    monkeypatch.setattr(intlin, "snf", lambda m: calls.append(m) or snf(m))

    def counted(run):
        before = len(calls)
        out = run()
        return out, len(calls) - before

    aff = AffineMonoid("C", rank, gens)
    nor, n_nor = counted(lambda: gm.normalize_affine(aff))
    _, n_sn = counted(lambda: gm.seminormalize_cancellative(aff))
    _, n_cl = counted(lambda: gm.class_group(gm.affine_scheme(nor)))
    assert (n_nor, n_sn, n_cl) == smith_forms
    for chart in (aff, nor):
        cone = gm.chart_cone(chart)
        assert cone.face_lattice(()) is cone.lattice
        assert cone.complement is cone.lattice.complement
