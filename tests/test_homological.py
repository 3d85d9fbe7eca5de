import hashlib
import itertools
import os
import subprocess
import sys

import pytest

from monoidkit import asets as ak
from monoidkit import homological as hm
from monoidkit import monoids as mk
from monoidkit import torreal as tr
from monoidkit.errors import NotAComplex, NotReduced, OracleMismatch, ValidationError
from test_acceptance import corpus_monoids


def F1():
    return mk.build_from_presentation([], [], name="F1")


def line(n):
    return mk.build_from_presentation(["x"], [(f"x^{n}", "0")])


def pointed_set(k, m=None):
    m = m or F1()
    carrier = ["0"] + [f"e{i}" for i in range(1, k)]
    action = [[0] * k, list(range(k))]
    return ak.ASet(m, carrier, action=action, name=f"S{k}")


def two_term_complex(m, exp):
    """A =(x^exp, 0)=> A over a finite truncation."""
    a = ak.aset_from_monoid(m)
    xback = m.index_of("x") if "x" in m.elements else None
    r_map = [m.table[m.power(xback, exp)][p] for p in range(len(a.carrier))]
    r = ak.ASetMorphism(a, a, r_map)
    s = ak.zero_morphism(a, a)
    return hm.DaComplex(m, [a, a], [r], [s])


def test_surjections_counts():
    # monotone surjections [k] ->> [m] are counted by binomial(k, m)
    import math

    for k in range(0, 6):
        for m in range(0, k + 1):
            assert len(hm.surjections(k, m)) == math.comb(k, m)
    assert hm.surjections(2, 3) == []


def test_surjection_rules_by_definition():
    # delta_i: [k-1] -> [k] skips i, sigma_i: [k+1] -> [k] hits i twice;
    # every rule is checked against the plain composites on {0..k}
    for k in range(7):
        for m in range(k + 1):
            rules = hm.surjection_rules(k, m)
            assert [rule.eta for rule in rules] == hm.surjections(k, m)
            for eta, faces, degeneracies in rules:
                assert len(faces) == (k + 1 if k else 0)
                for i, (eta2, j) in enumerate(faces):
                    face = tuple(eta[x if x < i else x + 1] for x in range(k))
                    if set(face) == set(range(m + 1)):
                        assert (eta2, j) == (face, None), (eta, i)
                        continue
                    assert j is not None, (eta, i)
                    assert face == tuple(v if v < j else v + 1 for v in eta2), (eta, i)
                    assert len(eta2) == k and eta2[0] == 0 and eta2[-1] == m - 1
                    assert all(b - a in (0, 1) for a, b in zip(eta2, eta2[1:]))
                assert len(degeneracies) == k + 1
                for i, up in enumerate(degeneracies):
                    assert up == tuple(eta[x if x <= i else x - 1] for x in range(k + 2))


def test_zero_complex_valid():
    m = F1()
    z = ak.zero_aset(m)
    c = hm.DaComplex(m, [z, z], [ak.zero_morphism(z, z)], [ak.zero_morphism(z, z)])
    assert hm.validate_dacomplex(c).ok
    assert c.is_reduced()


def test_embedded_chain_complex_is_reduced_dacomplex():
    m = line(4)
    c = two_term_complex(m, 2)
    assert hm.validate_dacomplex(c).ok
    assert c.is_reduced()


def test_random_face_violation_detected():
    m = F1()
    x = pointed_set(3)
    bad = hm.DaComplex(
        m,
        [x, x],
        [ak.ASetMorphism(x, x, [0, 2, 1])],
        [ak.ASetMorphism(x, x, [0, 1, 1])],
    )
    # rr != rs for the pair unless they agree; build a genuinely bad one
    y = pointed_set(3)
    c = hm.DaComplex(
        m,
        [x, x, x],
        [ak.ASetMorphism(x, x, [0, 2, 1]), ak.ASetMorphism(x, x, [0, 1, 2])],
        [ak.ASetMorphism(x, x, [0, 0, 0]), ak.ASetMorphism(x, x, [0, 2, 2])],
    )
    assert not hm.validate_dacomplex(c).ok


def test_homology_two_term():
    # H0 = A/x^n A, H1 = ker(x^n) over the truncated base (nonzero here)
    m = line(4)
    c = two_term_complex(m, 2)
    h0 = hm.homology(c, 0)
    q, _ = ak.quotient_by_subset(
        ak.aset_from_monoid(m),
        sorted({m.table[i][m.index_of("x^2")] for i in m.indices()}),
    )
    assert ak.is_isomorphic(h0, q)
    h1 = hm.homology(c, 1)
    # over the truncation x^2 * x^2 = 0, so the kernel is (x^2, x^3)
    assert len(h1.carrier) == 3


def test_coequalizer_refuses_a_pair_that_is_not_parallel():
    # sources of different sizes: no pair of points to glue is meant
    y = pointed_set(3)
    for x in (pointed_set(2), pointed_set(4)):
        with pytest.raises(NotAComplex):
            hm.coequalizer(ak.zero_morphism(pointed_set(3), y), ak.zero_morphism(x, y))


def test_homology_all_zero_maps():
    m = F1()
    x = pointed_set(4)
    z = ak.zero_morphism(x, x)
    c = hm.DaComplex(m, [x, x, x], [z, z], [z, z])
    for n in range(3):
        assert ak.is_isomorphic(hm.homology(c, n), x)


def test_translation_shifts_homology():
    m = line(4)
    c = two_term_complex(m, 2)
    shifted = c.translate(-1)  # degrees 1, 2
    h = hm.homology(c, 0)
    hs = hm.homology(shifted, 1)
    assert ak.is_isomorphic(h, hs)


def test_projective_resolution_cyclic_quotient():
    m = line(4)
    a = ak.aset_from_monoid(m)
    ix2 = sorted({m.table[i][m.index_of("x^2")] for i in m.indices()})
    x, _ = ak.quotient_by_subset(a, ix2, name="A/x2")
    comp, eps = hm.projective_resolution(x, length_cap=4)
    assert hm.validate_dacomplex(comp).ok
    # over this truncated base the resolution is periodic, so the window
    # is cut at the cap and exact strictly below its top
    assert not comp.complete and not comp.translate(1).complete
    q, _ = hm.coequalizer(*comp.boundary(1))
    assert ak.is_isomorphic(q, x)
    for n in range(1, comp.top_degree):
        h = hm.homology(comp, n)
        assert len(h.carrier) == 1, f"H{n} nonzero"


def test_projective_resolution_free_input_is_length_zero():
    m = line(3)
    f = ak.free_aset(m, ["a", "b"])
    comp, eps = hm.projective_resolution(f)
    assert comp.top_degree == 0
    assert eps.is_injective() and eps.is_surjective()


def test_naive_and_minimized_agree_on_homology():
    m = line(3)
    a = ak.aset_from_monoid(m)
    ix = sorted({m.table[i][m.index_of("x")] for i in m.indices()})
    x, _ = ak.quotient_by_subset(a, ix, name="A/x")
    small, eps1 = hm.projective_resolution(x, length_cap=2, minimized=True)
    big, eps2 = hm.projective_resolution(x, length_cap=2, minimized=False)
    q1, _ = hm.coequalizer(*small.boundary(1))
    q2, _ = hm.coequalizer(*big.boundary(1))
    assert ak.is_isomorphic(q1, q2)
    h1s = hm.homology(small, 1)
    h1b = hm.homology(big, 1)
    assert ak.is_isomorphic(h1s, h1b)


def test_reduced_resolution_shape_and_exactness():
    m = line(4)
    a = ak.aset_from_monoid(m)
    ix2 = sorted({m.table[i][m.index_of("x^2")] for i in m.indices()})
    x, _ = ak.quotient_by_subset(a, ix2, name="A/x2")
    comp, eps = hm.reduced_resolution(x, length_cap=5)
    assert comp.is_reduced()
    q, _ = hm.coequalizer(*comp.boundary(1))
    assert ak.is_isomorphic(q, x)
    for n in range(1, comp.top_degree):
        assert len(hm.homology(comp, n).carrier) == 1


def a_mod_x2():
    m = line(4)
    a = ak.aset_from_monoid(m)
    ix2 = sorted({m.table[i][m.index_of("x^2")] for i in m.indices()})
    return ak.quotient_by_subset(a, ix2, name="A/x2")[0]


def test_reduced_resolution_keeps_the_first_stage_complete_flag():
    # at length 0 neither flavour has looked past P0, so neither may claim
    # the whole resolution; the reduced one used to answer complete = True
    x = a_mod_x2()
    for length in (0, 1):
        full, _ = hm.projective_resolution(x, length_cap=length)
        red, _ = hm.reduced_resolution(x, length_cap=length)
        assert len(full.levels) == len(red.levels) == length + 1
        assert full.complete is red.complete is False, length
    # a free input stops at P0 once it has checked there is nothing to
    # relate, and both flavours report that window as complete
    f = ak.free_aset(line(3), ["a", "b"])
    for length in (1, 3):
        full, _ = hm.projective_resolution(f, length_cap=length)
        red, _ = hm.reduced_resolution(f, length_cap=length)
        assert len(full.levels) == len(red.levels) == 1
        assert full.complete is red.complete is True, length


def test_free_input_is_complete_at_length_zero():
    # at cap 0 the window P0 is complete exactly when the augmentation is
    # injective; both flavours used to answer complete = False here
    for f in (ak.free_aset(line(3), ["a", "b"]), ak.aset_from_monoid(line(2))):
        for minimized in (True, False):
            full, eps = hm.projective_resolution(f, length_cap=0, minimized=minimized)
            assert eps.is_injective() and len(full.levels) == 1
            assert full.complete is True, minimized
        red, _ = hm.reduced_resolution(f, length_cap=0)
        assert len(red.levels) == 1 and red.complete is True


def negative_bound_calls():
    """One call per entry point that takes a cap or truncation, each with
    the value -1."""
    x = a_mod_x2()
    c = two_term_complex(line(3), 1)
    return {
        "projective_resolution": lambda: hm.projective_resolution(x, length_cap=-1),
        "reduced_resolution": lambda: hm.reduced_resolution(x, length_cap=-1),
        "dold_kan_inverse": lambda: hm.dold_kan_inverse(c, -1),
        "tor_complex": lambda: tr.tor_complex(x, 1, trunc=-1),
        "tor_complex_direct": lambda: tr.tor_complex_direct(x, 1, trunc=-1),
    }


@pytest.mark.parametrize("name", sorted(negative_bound_calls()))
def test_negative_caps_and_truncations_raise(name):
    # each used to return an object without levels, or a window of P0
    with pytest.raises(ValidationError, match="must be nonnegative, got -1"):
        negative_bound_calls()[name]()


NEGATIVE_BOUNDS_UNDER_O = """
import test_homological as th
from monoidkit.errors import ValidationError
for name, call in sorted(th.negative_bound_calls().items()):
    try:
        call()
    except ValidationError:
        print("raised", name)
print("__debug__ =", __debug__)
"""


def test_negative_bound_checks_survive_python_O():
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(hm.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    proc = subprocess.run([sys.executable, "-O", "-c", NEGATIVE_BOUNDS_UNDER_O],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:-1] == [
        f"raised {name}" for name in sorted(negative_bound_calls())
    ] + ["__debug__ = False"]


def test_monogenic_resolution_of_cyclic_quotient():
    x = hm.cyclic_quotient_aset(2)
    comp, eps = hm.free_resolution_monogenic(x)
    assert comp.top_degree == 1
    assert comp.level_labels[1] and len(comp.level_labels[1]) == 1
    lbl = comp.level_labels[1][0]
    assert comp.r[0][lbl] == (2, comp.level_labels[0][0])
    assert comp.s[0][lbl] is None


def _relation_closure(comp, ngens, window):
    """Classes of the elements t^k.g_i, k < window, and 0 under the
    t-translates of the relations of P1 (a plain union-find)."""
    parent = {(k, i): (k, i) for k in range(window) for i in range(ngens)}
    parent[0] = 0

    def find(e):
        while parent[e] != e:
            e = parent[e]
        return e

    gi = {lbl: i for i, lbl in enumerate(comp.level_labels[0])}
    for lbl in comp.level_labels[1] if comp.top_degree else []:
        sides = [None if img is None else (img[0], gi[img[1]])
                 for img in (comp.r[0][lbl], comp.s[0][lbl])]
        top = max(e[0] for e in sides if e)
        for j in range(window - top):
            a, b = (0 if e is None else (e[0] + j, e[1]) for e in sides)
            parent[find(a)] = find(b)
    return find


def test_monogenic_resolution_sweep():
    # every monogenic table of carrier <= 5 (701 of them)
    digest = hashlib.sha256()
    for n in range(1, 6):
        for tail in itertools.product(range(n), repeat=n - 1):
            x = ak.aset_from_theta([0] + list(tail))
            comp, eps = hm.free_resolution_monogenic(x)
            ngens = len(comp.level_labels[0])
            relations = comp.level_labels[1] if comp.top_degree else []
            assert len(relations) == ngens, tail  # one relation per generator

            def image(img):
                return 0 if img is None else eps(img[0], comp.level_labels[0].index(img[1]))

            for lbl in relations:
                assert image(comp.r[0][lbl]) == image(comp.s[0][lbl]), (tail, lbl)
            # brute force: on a window of 2n degrees, the relations merge
            # two elements exactly when eps gives them one image
            find = _relation_closure(comp, ngens, 2 * n)
            classes = {}
            for k in range(2 * n):
                for i in range(ngens):
                    v = eps(k, i)
                    rep = find(0) if v == 0 else classes.setdefault(v, find((k, i)))
                    assert find((k, i)) == rep, (tail, k, i)
            assert len(set(classes.values()) | {find(0)}) == len(classes) + 1, tail
            digest.update(repr((comp.level_labels, comp.r, comp.s,
                                [eps(k, i) for i in range(ngens) for k in range(8)])).encode())
    # retaken when aset_generators became minimal: 364 of the 701 tables
    # lost a redundant generator, and the labels and images hashed here
    # are laid out per generator
    assert digest.hexdigest() == (
        "456fb6401d691fd35b6c3ba7508c7177e361b7ece2290c92fdc047599e0f48a1"
    )


def test_monogenic_resolution_needs_no_degree_bound():
    # A/(t^13) and the 13-point chain p1 -> ... -> p13 -> 0 are not free:
    # each has the one relation t^13.g0 = 0, however high its degree
    chain = ak.aset_from_theta([0] + list(range(2, 14)) + [0])
    for x in (hm.cyclic_quotient_aset(13), chain):
        comp, _ = hm.free_resolution_monogenic(x)
        assert comp.level_labels[1] == ["(t^13.g0;0)"]
        assert comp.r[0]["(t^13.g0;0)"] == (13, x.carrier[1])
        assert comp.s[0]["(t^13.g0;0)"] is None


def test_monogenic_relations_are_checked():
    x = hm.cyclic_quotient_aset(13)
    _, eps = hm.free_resolution_monogenic(x)
    zero = (None, None)
    hm._check_fiber_relations([((13, 0), zero)], eps, 1, 28)
    with pytest.raises(OracleMismatch):
        hm._check_fiber_relations([], eps, 1, 28)  # leaves t^13.g0 apart from 0
    with pytest.raises(OracleMismatch):
        hm._check_fiber_relations([((12, 0), zero)], eps, 1, 28)  # two images
    with pytest.raises(OracleMismatch):
        hm._check_fiber_relations([((14, 0), zero)], eps, 1, 28)  # misses t^13.g0


def test_moore_of_constant():
    m = F1()
    x = pointed_set(3)
    s = hm.constant_simplicial(x, 3)
    assert hm.validate_simplicial(s).ok
    n = hm.moore(s)
    assert n.is_reduced()
    # N_0 = X, N_1 = X, N_n = 0 for n >= 2
    assert ak.is_isomorphic(n.levels[0], x)
    assert ak.is_isomorphic(n.levels[1], x)
    for k in range(2, 4):
        assert len(n.levels[k].carrier) == 1
    h0 = hm.homology(n, 0)
    assert ak.is_isomorphic(h0, x)
    assert len(hm.homology(n, 1).carrier) == 1


def test_inverse_construction_basic():
    # the two-term (a, 0) complex over a finite truncation
    m = line(4)
    c = two_term_complex(m, 2)
    s = hm.dold_kan_inverse(c, 3)
    assert hm.validate_simplicial(s).ok
    # nondegenerate 1-cells have d0 = 0 and d1 = multiplication
    nd = s.nondegenerate_index[1]
    for p, idx in nd.items():
        assert s.face(1, 0)(idx) == 0
        assert s.face(1, 1)(idx) == c.r[0](p)


def _layout(s):
    """Everything the inverse construction lays out, as one string."""
    return repr((
        [lvl.carrier for lvl in s.levels],
        [lvl.action for lvl in s.levels],
        [[f.mapping for f in fs] for fs in s.faces],
        [[f.mapping for f in fs] for fs in s.degeneracies],
        s.nondegenerate_index,
    ))


def test_dold_kan_layout_sweep():
    # X => X with r = t^k and s = 0 (the Tor model) for every monogenic
    # table of carrier <= 4, k = 1..3, trunc 4; the hash pins the carrier
    # order, names, actions, faces and degeneracies cell for cell
    digest = hashlib.sha256()
    for n in range(1, 5):
        for tail in itertools.product(range(n), repeat=n - 1):
            x = ak.aset_from_theta([0] + list(tail))
            for k in (1, 2, 3):
                r = ak.ASetMorphism(x, x, [x.act(k, p) for p in range(len(x.carrier))])
                c = hm.DaComplex(x.base, [x, x], [r], [ak.zero_morphism(x, x)])
                s = hm.dold_kan_inverse(c, 4)
                # cell (eta, m, p) sits at its block's start + p
                for level, starts in zip(s.levels, s.block_starts):
                    for (eta, m), s0 in starts.items():
                        tag = "" if len(eta) == m + 1 else f"@{eta}"
                        for p in x.nonzero():
                            assert level.carrier[s0 + p] == f"{x.carrier[p]}{tag}"
                digest.update(_layout(s).encode())
    assert digest.hexdigest() == (
        "eae46268892dda982a015658dfb8d4e6ad888ac68c9098ce015e1f679ffceb58"
    )


def test_dold_kan_layout_of_reduced_resolutions():
    # the reduced resolution, cut at length 3, of every A-set class of
    # carrier 2..4 over each corpus finite monoid of size <= 5 whose bound
    # is at least 2, at trunc 3: the faces meet s_m, r_m and the zero face
    # d_j, j <= m - 2, over bases with several action rows
    digest = hashlib.sha256()
    count = 0
    for m in corpus_monoids(max_size=5):
        for carrier in range(2, 5):
            for x in ak.enumerate_asets(m, carrier):
                c, _ = hm.reduced_resolution(x, length_cap=3)
                if c.top_degree >= 2:
                    digest.update(_layout(hm.dold_kan_inverse(c, 3)).encode())
                    count += 1
    assert count == 49
    assert digest.hexdigest() == (
        "1a9eddfa05982f2440ddc66b537e0b37a2a12fb3873549a2e271e2a15e32e888"
    )


def test_dold_kan_layout_is_not_shared_mutably():
    # two reduced complexes of one shape with different r and s share one
    # cached layout; what a call hands out and the caller then changes must
    # not reach the next call
    m = F1()
    x = pointed_set(3)

    def complex_of(r1, s1, r2, s2):
        r = [ak.ASetMorphism(x, x, f) for f in (r1, r2)]
        s = [ak.ASetMorphism(x, x, f) for f in (s1, s2)]
        return hm.DaComplex(m, [x, x, x], r, s)

    a = complex_of([0, 1, 2], [0, 0, 0], [0, 2, 1], [0, 2, 1])
    b = complex_of([0, 2, 1], [0, 1, 0], [0, 2, 0], [0, 2, 0])
    want = {
        id(a): "dced4f913a56acf16569b7982d11169899465a438d79aa81fa7f7236d9496329",
        id(b): "fbef7961b1bf50281904e39363ad5c86f579deb1f4d1dada0c07b2f9dc044cd5",
    }
    for c in (a, b, a, b):
        assert hm.validate_dacomplex(c).ok and c.is_reduced()
        s = hm.dold_kan_inverse(c, 3)
        assert hm.validate_simplicial(s).ok
        assert hashlib.sha256(_layout(s).encode()).hexdigest() == want[id(c)]
        for maps in s.faces + s.degeneracies:
            for f in maps:
                f.mapping[1:] = [0] * (len(f.mapping) - 1)
        s.nondegenerate_index[1].clear()
        with pytest.raises(TypeError):
            s.block_starts[1][((0, 0), 0)] = 7
        with pytest.raises(TypeError):
            s.block_starts[1] = {}


def test_dold_kan_names_of_non_str_carriers():
    # a cell is named f"{name}{tag}", so int and tuple names print as before
    m = F1()
    x = ak.ASet(m, [0, 7, (1, 2)], action=[[0, 0, 0], [0, 1, 2]], name="N")
    r = ak.ASetMorphism(x, x, [0, 2, 0])
    c = hm.DaComplex(m, [x, x], [r], [ak.zero_morphism(x, x)])
    s = hm.dold_kan_inverse(c, 2)
    assert hm.validate_simplicial(s).ok
    assert [lvl.carrier for lvl in s.levels] == [
        ["0", "7", "(1, 2)"],
        ["0", "7@(0, 0)", "(1, 2)@(0, 0)", "7", "(1, 2)"],
        ["0", "7@(0, 0, 0)", "(1, 2)@(0, 0, 0)", "7@(0, 0, 1)", "(1, 2)@(0, 0, 1)",
         "7@(0, 1, 1)", "(1, 2)@(0, 1, 1)"],
    ]
    assert s.nondegenerate_index == [{1: 1, 2: 2}, {1: 3, 2: 4}, {}]
    assert [[f.mapping for f in fs] for fs in s.faces] == [
        [[0, 1, 2, 0, 0], [0, 1, 2, 2, 0]],
        [[0, 1, 2, 3, 4, 0, 0], [0, 1, 2, 3, 4, 3, 4], [0, 1, 2, 2, 0, 3, 4]],
    ]
    assert [[f.mapping for f in fs] for fs in s.degeneracies] == [
        [[0, 1, 2]], [[0, 1, 2, 3, 4], [0, 1, 2, 5, 6]],
    ]


def test_inverse_construction_rejects_nonreduced():
    m = F1()
    x = pointed_set(3)
    ident = ak.identity_morphism(x)
    c = hm.DaComplex(m, [x, x, x], [ident, ident], [ident, ident])
    with pytest.raises(NotReduced):
        hm.dold_kan_inverse(c, 3)


def test_inverse_of_degree_zero_complex_is_constant():
    m = F1()
    x = pointed_set(3)
    c = hm.DaComplex(m, [x], [], [])
    s = hm.dold_kan_inverse(c, 3)
    assert hm.validate_simplicial(s).ok
    for k in range(4):
        assert len(s.levels[k].carrier) == len(x.carrier)


def test_moore_after_inverse_contains_complex():
    m = line(4)
    c = two_term_complex(m, 2)
    s = hm.dold_kan_inverse(c, 3)
    n = hm.moore(s)
    # N_1 K(C) = C_1 v im(sigma_0)
    assert len(n.levels[1].carrier) == len(c.levels[1].carrier) + len(
        c.levels[0].carrier
    ) - 1
    # the unit embeds C levelwise
    nd = s.nondegenerate_index[1]
    keep = hm._moore_keep(s, 1)
    for p, idx in nd.items():
        assert idx in keep


def test_inverse_construction_validates_over_small_complexes():
    # property sweep: random-ish reduced complexes with small carriers
    m = line(3)
    a = ak.aset_from_monoid(m)
    ix = sorted({m.table[i][m.index_of("x")] for i in m.indices()})
    x, _ = ak.quotient_by_subset(a, ix)
    comp, _ = hm.reduced_resolution(x, length_cap=3)
    window = hm.DaComplex(m, comp.levels[:3], comp.r[:2], comp.s[:2])
    s = hm.dold_kan_inverse(window, 3)
    assert hm.validate_simplicial(s).ok


def test_inverse_validates_on_all_small_two_term_complexes():
    # every pair of boundary morphisms on small carriers gives a valid
    # split simplicial object (two-term complexes are always reduced)
    m = F1()
    x = pointed_set(3)
    homs = [f.mapping for f in ak.hom_enumerate(x, x)]
    for rmap in homs:
        for smap in homs:
            c = hm.DaComplex(
                m,
                [x, x],
                [ak.ASetMorphism(x, x, rmap)],
                [ak.ASetMorphism(x, x, smap)],
            )
            s = hm.dold_kan_inverse(c, 3)
            assert hm.validate_simplicial(s).ok, (rmap, smap)


def test_inverse_validates_on_three_term_reduced_complexes():
    # third boundary maps into the joint kernel of the pair below it
    m = line(3)
    a = ak.aset_from_monoid(m)
    g = m.index_of("x")
    r1 = ak.ASetMorphism(a, a, [m.table[g][p] for p in range(len(a.carrier))])
    s1 = ak.zero_morphism(a, a)
    joint = sorted(
        p for p in range(len(a.carrier)) if r1(p) == 0 and s1(p) == 0
    )
    k = ak.sub_aset(a, joint)
    checked = 0
    for f in ak.hom_enumerate(a, k):
        r2 = ak.ASetMorphism(a, a, [joint[f(p)] for p in range(len(a.carrier))])
        s2 = ak.zero_morphism(a, a)
        c = hm.DaComplex(m, [a, a, a], [r1, r2], [s1, s2])
        if not hm.validate_dacomplex(c).ok or not c.is_reduced():
            continue
        s = hm.dold_kan_inverse(c, 3)
        assert hm.validate_simplicial(s).ok
        checked += 1
    assert checked >= 2


def test_adjunction_degree_zero():
    m = F1()
    x = pointed_set(3)
    c = hm.DaComplex(m, [x], [], [])
    s = hm.constant_simplicial(pointed_set(3), 2)
    rep = hm.adjunction_check(c, s)
    assert rep.bijective
    assert rep.simplicial_count == rep.complex_count == 3 ** 2
    assert rep.counit_is_simplicial


def test_adjunction_roundtrip_on_inverse():
    m = line(3)
    a = ak.aset_from_monoid(m)
    ix = sorted({m.table[i][m.index_of("x")] for i in m.indices()})
    x, _ = ak.quotient_by_subset(a, ix)
    comp, _ = hm.reduced_resolution(x, length_cap=2)
    window = hm.DaComplex(m, comp.levels[:2], comp.r[:1], comp.s[:1])
    s = hm.dold_kan_inverse(window, 2)
    rep = hm.adjunction_check(window, s)
    assert rep.bijective
    assert rep.simplicial_count == rep.complex_count
    assert rep.counit_is_simplicial


def test_adjunction_rejects_low_truncation():
    from monoidkit.errors import TruncationTooLow

    m = line(3)
    a = ak.aset_from_monoid(m)
    g = m.index_of("x")
    r = ak.ASetMorphism(a, a, [m.table[g][p] for p in range(len(a.carrier))])
    z = ak.zero_morphism(a, a)
    c = hm.DaComplex(m, [a, a, a], [r, z], [z, z])
    s = hm.constant_simplicial(a, 1)
    with pytest.raises(TruncationTooLow):
        hm.adjunction_check(c, s)


def test_induced_homology_map_identity():
    m = line(4)
    c = two_term_complex(m, 2)
    ident = hm.DaMorphism(c, c, [ak.identity_morphism(l) for l in c.levels])
    assert ident.validate().ok
    for n in (0, 1):
        g = hm.induced_homology_map(ident, n)
        assert g.mapping == list(range(len(g.mapping)))
    assert hm.is_quasi_isomorphism(ident, [0, 1])


def test_admissible_surjection_induces_admissible():
    # quotient complex map: collapse the target copy
    m = line(4)
    c = two_term_complex(m, 2)
    a = c.levels[0]
    sub = sorted({m.table[i][m.index_of("x^3")] for i in m.indices()})
    q, proj = ak.quotient_by_subset(a, sub)
    r2 = proj.compose(c.r[0])
    # target complex: A -> A/(x^3) with the induced boundary
    r_t = ak.ASetMorphism(q, q, _push_selfmap(proj, c.r[0]))
    s_t = ak.zero_morphism(q, q)
    d = hm.DaComplex(m, [q, q], [r_t], [s_t])
    f = hm.DaMorphism(c, d, [proj, proj])
    assert f.validate().ok
    g = hm.induced_homology_map(f, 0)
    assert g.is_admissible()


def _push_selfmap(proj, f):
    """Induced self-map on the quotient carrier (assumes compatibility)."""
    n = len(proj.target.carrier)
    out = [None] * n
    for p in range(len(proj.source.carrier)):
        cl = proj(p)
        img = proj(f(p))
        if out[cl] is None:
            out[cl] = img
        else:
            assert out[cl] == img
    return out
