"""Acceptance suite: one test per criterion, exact expectations.

Run ``pytest tests/test_acceptance.py -s`` for the line-per-criterion
report, or ``python3 tests/test_acceptance.py`` standalone.  Criterion 8
sweeps every monogenic-base A-set with carrier up to 7 and takes the
longest (about 3 s pure-Python on a 2-vCPU machine).
"""

import itertools
import json
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from monoidkit import asets as ak
from monoidkit import documents as docs
from monoidkit import extensions as ex
from monoidkit import geometry as gm
from monoidkit import homological as hm
from monoidkit import monoids as mk
from monoidkit import projk as pk
from monoidkit import spectra as sp
from monoidkit import torreal as tr
from monoidkit.abgroup import AbelianGroup

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "corpus", "monoids")


def corpus_monoids(max_size=None):
    out = []
    for fname in sorted(os.listdir(CORPUS)):
        if not fname.endswith(".json"):
            continue
        with open(os.path.join(CORPUS, fname)) as fh:
            doc = json.load(fh)
        if doc.get("kind") != "finite-table":
            continue
        m = docs.parse_monoid(doc)
        if max_size is None or len(m.elements) <= max_size:
            out.append(m)
    return out


def idem_cube(n):
    gens = [f"x{i}" for i in range(1, n + 1)]
    rels = [(f"x{i}^2", f"x{i}") for i in range(1, n + 1)]
    return mk.build_from_presentation(gens, rels, name=f"idem{n}")


# -- criterion 1: prime spectra ------------------------------------------------


def criterion_1():
    m = mk.build_from_presentation(["x", "y"], [("x^2", "x"), ("y^2", "y")])
    primes = sp.mspec(m)
    assert [str(p) for p in primes] == ["(0)", "(x)", "(y)", "(x, y)"]
    m4 = idem_cube(4)
    primes4 = sp.mspec(m4)
    assert len(primes4) == 16
    assert sp.dimension(m4) == 4
    return "MSpec(idem2) = {(0),(x),(y),(x,y)}; idem4 has 16 primes, dim 4"


# -- criterion 2: rank vector ----------------------------------------------------


def criterion_2():
    m = mk.build_from_presentation(["x", "y"], [("x^2", "x"), ("y^2", "y")])
    a = ak.aset_from_monoid(m)
    orbit = sorted({m.table[b][m.index_of("x")] for b in m.indices()} | {0})
    x = ak.sub_aset(a, orbit, name="Ax")
    primes = sp.mspec(m)
    assert [str(p) for p in primes] == ["(0)", "(x)", "(y)", "(x, y)"]
    vec = pk.rank_vector(x, primes)
    assert vec == [1, 0, 1, 0], vec
    return "rank vector of Ax over idem2 is (1,0,1,0)"


# -- criterion 3: primary decomposition sweep -------------------------------------


def criterion_3():
    checked = 0
    for m in corpus_monoids(max_size=8):
        for ideal in sp.all_ideals(m):
            if not ideal.is_proper:
                continue
            comps = sp.primary_decomposition(m, ideal)
            inter = set(m.indices())
            for c in comps:
                inter &= c.elements
                assert sp.is_primary(m, c)
            assert inter == ideal.elements
            ass = sp.associated_primes(m, ideal)  # self-asserts three ways
            assert {p.elements for p in ass} == {
                sp.radical(m, c).elements for c in comps
            }
            checked += 1
    assert checked >= 50
    return f"{checked} ideals decomposed and cross-checked across the corpus"


# -- criterion 4: K0 and K1 -------------------------------------------------------


def criterion_4():
    for gens, rels in ([], []), (["x"], [("x^3", "0")]), (["x"], [("x^3", "1")]):
        m = mk.build_from_presentation(gens, rels)
        assert pk.k0(m).invariants() == AbelianGroup(1)
    idem2 = mk.build_from_presentation(["x", "y"], [("x^2", "x"), ("y^2", "y")])
    ring = pk.k0(idem2)
    assert ring.invariants() == AbelianGroup(4)
    gi = {g: i for i, g in enumerate(ring.generators)}
    for a in ring.generators:
        for b in ring.generators:
            ia, ib = gi[a], gi[b]
            prod = idem2.table[idem2.index_of(a)][idem2.index_of(b)]
            expect = None if prod == 0 else gi[idem2.elements[prod]]
            assert ring.mult[(ia, ib)] == expect
    for n in (2, 3, 4):
        cn = mk.build_from_presentation(["x"], [(f"x^{n}", "1")], name=f"C{n}")
        inv = pk.k1(cn).invariants()
        # Z/n x Z/2 in canonical divisibility order
        want = AbelianGroup(0, (2, n)) if n % 2 == 0 else AbelianGroup(0, (2 * n,))
        assert inv == want, (n, inv)
    # brute-force cross-check: abelianized automorphisms of free objects
    for n in (2, 3):
        cn = mk.build_from_presentation(["x"], [(f"x^{n}", "1")], name=f"C{n}")
        for copies in (2, 3):
            brute = pk.k1_bruteforce(cn, copies)
            assert brute == pk.k1(cn).invariants(), (n, copies, brute)
    f1 = mk.build_from_presentation([], [], name="F1")
    for copies in (2, 3):
        assert pk.k1_bruteforce(f1, copies) == AbelianGroup(0, (2,))
    return "K0 = Z / Z^4 with products; K1(C_n) = Z/n x Z/2 incl. brute Aut"


# -- criterion 5: G0 and the filtration identity ----------------------------------


def criterion_5():
    f1 = mk.build_from_presentation([], [], name="F1")
    seeds = [
        ak.ASet(
            f1,
            ["0"] + [f"e{i}" for i in range(1, k)],
            action=[[0] * k, list(range(k))],
            name=f"S{k}",
        )
        for k in range(1, 6)
    ]
    res = pk.g0(seeds, middle_bound=5)
    assert res.invariants() == AbelianGroup(1)

    line3 = mk.build_from_presentation(["x"], [("x^3", "0")], name="line3")
    all_asets = []
    for c in range(1, 6):
        all_asets.extend(ak.enumerate_asets(line3, c))
    res3 = pk.g0(all_asets, middle_bound=5)
    assert res3.invariants() == AbelianGroup(1)
    ideal = sorted({line3.table[i][line3.index_of("x")] for i in line3.indices()} | {0})
    for x in all_asets:
        rep = pk.devissage_check(line3, ideal, x, middle_bound=5)
        assert rep.identity_holds, x.name
        assert rep.quotients_are_base_quotient_sets
    return (
        f"G0(F1) = Z on pointed sets <= 5; G0(line3) = Z with the filtration "
        f"identity on {len(all_asets)} carriers <= 5"
    )


# -- criterion 6: resolutions sweep ------------------------------------------------


def _naive_degree1_homology_is_trivial(p1, r1, s1):
    """Degree-1 homology of the full-pullback flavor, computed through the
    generic quotient machinery (classes of the fiber congruence)."""
    fibers = {}
    for p in range(len(p1.carrier)):
        fibers.setdefault((r1(p), s1(p)), []).append(p)
    pairs = []
    for members in fibers.values():
        pairs.extend((members[0], q) for q in members[1:])
    q, proj = ak.quotient_aset(p1, pairs)
    induced_r = {}
    induced_s = {}
    for p in range(len(p1.carrier)):
        cl = proj(p)
        assert induced_r.setdefault(cl, r1(p)) == r1(p)
        assert induced_s.setdefault(cl, s1(p)) == s1(p)
    kernel = [cl for cl in range(len(q.carrier)) if induced_r[cl] == 0 and induced_s[cl] == 0]
    return kernel == [0]


def criterion_6():
    checked = 0
    for m in corpus_monoids(max_size=5):
        classes = []
        for c in range(1, 6):
            classes.extend(ak.enumerate_asets(m, c))
        for x in classes:
            small, eps = hm.projective_resolution(x, length_cap=2, minimized=True)
            q0, _ = hm.coequalizer(*small.boundary(1))
            assert ak.is_isomorphic(q0, x), (m.name, x.name)
            for n in range(1, small.top_degree):
                h = hm.homology(small, n)
                assert len(h.carrier) == 1, (m.name, x.name, n)
            # full-pullback flavor: degree 0 and 1 agree
            big, _ = hm.projective_resolution(x, length_cap=1, minimized=False)
            q1, _ = hm.coequalizer(*big.boundary(1))
            assert ak.is_isomorphic(q1, x)
            if big.top_degree >= 1:
                assert _naive_degree1_homology_is_trivial(
                    big.levels[1], big.r[0], big.s[0]
                )
            # reduced flavor
            red, _ = hm.reduced_resolution(x, length_cap=2)
            assert red.is_reduced()
            qr, _ = hm.coequalizer(*red.boundary(1))
            assert ak.is_isomorphic(qr, x)
            for n in range(1, red.top_degree):
                assert len(hm.homology(red, n).carrier) == 1
            checked += 1
    assert checked >= 300
    return f"{checked} A-sets: both flavors exact below the window top, H0 = X"


# -- criterion 7: the two-sided correspondence -------------------------------------


def criterion_7():
    f1 = mk.build_from_presentation([], [], name="F1")
    line2 = mk.build_from_presentation(["x"], [("x^2", "0")], name="line2")
    idem1 = mk.build_from_presentation(["x"], [("x^2", "x")], name="idem1")

    def pointed(k):
        return ak.ASet(
            f1,
            ["0"] + [f"e{i}" for i in range(1, k)],
            action=[[0] * k, list(range(k))],
            name=f"S{k}",
        )

    pairs = []
    # degree-zero complexes against constant simplicial objects
    for k in (2, 3, 4):
        for j in (2, 3):
            c = hm.DaComplex(f1, [pointed(k)], [], [])
            s = hm.constant_simplicial(pointed(j), 2)
            pairs.append((c, s))
    # two-term complexes over finite bases against their own models
    for m in (line2, idem1):
        a = ak.aset_from_monoid(m)
        g = m.index_of("x")
        r = ak.ASetMorphism(a, a, [m.table[g][p] for p in range(len(a.carrier))])
        z = ak.zero_morphism(a, a)
        c = hm.DaComplex(m, [a, a], [r], [z])
        pairs.append((c, hm.dold_kan_inverse(c, 2)))
        pairs.append((c, hm.constant_simplicial(a, 2)))
        c2 = hm.DaComplex(m, [a, a], [z], [z])
        pairs.append((c2, hm.dold_kan_inverse(c, 2)))
    # two-term complexes over the two-point base with arbitrary boundaries
    for rmap in ([0, 0, 0], [0, 1, 0], [0, 2, 1]):
        x3 = pointed(3)
        r = ak.ASetMorphism(x3, x3, rmap)
        s = ak.zero_morphism(x3, x3)
        c = hm.DaComplex(f1, [x3, x3], [r], [s])
        pairs.append((c, hm.dold_kan_inverse(c, 2)))
        pairs.append((c, hm.constant_simplicial(pointed(2), 2)))
    # three-level reduced windows from resolutions
    line3 = mk.build_from_presentation(["x"], [("x^3", "0")], name="line3")
    a3 = ak.aset_from_monoid(line3)
    ix = sorted({line3.table[i][line3.index_of("x")] for i in line3.indices()})
    xq, _ = ak.quotient_by_subset(a3, ix)
    red, _ = hm.reduced_resolution(xq, length_cap=2)
    window = hm.DaComplex(line3, red.levels[:2], red.r[:1], red.s[:1])
    pairs.append((window, hm.dold_kan_inverse(window, 2)))
    pairs.append((window, hm.dold_kan_inverse(window, 3)))

    assert len(pairs) >= 20
    counts = []
    for c, s in pairs:
        rep = hm.adjunction_check(c, s)
        assert rep.bijective, (c.levels[0].name, rep)
        assert rep.simplicial_count == rep.complex_count
        assert rep.counit_is_simplicial
        counts.append(rep.simplicial_count)
    # |Hom(KC, S)| per pair, pinned: the carrier layout of KC must not move them
    assert counts == [2, 3, 4, 9, 8, 27, 5, 2, 6, 5, 1, 3, 81, 4, 18, 2, 9, 1, 6, 6]
    return f"{len(pairs)} (complex, simplicial) pairs with matching counts"


# -- criterion 8: the derived-tensor sweep ------------------------------------------


def _image_deficiencies(theta):
    """n - |im t^k| for k = 1, 2, 3, read off the action table itself
    (im t^(k+1) = t(im t^k))."""
    ranks = []
    image = range(len(theta))
    for _ in range(3):
        image = {theta[p] for p in image}
        ranks.append(len(theta) - len(image))
    return tuple(ranks)


def criterion_8():
    # carriers <= 5: every action table through the full generic pipeline
    generic_checked = 0
    for c in range(2, 6):
        for tail in itertools.product(range(c), repeat=c - 1):
            x = ak.aset_from_theta([0] + list(tail))
            for k in (1, 2, 3):
                rep = tr.tor1_monogenic(x, k)
                chain, _ = tr.tor_complex(x, k, trunc=4)
                h1 = tr.smith_homology(chain, 1)
                assert h1.betti == rep.formula_rank and not h1.torsion
                for n in (2, 3):
                    assert tr.smith_homology(chain, n).as_group().is_trivial
                generic_checked += 1

    # carriers 6 and 7: homology on the first table of each class, and each
    # table's ranks equal to those of its class representative
    monogenic = mk.MonogenicMonoid()
    classes = 0
    raw_checked = 0
    for c in (6, 7):
        class_ranks = {}
        for x in ak.enumerate_asets(monogenic, c):
            theta = tuple(x.action[0])
            ranks = _image_deficiencies(theta)
            for k, rank in zip((1, 2, 3), ranks):
                assert tr.tor1_monogenic(x, k).formula_rank == rank, (theta, k)
                chain = tr.tor_complex_direct(x, k, trunc=4)
                h1 = tr.smith_homology(chain, 1)
                assert h1.betti == rank and not h1.torsion, (theta, k)
                for n in (2, 3):
                    assert tr.smith_homology(chain, n).as_group().is_trivial
            class_ranks[theta] = ranks
        classes += len(class_ranks)
        for tail in itertools.product(range(c), repeat=c - 1):
            theta = (0,) + tail
            key = ak.canonical_theta_key(theta)
            assert _image_deficiencies(theta) == class_ranks[key], (theta, key)
            raw_checked += 3
    return (
        f"{generic_checked} full-pipeline cases (carrier <= 5), "
        f"{raw_checked} per-table rank checks and {classes} homology "
        f"classes (carriers 6-7)"
    )


# -- criterion 9: extension counts ---------------------------------------------------


def criterion_9():
    line2 = mk.build_from_presentation(["x"], [("x^2", "0")], name="line2")
    line3 = mk.build_from_presentation(["x"], [("x^3", "0")], name="line3")
    idem1 = mk.build_from_presentation(["x"], [("x^2", "x")], name="idem1")

    def point(m):
        action = [[0, 0] for _ in m.indices()]
        action[m.one] = [0, 1]
        return ak.ASet(m, ["0", "u"], action=action, name="pt")

    cases = []
    a2 = ak.aset_from_monoid(line2)
    cases.append((point(line2), a2))
    a3 = ak.aset_from_monoid(line3)
    cases.append((point(line3), a3))
    cases.append((point(line3), ak.sub_aset(a3, [0, line3.index_of("x^2")])))
    cases.append((point(idem1), ak.aset_from_monoid(idem1)))
    x2 = ak.enumerate_asets(line2, 3)
    cases.extend((x, a2) for x in x2[:3])
    for x, y in cases:
        exts = ex.ext_enumerate(x, y)
        brute = ex.ext_count_bruteforce(x, y)
        assert len(exts) == brute, (x.name, y.name, len(exts), brute)

    # the pinned example: exactly two extensions, phi = 0 and phi = x
    exts = ex.ext_enumerate(point(line2), a2)
    assert len(exts) == 2
    values = sorted(e.phi_table.get((line2.index_of("x"), 1), 0) for e in exts)
    assert values == [0, line2.index_of("x")]

    # square-zero: exactly two, one recovering the length-3 line
    results = ex.squarezero_enumerate(line2, point(line2))
    assert len(results) == 2
    nontrivial = [t for f, t in results if f]
    assert len(nontrivial) == 1
    e = nontrivial[0].as_finite_monoid()
    assert mk.monoid_isomorphic(e, line3) is not None
    return f"{len(cases)} extension counts match brute force; pinned pairs exact"


# -- criterion 10: geometry -----------------------------------------------------------


def criterion_10():
    quadric = mk.AffineMonoid("quadric", 2, [(1, 0), (1, 2), (1, 1)])
    x = gm.affine_scheme(quadric)
    assert gm.class_group(x).invariants() == AbelianGroup(0, (2,))
    for n in (1, 2, 3, 4):
        assert gm.pic(gm.projective_space(n)) == AbelianGroup(1), n
    for n in (1, 2, 3, 4, 5):
        lines = gm.glued_lines(n + 1)
        assert gm.class_group(lines).invariants() == AbelianGroup(n)
    p1 = gm.projective_space(1)
    pairs = [(x, x), (p1, p1), (p1, x)]
    for a, b in pairs:
        prod = gm.product_scheme(a, b)
        ca, cb = gm.class_group(a).invariants(), gm.class_group(b).invariants()
        cp = gm.class_group(prod).invariants()
        assert cp.free_rank == ca.free_rank + cb.free_rank
        assert sorted(cp.torsion) == sorted(ca.torsion + cb.torsion)
    axes = mk.AffineMonoid("axes", 2, [(1, 0), (0, 1)], monomial_ideal=[(1, 1)])
    comps = gm.normalize_pc(axes)
    assert sorted(tuple(c.generators) for c in comps) == [((0, 1),), ((1, 0),)]
    return "Cl(quadric) = Z/2; Pic(P^n) = Z (n<=4); Cl(lines) = Z^n (n<=5); products; axes split"


# -- criterion 11: sentinels ------------------------------------------------------------


def criterion_11():
    line2 = mk.build_from_presentation(["x"], [("x^2", "0")], name="line2")
    a = ak.aset_from_monoid(line2)
    w = ak.wedge([a, a])
    fold = ak.ASetMorphism(
        w, a, [0] + [i for part in (a, a) for i in part.nonzero()]
    )
    assert fold.validate().ok
    assert fold.kernel_indices() == [0]
    assert not fold.is_injective()
    assert not fold.is_admissible()

    n = 2
    m = mk.build_from_presentation(["x"], [(f"x^{2 * n}", "0")])
    am = ak.aset_from_monoid(m)
    wm = ak.wedge([am, am])
    xn = m.index_of(f"x^{n}")
    y, proj = ak.quotient_aset(
        wm,
        [(wm.wedge_offsets[0] + xn - 1, wm.wedge_offsets[1] + xn - 1)],
        name="Y",
    )
    inc = ak.ASetMorphism(
        am,
        y,
        [proj.mapping[0]] + [proj.mapping[wm.wedge_offsets[1] + i - 1] for i in am.nonzero()],
    )
    coker, cproj = ak.quotient_by_subset(y, sorted(set(inc.mapping)))
    rep = ak.split_check(inc, cproj)
    assert rep.has_retraction
    assert not rep.has_admissible_retraction
    assert not rep.splits
    return "fold map and merged-pair sentinels behave exactly as required"


CRITERIA = [
    (1, criterion_1),
    (2, criterion_2),
    (3, criterion_3),
    (4, criterion_4),
    (5, criterion_5),
    (6, criterion_6),
    (7, criterion_7),
    (8, criterion_8),
    (9, criterion_9),
    (10, criterion_10),
    (11, criterion_11),
]


def _run(num, fn):
    detail = fn()
    print(f"PASS criterion {num}: {detail}")


def test_criterion_01_prime_spectra():
    _run(1, criterion_1)


def test_criterion_02_rank_vector():
    _run(2, criterion_2)


def test_criterion_03_primary_decomposition():
    _run(3, criterion_3)


def test_criterion_04_k0_k1():
    _run(4, criterion_4)


def test_criterion_05_g0_devissage():
    _run(5, criterion_5)


def test_criterion_06_resolutions():
    _run(6, criterion_6)


def test_criterion_07_correspondence():
    _run(7, criterion_7)


def test_criterion_08_derived_tensor():
    _run(8, criterion_8)


def test_criterion_09_extensions():
    _run(9, criterion_9)


def test_criterion_10_geometry():
    _run(10, criterion_10)


def test_criterion_11_sentinels():
    _run(11, criterion_11)


if __name__ == "__main__":
    failures = 0
    for num, fn in CRITERIA:
        try:
            detail = fn()
            print(f"PASS criterion {num}: {detail}")
        except AssertionError as exc:  # pragma: no cover - reporting path
            failures += 1
            print(f"FAIL criterion {num}: {exc}")
    sys.exit(1 if failures else 0)
