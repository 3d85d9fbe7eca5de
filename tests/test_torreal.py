import copy
import itertools
import os
import random
import subprocess
import sys
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoidkit import _kernels, intlin
from monoidkit import asets as ak
from monoidkit import homological as hm
from monoidkit import monoids as mk
from monoidkit import torreal as tr
from monoidkit.abgroup import AbelianGroup
from monoidkit.errors import HypothesisViolated, NotAComplex, ValidationError
from test_kernels import _smith_diagonal


def test_realization_rank_and_nilpotent_action():
    m = mk.build_from_presentation(["x"], [("x^2", "0")])
    a = ak.aset_from_monoid(m)
    assert len(a.carrier) - 1 == 2
    mat = tr.realize_action_matrix(a, m.index_of("x"))
    sq = [[sum(mat[i][k] * mat[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    assert all(v == 0 for row in sq for v in row)


def test_z_realization_surface():
    x = ak.aset_from_theta([0, 2, 0], name="T")
    rank, labels, gens = tr.z_realization(x)
    assert rank == 2 and len(labels) == 2
    t_mat = gens["t"]
    assert t_mat == [[0, 0], [1, 0]]
    # exactness on realizations: a subset sequence realizes with additive ranks
    m = mk.build_from_presentation(["x"], [("x^3", "0")])
    a = ak.aset_from_monoid(m)
    sub = [0, m.index_of("x"), m.index_of("x^2")]
    s = ak.sub_aset(a, sub)
    q, _ = ak.quotient_by_subset(a, sub)
    r_a, _, _ = tr.z_realization(a)
    r_s, _, _ = tr.z_realization(s)
    r_q, _, _ = tr.z_realization(q)
    assert r_a == r_s + r_q


def test_realization_of_projective_is_projector():
    m = mk.build_from_presentation(["x"], [("x^2", "x")])
    a = ak.aset_from_monoid(m)
    e = tr.realize_action_matrix(a, m.index_of("x"))
    ee = [[sum(e[i][k] * e[k][j] for k in range(len(e))) for j in range(len(e))] for i in range(len(e))]
    assert ee == e


def test_smith_homology_textbook():
    # Z --2--> Z in degrees 1 -> 0
    c = tr.IntegerChainComplex([1, 1], [[[2]]])
    h0 = tr.smith_homology(c, 0)
    assert h0.as_group() == AbelianGroup(0, (2,))
    h1 = tr.smith_homology(c, 1)
    assert h1.as_group().is_trivial


def test_smith_homology_permutation_invariance():
    import random

    rng = random.Random(3)
    base = [[1, 0, -1], [0, 2, -2]]
    c1 = tr.IntegerChainComplex([3, 2], [[[1, 0], [0, 2], [-1, -2]]])
    # permute the degree-1 basis
    c2 = tr.IntegerChainComplex([3, 2], [[[0, 1], [2, 0], [-2, -1]]])
    for n in (0, 1):
        assert tr.smith_homology(c1, n).as_group() == tr.smith_homology(c2, n).as_group()


BIG = (1 << 31) + 11  # past the compiled kernel's 64-bit entry guard


@st.composite
def unimodular_pairs(draw, n):
    """(P, P^-1) for a random product of elementary integer operations."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [row[:] for row in p]
    if not n:
        return p, q
    ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3))
    for i, j, c in draw(st.lists(ops, max_size=3 * n)):
        if i == j:  # negate basis vector i
            p[i] = [-a for a in p[i]]
            for row in q:
                row[i] = -row[i]
        else:  # P <- (I + c e_ij) P and P^-1 <- P^-1 (I - c e_ij)
            p[i] = [a + c * b for a, b in zip(p[i], p[j])]
            for row in q:
                row[j] -= c * row[i]
    return p, q


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _diagonal_torsion(factors):
    """Invariant factors > 1 of diag(factors), from determinantal divisors."""
    out, prev = [], 1
    for i in range(1, len(factors) + 1):
        delta = 0
        for sub in itertools.combinations(factors, i):
            delta = gcd(delta, prod(sub))
        out.append(delta // prev)
        prev = delta
    return tuple(e for e in out if e > 1)


@st.composite
def known_complexes(draw):
    """C2 -> C1 -> C0 as a direct sum of pieces Z and Z --d--> Z, with every
    degree's basis hidden by a unimodular change.  Returns the complex and
    the known (betti, torsion) of H0, H1, H2."""
    free = draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))
    factor = st.one_of(st.integers(1, 12), st.integers(BIG, 1 << 40))
    pieces = {n: draw(st.lists(factor, max_size=3)) for n in (1, 2)}

    def layout(n):  # [targets of d_{n+1}] [free part] [sources of d_n]
        return len(pieces.get(n + 1, [])), free[n], len(pieces.get(n, []))

    ranks = [sum(layout(n)) for n in range(3)]
    changes = [draw(unimodular_pairs(r)) for r in ranks]
    diffs = []
    for n in (1, 2):
        block = [[0] * ranks[n] for _ in range(ranks[n - 1])]
        offset = sum(layout(n)[:2])
        for j, d in enumerate(pieces[n]):
            block[j][offset + j] = d
        diffs.append(_matmul(_matmul(changes[n - 1][0], block), changes[n][1]))
    known = [(free[n], _diagonal_torsion(pieces.get(n + 1, []))) for n in range(3)]
    return tr.IntegerChainComplex(ranks, diffs), known


@given(known_complexes())
@settings(max_examples=200, deadline=None)
def test_smith_homology_known_torsion(case):
    c, known = case
    for n, (betti, torsion) in enumerate(known):
        h = tr.smith_homology(c, n)
        assert (h.betti, tuple(h.torsion)) == (betti, torsion), n
    assert tr.smith_homology(c, 3).as_group().is_trivial


@pytest.mark.parametrize(
    "ranks, diffs",
    [
        ([1, 1, 1], [[[1]], [[2]]]),  # ker d1 = 0 but im d2 != 0
        ([1, 2, 1], [[[1, 0]], [[1], [1]]]),  # im d2 leaves ker d1 = Z e2
    ],
)
def test_smith_homology_rejects_non_complex(ranks, diffs):
    # d.d = 0 is checked once, when the complex is built
    with pytest.raises(NotAComplex):
        tr.IntegerChainComplex(ranks, diffs)


def test_complex_check_reaches_the_last_entry():
    # d_1 d_2 = 0 and d_2 d_3 = 0 except at its last row and last column
    d1 = [[1, -1, 0]]
    d2 = [[1, 0, 0], [1, 0, 0], [0, 0, 1]]
    d3 = [[0, 0, 0], [0, 0, 0], [0, 0, 3]]
    with pytest.raises(NotAComplex, match="d_2 d_3"):
        tr.IntegerChainComplex([1, 3, 3, 3], [d1, d2, d3])
    d3[2][2] = 0
    c = tr.IntegerChainComplex([1, 3, 3, 3], [d1, d2, d3])
    assert [tr.smith_homology(c, n).betti for n in range(4)] == [0, 0, 1, 3]


def test_complex_check_sums_before_judging():
    # every entry of d_1 d_2 sums four +-1 products; on the diagonal the
    # running sum goes 1, 2, 1 and reaches 0 only at the last one
    d1 = [[1, 1, 1, 1], [1, -1, 1, -1]]
    d2 = [[1, 1], [1, -1], [-1, -1], [-1, 1]]
    c = tr.IntegerChainComplex([2, 4, 2], [d1, d2])
    groups = [tr.smith_homology(c, n) for n in range(3)]
    assert [(h.betti, h.torsion) for h in groups] == [(0, (2,)), (0, (2,)), (0, ())]


def test_complex_with_a_zero_rank_middle_degree():
    # Z^2 <- 0 <- Z --5--> Z: both products pass through a rank-0 module
    c = tr.IntegerChainComplex([2, 0, 1, 1], [[[], []], [], [[5]]])
    groups = [tr.smith_homology(c, n) for n in range(4)]
    assert [(h.betti, h.torsion) for h in groups] == [(2, ()), (0, ()), (0, (5,)), (0, ())]


NON_COMPLEX_UNDER_O = """
from monoidkit import torreal as tr
from monoidkit.errors import NotAComplex
try:
    tr.IntegerChainComplex([1, 2, 1], [[[1, 0]], [[1], [1]]])
except NotAComplex:
    print("raised")
print("__debug__ =", __debug__)
"""


def test_complex_check_survives_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(tr.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", NON_COMPLEX_UNDER_O],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:-1] == ["raised", "__debug__ = False"]


@pytest.mark.parametrize(
    "ranks, diffs",
    [
        ([2, 1], [[[1]]]),  # d_1 has one row for a rank-2 C_0
        ([1, 1, 1], [[[0, 1]], [[0]]]),  # d_1 is one column too wide
        ([1, 2, 1], [[[1, 0]], [[1], [1, 0]]]),  # a ragged d_2
        ([1, 1, 1], [[[0]]]),  # d_2 missing
        ([1, 1], [[[0]], [[0]]]),  # a differential past the top degree
        ([-1], []),  # a negative rank
    ],
)
def test_complex_rejects_misshapen_differentials(ranks, diffs):
    # d_n must be ranks[n-1] x ranks[n]; [2, 1] with d_1 = [[1]] used to be
    # accepted with H_0 = Z, and [1, 1, 1] raised a bare IndexError
    with pytest.raises(ValidationError, match="d_|differentials|ranks"):
        tr.IntegerChainComplex(ranks, diffs)


MISSHAPEN_UNDER_O = """
from monoidkit import torreal as tr
from monoidkit.errors import ValidationError
for ranks, diffs in (([2, 1], [[[1]]]), ([1, 1, 1], [[[0, 1]], [[0]]])):
    try:
        tr.IntegerChainComplex(ranks, diffs)
    except ValidationError:
        print("raised")
print("__debug__ =", __debug__)
"""


def test_shape_check_survives_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(tr.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", MISSHAPEN_UNDER_O],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:-1] == ["raised", "raised", "__debug__ = False"]


def check_rows_match_dense(c):
    """The sparse rows of each d_n hold exactly the nonzero entries of its
    dense view, and the invariant factors read from the rows are the
    nonzero diagonal of the dense matrix's transform-path Smith form;
    reducing the rows twice leaves them as they were."""
    for n in range(len(c.ranks) + 1):
        dense = c.differential(n)
        want = tuple(_smith_diagonal(dense))
        if 1 <= n < len(c.ranks):
            rows = c.rows[n - 1]
            assert rows == [{j: v for j, v in enumerate(row) if v} for row in dense], n
            before = copy.deepcopy(rows)
            for _ in range(2):
                assert tuple(_kernels.snf_diagonal_rows(rows)) == want, n
                assert rows == before, n
        assert c.invariant_factors(n) == want, n


@given(known_complexes())
@settings(max_examples=100, deadline=None)
def test_rows_and_dense_agree_on_known_complexes(case):
    # torsion factors up to 2^40, past the compiled kernel's guard
    check_rows_match_dense(case[0])


def test_rows_and_dense_agree_on_tor_complexes():
    for n in range(1, 5):
        for theta_tail in itertools.product(range(n), repeat=n - 1):
            x = ak.aset_from_theta([0] + list(theta_tail))
            for k in (1, 2):
                check_rows_match_dense(tr.tor_complex(x, k, trunc=4)[0])
                check_rows_match_dense(tr.tor_complex_direct(x, k, trunc=4))


@pytest.mark.parametrize(
    "ranks, diffs",
    [
        ([], []),
        ([0], []),
        ([3, 0], [[[], [], []]]),
        ([0, 2], [[]]),
        ([2, 0, 1, 1], [[[], []], [], [[5]]]),
        ([1, 1, 1], [[[0]], [[0]]]),
        ([2, 3, 1], [[[1, -1, 0], [0, 1, -1]], [[1], [1], [1]]]),
    ],
)
def test_rows_and_dense_agree_on_small_and_zero_rank_complexes(ranks, diffs):
    c = tr.IntegerChainComplex(ranks, diffs)
    check_rows_match_dense(c)
    assert [c.differential(n) for n in range(1, len(ranks))] == diffs


def test_homology_reduces_each_differential_once(monkeypatch):
    # Z^2 -d2-> Z^3 -d1-> Z^2 with H0 = Z, H1 = Z/2 + Z/6, H2 = 0
    torsion = tr.IntegerChainComplex(
        [2, 3, 2], [[[0, 0, 1], [0, 0, 0]], [[2, 0], [0, 6], [0, 0]]]
    )
    chain, _ = tr.tor_complex(ak.aset_from_theta([0, 2, 0, 1]), 1, trunc=4)
    # the complex hands its rows to snf_diagonal_rows, which runs the
    # sparse pass on either backend and never reaches snf_diagonal
    calls = {"snf_diagonal_rows": 0, "snf_diagonal": 0, "integer_rank": 0}

    def counting(name):
        fn = getattr(_kernels, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(_kernels, name, counting(name))
    for c in (torsion, chain):
        degrees = range(len(c.ranks) + 1)
        calls["snf_diagonal_rows"] = calls["snf_diagonal"] = 0
        groups = [tr.smith_homology(c, n) for n in degrees]
        # d_1 .. d_top at most once each; asking again reduces nothing
        first = dict(calls)
        assert 1 <= first["snf_diagonal_rows"] <= len(c.ranks) - 1
        assert first["snf_diagonal"] == 0
        assert [tr.smith_homology(c, n) for n in degrees] == groups
        assert calls == first
    assert calls["integer_rank"] == 0
    groups = [tr.smith_homology(torsion, n) for n in range(4)]
    assert [(h.betti, h.torsion) for h in groups] == [(1, ()), (0, (2, 6)), (0, ()), (0, ())]


def test_chain_of_constant_simplicial():
    m = mk.build_from_presentation([], [], name="F1")
    carrier = ["0", "a", "b"]
    x = ak.ASet(m, carrier, action=[[0, 0, 0], [0, 1, 2]], name="S3")
    s = hm.constant_simplicial(x, 3)
    chain = tr.chain_of_simplicial(s)
    h0 = tr.smith_homology(chain, 0)
    assert h0.as_group() == AbelianGroup(2)
    for n in (1, 2):
        assert tr.smith_homology(chain, n).as_group().is_trivial


def realize_matrix(f):
    """0/1 matrix of a based morphism on the nonzero bases (columns = source)."""
    rows, cols = len(f.target.carrier) - 1, len(f.source.carrier) - 1
    mat = [[0] * cols for _ in range(rows)]
    for j in range(1, cols + 1):
        if f.mapping[j] != 0:
            mat[f.mapping[j] - 1][j - 1] = 1
    return mat


def test_chain_differentials_are_alternating_face_sums():
    # oracle: d_n as the dense alternating sum of the realized face matrices
    for c in range(1, 5):
        for tail in itertools.product(range(c), repeat=c - 1):
            x = ak.aset_from_theta([0] + list(tail))
            for k, trunc in itertools.product((1, 2, 3), (3, 4)):
                _, sset = tr.tor_complex(x, k, trunc=trunc)
                want = []
                for n in range(1, len(sset.levels)):
                    faces = [realize_matrix(sset.face(n, i)) for i in range(n + 1)]
                    want.append(
                        [
                            [sum((-1) ** i * v for i, v in enumerate(cells)) for cells in zip(*rows)]
                            for rows in zip(*faces)
                        ]
                    )
                chain = tr.chain_of_simplicial(sset)
                dense = [chain.differential(n) for n in range(1, len(chain.ranks))]
                assert dense == want, (tail, k, trunc)
                # an entry that cancels is dropped from the rows, not kept as 0
                assert all(v for d in chain.rows for row in d for v in row.values())


@pytest.mark.parametrize(
    "rows, inner, cols",
    [(0, 3, 2), (3, 0, 2), (2, 3, 0), (1, 1, 1), (4, 5, 3), (6, 2, 7)],
)
def test_matmul_matches_triple_loop(rows, inner, cols):
    rng = random.Random(rows * 100 + inner * 10 + cols)

    def entry():
        return rng.choice((0, 0, 0, 1, -1, rng.randint(-9, 9)))

    for _ in range(20):
        a = [[entry() for _ in range(inner)] for _ in range(rows)]
        b = [[entry() for _ in range(cols)] for _ in range(inner)]
        want = [
            [sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)]
            for i in range(rows)
        ]
        assert intlin.matmul(a, b, cols) == want
        if inner:
            assert intlin.matmul(a, b) == want


def test_tor_rank_injective_action_is_zero():
    x = ak.aset_from_theta([0, 2, 3, 1])  # cyclic permutation: injective
    rep = tr.tor1_monogenic(x, 1)
    assert rep.agree and rep.formula_rank == 0


def test_tor_rank_example_three_points():
    # X = {0, 1, t}: t.1 = t, t.t = 0
    x = ak.aset_from_theta([0, 2, 0])
    rep = tr.tor1_monogenic(x, 1)
    assert rep.agree and rep.formula_rank == 1


def test_tor_rank_multiple_kill():
    # t kills three distinct points: rank 3 contribution
    x = ak.aset_from_theta([0, 0, 0, 0])
    rep = tr.tor1_monogenic(x, 1)
    assert rep.agree and rep.formula_rank == 3


def test_tor_rank_requires_positive_exponent():
    x = ak.aset_from_theta([0, 0])
    with pytest.raises(HypothesisViolated):
        tr.tor1_monogenic(x, 0)


def test_displayed_differential_of_the_model():
    # the level-1 differential sends degenerate cells to zero and a
    # nondegenerate cell p to minus (t^k . p)
    x = ak.aset_from_theta([0, 2, 0])
    chain, sset = tr.tor_complex(x, 1, trunc=3)
    d1 = chain.differential(1)
    nd = sset.nondegenerate_index[1]
    # columns: identify by the carrier labels of level 1
    lvl1 = sset.levels[1]
    for p, idx in nd.items():
        col = [d1[r][idx - 1] for r in range(len(d1))]
        target = x.act(1, p)
        expect = [0] * len(d1)
        if target:
            expect[target - 1] = -1
        assert col == expect
    for idx in range(1, len(lvl1.carrier)):
        if idx in nd.values():
            continue
        col = [d1[r][idx - 1] for r in range(len(d1))]
        assert all(v == 0 for v in col)


def test_direct_and_generic_tor_complexes_match():
    # every monogenic table of carrier <= 4; both builders list the cells
    # of a level m = 0 first, so their matrices agree entry by entry
    for n in range(1, 5):
        for theta_tail in itertools.product(range(n), repeat=n - 1):
            x = ak.aset_from_theta([0] + list(theta_tail))
            for k in (1, 2, 3):
                generic, _ = tr.tor_complex(x, k, trunc=4)
                direct = tr.tor_complex_direct(x, k, trunc=4)
                assert generic.ranks == direct.ranks, (theta_tail, k)
                for n in range(len(generic.ranks) + 1):
                    assert generic.differential(n) == direct.differential(n), (theta_tail, k)
                assert generic.rows == direct.rows, (theta_tail, k)


def test_hurewicz_small_cases():
    for theta_tail in itertools.product(range(3), repeat=2):
        x = ak.aset_from_theta([0] + list(theta_tail))
        for k in (1, 2):
            rep = tr.hurewicz_compare(x, k, trunc=4)
            assert rep.agree, (theta_tail, k, rep)
            assert rep.higher_vanish


def test_h0_of_model_is_quotient_realization():
    # H0 = Z[X / t^k X]
    x = ak.aset_from_theta([0, 2, 3, 0])
    k = 1
    chain, _ = tr.tor_complex(x, k, trunc=3)
    h0 = tr.smith_homology(chain, 0)
    image = sorted({x.act(k, p) for p in range(len(x.carrier))})
    q, _ = ak.quotient_by_subset(x, image)
    assert h0.as_group() == AbelianGroup(len(q.carrier) - 1)


def test_tor0_is_tensor():
    m = mk.build_from_presentation(["x"], [("x^2", "x")])
    a = ak.aset_from_monoid(m)
    x = ak.sub_aset(a, [0, m.index_of("x")])
    t = tr.tor0(x, a)
    assert ak.is_isomorphic(t, x)
