import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_asets import corpus_classes

from monoidkit import _kernels, intlin
from monoidkit import asets as ak
from monoidkit import homological as hm
from monoidkit._kernels import closure_py, snf_py

try:
    from monoidkit._kernels import _snf_cy, _closure_cy

    HAVE_COMPILED = True
except ImportError:  # pragma: no cover
    HAVE_COMPILED = False


def check_snf(mat, impl):
    U, D, V = impl.snf_with_transforms(mat)
    m, n = len(mat), len(mat[0]) if mat else 0
    assert intlin.matmul(intlin.matmul(U, mat), V) == D
    # diagonal with divisibility
    for i in range(m):
        for j in range(n):
            if i != j:
                assert D[i][j] == 0
    diag = [D[i][i] for i in range(min(m, n))]
    nz = [d for d in diag if d != 0]
    assert all(d > 0 for d in nz)
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    # transforms unimodular: integer inverses exist
    assert abs(_det(U)) == 1
    assert abs(_det(V)) == 1


def _det(mat):
    n = len(mat)
    a = [row[:] for row in mat]
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        for r in range(col + 1, n):
            while a[r][col] != 0:
                q = a[col][col] // a[r][col]
                a[col] = [x - q * y for x, y in zip(a[col], a[r])]
                a[col], a[r] = a[r], a[col]
                det = -det
    prod = 1
    for i in range(n):
        prod *= a[i][i]
    return prod * det


matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_snf_pure_contract(mat):
    check_snf(mat, snf_py)


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernels not built")
@given(matrices)
@settings(max_examples=150, deadline=None)
def test_snf_compiled_matches_pure(mat):
    # a direct compiled call may legitimately refuse with OverflowError;
    # the dispatcher (exercised below) then falls back to the pure twin
    try:
        check_snf(mat, _snf_cy)
        assert _snf_cy.snf_diagonal(mat) == snf_py.snf_diagonal(mat)
    except OverflowError:
        pass
    assert _kernels.snf_diagonal(mat) == snf_py.snf_diagonal(mat)


def _smith_diagonal(mat):
    # the nonzero diagonal of the transform path, whose contract check_snf proves
    _, D, _ = snf_py.snf_with_transforms(mat)
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0)) if D[i][i]]


def check_snf_diagonal(mat):
    want = _smith_diagonal(mat)
    assert snf_py.snf_diagonal(mat) == want
    assert snf_py.integer_rank(mat) == len(want)
    if HAVE_COMPILED:
        try:
            assert _snf_cy.snf_diagonal(mat) == want
        except OverflowError:
            pass


@st.composite
def sparse_unit_matrices(draw):
    m, n = draw(st.integers(0, 12)), draw(st.integers(0, 16))
    density = draw(st.floats(0, 0.3))
    rnd = draw(st.randoms(use_true_random=False))
    return [
        [rnd.choice((1, -1)) if rnd.random() < density else 0 for _ in range(n)]
        for _ in range(m)
    ]


def _shaped(entries):
    return st.integers(1, 8).flatmap(
        lambda m: st.integers(1, 8).flatmap(
            lambda n: st.lists(
                st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m
            )
        )
    )


near_2_40 = st.sampled_from((0, 1, -1, 2)) | st.builds(
    lambda sign, d: sign * (1 << 40) + d, st.sampled_from((1, -1)), st.integers(-5, 5)
)


@given(sparse_unit_matrices() | _shaped(st.integers(-9, 9)) | _shaped(near_2_40))
@settings(max_examples=300, deadline=None)
def test_snf_diagonal_matches_transform_path(mat):
    check_snf_diagonal(mat)


@given(sparse_unit_matrices() | _shaped(st.integers(-9, 9)) | _shaped(near_2_40))
@settings(max_examples=300, deadline=None)
def test_snf_diagonal_rows_matches_dense(mat):
    # the sparse-row entry copies a row before changing it: same factors,
    # rows left as given
    rows = [{j: v for j, v in enumerate(row) if v} for row in mat]
    before = copy.deepcopy(rows)
    want = _smith_diagonal(mat)
    for _ in range(2):
        assert snf_py.snf_diagonal_rows(rows) == want
        assert _kernels.snf_diagonal_rows(rows) == want
        assert rows == before
    assert _kernels.snf_diagonal(mat) == want


@pytest.mark.parametrize(
    "mat",
    [
        [[], [], []],  # m x 0
        [],  # 0 x 0
        [[0, 0, 0], [0, 0, 0]],  # all zero
        [[-1]],
        [[0, 0], [0, 1], [0, 0]],  # a single unit
        [[2, 4], [6, 8]],  # no unit entry
        [[2, 0, 3], [0, 3, 0], [4, 0, 6]],  # no unit entry, torsion 6
        [[1, 1, 0], [1, 0, 1], [0, 1, 1]],  # fill-in creates a 2
    ],
)
def test_snf_diagonal_edge_cases(mat):
    check_snf_diagonal(mat)


def check_rows(rows, cols):
    """The rows' factors are the transform path's on their dense matrix,
    through both entries, and the rows are left as they were."""
    before = copy.deepcopy(rows)
    want = _smith_diagonal(_kernels.dense_rows(rows, cols))
    assert snf_py.snf_diagonal_rows(rows) == want
    assert _kernels.snf_diagonal_rows(rows) == want
    assert rows == before
    return want


def test_unit_pass_row_gains_a_unit_only_from_a_later_pivot():
    # {0: 2, 1: 3} comes first (fewer entries) and has no unit; the pivot
    # at column 1 comes later and turns its 2 into -1 at the end
    rows = [{0: 2, 1: 3}, {1: 1, 0: 1, 2: 1}]
    assert snf_py._eliminate_unit_pivots(rows) == (1, [[-1, -3]])
    assert check_rows(rows, 3) == [1, 1]


def test_unit_pass_row_cancels_to_zero():
    rows = [{0: 1}, {1: -1}, {0: 1, 1: -1}, {0: 2, 1: -2}]
    assert snf_py._eliminate_unit_pivots(rows) == (2, [])
    assert check_rows(rows, 2) == [1, 1]


def test_unit_pass_row_reduced_by_a_chain_of_pivots():
    # each pivot row meets the next pivot's column, so clearing the last
    # row at column 0 brings in column 1, then 2, then 3
    chain = [{0: 1, 1: 1}, {1: 1, 2: 1}, {2: 1, 3: 1}]
    assert snf_py._eliminate_unit_pivots(chain + [{0: 1, 4: 2, 5: 2}]) == (4, [])
    rows = chain + [{0: 2, 4: 2}]
    assert snf_py._eliminate_unit_pivots(rows) == (3, [[-2, 2]])
    assert check_rows(rows, 5) == [1, 1, 1, 2]


def test_unit_pass_residue_past_2_64():
    big = 1 << 66
    rows = [{0: 1, 1: big}, {0: 1 << 65, 2: 6}, {1: 3, 2: big + 1}]
    ones, residue = snf_py._eliminate_unit_pivots(rows)
    assert ones == 1 and max(abs(v) for row in residue for v in row) > 1 << 64
    assert check_rows(rows, 3) == _kernels.snf_diagonal(_kernels.dense_rows(rows, 3))


def test_unit_pass_ignores_row_and_column_order():
    rng = random.Random(33)
    for _ in range(60):
        m, n = rng.randint(1, 14), rng.randint(1, 14)
        mat = [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(m)]
        want = _smith_diagonal(mat)
        for _ in range(3):
            perm = rng.sample(range(n), n)
            shuffled = rng.sample(mat, m)
            rows = [{perm[j]: v for j, v in enumerate(row) if v} for row in shuffled]
            assert check_rows(rows, n) == want


def test_unit_pass_leaves_reduced_rows_unchanged():
    # pivot rows, rows cleared to zero and residue rows are all the
    # caller's dicts, through the pure entry and the dispatcher
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 2, 3: 2}, {0: 1, 1: 1}, {2: 4}]
    ids = [id(r) for r in rows]
    for _ in range(2):
        check_rows(rows, 4)
    assert [id(r) for r in rows] == ids


def test_unit_pass_on_a_fill_in_family():
    # 100 seeded 30-60 dimensional matrices with entries in {1, -1, 2};
    # taken in row order, the fill-in of this family slowed the pass from
    # hundredths of a second to seconds.  The transform path takes minutes
    # here (entry growth), so the oracle is the dense loop on the whole
    # matrix, with no unit pass
    rng = random.Random(2003)
    for _ in range(100):
        m, n = rng.randint(30, 60), rng.randint(30, 60)
        mat = [[rng.choice((1, -1, 2)) if rng.random() < 0.1 else 0 for _ in range(n)]
               for _ in range(m)]
        dense = [row[:] for row in mat]
        snf_py._reduce(dense, m, n)
        want = [dense[i][i] for i in range(min(m, n)) if dense[i][i]]
        assert snf_py.snf_diagonal(mat) == want


def test_snf_textbook_case():
    # classic: [[2,4,4],[-6,6,12],[10,-4,-16]] -> diag(2, 6, 12)
    mat = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    assert snf_py.snf_diagonal(mat) == [2, 6, 12]
    if HAVE_COMPILED:
        assert _snf_cy.snf_diagonal(mat) == [2, 6, 12]


def test_compiled_overflow_falls_back():
    big = 1 << 40
    mat = [[big, 1], [1, big]]
    # dispatcher must not crash and must agree with the pure twin
    assert _kernels.snf_diagonal(mat) == snf_py.snf_diagonal(mat)


def test_kernel_basis_and_solve():
    mat = [[1, 2, 3], [2, 4, 6]]
    basis = intlin.kernel_basis(mat)
    assert len(basis) == 2
    for col in basis:
        assert all(
            sum(mat[i][j] * col[j] for j in range(3)) == 0 for i in range(2)
        )
    sol = intlin.solve([[2, 0], [0, 3]], [4, 9])
    assert sol == [2, 3]
    assert intlin.solve([[2]], [3]) is None


def test_preimage_lattice():
    # {x in Z^2 : x1 + x2 in 2Z}
    F = [[1, 1]]
    lat = [[2]]
    basis = intlin.preimage_lattice(F, lat)
    vecs = {tuple(b) for b in basis}
    # index-2 sublattice of Z^2
    mat = [[b[i] for b in basis] for i in range(2)]
    assert intlin.invariant_factors(mat) in ([1, 2], [2, 1], [1, 2])
    for b in vecs:
        assert (b[0] + b[1]) % 2 == 0


def closure_oracle(n, tables, pairs):
    """Fixed-point closure by repeated scanning (slow reference)."""
    rep = list(range(n))

    def find(x):
        while rep[x] != x:
            x = rep[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            rep[max(ra, rb)] = min(ra, rb)
            return True
        return False

    for a, b in pairs:
        union(a, b)
    changed = True
    while changed:
        changed = False
        for x in range(n):
            for y in range(x + 1, n):
                if find(x) == find(y):
                    for t in tables:
                        if union(t[x], t[y]):
                            changed = True
    return [find(x) for x in range(n)]


@st.composite
def closure_inputs(draw):
    """(n, action tables on {0..n-1}, seed pairs)."""
    n = draw(st.integers(2, 9))
    k = draw(st.integers(0, 3))
    tables = [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(k)]
    npairs = draw(st.integers(0, 6))
    pairs = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
        for _ in range(npairs)
    ]
    return n, tables, pairs


@given(closure_inputs())
@settings(max_examples=80, deadline=None)
def test_closure_matches_oracle(case):
    n, tables, pairs = case
    got = _kernels.closure(n, tables, pairs)
    want = closure_oracle(n, tables, pairs)
    # compare partitions
    assert [want[x] == want[y] for x in range(n) for y in range(n)] == [
        got[x] == got[y] for x in range(n) for y in range(n)
    ]
    # representatives are minimal members
    for x in range(n):
        members = [y for y in range(n) if got[y] == got[x]]
        assert got[x] == min(members)
    # plain connectivity is the closure under no tables, minimal representatives too
    assert _kernels.connected_components(n, pairs) == _kernels.closure(n, [], pairs)


def greedy_generating_pairs(n, tables, pairs):
    """The seeds not implied by the seeds kept before them, re-closing
    anew after each kept seed (slow reference)."""
    kept = []
    reps = list(range(n))
    for p, q in pairs:
        if reps[p] != reps[q]:
            kept.append((p, q))
            reps = closure_oracle(n, tables, kept)
    return kept


@given(closure_inputs())
@settings(max_examples=80, deadline=None)
def test_generating_pairs_matches_greedy_oracle(case):
    n, tables, pairs = case
    kept, reps = _kernels.generating_pairs(n, tables, pairs)
    assert kept == greedy_generating_pairs(n, tables, pairs)
    assert reps == closure_oracle(n, tables, pairs)


def test_congruence_generators_match_greedy_oracle():
    # the fibers of each corpus class's free cover, as a resolution takes them
    for classes in corpus_classes():
        for x in classes:
            eps = ak.free_cover(x, ak.aset_generators(x))
            cover = eps.source
            n = len(cover.carrier)
            fiber_pairs = hm._fiber_pairs(eps.mapping, n, include_diagonal=False)
            want = greedy_generating_pairs(n, cover.gen_tables(), sorted(fiber_pairs))
            assert hm._congruence_generators(cover, eps.mapping) == want, x.name


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernels not built")
def test_closure_backends_agree_random():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 40)
        tables = [[rng.randrange(n) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 12))]
        assert _closure_cy.closure(n, tables, pairs) == closure_py.closure(
            n, tables, pairs
        )
