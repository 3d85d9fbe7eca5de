"""Smith normal form over the integers, pure-Python reference kernel.

Dense matrices are lists of row lists of Python ints (exact bignum
arithmetic); sparse ones are lists of rows {column: nonzero int}.  One
elimination loop, ``_reduce``, serves every entry point: it reduces the
top-left block of a work matrix in place, so ``snf_with_transforms``
records U and V by carrying an identity block to the right of and below
the input, and the invariant-factor entries reduce what is left of their
input after a sparse unit-pivot pass.  That pass
(``_eliminate_unit_pivots``) splits off +-1 pivots chosen by least
Markowitz cost on sparse rows, which empties most of a 0/+-1 boundary
matrix before any dense work (Dumas, Heckenbach, Saunders and Welker
2003).  ``snf_diagonal`` turns a dense matrix into those rows once;
``snf_diagonal_rows`` starts from a copy of rows the caller keeps (a
chain complex's differentials), so no dense matrix is built or scanned.
Elimination in ``_reduce`` uses extended-gcd 2x2 unimodular blocks, which
keeps intermediate growth tame; divisibility d1 | d2 | ... is restored by
folding a column into its left neighbour and re-reducing the 2x2 block.
``_reduce`` is the one loop the compiled twin (``_snf_cy``) mirrors: it
follows the same elimination on the whole dense matrix in 64-bit
arithmetic and raises ``OverflowError`` when entries threaten the safe
range; callers fall back to this module in that case.
"""

from __future__ import annotations

from collections import defaultdict


def _xgcd(a, b):
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def _reduce(A, m, n):
    """Smith-reduce the top-left m x n block of ``A`` in place.

    Row operations act on whole rows t < m and column operations on the
    columns j < n of every row, so entries right of the block accumulate
    the row transform and rows below it the column transform.
    """

    def clear_col_entry(t, i):
        # zero A[i][t] with a unimodular op on rows t and i
        a, b = A[t][t], A[i][t]
        if b == 0:
            return
        if a != 0 and b % a == 0:
            q = b // a
            A[i] = [x - q * y for x, y in zip(A[i], A[t])]
            return
        x, y, g = _xgcd(a, b)
        ag, bg = a // g, b // g
        At, Ai = A[t], A[i]
        A[t] = [x * p + y * q_ for p, q_ in zip(At, Ai)]
        A[i] = [-bg * p + ag * q_ for p, q_ in zip(At, Ai)]

    def clear_row_entry(t, j):
        # zero A[t][j] with a unimodular op on columns t and j
        a, b = A[t][t], A[t][j]
        if b == 0:
            return
        if a != 0 and b % a == 0:
            q = b // a
            for row in A:
                row[j] -= q * row[t]
            return
        x, y, g = _xgcd(a, b)
        ag, bg = a // g, b // g
        for row in A:
            p, q_ = row[t], row[j]
            row[t] = x * p + y * q_
            row[j] = -bg * p + ag * q_

    def make_nonnegative(i):
        if A[i][i] < 0:
            A[i] = [-x for x in A[i]]

    size = min(m, n)
    t = 0
    while t < size:
        # pivot: nonzero entry of minimal absolute value
        piv = None
        best = None
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                v = row[j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    piv = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        if piv[0] != t:
            A[t], A[piv[0]] = A[piv[0]], A[t]
        if piv[1] != t:
            for row in A:
                row[t], row[piv[1]] = row[piv[1]], row[t]

        while True:
            for i in range(t + 1, m):
                clear_col_entry(t, i)
            for j in range(t + 1, n):
                clear_row_entry(t, j)
            if all(A[i][t] == 0 for i in range(t + 1, m)) and all(
                A[t][j] == 0 for j in range(t + 1, n)
            ):
                break
        t += 1

    for i in range(size):
        make_nonnegative(i)

    # enforce divisibility d_i | d_{i+1}
    i = 0
    while i < size - 1:
        a, b = A[i][i], A[i + 1][i + 1]
        if a != 0 and b % a != 0:
            # fold position (i+1) into column i, re-reduce the 2x2 block
            for row in A:
                row[i] += row[i + 1]
            while A[i + 1][i] != 0 or A[i][i + 1] != 0:
                clear_col_entry(i, i + 1)
                clear_row_entry(i, i + 1)
            make_nonnegative(i)
            make_nonnegative(i + 1)
            i = max(i - 1, 0)
        else:
            i += 1


def snf_with_transforms(mat):
    """Return (U, D, V) with U*mat*V = D in Smith normal form.

    U and V are unimodular; D is diagonal with d1 | d2 | ... and all
    diagonal entries nonnegative.  The work matrix is [mat | I_m] over
    [I_n]; after reduction its blocks are [D | U] over [V].
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    A = [list(map(int, row)) + [0] * m for row in mat]
    A += [[0] * n for _ in range(n)]
    for i in range(m):
        A[i][n + i] = 1
    for j in range(n):
        A[m + j][j] = 1
    _reduce(A, m, n)
    U = [row[n:] for row in A[:m]]
    D = [row[:n] for row in A[:m]]
    return U, D, A[m:]


def _cheapest_unit(rows, cols):
    """(row, column) of the +-1 entry of least Markowitz cost, or None."""
    best = None
    for i, r in rows.items():
        row_cost = len(r) - 1
        for j, v in r.items():
            if v == 1 or v == -1:
                cost = row_cost * (len(cols[j]) - 1)
                if cost == 0:
                    return i, j
                if best is None or cost < best[0]:
                    best = (cost, i, j)
    return None if best is None else best[1:]


def _eliminate_unit_pivots(rows):
    """Split off unit pivots; return (count, dense residue).

    ``rows`` maps a row index to its nonzero sparse row {column: value}
    and is reduced in place; a column -> rows index is built beside it.
    Each step takes the +-1 entry of least Markowitz cost (row nnz - 1) *
    (column nnz - 1) and subtracts the pivot row from every other row
    meeting its column, exactly, since the pivot is a unit.  Column
    operations would then clear the pivot row without touching anything
    else, so the matrix is equivalent to [1] (+) the rest: the pivot row
    and column are dropped.  The residue keeps the nonzero rows and the
    columns they meet.
    """
    cols = defaultdict(set)
    for i, r in rows.items():
        for j in r:
            cols[j].add(i)
    ones = 0
    while (pivot := _cheapest_unit(rows, cols)) is not None:
        p, q = pivot
        prow = rows.pop(p)
        for j in prow:
            cols[j].discard(p)
        pv = prow.pop(q)
        for i in cols.pop(q):
            r = rows[i]
            f = r.pop(q) * pv  # r[q] / pv, as pv is +-1
            for j, v in prow.items():
                nv = r.get(j, 0) - f * v
                if nv:
                    if j not in r:
                        cols[j].add(i)
                    r[j] = nv
                else:
                    del r[j]
                    cols[j].discard(i)
            if not r:
                del rows[i]
        ones += 1
    used = sorted({j for r in rows.values() for j in r})
    return ones, [[r.get(j, 0) for j in used] for r in rows.values()]


def _diagonal(rows):
    """Invariant factors of the sparse rows ``rows`` ({row: {column:
    value}}, nonzero rows only), which are consumed: unit pivots are split
    off first, and ``_reduce`` runs on the dense residue.  Invariant
    factors are unique, so the result is that of reducing the matrix
    whole."""
    ones, D = _eliminate_unit_pivots(rows)
    if not D:
        return [1] * ones
    m, n = len(D), len(D[0])
    _reduce(D, m, n)
    return [1] * ones + [D[i][i] for i in range(min(m, n)) if D[i][i] != 0]


def snf_diagonal(mat):
    """Invariant factors (the nonzero diagonal of the SNF), d1 | d2 | ...,
    of a dense matrix (row lists)."""
    rows = {}
    for i, row in enumerate(mat):
        r = {j: int(v) for j, v in enumerate(row) if v}
        if r:
            rows[i] = r
    return _diagonal(rows)


def snf_diagonal_rows(rows):
    """Invariant factors of the matrix whose row i is the dict ``rows[i]``
    ({column: nonzero int}); the reduction runs on a copy, so ``rows`` is
    left as it was."""
    return _diagonal({i: dict(r) for i, r in enumerate(rows) if r})


def integer_rank(mat):
    return len(snf_diagonal(mat))
