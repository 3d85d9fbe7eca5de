"""Exact integer linear algebra on list-of-rows matrices.

Thin layer over the SNF kernel: kernels, preimages, and ``Sublattice``,
the one lattice type, whose single Smith form gives a basis, membership,
coordinates and the orthogonal complement.  ``solve`` is kept as the
tests' independent membership oracle.  Everything here is deterministic
and exact.
"""

from __future__ import annotations

import operator

from . import _kernels
from .errors import ValidationError


def matmul(a, b, cols=None):
    """a * b; each nonzero entry of a meets only the nonzero entries of its
    row of b.  Its one caller in the library is ``Sublattice`` (mat * V).

    ``cols`` is the column count of b; it must be given when b has no
    rows, since an empty list cannot carry it.
    """
    if cols is None:
        cols = len(b[0]) if b else 0
    b_nonzero = [[(j, v) for j, v in enumerate(bk) if v] for bk in b]
    out = [[0] * cols for _ in a]
    for ai, oi in zip(a, out):
        for v, bk in zip(ai, b_nonzero):
            if v:
                for j, w in bk:
                    oi[j] += v * w
    return out


def snf(mat):
    """(U, D, V) with U*mat*V = D, Smith normal form."""
    return _kernels.snf_with_transforms(mat)


def invariant_factors(mat):
    """Nonzero diagonal entries of the SNF, in divisibility order."""
    return _kernels.snf_diagonal(mat)


def rank(mat):
    return _kernels.integer_rank(mat)


def kernel_basis(mat):
    """Columns (as lists) spanning the integer kernel {x : mat*x = 0}."""
    if not mat or not mat[0]:
        n = len(mat[0]) if mat else 0
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    U, D, V = snf(mat)
    m, n = len(mat), len(mat[0])
    r = sum(1 for i in range(min(m, n)) if D[i][i] != 0)
    return [[V[i][j] for i in range(n)] for j in range(r, n)]


def solve(mat, vec):
    """One integer solution x of mat*x = vec, or None.  The library asks
    ``Sublattice.coordinates`` instead; this is the tests' oracle."""
    if not mat:
        return None if any(vec) else []
    m, n = len(mat), len(mat[0])
    U, D, V = snf(mat)
    c = [sum(U[i][k] * vec[k] for k in range(m)) for i in range(m)]
    y = [0] * n
    for i in range(min(m, n)):
        d = D[i][i]
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    for i in range(min(m, n), m):
        if c[i] != 0:
            return None
    return [sum(V[i][k] * y[k] for k in range(n)) for i in range(n)]


def preimage_lattice(f_mat, lat_cols):
    """Basis (columns) of {x : f_mat*x lies in the lattice spanned by lat_cols}.

    Computed as the x-projection of the kernel of [f_mat | -lat_cols].
    """
    m = len(f_mat)
    n = len(f_mat[0]) if m else 0
    k = len(lat_cols)
    if m == 0:
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    big = [f_mat[i][:] + [-lat_cols[j][i] for j in range(k)] for i in range(m)]
    ker = kernel_basis(big)
    cols = [col[:n] for col in ker]
    return lattice_basis(cols, n)


def lattice_basis(cols, dim):
    """Independent basis (columns) for the lattice spanned by ``cols``."""
    return Sublattice(cols, dim).basis


class Sublattice:
    """The subgroup L of Z^dim spanned by the columns ``cols``, from one
    Smith form U*M*V = D of the matrix M of its nonzero columns.

    ``basis`` is the first r = rank(M) columns of M*V; U sends them to
    d_1 e_1, ..., d_r e_r.  ``complement`` is rows r.. of U: those rows
    of U*M are zero, and U is unimodular, so they are a basis of the
    integer vectors orthogonal to every column.  So v = basis*y iff
    (U*v)_i = d_i y_i for i < r and v is orthogonal to ``complement``,
    which gives ``coordinates`` and membership.  A column or vector whose
    length is not ``dim`` raises ``ValidationError``.
    """

    def __init__(self, cols, dim):
        for c in cols:
            if len(c) != dim:
                raise ValidationError(
                    f"column {list(c)} has {len(c)} entries, not {dim}"
                )
        self.dim = dim
        cols = [c for c in cols if any(c)]
        if not cols:  # L = 0: U is the identity and r = 0
            self.basis, self._rows, self._factors = [], [], []
            self.complement = [[int(i == j) for j in range(dim)] for i in range(dim)]
            return
        mat = [[c[i] for c in cols] for i in range(dim)]
        U, D, V = snf(mat)
        r = sum(1 for i in range(min(dim, len(cols))) if D[i][i] != 0)
        mv = matmul(mat, V)
        self.basis = [[mv[i][j] for i in range(dim)] for j in range(r)]
        self._rows, self._factors = U[:r], [D[i][i] for i in range(r)]
        self.complement = U[r:]

    def coordinates(self, vec):
        """y with vec = sum y_j basis_j, or None when vec is not in L."""
        if len(vec) != self.dim:
            raise ValidationError(
                f"vector {list(vec)} has {len(vec)} entries, not {self.dim}"
            )
        y = []
        for row, d in zip(self._rows, self._factors):
            q, rem = divmod(sum(map(operator.mul, row, vec)), d)
            if rem:
                return None
            y.append(q)
        for row in self.complement:
            if sum(map(operator.mul, row, vec)):
                return None
        return y

    def __contains__(self, vec):
        return self.coordinates(vec) is not None
