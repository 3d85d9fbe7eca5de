"""Kernel backend selection.

The hot loops (integer Smith reduction, congruence closure) exist twice:
a compiled Cython extension and a pure-Python twin.  The compiled version
is preferred when importable; ``MONOIDKIT_PURE=1`` forces the fallback.
The compiled SNF works in 64-bit arithmetic and raises ``OverflowError``
on large entries, so its wrapper retries with the bignum twin per call.
``generating_pairs`` (the seeds of a congruence that are not implied by
the seeds before them) and the sparse-row Smith entry
``snf_diagonal_rows`` exist only in pure Python.
"""

from __future__ import annotations

import os

from . import closure_py, snf_py

_FORCE_PURE = os.environ.get("MONOIDKIT_PURE", "") not in ("", "0")

_snf_fast = None
_closure_fast = None
if not _FORCE_PURE:
    try:  # pragma: no cover - depends on whether the extension was built
        from . import _snf_cy as _snf_fast  # type: ignore[no-redef]
    except ImportError:
        _snf_fast = None
    try:  # pragma: no cover
        from . import _closure_cy as _closure_fast  # type: ignore[no-redef]
    except ImportError:
        _closure_fast = None

BACKEND = "compiled" if (_snf_fast and _closure_fast) else "pure"


def snf_with_transforms(mat):
    if _snf_fast is not None:
        try:
            return _snf_fast.snf_with_transforms(mat)
        except OverflowError:
            pass
    return snf_py.snf_with_transforms(mat)


def snf_diagonal(mat):
    if _snf_fast is not None:
        try:
            return _snf_fast.snf_diagonal(mat)
        except OverflowError:
            pass
    return snf_py.snf_diagonal(mat)


def dense_rows(rows, cols):
    """Row lists of the matrix with ``cols`` columns whose row i is the
    dict ``rows[i]`` ({column: nonzero entry}): one ``[0] * cols`` pass
    per row."""
    mat = []
    for r in rows:
        row = [0] * cols
        for j, v in r.items():
            row[j] = v
        mat.append(row)
    return mat


def snf_diagonal_rows(rows):
    """Invariant factors of the matrix whose row i is the dict ``rows[i]``
    ({column: nonzero entry}); ``rows`` is left as it was.

    Both backends run the pure sparse pass: it empties a chain complex's
    0/+-1 rows before any dense work, and the compiled kernel, which
    needs the rows densified first, was no faster on them.
    """
    return snf_py.snf_diagonal_rows(rows)


def integer_rank(mat):
    if _snf_fast is not None:
        try:
            return _snf_fast.integer_rank(mat)
        except OverflowError:
            pass
    return snf_py.integer_rank(mat)


def closure(n, gen_tables, pairs):
    if _closure_fast is not None:
        return _closure_fast.closure(n, gen_tables, pairs)
    return closure_py.closure(n, gen_tables, pairs)


def generating_pairs(n, gen_tables, pairs):
    return closure_py.generating_pairs(n, gen_tables, pairs)


def connected_components(n, edges):
    if _closure_fast is not None:
        return _closure_fast.connected_components(n, edges)
    return closure_py.closure(n, [], edges)
