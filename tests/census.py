"""Brute-force census of small pointed commutative monoid tables.

A labeled table of order n is a commutative, associative table on
0..n-1 in which 0 absorbs and 1 is the identity.  Its canonical form is
the least relabeled table over every relabeling that fixes 0 and 1, so
two tables are isomorphic iff their canonical forms are equal.  There
are 1, 3, 19 and 255 labeled tables, in 1, 3, 11 and 53 classes, at
orders 2 to 5.
"""

import functools
import itertools


def labeled_tables(n):
    """Every labeled table of order n >= 2, by backtracking over cells."""
    t = [[None] * n for _ in range(n)]
    for a in range(n):
        t[0][a] = t[a][0] = 0
    for a in range(1, n):
        t[1][a] = t[a][1] = a
    cells = [(i, j) for i in range(2, n) for j in range(i, n)]

    def associative():
        for a, b, c in itertools.product(range(2, n), repeat=3):
            ab, bc = t[a][b], t[b][c]
            if ab is None or bc is None:
                continue
            lhs, rhs = t[ab][c], t[a][bc]
            if lhs is not None and rhs is not None and lhs != rhs:
                return False
        return True

    def fill(k):
        if k == len(cells):
            yield tuple(map(tuple, t))
            return
        i, j = cells[k]
        for v in range(n):
            t[i][j] = t[j][i] = v
            if associative():
                yield from fill(k + 1)
        t[i][j] = t[j][i] = None

    return list(fill(0))


def canonical_form(table):
    """Least relabeled table over the relabelings fixing 0 and 1."""
    n = len(table)
    best = None
    for rest in itertools.permutations(range(2, n)):
        s = (0, 1) + rest
        relabeled = [[None] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                relabeled[s[a]][s[b]] = s[table[a][b]]
        key = tuple(map(tuple, relabeled))
        if best is None or key < best:
            best = key
    return best


@functools.lru_cache(maxsize=None)
def census(n):
    """(labeled tables with their canonical forms, sorted class forms)."""
    tables = [(t, canonical_form(t)) for t in labeled_tables(n)]
    return tables, sorted({c for _, c in tables})
