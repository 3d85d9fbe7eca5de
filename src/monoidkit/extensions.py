"""Extensions of A-sets and square-zero monoid extensions.

Both classifications are A-set maps out of one quotient.  An extension
of X by Y is a map to Y out of the torsion pairs of the free A-set on X,
glued along the shuffle condition; a square-zero monoid extension by X
is a map to X out of the free A-set on the zero-product pairs, glued
along the associativity relations.
"""

from __future__ import annotations

import itertools

from . import asets as ak
from ._records import Record
from .errors import OracleMismatch, ValidationError
from .monoids import FiniteMonoid, ZERO


# ---------------------------------------------------------------------------
# torsion pairs and extensions of A-sets


def torsion_pairs(m, x):
    """Pairs (a, p) with a, p nonzero and a.p = 0: the obstruction set."""
    return [
        (a, p)
        for a in m.nonzero()
        for p in x.nonzero()
        if x.act(a, p) == 0
    ]


def torsion_pair_aset(m, x):
    """The obstruction set: the kernel of the free cover F(X) -> X, cells
    a[p] with a.p = 0, as its own A-set.

    ``pair_index`` sends each torsion pair (a, p) to its cell.  With
    w = |A| - 1, free cell c is the pair ((c - 1) mod w + 1, (c - 1) // w + 1).
    """
    cover = ak.free_cover(x, x.nonzero())
    kernel = cover.kernel_indices()
    z = ak.sub_aset(cover.source, kernel, name="Z")
    w = len(m.elements) - 1
    z.pair_index = {
        ((c - 1) % w + 1, (c - 1) // w + 1): i for i, c in enumerate(kernel) if c
    }
    return z


def _compatible_phi_maps(m, x, y):
    """All equivariant phi on the torsion pairs with the shuffle condition:
    the value at (ab)[p] (0 when ab = 0) matches the value at a[bp]
    whenever bp != 0.  These are the maps out of Z/~, Z glued along those
    cells, read on Z through the projection, sorted by mapping."""
    z = torsion_pair_aset(m, x)
    glue = []
    for a in m.nonzero():
        for b in m.nonzero():
            ab = m.table[a][b]
            for p in x.nonzero():
                bp = x.act(b, p)
                if bp != 0 and x.act(ab, p) == 0:
                    lhs = 0 if ab == ZERO else z.pair_index[(ab, p)]
                    glue.append((lhs, z.pair_index[(a, bp)]))
    q, proj = ak.quotient_aset(z, glue)
    maps = sorted([g[c] for c in proj.mapping] for g in ak._equivariant_maps(q, y))
    return [(z, ak.ASetMorphism(z, y, f)) for f in maps]


class Extension(Record):
    """Materialized extension 0 -> Y -> E -> X -> 0 on the carrier Y v X."""

    _fields = ("e", "include", "project", "phi_table")

    def __init__(self, e: ak.ASet, include: ak.ASetMorphism,
                 project: ak.ASetMorphism, phi_table: dict):
        self.e = e
        self.include = include  # Y -> E
        self.project = project  # E -> X
        self.phi_table = phi_table  # (a, p) torsion pair -> Y index


def _materialize(m, x, y, z, phi):
    ny, nx = len(y.carrier), len(x.carrier)
    carrier = ["0"] + [f"y:{y.carrier[i]}" for i in y.nonzero()] + [
        f"x:{x.carrier[p]}" for p in x.nonzero()
    ]

    def x_at(p):
        return 0 if p == 0 else ny - 1 + p

    action = [[0] * len(carrier) for _ in m.indices()]
    phi_table = {}
    for a in m.indices():
        for i in y.nonzero():
            action[a][i] = y.act(a, i)
        for p in x.nonzero():
            ap = x.act(a, p)
            if ap != 0:
                action[a][x_at(p)] = x_at(ap)
            elif a == ZERO:
                action[a][x_at(p)] = 0
            else:
                v = phi(z.pair_index[(a, p)])
                action[a][x_at(p)] = v
                phi_table[(a, p)] = v
    e = ak.ASet(m, carrier, action=action, name="E")
    report = ak.validate_aset(e)
    if not report.ok:
        raise ValidationError(f"extension action invalid: {report}")
    include = ak.ASetMorphism(y, e, list(range(ny)))
    project = ak.ASetMorphism(e, x, [0] * ny + list(range(1, nx)))
    ak.validate_aes(include, project)
    return Extension(e, include, project, phi_table)


def ext_enumerate(x, y):
    """All extensions of X by Y, one per compatible obstruction map."""
    m = x.base
    out = []
    for z, phi in _compatible_phi_maps(m, x, y):
        ext = _materialize(m, x, y, z, phi)
        # round trip: the built action on each torsion pair recovers phi
        for (a, p), cell in z.pair_index.items():
            v = ext.e.action[a][len(y.carrier) - 1 + p]
            w = phi(cell)
            if w != v:
                raise OracleMismatch(
                    f"extension acts on torsion pair {(a, p)} by {v}, phi by {w}"
                )
        out.append(ext)
    return out


def ext_count_bruteforce(x, y):
    """Independent count: all A-set structures on Y v X fixing both ends.

    Free choices are exactly the values in Y for each torsion pair of X;
    a choice survives when the resulting action grid is a valid A-set
    whose projection is the canonical admissible surjection.
    """
    m = x.base
    pairs = torsion_pairs(m, x)
    ny = len(y.carrier)
    carrier = ["0"] + [f"c{i}" for i in range(1, ny + len(x.carrier) - 1)]

    def x_at(p):
        return 0 if p == 0 else ny - 1 + p

    count = 0
    for combo in itertools.product(range(ny), repeat=len(pairs)):
        choice = dict(zip(pairs, combo))
        action = [[0] * len(carrier) for _ in m.indices()]
        for a in m.indices():
            for i in y.nonzero():
                action[a][i] = y.act(a, i)
            for p in x.nonzero():
                ap = x.act(a, p)
                if ap != 0:
                    action[a][x_at(p)] = x_at(ap)
                elif a == ZERO:
                    action[a][x_at(p)] = 0
                else:
                    action[a][x_at(p)] = choice[(a, p)]
        if ak.validate_aset(ak.ASet(m, carrier, action=action)).ok:
            count += 1
    return count


def ext_equivalent(e1: Extension, e2: Extension):
    """Isomorphism commuting with the fixed inclusion and projection.

    The carriers are aligned, Y block then X block, and each fiber of
    E -> X over a nonzero point is one point.  So an equivalence that fixes
    Y pointwise is the identity, and two extensions are equivalent iff they
    are equal.
    """
    return (
        len(e1.e.carrier) == len(e2.e.carrier)
        and e1.e.action == e2.e.action
        and e1.include.mapping == e2.include.mapping
        and e1.project.mapping == e2.project.mapping
    )


# ---------------------------------------------------------------------------
# square-zero monoid extensions


class RawMonoidTable:
    """Possibly non-commutative monoid table (square-zero extensions only)."""

    def __init__(self, name, elements, table):
        self.name = name
        self.elements = list(elements)
        self.table = [list(r) for r in table]

    def is_associative(self):
        n = len(self.elements)
        for a in range(n):
            for b in range(n):
                ab = self.table[a][b]
                for c in range(n):
                    if self.table[ab][c] != self.table[a][self.table[b][c]]:
                        return False
        return True

    def is_commutative(self):
        n = len(self.elements)
        return all(
            self.table[a][b] == self.table[b][a]
            for a in range(n)
            for b in range(a + 1, n)
        )

    def as_finite_monoid(self):
        if not self.is_commutative():
            raise ValidationError("table is not commutative")
        return FiniteMonoid(self.name, self.elements, self.table)


def zero_product_pairs(m):
    """Nonzero pairs multiplying to zero, as an index list."""
    return [
        (a, b)
        for a in m.nonzero()
        for b in m.nonzero()
        if m.table[a][b] == ZERO
    ]


def cocycle_relations(m, pairs):
    """The cells a cocycle must send to one point, as pairs of cells of
    ``free_aset(m, range(len(pairs)))``: cell s[k] is s.f(pairs[k]).

    At each triple of nonzero a, b, c with abc = 0, associativity of
    ``squarezero_table`` equates (ab)c, which is c.f(a,b) when ab = 0 and
    f(ab,c) otherwise, with a(bc), which is a.f(b,c) when bc = 0 and
    f(a,bc) otherwise.
    """
    w = len(m.elements) - 1
    at = {pr: k * w for k, pr in enumerate(pairs)}  # s[pr] is cell at[pr] + s
    relations = []
    for a in m.nonzero():
        for b in m.nonzero():
            ab = m.table[a][b]
            for c in m.nonzero():
                bc = m.table[b][c]
                if m.table[ab][c] != ZERO:
                    continue
                left = at[(a, b)] + c if ab == ZERO else at[(ab, c)] + m.one
                right = at[(b, c)] + a if bc == ZERO else at[(a, bc)] + m.one
                relations.append((left, right))
    return relations


def squarezero_table(m, x, f):
    """Multiplication on A v X determined by a 2-cochain.

    Products inside A follow A except that zero products are replaced by
    the cochain value; A acts on the X block; the X block squares to zero.
    """
    na = len(m.elements)
    carrier = list(m.elements) + [f"x:{x.carrier[p]}" for p in x.nonzero()]

    def x_at(p):
        return 0 if p == 0 else na + p - 1

    n = len(carrier)
    table = [[0] * n for _ in range(n)]
    for a in m.indices():
        for b in m.indices():
            ab = m.table[a][b]
            if ab != ZERO or a == ZERO or b == ZERO:
                table[a][b] = ab
            else:
                table[a][b] = x_at(f.get((a, b), 0))
    for a in m.indices():
        for p in x.nonzero():
            table[a][x_at(p)] = x_at(x.act(a, p))
            table[x_at(p)][a] = x_at(x.act(a, p))
    # X block is square-zero
    return RawMonoidTable("E", carrier, table)


def squarezero_enumerate(m, x):
    """All square-zero extensions of the base by the A-set, as (cochain,
    table) in ``itertools.product`` order of the cochain values.

    A cochain on the zero-product pairs is a map to X out of the free
    A-set on those pairs, and it is a cocycle when it respects
    ``cocycle_relations``: the cocycles are the maps out of the quotient.
    Each table found must be associative.
    """
    pairs = zero_product_pairs(m)
    free = ak.free_aset(m, range(len(pairs)))
    q, proj = ak.quotient_aset(free, cocycle_relations(m, pairs))
    w = len(m.elements) - 1
    ones = [proj(k * w + m.one) for k in range(len(pairs))]
    results = []
    for combo in sorted(tuple(g[c] for c in ones) for g in ak._equivariant_maps(q, x)):
        f = {pr: v for pr, v in zip(pairs, combo) if v}
        table = squarezero_table(m, x, f)
        if not table.is_associative():
            raise OracleMismatch(f"cocycle {f} gives a non-associative table")
        results.append((f, table))
    return results


def squarezero_bruteforce(m, x):
    """Oracle: every cochain on the zero-product pairs in
    ``itertools.product`` order, kept when its table is associative.
    On each one, associativity must agree with sending both cells of every
    ``cocycle_relations`` pair to one point."""
    pairs = zero_product_pairs(m)
    relations = cocycle_relations(m, pairs)
    results = []
    for combo in itertools.product(range(len(x.carrier)), repeat=len(pairs)):
        f = {pr: v for pr, v in zip(pairs, combo) if v}
        table = squarezero_table(m, x, f)
        associative = table.is_associative()
        cells = [0] + [x.act(s, v) for v in combo for s in m.nonzero()]
        if associative != all(cells[p] == cells[q] for p, q in relations):
            raise OracleMismatch(
                f"cochain {f}: associative {associative}, cocycle {not associative}"
            )
        if associative:
            results.append((f, table))
    return results


def squarezero_is_commutative(f):
    return all(f.get((b, a), 0) == v for (a, b), v in f.items())
