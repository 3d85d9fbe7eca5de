"""Extensions of A-sets and square-zero monoid extensions.

An extension of X by Y is determined by where the torsion pairs of the
free A-set on X are sent into Y, subject to a shuffling compatibility;
square-zero monoid extensions are classified by symmetric-or-not cochain
data vanishing off the zero products, subject to associativity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import asets as ak
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
    the value at (ab)[p] must match the value at a[bp] whenever bp != 0."""
    z = torsion_pair_aset(m, x)
    out = []
    for phi in ak.hom_enumerate(z, y):
        ok = True
        for a in m.nonzero():
            for b in m.nonzero():
                for p in x.nonzero():
                    bp = x.act(b, p)
                    if bp == 0:
                        continue
                    ab = m.table[a][b]
                    if x.act(ab, p) != 0:
                        continue  # neither side is a torsion pair
                    lhs = 0 if ab == ZERO else phi(z.pair_index[(ab, p)])
                    rhs = phi(z.pair_index[(a, bp)])
                    if lhs != rhs:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            out.append((z, phi))
    return out


@dataclass
class Extension:
    """Materialized extension 0 -> Y -> E -> X -> 0 on the carrier Y v X."""

    e: ak.ASet
    include: ak.ASetMorphism  # Y -> E
    project: ak.ASetMorphism  # E -> X
    phi_table: dict  # (a, p) torsion pair -> Y index


def _materialize(m, x, y, z, phi):
    ny, nx = len(y.carrier), len(x.carrier)
    carrier = ["0"] + [f"y:{y.carrier[i]}" for i in y.nonzero()] + [
        f"x:{x.carrier[p]}" for p in x.nonzero()
    ]

    def y_at(i):
        return 0 if i == 0 else i

    def x_at(p):
        return 0 if p == 0 else ny - 1 + p

    action = [[0] * len(carrier) for _ in m.indices()]
    phi_table = {}
    for a in m.indices():
        for i in y.nonzero():
            action[a][y_at(i)] = y_at(y.act(a, i))
        for p in x.nonzero():
            ap = x.act(a, p)
            if ap != 0:
                action[a][x_at(p)] = x_at(ap)
            elif a == ZERO:
                action[a][x_at(p)] = 0
            else:
                v = phi(z.pair_index[(a, p)])
                action[a][x_at(p)] = y_at(v)
                phi_table[(a, p)] = v
    e = ak.ASet(m, carrier, action=action, name="E")
    report = ak.validate_aset(e)
    if not report.ok:
        raise ValidationError(f"extension action invalid: {report}")
    include = ak.ASetMorphism(y, e, [y_at(i) for i in range(ny)])
    project = ak.ASetMorphism(e, x, [0] * ny + list(range(1, nx)))
    ak.validate_aes(include, project)
    return Extension(e, include, project, phi_table)


def ext_enumerate(x, y):
    """All extensions of X by Y, one per compatible obstruction map."""
    m = x.base
    out = []
    for z, phi in _compatible_phi_maps(m, x, y):
        ext = _materialize(m, x, y, z, phi)
        # round trip: the action on torsion pairs recovers phi
        for (a, p), v in ext.phi_table.items():
            w = phi(z.pair_index[(a, p)])
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
    count = 0
    for combo in itertools.product(range(ny), repeat=len(pairs)):
        choice = dict(zip(pairs, combo))
        carrier_len = ny + len(x.carrier) - 1

        def y_at(i):
            return i

        def x_at(p):
            return 0 if p == 0 else ny - 1 + p

        action = [[0] * carrier_len for _ in m.indices()]
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
        cand = ak.ASet(m, [f"c{i}" for i in range(carrier_len)], action=action)
        cand.carrier[0] = "0"
        if ak.validate_aset(cand).ok:
            count += 1
    return count


def ext_equivalent(e1: Extension, e2: Extension):
    """Isomorphism commuting with the fixed inclusion and projection.

    The carriers are aligned, Y block then X block, so an equivalence is an
    injective equivariant map that fixes each point of the Y block and
    sends each point of the X block into its fiber under e2's projection.
    Generators are pinned that way; the rest follows by equivariance,
    except a Y point generated only from the X block, checked at the end.
    """
    n = len(e1.e.carrier)
    if n != len(e2.e.carrier):
        return False
    ny = len(e1.include.source.carrier)
    fixed = list(range(ny))
    fibers = [[] for _ in e2.project.target.carrier]
    for q, v in enumerate(e2.project.mapping):
        fibers[v].append(q)

    def candidates(p):
        return [p] if p < ny else fibers[e1.project(p)]

    maps = ak._equivariant_maps(e1.e, e2.e, candidates, injective=True)
    return any(g[:ny] == fixed for g in maps)


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


def cocycle_faces(m, x, f, a, b, c):
    """The four boundary values of a 2-cochain at a triple.

    f maps zero-product pairs to X (zero elsewhere); returns the list
    [a.f(b,c), f(ab,c), f(a,bc), c.f(a,b)] of carrier indices.
    """

    def fv(p, q):
        if m.table[p][q] != ZERO or p == ZERO or q == ZERO:
            return 0
        return f.get((p, q), 0)

    return [
        x.act(a, fv(b, c)),
        fv(m.table[a][b], c),
        fv(a, m.table[b][c]),
        x.act(c, fv(a, b)),
    ]


def is_cocycle(m, x, f):
    """The possibly-nonzero even face equals the possibly-nonzero odd face
    at every triple; at most one of each can be nonzero for cochains
    supported on zero products."""
    for a in m.indices():
        for b in m.indices():
            for c in m.indices():
                d0, d1, d2, d3 = cocycle_faces(m, x, f, a, b, c)
                evens = {v for v in (d0, d2) if v != 0}
                odds = {v for v in (d1, d3) if v != 0}
                if len(evens) > 1 or len(odds) > 1:
                    return False
                e = next(iter(evens)) if evens else 0
                o = next(iter(odds)) if odds else 0
                if e != o:
                    return False
    return True


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
    """All square-zero extensions of the base by the A-set.

    Enumerates cochains supported on the zero-product pairs, keeps the
    associative ones, and verifies each against the cocycle discipline.
    """
    pairs = zero_product_pairs(m)
    results = []
    for combo in itertools.product(
        range(len(x.carrier)), repeat=len(pairs)
    ):
        f = {pr: v for pr, v in zip(pairs, combo) if v}
        table = squarezero_table(m, x, f)
        associative = table.is_associative()
        if associative != is_cocycle(m, x, f):
            raise OracleMismatch(
                f"cochain {f}: associative {associative}, cocycle {not associative}"
            )
        if associative:
            results.append((f, table))
    return results


def squarezero_is_commutative(f):
    return all(f.get((b, a), 0) == v for (a, b), v in f.items())
