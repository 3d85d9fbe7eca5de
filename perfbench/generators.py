"""Known-answer input generators for the benchmark workloads.

Everything here is built from a ``random.Random`` and plain integer
arithmetic; nothing calls into monoidkit, so the expected answers are
independent of the code under test.

* ``torsion_complex``: integer chain complexes C3 -> C2 -> C1 -> C0 built
  as a direct sum of elementary pieces (free Z, and Z --d--> Z) and then
  hidden by a unimodular change of basis in every degree.  H_n is known
  exactly; the ``large`` flavour puts a factor above 2^31 into one block
  so the compiled Smith kernel must fall back to its bignum twin.
* ``chart_cases``: lattice charts that are unimodular and/or scaled images
  of base charts whose normality, normalization, seminormalization and
  class group are known in closed form.
* ``criterion8_cases``: the (action table, k) cases on which the
  acceptance suite's criterion 8 computes homology.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from math import gcd

BIG = (1 << 31) + 11  # above the compiled kernel's 64-bit entry guard


# ---------------------------------------------------------------------------
# unimodular matrices


def unimodular_pair(rng, n, steps):
    """(P, P^-1) for a random product of elementary integer operations."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [row[:] for row in p]
    for _ in range(steps):
        if n == 1:
            kind = "neg"
        else:
            kind = rng.choice(("add", "add", "add", "swap", "neg"))
        if kind == "add":
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            # P <- E P with E = I + c e_ij; P^-1 <- P^-1 E^-1
            p[i] = [a + c * b for a, b in zip(p[i], p[j])]
            for row in q:
                row[j] -= c * row[i]
        elif kind == "swap":
            i, j = rng.sample(range(n), 2)
            p[i], p[j] = p[j], p[i]
            for row in q:
                row[i], row[j] = row[j], row[i]
        else:
            i = rng.randrange(n)
            p[i] = [-a for a in p[i]]
            for row in q:
                row[i] = -row[i]
    return p, q


def matmul(a, b):
    cols = len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
        for i in range(len(a))
    ]


def apply(mat, vec):
    return tuple(sum(r * v for r, v in zip(row, vec)) for row in mat)


# ---------------------------------------------------------------------------
# criterion 8's action tables

THETA_REPS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "theta_reps.json")


def based_map_reps(c):
    """Lexicographically first action table [0, t1, ..., t_{c-1}] of every
    class of based self-maps of {0..c-1} up to relabelings fixing 0: the
    representatives criterion 8 keeps for carriers 6 and 7."""
    perms = [(0,) + p for p in itertools.permutations(range(1, c))]
    seen, reps = set(), []
    for tail in itertools.product(range(c), repeat=c - 1):
        theta = (0,) + tail
        if theta in seen:
            continue
        reps.append(list(theta))
        for s in perms:
            conj = [0] * c
            for p in range(c):
                conj[s[p]] = s[theta[p]]
            seen.add(tuple(conj))
    return reps


def criterion8_cases():
    """Every (theta, k) criterion 8 runs homology on: all action tables of
    carriers 2-5 and the class representatives of carriers 6-7 (read from
    ``theta_reps.json``, which ``python3 perfbench/generators.py`` writes)."""
    with open(THETA_REPS, encoding="utf-8") as fh:
        reps = json.load(fh)
    thetas = [[0, *tail] for c in range(2, 6)
              for tail in itertools.product(range(c), repeat=c - 1)]
    thetas += reps["6"] + reps["7"]
    return [(theta, k) for theta in thetas for k in (1, 2, 3)]


# ---------------------------------------------------------------------------
# torsion-bearing chain complexes


@dataclass
class TorsionComplex:
    ranks: list  # ranks[n] = rank of C_n, n = 0..3
    diffs: list  # diffs[n-1] = matrix of d_n : C_n -> C_{n-1}
    homology: dict  # n -> (betti, torsion tuple), n = 1..3
    large: bool


def _divisor_chain(rng, length, need_torsion):
    chain, d = [], rng.choice((1, 1, 2, 3))
    for _ in range(length):
        d *= rng.choice((1, 2, 2, 3, 5))
        chain.append(d)
    if need_torsion and chain and chain[-1] == 1:
        chain[-1] = rng.choice((2, 3, 4))
    return chain


def torsion_complex(rng, large=False):
    """A complex with H_1 or H_2 carrying torsion, hidden by base changes."""
    blocks = {
        1: _divisor_chain(rng, rng.randint(0, 2), False),
        2: _divisor_chain(rng, rng.randint(1, 3), True),
        3: _divisor_chain(rng, rng.randint(0, 2), False),
    }
    if large:
        deg = rng.choice([n for n in (2, 3) if blocks[n]] or [2])
        if not blocks[deg]:
            blocks[deg] = [1]
        blocks[deg][-1] *= BIG  # the chain stays a divisor chain
    free = [rng.randint(0, 2) for _ in range(4)]
    for n in range(4):  # keep every C_n nonzero
        if not free[n] and not blocks.get(n) and not blocks.get(n + 1):
            free[n] = 1

    def layout(n):  # [targets of d_{n+1}] [free part] [sources of d_n]
        return len(blocks.get(n + 1, [])), free[n], len(blocks.get(n, []))

    ranks = [sum(layout(n)) for n in range(4)]
    block_diffs = []
    for n in (1, 2, 3):
        mat = [[0] * ranks[n] for _ in range(ranks[n - 1])]
        tgt_n, free_n, _ = layout(n)
        for j, d in enumerate(blocks[n]):
            mat[j][tgt_n + free_n + j] = d
        block_diffs.append(mat)

    changes = [unimodular_pair(rng, r, 2 * r) for r in ranks]
    diffs = [
        matmul(matmul(changes[n - 1][0], block_diffs[n - 1]), changes[n][1])
        for n in (1, 2, 3)
    ]
    homology = {
        n: (free[n], tuple(d for d in blocks.get(n + 1, []) if d > 1))
        for n in (1, 2, 3)
    }
    return TorsionComplex(ranks, diffs, homology, large)


# ---------------------------------------------------------------------------
# lattice charts with known answers


@dataclass(frozen=True)
class BaseChart:
    name: str
    gens: tuple
    normal: bool
    hilbert: tuple  # minimal generators of the normalization
    class_group: tuple  # (free rank, torsion) of Cl of the normalization
    seminormal: object  # membership predicate of the seminormalization
    normals: tuple  # primitive inner facet normals of the cone
    member: object = None  # membership predicate of the chart (None: normal)
    kmax: int = 3  # powers the seminormality oracle needs to see gcd 1
    moves: int = 6  # leading TRANSFORMS entries its images are drawn from
    scalable: bool = True


def _ak_cone(n, **kw):
    """A_{n-1} cone: generators (1,i), i = 0..n; normal with Cl = Z/n."""
    gens = tuple((1, i) for i in range(n + 1))
    return BaseChart(
        f"A{n - 1}", gens, True, gens, (0, (n,) if n > 1 else ()),
        lambda v, n=n: v[0] >= 0 and 0 <= v[1] <= n * v[0], ((0, 1), (n, -1)), **kw,
    )


def _orthant(v):
    return all(x >= 0 for x in v)


BASE_CHARTS = (
    _ak_cone(1),
    _ak_cone(2),
    # A2 stays in its own coordinates, xy2 and cuspxN avoid shears: those
    # images cost the bounded membership search up to seconds per case
    _ak_cone(3, moves=1, scalable=False),
    BaseChart("ns23", ((2,), (3,)), False, ((1,),), (0, ()), _orthant, ((1,),),
              lambda v: v[0] >= 0 and v[0] != 1),
    BaseChart("ns35", ((3,), (5,)), False, ((1,),), (0, ()), _orthant, ((1,),),
              lambda v: v[0] in (0, 3, 5, 6) or v[0] >= 8, kmax=5),
    BaseChart("xy2", ((1, 0), (0, 2), (1, 1)), False, ((0, 1), (1, 0)), (0, ()),
              lambda v: _orthant(v) and (v[0] > 0 or v[1] % 2 == 0), ((1, 0), (0, 1)),
              moves=3),
    BaseChart("cuspxN", ((2, 0), (3, 0), (0, 1)), False, ((0, 1), (1, 0)), (0, ()),
              _orthant, ((1, 0), (0, 1)), lambda v: _orthant(v) and v[0] != 1, moves=3),
)

# unimodular images drawn for the charts: a swap, a sign flip and shears
# whose boxes stay small
TRANSFORMS = {
    1: ([[1]], [[-1]]),
    2: ([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[-1, 0], [0, 1]],
        [[1, 0], [1, 1]], [[1, 0], [-1, 1]], [[1, -1], [0, 1]]),
}


def _inverse(u):
    if len(u) == 1:
        return [[u[0][0]]]
    (a, b), (c, d) = u
    det = a * d - b * c  # +-1
    return [[d * det, -b * det], [-c * det, a * det]]


@dataclass
class ChartCase:
    base: BaseChart
    scale: int
    transform: list  # unimodular U; the chart is scale * U * base
    gens: list = None
    hilbert: list = None  # image of the base Hilbert basis

    def __post_init__(self):
        self.inverse = _inverse(self.transform)
        self.gens = [self.image(g) for g in self.base.gens]
        self.hilbert = sorted(self.image(h) for h in self.base.hilbert)

    @property
    def rank(self):
        return len(self.base.gens[0])

    @property
    def sublattice(self):
        """The generators span a proper sublattice of Z^rank."""
        return self.scale > 1

    def image(self, v):
        return tuple(self.scale * x for x in apply(self.transform, v))

    def _preimage(self, w):
        if any(x % self.scale for x in w):
            return None
        return apply(self.inverse, [x // self.scale for x in w])

    def in_seminormalization(self, w):
        """Closed-form membership of w in the seminormalization."""
        v = self._preimage(w)
        return v is not None and self.base.seminormal(v)

    def in_chart(self, w):
        v = self._preimage(w)
        return v is not None and (self.base.member or self.base.seminormal)(v)

    def in_saturation(self, w):
        v = self._preimage(w)
        if v is None:
            return False
        return self.base.seminormal(v) if self.base.normal else _orthant(v)

    def floored_class_group(self):
        """(free rank, torsion) of the cokernel of the divisors of the
        standard basis e_i of Z^rank with valuations <w, e_i> floored by the
        chart's index along each facet normal w: what ``class_group``
        computes at the seed commit.  Equal to the true Cl at scale 1."""
        inv_t = [list(col) for col in zip(*self.inverse)]
        normals = [apply(inv_t, w) for w in self.base.normals]  # <U^-T w, U v> = <w, v>
        rows = [[w[i] // self.scale for w in normals] for i in range(self.rank)]
        return cokernel(rows, len(normals))

    def degree_bound(self):
        """Fewest generators that write every chart point of the box, and
        every saturation point of the box in the normalization's basis:
        the bound under which the library's bounded searches are exact."""
        box = box_points(self.gens, self.rank)
        worst = 0
        for gens, wanted in ((self.gens, self.in_chart),
                             (self.hilbert, self.in_saturation)):
            todo = {w for w in box if wanted(w)}
            layer, depth = {tuple([0] * self.rank)}, 0
            while todo and depth < 16:
                depth += 1
                layer = {tuple(a + b for a, b in zip(v, g)) for v in layer for g in gens}
                todo -= layer
            worst = max(worst, depth)
        return worst


def chart_cases():
    """Every (base chart, transform, scale) image the workload draws."""
    out = []
    for base in BASE_CHARTS:
        for u in TRANSFORMS[len(base.gens[0])][:base.moves]:
            for scale in (1, 2) if base.scalable else (1,):
                out.append(ChartCase(base, scale, u))
    return out


def _det(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)))


def cokernel(rows, ncols):
    """(free rank, torsion) of Z^ncols modulo the row span, from the
    determinantal divisors (gcds of the k x k minors) of a small matrix."""
    divisors = [1]
    for k in range(1, min(len(rows), ncols) + 1):
        g = 0
        for ri in itertools.combinations(range(len(rows)), k):
            for ci in itertools.combinations(range(ncols), k):
                g = gcd(g, _det([[rows[r][c] for c in ci] for r in ri]))
        if g == 0:
            break
        divisors.append(g)
    factors = [b // a for a, b in zip(divisors, divisors[1:])]
    return ncols - len(factors), tuple(f for f in factors if f > 1)


def box_points(gens, rank):
    """Lattice points of the zonotope box of the generators."""
    lo = [sum(min(0, g[j]) for g in gens) for j in range(rank)]
    hi = [sum(max(0, g[j]) for g in gens) for j in range(rank)]
    pts = [()]
    for a, b in zip(lo, hi):
        pts = [p + (x,) for p in pts for x in range(a, b + 1)]
    return [p for p in pts if any(p)]


if __name__ == "__main__":
    with open(THETA_REPS, "w", encoding="utf-8") as fh:
        json.dump({str(c): based_map_reps(c) for c in (6, 7)}, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {THETA_REPS}")
