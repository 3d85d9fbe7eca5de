"""Integral realization and low-degree derived-tensor computations.

An A-set realizes to the free module on its nonzero elements; monoid
elements act by 0/1 matrices.  A truncated simplicial object realizes to
an integer chain complex with alternating-sum differentials, whose
homology is read off the Smith normal form.  The first derived tensor
functor over the monogenic base is computed in closed form; the cycle
rank of its realization graph equals that formula by a counting
identity, so it is reported, not computed.  The independent check of
the Tor_1 rank is H_1 of the realized Tor complex (``hurewicz_compare``).
"""

from __future__ import annotations

from . import _kernels, asets as ak, homological as hm
from ._records import Record
from .abgroup import AbelianGroup
from .errors import HypothesisViolated, NotAComplex, ValidationError
from .monoids import MonogenicMonoid, generator_names


# ---------------------------------------------------------------------------
# realization


def _zero_one_matrix(mapping):
    """0/1 matrix of a based carrier self-map on the nonzero basis
    (columns = source)."""
    n = len(mapping) - 1
    mat = [[0] * n for _ in range(n)]
    for p in range(1, n + 1):
        v = mapping[p]
        if v != 0:
            mat[v - 1][p - 1] = 1
    return mat


def realize_action_matrix(x, a):
    """Matrix of the action of monoid element ``a`` on the realization."""
    return _zero_one_matrix([x.act(a, p) for p in range(len(x.carrier))])


def z_realization(x):
    """Free integral module on the nonzero carrier with action matrices.

    Returns (rank, basis labels, {generator name: 0/1 matrix}).
    """
    rank = len(x.carrier) - 1
    labels = list(x.carrier[1:])
    gens = {
        name: _zero_one_matrix(row)
        for name, row in zip(generator_names(x.base), x.gen_tables())
    }
    return rank, labels, gens


def _sparse_rows(mat, rows, cols, n):
    """d_n as sparse rows, after checking that it is ``rows`` x ``cols``."""
    if len(mat) != rows or any(len(row) != cols for row in mat):
        raise ValidationError(
            f"d_{n} must be a {rows} x {cols} matrix (ranks of C_{n-1} and C_{n})"
        )
    return [{j: int(v) for j, v in enumerate(row) if v} for row in mat]


class IntegerChainComplex:
    """Free modules with differentials; d_n: degree n -> degree n-1.

    Each d_n is held once, as sparse rows: ``rows[n-1][i]`` is the dict
    {column: nonzero entry} of row i of d_n.  The constructor takes dense
    differentials (``diff[n-1]`` is d_n as ``ranks[n-1]`` row lists of
    length ``ranks[n]``), raises ``ValidationError`` on any other shape,
    and converts them; the builders in this module make the rows
    directly.  ``differential(n)`` builds a dense copy of d_n on each
    request.

    Construction raises ``NotAComplex`` unless every d_{n-1} d_n = 0: each
    row of d_{n-1} d_n is summed over the nonzero entries of the rows
    alone and must come out all zero, so every entry of every product is
    checked.  The differentials are fixed once built, and each is reduced
    at most once; the Smith pass reads the rows in place and copies only
    a row it changes, so they stay as built.
    """

    def __init__(self, ranks, diff):
        ranks = list(ranks)
        if any(r < 0 for r in ranks):
            raise ValidationError(f"ranks must be nonnegative, got {ranks}")
        if len(diff) != max(len(ranks) - 1, 0):
            raise ValidationError(
                f"{len(ranks)} modules need {max(len(ranks) - 1, 0)} differentials,"
                f" got {len(diff)}"
            )
        self._setup(ranks, [_sparse_rows(mat, ranks[n - 1], ranks[n], n)
                            for n, mat in enumerate(diff, start=1)])

    @classmethod
    def _from_rows(cls, ranks, rows):
        """The complex whose d_n has the sparse rows ``rows[n-1]``; the
        shapes are trusted, so only this module's builders call it."""
        self = cls.__new__(cls)
        self._setup(ranks, rows)
        return self

    def _setup(self, ranks, rows):
        for n, (below, above) in enumerate(zip(rows, rows[1:]), start=2):
            for row in below:
                acc = {}
                for k, v in row.items():
                    for j, w in above[k].items():
                        acc[j] = acc.get(j, 0) + v * w
                if any(acc.values()):
                    raise NotAComplex(f"d_{n-1} d_{n} != 0")
        self.ranks = ranks
        self.rows = rows
        self._factors = {}

    def differential(self, n):
        """Dense d_n; the zero matrix outside degrees 1 .. len(ranks) - 1."""
        if 1 <= n < len(self.ranks):
            return _kernels.dense_rows(self.rows[n - 1], self.ranks[n])
        rows = self.ranks[n - 1] if 0 <= n - 1 < len(self.ranks) else 0
        cols = self.ranks[n] if 0 <= n < len(self.ranks) else 0
        return [[0] * cols for _ in range(rows)]

    def invariant_factors(self, n):
        """Invariant factors of d_n, computed on first request and kept."""
        if n not in self._factors:
            if 1 <= n < len(self.ranks):
                self._factors[n] = tuple(
                    _kernels.snf_diagonal_rows(self.rows[n - 1]))
            else:  # a zero matrix
                self._factors[n] = ()
        return self._factors[n]


def chain_of_simplicial(sset):
    """Realized chain complex with d = alternating sum of the faces.

    Face i of level n sends basis cell c to cell ``mapping[c + 1]`` or to
    the basepoint, so it adds (-1)^i at column c of row mapping[c + 1] - 1
    of d_n for each c it does not send to the basepoint.  The sparse rows
    are summed in place and an entry is deleted when it cancels to zero;
    no face matrix and no dense d_n is built.
    """
    ranks = [len(l.carrier) - 1 for l in sset.levels]
    diffs = []
    for n in range(1, len(sset.levels)):
        rows = [{} for _ in range(ranks[n - 1])]
        for i in range(n + 1):
            sign = 1 if i % 2 == 0 else -1
            for c, v in enumerate(sset.face(n, i).mapping[1:]):
                if v:
                    r = rows[v - 1]
                    e = r.get(c, 0) + sign
                    if e:
                        r[c] = e
                    else:  # cancelled; a later face may write it again
                        del r[c]
        diffs.append(rows)
    return IntegerChainComplex._from_rows(ranks, diffs)


class HomologyGroup(Record):
    _fields = ("betti", "torsion")

    def __init__(self, betti: int, torsion: tuple):
        self.betti = betti
        self.torsion = torsion

    def as_group(self):
        return AbelianGroup(self.betti, tuple(t for t in self.torsion if t > 1))

    def __str__(self):
        return str(self.as_group())


def smith_homology(c, n):
    """H_n = Z^(rank C_n - rank d_n - rank d_{n+1}) + torsion(SNF d_{n+1}).

    ker d_n is a direct summand of C_n (C_n / ker d_n embeds in the free
    C_{n-1}), so the invariant factors of d_{n+1} as a map into C_n are
    those of the image in ker d_n: no kernel basis is needed.
    """
    rank_n = c.ranks[n] if 0 <= n < len(c.ranks) else 0
    if rank_n == 0:
        return HomologyGroup(0, ())
    diag = c.invariant_factors(n + 1)
    betti = rank_n - len(c.invariant_factors(n)) - len(diag)
    return HomologyGroup(betti, tuple(d for d in diag if d > 1))


# ---------------------------------------------------------------------------
# the derived-tensor model over the monogenic base


def tor_complex(x, exp, trunc=4):
    """Chain complex of the standard simplicial model for the derived
    tensor of A/(t^exp) against X, over the monogenic base.

    A/(t^exp) is resolved by the free pair (t^exp, 0): A => A, and A (x) X
    = X, so the model is the inverse construction of X => X with r = t^exp
    and s = 0.
    """
    r = ak.ASetMorphism(x, x, [x.act(exp, p) for p in range(len(x.carrier))])
    pair = hm.DaComplex(x.base, [x, x], [r], [ak.zero_morphism(x, x)])
    sset = hm.dold_kan_inverse(pair, trunc)
    return chain_of_simplicial(sset), sset


def tor_complex_direct(x, exp, trunc=4):
    """The same chain complex assembled directly from blocks.

    Level k of the inverse construction has one block per surjection
    [k] ->> [m], m <= 1, listed m = 0 first as ``hm.dold_kan_inverse``
    lists its cells, so the matrices are those of ``tor_complex``; by the
    face rules of ``hm.surjection_rules`` each face contributes an
    identity block, a single action-matrix block, or nothing.  The signs
    are summed per target block first, so each entry of the sparse rows is
    written once: the column of point p in a block meets the identity
    block at row p and the action block at row t^exp . p, which are one
    entry when p is fixed.  Validated against ``tor_complex`` in the
    tests; used for the large exhaustive sweeps.
    """
    hm.require_nonnegative(trunc, "truncation")
    nx = len(x.carrier) - 1
    act = [x.act(exp, p) - 1 for p in range(1, nx + 1)]  # -1: sent to the basepoint
    cells = []  # per level: (rule of eta, m) for every eta: [k] ->> [m], m in {0, 1}
    for k in range(trunc + 1):
        cells.append([(rule, m) for m in (0, 1) for rule in hm.surjection_rules(k, m)])
    ranks = [len(level) * nx for level in cells]
    diffs = []
    for k in range(1, trunc + 1):
        rows = [{} for _ in range(ranks[k - 1])]
        pos_prev = {(rule.eta, m): b for b, (rule, m) in enumerate(cells[k - 1])}
        for b, (rule, m) in enumerate(cells[k]):
            blocks = {}  # target block -> [identity sign, action sign]
            for i, (eta2, j) in enumerate(rule.faces):
                sign = 1 if i % 2 == 0 else -1
                if j is None:
                    blocks.setdefault(pos_prev[(eta2, m)], [0, 0])[0] += sign
                elif j == 1:  # d_1 = r_1 = t^exp; d_0 = s_1 is zero
                    blocks.setdefault(pos_prev[(eta2, 0)], [0, 0])[1] += sign
            for tb, (ident, action) in blocks.items():
                base = tb * nx
                for p in range(nx):
                    col = b * nx + p
                    if act[p] == p:
                        if ident + action:
                            rows[base + p][col] = ident + action
                        continue
                    if ident:
                        rows[base + p][col] = ident
                    if action and act[p] >= 0:
                        rows[base + act[p]][col] = action
        diffs.append(rows)
    return IntegerChainComplex._from_rows(ranks, diffs)


# ---------------------------------------------------------------------------
# first derived tensor over the monogenic base


class TorRankReport(Record):
    _fields = ("formula_rank", "graph_rank")

    def __init__(self, formula_rank: int, graph_rank: int):
        self.formula_rank = formula_rank
        self.graph_rank = graph_rank

    @property
    def agree(self):
        return self.formula_rank == self.graph_rank


def tor1_monogenic(x, k):
    """Rank of the fundamental cycles for the action of t^k on X.

    The image-deficiency count |X| - |im t^k|.  The realization graph
    (one edge 0 -- t^k.p per nonzero p) is a star: its components are
    im t^k, which holds 0, and one singleton per point outside it, so its
    cycle rank E - V + C = (n - 1) - n + (n - |im t^k| + 1) is that count
    for every input, and ``graph_rank`` is read from this identity.  The
    independent check of the rank is H_1 of the Tor complex
    (``hurewicz_compare``).
    """
    if not isinstance(x.base, MonogenicMonoid):
        raise HypothesisViolated("monogenic base required")
    if k < 1:
        raise HypothesisViolated("the exponent must be positive")
    n = len(x.carrier)
    row = x.action[0]
    power = list(range(n))  # t^k as a carrier self-map
    for _ in range(k):
        power = [row[v] for v in power]
    rank = n - len(set(power))
    return TorRankReport(rank, rank)  # graph_rank by the identity above


class HurewiczReport(Record):
    _fields = ("tor_rank", "h1", "higher_vanish")

    def __init__(self, tor_rank: int, h1: HomologyGroup, higher_vanish: bool):
        self.tor_rank = tor_rank
        self.h1 = h1
        self.higher_vanish = higher_vanish

    @property
    def agree(self):
        return (
            self.tor_rank == self.h1.betti
            and not self.h1.torsion
        )


def hurewicz_compare(x, k, trunc=4):
    """Betti rank of H1 of the realized model equals the closed-form rank;
    homology above degree 1 vanishes."""
    rank_report = tor1_monogenic(x, k)
    chain, _ = tor_complex(x, k, trunc=trunc)
    h1 = smith_homology(chain, 1)
    higher = all(
        smith_homology(chain, n).as_group().is_trivial
        for n in range(2, trunc)
    )
    return HurewiczReport(rank_report.formula_rank, h1, higher)


def tor0(x, y):
    """Degree-zero derived tensor is the tensor product itself."""
    return ak.tensor(x, y)
