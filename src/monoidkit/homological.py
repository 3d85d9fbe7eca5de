"""Double-arrow complexes, their homology, resolutions, and the two-way
passage to truncated simplicial A-sets.

A double-arrow complex carries paired boundaries (r, s) with rr = rs and
sr = ss; homology at n is the joint kernel of the induced maps out of
the coequalizer of (r_{n+1}, s_{n+1}).  The simplicial side stores split
levels; degenerate cells are indexed by monotone surjections in normal
form and faces are computed through epi-monic factorization.  This
module alone decides those faces: other modules read them as mappings
from ``dold_kan_faces`` or as morphisms from ``dold_kan_inverse``.
"""

from __future__ import annotations

import functools
import itertools
from types import MappingProxyType
from typing import NamedTuple

from . import _kernels, asets as ak
from ._records import Record
from .errors import (
    BoundExceeded,
    NotAComplex,
    NotReduced,
    OracleMismatch,
    TruncationTooLow,
    ValidationError,
)
from .monoids import MonogenicMonoid, ValidationReport


def require_nonnegative(value, what):
    """Raise ``ValidationError`` when a cap or truncation is negative."""
    if value < 0:
        raise ValidationError(f"{what} must be nonnegative, got {value}")


# ---------------------------------------------------------------------------
# double-arrow complexes (finite carriers)


class DaComplex(Record):
    _fields = ("base", "levels", "r", "s", "min_degree", "complete")

    def __init__(self, base: object, levels: list, r: list, s: list,
                 min_degree: int = 0, complete: bool = True):
        self.base = base
        self.levels = levels  # ASet per degree, starting at min_degree
        self.r = r  # r[i]: levels[i] -> levels[i-1], i >= 1
        self.s = s
        self.min_degree = min_degree
        self.complete = complete  # False for a resolution cut at its length cap

    @property
    def top_degree(self):
        return self.min_degree + len(self.levels) - 1

    def level(self, n):
        i = n - self.min_degree
        if 0 <= i < len(self.levels):
            return self.levels[i]
        return ak.zero_aset(self.base)

    def boundary(self, n):
        """(r_n, s_n): level n -> level n-1, zero maps outside the window."""
        i = n - self.min_degree
        if 1 <= i < len(self.levels):
            return self.r[i - 1], self.s[i - 1]
        src = self.level(n)
        dst = self.level(n - 1)
        z = ak.zero_morphism(src, dst)
        return z, z

    def translate(self, p):
        """X[p] with X[p]_n = X_{n+p}."""
        return DaComplex(
            self.base,
            list(self.levels),
            list(self.r),
            list(self.s),
            min_degree=self.min_degree - p,
            complete=self.complete,
        )

    def is_reduced(self):
        """s_n r_{n+1} = s_n s_{n+1} = 0 above the bottom degree.  Above the
        window the level is zero, so at the top only s_top(0) = 0 is left."""
        top = len(self.levels) - 1
        for i in range(1, top + 1):
            s_n = self.s[i - 1].mapping
            ups = (self.r[i].mapping, self.s[i].mapping) if i < top else ([0],)
            if any(s_n[q] for up in ups for q in up):
                return False
        return True


def validate_dacomplex(c) -> ValidationReport:
    report = ValidationReport()
    for n in range(c.min_degree, c.top_degree + 1):
        r_n, s_n = c.boundary(n)
        for f in (r_n, s_n):
            sub = f.validate()
            if not sub.ok:
                report.add("BoundaryNotMorphism", (n,))
                break
    for n in range(c.min_degree + 1, c.top_degree + 1):
        r_n, s_n = c.boundary(n)
        r_up, s_up = c.boundary(n + 1)
        for p in range(len(c.level(n + 1).carrier)):
            if r_n(r_up(p)) != r_n(s_up(p)):
                report.add("RR!=RS", (n + 1, p))
            if s_n(r_up(p)) != s_n(s_up(p)):
                report.add("SR!=SS", (n + 1, p))
    return report


def coequalizer(f, g):
    """Coequalizer of a parallel pair; returns (Q, projection)."""
    if f.source is not g.source or f.target is not g.target:
        raise NotAComplex("parallel pair must share a source and a target")
    pairs = list(zip(f.mapping, g.mapping))
    return ak.quotient_aset(f.target, pairs, name=f"coeq({f.target.name})")


def homology(c, n):
    """ker(r-bar) intersect ker(s-bar) inside coeq(r_{n+1}, s_{n+1})."""
    r_up, s_up = c.boundary(n + 1)
    q, proj = coequalizer(r_up, s_up)
    r_n, s_n = c.boundary(n)

    # induced maps on classes; well-definedness is a consequence of the
    # complex axioms, asserted here
    induced_r = [None] * len(q.carrier)
    induced_s = [None] * len(q.carrier)
    for p in range(len(c.level(n).carrier)):
        cl = proj(p)
        for arr, f in ((induced_r, r_n), (induced_s, s_n)):
            if arr[cl] is None:
                arr[cl] = f(p)
            elif arr[cl] != f(p):
                raise NotAComplex(f"induced boundary ill-defined at degree {n}")
    keep = [
        k
        for k in range(len(q.carrier))
        if induced_r[k] == 0 and induced_s[k] == 0
    ]
    h = ak.sub_aset(q, keep, name=f"H{n}")
    h.coeq_proj = proj
    h.kept_classes = keep
    return h


class DaMorphism(Record):
    _fields = ("source", "target", "maps")

    def __init__(self, source: DaComplex, target: DaComplex, maps: list):
        self.source = source
        self.target = target
        self.maps = maps  # per degree, aligned with source.min_degree

    def level_map(self, n):
        i = n - self.source.min_degree
        if 0 <= i < len(self.maps):
            return self.maps[i]
        return ak.zero_morphism(self.source.level(n), self.target.level(n))

    def validate(self):
        report = ValidationReport()
        c, d = self.source, self.target
        for n in range(c.min_degree + 1, c.top_degree + 1):
            f_n = self.level_map(n)
            f_dn = self.level_map(n - 1)
            r_c, s_c = c.boundary(n)
            r_d, s_d = d.boundary(n)
            for p in range(len(c.level(n).carrier)):
                if f_dn(r_c(p)) != r_d(f_n(p)):
                    report.add("rf!=fr", (n, p))
                if f_dn(s_c(p)) != s_d(f_n(p)):
                    report.add("sf!=fs", (n, p))
        return report


def induced_homology_map(f: DaMorphism, n):
    hx = homology(f.source, n)
    hy = homology(f.target, n)
    fn = f.level_map(n)
    # chase: class in coeq(X) -> element -> f -> class in coeq(Y)
    mapping = [None] * len(hx.carrier)
    x_proj = hx.coeq_proj
    y_proj = hy.coeq_proj
    back = {cl: [] for cl in hx.kept_classes}
    for p in range(len(f.source.level(n).carrier)):
        cl = x_proj(p)
        if cl in back:
            back[cl].append(p)
    kept_pos_y = {cl: i for i, cl in enumerate(hy.kept_classes)}
    for i, cl in enumerate(hx.kept_classes):
        images = {y_proj(fn(p)) for p in back[cl]}
        if len(images) != 1:
            raise NotAComplex("induced homology map ill-defined")
        img = images.pop()
        if img not in kept_pos_y:
            raise NotAComplex("induced map leaves the joint kernel")
        mapping[i] = kept_pos_y[img]
    return ak.ASetMorphism(hx, hy, mapping)


def is_quasi_isomorphism(f: DaMorphism, degrees):
    for n in degrees:
        g = induced_homology_map(f, n)
        if not (g.is_injective() and g.is_surjective()):
            return False
    return True


# ---------------------------------------------------------------------------
# resolutions over finite-table bases


def _fiber_pairs(mapping, n, include_diagonal):
    fibers = {}
    for p in range(n):
        fibers.setdefault(mapping[p], []).append(p)
    pairs = []
    for members in fibers.values():
        for a_i in range(len(members)):
            start = a_i if include_diagonal else a_i + 1
            for b_i in range(start, len(members)):
                if members[a_i] == 0 and members[b_i] == 0:
                    continue
                pairs.append((members[a_i], members[b_i]))
    return pairs


def _congruence_generators(x, eps_mapping):
    """Small generating set of the fiber congruence of a surjection.

    Greedy smallest-first over distinct-fiber pairs: a pair is kept when
    the pairs kept before it do not already generate it, all in one
    union-find pass.  The closure is verified to reproduce the full fiber
    partition.
    """
    n = len(x.carrier)
    fiber_pairs = _fiber_pairs(eps_mapping, n, include_diagonal=False)
    full = ak.congruence_closure_naive(x, fiber_pairs).reps
    chosen, reps = _kernels.generating_pairs(n, x.gen_tables(), sorted(fiber_pairs))
    if reps != full:
        raise OracleMismatch(
            f"generators {chosen} close to {reps}, the fibers of {eps_mapping} "
            f"to {full}"
        )
    return chosen


def projective_resolution(x, length_cap=3, minimized=True):
    """Exact double-arrow complex of frees with coeq(r1, s1) = X.

    ``minimized=False`` keeps the full-pullback construction (one free
    generator per element of the fiber congruence).  Returns (complex,
    augmentation morphism).  Resolutions need not terminate (periodic ones
    exist over truncated bases); a window cut at ``length_cap`` is exact
    in degrees 1..top-1 and is returned with ``complete=False``.  At cap
    0 the window P0 is complete when the augmentation is injective.
    """
    require_nonnegative(length_cap, "length cap")
    m = x.base
    if isinstance(m, MonogenicMonoid):
        raise BoundExceeded("use free_resolution_monogenic for this base")
    eps = ak.free_cover(x, ak.aset_generators(x), name="P0")
    if not eps.is_surjective():
        raise ValidationError("generator sweep failed to cover the carrier")

    levels = [eps.source]
    rs, ss = [], []
    cur = eps.source
    cur_eps = eps.mapping

    for depth in range(length_cap):
        n = len(cur.carrier)
        if minimized:
            gen_pairs = _congruence_generators(cur, cur_eps)
        else:
            gen_pairs = [
                (p, q)
                for (p, q) in _fiber_pairs(cur_eps, n, include_diagonal=True)
            ]
        if not gen_pairs:
            break  # the augmentation is already injective: nothing to relate
        # positional labels: carrier names may collide when concatenated
        labels = [f"w{k}" for k in range(len(gen_pairs))]
        r_mor = ak.free_cover(
            cur, [p for p, _ in gen_pairs], labels=labels, name=f"P{depth + 1}"
        )
        nxt, r_map = r_mor.source, r_mor.mapping
        # s evaluates the same cells of nxt at the second point of each pair
        s_map = [0] + [row[q] for _, q in gen_pairs for row in cur.action[1:]]
        s_mor = ak.ASetMorphism(nxt, cur, s_map)
        levels.append(nxt)
        rs.append(r_mor)
        ss.append(s_mor)

        # stop when the joint kernel of the top pair is trivial
        joint = [
            i
            for i in range(len(nxt.carrier))
            if r_map[i] == 0 and s_map[i] == 0
        ]
        next_eps = [0] * len(nxt.carrier)
        pair_index = {}
        for i in range(len(nxt.carrier)):
            pair = (r_map[i], s_map[i]) if i else (0, 0)
            pair_index.setdefault(pair, len(pair_index))
            next_eps[i] = pair_index[pair]
        if joint == [0]:
            # exact already with the zero complex above
            break
        cur = nxt
        cur_eps = next_eps
    else:
        # cut at the cap; at cap 0 nothing is cut when eps is injective
        if length_cap or not eps.is_injective():
            return DaComplex(m, levels, rs, ss, complete=False), eps
    return DaComplex(m, levels, rs, ss), eps


def reduced_resolution(x, length_cap=3):
    """Resolution with vanishing second boundary above degree 1.

    Only the first stage P1 => P0 of the projective resolution is used
    (which rejects a negative cap); the levels above it are rebuilt from
    joint kernels.  A first stage without P1 is returned as it is, with
    its ``complete``.
    """
    comp, eps = projective_resolution(x, length_cap=min(length_cap, 1))
    if len(comp.levels) < 2:
        return comp, eps
    m = x.base
    levels = list(comp.levels[:2])
    rs = list(comp.r[:1])
    ss = list(comp.s[:1])
    for depth in range(1, length_cap):
        top = levels[depth]
        r_top = rs[depth - 1]
        s_top = ss[depth - 1]
        joint = sorted(
            i
            for i in range(len(top.carrier))
            if r_top(i) == 0 and s_top(i) == 0
        )
        if joint == [0]:
            break
        # the joint kernel of two equivariant maps is an A-subset of top
        r_mor = ak.free_cover(top, ak.aset_generators(top, joint), name=f"P{depth + 1}")
        levels.append(r_mor.source)
        rs.append(r_mor)
        ss.append(ak.zero_morphism(r_mor.source, top))
    else:
        return DaComplex(m, levels, rs, ss, complete=False), eps
    return DaComplex(m, levels, rs, ss), eps


# ---------------------------------------------------------------------------
# symbolic free complexes over the monogenic base


class FreeComplex(Record):
    """Levelwise free complex over the monogenic base.

    Levels hold generator labels; maps send a generator to
    (exponent, target label) or None for the zero map.
    """

    _fields = ("base", "level_labels", "r", "s")

    def __init__(self, base: MonogenicMonoid, level_labels: list, r: list, s: list):
        self.base = base
        self.level_labels = level_labels
        self.r = r  # r[i]: dict label -> (exp, label) | None, level i+1 -> i
        self.s = s

    @property
    def top_degree(self):
        return len(self.level_labels) - 1


def cyclic_quotient_aset(k, eq=None, base=None, name=None):
    """A/(t^k) when eq is None, else A/(t^k = t^eq), as a finite A-set.

    Carrier: 0, 1, t, ..., t^{k-1}.
    """
    base = base or MonogenicMonoid()
    carrier = ["0"] + [base.element_name(i) for i in range(k)]
    theta = [0] * (k + 1)
    for i in range(k):
        nxt = i + 1
        if eq is None:
            theta[1 + i] = 1 + nxt if nxt < k else 0
        else:
            theta[1 + i] = 1 + (nxt if nxt < k else eq)
    return ak.ASet(base, carrier, [theta], name=name or f"A/t^{k}")


_ZERO_ELEM = (None, None)  # the zero of a symbolic free; (k, i) is t^k.g_i


def free_resolution_monogenic(x):
    """Resolution P1 => P0 of a finite carrier over the monogenic base.

    Levels are symbolic frees.  The rays t^d.g_i are walked in lockstep,
    degree by degree and then generator by generator; each ray stops at
    its first point that is 0 or was reached before, and that collision
    is its one relation.  Every later point of a ray is a t-translate of
    its collision, so the relations generate the fiber congruence.  The
    points before a ray's stop are distinct nonzero points of X, so every
    collision lies below degree |X|; the relations are checked on a
    window of twice that.
    """
    gens = ak.aset_generators(x)
    labels0 = [x.carrier[g] for g in gens]

    def eps(exp, gi):
        return x.act(exp, gens[gi])

    first = {}  # nonzero point of X -> the first (k, i) reaching it
    relations = []
    live = range(len(gens))
    d = 0
    while live:
        going = []
        for gi in live:
            e, v = (d, gi), eps(d, gi)
            if not v:
                relations.append((e, _ZERO_ELEM))
            elif v in first:
                # each pair in generator-major order: (i, k) < (i', k')
                relations.append(tuple(sorted((first[v], e), key=lambda p: p[::-1])))
            else:
                first[v] = e
                going.append(gi)
        live = going
        d += 1
    relations.sort(key=lambda ab: (max(_deg(ab[0]), _deg(ab[1])), ab))
    _check_fiber_relations(relations, eps, len(gens), 2 * len(x.carrier))

    if not relations:  # X = 0, free on no generators
        return FreeComplex(x.base, [labels0], [], []), eps

    def side(e):
        return None if e == _ZERO_ELEM else (e[0], labels0[e[1]])

    labels1 = [f"({_fmt(a)};{_fmt(b)})" for a, b in relations]
    r1 = {lbl: side(a) for lbl, (a, _) in zip(labels1, relations)}
    s1 = {lbl: side(b) for lbl, (_, b) in zip(labels1, relations)}
    return FreeComplex(x.base, [labels0, labels1], [r1], [s1]), eps


def _check_fiber_relations(relations, eps, ngens, bound):
    """The relations and their t-translates close to the fiber congruence
    of ``eps`` on the degrees below ``bound``, else ``OracleMismatch``."""

    def image(e):
        return 0 if e == _ZERO_ELEM else eps(*e)

    for a, b in relations:
        if image(a) != image(b):
            raise OracleMismatch(f"relation {_fmt(a)} = {_fmt(b)} joins two images")
    merged = _window_closure(relations, bound)
    first = {0: _ZERO_ELEM}
    for k in range(bound):
        for gi in range(ngens):
            e = (k, gi)
            rep = first.setdefault(image(e), e)
            if not merged(rep, e):
                raise OracleMismatch(
                    f"relations {relations} leave {_fmt(e)} apart from {_fmt(rep)}"
                )


def _window_closure(chosen, bound):
    """Congruence generated by the pairs ``chosen`` and their t-translates,
    cut to degrees below ``bound``; returns "are a and b merged?"."""
    node = {}
    seeds = []
    for a, b in chosen:
        for k in range(bound - max(_deg(a), _deg(b))):
            sa = a if a == _ZERO_ELEM else (a[0] + k, a[1])
            sb = b if b == _ZERO_ELEM else (b[0] + k, b[1])
            seeds.append(
                (node.setdefault(sa, len(node)), node.setdefault(sb, len(node)))
            )
    reps = _kernels.closure(len(node), [], seeds)

    def merged(a, b):
        return a == b or (a in node and b in node and reps[node[a]] == reps[node[b]])

    return merged


def _deg(e):
    return 0 if e == _ZERO_ELEM else e[0]


def _fmt(e):
    if e == _ZERO_ELEM:
        return "0"
    k, gi = e
    return f"t^{k}.g{gi}"


# ---------------------------------------------------------------------------
# truncated simplicial A-sets


class TruncSimplicialASet(Record):
    _fields = ("base", "levels", "faces", "degeneracies")

    def __init__(self, base: object, levels: list, faces: list, degeneracies: list):
        self.base = base
        self.levels = levels
        self.faces = faces  # faces[n-1] = [d_0..d_n] at level n, n >= 1
        self.degeneracies = degeneracies  # degeneracies[n] = [s_0..s_n] at level n, n < N

    @property
    def truncation(self):
        return len(self.levels) - 1

    def face(self, n, i):
        return self.faces[n - 1][i]

    def degeneracy(self, n, i):
        return self.degeneracies[n][i]


def validate_simplicial(sset) -> ValidationReport:
    report = ValidationReport()
    n_top = sset.truncation
    for n in range(1, n_top + 1):
        for i, f in enumerate(sset.faces[n - 1]):
            if not f.validate().ok:
                report.add("FaceNotMorphism", (n, i))
    for n in range(0, n_top):
        for i, f in enumerate(sset.degeneracies[n]):
            if not f.validate().ok:
                report.add("DegeneracyNotMorphism", (n, i))
    # (1) d_i d_j = d_{j-1} d_i for i < j
    for n in range(2, n_top + 1):
        for j in range(n + 1):
            for i in range(j):
                lhs = sset.face(n - 1, i).compose(sset.face(n, j))
                rhs = sset.face(n - 1, j - 1).compose(sset.face(n, i))
                if lhs.mapping != rhs.mapping:
                    report.add("FaceFace", (n, i, j))
    # (2) s_i s_j = s_{j+1} s_i for i <= j
    for n in range(0, n_top - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                lhs = sset.degeneracy(n + 1, i).compose(sset.degeneracy(n, j))
                rhs = sset.degeneracy(n + 1, j + 1).compose(sset.degeneracy(n, i))
                if lhs.mapping != rhs.mapping:
                    report.add("DegenDegen", (n, i, j))
    # (3, 4, 5) d_i s_j interactions
    for n in range(0, n_top):
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = sset.face(n + 1, i).compose(sset.degeneracy(n, j))
                if i < j:
                    rhs = sset.degeneracy(n - 1, j - 1).compose(sset.face(n, i)) if n >= 1 else None
                    if rhs and lhs.mapping != rhs.mapping:
                        report.add("FaceDegen<", (n, i, j))
                elif i in (j, j + 1):
                    if lhs.mapping != list(range(len(sset.levels[n].carrier))):
                        report.add("FaceDegenId", (n, i, j))
                else:
                    rhs = sset.degeneracy(n - 1, j).compose(sset.face(n, i - 1)) if n >= 1 else None
                    if rhs and lhs.mapping != rhs.mapping:
                        report.add("FaceDegen>", (n, i, j))
    return report


def constant_simplicial(x, trunc):
    """The constant simplicial object on an A-set."""
    ident = ak.identity_morphism(x)
    levels = [x for _ in range(trunc + 1)]
    faces = [[ident] * (n + 1) for n in range(1, trunc + 1)]
    degeneracies = [[ident] * (n + 1) for n in range(0, trunc)]
    return TruncSimplicialASet(x.base, levels, faces, degeneracies)


def moore(sset):
    """Normalized complex: joint kernel of the lower faces, with the top
    two faces as the boundary pair.  Always reduced."""
    keeps = [_moore_keep(sset, n) for n in range(sset.truncation + 1)]
    levels = [
        ak.sub_aset(sset.levels[n], keep, name=f"N{n}") for n, keep in enumerate(keeps)
    ]
    rs, ss = [], []
    for n in range(1, sset.truncation + 1):
        pos_prev = {p: i for i, p in enumerate(keeps[n - 1])}
        r_map = [pos_prev[sset.face(n, n)(p)] for p in keeps[n]]
        s_map = [pos_prev[sset.face(n, n - 1)(p)] for p in keeps[n]]
        rs.append(ak.ASetMorphism(levels[n], levels[n - 1], r_map))
        ss.append(ak.ASetMorphism(levels[n], levels[n - 1], s_map))
    comp = DaComplex(sset.base, levels, rs, ss)
    if not comp.is_reduced():
        raise NotReduced("normalized complex failed the reduced check")
    return comp


# -- monotone surjections ----------------------------------------------------


def surjections(k, m):
    """All monotone surjections [k] ->> [m] as value tuples."""
    if m > k or m < 0 or k < 0:
        return []
    out = []

    def rec(prefix):
        i = len(prefix)
        last = prefix[-1]
        if i == k + 1:
            if last == m:
                out.append(tuple(prefix))
            return
        for v in (last, last + 1):
            # v climbs by at most one per slot and must still reach m
            if v <= m and m - v <= k - i:
                rec(prefix + [v])

    rec([0])
    return out


class SurjectionRule(NamedTuple):
    """Faces and degeneracies of one monotone surjection eta: [k] ->> [m].

    ``faces[i]`` is eta . delta_i as a pair (eta', j).  Either it still maps
    onto [m], and then j is None and eta' is eta . delta_i itself; or it
    misses exactly one value j, and eta . delta_i = delta_j . eta' with
    eta': [k-1] ->> [m-1].  ``degeneracies[i]`` is eta . sigma_i.
    """

    eta: tuple
    faces: tuple
    degeneracies: tuple


@functools.lru_cache(maxsize=None)
def surjection_rules(k, m):
    """The ``SurjectionRule`` of each surjection in ``surjections(k, m)``.

    The face of a degenerate cell (eta, x) is read off the epi-mono
    factorization of eta . delta_i, which depends on (eta, i) alone and not
    on the complex (May, Simplicial Objects in Algebraic Topology, 1967,
    section 22; Goerss-Jardine, Simplicial Homotopy Theory, III.2).  Each
    (k, m) is built on first use and kept, so the table holds the pairs
    m <= k <= the largest truncation asked for.
    """
    rules = []
    for eta in surjections(k, m):
        faces = []
        for i in range(k + 1) if k else ():
            beta = eta[:i] + eta[i + 1:]  # eta . delta_i
            missing = set(range(m + 1)).difference(beta)
            if not missing:
                faces.append((beta, None))
            else:
                (j,) = missing
                faces.append((tuple(v if v < j else v - 1 for v in beta), j))
        # eta . sigma_i repeats the value at i
        degeneracies = tuple(eta[: i + 1] + eta[i:] for i in range(k + 1))
        rules.append(SurjectionRule(eta, tuple(faces), degeneracies))
    return tuple(rules)


class _DoldKanLayout(NamedTuple):
    """What ``dold_kan_inverse`` lays out from the shape alone.

    Per level k: ``block_starts[k]`` maps (eta, m) to the carrier index of
    cell (eta, m, 0), read-only; ``blocks[k]`` lists (start, m, tag) in
    carrier order, tag the suffix of the cell names.  ``faces[k - 1][i]``
    is d_i of level k as (template, patches): the template holds the
    shifted identities and zeros, and a patch (at, target start, m, is_r)
    marks the run at ``at`` that is the shifted copy of r_m (is_r) or s_m.
    ``degeneracies[k][i]`` is s_i of level k.  Everything is a tuple or a read-only mapping: one layout serves every
    complex of its shape.
    """

    block_starts: tuple
    blocks: tuple
    faces: tuple
    degeneracies: tuple


@functools.lru_cache(maxsize=64)
def _dold_kan_layout(trunc, sizes):
    """The ``_DoldKanLayout`` of truncation ``trunc`` for a complex whose
    level m has ``sizes[m]`` nonzero points, m <= min(trunc, bound).

    At most 64 shapes are kept, least recently used first out; each is a
    few tuples of carrier indices.
    """
    bound = len(sizes) - 1
    # rules[k][m]: the rules of every surjection [k] ->> [m]
    rules = [[surjection_rules(k, m) for m in range(min(k, bound) + 1)]
             for k in range(trunc + 1)]
    block_starts, blocks = [], []
    for k in range(trunc + 1):
        starts, level_blocks, s0 = {}, [], 0
        for m, level_rules in enumerate(rules[k]):
            for eta, _, _ in level_rules:
                starts[(eta, m)] = s0
                level_blocks.append((s0, m, "" if m == k else f"@{eta}"))
                s0 += sizes[m]
        block_starts.append(starts)
        blocks.append(tuple(level_blocks))

    faces = []
    for k in range(1, trunc + 1):
        prev = block_starts[k - 1]
        templates = [[0] for _ in range(k + 1)]
        patches = [[] for _ in range(k + 1)]
        for m, level_rules in enumerate(rules[k]):
            n_m = sizes[m]
            for _, eta_faces, _ in level_rules:
                for template, patch, (eta2, j) in zip(templates, patches, eta_faces):
                    if j is None:
                        t0 = prev[(eta2, m)]
                        template.extend(range(t0 + 1, t0 + n_m + 1))
                        continue
                    if j >= m - 1:  # d_j = 0 for j <= m - 2
                        patch.append((len(template), prev[(eta2, m - 1)], m, j == m))
                    template.extend([0] * n_m)
        faces.append(tuple((tuple(t), tuple(p)) for t, p in zip(templates, patches)))

    degeneracies = []
    for k in range(trunc):
        up = block_starts[k + 1]
        mappings = [[0] for _ in range(k + 1)]
        for m, level_rules in enumerate(rules[k]):
            n_m = sizes[m]
            for _, _, eta_degens in level_rules:
                for mapping, eta2 in zip(mappings, eta_degens):
                    t0 = up[(eta2, m)]
                    mapping.extend(range(t0 + 1, t0 + n_m + 1))
        degeneracies.append(tuple(tuple(mapping) for mapping in mappings))

    return _DoldKanLayout(
        tuple(MappingProxyType(starts) for starts in block_starts),
        tuple(blocks), tuple(faces), tuple(degeneracies),
    )


def dold_kan_faces(c, trunc):
    """Face mappings of the inverse construction of the reduced complex
    ``c``, level by level: ``faces[k - 1][i]`` is the carrier mapping of
    d_i from level k to level k - 1 of ``dold_kan_inverse(c, trunc)``.

    Level k holds the cells (eta, m, p): eta: [k] ->> [m] a monotone
    surjection with m <= the complex bound, p a nonzero point of C_m.
    The cells of one (eta, m) form a block, listed m = 0 first and within
    each m in the order of ``surjection_rules(k, m)``, so cell (eta, m, p)
    is carrier index ``block_starts[k][(eta, m)] + p``.  Faces act on eta
    through the (k, m) rule table ``surjection_rules``, and on p only
    where eta . delta_i misses a value j: there the face is the complex
    face d_j of p, which is 0 for j <= m - 2, s_m for j = m - 1 and r_m
    for j = m (the epi-mono factorization of the simplicial identities:
    May 1967, section 22; Goerss-Jardine III.2).  So every face is one run
    per block: a shifted identity, a shifted copy of r_m or s_m, or zeros.

    All of that but the copies of r_m and s_m depends only on the shape
    (trunc, nonzero sizes of the levels): ``_dold_kan_layout`` builds it
    once per shape, and each call fills the r_m / s_m runs of the layout's
    templates, read off ``c.r`` and ``c.s``.  Each mapping is a new list.
    """
    if isinstance(c, FreeComplex):
        raise ValidationError(
            "a symbolic free complex has infinite levels; pass a finite DaComplex"
        )
    require_nonnegative(trunc, "truncation")
    if not c.is_reduced():
        raise NotReduced("the inverse construction requires a reduced complex")
    if c.min_degree != 0:
        raise ValidationError("complex must start at degree 0")
    sizes = tuple(len(lvl.carrier) - 1 for lvl in c.levels[: trunc + 1])
    faces = []
    for level_faces in _dold_kan_layout(trunc, sizes).faces:
        maps = []
        for template, patches in level_faces:
            mapping = list(template)
            for at, t0, m, is_r in patches:
                d = (c.r if is_r else c.s)[m - 1].mapping
                mapping[at:at + len(d) - 1] = [t0 + v if v else 0 for v in d[1:]]
            maps.append(mapping)
        faces.append(maps)
    return faces


def dold_kan_inverse(c, trunc):
    """Split simplicial object whose nondegenerate cells are the complex
    entries: the cells and faces of ``dold_kan_faces``, which checks
    ``c``, with the cached layout's degeneracies, and the cell names and
    action rows filled in.  ``block_starts`` is the layout's read-only view.
    """
    face_maps = dold_kan_faces(c, trunc)
    lvls = c.levels
    sizes = tuple(len(lvl.carrier) - 1 for lvl in lvls[: trunc + 1])
    layout = _dold_kan_layout(trunc, sizes)

    point_names = [[f"{name}" for name in lvl.carrier[1:]] for lvl in lvls[: len(sizes)]]
    levels = []
    for k, level_blocks in enumerate(layout.blocks):
        names = ["0"]
        action = [[0] for _ in lvls[0].action]
        for s0, m, tag in level_blocks:
            names.extend([name + tag for name in point_names[m]])
            # a row acts on the cell (eta, m, p) through p, keeping eta
            for row, src in zip(action, lvls[m].action):
                row.extend([s0 + q if q else 0 for q in src[1:]])
        levels.append(ak.ASet(c.base, names, action, name=f"K{k}"))

    faces = [
        [ak.ASetMorphism(levels[k], levels[k - 1], mapping) for mapping in level_maps]
        for k, level_maps in enumerate(face_maps, start=1)
    ]
    degeneracies = [
        [ak.ASetMorphism(levels[k], levels[k + 1], mapping) for mapping in level_degens]
        for k, level_degens in enumerate(layout.degeneracies)
    ]

    sset = TruncSimplicialASet(c.base, levels, faces, degeneracies)
    sset.nondegenerate_index = [
        {p: starts[(tuple(range(k + 1)), k)] + p for p in range(1, sizes[k] + 1)}
        if k <= c.top_degree else {}
        for k, starts in enumerate(layout.block_starts)
    ]
    sset.block_starts = layout.block_starts
    return sset


# ---------------------------------------------------------------------------
# the correspondence check


def _all_cells_degenerate_above(sset, bound):
    for n in range(bound + 1, sset.truncation + 1):
        degen = set()
        for i in range(n):
            degen.update(sset.degeneracy(n - 1, i).mapping)
        if set(range(len(sset.levels[n].carrier))) - degen:
            return False
    return True


def enumerate_complex_morphisms(c, d):
    """All morphisms between double-arrow complexes (finite windows)."""
    if c.min_degree != d.min_degree:
        raise ValidationError("aligned windows required")
    per_level = []
    for n in range(c.min_degree, c.top_degree + 1):
        per_level.append(ak.hom_enumerate(c.level(n), d.level(n)))
    out = []
    for combo in itertools.product(*per_level):
        cand = DaMorphism(c, d, list(combo))
        if cand.validate().ok:
            out.append(cand)
    return out


def simplicial_morphisms_from_generators(kc, sset, c):
    """Simplicial maps KC -> S via images of the nondegenerate cells."""
    bound = c.top_degree
    results = []
    level_homs = []
    for n in range(bound + 1):
        level_homs.append(ak.hom_enumerate(c.level(n), sset.levels[n]))
    for combo in itertools.product(*level_homs):
        maps = _extend_to_simplicial(kc, sset, c, combo)
        if maps is not None:
            results.append(maps)
    return results


def _apply_eta(sset, eta, m, element):
    """Apply the degeneracy composite of a surjection to an element of S_m."""
    k = len(eta) - 1
    if k == m:
        return element
    j = next(i for i in range(k) if eta[i] == eta[i + 1])
    peeled = tuple(eta[: j + 1] + eta[j + 2 :])
    y = _apply_eta(sset, peeled, m, element)
    return sset.degeneracy(k - 1, j)(y)


def _extend_to_simplicial(kc, sset, c, gen_maps):
    bound = c.top_degree
    maps = []
    for k in range(sset.truncation + 1):
        mapping = [0] * len(kc.levels[k].carrier)
        for (eta, m), s0 in kc.block_starts[k].items():
            for p in c.level(m).nonzero():
                mapping[s0 + p] = _apply_eta(sset, eta, m, gen_maps[m](p))
        maps.append(ak.ASetMorphism(kc.levels[k], sset.levels[k], mapping))
    # verify simplicial naturality
    for n in range(1, sset.truncation + 1):
        for i in range(n + 1):
            lhs = sset.face(n, i).compose(maps[n])
            rhs = maps[n - 1].compose(kc.face(n, i))
            if lhs.mapping != rhs.mapping:
                return None
    for n in range(0, sset.truncation):
        for i in range(n + 1):
            lhs = sset.degeneracy(n, i).compose(maps[n])
            rhs = maps[n + 1].compose(kc.degeneracy(n, i))
            if lhs.mapping != rhs.mapping:
                return None
    return maps


class AdjunctionReport(Record):
    _fields = ("simplicial_count", "complex_count", "bijective", "counit_is_simplicial")

    def __init__(self, simplicial_count: int, complex_count: int, bijective: bool,
                 counit_is_simplicial: bool):
        self.simplicial_count = simplicial_count
        self.complex_count = complex_count
        self.bijective = bijective
        self.counit_is_simplicial = counit_is_simplicial


def adjunction_check(c, sset):
    """|Hom(KC, S)| = |Hom(C, NS)| with mutually inverse translations."""
    bound = c.top_degree
    if sset.truncation < bound:
        raise TruncationTooLow("simplicial truncation below the complex bound")
    if not _all_cells_degenerate_above(sset, bound):
        raise TruncationTooLow("nondegenerate cells above the complex bound")
    kc = dold_kan_inverse(c, sset.truncation)
    ns = moore(sset)
    ns_window = DaComplex(
        sset.base, ns.levels[: bound + 1], ns.r[:bound], ns.s[:bound]
    )
    simp = simplicial_morphisms_from_generators(kc, sset, c)
    comp = enumerate_complex_morphisms(c, ns_window)

    # forward translation: restrict a simplicial map to nondegenerate cells
    def forward(maps):
        out = []
        for n in range(bound + 1):
            nd = kc.nondegenerate_index[n]
            # N_n S carrier positions
            keep = ns.levels[n]
            amb = sset.levels[n]
            pos = {q: i for i, q in enumerate(_moore_keep(sset, n))}
            mapping = [0] * len(c.level(n).carrier)
            for p, idx in nd.items():
                img = maps[n](idx)
                mapping[p] = pos[img]
            out.append(ak.ASetMorphism(c.level(n), keep, mapping))
        return tuple(tuple(f.mapping) for f in out)

    def backward(g):
        gen_maps = []
        for n in range(bound + 1):
            keep = _moore_keep(sset, n)
            gen_maps.append(
                ak.ASetMorphism(
                    c.level(n),
                    sset.levels[n],
                    [keep[v] for v in g.maps[n].mapping],
                )
            )
        return _extend_to_simplicial(kc, sset, c, gen_maps)

    simp_keys = {tuple(tuple(f.mapping) for f in maps): maps for maps in simp}
    comp_keys = {tuple(tuple(f.mapping) for f in g.maps): g for g in comp}

    ok = len(simp) == len(comp)
    fwd_images = set()
    for maps in simp:
        key = forward(maps)
        fwd_images.add(key)
        if key not in comp_keys:
            ok = False
    ok = ok and len(fwd_images) == len(simp)
    for g in comp:
        maps = backward(g)
        if maps is None:
            ok = False
            continue
        if forward(maps) != tuple(tuple(f.mapping) for f in g.maps):
            ok = False

    counit_ok = _counit_is_simplicial(sset, ns)
    return AdjunctionReport(
        simplicial_count=len(simp),
        complex_count=len(comp),
        bijective=ok,
        counit_is_simplicial=counit_ok,
    )


def _moore_keep(sset, n):
    """Cells of level n in the Moore complex: all of levels 0 and 1, above
    that the joint kernel of the faces d_0..d_{n-2}."""
    if n <= 1:
        return list(range(len(sset.levels[n].carrier)))
    return [
        p
        for p in range(len(sset.levels[n].carrier))
        if all(sset.face(n, i)(p) == 0 for i in range(n - 1))
    ]


def _counit_is_simplicial(sset, ns):
    """KNS -> S on nondegenerate cells is the Moore inclusion; verify the
    induced levelwise maps commute with faces and degeneracies."""
    kns = dold_kan_inverse(ns, sset.truncation)
    gen_maps = []
    for n in range(sset.truncation + 1):
        keep = _moore_keep(sset, n)
        gen_maps.append(
            ak.ASetMorphism(ns.levels[n], sset.levels[n], list(keep))
        )
    return _extend_to_simplicial(kns, sset, ns, gen_maps) is not None
