"""Affine lattice monoids and glued monoid schemes.

Charts are finitely generated submonoids of a shared lattice (optionally
times a finite unit group).  Height-one points are facets of a chart's
generator cone; valuations pair against primitive inner normals scaled
to the chart's own lattice.  Class groups are cokernels of the divisor
matrix; Picard groups are computed from chartwise generic data glued
along overlap unit lattices.
"""

from __future__ import annotations

import itertools
import operator

from . import intlin
from ._records import FrozenRecord, Record
from .abgroup import GroupPresentation, quotient_group
from .errors import NotNormal, OracleMismatch, ValidationError
from .monoids import AffineMonoid


# ---------------------------------------------------------------------------
# lattice and cone utilities


def lattice_basis_of(gens, rank):
    """Basis (columns) of the subgroup generated by the vectors."""
    cols = [list(g) for g in gens]
    return intlin.lattice_basis(cols, rank)


def _primitive(vec):
    from math import gcd

    g = 0
    for v in vec:
        g = gcd(g, abs(v))
    if g == 0:
        return tuple(vec)
    return tuple(v // g for v in vec)


def _dot(w, vec):
    return sum(map(operator.mul, w, vec))


def _det(mat):
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division is exact."""
    m = [list(row) for row in mat]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, top = m[k][k], m[k]
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return sign * m[-1][-1]


def _cofactors(rows, rank):
    """The vector w with w_j = (-1)^j det(rows without column j), for
    rank - 1 rows of length rank.  Expanding det([x; rows]) along x gives
    <w, x>, so w is orthogonal to every row, and w = 0 iff the rows are
    dependent."""
    return [
        (-1) ** j * _det([row[:j] + row[j + 1:] for row in rows])
        for j in range(rank)
    ]


def facet_normals(gens, rank, orth=None):
    """Primitive inner normals of the facets of the generator cone.

    Normals are taken inside the rational span of the generators; every
    generator pairs nonnegatively and some generator pairs positively.
    ``orth`` is the span's orthogonal complement, when the caller has it.

    A facet holds dim - 1 independent generators, and the normal of their
    span inside the generator span is the cofactor vector of those
    generators and the complement rows.  A dependent subset gives the
    zero vector and is skipped; any other candidate is a facet normal
    unless it takes both signs on the generators.
    """
    gens = [tuple(g) for g in gens]
    if orth is None:
        orth = _span_orthogonal_complement(gens, rank)
    dim = rank - len(orth)
    if dim == 0:
        return []
    normals = set()
    for combo in itertools.combinations(sorted(set(gens)), dim - 1):
        w = _primitive(_cofactors([list(c) for c in combo] + orth, rank))
        if not any(w):
            continue  # dependent subset
        # w lies in the span and is not orthogonal to it, so some
        # generator pairs nonzero with it
        vals = [_dot(w, g) for g in gens]
        if min(vals) < 0 < max(vals):
            continue  # w cuts through the cone
        sign = 1 if min(vals) >= 0 else -1
        normals.add(tuple(sign * x for x in w))
    return sorted(normals)


def _span_orthogonal_complement(gens, rank):
    """Rows spanning the orthogonal complement of the generator span."""
    if not gens:
        return [
            [1 if i == j else 0 for j in range(rank)] for i in range(rank)
        ]
    mat = [list(g) for g in gens]
    return [list(k) for k in intlin.kernel_basis(mat)]


class Sublattice:
    """The subgroup L of Z^rank spanned by some vectors.

    One Smith form U*M*V = D of the generator matrix M
    (``intlin.smith_lattice``) gives both the basis, the first r columns
    of M*V, and membership: v lies in L iff (U*v)_i is divisible by D_ii
    for every i < r and vanishes past them.
    """

    def __init__(self, gens, rank):
        self.basis, self._rows, self._factors = intlin.smith_lattice(
            [list(g) for g in gens], rank
        )

    def __contains__(self, vec):
        for row, d in itertools.zip_longest(self._rows, self._factors, fillvalue=0):
            c = _dot(row, vec)
            if (c % d if d else c):
                return False
        return True


class ChartCone:
    """A chart's generator cone and lattice, computed once from its
    generators: the span's orthogonal complement, the facet normals, the
    chart lattice, and, as they are asked for, the lattice of each face,
    the saturation points of the zonotope box and the unit lattice.

    ``shared`` is the record of a chart with the same cone (a
    normalization's input); its complement and normals, which depend on
    the cone alone, are taken over.  The lattice, face lattices, box
    points and unit lattice always come from ``gens``.
    """

    def __init__(self, gens, rank, shared=None):
        self.gens = gens
        self.rank = rank
        if shared is None:
            self.complement = _span_orthogonal_complement(gens, rank)
            self.normals = facet_normals(gens, rank, self.complement)
        else:
            self.complement, self.normals = shared.complement, shared.normals
        self.lattice = Sublattice(gens, rank)
        self._face_lattices = {}
        self._box = None
        self._units = None

    def in_span(self, vec):
        """Is vec in the rational span of the generators?"""
        return not any(_dot(w, vec) for w in self.complement)

    def in_cone(self, vec):
        """Is vec in the rational cone of the generators?"""
        return self.in_span(vec) and all(_dot(w, vec) >= 0 for w in self.normals)

    def in_face(self, gen_indices, vec):
        """Is vec in the face whose generators are ``gen_indices``?  The
        face is the cone cut by every normal vanishing on them."""
        return self.in_cone(vec) and all(
            _dot(w, vec) == 0
            for w in self.normals
            if all(_dot(w, self.gens[i]) == 0 for i in gen_indices)
        )

    def face_lattice(self, face):
        """Lattice of the generators on which the normals indexed by
        ``face`` all vanish."""
        lat = self._face_lattices.get(face)
        if lat is None:
            on_face = [
                g for g in self.gens
                if all(_dot(self.normals[i], g) == 0 for i in face)
            ]
            lat = self._face_lattices[face] = Sublattice(on_face, self.rank)
        return lat

    def box_points(self):
        """Sorted nonzero points of cone and lattice in the zonotope box,
        scanned once; each caller gets its own list."""
        if self._box is None:
            lo, hi = _zonotope_box(self.gens, self.rank)
            self._box = sorted(
                v for v in _box_points(lo, hi)
                if any(v) and self.in_cone(v) and v in self.lattice
            )
        return list(self._box)

    def unit_lattice(self):
        """Basis (columns) of the lineality of the cone intersected with
        the chart lattice, computed once; each caller gets fresh lists."""
        if self._units is None:
            basis = self.lattice.basis
            k = len(basis)
            rows = [[_dot(w, col) for col in basis] for w in self.normals]
            if rows:
                coeff_kernel = intlin.kernel_basis(rows)
            else:  # no facets: every lattice vector is a unit
                coeff_kernel = [[int(i == j) for i in range(k)] for j in range(k)]
            units = []
            for coeffs in coeff_kernel:
                vec = [
                    sum(coeffs[j] * basis[j][i] for j in range(k))
                    for i in range(self.rank)
                ]
                if any(vec):
                    units.append(vec)
            self._units = units
        return [list(u) for u in self._units]


def chart_cone(aff):
    """The chart's cone record, built on first use and kept on the chart
    (its generators never change)."""
    if aff._cone is None:
        aff._cone = ChartCone(aff.generators, aff.rank)
    return aff._cone


def _zonotope_box(gens, rank):
    """Bounding box of the sums of distinct generators.  A repeated
    generator adds nothing: a Hilbert basis element is a generator or a
    combination of linearly independent generators with coefficients in
    [0, 1), so the box of the distinct ones contains it."""
    gens = set(map(tuple, gens))
    lo = [sum(min(0, g[j]) for g in gens) for j in range(rank)]
    hi = [sum(max(0, g[j]) for g in gens) for j in range(rank)]
    return lo, hi


def _box_points(lo, hi):
    ranges = [range(a, b + 1) for a, b in zip(lo, hi)]
    return itertools.product(*ranges)


def saturation_points_in_box(aff):
    """Lattice points of the saturation inside the fundamental zonotope box."""
    return chart_cone(aff).box_points()


def saturation_generators(aff):
    """Generating set of the saturation, units included.

    Unit directions (the cone's lineality intersected with the chart
    lattice) are adjoined with both signs; the zonotope box points supply
    the pointed directions.  The set is generating but not minimized.
    """
    gens = set()
    for u in unit_lattice_of_chart(aff):
        gens.add(tuple(u))
        gens.add(tuple(-x for x in u))
    gens.update(tuple(v) for v in saturation_points_in_box(aff))
    gens.discard(tuple([0] * aff.rank))
    return sorted(gens)


def is_normal(aff):
    """Cancellative chart equals its saturation (bounded verification)."""
    if aff.is_pc_quotient:
        raise ValidationError("normality applies to cancellative charts")
    return all(aff.contains(v) for v in saturation_generators(aff))


def normalize_affine(aff):
    """Saturation of the generator monoid inside its own lattice.

    The saturation has the chart's cone, so its cone record shares the
    chart's complement and normals (``ChartCone``'s ``shared``); its
    ``is_normal`` check scans its own box against them.  A chart with a
    monomial ideal raises ``ValidationError``: ``normalize_pc``
    normalizes its components.

    On a pointed chart (no units) the minimal generating set of the
    saturation is its Hilbert basis: the candidates g such that no other
    candidate h leaves g - h in cone and lattice.  Every Hilbert basis
    element lies in the zonotope box, so this is exact.  As g and h both
    lie in the span and the lattice, so does g - h, and it lies in the
    cone iff every facet normal pairs with h at most as with g.

    A chart with units has no unique minimal generating set.  There the
    candidates are dropped greedily, largest first, whenever bounded
    membership writes one in the others; that order fixes the output.
    """
    if aff.is_pc_quotient:
        raise ValidationError("normalization applies to cancellative charts")
    cand = saturation_generators(aff)
    if unit_lattice_of_chart(aff):
        keep = _greedy_generators(aff, cand)
    else:
        normals = chart_cone(aff).normals
        pairs = {g: [_dot(w, g) for w in normals] for g in cand}
        keep = [
            g for g in cand
            if not any(
                h != g and all(map(operator.le, pairs[h], pairs[g]))
                for h in cand
            )
        ]
    out = AffineMonoid(
        f"{aff.name}_nor",
        aff.rank,
        [tuple(v) for v in sorted(keep)],
        unit_orders=list(aff.unit_orders),
        degree_bound=aff.degree_bound,
    )
    out._cone = ChartCone(out.generators, out.rank, shared=chart_cone(aff))
    if not is_normal(out):
        raise OracleMismatch(f"saturation {out.generators} failed its own normality check")
    return out


def _greedy_generators(aff, cand):
    keep = list(cand)
    for g in sorted(cand, key=lambda v: (-sum(abs(x) for x in v), v)):
        rest = [h for h in keep if h != g]
        if rest:
            trial = AffineMonoid(
                "trial", aff.rank, rest, degree_bound=aff.degree_bound
            )
            if trial.contains(g):
                keep = rest
    return keep


# ---------------------------------------------------------------------------
# faces, minimal primes, pc normalization


def faces(aff):
    """Faces of the generator cone, as generator index subsets."""
    gens = aff.generators
    normals = chart_cone(aff).normals
    seen = {}
    for r in range(len(normals) + 1):
        for combo in itertools.combinations(range(len(normals)), r):
            on_face = frozenset(
                i
                for i, g in enumerate(gens)
                if all(_dot(normals[t], g) == 0 for t in combo)
            )
            seen.setdefault(on_face, combo)
    return sorted(seen.keys(), key=lambda s: (len(s), sorted(s)))


def minimal_primes_pc(aff):
    """Maximal faces avoiding every monomial-ideal generator."""
    if not aff.is_pc_quotient:
        return [frozenset(range(len(aff.generators)))]
    cone = chart_cone(aff)
    avoiding = [
        f
        for f in faces(aff)
        if not any(cone.in_face(f, v) for v in aff.monomial_ideal)
    ]
    maximal = [
        f
        for f in avoiding
        if not any(f < g for g in avoiding)
    ]
    return sorted(maximal, key=lambda s: sorted(s))


def normalize_pc(aff):
    """One normalized cancellative component per minimal prime."""
    comps = []
    for k, face in enumerate(minimal_primes_pc(aff)):
        sub = [aff.generators[i] for i in sorted(face)]
        comp = AffineMonoid(
            f"{aff.name}_c{k}",
            aff.rank,
            sub,
            unit_orders=list(aff.unit_orders),
            degree_bound=aff.degree_bound,
        )
        comps.append(normalize_affine(comp))
    return comps


def global_sections_contains(components, tuples_vec):
    """Membership in the product of the components (bounded check)."""
    if len(tuples_vec) != len(components):
        raise ValidationError("one coordinate per component")
    return all(
        (not any(v)) or comp.contains(v)
        for comp, v in zip(components, tuples_vec)
    )


# ---------------------------------------------------------------------------
# valuations and discrete-valuation reports


def chart_valuations(aff):
    """(normal, scale) pairs: v(m) = <normal, m> / scale on the chart lattice."""
    cone = chart_cone(aff)
    out = []
    from math import gcd

    for w in cone.normals:
        vals = [_dot(w, col) for col in cone.lattice.basis]
        g = 0
        for v in vals:
            g = gcd(g, abs(v))
        out.append((w, g or 1))
    return out


class DVReport(Record):
    _fields = ("is_dv", "uniformizer", "witness")

    def __init__(self, is_dv: bool, uniformizer: tuple | None, witness: tuple | None):
        self.is_dv = is_dv
        self.uniformizer = uniformizer
        self.witness = witness


def dv_check(aff, normal, scale=1):
    """Is the localization at the facet a discrete valuation monoid?

    Uses bounded membership in the localized monoid S + Z(face of S) and
    checks the unit-times-power factorization on the saturation box.
    """
    gens = aff.generators
    face_gens = [g for g in gens if _dot(normal, g) == 0]

    def loc_contains(vec):
        # vec = s + z with s in S and z in the group on the face
        coeffs = range(-aff.degree_bound, aff.degree_bound + 1)
        if not face_gens:
            return aff.contains(vec)
        for combo in itertools.product(coeffs, repeat=len(face_gens)):
            shift = [
                vec[i] - sum(c * g[i] for c, g in zip(combo, face_gens))
                for i in range(aff.rank)
            ]
            if aff.contains(shift):
                return True
        return False

    def value(vec):
        return _dot(normal, vec) // scale

    # find a uniformizer: bounded scan over the saturation box
    box = saturation_points_in_box(aff)
    uni = None
    for v in box:
        if value(v) == 1 and loc_contains(v):
            uni = v
            break
    if uni is None:
        return DVReport(False, None, None)
    # bounded factorization: every localized element is unit * power
    for v in box:
        if not loc_contains(v):
            continue
        k = value(v)
        u = tuple(a - k * b for a, b in zip(v, uni))
        neg_u = tuple(-a for a in u)
        if not (loc_contains(u) and loc_contains(neg_u)):
            return DVReport(False, uni, v)
    return DVReport(True, uni, None)


class IntersectionReport(Record):
    _fields = ("holds", "witnesses")

    def __init__(self, holds: bool, witnesses: list):
        self.holds = holds
        self.witnesses = witnesses


def intersect_localizations_check(aff):
    """Bounded window: membership in the chart equals nonnegativity at
    every facet valuation (the hallmark of normal charts)."""
    cone = chart_cone(aff)
    lo, hi = _zonotope_box(aff.generators, aff.rank)
    witnesses = []
    for v in _box_points(lo, hi):
        if not any(v) or v not in cone.lattice or not cone.in_span(v):
            continue
        if cone.in_cone(v) != aff.contains(v):
            witnesses.append(tuple(v))
    return IntersectionReport(not witnesses, sorted(witnesses))


# ---------------------------------------------------------------------------
# seminormalization


def _face_of_point(vec, normals):
    return tuple(i for i, w in enumerate(normals) if _dot(w, vec) == 0)


def seminormal_membership(aff, vec):
    """Exact: vec belongs to the seminormalization iff it lies in the
    subgroup generated by the chart elements on its own face."""
    cone = chart_cone(aff)
    if not (cone.in_cone(vec) and vec in cone.lattice):
        return False
    return vec in cone.face_lattice(_face_of_point(vec, cone.normals))


def seminormal_membership_powers(aff, vec, kmax=None):
    """Oracle: all large powers land in the chart (gcd of the multiplier
    set is 1 once the set is an additive semigroup)."""
    if kmax is None:
        kmax = aff.degree_bound
    from math import gcd

    hits = [
        k
        for k in range(1, kmax + 1)
        if aff.contains(tuple(k * x for x in vec), bound=aff.degree_bound * kmax)
    ]
    if not hits:
        return False
    g = 0
    for k in hits:
        g = gcd(g, k)
    return g == 1


def seminormalize_cancellative(aff):
    """Largest intermediate monoid whose elements have all large powers in
    the chart; computed from box generators of the exact membership."""
    if aff.is_pc_quotient:
        raise ValidationError("cancellative charts only")
    exact = {v: seminormal_membership(aff, v) for v in saturation_points_in_box(aff)}
    gens = sorted({v for v, member in exact.items() if member} | set(aff.generators))
    out = AffineMonoid(
        f"{aff.name}_sn",
        aff.rank,
        [tuple(g) for g in gens],
        unit_orders=list(aff.unit_orders),
        degree_bound=aff.degree_bound,
    )
    # verification window: the generated monoid matches exact membership
    for v, member in exact.items():
        if out.contains(v) != member:
            raise OracleMismatch(
                f"seminormalization of {aff.name} disagrees with exact membership at {v}"
            )
    return out


def unit_lattice_of_chart(aff):
    """Basis (columns) of the unit sublattice: lineality of the cone
    intersected with the chart lattice."""
    return chart_cone(aff).unit_lattice()


# ---------------------------------------------------------------------------
# glued schemes


class GluedScheme(Record):
    _fields = ("lattice_rank", "charts", "unit_orders", "glue", "name")

    def __init__(self, lattice_rank: int, charts: list, unit_orders: list | None = None,
                 glue: str = "fan", name: str = "X"):
        self.lattice_rank = lattice_rank
        self.charts = charts
        self.unit_orders = [] if unit_orders is None else unit_orders
        self.glue = glue
        self.name = name
        if self.glue not in ("fan", "generic"):
            raise ValidationError(f"unknown glue mode {self.glue!r}")
        for c in self.charts:
            if c.rank != self.lattice_rank:
                raise ValidationError("chart rank mismatch")
            if c.is_pc_quotient:
                raise ValidationError("scheme charts must be cancellative")
        # charts must share the full lattice as common group completion
        for c in self.charts:
            if c.unit_tags is None:
                basis = lattice_basis_of(c.generators, self.lattice_rank)
                if len(basis) != self.lattice_rank:
                    raise ValidationError(
                        f"chart {c.name} does not span the scheme lattice"
                    )

    @property
    def torsion(self):
        return list(self.unit_orders)


def affine_scheme(aff, name=None):
    return GluedScheme(
        aff.rank, [aff], unit_orders=list(aff.unit_orders), glue="fan",
        name=name or aff.name,
    )


def projective_space(n):
    """n+1 standard charts over the lattice of exponent differences."""
    charts = []
    basis = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    zero = tuple([0] * n)
    # chart 0: all x_j / x_0
    charts.append(AffineMonoid("U0", n, list(basis)))
    for i in range(1, n + 1):
        gens = [tuple(-v for v in basis[i - 1])]
        for j in range(1, n + 1):
            if j != i:
                gens.append(
                    tuple(a - b for a, b in zip(basis[j - 1], basis[i - 1]))
                )
        charts.append(AffineMonoid(f"U{i}", n, gens))
    return GluedScheme(n, charts, glue="fan", name=f"P{n}")


def glued_lines(n_plus_1):
    """Copies of the affine line sharing only the generic point."""
    charts = [AffineMonoid(f"L{i}", 1, [(1,)]) for i in range(n_plus_1)]
    return GluedScheme(1, charts, glue="generic", name=f"lines{n_plus_1}")


def product_scheme(x1, x2, name=None):
    if x1.glue != "fan" or x2.glue != "fan":
        raise ValidationError("products are built for fan-glued schemes")
    d1, d2 = x1.lattice_rank, x2.lattice_rank
    charts = []
    for c1 in x1.charts:
        for c2 in x2.charts:
            gens = [tuple(g) + tuple([0] * d2) for g in c1.generators]
            gens += [tuple([0] * d1) + tuple(g) for g in c2.generators]
            charts.append(
                AffineMonoid(f"{c1.name}x{c2.name}", d1 + d2, gens)
            )
    return GluedScheme(
        d1 + d2,
        charts,
        unit_orders=list(x1.unit_orders) + list(x2.unit_orders),
        glue="fan",
        name=name or f"{x1.name}x{x2.name}",
    )


# -- height-one points and divisors -------------------------------------------


class HeightOnePoint(FrozenRecord):
    _fields = ("label", "normal", "scale", "chart_indices")

    def __init__(self, label: str, normal: tuple, scale: int, chart_indices: tuple):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "chart_indices", chart_indices)

    def valuation(self, vec):
        return _dot(self.normal, vec) // self.scale


def height_one_points(scheme):
    points = []
    if scheme.glue == "fan":
        by_normal = {}
        for ci, chart in enumerate(scheme.charts):
            for w, g in chart_valuations(chart):
                by_normal.setdefault((w, g), []).append(ci)
        for (w, g), cis in sorted(by_normal.items()):
            name = "v" + str(tuple(w)).replace(" ", "")
            points.append(HeightOnePoint(name, w, g, tuple(sorted(cis))))
    else:
        for ci, chart in enumerate(scheme.charts):
            for w, g in chart_valuations(chart):
                name = f"c{ci}:v" + str(tuple(w)).replace(" ", "")
                points.append(HeightOnePoint(name, w, g, (ci,)))
    return points


def divisor_of(scheme, vec, points=None):
    """Principal divisor of a generic lattice element."""
    points = points if points is not None else height_one_points(scheme)
    return {p.label: p.valuation(vec) for p in points if p.valuation(vec) != 0}


def _require_normal_charts(scheme):
    for chart in scheme.charts:
        if chart.unit_tags is not None:
            raise NotNormal("tagged charts are not supported here")
        if not is_normal(chart):
            raise NotNormal(f"chart {chart.name} is not normal")


def class_group(scheme, drop_points=()):
    """Cokernel of the divisor matrix on the height-one points.

    The rows are the divisors of a basis of the lattice the charts'
    generators span, where every valuation is an exact integer.
    """
    _require_normal_charts(scheme)
    points = [
        p for p in height_one_points(scheme) if p.label not in drop_points
    ]
    gens = [g for chart in scheme.charts for g in chart.generators]
    rows = [
        [p.valuation(b) for p in points]
        for b in lattice_basis_of(gens, scheme.lattice_rank)
    ]
    pres = GroupPresentation(
        len(points), rows, generator_labels=[p.label for p in points]
    )
    return pres


# -- Cartier data and the Picard group ----------------------------------------


def overlap_unit_lattice(scheme, i, j):
    """Basis (columns, lattice part) of the overlap's unit group."""
    d = scheme.lattice_rank
    if scheme.glue == "generic":
        return [[1 if r == k else 0 for r in range(d)] for k in range(d)]
    gens = list(scheme.charts[i].generators) + list(scheme.charts[j].generators)
    merged = AffineMonoid(f"O{i}{j}", d, gens)
    return unit_lattice_of_chart(merged)


def cartier_and_pic(scheme):
    """(Cart presentation, Pic invariants) from chartwise generic data."""
    d = scheme.lattice_rank
    torsion = scheme.torsion
    u = len(torsion)
    width = d + u
    c = len(scheme.charts)
    dim = width * c

    def block(i, vec):
        out = [0] * dim
        for k, v in enumerate(vec):
            out[i * width + k] = v
        return out

    torsion_rows = []
    for i in range(c):
        for t, order in enumerate(torsion):
            torsion_rows.append(block(i, [0] * d + [order if s == t else 0 for s in range(u)]))

    # numerator: tuples whose pairwise differences are overlap units
    basis = [[1 if r == k else 0 for r in range(dim)] for k in range(dim)]
    for i in range(c):
        for j in range(i + 1, c):
            lat = overlap_unit_lattice(scheme, i, j)
            target = [list(col) + [0] * u for col in lat]
            # torsion coordinates are everywhere invertible (mod their order)
            for t in range(u):
                target.append([0] * d + [1 if s == t else 0 for s in range(u)])
            diff = [
                [b[i * width + k] - b[j * width + k] for b in basis]
                for k in range(width)
            ]
            coeff = intlin.preimage_lattice(diff, target)
            basis = _combine(basis, coeff, dim)
            if not basis:
                break
        if not basis:
            break
    numerator = basis

    chart_unit_cols = []
    for i, chart in enumerate(scheme.charts):
        for col in unit_lattice_of_chart(chart):
            chart_unit_cols.append(block(i, list(col) + [0] * u))
        if chart.unit_tags is None:
            for t in range(u):
                chart_unit_cols.append(
                    block(i, [0] * d + [1 if s == t else 0 for s in range(u)])
                )
        else:
            for tvec in _tagged_torsion_units(chart, torsion):
                chart_unit_cols.append(block(i, [0] * d + list(tvec)))

    diagonal_cols = []
    for k in range(width):
        vec = [0] * dim
        for i in range(c):
            vec[i * width + k] = 1
        diagonal_cols.append(vec)

    cart = quotient_group(dim, [], numerator, chart_unit_cols + torsion_rows)
    pic = quotient_group(
        dim, [], numerator, chart_unit_cols + torsion_rows + diagonal_cols
    )
    return cart, pic


def _combine(basis_cols, coeff_cols, dim):
    """Compose a lattice basis with coefficient columns."""
    out = []
    for col in coeff_cols:
        vec = [0] * dim
        for j, c in enumerate(col):
            if c:
                for r in range(dim):
                    vec[r] += c * basis_cols[j][r]
        if any(vec):
            out.append(vec)
    return intlin.lattice_basis(out, dim)


def _tagged_torsion_units(chart, torsion):
    """Generators of the torsion units of a unit-tagged chart: the nonzero
    tags of nonnegative combinations with zero lattice part, within the
    degree bound.  The tags need not form a subgroup; Cart and Pic add each
    torsion order times e_t, so the tags span the same lattice as the
    subgroup they generate."""
    gens = chart.generators
    tags = chart.unit_tags
    u = len(torsion)
    found = set()
    bound = chart.degree_bound

    def rec(idx, vec, tag):
        if idx == len(gens):
            if not any(vec):
                found.add(tuple(t % o for t, o in zip(tag, torsion)))
            return
        for coeff in range(bound + 1):
            nv = [a + coeff * b for a, b in zip(vec, gens[idx])]
            nt = [a + coeff * b for a, b in zip(tag, tags[idx])]
            rec(idx + 1, nv, nt)

    rec(0, [0] * chart.rank, [0] * u)
    return sorted(t for t in found if any(t))


def pic(scheme):
    _, p = cartier_and_pic(scheme)
    return p


def cartier_group(scheme):
    c, _ = cartier_and_pic(scheme)
    return c
