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
    ``orth`` is a basis of the span's orthogonal complement, when the
    caller has one (``ChartCone`` passes its lattice's ``complement``);
    without it the complement is the ``complement`` of the generators'
    ``intlin.Sublattice``.  Any basis gives the same normals: another one
    multiplies each cofactor vector by a nonzero scalar, and the normal is
    that vector made primitive with its sign fixed by the generators.

    A facet holds dim - 1 independent generators, and the normal of their
    span inside the generator span is the cofactor vector of those
    generators and the complement rows.  A dependent subset gives the
    zero vector and is skipped; any other candidate is a facet normal
    unless it takes both signs on the generators.
    """
    gens = [tuple(g) for g in gens]
    if orth is None:
        orth = intlin.Sublattice(gens, rank).complement
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


class ChartCone:
    """A chart's generator cone and lattice, computed once from its
    generators: the chart lattice, whose Smith form also gives the span's
    orthogonal complement, the facet normals, the generators on the
    lineality, and, as they are asked for, the lattice of each face, the
    saturation points of the zonotope box, the Hilbert basis and the unit
    lattice.  The face cut by no normal is the whole cone, so its lattice
    is the chart lattice itself.

    ``shared`` is the record of a chart with the same cone (a
    normalization's input); its normals, which depend on the cone alone,
    are taken over.  Everything else, the Hilbert basis included, always
    comes from ``gens``.
    """

    def __init__(self, gens, rank, shared=None):
        self.gens = gens
        self.rank = rank
        self.lattice = intlin.Sublattice(gens, rank)
        self.complement = self.lattice.complement
        self._face_lattices = {(): self.lattice}
        self._box = None
        self._hilbert = None
        self._units = None
        if shared is None:
            self.normals = facet_normals(gens, rank, self.complement)
        else:
            self.normals = shared.normals
        # the lineality is the face on which every normal vanishes
        self.lineality = [
            i for i, g in enumerate(gens)
            if not any(_dot(w, g) for w in self.normals)
        ]

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
            lat = self._face_lattices[face] = intlin.Sublattice(on_face, self.rank)
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

    def hilbert_basis(self):
        """Hilbert basis of a pointed cone's saturation, computed once:
        its irreducible elements, which generate it (Bruns-Gubeladze,
        ch. 2).  They lie in the zonotope box, so they are the box points g
        such that no other box point h leaves g - h in cone and lattice.
        g - h lies in the span and the lattice, and in the cone iff no
        facet normal pairs with h more than with g.  Each caller gets its
        own list."""
        if self._hilbert is None:
            cand = self.box_points()
            pairs = {g: [_dot(w, g) for w in self.normals] for g in cand}
            self._hilbert = [
                g for g in cand
                if not any(h != g and all(map(operator.le, pairs[h], pairs[g]))
                           for h in cand)
            ]
        return list(self._hilbert)

    def unit_lattice(self):
        """Basis (columns) of the lineality of the cone intersected with
        the chart lattice, computed once; each caller gets fresh lists.

        A face is spanned by the generators on it; so when every generator
        on the lineality is zero the cone is pointed and the unit lattice
        is zero, with no kernel to compute.
        """
        if self._units is None:
            basis = self.lattice.basis
            k = len(basis)
            normals = self.normals
            if not any(any(self.gens[i]) for i in self.lineality):
                coeff_kernel = []  # pointed
            elif normals:
                rows = [[_dot(w, col) for col in basis] for w in normals]
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
    """Does the cancellative chart equal its saturation?  Exact on a
    pointed chart: it is normal iff its cone's ``hilbert_basis`` lies
    among its generators, since an irreducible element of the saturation
    that lies in the chart is a generator, and the Hilbert basis
    generates the saturation.  A chart with units asks bounded membership
    of each saturation generator."""
    if aff.is_pc_quotient:
        raise ValidationError("normality applies to cancellative charts")
    if unit_lattice_of_chart(aff):
        return all(aff.contains(v) for v in saturation_generators(aff))
    return set(chart_cone(aff).hilbert_basis()) <= set(aff.generators)


def normalize_affine(aff):
    """Saturation of the generator monoid inside its own lattice: on a
    pointed chart, generated by its cone's ``hilbert_basis``.  A chart
    with units has no unique minimal generating set; there the saturation
    generators are dropped greedily, largest first, whenever bounded
    membership writes one in the others, and that order fixes the output.

    The saturation has the chart's cone, so its cone record takes over
    the chart's normals (``ChartCone``'s ``shared``); its lattice and
    span complement come from its own Smith form, and its ``is_normal``
    check filters its own box for its own Hilbert basis.  A chart with a
    monomial ideal raises ``ValidationError``: ``normalize_pc``
    normalizes its components.
    """
    if aff.is_pc_quotient:
        raise ValidationError("normalization applies to cancellative charts")
    if unit_lattice_of_chart(aff):
        keep = _greedy_generators(aff, saturation_generators(aff))
    else:
        keep = chart_cone(aff).hilbert_basis()
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


def dv_check(aff, normal):
    """Is the localization S_F = S + U_F at the facet F of ``normal`` a
    discrete valuation monoid?  U_F is the group of the generators on F,
    the cone's ``face_lattice`` of that facet, and v = <normal, .> /
    scale, the facet's scale from ``chart_valuations``.

    Closed form: S_F is DV iff some generator has v = 1 and every
    generator g has g - v(g) pi in U_F, where the uniformizer pi is the
    least generator with v = 1.  Then every element is a unit plus a
    multiple of pi.  Conversely, the elements of value 0 are U_F, and
    S_F / U_F = N forces a generator of value 1 and g = v(g) pi mod U_F.
    This holds on charts with units too.  The witness is the first
    generator that fails.  A ``normal`` that is not one of the chart's
    facet normals raises ``ValidationError``.
    """
    cone = chart_cone(aff)
    normal = tuple(normal)
    scales = dict(chart_valuations(aff))
    if normal not in scales:
        raise ValidationError(f"{list(normal)} is not a facet normal of {aff.name}")
    units = cone.face_lattice((cone.normals.index(normal),))
    value = {g: _dot(normal, g) // scales[normal] for g in aff.generators}
    ones = [g for g, k in value.items() if k == 1]
    if not ones:
        return DVReport(False, None, None)
    uni = min(ones)
    for g in aff.generators:
        if tuple(a - value[g] * b for a, b in zip(g, uni)) not in units:
            return DVReport(False, uni, g)
    return DVReport(True, uni, None)


class IntersectionReport(Record):
    _fields = ("holds", "witnesses")

    def __init__(self, holds: bool, witnesses: list):
        self.holds = holds
        self.witnesses = witnesses


def intersect_localizations_check(aff):
    """Is the chart the intersection of its localizations, that is, is
    membership in the chart nonnegativity at every facet valuation (the
    hallmark of normal charts)?  The chart lies in its cone, so the
    points of cone and lattice the chart misses are the witnesses.

    Closed form on a pointed chart: the witnesses are the Hilbert-basis
    elements that are not generators, and it holds iff ``is_normal``.
    Each is irreducible in the saturation, so it lies in the chart only
    if it is a generator, and every saturation point outside the chart
    is a sum that uses one of them.  A chart with units keeps the bounded
    window: a witness is a box point that bounded membership misses."""
    cone = chart_cone(aff)
    if cone.unit_lattice():
        witnesses = [v for v in cone.box_points() if not aff.contains(v)]
    else:
        gens = set(aff.generators)
        witnesses = [h for h in cone.hilbert_basis() if h not in gens]
    return IntersectionReport(not witnesses, witnesses)


# ---------------------------------------------------------------------------
# seminormalization


def _face_of_point(vec, normals):
    return tuple(i for i, w in enumerate(normals) if _dot(w, vec) == 0)


def seminormal_membership(aff, vec):
    """Exact: vec belongs to the seminormalization iff it lies in the
    subgroup generated by the chart elements on its own face.  A vector
    of the wrong length is not a member."""
    if len(vec) != aff.rank:
        return False
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
        # charts must share the full lattice as common group completion;
        # each chart's cone record holds its lattice
        for c in self.charts:
            if c.unit_tags is None:
                basis = chart_cone(c).lattice.basis
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
    generators span, where every valuation is an exact integer.  On one
    chart that is the chart lattice its cone record already holds.
    """
    _require_normal_charts(scheme)
    points = [
        p for p in height_one_points(scheme) if p.label not in drop_points
    ]
    if len(scheme.charts) == 1:
        basis = chart_cone(scheme.charts[0]).lattice.basis
    else:
        gens = [g for chart in scheme.charts for g in chart.generators]
        basis = intlin.lattice_basis(gens, scheme.lattice_rank)
    rows = [[p.valuation(b) for p in points] for b in basis]
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
    """(Cart, Pic) invariants from chartwise generic data."""
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

    torsion_units = [[0] * d + [int(s == t) for s in range(u)] for t in range(u)]
    torsion_rows = []
    for i in range(c):
        for t, order in enumerate(torsion):
            torsion_rows.append(block(i, [0] * d + [order if s == t else 0 for s in range(u)]))

    # numerator: tuples whose pairwise differences are overlap units, the
    # preimage of the overlap lattices' direct sum under the stacked
    # difference maps; torsion coordinates are everywhere invertible (mod
    # their order), so each overlap lattice holds them all
    pairs = [(i, j) for i in range(c) for j in range(i + 1, c)]
    diff_rows, target = [], []
    for p, (i, j) in enumerate(pairs):
        for k in range(width):
            row = [0] * dim
            row[i * width + k], row[j * width + k] = 1, -1
            diff_rows.append(row)
        overlap = [list(col) + [0] * u for col in overlap_unit_lattice(scheme, i, j)]
        overlap += torsion_units
        for col in overlap:
            padded = [0] * (width * len(pairs))
            padded[p * width:(p + 1) * width] = col
            target.append(padded)
    if pairs:
        numerator = intlin.preimage_lattice(diff_rows, target)
    else:  # one chart: no conditions, and no rows to read dim from
        numerator = [[int(r == k) for r in range(dim)] for k in range(dim)]

    chart_unit_cols = []
    for i, chart in enumerate(scheme.charts):
        for col in unit_lattice_of_chart(chart):
            chart_unit_cols.append(block(i, list(col) + [0] * u))
        if chart.unit_tags is None:
            for tvec in torsion_units:
                chart_unit_cols.append(block(i, tvec))
        else:
            for tvec in _tagged_torsion_units(chart, torsion):
                chart_unit_cols.append(block(i, [0] * d + list(tvec)))

    diagonal_cols = []
    for k in range(width):
        vec = [0] * dim
        for i in range(c):
            vec[i * width + k] = 1
        diagonal_cols.append(vec)

    cart = quotient_group(dim, numerator, chart_unit_cols + torsion_rows)
    pic = quotient_group(
        dim, numerator, chart_unit_cols + torsion_rows + diagonal_cols
    )
    return cart, pic


def _tagged_torsion_units(chart, torsion):
    """Generators of the torsion units of a unit-tagged chart: the nonzero
    tags of nonnegative combinations with zero lattice part.  These use
    only the generators on the cone's ``lineality``, as every other one
    pairs positively with some facet normal.  Those carry a strictly positive
    integer dependency, so the combinations generate the whole integer
    kernel on them, and the tags of a kernel basis generate the same
    subgroup.  Cart and Pic read only the span of the tags and the
    torsion orders."""
    gens = chart.generators
    lin = chart_cone(chart).lineality
    # a zero row keeps the column count at rank 0
    cols = [[gens[i][r] for i in lin] for r in range(chart.rank)] or [[0] * len(lin)]
    found = set()
    for k in intlin.kernel_basis(cols):
        tag = [0] * len(torsion)
        for c, i in zip(k, lin):
            tag = [a + c * b for a, b in zip(tag, chart.unit_tags[i])]
        found.add(tuple(t % o for t, o in zip(tag, torsion)))
    return sorted(t for t in found if any(t))


def pic(scheme):
    _, p = cartier_and_pic(scheme)
    return p


def cartier_group(scheme):
    c, _ = cartier_and_pic(scheme)
    return c
