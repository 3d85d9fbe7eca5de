#!/usr/bin/env python3
"""Scaling sweep of the chart geometry: box scans against the cached cone.

A rank-2 and a rank-3 chart are scaled by k = 1..N.  Scaling grows the
zonotope box like k^rank, while the saturation keeps its shape, so the
sweep shows what each box point costs.  For every scaled chart it prints
the number of box points, the wall time of ``seminormalize_cancellative``
plus ``normalize_affine`` on a fresh chart, how many ``facet_normals``
calls and Smith forms (``intlin.snf``) those two made, and how many level
sets they filled: the packed sets ``AffineMonoid._packed_level_set``
builds and caches, one per chart and bound, which every ``contains``
looks up.  Only the seminormalization's verification window fills one,
and only when some box point is not a member (for the cusp every one
is, and a generator needs no level set): on these pointed charts ``is_normal`` compares the Hilbert basis with the
generators and asks no membership.  The normalization takes over the
chart's normals, so they are computed once.  Each lattice is one Smith form, which also gives
the span's orthogonal complement: the chart's, the normalization's and
one per proper face the seminormal membership asks about (the whole
cone's face is the chart lattice).  A unit lattice costs a kernel only
on a cone with units.

Every span, cone, lattice and seminormal membership answer at every box
point is then recomputed the direct way: a rank comparison, freshly
computed facet normals, and a fresh ``intlin.Sublattice`` per lattice.
The normalization's generators are compared with a greedy reference that
drops each candidate a trial chart on the others can write.  A mismatch
raises ``RuntimeError``.

A second table follows one ``lattice`` workload case per base chart of
``perfbench/generators.py`` (at scale 1, in its own coordinates), with
seminormal membership asked at every box point.  It counts the Smith
forms with transforms (``intlin.snf``) of each step: ``is_normal`` plus
``normalize_affine``, ``seminormalize_cancellative`` plus the
memberships, and ``class_group`` of the normalization's affine scheme.
Normality, the normalization and the class group must equal the base
chart's known answers; any other answer raises ``RuntimeError``.

A third table times ``cartier_and_pic`` on freshly built P^1-P^4 and
glued lines 2-5 (best of R) and counts its Smith forms with transforms
(``intlin.snf``) and its invariant-factor calls.  Cart and Pic must equal
their closed forms, Z^(n+1) and Z for P^n, Z^k and Z^(k-1) for k glued
lines; any other answer raises ``RuntimeError``.

Run:  python3 benchmarks/bench_geometry.py [--max-scale N] [--repeat R]
"""

import argparse
import contextlib
import os
import sys
import time

from monoidkit import geometry as gm
from monoidkit import intlin
from monoidkit.abgroup import AbelianGroup
from monoidkit.monoids import AffineMonoid

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
from generators import BASE_CHARTS, ChartCase, box_points  # noqa: E402

CHARTS = (
    ("xy2", [(1, 0), (0, 2), (1, 1)]),
    ("cusp x N^2", [(2, 0, 0), (3, 0, 0), (0, 1, 0), (0, 0, 1)]),
)

# (label, builder, rank of Cart, rank of Pic); both groups are free
SCHEMES = tuple(
    (f"P^{n}", lambda n=n: gm.projective_space(n), n + 1, 1) for n in range(1, 5)
) + tuple(
    (f"lines{k}", lambda k=k: gm.glued_lines(k), k, k - 1) for k in range(2, 6)
)


def _dot(w, v):
    return sum(a * b for a, b in zip(w, v))


@contextlib.contextmanager
def counting(*targets):
    """Count calls of each (module, function name) while inside."""
    counts = {name: 0 for _, name in targets}
    saved = [(mod, name, getattr(mod, name)) for mod, name in targets]
    for mod, name, fn in saved:
        def wrapped(*args, _fn=fn, _name=name):
            counts[_name] += 1
            return _fn(*args)

        setattr(mod, name, wrapped)
    try:
        yield counts
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


@contextlib.contextmanager
def counting_level_sets():
    """Count the packed level sets ``AffineMonoid._packed_level_set`` fills."""
    filled = [0]
    original = AffineMonoid._packed_level_set

    def wrapped(self, bound):
        before = len(self._level_sets)
        out = original(self, bound)
        filled[0] += len(self._level_sets) - before
        return out

    AffineMonoid._packed_level_set = wrapped
    try:
        yield filled
    finally:
        AffineMonoid._packed_level_set = original


def greedy_generators(aff):
    """Drop the saturation's candidates greedily, largest first, whenever a
    trial chart on the others writes them within the chart's bound."""
    cand = gm.saturation_generators(aff)
    keep = list(cand)
    for g in sorted(cand, key=lambda v: (-sum(abs(x) for x in v), v)):
        rest = [h for h in keep if h != g]
        if rest and AffineMonoid(
            "trial", aff.rank, rest, degree_bound=aff.degree_bound
        ).contains(g):
            keep = rest
    return sorted(keep)


def box(aff):
    lo, hi = gm._zonotope_box(aff.generators, aff.rank)
    return list(gm._box_points(lo, hi))


def check_memberships(aff):
    """Compare the cached cone's answers with the direct ones at every box
    point; raise ``RuntimeError`` on the first difference."""
    gens, rank = [list(g) for g in aff.generators], aff.rank
    cone = gm.chart_cone(aff)
    normals = gm.facet_normals(gens, rank)
    span_rank = intlin.rank(gens)
    lattice = intlin.Sublattice(gens, rank)
    for v in box(aff):
        in_span = intlin.rank(gens + [list(v)]) == span_rank
        in_cone = in_span and all(_dot(w, v) >= 0 for w in normals)
        in_lattice = v in lattice
        seminormal = False
        if in_cone and in_lattice:
            on_face = [
                g for g in gens
                if all(_dot(w, g) == 0 for w in normals if _dot(w, v) == 0)
            ]
            seminormal = v in intlin.Sublattice(on_face, rank)
        for what, want, got in (
            ("span", in_span, cone.in_span(v)),
            ("cone", in_cone, cone.in_cone(v)),
            ("lattice", in_lattice, v in cone.lattice),
            ("seminormal", seminormal, gm.seminormal_membership(aff, v)),
        ):
            if want != got:
                raise RuntimeError(
                    f"{aff.name}: {what} membership of {v} is {got} from the "
                    f"cached cone, {want} directly"
                )


def workload_chart_table():
    """Count the Smith forms of each base chart's ``lattice`` case, step by
    step; raise ``RuntimeError`` on an answer other than the known one."""
    print(f"\n{'base chart':10} {'normalize':>10} {'seminormal':>11}"
          f" {'class group':>12} {'total':>6}")
    totals = [0, 0, 0]
    for base in BASE_CHARTS:
        rank = len(base.gens[0])
        case = ChartCase(base, 1, [[int(i == j) for j in range(rank)] for i in range(rank)])
        aff = AffineMonoid(base.name, rank, case.gens, degree_bound=case.degree_bound())
        with counting((intlin, "snf")) as counts:
            normal = gm.is_normal(aff)
            nor = gm.normalize_affine(aff)
            steps = [counts["snf"]]
            gm.seminormalize_cancellative(aff)
            for v in box_points(case.gens, rank):
                gm.seminormal_membership(aff, v)
            steps.append(counts["snf"] - sum(steps))
            cl = gm.class_group(gm.affine_scheme(nor)).invariants()
            steps.append(counts["snf"] - sum(steps))
        want = (base.normal, case.hilbert, AbelianGroup(*base.class_group))
        if (normal, sorted(nor.generators), cl) != want:
            raise RuntimeError(
                f"{base.name}: normal {normal}, normalization {nor.generators}, "
                f"Cl {cl}; want {want}"
            )
        totals = [a + b for a, b in zip(totals, steps)]
        print(f"{base.name:10} {steps[0]:10d} {steps[1]:11d} {steps[2]:12d} {sum(steps):6d}")
    print(f"{'all':10} {totals[0]:10d} {totals[1]:11d} {totals[2]:12d} {sum(totals):6d}")


def cart_pic_table(repeat):
    """Time Cart and Pic of each scheme and check them against the closed
    forms; raise ``RuntimeError`` on a difference."""
    print(f"\n{'scheme':12} {'Cart':>6} {'Pic':>6} {'time (ms)':>10}"
          f" {'Smith forms':>12} {'diagonals':>10}")
    for label, build, cart_rank, pic_rank in SCHEMES:
        best = None
        for _ in range(repeat):
            x = build()
            with counting((intlin, "snf"), (intlin, "invariant_factors")) as counts:
                t0 = time.perf_counter()
                cart, pic = gm.cartier_and_pic(x)
                elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        want = (AbelianGroup(cart_rank), AbelianGroup(pic_rank))
        if (cart, pic) != want:
            raise RuntimeError(
                f"{label}: Cart = {cart}, Pic = {pic}; want {want[0]}, {want[1]}"
            )
        print(f"{label:12} {str(cart):>6} {str(pic):>6} {1000 * best:10.2f}"
              f" {counts['snf']:12d} {counts['invariant_factors']:10d}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-scale", type=int, default=4)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    print(f"{'chart':12} {'scale':>5} {'box pts':>8} {'time (ms)':>10}"
          f" {'facet_normals':>14} {'Smith forms':>12} {'level sets':>11}")
    for label, base in CHARTS:
        rank = len(base[0])
        for k in range(1, args.max_scale + 1):
            gens = [tuple(k * x for x in g) for g in base]
            best = None
            for _ in range(args.repeat):
                aff = AffineMonoid(f"{label}*{k}", rank, gens)
                with counting((gm, "facet_normals"), (intlin, "snf")) as counts, \
                        counting_level_sets() as filled:
                    t0 = time.perf_counter()
                    gm.seminormalize_cancellative(aff)
                    nor = gm.normalize_affine(aff)
                    elapsed = time.perf_counter() - t0
                best = elapsed if best is None else min(best, elapsed)
            check_memberships(aff)
            want = greedy_generators(aff)
            if nor.generators != want:
                raise RuntimeError(
                    f"{aff.name}: normalization {nor.generators}, greedy {want}"
                )
            print(f"{label:12} {k:5d} {len(box(aff)):8d} {1000 * best:10.2f}"
                  f" {counts['facet_normals']:14d} {counts['snf']:12d} {filled[0]:11d}")
    workload_chart_table()
    cart_pic_table(args.repeat)


if __name__ == "__main__":
    main()
