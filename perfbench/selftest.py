"""Self-test of the benchmark: generators, known answers, checks under -O.

    python3 perfbench/selftest.py        (from the root of a checkout)

1. The known-answer generators: unimodular pairs invert, torsion complexes
   are complexes with the promised homology and (large flavour) entries
   past 2^31, chart images have the promised lattice index, the
   closed-form answers agree with the library where it is right and the
   floored class group is the library's answer where it is wrong, and
   ``theta_reps.json`` holds criterion 8's class representatives.
2. A short run of every workload, untraced and traced, in an interpreter
   started with ``-O`` (library asserts gone): no case may fail, and the
   traced digest must equal the untraced one, and tracing must not make
   the cases faster.  Pure and compiled homology must give the same digest.

Exits 1 if any check failed.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import build  # noqa: E402
import generators as gen  # noqa: E402
from run import hermetic_env  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FAILED = []


def check(what, cond):
    if not cond:
        FAILED.append(what)
        print(f"FAIL {what}")


def test_unimodular_pairs():
    for seed in range(50):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        p, q = gen.unimodular_pair(rng, n, 3 * n)
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        check(f"P P^-1 = I (seed {seed})", gen.matmul(p, q) == ident)


def test_torsion_complexes():
    from monoidkit import torreal as tr

    big_seen = 0
    for seed in range(150):
        rng = random.Random(seed)
        cx = gen.torsion_complex(rng, large=seed % 2 == 1)
        for n in (1, 2):
            prod = gen.matmul(cx.diffs[n - 1], cx.diffs[n])
            check(f"d_{n} d_{n + 1} = 0 (seed {seed})", not any(any(r) for r in prod))
        check(f"torsion present (seed {seed})",
              any(cx.homology[n][1] for n in (1, 2)))
        if cx.large:
            big_seen += any(abs(v) >= 1 << 31 for d in cx.diffs for r in d for v in r)
        chain = tr.IntegerChainComplex(list(cx.ranks), cx.diffs)
        for n in (1, 2, 3):
            h = tr.smith_homology(chain, n)
            check(f"H_{n} known answer (seed {seed})",
                  (h.betti, tuple(h.torsion)) == cx.homology[n])
    check("large flavour trips the 2^31 guard", big_seen == 75)


def test_charts():
    from monoidkit import geometry as gm
    from monoidkit import intlin
    from monoidkit.abgroup import AbelianGroup
    from monoidkit.monoids import AffineMonoid

    for base in gen.BASE_CHARTS:
        rank = len(base.gens[0])
        for u in gen.TRANSFORMS[rank]:
            for scale in (1, 2):
                case = gen.ChartCase(base, scale, u)
                label = f"{base.name} U={u} s={scale}"
                ident = [[int(i == j) for j in range(rank)] for i in range(rank)]
                check(f"U U^-1 = I ({label})", gen.matmul(u, case.inverse) == ident)
                diag = intlin.invariant_factors([list(col) for col in zip(*case.gens)])
                index = 1
                for d in diag:
                    index *= d
                check(f"lattice index ({label})",
                      len(diag) == rank and index == scale ** rank)
                check(f"generators in chart ({label})",
                      all(case.in_chart(g) for g in case.gens))
                check(f"Hilbert basis in saturation ({label})",
                      all(case.in_saturation(h) for h in case.hilbert))
        # the library is right on the full-lattice base charts
        aff = AffineMonoid(base.name, rank, list(base.gens),
                           degree_bound=gen.ChartCase(base, 1, gen.TRANSFORMS[rank][0]).degree_bound())
        check(f"is_normal({base.name})", gm.is_normal(aff) == base.normal)
        nor = gm.normalize_affine(aff)
        check(f"normalization({base.name})", sorted(nor.generators) == sorted(base.hilbert))
        cl = gm.class_group(gm.affine_scheme(nor)).invariants()
        check(f"Cl({base.name})", cl == AbelianGroup(*base.class_group))
    # on sublattice charts the library gives either the true Cl or exactly
    # the floored answer (Cl(N^2) = 0 read as Z^2, Cl(A1) = Z/2 read as Z)
    for case in gen.chart_cases():
        label = f"{case.base.name} U={case.transform} s={case.scale}"
        floored = AbelianGroup(*case.floored_class_group())
        if case.scale == 1:
            check(f"floored Cl is exact at scale 1 ({label})",
                  floored == AbelianGroup(*case.base.class_group))
        aff = AffineMonoid("s", case.rank, case.gens, degree_bound=case.degree_bound())
        got = gm.class_group(gm.affine_scheme(gm.normalize_affine(aff))).invariants()
        check(f"Cl is true or floored ({label})",
              got in (AbelianGroup(*case.base.class_group), floored))
    for gens, floored in (([(2, 0), (0, 2)], AbelianGroup(2)),
                          ([(2, 0), (2, 2), (2, 4)], AbelianGroup(1))):
        case = [c for c in gen.chart_cases() if c.scale == 2 and c.gens == gens][0]
        check(f"floored Cl of {gens}", AbelianGroup(*case.floored_class_group()) == floored)


def test_theta_reps():
    import itertools

    from monoidkit import asets as ak

    with open(gen.THETA_REPS, encoding="utf-8") as fh:
        stored = json.load(fh)
    for c in (6, 7):
        reps = {}
        for tail in itertools.product(range(c), repeat=c - 1):
            reps.setdefault(ak.canonical_theta_key((0, *tail)), [0, *tail])
        check(f"carrier {c} representatives", stored[str(c)] == list(reps.values())
              == gen.based_map_reps(c))
    check("criterion 8 case count", len(gen.criterion8_cases()) == 3 * (2 + 9 + 64 + 625 + 121 + 338))


def run_workload(name, trace, digest_cases):
    """Run one short workload in a fresh ``python -O`` interpreter."""
    cls = WORKLOADS[name]
    src = build.compiled_src(ROOT) if cls.backend == "compiled" else os.path.join(ROOT, "src")
    code = (
        "import sys, workloads, workload\n"
        f"workloads.WORKLOADS[{name!r}].digest_cases = {digest_cases}\n"
        "sys.exit(workload.main(sys.argv[1:]))\n"
    )
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [sys.executable, "-O", "-c", code, "--workload", name, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--t0", repr(time.monotonic()),
           "--root", ROOT, "--trace-dir", trace_dir]
    env = hermetic_env(src + os.pathsep + HERE, pure=cls.backend == "pure")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=False)
    if proc.returncode != 0:
        print(proc.stderr[-2000:])
        check(f"{name} trace={trace} exits 0", False)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_under_O():
    digests = {}
    for name, cases in (("homology", 40), ("homology-compiled", 40), ("finite", 40),
                        ("lattice", 40), ("cli", 16)):
        for trace in (0, 1):
            res = run_workload(name, trace, cases)
            if res is None:
                continue
            print(f"{name} trace={trace}: {res['attempted']} cases, {res['failed']} failed, "
                  f"{res['known_defects']} known-defect, backend {res['backend']}")
            check(f"{name} trace={trace}: no failed case {res['failures']}", res["failed"] == 0)
            check(f"{name}: backend", res["backend"] == WORKLOADS[name].backend)
            if trace:
                check(f"{name}: traced digest equals untraced digest",
                      res["traced_digest"] == res["digest"])
                check(f"{name}: per-layer metrics present", len(res["per_layer"]) > 50)
                ratio = res["per_layer"]["trace.overhead_ratio"]
                print(f"{name}: trace.overhead_ratio {ratio:.4f}")
                check(f"{name}: tracing is not faster than no tracing ({ratio:.4f})", ratio >= 1)
                fallbacks = res["per_layer"]["kernels.snf_fallbacks"]
                if name == "homology-compiled":
                    check("compiled torsion cases fall back to the bignum kernel", fallbacks > 0)
                else:
                    check(f"{name}: no fallbacks on the pure backend", fallbacks == 0)
            digests[name, trace] = res["digest"]
    check("pure and compiled homology digests agree",
          digests.get(("homology", 0)) == digests.get(("homology-compiled", 0)))


def main():
    for test in (test_unimodular_pairs, test_torsion_complexes, test_charts,
                 test_theta_reps, test_workloads_under_O):
        start = time.perf_counter()
        test()
        print(f"{test.__name__}: {time.perf_counter() - start:.1f}s")
    print(f"{len(FAILED)} failed checks")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
