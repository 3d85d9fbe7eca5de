#!/usr/bin/env python3
"""Benchmark the compiled kernels against their pure-Python twins.

Three workloads mirror the package's hot loops:

* batches of Smith reductions on small synthetic 0/+-1 matrices;
* the differentials of criterion 8's chain complexes: the sparse rows of
  ``tor_complex`` and ``tor_complex_direct`` for every action table of
  carriers 2-5 and k = 1-3, through the pure sparse pass
  (``snf_diagonal_rows``, what the package runs on either backend) and
  through the compiled ``snf_diagonal`` on the rows densified first, the
  densifying timed with it;
* congruence closures over generator action tables of the kind quotients
  and tensor products produce.

Each compiled result is compared in full with the pure one (every
diagonal, every closure partition); a mismatch raises.  The fallbacks
column counts compiled SNF calls that raised ``OverflowError`` and were
retried with the bignum twin.

Run:  python3 benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import itertools
import random
import time

from monoidkit import asets, torreal
from monoidkit._kernels import closure_py, dense_rows, snf_py

try:
    from monoidkit._kernels import _closure_cy, _snf_cy

    HAVE_COMPILED = True
except ImportError:
    HAVE_COMPILED = False


def snf_workload(rng, count=400):
    mats = []
    for _ in range(count):
        rows = rng.randint(6, 24)
        cols = rng.randint(6, 30)
        mats.append(
            [
                [rng.choice((0, 0, 0, 1, -1)) for _ in range(cols)]
                for _ in range(rows)
            ]
        )
    return mats


def chain_rows_workload():
    """(rows, columns) of every differential of criterion 8's complexes
    on carriers 2-5, built both ways, for k = 1, 2, 3."""
    jobs = []
    for c in range(2, 6):
        for tail in itertools.product(range(c), repeat=c - 1):
            x = asets.aset_from_theta([0, *tail])
            for k in (1, 2, 3):
                for chain in (torreal.tor_complex(x, k, trunc=4)[0],
                              torreal.tor_complex_direct(x, k, trunc=4)):
                    jobs += zip(chain.rows, chain.ranks[1:])
    return jobs


def closure_workload(rng, count=300):
    jobs = []
    for _ in range(count):
        n = rng.randint(20, 200)
        gens = [[rng.randrange(n) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, n // 2))]
        jobs.append((n, gens, pairs))
    return jobs


def time_snf(impl, mats, prepare=None):
    """Time ``snf_diagonal`` on every matrix, made by ``prepare`` from each
    input (inside the timing) if given.

    Returns (seconds, diagonals, fallbacks): an ``OverflowError`` from the
    compiled kernel is retried with the pure twin and counted.
    """
    t0 = time.perf_counter()
    out = []
    fallbacks = 0
    for m in mats:
        if prepare is not None:
            m = prepare(m)
        try:
            out.append(impl.snf_diagonal(m))
        except OverflowError:
            fallbacks += 1
            out.append(snf_py.snf_diagonal(m))
    return time.perf_counter() - t0, out, fallbacks


def time_rows(impl, jobs):
    """Time the factors of every (rows, columns) job: the pure twin reads
    the sparse rows, the compiled one gets them densified."""
    if impl is not snf_py:
        return time_snf(impl, jobs, lambda job: dense_rows(*job))
    t0 = time.perf_counter()
    out = [impl.snf_diagonal_rows(rows) for rows, _ in jobs]
    return time.perf_counter() - t0, out, 0


def _partition(reps):
    """A closure result as block labels numbered by first occurrence."""
    first = {}
    return [first.setdefault(r, len(first)) for r in reps]


def time_closure(impl, jobs):
    """Time ``closure`` on every job; returns (seconds, partitions, 0)."""
    t0 = time.perf_counter()
    out = [impl.closure(n, gens, pairs) for n, gens, pairs in jobs]
    elapsed = time.perf_counter() - t0
    return elapsed, [_partition(reps) for reps in out], 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    mats = snf_workload(rng)
    jobs = closure_workload(rng)

    rows = []
    for label, impl, fast, timer, data in (
        ("smith reduction", snf_py, _snf_cy if HAVE_COMPILED else None,
         time_snf, mats),
        ("smith, chain rows", snf_py, _snf_cy if HAVE_COMPILED else None,
         time_rows, chain_rows_workload()),
        ("congruence closure", closure_py, _closure_cy if HAVE_COMPILED else None,
         time_closure, jobs),
    ):
        pure = min(timer(impl, data)[0] for _ in range(args.repeat))
        if fast is None:
            rows.append((label, pure, None, None, None))
            continue
        runs = [timer(fast, data) for _ in range(args.repeat)]
        t_fast = min(run[0] for run in runs)
        _, got, fallbacks = runs[0]
        _, want, _ = timer(impl, data)
        bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
        if bad:
            raise RuntimeError(
                f"{label}: backends disagree on {len(bad)} of {len(data)} "
                f"inputs, first at index {bad[0]}"
            )
        rows.append((label, pure, t_fast, pure / t_fast, fallbacks))

    print(f"{'workload':22} {'pure (s)':>10} {'compiled (s)':>13} {'speedup':>9}"
          f" {'fallbacks':>10}")
    for label, pure, fast, ratio, fallbacks in rows:
        if fast is None:
            print(f"{label:22} {pure:10.3f} {'-':>13} {'-':>9} {'-':>10}")
        else:
            print(f"{label:22} {pure:10.3f} {fast:13.3f} {ratio:8.1f}x"
                  f" {fallbacks:10d}")
    if not HAVE_COMPILED:
        print("compiled kernels not built; showing pure timings only")


if __name__ == "__main__":
    main()
