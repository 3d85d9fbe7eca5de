#!/usr/bin/env python3
"""monoidkit benchmark: one verified workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: homology, homology-compiled,
finite, lattice, cli (see ``workloads.py``).  Each runs in a fresh
interpreter with a hermetic environment (MONOIDKIT_PURE set, no
MONOIDKIT_BOUND, PYTHONHASHSEED=0, PYTHONPATH = the package under test)
as a closed loop with one caller.  ``homology-compiled`` first builds the
committed C kernels with gcc into ``.bench_build`` (outside every metric).

``--trace 0`` reports the end-to-end metrics.  A shared host (the bounds
were set on a 2-vCPU VM) changes speed by 20-50% within minutes, so case
times are divided by the running median time of a fixed reference work
timed between cases (unit "ref", see ``Workload.reference``) and setup_s
is scaled to a machine where one ref takes 1 ms; the wall-clock figures (throughput,
p50/p90/p99 with the count beyond p99, set-up seconds) and fail_ratio are
printed above the JSON.  A lattice case whose only error is the exact
wrong class group the library is known to give on sublattice charts (see
``ChartCase.floored_class_group``) counts in the printed fail_ratio but
not in "failed"; any other wrong answer fails the case.  ``--trace 1`` reports the per-layer metrics and
the tracing overhead, and writes spans to ``.bench_build/traces``.  Every
case is checked; the last stdout line is one JSON object {"correct",
"attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 6  # extra set-up-only processes; setup_s is the median
TIMEOUT_S = 170

import build  # noqa: E402
from tracing import per_layer_names  # noqa: E402
from workload import REF_NOMINAL_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# gated metrics; the time ones are in units of the reference work (see
# Workload.reference in workloads.py); wall-clock figures are printed beside them
END_TO_END = (
    ("throughput_cases_per_ref", "1/ref", "throughput_ref"),
    ("case_p50_ref", "ref", "p50_ref"),
    ("case_p90_ref", "ref", "p90_ref"),
    ("setup_s", "s", "setup_s"),
    ("peak_rss_mb", "MB", "peak_rss_mb"),
)


def hermetic_env(src_path, pure):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("MONOIDKIT_", "PYTHON"))}
    env.update(MONOIDKIT_PURE="1" if pure else "0", PYTHONHASHSEED="0",
               PYTHONPATH=src_path)
    return env


def spawn(args, env, trace_dir, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--trace-dir", trace_dir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=TIMEOUT_S,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"workload process failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def commit_id():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    pkg = os.path.join(ROOT, "src", "monoidkit")
    for need in (os.path.join(pkg, "__init__.py"), os.path.join(ROOT, "corpus", "cases")):
        if not os.path.exists(need):
            sys.exit(f"perfbench: {need} is missing; run from a monoidkit checkout")

    want_backend = WORKLOADS[args.workload].backend
    c_sha = None
    src_path = os.path.join(ROOT, "src")
    if want_backend == "compiled":
        try:
            src_path = build.compiled_src(ROOT)
        except (OSError, RuntimeError) as exc:
            sys.exit(f"perfbench: cannot build the compiled kernels: {exc}")
        c_sha = build.c_sources_sha256(pkg)
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    env = hermetic_env(src_path, pure=want_backend == "pure")

    # the first set-up only warms bytecode caches and is discarded
    setups = [spawn(args, env, trace_dir, setup_only=True)
              for _ in range(1 + SETUP_PROBES)][1:]
    res = spawn(args, env, trace_dir)
    setups.append(res)
    res["setup_s"] = statistics.median(s["setup_s"] for s in setups)

    problems = list(res["failures"])
    if res["backend"] != want_backend:
        problems.append(f"backend {res['backend']} ran, {want_backend} expected")
    if args.trace and res["traced_digest"] != res["digest"]:
        problems.append("traced digest differs from the untraced digest")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"backend {res['backend']} (expected {want_backend})")
    print(f"python {res['python']}  nproc {res['nproc']}  commit {commit_id()}  "
          f"src sha256 {build.tree_sha256(pkg)[:16]}")
    if c_sha:
        print("C sources sha256 " + "  ".join(f"{k} {v[:16]}" for k, v in c_sha.items()))
    print(f"digest {res['digest']} over the first {res['digest_cases']} cases")
    if args.trace:
        print(f"traced digest {res['traced_digest']}")
        names = per_layer_names()
        metrics = {n: {"value": res["per_layer"][n], "unit": u} for n, u in names}
    else:
        metrics = {n: {"value": res[k], "unit": u} for n, u, k in END_TO_END}
        print(f"wall clock: throughput_cases_per_s {res['throughput']:.4f} 1/s  "
              f"case_p50_ms {res['p50_ms']:.4f}  case_p90_ms {res['p90_ms']:.4f}  "
              f"case_p99_ms {res['p99_ms']:.4f} ms  "
              f"({res['attempted']} cases, {res['beyond_p99']} beyond p99)")
        print(f"reference work: median {res['ref_ms']:.4f} ms (1 ref)")
    print(f"setup_s is the median of {len(setups)} set-ups, scaled to a machine where "
          f"one ref takes {REF_NOMINAL_S * 1e3:g} ms; wall clock: "
          + " ".join(f"{s['setup_wall_s']:.4f}" for s in setups) + " s")
    for name, m in metrics.items():
        print(f"{name:42} {m['value']:>14.6g} {m['unit']}")
    print("input mix: " + ", ".join(f"{k} {v:.1%}" for k, v in res["mix"].items())
          + f"; repeated inputs {res['repeated']:.1%}")
    wrong = res["failed"] + res["known_defects"]
    print(f"fail_ratio {wrong / res['attempted']:.6f} ({wrong} failed / {res['attempted']} "
          f"attempted; {res['known_defects']} of them the known defect below, "
          f"{res['failed']} unexpected)")
    if res["known_defects"]:
        print("known defect: geometry.class_group gives the floored standard-basis "
              "answer on charts whose generators span a proper sublattice; e.g. "
              + "; ".join(res["defect_samples"][:2]))
    for p in problems:
        print(f"FAIL {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
