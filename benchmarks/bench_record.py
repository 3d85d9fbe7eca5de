#!/usr/bin/env python3
"""Record a before/after benchmark of two checkouts as one JSON file.

    python3 benchmarks/bench_record.py --parent DIR --out benchmarks/BENCH_<n>.json
        [--seeds 1 2 3] [--workloads homology lattice ...]

``DIR`` is a checkout of the parent commit (``git clone`` it anywhere);
the change is the checkout this script lives in.  The script drives the
existing tools and re-implements none of them:

* ``perfbench/run.py --trace 0`` of each checkout for every workload and
  seed, for the ``run_seconds`` of ``BENCHMARK.json``, parent and change
  back to back with the first side alternating, so both see the same
  machine;
* ``perfbench/run.py --trace 1`` of each checkout once per workload (first
  seed) for the per-layer counters; zero counters are left out;
* the Tier-1 suite (``python -m pytest -q``) of each checkout, timed.

Every figure is read off the tools' own output; the record also names the
commits, the source hash ``run.py`` prints, the python version and nproc.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

CHANGE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("homology", "homology-compiled", "lattice", "finite", "cli")


def bench(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    result = json.loads(out[-1])
    record = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()
                    if m["value"] or not trace},
    }
    for line in out:
        if line.startswith("digest "):
            record["digest"] = line.split()[1]
        elif line.startswith("python ") and "src sha256" in line:
            record["src_sha256"] = line.split("src sha256")[1].split()[0]
        elif line.startswith("wall clock:"):
            record["wall_clock"] = line[len("wall clock:"):].strip()
    return record


def tier1(root):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=root, env=env, capture_output=True, text=True, check=False)
    wall = time.monotonic() - start
    return {"wall_s": round(wall, 2), "summary": proc.stdout.strip().splitlines()[-1]}


def commit(root):
    # "-dirty" marks uncommitted changes; src_sha256 of each run names the code
    return subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=root, capture_output=True, text=True).stdout.strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    args = ap.parse_args()
    roots = {"parent": os.path.abspath(args.parent), "change": CHANGE}
    with open(os.path.join(CHANGE, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]

    record = {
        "commits": {side: commit(root) for side, root in roots.items()},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": seconds,
        "workloads": {},
    }
    for wl in args.workloads:
        runs = {side: {} for side in roots}
        for k, seed in enumerate(args.seeds):
            # alternate which side runs first
            for side in sorted(roots, reverse=k % 2 == 1):
                print(f"{wl} seed {seed} {side}", file=sys.stderr, flush=True)
                runs[side][seed] = bench(roots[side], wl, seed, seconds, 0)
        ratios = {}
        for name in runs["change"][args.seeds[0]]["metrics"]:
            parent, change = (
                statistics.median(r["metrics"][name] for r in runs[side].values())
                for side in roots)
            ratios[name] = round(change / parent, 4) if parent else None
        traced = {side: bench(root, wl, args.seeds[0], seconds, 1)
                  for side, root in roots.items()}
        record["workloads"][wl] = {
            "runs": runs,
            "median_change_over_parent": ratios,
            "traced_seed": args.seeds[0],
            "traced": traced,
        }
    record["tier1"] = {side: tier1(root) for side, root in roots.items()}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
