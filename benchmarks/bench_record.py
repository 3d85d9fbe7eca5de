#!/usr/bin/env python3
"""Record a before/after benchmark of two checkouts as one JSON file.

    python3 benchmarks/bench_record.py --parent DIR --out benchmarks/BENCH_<n>.json
        [--seeds 1 2 3] [--workloads homology lattice ...]
        [--holdout-seeds 4] [--claim homology:throughput_cases_per_ref
         --claim-seeds 5 6 7]

``DIR`` is a checkout of the parent commit (``git clone`` it anywhere);
the change is the checkout this script lives in.  The script drives the
existing tools and re-implements none of them:

* ``perfbench/run.py --trace 0`` of each checkout for every workload and
  seed, for the ``run_seconds`` of ``BENCHMARK.json``, parent and change
  back to back with the first side alternating, so both see the same
  machine; ``--holdout-seeds`` add one such pair per workload on seeds
  kept out of the development of the change, recorded apart;
* ``--claim WORKLOAD:METRIC`` runs that workload on ``--claim-seeds`` as
  well and sums up its pairs on the seeds and claim seeds: how many the
  change wins and both sides' quartiles, with the metric's direction
  taken from ``BENCHMARK.json``; the hold-out pairs are listed beside
  that sum;
* ``perfbench/run.py --trace 1`` of each checkout in ``TRACED_PAIRS``
  alternating pairs per workload (first seed) for the per-layer counters,
  with every run and each side's median of each counter, so that a
  20-30% change of one layer's time stands out of one run's drift; a
  counter that reads zero is left out of a run and counts as zero in the
  median;
* the Tier-1 suite (``python -m pytest -q``) of each checkout, timed, at
  one fixed ``--hypothesis-seed`` so that both sides draw the same
  examples, with every test's time from ``--durations=0`` and the
  acceptance criteria listed on their own.  The seed is a measurement
  setting only; the gate is the unseeded suite;
* ``monoidkit corpus corpus/cases`` of each checkout, one fresh process
  per run, in alternating pairs, with each run's wall time and the
  sha256 of its stdout;
* when both homology workloads run, each side's compiled/pure ratio: the
  median ``homology-compiled`` throughput over the median ``homology``
  throughput (ROADMAP's bar for keeping the compiled kernels).

Every figure is read off the tools' own output; the record also names the
commits, the source hash ``run.py`` prints, the python version and nproc.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

CHANGE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("homology", "homology-compiled", "lattice", "finite", "cli")
HYPOTHESIS_SEED = 0  # Tier-1 draws the same examples on both sides
CORPUS_PAIRS = 10  # one run is a fraction of a second, so take several
TRACED_PAIRS = 3  # per-layer times drift between runs, so take the median


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
         "--continue-on-collection-errors", f"--hypothesis-seed={HYPOTHESIS_SEED}",
         "--durations=0", "--durations-min=0"],
        cwd=root, env=env, capture_output=True, text=True, check=False)
    wall = time.monotonic() - start
    tests = {}  # test id -> seconds over its setup, call and teardown
    for line in proc.stdout.splitlines():
        parts = line.split(None, 2)  # a parametrized id may hold spaces
        if (len(parts) == 3 and parts[0].endswith("s")
                and parts[1] in ("setup", "call", "teardown")):
            tests[parts[2]] = tests.get(parts[2], 0.0) + float(parts[0][:-1])
    tests = {name: round(t, 3) for name, t in sorted(tests.items())}
    return {
        "wall_s": round(wall, 2),
        "summary": proc.stdout.strip().splitlines()[-1],
        "hypothesis_seed": HYPOTHESIS_SEED,
        "criteria": {name.split("::")[1]: t for name, t in tests.items()
                     if "::test_criterion_" in name},
        "tests_s": tests,
    }


def corpus(root):
    """Wall time and stdout of one ``monoidkit corpus`` process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "monoidkit.cli", "corpus", os.path.join("corpus", "cases")],
        cwd=root, env=env, capture_output=True, text=True, check=True)
    return time.monotonic() - start, proc.stdout


def corpus_record(roots):
    """``CORPUS_PAIRS`` alternating corpus runs per side, with their median."""
    walls = {side: [] for side in roots}
    hashes = {side: set() for side in roots}
    last = {}
    for k in range(CORPUS_PAIRS):
        for side in sorted(roots, reverse=k % 2 == 0):
            wall, stdout = corpus(roots[side])
            walls[side].append(round(wall, 4))
            hashes[side].add(hashlib.sha256(stdout.encode()).hexdigest())
            last[side] = stdout.strip().splitlines()[-1]
    return {side: {"wall_s": walls[side],
                   "median_s": round(statistics.median(walls[side]), 4),
                   "stdout_sha256": sorted(hashes[side]),
                   "summary": last[side]} for side in roots}


def claim_summary(runs, metric, better):
    """Wins of the change over every recorded pair of one workload."""
    pairs = [(runs["parent"][seed]["metrics"][metric],
              runs["change"][seed]["metrics"][metric]) for seed in runs["parent"]]
    parent, change = ([pair[side] for pair in pairs] for side in (0, 1))
    parent_q = statistics.quantiles(parent, n=4)
    return {
        "metric": metric,
        "better": better,
        "seeds": sorted(runs["parent"]),
        "pairs": len(pairs),
        "wins": sum((c > p) if better == "higher" else (c < p) for p, c in pairs),
        "parent_quartiles": parent_q,
        "change_quartiles": statistics.quantiles(change, n=4),
        "parent_iqr": parent_q[2] - parent_q[0],
    }


def compiled_over_pure(workloads, roots, metric="throughput_cases_per_ref"):
    """Per side, the median ``metric`` of ``homology-compiled`` over that of
    ``homology``: what the compiled kernels buy on the same inputs."""
    out = {}
    for side in roots:
        pure, compiled = (
            statistics.median(r["metrics"][metric]
                              for r in workloads[wl]["runs"][side].values())
            for wl in ("homology", "homology-compiled"))
        out[side] = {"metric": metric, "ratio": round(compiled / pure, 4)}
    return out


def commit(root):
    # "-dirty" marks uncommitted changes; src_sha256 of each run names the code
    return subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=root, capture_output=True, text=True).stdout.strip()


def pair(roots, wl, seed, seconds, parent_first, trace=0):
    """One alternating pair: {side: record}."""
    out = {}
    for side in sorted(roots, reverse=parent_first):
        print(f"{wl} seed {seed} {side} trace {trace}", file=sys.stderr, flush=True)
        out[side] = bench(roots[side], wl, seed, seconds, trace)
    return out


def traced_record(roots, wl, seed, seconds):
    """``TRACED_PAIRS`` alternating traced pairs on one seed: every run, and
    per side the median of each per-layer counter over its runs."""
    runs = {side: [] for side in roots}
    for k in range(TRACED_PAIRS):
        for side, res in pair(roots, wl, seed, seconds, k % 2 == 0, trace=1).items():
            runs[side].append(res)
    median = {}
    for side, recs in runs.items():
        names = sorted(set().union(*(r["metrics"] for r in recs)))
        median[side] = {name: statistics.median(r["metrics"].get(name, 0) for r in recs)
                        for name in names}
    return {"seed": seed, "pairs": TRACED_PAIRS, "runs": runs, "median": median}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--holdout-seeds", type=int, nargs="*", default=[])
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    ap.add_argument("--claim", help="WORKLOAD:METRIC whose gain the record supports")
    ap.add_argument("--claim-seeds", type=int, nargs="*", default=[])
    args = ap.parse_args()
    roots = {"parent": os.path.abspath(args.parent), "change": CHANGE}
    with open(os.path.join(CHANGE, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    claim_wl, claim_metric = args.claim.split(":") if args.claim else (None, None)

    record = {
        "commits": {side: commit(root) for side, root in roots.items()},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": seconds,
        "workloads": {},
    }
    for wl in args.workloads:
        runs = {side: {} for side in roots}
        seeds = args.seeds + (args.claim_seeds if wl == claim_wl else [])
        for k, seed in enumerate(seeds):
            # the parent runs first on even pairs
            for side, res in pair(roots, wl, seed, seconds, k % 2 == 0).items():
                runs[side][seed] = res
        ratios = {}
        for name in runs["change"][args.seeds[0]]["metrics"]:
            parent, change = (
                statistics.median(r["metrics"][name] for r in runs[side].values())
                for side in roots)
            ratios[name] = round(change / parent, 4) if parent else None
        holdout = {seed: pair(roots, wl, seed, seconds, k % 2 == 0)
                   for k, seed in enumerate(args.holdout_seeds)}
        record["workloads"][wl] = {
            "runs": runs,
            "median_change_over_parent": ratios,
            "holdout": holdout,
            "traced": traced_record(roots, wl, args.seeds[0], seconds),
        }
        if wl == claim_wl:
            better = next(m["better"] for m in spec["end_to_end"]
                          if m["name"] == claim_metric)
            summary = claim_summary(runs, claim_metric, better)
            summary["workload"] = wl
            summary["holdout"] = {
                seed: {side: res["metrics"][claim_metric] for side, res in sides.items()}
                for seed, sides in holdout.items()}
            record["claim"] = summary
    if {"homology", "homology-compiled"} <= set(record["workloads"]):
        record["compiled_over_pure"] = compiled_over_pure(record["workloads"], roots)
    record["corpus"] = corpus_record(roots)
    record["tier1"] = {side: tier1(root) for side, root in roots.items()}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
