"""Run-to-run spread of the end-to-end metrics, and the baseline record.

    python3 perfbench/spread.py --workloads homology,cli --seeds 1-10 \
        [--trace-seeds 1] [--out FILE --set NAME]

Runs ``run.py`` once per (workload, seed), in order, with the
``run_seconds`` of BENCHMARK.json, and prints for every end-to-end metric
the median, the quartiles and the spread (quartile distance over median)
next to the metric's bound.  ``--trace-seeds`` adds traced runs; their
per-layer medians and tracing overhead go into ``--out`` with the rest,
under the key ``--set``.  Other sets already in ``--out`` are kept, and
each median is compared with theirs: "worse" is the share by which it is
worse than the other set's median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from run import commit_id

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    if not text:
        return []
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect\n{proc.stdout[-3000:]}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--trace-seeds", default="")
    ap.add_argument("--out")
    ap.add_argument("--set", default="set1")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    record = {}
    if args.out and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            record = json.load(fh)
    record["meta"] = {
        "commit": commit_id(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "run_seconds": spec["run_seconds"], "bounds": bounds,
        "spread": "(q3 - q1) / median of the runs, quartiles as statistics.quantiles(n=4)",
    }
    others = {k: v for k, v in record.items() if k not in ("meta", args.set)}
    this = record[args.set] = {"seeds": args.seeds, "trace_seeds": args.trace_seeds,
                               "workloads": {}}
    for wl in args.workloads.split(","):
        runs = [run_once(wl, s, spec["run_seconds"], 0) for s in seeds_of(args.seeds)]
        entry = {name: summarize([r[name] for r in runs]) for name in bounds}
        for name, st in entry.items():
            flag = "" if st["spread"] < bounds[name] / 3 else "  <- above a third of the bound"
            print(f"{wl:18} {name:24} median {st['median']:12.5g}  q1 {st['q1']:12.5g}  "
                  f"q3 {st['q3']:12.5g}  spread {st['spread']:.4f} (bound {bounds[name]}){flag}",
                  flush=True)
            for other, rec in others.items():
                prev = rec["workloads"].get(wl, {}).get(name)
                if prev:
                    sign = 1 if better[name] == "lower" else -1
                    worse = sign * (st["median"] - prev["median"]) / prev["median"]
                    print(f"{'':18} {'':24} worse than {other} by {worse:+.4f}", flush=True)
        traced = [run_once(wl, s, spec["run_seconds"], 1) for s in seeds_of(args.trace_seeds)]
        if traced:
            entry["per_layer_median"] = {
                k: statistics.median(t[k] for t in traced) for k in traced[0]
            }
            print(f"{wl:18} trace.overhead_ratio "
                  f"{entry['per_layer_median']['trace.overhead_ratio']:.4f}", flush=True)
        this["workloads"][wl] = entry
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
