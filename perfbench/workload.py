"""One workload process: set up, run cases back to back, verify, report.

Started by ``run.py`` in a fresh interpreter with a hermetic environment;
prints one JSON object as its last stdout line.  Untraced, it runs cases
until ``--seconds`` have passed (and at least the digest cases are done)
and reports per-case latency in seconds and in units of the workload's
reference work, timed between the cases.  Traced, it runs each digest case
untraced and under the tracer back to back, in alternating order, so the
two digests can be compared and the tracing overhead is read off the same
inputs at the same machine speed.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

from tracing import Tracer, merge, per_layer_metrics
from workloads import WORKLOADS

REF_EVERY_S = 0.02  # time the reference work at most this often
REF_WINDOW = 7  # reference timings in the running median
REF_NOMINAL_S = 0.001  # setup_s is in seconds of a machine where one ref takes this


def time_reference(wl):
    start = time.perf_counter()
    wl.reference()
    return time.perf_counter() - start


def _canonical(result):
    return json.dumps(result, sort_keys=True, separators=(",", ":")).encode()


class Runner:
    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.times = []
        self.attempted = 0
        self.failures = []
        self.defects = []
        self.digest = hashlib.sha256()
        self.mix = collections.Counter()
        self.keys = set()
        self.repeated = 0

    def case(self, i, traced=False):
        inp = self.wl.make(i)
        label, key = self.wl.describe(inp)
        self.mix[label] += 1
        self.repeated += key in self.keys
        self.keys.add(key)
        start = time.perf_counter()
        try:
            if traced:
                result, failure, defect = self.tracer.run_case(i, self.wl.run, inp, True)
            else:
                result, failure, defect = self.wl.run(inp)
        except Exception as exc:  # a raising case is a failed case
            result, failure, defect = None, f"{type(exc).__name__}: {exc}", None
        elapsed = time.perf_counter() - start
        self.attempted += 1
        self.times.append(elapsed)
        if failure is not None:
            self.failures.append(f"case {i}: {failure}")
        if defect is not None:
            self.defects.append(f"case {i}: {defect}")
        if i < self.wl.digest_cases:
            self.digest.update(_canonical([i, result, failure]))
        return elapsed


def _percentile(sorted_values, q):
    """Nearest-rank percentile."""
    k = max(0, min(len(sorted_values) - 1, -(-len(sorted_values) * q // 100) - 1))
    return sorted_values[int(k)]


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--root", required=True)
    ap.add_argument("--trace-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from monoidkit import _kernels

    wl = WORKLOADS[args.workload](args.seed, args.root)
    wl.trace_dir = args.trace_dir
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    wl.setup()
    if tracer:
        tracer.uninstall()
    setup_s = time.monotonic() - args.t0
    ref = statistics.median(time_reference(wl) for _ in range(REF_WINDOW))
    out = {"setup_s": setup_s * REF_NOMINAL_S / ref, "setup_wall_s": setup_s,
           "backend": _kernels.BACKEND}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    runner = Runner(wl, tracer)
    if not tracer:
        refs = collections.deque(maxlen=REF_WINDOW)
        ref_total, last_ref, norm = 0.0, float("-inf"), []
        start = time.perf_counter()
        deadline = start + args.seconds
        i = 0
        while i < wl.digest_cases or time.perf_counter() < deadline:
            if time.perf_counter() - last_ref >= REF_EVERY_S:
                refs.append(time_reference(wl))
                ref_total += refs[-1]
                last_ref = time.perf_counter()
            norm.append(runner.case(i) / statistics.median(refs))
            i += 1
        wall = time.perf_counter() - start - ref_total
        times = sorted(runner.times)
        norm.sort()
        out.update(
            throughput=runner.attempted / wall,
            p50_ms=statistics.median(times) * 1e3,
            p90_ms=_percentile(times, 90) * 1e3,
            p99_ms=_percentile(times, 99) * 1e3,
            beyond_p99=sum(1 for t in times if t > _percentile(times, 99)),
            throughput_ref=runner.attempted / sum(norm),
            p50_ref=statistics.median(norm),
            p90_ref=_percentile(norm, 90),
            ref_ms=statistics.median(refs) * 1e3,
        )
        digest = runner.digest.hexdigest()
    else:
        replay = Runner(wl, tracer)
        untraced = traced = 0.0
        for i in range(wl.digest_cases):
            for with_tracer in (False, True) if i % 2 == 0 else (True, False):
                if with_tracer:
                    tracer.install()
                    traced += replay.case(i, traced=True)
                    tracer.uninstall()
                else:
                    untraced += runner.case(i)
        digest = runner.digest.hexdigest()
        raw = tracer.summary()
        extra = {"cli.import_s": 0.0, "cli.process_overhead_s": 0.0}
        for path, wall in getattr(wl, "child_traces", []):
            with open(path, encoding="utf-8") as fh:
                child = json.load(fh)
            merge(raw, child["raw"])
            extra["cli.import_s"] += child["import_s"]
            main_s = child["raw"]["busy_ns"].get("cli.main", 0) / 1e9
            extra["cli.process_overhead_s"] += wall - child["import_s"] - main_s
        extra["trace.overhead_ratio"] = traced / untraced
        tracer.dump(os.path.join(args.trace_dir, f"{args.workload}-seed{args.seed}.spans.json"))
        out["per_layer"] = per_layer_metrics(raw, extra)
        out["traced_digest"] = replay.digest.hexdigest()
        runner.attempted += replay.attempted
        runner.failures += replay.failures
        runner.defects += replay.defects
    cases = sum(runner.mix.values())  # attempted also counts the traced replay
    out.update(
        attempted=runner.attempted,
        failed=len(runner.failures),
        failures=runner.failures[:5],
        known_defects=len(runner.defects),
        mix={k: v / cases for k, v in sorted(runner.mix.items())},
        repeated=runner.repeated / cases,
        defect_samples=runner.defects[:3],
        digest=digest,
        digest_cases=wl.digest_cases,
        peak_rss_mb=_peak_rss_mb(),
        python=platform.python_version(),
        nproc=os.cpu_count(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
