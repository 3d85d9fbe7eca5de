"""Span tracing by rebinding monoidkit's public functions.

``Tracer.install`` replaces each function named in ``LAYERS`` with a
timing wrapper, in every loaded module namespace (and class) that holds
the original object, so ``from .intlin import solve`` style imports are
covered too.  Spans (name, start, end, parent, case) are kept in memory
and written out by ``Tracer.dump``; ``Tracer.summary`` folds them into
per-layer counts, busy time and module self time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time

# module -> public functions traced; "Class.method" entries patch the class.
# Spans and metrics name a module without its leading underscore
# ("kernels.closure"), since metric names must start with a letter.
LAYERS = {
    "_kernels": ["snf_with_transforms", "snf_diagonal", "integer_rank",
                 "closure", "connected_components"],
    "intlin": ["solve", "kernel_basis", "invariant_factors", "lattice_basis",
               "preimage_lattice", "rank"],
    "torreal": ["smith_homology", "tor_complex", "tor_complex_direct",
                "tor1_monogenic", "chain_of_simplicial"],
    "homological": ["dold_kan_inverse", "projective_resolution",
                    "reduced_resolution", "coequalizer", "homology"],
    "asets": ["enumerate_asets", "quotient_aset", "is_isomorphic", "tensor"],
    "spectra": ["primary_decomposition", "associated_primes", "mspec"],
    "projk": ["k0", "k1", "k1_bruteforce"],
    "monoids": ["AffineMonoid.contains", "AffineMonoid.bounded_elements",
                "build_from_presentation"],
    "geometry": ["normalize_affine", "seminormalize_cancellative",
                 "seminormal_membership", "seminormal_membership_powers",
                 "class_group", "pic"],
    "documents": ["load_document"],
    "cli": ["main"],
}

SNF_FNS = ("snf_with_transforms", "snf_diagonal", "integer_rank")
CASE_SPAN = "bench.case"


def per_layer_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for module, fns in LAYERS.items():
        label = module.lstrip("_")
        for fn in fns:
            out.append((f"{label}.{fn}.calls", "count"))
            out.append((f"{label}.{fn}.busy_s", "s"))
        out.append((f"{label}.self_s", "s"))
    out += [
        ("kernels.snf.max_cells", "cells"),
        ("kernels.closure.max_n", "count"),
        ("kernels.snf_fallbacks", "count"),
        ("kernels.snf_distinct_ratio", "ratio"),
        ("cli.import_s", "s"),
        ("cli.process_overhead_s", "s"),
        ("trace.overhead_ratio", "x"),
        ("trace.spans", "count"),
    ]
    return out


def _matrix_key(mat):
    return hashlib.blake2b(repr(mat).encode(), digest_size=12).hexdigest()


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []  # (name id, start ns, end ns, parent index, case, outermost)
        self._stack = []
        self._active = {}
        self.case = None
        self.snf_keys = set()
        self.snf_calls = 0
        self.max_cells = 0
        self.max_n = 0
        self.fallbacks = 0
        self._fallback_depth = 0
        self._patches = []  # (owner, attribute, original, replacement)
        self._case_span = self.span(CASE_SPAN, lambda fn, *args: fn(*args))

    # -- spans ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, probe=None):
        """``fn`` wrapped to record one span per call."""
        nid = self._name_id(name)
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if probe is not None:
                probe(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            depth = active.get(nid, 0)
            active[nid] = depth + 1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[nid] = depth
                spans[idx] = (nid, start, end, parent, self.case, depth == 0)

        return wrapper

    def run_case(self, case_id, fn, *args):
        """Run ``fn`` under a root span that carries the case id."""
        self.case = case_id
        try:
            return self._case_span(fn, *args)
        finally:
            self.case = None

    # -- probes --------------------------------------------------------

    def _snf_probe(self, args):
        mat = args[0]
        self.snf_calls += 1
        self.snf_keys.add(_matrix_key(mat))
        cells = len(mat) * (len(mat[0]) if mat else 0)
        if cells > self.max_cells:
            self.max_cells = cells

    def _closure_probe(self, args):
        if args[0] > self.max_n:
            self.max_n = args[0]

    def _count_fallback(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._fallback_depth == 0:
                self.fallbacks += 1
            self._fallback_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._fallback_depth -= 1

        return wrapper

    # -- rebinding -----------------------------------------------------

    def _rebind(self, original, replacement):
        """Replace ``original`` wherever a loaded module or class holds it."""
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    self._patches.append((mod, attr, original, replacement))
                    setattr(mod, attr, replacement)

    def install(self):
        """Rebind the traced functions; after the first call this only
        reapplies the rebindings found then."""
        if self._patches:
            for owner, attr, _, replacement in self._patches:
                setattr(owner, attr, replacement)
            return
        from monoidkit import _kernels

        for module, fns in LAYERS.items():
            mod = importlib.import_module(f"monoidkit.{module}")
            label = module.lstrip("_")
            for fn in fns:
                probe = None
                if module == "_kernels" and fn in SNF_FNS:
                    probe = self._snf_probe
                elif module == "_kernels" and fn == "closure":
                    probe = self._closure_probe
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[meth]
                    replacement = self.span(f"{label}.{fn}", original)
                    self._patches.append((cls, meth, original, replacement))
                    setattr(cls, meth, replacement)
                else:
                    original = getattr(mod, fn)
                    self._rebind(original, self.span(f"{label}.{fn}", original, probe))
        if _kernels.BACKEND == "compiled":
            for fn in SNF_FNS:
                original = getattr(_kernels.snf_py, fn)
                self._rebind(original, self._count_fallback(original))

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def summary(self):
        """Raw per-layer sums; ``merge`` adds another tracer's summary."""
        child = [0] * len(self.spans)
        for nid, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, busy, self_ns = {}, {}, {}
        for idx, (nid, start, end, _, _, outer) in enumerate(self.spans):
            name = self.names[nid]
            calls[name] = calls.get(name, 0) + 1
            if outer:
                busy[name] = busy.get(name, 0) + (end - start)
            module = name.split(".")[0]
            self_ns[module] = self_ns.get(module, 0) + (end - start - child[idx])
        return {
            "calls": calls,
            "busy_ns": busy,
            "self_ns": self_ns,
            "snf_keys": sorted(self.snf_keys),
            "snf_calls": self.snf_calls,
            "max_cells": self.max_cells,
            "max_n": self.max_n,
            "fallbacks": self.fallbacks,
            "spans": len(self.spans),
        }

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def merge(total, part):
    """Fold one raw summary into another (used for CLI child processes)."""
    for key in ("calls", "busy_ns", "self_ns"):
        for name, value in part[key].items():
            total[key][name] = total[key].get(name, 0) + value
    total["snf_keys"] = sorted(set(total["snf_keys"]) | set(part["snf_keys"]))
    for key in ("snf_calls", "fallbacks", "spans"):
        total[key] += part[key]
    for key in ("max_cells", "max_n"):
        total[key] = max(total[key], part[key])
    return total


def per_layer_metrics(raw, extra):
    """Every ``per_layer_names`` metric from a raw summary plus extras."""
    out = {}
    for module, fns in LAYERS.items():
        label = module.lstrip("_")
        for fn in fns:
            name = f"{label}.{fn}"
            out[f"{name}.calls"] = raw["calls"].get(name, 0)
            out[f"{name}.busy_s"] = raw["busy_ns"].get(name, 0) / 1e9
        out[f"{label}.self_s"] = raw["self_ns"].get(label, 0) / 1e9
    out["kernels.snf.max_cells"] = raw["max_cells"]
    out["kernels.closure.max_n"] = raw["max_n"]
    out["kernels.snf_fallbacks"] = raw["fallbacks"]
    out["kernels.snf_distinct_ratio"] = (
        len(raw["snf_keys"]) / raw["snf_calls"] if raw["snf_calls"] else 0.0
    )
    out["trace.spans"] = raw["spans"]
    out.update(extra)
    return out
