"""The benchmark's in-process workloads still run on the library.

``perfbench/workloads.py`` reads library names that no other test reads,
such as ``TorRankReport.graph_rank`` and the ``minimized`` flag of
``projective_resolution``; a change that dropped one would fail only in
a benchmark run.  This loads the workloads as they are and runs the first
cases of each in-process workload, untraced.  ``test_tracing_layers.py``
guards the tracer's function names.
"""

import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, PERFBENCH)  # workloads.py imports its sibling generators.py
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(PERFBENCH)
    return module


@pytest.mark.parametrize("name", ["homology", "finite", "lattice"])
def test_first_cases_pass(workloads, name):
    work = workloads.WORKLOADS[name](1, ROOT)
    work.setup()
    for i in range(24):
        _, failure, defect = work.run(work.make(i))
        assert (failure, defect) == (None, None), (name, i)
