"""The benchmark's operations, run in-process against their recorded outputs.

Each workload that BENCHMARK.json lists runs its operations at the default
seed through perfbench's own worker, which compares every stdout and exit
code with perfbench/golden.json and checks the output's invariants.  A
change that alters a benchmarked output fails here, in the test suite,
before any benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.BENCHMARKED)
def test_benchmarked_operations_match_their_recorded_outputs(workload):
    workloads.import_hesslab()
    results = worker.run_ops(workloads.operations(workload, workloads.DEFAULT_SEED),
                             worker.load_golden(workloads.DEFAULT_SEED))
    assert results
    assert [(r["label"], r["reason"]) for r in results if r["failed"]] == []
