"""The benchmark's own tests.

    python3 perfbench/selftest.py

They use the few-second ``smoke`` workload.  The file is not named
``test_*.py`` so that the package's test suite does not collect it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
import speedprobe
import tracer as tracing
import worker
import workloads

workloads.import_hesslab()
SEED = workloads.DEFAULT_SEED


def _worker_trace(seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(workloads.HERE / "worker.py"),
                           "--workload", "smoke", "--seed", str(seed), "--trace"],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["trace"]


class OutputChecks(unittest.TestCase):
    def test_wrong_expected_output_is_a_failed_operation(self):
        ops = workloads.smoke(SEED)[:2]
        golden = worker.load_golden(SEED)
        label = ops[0].label
        golden[label] = dict(golden[label], stdout=golden[label]["stdout"] + " ")
        results = worker.run_ops(ops, golden)
        self.assertTrue(results[0]["failed"])
        self.assertIn("recorded output", results[0]["reason"])
        self.assertFalse(results[1]["failed"])

    def test_recorded_outputs_pass_at_the_default_seed(self):
        results = worker.run_ops(workloads.smoke(SEED), worker.load_golden(SEED))
        self.assertEqual([r["reason"] for r in results], [None] * len(results))

    def test_wrong_exit_code_is_a_failed_operation(self):
        op = dataclasses.replace(workloads.smoke(SEED)[0], expect_exit=1)
        [result] = worker.run_ops([op])
        self.assertTrue(result["failed"])
        self.assertIn("exit code", result["reason"])

    def test_broken_invariant_is_a_failed_operation(self):
        op = workloads.cli_op(["rank-census", "--dim", 4, "--samples", 1, "--seed", 5], 0,
                              workloads.census_check(4, 1, 19))
        [result] = worker.run_ops([op])
        self.assertTrue(result["failed"])
        self.assertIn("max_rank", result["reason"])

    def test_raising_operation_is_a_failed_operation(self):
        def boom():
            raise ValueError("boom")
        op = workloads.Op("boom", boom, 0, lambda out: None)
        [result] = worker.run_ops([op])
        self.assertTrue(result["failed"])
        self.assertIn("boom", result["reason"])

    def test_cubic_check_separates_image_from_universal(self):
        patterns, cubic = workloads.cubic_combination()
        self.assertEqual(len(patterns), 35)
        self.assertTrue(workloads._in_span([cubic], cubic))
        self.assertFalse(workloads._in_span([], cubic))


class Tracing(unittest.TestCase):
    def test_tracing_leaves_outputs_unchanged_and_restores_functions(self):
        ops = workloads.smoke(SEED + 1)
        plain = [op.run() for op in ops]
        originals = {name: {k: v for k, v in vars(mod).items() if callable(v)}
                     for name, mod in sys.modules.items()
                     if name == "hesslab" or name.startswith("hesslab.")}
        methods = {(clsname, attr): vars(getattr(sys.modules[modname], clsname))[attr]
                   for modname, clsname, attr, _ in tracing.METHODS}
        tracer = tracing.Tracer().install()
        try:
            traced = [op.run() for op in ops]
        finally:
            tracer.restore()
        self.assertEqual(plain, traced)
        self.assertGreater(len(tracer.spans), 0)
        self.assertEqual(tracer.missing, [])
        for name, attrs in originals.items():
            for key, value in attrs.items():
                self.assertIs(getattr(sys.modules[name], key), value, f"{name}.{key}")
        for modname, clsname, attr, _ in tracing.METHODS:
            cls = getattr(sys.modules[modname], clsname)
            self.assertIs(vars(cls)[attr], methods[(clsname, attr)])

    def test_counts_repeat_between_traced_runs(self):
        first, second = _worker_trace(SEED + 1), _worker_trace(SEED + 1)
        calls = {name: agg["calls"] for name, agg in first["spans"].items()}
        self.assertEqual(calls, {name: agg["calls"] for name, agg in second["spans"].items()})
        self.assertEqual(first["counts"], second["counts"])
        self.assertGreater(calls["hessmap.rho_raw"], 0)
        self.assertGreater(calls["miner.canonicalize"], 0)

    def test_self_time_excludes_children(self):
        t = tracing.Tracer()
        t.spans[:] = [["a", 0, 100, -1], ["b", 10, 40, 0], ["c", 20, 30, 1]]
        spans = t.summary()["spans"]
        self.assertEqual(spans["a"]["self_ns"], 70)
        self.assertEqual(spans["b"]["self_ns"], 20)
        self.assertEqual(spans["c"]["self_ns"], 10)


class SpeedProbe(unittest.TestCase):
    def test_units_weigh_each_stretch_by_the_probe_that_ends_it(self):
        # stretches of 100 and 60 ns, ended by probes of 10 and 20 ns, then a
        # tail of 40 ns weighted by the last probe; probe time is left out
        probes = [(100, 110), (170, 190)]
        self.assertAlmostEqual(speedprobe.units(probes, 0, 230), 100 / 10 + 60 / 20 + 40 / 20)
        # an interval that ends inside a stretch takes the probe that ends it
        self.assertAlmostEqual(speedprobe.units(probes, 0, 50), 50 / 10)
        self.assertAlmostEqual(speedprobe.units(probes, 120, 150), 30 / 20)

    def test_probed_pass_reports_probe_units(self):
        report = run.run_pass("smoke", SEED, 120)
        self.assertGreater(report["probes"], 0)
        self.assertLess(report["setup_units"], report["wall_units"])
        run.at_reference_speed([report])
        self.assertAlmostEqual(report["wall_s"],
                               report["wall_units"] * speedprobe.REF_NS / 1e9)


class Runner(unittest.TestCase):
    def test_benchmark_json_names_the_metrics_run_reports(self):
        doc = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in doc["end_to_end"]], [n for n, _ in run.END_TO_END])
        self.assertEqual([m["name"] for m in doc["per_layer"]],
                         [n for n, _, _ in run.PER_LAYER] + [n for n, _ in run.TRACE_METRICS])
        self.assertEqual([w["name"] for w in doc["workloads"]], list(workloads.BENCHMARKED))

    def test_run_prints_the_result_as_its_last_line(self):
        expected = {0: [n for n, _ in run.END_TO_END],
                    1: [n for n, _, _ in run.PER_LAYER] + [n for n, _ in run.TRACE_METRICS]}
        for trace, names in expected.items():
            proc = subprocess.run([sys.executable, str(workloads.HERE / "run.py"),
                                   "--workload", "smoke", "--seed", "2", "--seconds", "1",
                                   "--trace", str(trace)],
                                  capture_output=True, text=True, timeout=170)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(list(result["metrics"]), names)

    def test_run_fails_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(workloads.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "census",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  capture_output=True, text=True, timeout=170, cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
