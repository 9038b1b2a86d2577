"""hesslab benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

A run repeats passes of the workload until ``--seconds`` have elapsed.  A
pass is one fresh Python process (``worker.py``) that imports hesslab from
this checkout's ``src`` and issues the workload's operations in a closed
loop with one caller, so every pass pays the per-process caches the way a
user's script does.  Passes run one at a time.

With ``--trace 0`` the run reports the end-to-end metrics, each the median
over passes.  Times are at the reference speed: an untraced pass times a
fixed probe every 20 ms (``speedprobe.py``), and each stretch of the pass is
scaled by how much slower than ``speedprobe.REF_NS`` the probe ran at the
time.  With ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics of the traced ones, plus the tracing overhead
and the host's slowdown.  The last line of stdout is the JSON result; the
lines before it are a readable table.  A run record goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import speedprobe
import workloads

OUT = workloads.HERE / "out"
WORKER = workloads.HERE / "worker.py"
HARD_LIMIT_S = 170.0     # a run must exit within 180 s
SETUP_ONLY = 10          # fewest processes that only set up, for a steadier setup_s

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def _s(agg, *names):
    return sum(agg["spans"].get(n, {}).get("self_ns", 0) for n in names) / 1e9


def _c(agg, *names):
    return sum(agg["spans"].get(n, {}).get("calls", 0) for n in names)


def _t(agg, name):
    return agg["spans"].get(name, {}).get("total_ns", 0) / 1e9


def _ratio(a, b):
    return a / b if b else 0.0


# (metric, unit, value from one traced pass's tracer summary)
PER_LAYER = [
    ("cli.run.self_s", "s", lambda a: _s(a, "cli.run")),
    ("hessmap.rho_jacobian.calls", "count", lambda a: _c(a, "hessmap.rho_jacobian")),
    ("hessmap.rho_jacobian.self_s", "s", lambda a: _s(a, "hessmap.rho_jacobian")),
    ("hessmap.rho_raw.calls", "count", lambda a: _c(a, "hessmap.rho_raw")),
    ("hessmap.rho_raw.self_s", "s", lambda a: _s(a, "hessmap.rho_raw")),
    ("curvature.coordinates.calls", "count", lambda a: _c(a, "curvature.coordinates")),
    ("curvature.coordinates.self_s", "s", lambda a: _s(a, "curvature.coordinates")),
    ("curvature.symmetry_check.calls", "count", lambda a: _c(a, "curvature.symmetry_check")),
    ("curvature.symmetry_check.self_s", "s", lambda a: _s(a, "curvature.symmetry_check")),
    ("curvature.basis.self_s", "s", lambda a: _s(a, "curvature.basis")),
    ("curvature.coordinate_setup.self_s", "s", lambda a: _s(a, "curvature.coordinate_setup")),
    ("curvature.random_curvature.self_s", "s", lambda a: _s(a, "curvature.random_curvature")),
    ("linalg.rref.calls", "count", lambda a: _c(a, "linalg.rref")),
    ("linalg.rref.cells", "count", lambda a: a["counts"]["linalg.rref.cells"]),
    ("linalg.rref.self_s", "s", lambda a: _s(a, "linalg.rref")),
    ("linalg.in_span.calls", "count", lambda a: _c(a, "linalg.in_span")),
    ("linalg.in_span.self_s", "s", lambda a: _s(a, "linalg.in_span")),
    ("linalg.nullspace.self_s", "s", lambda a: _s(a, "linalg.nullspace")),
    ("linalg.rowspace_add.calls", "count", lambda a: _c(a, "linalg.rowspace_add")),
    ("linalg.rowspace_add.self_s", "s", lambda a: _s(a, "linalg.rowspace_add")),
    ("linalg.rowspace_add.grew_ratio", "ratio",
     lambda a: _ratio(a["counts"]["linalg.rowspace_add.grew"], _c(a, "linalg.rowspace_add"))),
    ("identities.calls", "count", lambda a: _c(a, *IDENTITIES)),
    ("identities.quadratic.self_s", "s", lambda a: _s(a, "identities.quadratic")),
    ("identities.cubic.self_s", "s", lambda a: _s(a, "identities.cubic")),
    ("identities.pontryagin.self_s", "s", lambda a: _s(a, "identities.pontryagin")),
    ("identities.bianchi.self_s", "s", lambda a: _s(a, "identities.bianchi")),
    ("tensor.antisymmetrize.calls", "count", lambda a: _c(a, "tensor.antisymmetrize")),
    ("tensor.antisymmetrize.terms", "count",
     lambda a: a["counts"]["tensor.antisymmetrize.terms"]),
    ("tensor.antisymmetrize.self_s", "s", lambda a: _s(a, "tensor.antisymmetrize")),
    ("tensor.to_dense.calls", "count", lambda a: _c(a, "tensor.to_dense")),
    ("tensor.to_dense.self_s", "s", lambda a: _s(a, "tensor.to_dense")),
    ("rng.calls", "count", lambda a: _c(a, *RNG)),
    ("rng.self_s", "s", lambda a: _s(a, *RNG)),
    ("miner.enumerate_patterns.self_s", "s", lambda a: _s(a, "miner.enumerate_patterns")),
    ("miner.enumerate_patterns.total_s", "s", lambda a: _t(a, "miner.enumerate_patterns")),
    ("miner.canonicalize.calls", "count", lambda a: _c(a, "miner.canonicalize")),
    ("miner.canonicalize.self_s", "s", lambda a: _s(a, "miner.canonicalize")),
    ("miner.canonical_yield", "ratio",
     lambda a: _ratio(a["canonical_forms"], _c(a, "miner.canonicalize"))),
    ("miner.mine.self_s", "s", lambda a: _s(a, "miner.mine")),
    ("miner.samples_used", "count", lambda a: a["counts"]["miner.samples_used"]),
]
IDENTITIES = ("identities.quadratic", "identities.cubic", "identities.pontryagin",
              "identities.bianchi")
RNG = ("rng.rational_at", "rng.integer_at")
TRACE_METRICS = [("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("host.slowdown", "ratio")]


def run_pass(workload, seed, timeout, *flags) -> dict:
    """One fresh worker process; returns its report."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *flags]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic_ns()
    proc = subprocess.run(cmd + ["--t0-ns", str(t0)], capture_output=True, text=True,
                          env=env, timeout=timeout, cwd=workloads.ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_record(workload, seed, trace) -> dict:
    import numpy
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "operations": {name: workloads.describe(name, seed) for name in workloads.BENCHMARKED},
    }


def _git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, cwd=workloads.ROOT, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != str(workloads.ROOT):
        return None
    return lines[1]


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((workloads.SRC / "hesslab").rglob("*.py")):
        h.update(path.relative_to(workloads.SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(args, spans_path):
    """Passes until --seconds are used up, with a set-up-only process after each.

    A pass starts only if it is expected to end within half a pass of the
    deadline.  Set-up-only processes interleave with the passes so that they
    sample the same stretch of time, and are topped up to SETUP_ONLY after
    the last pass.  A traced run alternates untraced and traced passes, makes
    at least one of each, and no set-up-only processes.
    """
    start = time.monotonic()
    passes, setups = [], []
    fewest = 2 if args.trace else 1
    while True:
        elapsed = time.monotonic() - start
        last = passes[-1]["raw_wall_s"] if passes else 0.0
        if len(passes) >= fewest and elapsed + last / 2 > args.seconds:
            break
        if elapsed + last > HARD_LIMIT_S:
            raise RuntimeError("the next pass would exceed the time limit of a run")
        traced = bool(args.trace) and len(passes) % 2 == 1
        flags = ["--trace", "--spans", str(spans_path)] if traced else []
        report = run_pass(args.workload, args.seed, HARD_LIMIT_S - elapsed, *flags)
        report["traced"] = traced
        passes.append(report)
        if not args.trace:
            setups.append(run_pass(args.workload, args.seed, 30, "--setup-only"))
    while not args.trace and len(setups) < SETUP_ONLY:
        setups.append(run_pass(args.workload, args.seed, 30, "--setup-only"))
    return passes, setups


def at_reference_speed(processes) -> None:
    """Add setup_s and wall_s at the reference speed to each probed process's report."""
    for p in processes:
        p["setup_s"] = p["setup_units"] * speedprobe.REF_NS / 1e9
        if "wall_units" in p:
            p["wall_s"] = p["wall_units"] * speedprobe.REF_NS / 1e9


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run raises SystemExit, so subprocess.run kills and reaps its pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (workloads.SRC / "hesslab" / "__init__.py").is_file():
        print(f"error: no hesslab sources under {workloads.SRC}", file=sys.stderr)
        return 2
    # compile once here, so that no pass times bytecode compilation
    compileall.compile_dir(str(workloads.SRC), quiet=1)
    compileall.compile_dir(str(workloads.HERE), quiet=1, maxlevels=0)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = run_record(args.workload, args.seed, args.trace)

    try:
        passes, setups = measure(args, OUT / f"{tag}.spans.jsonl")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    at_reference_speed([p for p in passes if not p["traced"]] + setups)
    record["probe_ref_ns"] = speedprobe.REF_NS
    record["passes"] = passes
    record["setup_only"] = setups

    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["failed"]]
    untraced = [p for p in passes if not p["traced"]]
    slowdown = statistics.median(p["raw_wall_s"] / p["wall_s"] for p in untraced)
    lines = [f"workload {args.workload}, seed {args.seed}, {len(passes)} passes, "
             f"{len(failed)} of {len(ops)} operations failed "
             f"(failed_frac {len(failed) / len(ops):.4f})"]
    for op in failed[:10]:
        lines.append(f"  FAILED {op['label']}: {op['reason']}")
    metrics = {}
    if not args.trace:
        lines.append(f"{'metric':<20}{'median':>12}{'q1':>12}{'q3':>12}  unit  "
                     f"(n={len(passes)}; setup_s also over {len(setups)} set-up-only processes)")
        for name, unit in END_TO_END + [("raw_wall_s", "s")]:
            values = [p[name] for p in untraced] + [p[name] for p in setups
                                                    if name == "setup_s"]
            q1, med, q3 = _quartiles(values)
            if name != "raw_wall_s":
                metrics[name] = {"value": med, "unit": unit}
            lines.append(f"{name:<20}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}  {unit}")
        lines.append(f"host slowdown (raw_wall_s / wall_s, median): {slowdown:.3f}")
    else:
        traced = [p for p in passes if p["traced"]]
        for name, unit, value in PER_LAYER:
            metrics[name] = {"value": statistics.median(value(p["trace"]) for p in traced),
                             "unit": unit}
        traced_wall = statistics.median(p["raw_wall_s"] for p in traced)
        overhead = traced_wall - statistics.median(p["raw_wall_s"] for p in untraced)
        for (name, unit), value in zip(TRACE_METRICS, (traced_wall, overhead, slowdown)):
            metrics[name] = {"value": value, "unit": unit}
        lines += layer_table(traced[-1]["trace"], traced_wall)
        lines.append(f"{'metric':<36}{'value':>16}  unit")
        for name, m in metrics.items():
            lines.append(f"{name:<36}{m['value']:>16.6g}  {m['unit']}")
        lines.append(f"spans of the last traced pass: {OUT / (tag + '.spans.jsonl')}")
    record["metrics"] = metrics
    record_path = OUT / f"{tag}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    lines.append(f"run record: {record_path}")
    print("\n".join(lines))
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def layer_table(summary, wall_s) -> list[str]:
    """Calls, self time and inclusive time of every span name in one pass."""
    lines = [f"{'span':<30}{'calls':>9}{'self_s':>10}{'total_s':>10}{'self/wall':>10}"]
    rows = sorted(summary["spans"].items(), key=lambda kv: -kv[1]["self_ns"])
    for name, agg in rows:
        lines.append(f"{name:<30}{agg['calls']:>9}{agg['self_ns'] / 1e9:>10.3f}"
                     f"{agg['total_ns'] / 1e9:>10.3f}{agg['self_ns'] / 1e9 / wall_s:>10.1%}")
    if summary["missing"]:
        lines.append(f"not found, so not traced: {', '.join(summary['missing'])}")
    return lines


if __name__ == "__main__":
    sys.exit(main())
