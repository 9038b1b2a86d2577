"""One pass of a workload in a fresh process: run its operations, check them.

    python3 perfbench/worker.py --workload census --seed 1 --t0-ns <ns> [--trace]

The operations run one after another, each starting when the previous one
has returned and been checked.  The last line of stdout is a JSON report:
setup and wall times measured from ``--t0-ns`` (the parent's
``time.monotonic_ns()`` just before it started this process), the same
intervals in host speed probe units (see ``speedprobe.py``), peak RSS, the
outcome of every operation, and with ``--trace`` the per-layer spans.  A
traced pass runs no probes.

    python3 perfbench/worker.py --record

runs every workload at the default seed and writes ``golden.json``.
"""

from __future__ import annotations

import time

T_IMPORT = time.monotonic_ns()

import speedprobe  # noqa: E402

if __name__ == "__main__":
    speedprobe.start()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def load_golden(seed: int) -> dict | None:
    """Expected {label: {"exit", "stdout"}} at the default seed, else None."""
    if seed != workloads.DEFAULT_SEED:
        return None
    doc = json.loads(workloads.GOLDEN.read_text())
    return {label: rec for ops in doc["workloads"].values() for label, rec in ops.items()}


def run_ops(ops, golden=None, tracer=None) -> list[dict]:
    """Run ops in order; each result says whether the op failed and why."""
    results = []
    for op in ops:
        start = time.monotonic_ns()
        reason = None
        try:
            run = tracer.wrap(op.run, "op") if tracer is not None else op.run
            stdout, code = run()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            stdout, code, reason = "", None, f"raised {type(exc).__name__}: {exc}"
        end = time.monotonic_ns()
        if reason is None:
            reason = _judge(op, stdout, code, golden, tracer)
        results.append({"label": op.label, "exit": code, "failed": reason is not None,
                        "reason": reason, "seconds": (end - start) / 1e9,
                        "stdout": stdout})
    return results


def _judge(op, stdout, code, golden, tracer) -> str | None:
    if code != op.expect_exit:
        return f"exit code {code}, expected {op.expect_exit}"
    if golden is not None:
        rec = golden.get(op.label)
        if rec is None:
            return "no recorded output for this operation"
        if rec["exit"] != code or rec["stdout"] != stdout:
            return "output differs from the recorded output"
    try:
        if tracer is not None:
            with tracer.paused():
                return op.check(stdout)
        return op.check(stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--t0-ns", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="file to write the spans to")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop where the first operation would begin")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.trace or args.record:
        speedprobe.stop()

    workloads.import_hesslab()
    if args.record:
        return record()
    t0 = args.t0_ns if args.t0_ns is not None else T_IMPORT
    ops = workloads.operations(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer().install()
    golden = load_golden(args.seed)
    t_first = time.monotonic_ns()
    if args.setup_only:
        speedprobe.probe()
        speedprobe.stop()
        print(json.dumps({"raw_setup_s": (t_first - t0) / 1e9, **_probed(t0, t_first)}))
        return 0
    try:
        results = run_ops(ops, golden, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    t_end = time.monotonic_ns()
    report = {"raw_setup_s": (t_first - t0) / 1e9, "raw_wall_s": (t_end - t0) / 1e9}
    if not args.trace:
        speedprobe.probe()
        speedprobe.stop()
        report.update(_probed(t0, t_first, t_end))
    report.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": [{k: v for k, v in r.items() if k != "stdout"} for r in results],
    })
    if tracer is not None:
        report["trace"] = tracer.summary()
        if args.spans:
            with open(args.spans, "w") as fh:
                tracer.write_spans(fh)
    print(json.dumps(report))
    return 0


def _probed(t0, t_first, t_end=None) -> dict:
    """Set-up (and wall) time in probe units, and the number of probes."""
    samples = speedprobe.probes
    out = {"setup_units": speedprobe.units(samples, t0, t_first), "probes": len(samples)}
    if t_end is not None:
        out["wall_units"] = speedprobe.units(samples, t0, t_end)
    return out


def record() -> int:
    """Write golden.json: every op's stdout and exit code at the default seed."""
    import hesslab.miner as miner
    seed = workloads.DEFAULT_SEED
    patterns = miner.enumerate_patterns(3)
    vector = miner.coefficient_vector(patterns, miner.cubic_identity_combination())
    doc = {
        "seed": seed,
        "cubic_combination": {"patterns": [p.slot_names() for p in patterns],
                              "vector": [str(x) for x in vector]},
        "workloads": {},
    }
    workloads._CUBIC.update(patterns=doc["cubic_combination"]["patterns"], vector=vector)
    for name in workloads.WORKLOADS:
        results = run_ops(workloads.operations(name, seed))
        for r in results:
            print(f"{name}: {r['label']}: exit {r['exit']}, "
                  f"{'FAILED ' + r['reason'] if r['failed'] else 'ok'}", file=sys.stderr)
        if any(r["failed"] for r in results):
            return 1
        doc["workloads"][name] = {r["label"]: {"exit": r["exit"], "stdout": r["stdout"]}
                                  for r in results}
    workloads.GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
