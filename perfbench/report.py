"""Run the census, verify and mine workloads and print their metrics in one table.

    python3 perfbench/report.py --seed 1 --seconds 20 [--trace]

Without ``--trace`` it prints wall_s, setup_s, peak_rss_mb and failed_frac
for each workload, with their units, quartiles and pass counts.  With
``--trace`` it also makes a traced run of each workload and prints the
per-layer self times and counts, the tracing overhead, and the share of
wall time of a traced pass taken by the layers each workload is meant to load.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run
import workloads

# workload -> span names whose time should account for most of a traced pass's wall time
PLACEMENT = {
    "census": ("self", ["hessmap.rho_jacobian", "hessmap.rho_raw", "tensor.to_dense",
                        "curvature.coordinates", "linalg.rref"]),
    "verify": ("self", list(run.IDENTITIES) + ["tensor.antisymmetrize"]),
    "mine": ("total", ["miner.enumerate_patterns"]),
}


def _run(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(workloads.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run failed\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    path = run.OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    return {"result": result, "record": json.loads(path.read_text()), "text": proc.stdout}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    print(f"{'workload':<9}{'metric':<13}{'median':>11}{'q1':>11}{'q3':>11}  unit   passes")
    for w in workloads.BENCHMARKED:
        out = _run(w, args.seed, args.seconds, False)
        rec, res = out["record"], out["result"]
        passes = rec["passes"]
        for name, unit in run.END_TO_END:
            values = [p[name] for p in passes]
            if name == "setup_s":
                values += [s["setup_s"] for s in rec["setup_only"]]
            q1, med, q3 = run._quartiles(values)
            print(f"{w:<9}{name:<13}{med:>11.4f}{q1:>11.4f}{q3:>11.4f}  {unit:<6} {len(values)}")
        frac = res["failed"] / res["attempted"]
        print(f"{w:<9}{'failed_frac':<13}{frac:>11.4f}{'':>22}  {'ratio':<6} "
              f"{res['failed']} of {res['attempted']} operations")
    if not args.trace:
        return 0
    for w in workloads.BENCHMARKED:
        out = _run(w, args.seed, args.seconds, True)
        print(f"\n== {w} (traced)")
        print("\n".join(out["text"].splitlines()[:-1]))
        traced = [p for p in out["record"]["passes"] if p["traced"]]
        spans = traced[-1]["trace"]["spans"]
        kind, names = PLACEMENT[w]
        share = (sum(spans.get(n, {}).get(f"{kind}_ns", 0) for n in names) / 1e9
                 / traced[-1]["raw_wall_s"])
        print(f"{kind} time of {', '.join(names)}: {share:.1%} of the traced pass's wall time")
    return 0


if __name__ == "__main__":
    sys.exit(main())
