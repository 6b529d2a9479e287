"""Repeated-run report: how much each end-to-end metric spreads across seeds.

Run from the root of a source checkout:

    python3 perfbench/steadiness.py --runs 10 --out perfbench/steadiness.json

For each workload it runs ``run.py`` once per seed (``--first-seed``,
``--first-seed + 1``, ...) with tracing off, then once more with tracing
on, and reports per metric the median, the quartiles of
``statistics.quantiles(values, n=4)``, the run count and the spread
(interquartile distance over median) next to the bound in BENCHMARK.json.
The traced run gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import host

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    parser.add_argument("--out", help="write the report here as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"runs": args.runs, "seconds": args.seconds, "host": host.host_facts(), "workloads": {}}
    for workload in args.workloads.split(","):
        results = [run_once(workload, args.first_seed + i, args.seconds, 0) for i in range(args.runs)]
        entry = {"correct": all(r["correct"] for r in results), "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["metrics"][name] = {
                "median": median, "q1": q1, "q3": q3, "runs": len(values), "spread": spread, "bound": bound,
                "values": values,
            }
            flag = "" if spread < bound / 3 else "  <-- above a third of the bound"
            print(f"{workload:14s} {name:26s} median {median:12.6g}  spread {spread:6.3f}  bound {bound}{flag}")
        if not args.no_trace:
            traced = run_once(workload, args.first_seed, args.seconds, 1)["metrics"]
            entry["trace_overhead_pct"] = traced["trace.overhead_pct"]["value"]
            print(f"{workload:14s} tracing overhead {entry['trace_overhead_pct']:.1f}% of ops_per_s")
        report["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
