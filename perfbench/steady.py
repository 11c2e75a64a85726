"""Steadiness check: run one workload k times, each with another seed, and
print every end-to-end metric's median, quartiles and spread (IQR over
median) against its bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload serve-live -k 10

Runs use seeds 1..k, untraced, one after another, each in its own process,
from the repository root. Exits non-zero if a run exits non-zero, if any
operation of any run failed, or if any spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("-k", type=int, default=10, help="runs (seeds)")
    args = p.parse_args(argv)

    runs = []
    for seed in range(1, args.k + 1):
        cmd = ["python3", "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr.strip()}")
            return 1
        result = json.loads(lines[-1])
        values = " ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
        )
        print(f"seed {seed}: attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)
        runs.append(result)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failed = sum(r["failed"] for r in runs)
    print(f"failed operations: {failed} of {sum(r['attempted'] for r in runs)}")
    status = 1 if failed else 0
    print(f"{'metric':24s} {'q1':>12s} {'median':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3, s = spread(values)
        bound = bounds[name]
        flag = ""
        if s > bound:
            flag, status = "  OVER", 1
        elif s > bound / 3:
            flag = "  >1/3"
        print(f"{name:24s} {q1:12.6g} {med:12.6g} {q3:12.6g} {s:8.4f} "
              f"{bound:>6}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
