"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload rmat-cold --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 22     # every workload
    python3 perfbench/run.py --recompute-digests             # after a generator change

Run from the repository root: the program is imported from ``src/``. The
last line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; with ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones. Any failed check prints no result and
exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import pickle
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("rmat-cold", "grid-cold", "serve-live")


def load_program():
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: the program's sources are missing ({src}/repro)")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    return repro


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    repro = load_program()
    import workloads
    from oracle import OracleError

    try:
        if name in workloads.GRAPH:
            out = workloads.cold_solves(repro, name, seed, seconds, trace, OUT)
        else:
            out = workloads.serve_live(repro, name, seed, seconds, trace, OUT)
    except (OracleError, workloads.BenchFailure) as exc:
        raise SystemExit(f"error: {name}: {exc}")
    attempted, failed, metrics, info = out
    print("info: " + json.dumps(info, sort_keys=True))
    return {"correct": True, "attempted": int(attempted), "failed": int(failed),
            "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process; print every metric by name."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: FAILED (exit {proc.returncode})\n{proc.stderr.strip()}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for key, m in result["metrics"].items():
            print(f"  {key:28s} {m['value']:14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--recompute-digests", action="store_true",
                   help="regenerate every graph and rewrite digests.json")
    # A run's inputs and oracle digests, pickled to stdout (the child
    # process of workloads.plan_in_child).
    p.add_argument("--plan", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.plan:
        load_program()
        import workloads

        sys.stdout.buffer.write(pickle.dumps(workloads.plan(args.plan, args.seed,
                                                            bool(args.trace))))
        return 0
    if args.recompute_digests:
        repro = load_program()
        import inputs

        print(json.dumps(inputs.recompute_digests(repro), indent=2))
        return 0
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("give --workload, --all or --recompute-digests")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
