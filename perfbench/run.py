#!/usr/bin/env python3
"""Benchmark of sparse_noma: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`.  Each run starts fresh worker processes with OpenBLAS, OpenMP and MKL
pinned to one thread before numpy loads.  With --trace 0 the result holds the
end-to-end metrics, with --trace 1 the per-layer ones.  Set-up time is the
median over five processes: four that only set up, and the measured one.
The full record of the run (environment, per-op times, failed ops) is kept
in perfbench/out/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("closed_form", "mc_capacity", "mc_spectrum", "signature_large")
SETUP_PROBES = 4
DEADLINE_S = 170.0


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
    )
    return env


def run_worker(args, extra: list[str], deadline: float) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
    proc = subprocess.run(argv + ["--t0", repr(t0)], env=worker_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.perf_counter()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    missing = [p for p in (ROOT / "src" / "sparse_noma" / "__init__.py", HERE / "reference.json") if not p.is_file()]
    if missing:
        print(f"error: not a sparse_noma checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    try:
        setups = []
        if not args.trace:
            setups = [run_worker(args, ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        record = run_worker(args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        setups.append(record["metrics"]["setup_s"]["value"])
        record["metrics"]["setup_s"]["value"] = statistics.median(setups)
        record["setup_s_each"] = setups

    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    (OUT / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for name, m in record["metrics"].items():
        print(f"{args.workload:16s} {name:48s} {m['value']:14.6g} {m['unit']} {record['provenance'].get(name, '')}")
    print(f"{args.workload:16s} attempted {record['attempted']}, failed {record['failed']}, correct {record['correct']}")
    for problem in record["problems"]:
        print(f"{args.workload:16s} PROBLEM {problem}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
