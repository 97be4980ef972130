#!/usr/bin/env python3
"""Run the benchmark over several seeds and keep every result in one file.

    python3 perfbench/series.py --label base --seeds 1-10
    python3 perfbench/series.py --label base --workloads mc_spectrum --seeds 1-5 --trace 1

Each run is a separate `perfbench/run.py` process.  Records go to
perfbench/out/series-<label>.jsonl (appended); the end prints, per workload
and metric, the median, the quartiles and the interquartile spread as a
share of the median, which is the figure the bounds in BENCHMARK.json are
compared with.  compare.py compares two such files.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import load, metric_table, summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    out = HERE / "out" / f"series-{args.label}.jsonl"
    out.parent.mkdir(exist_ok=True)
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            record = json.loads((HERE / "out" / "runs" / f"{workload}-seed{seed}-trace{args.trace}.json").read_text())
            with out.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
            print(f"{workload} seed {seed}: " + proc.stdout.strip().splitlines()[-1][:300], flush=True)

    for (workload, trace), records in sorted(load(out).items()):
        if trace != args.trace or workload not in args.workloads.split(","):
            continue
        shares = {r["failed"] / r["attempted"] for r in records}
        print(f"== {workload}: {len(records)} runs, failed share {sorted(shares)}, "
              f"correct {sum(r['correct'] for r in records)}/{len(records)}")
        for name, values in metric_table(records).items():
            med, q1, q3, spread = summary(values)
            print(f"   {name:48s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:6.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
