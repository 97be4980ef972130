#!/usr/bin/env python3
"""Compare two result files written by series.py, workload by workload.

    python3 perfbench/compare.py perfbench/out/series-base.jsonl perfbench/out/series-new.jsonl

For every metric: each side's median and quartiles (statistics.quantiles,
n=4), the interquartile spread as a share of the median, and the change of
the median.  An end-to-end metric whose median worsened by more than its
bound in BENCHMARK.json is flagged REGRESSED; one whose own spread is wider
than its bound is flagged UNRESOLVED.  Per-layer metrics (traced runs) are
listed with their deltas and no verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict:
    """{(workload, trace): [record, ...]} from a series file."""
    runs: dict = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread as a share of the median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def metric_table(records) -> dict[str, list[float]]:
    table: dict[str, list[float]] = {}
    for rec in records:
        for name, m in rec["metrics"].items():
            table.setdefault(name, []).append(m["value"])
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(args.base), load(args.new)
    regressed = False
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"== {workload} ({'per-layer' if trace else 'end-to-end'}; "
              f"{len(base[key])} vs {len(new[key])} runs)")
        for side, recs in (("base", base[key]), ("new", new[key])):
            att = sum(r["attempted"] for r in recs)
            fail = sum(r["failed"] for r in recs)
            print(f"   {side}: failed {fail}/{att} ops, correct in {sum(r['correct'] for r in recs)}/{len(recs)} runs")
        tb, tn = metric_table(base[key]), metric_table(new[key])
        for name in tb:
            if name not in tn:
                continue
            mb, q1b, q3b, sb = summary(tb[name])
            mn, q1n, q3n, sn = summary(tn[name])
            change = (mn - mb) / abs(mb) if mb else 0.0
            worse = change if better.get(name, "lower") == "lower" else -change
            verdict = ""
            if name in e2e:
                bound = e2e[name]["bound"]
                if max(sb, sn) > bound:
                    verdict = "UNRESOLVED"
                elif worse > bound:
                    verdict, regressed = "REGRESSED", True
            print(f"   {name:48s} {mb:12.5g} [{q1b:.5g}, {q3b:.5g}] {sb:6.1%}  ->"
                  f" {mn:12.5g} [{q1n:.5g}, {q3n:.5g}] {sn:6.1%}  {change:+7.1%} {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
