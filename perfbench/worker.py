"""One benchmark run inside a fresh process (started by run.py).

Order: imports, input generation and one untimed warm-up op of each kind
(set-up); the timed op list; peak RSS; then verification, which is where
mpmath and the reference file are first loaded.  With --trace 1 the op list
runs once untraced and once traced, and the per-layer metrics come from the
traced pass.  The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def workload_class(name: str):
    if name == "closed_form":
        from wl_closed_form import ClosedForm

        return ClosedForm
    import wl_montecarlo

    return {"mc_capacity": wl_montecarlo.McCapacity, "mc_spectrum": wl_montecarlo.McSpectrum,
            "signature_large": wl_montecarlo.SignatureLarge}[name]


def rounds_for(cls, seconds: float) -> int:
    """Whole rounds for a run of about `seconds` on the reference machine.

    A fixed function of --seconds, never of measured speed, so a faster
    program does the same work in less time.
    """
    return max(1, round(seconds / cls.nominal_round_s))


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    for mod in (np, scipy):
        try:
            blas[mod.__name__] = mod.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except Exception:  # the build-info layout differs between releases
            blas[mod.__name__] = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python_threads": threading.active_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="launcher clock just before this process started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import common

    cls = workload_class(args.workload)
    rounds = rounds_for(cls, args.seconds)
    wl = cls(args.seed, rounds)
    common.run_ops(wl.warmup)
    setup_s = time.perf_counter() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    t_start = time.perf_counter()
    results = common.run_ops(wl.ops)
    wall = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        import spans

        results = None  # the traced pass is the one verified
        tracer = spans.Tracer()
        restore = spans.instrument(tracer)
        try:
            t_traced = time.perf_counter()
            results = common.run_ops(wl.ops, tracer)
            traced_wall = time.perf_counter() - t_traced
        finally:
            restore()

    failed, problems = wl.verify(results)
    if args.trace:
        import per_layer

        metrics = per_layer.metrics(wl, tracer, traced_wall, wall)
        provenance = per_layer.PROVENANCE
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    else:
        provenance = {}
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall, "s"),
            "ops_per_s": (len(results) / wall, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "correct": not problems,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "provenance": provenance,
        "failed_ops": {repr(results[i].op.key): why for i, why in sorted(failed.items())},
        "problems": problems[:50],
        "op_kinds": {k: [r.seconds for r in results if r.op.kind == k]
                     for k in dict.fromkeys(r.op.kind for r in results)},
        "environment": environment(),
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
