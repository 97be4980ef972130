"""Per-layer metrics from the spans of a traced run.

Times are medians of one call, inclusive of callees, unless the name ends in
`self_ms` (a layer's total self time over the traced pass).  Counts, flops
and bytes carry their provenance in PROVENANCE: `computed` figures come from
array sizes and textbook operation counts, `measured` ones from the run.  A
metric whose function the workload never calls reads 0.
"""

from __future__ import annotations

import statistics

from grids import MC_PAIRS

LAYERS = ("cli", "checks", "baselines", "capacity", "spectral", "montecarlo")
QUICK_CHECKS = (
    "oracle_agreement", "arcsine_point", "moment_identities", "extreme_snr", "dense_limit",
    "load_sweep", "stieltjes_branch", "density_inversion", "lmmse_identity", "mp_limit",
    "rate_solver", "mc_generation",
)
SIGNATURE_SIZES = ("n1e4", "n1e5")

# spans whose median duration is a metric named <span>_<unit>
MEDIANS = (
    ("cli.sweep", "ms"), ("cli.capacity", "ms"), ("cli.validate_quick", "ms"),
    *((f"checks.{c}", "ms") for c in QUICK_CHECKS),
    ("baselines.sweep_load", "ms"), ("baselines.solve_rate_at_ebn0", "us"),
    ("capacity.capacity_optimum", "us"), ("capacity.capacity_lmmse", "us"),
    ("capacity.capacity_integral_oracle", "ms"),
    ("spectral.integrate_against_density", "us"), ("spectral.limiting_cdf", "ms"),
    ("montecarlo.ks_distance", "ms"), ("montecarlo.empirical_spectrum", "ms"),
    ("montecarlo.lmmse_diagonal", "ms"), ("montecarlo.generate_signature", "ms"),
    ("montecarlo.signature_validate", "ms"), ("montecarlo.to_sparse", "ms"),
)
# (name, unit, better); the order is the order of BENCHMARK.json
NAMES = (
    *((f"{layer}.self_ms", "ms", "lower") for layer in LAYERS),
    ("trace.overhead_s", "s", "lower"),
    *((f"{span}_{unit}", unit, "lower") for span, unit in MEDIANS),
    ("baselines.rate_evals_per_point", "count", "lower"),
    *((f"montecarlo.{fn}_ms.p{d}_{bd}", "ms", "lower")
      for fn in ("empirical_spectrum", "lmmse_diagonal") for d, bd in MC_PAIRS),
    *((f"montecarlo.generate_signature_ms.p{d}_{bd}_{size}", "ms", "lower")
      for size in SIGNATURE_SIZES for d, bd in MC_PAIRS),
    ("montecarlo.gram_side", "count", "lower"),
    ("montecarlo.dense_gram_mb", "MB", "lower"),
    ("montecarlo.factor_gflop", "GFLOP", "lower"),
    ("montecarlo.factor_gflop_per_s", "GFLOP/s", "higher"),
)
# where each count, flop and byte figure comes from
PROVENANCE = {
    "baselines.rate_evals_per_point": "measured (counting rate_fn)",
    "montecarlo.gram_side": "computed from array sizes",
    "montecarlo.dense_gram_mb": "computed from array sizes",
    "montecarlo.factor_gflop": "computed (textbook flop counts)",
    "montecarlo.factor_gflop_per_s": "computed flops / measured time",
}


def _median(xs, scale: float) -> float:
    return statistics.median(xs) * scale if xs else 0.0


def _shape(tag: str) -> tuple[int, int, int, int]:
    """(d, beta_d, N, K) from a span tag like p3_6_n1200_k2400."""
    p, bd, n, k = tag[1:].split("_")
    return int(p), int(bd), int(n[1:]), int(k[1:])


def factor_flops(name: str, n: int, k: int) -> float:
    """Textbook real-flop count of the dense factorization behind one call.

    Complex arithmetic costs four real flops per multiply-add.  Hermitian
    eigenvalues: tridiagonal reduction, 16/3 m^3.  LMMSE diagonal: Cholesky,
    4/3 m^3, plus the triangular solve against the identity (4 m^3) when
    K <= N, or against the K user columns (4 N^2 K) when K > N.
    """
    m = min(n, k)
    if name == "montecarlo.empirical_spectrum":
        return 16.0 / 3.0 * m**3
    solve = 4.0 * m**3 if k <= n else 4.0 * n * n * k
    return 4.0 / 3.0 * m**3 + solve


def rate_evals_per_point(ops) -> float:
    """Mean rate_fn calls per solve_rate_at_ebn0, over the sweeps' lattice points."""
    from sparse_noma import SystemConfig, capacity_lmmse, capacity_optimum
    from sparse_noma.baselines import solve_rate_at_ebn0

    counts = []
    for d, db in sorted({op.key[1:] for op in ops if op.kind == "sweep"}):
        ebn0 = 10.0 ** (db / 10.0)
        for bd in range(2, 3 * d + 1):
            for cap in (capacity_optimum, capacity_lmmse):
                calls = [0]

                def rate(snr, cap=cap, cfg=SystemConfig(d, bd)):
                    calls[0] += 1
                    return cap(cfg.with_snr(snr)).spectral_efficiency

                solve_rate_at_ebn0(rate, bd / d, ebn0)
                counts.append(calls[0])
    return statistics.mean(counts) if counts else 0.0


def metrics(wl, tracer, traced_wall: float, untraced_wall: float) -> dict:
    self_s = tracer.self_seconds_by_layer()
    out = {f"{layer}.self_ms": (1e3 * self_s.get(layer, 0.0), "ms") for layer in LAYERS}
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    scale = {"ms": 1e3, "us": 1e6}
    for span, unit in MEDIANS:
        out[f"{span}_{unit}"] = (_median(tracer.durations(span), scale[unit]), unit)
    out["baselines.rate_evals_per_point"] = (rate_evals_per_point(wl.ops), "count")

    for d, bd in MC_PAIRS:
        for fn in ("empirical_spectrum", "lmmse_diagonal"):
            xs = [t for tag, t in tracer.tagged(f"montecarlo.{fn}") if _shape(tag)[:2] == (d, bd)]
            out[f"montecarlo.{fn}_ms.p{d}_{bd}"] = (_median(xs, 1e3), "ms")
        for size, lo, hi in (("n1e4", 10_000, 100_000), ("n1e5", 100_000, 1_000_000)):
            xs = [t for tag, t in tracer.tagged("montecarlo.generate_signature")
                  if tag.startswith(f"p{d}_{bd}_n") and lo <= int(tag.rsplit("_n", 1)[1]) < hi]
            out[f"montecarlo.generate_signature_ms.p{d}_{bd}_{size}"] = (_median(xs, 1e3), "ms")

    sides, flops, busy = [], 0.0, 0.0
    for fn in ("montecarlo.empirical_spectrum", "montecarlo.lmmse_diagonal"):
        for tag, t in tracer.tagged(fn):
            _, _, n, k = _shape(tag)
            sides.append(min(n, k))
            flops += factor_flops(fn, n, k)
            busy += t
    side = statistics.median(sides) if sides else 0
    out["montecarlo.gram_side"] = (float(side), "count")
    out["montecarlo.dense_gram_mb"] = (side * side * 16 / 1e6, "MB")
    out["montecarlo.factor_gflop"] = (flops / 1e9, "GFLOP")
    out["montecarlo.factor_gflop_per_s"] = (flops / 1e9 / busy if busy else 0.0, "GFLOP/s")
    return {name: out[name] for name, _, _ in NAMES}
