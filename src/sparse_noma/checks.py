"""Named numerical checks backing `sparse-noma validate` and the acceptance suite.

Every check is deterministic (fixed seeds) and returns (ok, detail).  The
eight acceptance checks pin the headline contracts: closed form against the
integral oracle, the arcsine special case, Monte Carlo agreement, spectrum
convergence, moment identities, extreme-SNR behavior, the dense limit, and
the qualitative load-sweep picture.  The remaining checks cover per-module
invariants that are cheap enough to run everywhere.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .asymptotics import (
    high_snr_lmmse,
    high_snr_optimum,
    low_snr_lmmse,
    low_snr_optimum,
)
from .baselines import RatePoint, baseline_rate, solve_rate_at_ebn0, sweep_load, timeshare_envelope
from .capacity import capacity_integral_oracle, capacity_lmmse, capacity_optimum
from .montecarlo import (
    KS_MIN_RESOURCES,
    KS_THRESHOLD,
    _frobenius_sq,
    _gram_lower,
    compare_to_closed_form,
    feasible_resources,
    generate_signature,
    ks_draw,
)
from .spectral import (
    SystemConfig,
    density_at,
    derive_params,
    integrate_against_density,
    spectral_density,
    stieltjes,
)
from .units import THREE_DB

GRID_D = range(2, 7)
GRID_BD = range(2, 13)
GRID_SNR = (0.01, 0.1, 1.0, 10.0, 100.0)
MC_CONFIGS = ((2, 2), (3, 2), (3, 6), (10, 10))
FIG1_D = (2, 3, 10)


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str
    seconds: float


def check_oracle_agreement() -> tuple[bool, str]:
    """Closed-form optimum capacity vs the spectral-integral oracle, full grid."""
    t0 = time.perf_counter()
    worst, worst_at = 0.0, None
    cells = 0
    for d in GRID_D:
        for bd in GRID_BD:
            for snr in GRID_SNR:
                cfg = SystemConfig(d, bd, snr)
                dev = abs(
                    capacity_optimum(cfg).spectral_efficiency
                    - capacity_integral_oracle(cfg).spectral_efficiency
                )
                cells += 1
                if dev > worst:
                    worst, worst_at = dev, (d, bd, snr)
    dt = time.perf_counter() - t0
    ok = worst < 1e-9 and dt < 10.0
    return ok, f"max |closed-oracle| = {worst:.2e} at {worst_at} over {cells} cells in {dt:.2f}s"


def check_arcsine_point() -> tuple[bool, str]:
    """d = beta_d = 2 at snr 10: both closed forms against exact constants."""
    cfg = SystemConfig(2, 2, 10.0)
    ref_opt = math.log2((11.0 + math.sqrt(21.0)) / 2.0)
    ref_lmmse = 0.5 * math.log2(21.0)
    dev_opt = abs(capacity_optimum(cfg).spectral_efficiency - ref_opt)
    dev_lmmse = abs(capacity_lmmse(cfg).spectral_efficiency - ref_lmmse)
    ok = dev_opt < 1e-9 and dev_lmmse < 1e-9
    return ok, f"|opt-ref| = {dev_opt:.2e}, |lmmse-ref| = {dev_lmmse:.2e}"


def check_mc_agreement() -> tuple[bool, str]:
    """MC means vs closed forms within max(3*SE, 1%) at desk scale."""
    t0 = time.perf_counter()
    lines = []
    ok = True
    snr = 10.0
    for d, bd in MC_CONFIGS:
        cfg = SystemConfig(d, bd, snr)
        for label, receiver in (("opt", "optimum"), ("lmmse", "lmmse")):
            r = compare_to_closed_form(receiver, cfg, seed=20_000 + d * 100 + bd)
            ok = ok and r.passed
            lines.append(f"({d},{bd},{label}) dev={r.abs_dev:.2e} tol={r.tolerance:.2e}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 300.0
    return ok, f"{'; '.join(lines)}; {dt:.0f}s"


def check_ks_convergence() -> tuple[bool, str]:
    """Median KS over 10 seeds at N ~ 2000 below KS_THRESHOLD for the four configs."""
    lines = []
    ok = True
    for d, bd in MC_CONFIGS:
        cfg = SystemConfig(d, bd)
        n = feasible_resources(KS_MIN_RESOURCES, d, bd)
        dists = [
            ks_draw(n, cfg, np.random.default_rng([40_000 + d * 100 + bd, s]))
            for s in range(10)
        ]
        med = float(np.median(dists))
        ok = ok and med < KS_THRESHOLD
        lines.append(f"({d},{bd}) median KS = {med:.4f} at N={n}")
    return ok, "; ".join(lines)


def check_moment_identities() -> tuple[bool, str]:
    """Quadrature mass/mean/second moment on the full grid, plus MC traces."""
    worst = [0.0, 0.0, 0.0]
    for d in GRID_D:
        for bd in GRID_BD:
            dens = spectral_density(SystemConfig(d, bd))
            b = bd / d
            a = (d - 1) / d
            m0 = integrate_against_density(dens, lambda lam: np.ones_like(lam))
            m1 = integrate_against_density(dens, lambda lam: lam)
            m2 = integrate_against_density(dens, lambda lam: lam * lam)
            worst[0] = max(worst[0], abs(m0 - 1.0))
            worst[1] = max(worst[1], abs(m1 - b))
            worst[2] = max(worst[2], abs(m2 - (b * b + b * a)))
    quad_ok = worst[0] < 1e-10 and worst[1] < 1e-9 and worst[2] < 1e-8

    trace_ok = True
    trace_lines = []
    for d, bd in MC_CONFIGS:
        n = feasible_resources(2000, d, bd)
        sig = generate_signature(n, d, bd, "uniform", np.random.default_rng([50_000 + d, bd]))
        b = bd / d
        m1_emp = float(np.abs(sig.weights**2).sum()) / (d * n)
        m2_emp = _frobenius_sq(*_gram_lower(sig)[:3]) / (d * d * n)
        m2_lim = b * b + b * (d - 1) / d
        r1, r2 = abs(m1_emp - b) / b, abs(m2_emp - m2_lim) / m2_lim
        trace_ok = trace_ok and r1 < 0.01 and r2 < 0.01
        trace_lines.append(f"({d},{bd}) trace rel dev = {r1:.1e}/{r2:.1e}")
    ok = quad_ok and trace_ok
    return ok, (
        f"quadrature worst mass/mean/second = {worst[0]:.1e}/{worst[1]:.1e}/{worst[2]:.1e}; "
        + "; ".join(trace_lines)
    )


def _fd_slope(capfn: Callable, d: int, bd: int) -> float:
    s1, s2 = 1e-5, 2e-5
    c1 = capfn(SystemConfig(d, bd, s1)).spectral_efficiency
    c2 = capfn(SystemConfig(d, bd, s2)).spectral_efficiency
    dep_db = 10.0 * math.log10((s2 * c1) / (s1 * c2))
    return THREE_DB * (c2 - c1) / dep_db


def check_extreme_snr() -> tuple[bool, str]:
    """Secant slopes near snr = 1e-5 vs s0; affine residuals at snr = 1e6."""
    worst_slope = 0.0
    worst_resid = 0.0
    for d in GRID_D:
        for bd in GRID_BD:
            s_opt = low_snr_optimum(d, bd).s0
            s_lm = low_snr_lmmse(d, bd).s0
            worst_slope = max(
                worst_slope,
                abs(_fd_slope(capacity_optimum, d, bd) / s_opt - 1.0),
                abs(_fd_slope(capacity_lmmse, d, bd) / s_lm - 1.0),
            )
            snr = 1e6
            hi = high_snr_optimum(d, bd)
            worst_resid = max(
                worst_resid,
                abs(
                    capacity_optimum(SystemConfig(d, bd, snr)).spectral_efficiency
                    - hi.rate(snr)
                ),
            )
            hi = high_snr_lmmse(d, bd)
            if hi.l_inf is not None:
                worst_resid = max(
                    worst_resid,
                    abs(
                        capacity_lmmse(SystemConfig(d, bd, snr)).spectral_efficiency
                        - hi.rate(snr)
                    ),
                )
    ok = worst_slope < 1e-3 and worst_resid < 1e-2
    return ok, f"worst slope rel dev = {worst_slope:.1e}, worst affine residual = {worst_resid:.1e}"


def check_dense_limit() -> tuple[bool, str]:
    """d = 500 matches RS-CDMA within 1e-2; strict superiority; monotone in d."""
    worst = 0.0
    for b, bd in ((0.5, 250), (1.0, 500), (2.0, 1000)):
        for snr in GRID_SNR:
            cfg = SystemConfig(500, bd, snr)
            worst = max(
                worst,
                abs(capacity_optimum(cfg).spectral_efficiency - baseline_rate("rs_cdma_opt", b, snr)),
                abs(capacity_lmmse(cfg).spectral_efficiency - baseline_rate("rs_cdma_lmmse", b, snr)),
            )
    dense_ok = worst < 1e-2

    superior = True
    ebn0 = 10.0 ** (10.0 / 10.0)
    for d in FIG1_D:
        for bd in range(2, 3 * d + 1):
            beta = bd / d
            sparse = solve_rate_at_ebn0(
                lambda snr, c=SystemConfig(d, bd): capacity_optimum(c.with_snr(snr)).spectral_efficiency,
                beta, ebn0, scheme="sparse_opt", d=d, beta_d=bd,
            ).rate
            dense = solve_rate_at_ebn0(
                lambda snr, b=beta: baseline_rate("rs_cdma_opt", b, snr), beta, ebn0,
                scheme="rs_cdma_opt",
            ).rate
            superior = superior and sparse > dense

    monotone = True
    for b in (1, 2, 3):
        for snr in GRID_SNR:
            vals = [
                capacity_optimum(SystemConfig(d, b * d, snr)).spectral_efficiency
                for d in (2, 3, 10, 100)
            ]
            monotone = monotone and all(x > y for x, y in zip(vals, vals[1:]))
    ok = dense_ok and superior and monotone
    return ok, (
        f"d=500 max dev = {worst:.2e}; lattice superiority = {superior}; "
        f"monotone in d = {monotone}"
    )


def _recompute_rate(p: RatePoint) -> float:
    if p.scheme == "sparse_opt":
        return capacity_optimum(SystemConfig(p.d, p.beta_d, p.snr)).spectral_efficiency
    if p.scheme == "sparse_lmmse":
        return capacity_lmmse(SystemConfig(p.d, p.beta_d, p.snr)).spectral_efficiency
    return baseline_rate(p.scheme, p.beta, p.snr)


def check_load_sweep() -> tuple[bool, str]:
    """Qualitative orderings, fixed-point residuals, envelope concavity at 10 dB."""
    ebn0 = 10.0 ** (10.0 / 10.0)
    problems = []
    for d in FIG1_D:
        # 0.05-step grid from the first admissible load up to 3, with the
        # lattice loads folded in so baselines exist at every sparse point
        grid = sorted(
            {b / 20.0 for b in range(math.ceil(20 * 2 / d), 61)}
            | {bd / d for bd in range(2, 3 * d + 1)}
        )
        table = sweep_load(d, ebn0, grid)
        by_scheme: dict[str, dict[float, RatePoint]] = {}
        for p in table.points:
            if p.scheme != "timeshare_envelope":
                by_scheme.setdefault(p.scheme, {})[p.beta] = p

        for p in table.points:
            if p.scheme == "timeshare_envelope" or p.below_threshold:
                continue
            # solved operating points satisfy both defining identities
            if abs(p.beta * p.snr - p.rate * p.ebn0) > 1e-9 * max(1.0, p.rate * p.ebn0):
                problems.append(f"power identity off at {p.scheme} beta={p.beta:.3f} d={d}")
            if abs(p.rate - _recompute_rate(p)) > 1e-9:
                problems.append(f"fixed-point residual off at {p.scheme} beta={p.beta:.3f} d={d}")

        for beta, sp in by_scheme.get("sparse_opt", {}).items():
            cw = by_scheme["cover_wyner"][beta].rate
            rs = by_scheme["rs_cdma_opt"][beta].rate
            lm = by_scheme["sparse_lmmse"][beta].rate
            rs_lm = by_scheme["rs_cdma_lmmse"][beta].rate
            if not (cw > sp.rate > rs):
                problems.append(f"optimum ordering broken at d={d} beta={beta:.3f}")
            if not (sp.rate > lm > rs_lm):
                problems.append(f"lmmse ordering broken at d={d} beta={beta:.3f}")
            if beta <= 1.0 and by_scheme["orthogonal"][beta].rate < sp.rate:
                problems.append(f"orthogonal below sparse at d={d} beta={beta:.3f}")

        for route in ("sparse_opt", "sparse_lmmse"):
            env = sorted(
                (p for p in table.points if p.scheme == "timeshare_envelope" and p.route == route),
                key=lambda p: p.beta,
            )
            gens = by_scheme[route]
            for a, b, c in zip(env, env[1:], env[2:]):
                left = (b.rate - a.rate) / (b.beta - a.beta)
                right = (c.rate - b.rate) / (c.beta - b.beta)
                if right - left > 1e-12:
                    problems.append(f"envelope not concave at d={d} beta={b.beta:.3f} ({route})")
            for p in env:
                if p.beta in gens and p.rate < gens[p.beta].rate - 1e-9:
                    problems.append(f"envelope below generator at d={d} beta={p.beta:.3f} ({route})")
    ok = not problems
    return ok, "all orderings, residuals, and envelopes hold" if ok else "; ".join(problems[:4])


def check_stieltjes_branch() -> tuple[bool, str]:
    """Branch sanity for 1000 z in the upper half-plane plus the real axis."""
    rng = np.random.default_rng(7)
    worst_resid = 0.0
    ok = True
    for d, bd in ((2, 2), (3, 2), (3, 6), (6, 12), (10, 10)):
        p = derive_params(SystemConfig(d, bd))
        for _ in range(200):
            z = complex(rng.uniform(-5, bd + 5), 10.0 ** rng.uniform(-6, 2))
            sv = stieltjes(p, z)
            ok = ok and sv.m_inner.imag > 0 and sv.m_outer.imag > 0
            ok = ok and abs(sv.m_outer) <= 1.0 / z.imag * (1 + 1e-9)
            t1 = p.alpha * z * sv.m_inner**2
            t2 = (z + p.alpha - p.gamma) * sv.m_inner
            resid = abs(t1 + t2 + 1) / max(1.0, abs(t1), abs(t2))
            worst_resid = max(worst_resid, resid)
        for x in (-100.0, -1.0, -1e-3):
            sv = stieltjes(p, x)
            ok = ok and sv.m_inner.real > 0 and sv.m_inner.imag == 0
            ok = ok and abs(sv.m_outer - (-1.0 / x)) <= -1.0 / x  # crude positivity bound
    ok = ok and worst_resid < 1e-12
    return ok, f"worst inner residual = {worst_resid:.1e}"


def check_density_inversion() -> tuple[bool, str]:
    """(1/pi) Im m_outer(lam + i*eps) matches the density on an interior grid."""
    worst = 0.0
    for d, bd in ((2, 2), (3, 2), (3, 6), (10, 10)):
        dens = spectral_density(SystemConfig(d, bd))
        p = dens.params
        for frac in np.linspace(0.08, 0.92, 12):
            lam = p.lambda_minus + frac * (p.lambda_plus - p.lambda_minus)
            rho = density_at(dens, lam)
            f3 = stieltjes(p, complex(lam, 1e-3)).m_outer.imag / math.pi
            f4 = stieltjes(p, complex(lam, 1e-4)).m_outer.imag / math.pi
            extrap = f4 + (f4 - f3) / 9.0
            worst = max(worst, abs(extrap - rho) / rho)
    return worst < 0.01, f"worst Richardson rel dev = {worst:.2e}"


def check_lmmse_identity() -> tuple[bool, str]:
    """beta * log2(1/m1), m1 from the Stieltjes transform, equals the LMMSE closed form.

    m1 = m_R(-1/snr)/snr for the user-side law m_R, and the user- and
    resource-side laws differ only by the point mass at zero, so m1 =
    m_outer(-1/snr)/(beta snr) + 1 - 1/beta: `stieltjes`' support-cut root,
    not the `_cavity` root that the closed form reads.
    """
    worst = 0.0
    for d in GRID_D:
        for bd in GRID_BD:
            p = derive_params(SystemConfig(d, bd))
            for snr in GRID_SNR:
                cfg = SystemConfig(d, bd, snr)
                m_outer = stieltjes(p, -1.0 / snr).m_outer.real
                m1 = m_outer / (cfg.beta * snr) + 1.0 - 1.0 / cfg.beta
                dev = abs(
                    cfg.beta * (-math.log2(m1)) - capacity_lmmse(cfg).spectral_efficiency
                )
                worst = max(worst, dev)
    return worst < 1e-9, f"max route deviation = {worst:.2e}"


def check_mp_limit() -> tuple[bool, str]:
    """d = 500 density close to the Marcenko-Pastur law of the same load."""
    worst = 0.0
    for b, bd in ((0.5, 250), (1.0, 500), (2.0, 1000)):
        dens = spectral_density(SystemConfig(500, bd))
        lo = (1.0 - math.sqrt(b)) ** 2
        hi = (1.0 + math.sqrt(b)) ** 2
        for lam in np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 25):
            mp = math.sqrt(max((lam - lo) * (hi - lam), 0.0)) / (2.0 * math.pi * lam)
            worst = max(worst, abs(density_at(dens, lam) - mp))
    return worst < 1e-2, f"max |density - MP| = {worst:.2e}"


def check_rate_solver() -> tuple[bool, str]:
    """Fixed-point solver basics: constants, thresholds, power identity."""
    pt = solve_rate_at_ebn0(lambda snr: 1.75, 1.0, 2.0)
    ok = abs(pt.rate - 1.75) < 1e-9 and not pt.below_threshold
    below = solve_rate_at_ebn0(
        lambda snr: baseline_rate("cover_wyner", 1.0, snr), 1.0, math.log(2.0)
    )
    ok = ok and below.rate == 0.0 and below.below_threshold
    for scheme in ("cover_wyner", "rs_cdma_opt", "rs_cdma_lmmse"):
        for beta in (0.5, 1.0, 2.5):
            p = solve_rate_at_ebn0(
                lambda snr, s=scheme, b=beta: baseline_rate(s, b, snr), beta, 10.0,
                scheme=scheme,
            )
            ok = ok and abs(p.beta * p.snr - p.rate * p.ebn0) < 1e-9
            ok = ok and abs(p.rate - baseline_rate(scheme, beta, p.snr)) < 1e-10
    env = timeshare_envelope(
        [
            RatePoint("sparse_opt", b, r, 10.0, 1.0, d=3)
            for b, r in ((0.5, 1.0), (1.0, 1.2), (1.5, 2.0), (2.0, 2.1))
        ]
    )
    rates = {p.beta: p.rate for p in env.points}
    ok = ok and 1.0 not in rates  # (1.0, 1.2) sits below the chord and is dropped
    ok = ok and rates[0.5] == 1.0 and rates[2.0] == 2.1
    return ok, "solver and envelope behave"


def check_mc_generation() -> tuple[bool, str]:
    """Degree exactness, simplicity, determinism, and phase schemes at small N."""
    ok = True
    for scheme in ("uniform", "binary", "repetition"):
        sig = generate_signature(36, 3, 4, scheme, seed=11)
        sig.validate()  # raises on any structural violation
        k = 36 * 4 // 3
        ok = ok and sig.n_users == k
        if scheme == "binary":
            ok = ok and set(np.unique(sig.weights)) <= {-1.0 + 0j, 1.0 + 0j}
        if scheme == "repetition":
            ok = ok and bool(np.all(sig.weights == 1.0))
    a = generate_signature(36, 3, 4, "uniform", seed=11)
    b = generate_signature(36, 3, 4, "uniform", seed=11)
    ok = ok and np.array_equal(a.rows, b.rows) and np.array_equal(a.weights, b.weights)
    c = generate_signature(36, 3, 4, "uniform", seed=12)
    ok = ok and not np.array_equal(a.rows, c.rows)
    return ok, "generation structural checks hold"


CHECKS: tuple[tuple[str, Callable[[], tuple[bool, str]], bool], ...] = (
    ("oracle_agreement", check_oracle_agreement, False),
    ("arcsine_point", check_arcsine_point, False),
    ("mc_agreement", check_mc_agreement, True),
    ("ks_convergence", check_ks_convergence, True),
    ("moment_identities", check_moment_identities, False),
    ("extreme_snr", check_extreme_snr, False),
    ("dense_limit", check_dense_limit, False),
    ("load_sweep", check_load_sweep, False),
    ("stieltjes_branch", check_stieltjes_branch, False),
    ("density_inversion", check_density_inversion, False),
    ("lmmse_identity", check_lmmse_identity, False),
    ("mp_limit", check_mp_limit, False),
    ("rate_solver", check_rate_solver, False),
    ("mc_generation", check_mc_generation, False),
)


def run_checks(quick: bool = False, names: tuple[str, ...] | None = None) -> list[CheckResult]:
    results = []
    for name, fn, slow in CHECKS:
        if names is not None and name not in names:
            continue
        if quick and slow:
            results.append(CheckResult(name, "skip", "skipped in quick mode", 0.0))
            continue
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
            status = "pass" if ok else "fail"
        except Exception as exc:  # a raised error is a failing check, not a crash
            status, detail = "fail", f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, status, detail, time.perf_counter() - t0))
    return results
