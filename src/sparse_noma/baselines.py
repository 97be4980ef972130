"""Dense baselines, fixed-Eb/N0 rate solving, load sweeps, envelopes.

Baseline spectral efficiencies are functions of (beta, snr) only:
Cover-Wyner sum capacity, orthogonal transmission (beta <= 1), and
random-spreading dense CDMA under optimum and LMMSE decoding.  The sparse
closed forms live in `capacity` and exist only on the integer lattice
beta*d in {2, 3, ...}; `_rate_fn` alone maps a scheme name to its rate.  A
load sweep solves every scheme at a common Eb/N0 via the fixed point
R = C(R * ebn0 / beta) and adds the time-sharing (upper concave) envelope
over the sparse lattice points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .capacity import _cavity, capacity_lmmse, capacity_optimum
from .errors import ConfigurationError, DomainError, NumericalError
from .spectral import SystemConfig
from .units import LN2

__all__ = [
    "SCHEMES",
    "RatePoint",
    "SweepTable",
    "baseline_rate",
    "solve_rate_at_ebn0",
    "timeshare_envelope",
    "sweep_load",
]

SCHEMES = (
    "sparse_opt",
    "sparse_lmmse",
    "rs_cdma_opt",
    "rs_cdma_lmmse",
    "orthogonal",
    "cover_wyner",
    "timeshare_envelope",
)

_SPARSE_SCHEMES = SCHEMES[:2]
_DENSE_SCHEMES = SCHEMES[2:6]
_DENSE_OVERLOADED = tuple(s for s in _DENSE_SCHEMES if s != "orthogonal")

_RATE_RESIDUAL_TOL = 1e-10  # bits up to 100 bits, relative to rate/100 above


@dataclass(frozen=True)
class RatePoint:
    """One operating point: scheme, load, solved rate, and where it sits.

    snr is None for envelope points, which are time-sharing mixtures rather
    than single operating points.  below_threshold marks ebn0 <= ln 2, where
    the only fixed point is rate 0.  rate_evals counts the rate-function calls
    of the solve, residual check included; 0 when nothing was solved.
    """

    scheme: str
    beta: float
    rate: float
    ebn0: float
    snr: float | None
    d: int | None = None
    beta_d: int | None = None
    route: str = "closed_form"
    below_threshold: bool = False
    rate_evals: int = 0


@dataclass(frozen=True)
class SweepTable:
    """Rate points over a load grid at fixed Eb/N0 (and fixed d for sparse)."""

    points: tuple[RatePoint, ...]
    d: int | None = None


def baseline_rate(scheme: str, beta: float, snr: float) -> float:
    """Dense-baseline spectral efficiency in bits/s/Hz at linear snr.

    Domain beta > 0, snr >= 0 and beta snr <= 1e306, else `DomainError`;
    every scheme is exactly 0 at snr = 0.  The first term to overflow is
    beta snr, in Cover-Wyner's log1p(beta snr) and the optimum's
    log1p(beta snr/P_u), past about 1.8e308; P_r, about (beta - 1) snr,
    follows and sends the LMMSE rate to 0.  The bound is a contract below
    both.  The RS-CDMA rates are Verdu and Shamai's (IEEE
    T-IT 1999), read from the `_cavity` fixed point at alpha = 1, the
    d -> infinity limit of the sparse closed forms: beta log1p(snr/P_r) nats
    under LMMSE, plus log1p(beta snr/P_u) - beta snr/(P_u P_r) under optimum
    decoding.  Against Verdu-Shamai's radicals in mpmath, from -40 to 120 dB
    at 41 loads from 0.01 to 20: within 1.2e-14 bits, and 5.4e-16 relative
    below -10 dB; over random beta in [1e-3, 1e3] and snr in [1e-12, 1e12],
    4.4e-16 relative.  At any tiny snr both are beta snr log2(e) to first
    order, and never negative.
    """
    beta = float(beta)
    snr = float(snr)
    if not math.isfinite(beta) or beta <= 0.0:
        raise DomainError(f"beta must be finite and positive, got {beta!r}")
    if not math.isfinite(snr) or snr < 0.0:
        raise DomainError(f"snr must be finite and >= 0, got {snr!r}")
    if beta * snr > 1e306:
        raise DomainError(f"the baselines support beta * snr <= 1e306, got beta={beta!r}, snr={snr!r}")

    if scheme == "cover_wyner":
        return math.log1p(beta * snr) / LN2
    if scheme == "orthogonal":
        if scheme not in _dense_schemes(beta):
            raise DomainError(f"orthogonal transmission requires beta <= 1, got {beta!r}")
        return beta * math.log1p(snr) / LN2
    if scheme in ("rs_cdma_opt", "rs_cdma_lmmse"):
        p_u, p_r = _cavity(1.0, beta, snr)
        nats = beta * math.log1p(snr / p_r)
        if scheme == "rs_cdma_opt":
            nats += math.log1p(beta * snr / p_u) - beta * snr / (p_u * p_r)
        return nats / LN2
    raise DomainError(f"unknown baseline scheme {scheme!r}; pick from {_DENSE_SCHEMES}")


def _dense_schemes(beta: float) -> tuple[str, ...]:
    """The dense schemes at load beta, in `SCHEMES` order: orthogonal only up to beta = 1."""
    return _DENSE_SCHEMES if beta <= 1.0 else _DENSE_OVERLOADED


def _rate_fn(scheme: str, beta: float, cfg: SystemConfig | None = None) -> Callable[[float], float]:
    """Bits/s/Hz against linear snr of one named scheme at load beta.

    Sparse schemes read the degree pair of cfg, and cfg itself at its snr, so
    a caller holding a config builds no other; dense ones read beta alone.
    """
    if scheme in _SPARSE_SCHEMES:
        capacity = capacity_optimum if scheme == "sparse_opt" else capacity_lmmse
        return lambda snr: capacity(cfg if snr == cfg.snr else cfg.with_snr(snr)).spectral_efficiency
    return lambda snr: baseline_rate(scheme, beta, snr)


def solve_rate_at_ebn0(
    rate_fn: Callable[[float], float],
    beta: float,
    ebn0: float,
    *,
    scheme: str = "custom",
    d: int | None = None,
    beta_d: int | None = None,
) -> RatePoint:
    """Solve R = rate_fn(R * ebn0 / beta) for the positive fixed point.

    rate_fn maps linear snr to bits/s/Hz.  R = 0 is always a fixed point;
    above the universal threshold ebn0 > ln 2 a unique positive one exists
    for the capacity curves handled here.  Bracketing doubles an upper bound
    from 1 until the residual changes sign.  ITP (Oliveira & Takahashi, ACM
    TOMS 47(1), 2020) then keeps shortfall(lo) < 0 <= shortfall(hi) and stops
    at hi - lo <= 1e-12 * max(1, lo), lo taken after bracketing: regula falsi
    steps clipped so no width exceeds bisection's one step earlier, hence at
    most one evaluation more than bisection to that width (about 16, not 45,
    on the sweep lattice).  It returns the midpoint, within 0.5e-12 * max(1,
    lo) of the root.  It raises `NumericalError` if rate_fn gives a
    non-finite value, or if the residual at the midpoint passes 1e-10 *
    max(1, rate/100) bits, at least twice that.
    """
    beta = float(beta)
    ebn0 = float(ebn0)
    if not math.isfinite(beta) or beta <= 0.0:
        raise DomainError(f"beta must be finite and positive, got {beta!r}")
    if not math.isfinite(ebn0) or ebn0 <= 0.0:
        raise DomainError(f"ebn0 must be finite and positive (linear), got {ebn0!r}")

    zero = RatePoint(
        scheme=scheme, beta=beta, rate=0.0, ebn0=ebn0, snr=0.0,
        d=d, beta_d=beta_d, below_threshold=True,
    )
    if ebn0 <= LN2:
        return zero
    calls: list[float] = []

    def shortfall(r: float) -> float:
        calls.append(r)
        value = rate_fn(r * ebn0 / beta)
        if not math.isfinite(r - value):
            raise NumericalError(f"rate function gave {value!r} at rate {r!r} for scheme={scheme!r}")
        return r - value

    lo = 1e-18
    if (f_lo := shortfall(lo)) >= 0.0:
        # rate function vanishes faster than linearly; no positive rate
        return zero
    hi = 1.0
    doublings = 0
    while (f_hi := shortfall(hi)) < 0.0:
        lo, f_lo = hi, f_hi
        hi *= 2.0
        doublings += 1
        if doublings > 60:
            raise NumericalError(
                f"rate bracket did not close for scheme={scheme!r}, beta={beta!r}, ebn0={ebn0!r}"
            )
    eps = 0.5e-12 * max(1.0, lo)
    kappa1 = 0.2 / (hi - lo)  # ITP constants: this kappa1, kappa2 = 1.5, n0 = 1
    bound = hi - lo  # bisection's width one step earlier; no step may leave a wider bracket
    while hi - lo > 2.0 * eps:
        mid = 0.5 * (lo + hi)
        falsi = (hi * f_lo - lo * f_hi) / (f_lo - f_hi)
        delta = kappa1 * (hi - lo) ** 1.5
        x = falsi + math.copysign(delta, mid - falsi) if delta <= abs(mid - falsi) else mid
        x = min(max(x, hi - bound), lo + bound)
        if not lo < x < hi:  # a nudge below one ulp leaves falsi on an end
            x = mid
        if (f_x := shortfall(x)) < 0.0:
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x
        bound *= 0.5
    rate = 0.5 * (lo + hi)
    snr = rate * ebn0 / beta
    tol = _RATE_RESIDUAL_TOL * max(1.0, rate / 100.0)
    if not abs(rate - rate_fn(snr)) <= tol:
        raise NumericalError(
            f"fixed-point residual above {tol:g} for scheme={scheme!r}, "
            f"beta={beta!r}, ebn0={ebn0!r}"
        )
    return RatePoint(scheme=scheme, beta=beta, rate=rate, ebn0=ebn0, snr=snr, d=d, beta_d=beta_d,
                     rate_evals=len(calls) + 1)  # the residual check is one more call


def _upper_concave_hull(pts: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Upper hull of (beta, rate) pairs by the monotone-chain construction.

    Only the highest rate at each load enters the chain, so vertex loads
    strictly increase.
    """
    hull: list[tuple[float, float]] = []
    for p in dict(sorted(pts)).items():  # the dict keeps the last, highest, rate at each load
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop middle point when it is at or below the chord
            if (x2 - x1) * (p[1] - y1) - (p[0] - x1) * (y2 - y1) >= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _interp_hull(hull: Sequence[tuple[float, float]], beta: float) -> float:
    xs = [p[0] for p in hull]
    if beta <= xs[0]:
        return hull[0][1]
    if beta >= xs[-1]:
        return hull[-1][1]
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= beta <= x2:
            t = (beta - x1) / (x2 - x1)
            return y1 + t * (y2 - y1)
    raise NumericalError("hull interpolation fell through")  # pragma: no cover


def timeshare_envelope(points: Sequence[RatePoint]) -> SweepTable:
    """Upper concave envelope over load of the given operating points.

    Points may mix column degrees (pooled time sharing) or come from a
    single d; the envelope only sees (beta, rate), and its points and table
    keep the default d and route.  With fewer than two distinct loads the
    input is returned unchanged.
    """
    if not points:
        return SweepTable(points=())
    ebn0s = {p.ebn0 for p in points}
    if len(ebn0s) != 1:
        raise ConfigurationError("envelope requires a common ebn0 across points")
    ebn0 = ebn0s.pop()
    hull = _upper_concave_hull([(p.beta, p.rate) for p in points])
    if len(hull) < 2:  # a single distinct load
        return SweepTable(points=tuple(points))
    return SweepTable(points=tuple(
        RatePoint(scheme="timeshare_envelope", beta=b, rate=r, ebn0=ebn0, snr=None) for b, r in hull
    ))


def sweep_load(d: int, ebn0: float, beta_grid: Sequence[float]) -> SweepTable:
    """Solve all schemes over a load grid at fixed Eb/N0 (linear).

    Sparse closed forms are evaluated only at admissible lattice loads
    beta = beta_d / d with integer beta_d >= 2 inside the grid span; dense
    baselines cover every grid load (orthogonal only up to beta = 1).  The
    time-sharing envelopes of the two sparse families are interpolated back
    onto the grid so concavity is visible row by row.
    """
    betas = sorted({float(b) for b in beta_grid})
    if not betas:
        raise ConfigurationError("beta_grid is empty")
    for b in betas:
        if not math.isfinite(b):
            raise ConfigurationError(f"loads must be finite, got {b!r}")
    if betas[0] <= 0.0:
        raise ConfigurationError(f"loads must be positive, got {betas[0]!r}")
    lo, hi = betas[0], betas[-1]

    bd_lo = max(2, math.ceil(lo * d - 1e-9))
    bd_hi = math.floor(hi * d + 1e-9)
    if bd_hi < bd_lo:
        raise ConfigurationError(
            f"no admissible lattice point beta_d in [{bd_lo}, {bd_hi}] "
            f"for d={d} over loads [{lo!r}, {hi!r}]"
        )

    lattice = [SystemConfig(d, bd) for bd in range(bd_lo, bd_hi + 1)]
    operating = [(s, cfg.beta, cfg) for cfg in lattice for s in _SPARSE_SCHEMES]
    operating += [(s, beta, None) for beta in betas for s in _dense_schemes(beta)]
    points = [
        solve_rate_at_ebn0(
            _rate_fn(s, beta, cfg), beta, ebn0, scheme=s,
            d=cfg and cfg.d, beta_d=cfg and cfg.beta_d,
        )
        for s, beta, cfg in operating
    ]

    for scheme in _SPARSE_SCHEMES:
        hull = _upper_concave_hull([(p.beta, p.rate) for p in points if p.scheme == scheme])
        if len(hull) < 2:  # a single lattice point has no envelope
            continue
        env_betas = sorted({c.beta for c in lattice} | {b for b in betas if hull[0][0] <= b <= hull[-1][0]})
        points.extend(
            RatePoint(
                scheme="timeshare_envelope", beta=b, rate=_interp_hull(hull, b),
                ebn0=ebn0, snr=None, d=d, route=scheme,
            )
            for b in env_betas
        )

    order = {s: i for i, s in enumerate(SCHEMES)}
    points.sort(key=lambda p: (order[p.scheme], p.route, p.beta))
    return SweepTable(points=tuple(points), d=d)
