"""Closed-form spectral efficiency of the regular sparse ensemble.

Optimum (joint) decoding and per-user LMMSE filtering both admit closed
forms built from two algebraic kernels F and G of the derived ensemble
constants.  One private kernel gives the F-terms of both closed forms and
of the dense Verdu-Shamai baselines as sums of nonnegative parts, so no SNR
cancels (log1p keeps small-SNR relative precision); an independent route
integrates log2(1 + snr*lam) against the limiting spectrum and serves as
the oracle for the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .spectral import (
    DerivedParams,
    SpectralDensity,
    SystemConfig,
    derive_params,
    integrate_against_density,
    spectral_density,
)
from .units import LN2

__all__ = [
    "CapacityResult",
    "MmseError",
    "kernel_F",
    "kernel_G",
    "capacity_optimum",
    "capacity_integral_oracle",
    "capacity_lmmse",
    "lmmse_error",
]


@dataclass(frozen=True)
class CapacityResult:
    """Spectral efficiency in bits/s/Hz for one config and receiver."""

    config: SystemConfig
    receiver: str  # "optimum" | "lmmse"
    spectral_efficiency: float
    route: str  # "closed_form" | "integral_oracle"


@dataclass(frozen=True)
class MmseError:
    """Large-system per-user LMMSE diagnostics: MMSE m1 and output SINR."""

    config: SystemConfig
    m1: float
    sinr: float


def _check_kernel_args(x: float, z: float) -> tuple[float, float]:
    x = float(x)
    z = float(z)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"kernel argument x must be finite and >= 0, got {x!r}")
    if not math.isfinite(z) or z < 0.0:
        raise DomainError(f"kernel argument z must be finite and >= 0, got {z!r}")
    return x, z


def _kernel_terms(x: float, z: float) -> tuple[float, float, float, float]:
    """u = x - F/4, l = z x - F/4, F/4 and F/(4x) for F = kernel_F(x, z), unchecked.

    With p, q = sqrt(x(1 +- sqrt z)^2 + 1) and w = x (1 - z): F/4 =
    4 z (x/(p + q))^2 (no x^2), u, l = (p q - 1 +- w)/2 with p q - 1 =
    (p - 1) q + (q - 1) from nonnegative parts, and u l = F/4, so the one of
    u, l that would subtract is F/4 over the other.  None of them cancels.
    """
    rz = math.sqrt(z)
    a = (1.0 + rz) ** 2
    b = (1.0 - rz) ** 2
    p = math.sqrt(x * a + 1.0)
    q = math.sqrt(x * b + 1.0)
    pq_m1 = x * a / (1.0 + p) * q + x * b / (1.0 + q)
    w = x * (1.0 - z)
    r = x / (p + q)
    f4 = 4.0 * z * r * r
    big = (pq_m1 + abs(w)) / 2.0
    small = f4 / big if big > 0.0 else 0.0
    u, l = (big, small) if w >= 0.0 else (small, big)
    return u, l, f4, 4.0 * z * r / (p + q)


def kernel_F(x: float, z: float) -> float:
    """F(x, z) = (sqrt(x(1+sqrt z)^2 + 1) - sqrt(x(1-sqrt z)^2 + 1))^2, without cancelling."""
    return 4.0 * _kernel_terms(*_check_kernel_args(x, z))[2]


def _kernel_G_excess(x: float, y: float, z: float) -> float:
    """G(x, y, z) - 1, accurate for small x where G -> 1.

    With A = y - (1-sqrt z)^2, B = y - (1+sqrt z)^2 the defining ratio is
    (num/den)^2, num = sqrt(A(x a + 1)) - sqrt(B(x b + 1)), den =
    sqrt(A) - sqrt(B).  num - den is computed term by term in conjugate
    form, then G - 1 = (num - den)(num + den)/den^2.
    """
    x, z = _check_kernel_args(x, z)
    y = float(y)
    if z == 0.0:
        raise DomainError("kernel_G requires z > 0")
    rz = math.sqrt(z)
    a = (1.0 + rz) ** 2
    b = (1.0 - rz) ** 2
    if not math.isfinite(y) or y < a:
        raise DomainError(f"kernel_G requires y >= (1 + sqrt z)^2 = {a!r}, got {y!r}")
    ra = math.sqrt(y - b)  # sqrt(A)
    rb = math.sqrt(y - a)  # sqrt(B)
    den = ra - rb
    # sqrt(1 + x a) - 1 without cancellation, likewise for b
    ea = x * a / (1.0 + math.sqrt(1.0 + x * a))
    eb = x * b / (1.0 + math.sqrt(1.0 + x * b))
    diff = ra * ea - rb * eb  # num - den
    return diff * (2.0 * den + diff) / (den * den)


def kernel_G(x: float, y: float, z: float) -> float:
    """Squared-ratio kernel; >= 1 for x >= 0 on its domain y >= (1+sqrt z)^2."""
    return 1.0 + _kernel_G_excess(x, y, z)


def _check_snr(config: SystemConfig) -> None:
    if config.beta_d**2 * config.snr > 1e306:  # the G excess would overflow
        raise DomainError(f"the closed forms support 0 <= snr <= 1e306 / beta_d^2, got {config!r}")


def _log1p_checked(u: float, what: str, config: SystemConfig) -> float:
    if not u > -1.0:
        raise NumericalError(
            f"log argument 1 + ({u!r}) <= 0 in {what} for d={config.d}, "
            f"beta_d={config.beta_d}, snr={config.snr!r}"
        )
    return math.log1p(u)


def capacity_optimum(config: SystemConfig) -> CapacityResult:
    """Optimum-decoding spectral efficiency, closed form, in bits/s/Hz.

    Domain 0 <= snr <= 1e306 / beta_d^2 (so snr = 1e300 for beta_d <= 1000),
    else `DomainError`; within 1e-12 relative of the paper's formula in
    mpmath, checked from snr = 1e-12 to 1e150.
    """
    _check_snr(config)
    p = derive_params(config)
    snr = config.snr
    d, beta_d = config.d, config.beta_d

    x = p.gamma * snr
    u, l, f4, _ = _kernel_terms(x, p.beta_tilde)
    # coefficients are ratios of exact integers, each rounded once
    c1 = (beta_d * (d - 1) + d) / (2 * d)  # (beta(d-1) + 1)/2
    c3 = (beta_d * (d - 1) - d) / (2 * d)  # (beta(d-1) - 1)/2

    # 1 + (gamma + alpha) snr - F/4 = 1 + u + l + F/4 and 1 + alpha snr - F/4 = 1 + l
    nats = c1 * math.log1p(u + l + f4)
    if beta_d != d:
        nats += (beta_d - d) / d * math.log1p(l)  # beta - 1
    if c3 != 0.0:
        # log((1 + beta_d snr)^2 / G) split so both pieces use log1p
        g_excess = _kernel_G_excess(x, p.zeta, p.beta_tilde)
        nats -= c3 * (
            2.0 * math.log1p(beta_d * snr) - _log1p_checked(g_excess, "optimum term 3", config)
        )
    return CapacityResult(config, "optimum", nats / LN2, "closed_form")


def capacity_integral_oracle(config: SystemConfig) -> CapacityResult:
    """Independent route: integrate log2(1 + snr*lam) against the spectrum."""
    snr = config.snr
    density = spectral_density(config)
    value = integrate_against_density(density, lambda lam: np.log1p(snr * lam) / LN2)
    return CapacityResult(config, "optimum", value, "integral_oracle")


def capacity_lmmse(config: SystemConfig) -> CapacityResult:
    """LMMSE-then-single-user-decoding spectral efficiency, closed form.

    Same snr domain and accuracy as `capacity_optimum`.
    """
    _check_snr(config)
    p = derive_params(config)
    snr = config.snr
    u = _kernel_terms(p.gamma * snr, p.beta_tilde)[0]
    # 1 + d gamma snr - d F/4 = 1 + d u
    nats = math.log1p(config.beta_d * snr) - math.log1p(config.d * u)
    return CapacityResult(config, "lmmse", p.beta * nats / LN2, "closed_form")


def lmmse_error(config: SystemConfig) -> MmseError:
    """Large-system limit m1 of the per-user MMSE, and the output SINR.

    m1 = (1/snr) m_R(-1/snr), m_R the Stieltjes transform of the limiting law
    of the user-side Gram matrix (1/d) A^H A.  With s = snr, alpha = (d-1)/d
    and b = 1 - (1 - beta) s, the inner transform's quadratic at z = -1/s
    gives v = 1 + alpha m_inner - (1 - beta) s as the positive root of
    v^2 - b v - alpha s = 0, taken in conjugate form so that nothing cancels;
    then m1 = v/(s + v) and sinr = s/v.  The route does not use the kernel F,
    so it stays independent of `capacity_lmmse`.

    Domain 0 <= snr <= 1e306 / beta_d^2, else `DomainError`; beta
    log2(1 + sinr) is within 1e-13 relative of the paper's LMMSE formula in
    mpmath, checked from snr = 1e-12 to 1e14 for d, beta_d from 2 to 1e5
    (worst seen 3.3e-16).
    """
    _check_snr(config)
    s = config.snr
    alpha = (config.d - 1) / config.d
    b = 1.0 - (1.0 - config.beta) * s
    r = math.hypot(b, 2.0 * math.sqrt(alpha * s))  # sqrt(b^2 + 4 alpha s) without overflow
    v = (b + r) / 2.0 if b >= 0.0 else 2.0 * alpha * s / (r - b)
    m1 = v / (s + v)
    if not 0.0 < m1 <= 1.0:
        raise NumericalError(f"m1={m1!r} outside (0, 1] for {config!r}")
    return MmseError(config, m1=m1, sinr=s / v)
