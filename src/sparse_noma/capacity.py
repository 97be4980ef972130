"""Closed-form spectral efficiency of the regular sparse ensemble.

The optimum (joint decoding) closed form is the Bethe free energy at the
uniform fixed point of the cavity precisions, the same fixed point that
gives the large-system LMMSE error.  The per-user LMMSE closed form is the
paper's, built from the algebraic kernel F of the derived ensemble
constants; one private kernel gives its F-terms, and those of the dense
Verdu-Shamai baselines, as sums of nonnegative parts.  No closed form
cancels at any snr or degree (log1p keeps small-SNR relative precision).
An independent route integrates log2(1 + snr*lam) against the limiting
spectrum and serves as the oracle for the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .spectral import (
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


def _check_snr(config: SystemConfig) -> None:
    # capacity_lmmse's d u, about beta_d snr, is the first term to overflow,
    # past about 1.8e308 / beta_d; the stated bound is a contract below that
    if config.beta_d**2 * config.snr > 1e306:
        raise DomainError(f"the closed forms support 0 <= snr <= 1e306 / beta_d^2, got {config!r}")


def _cavity(config: SystemConfig) -> tuple[float, float]:
    """Uniform fixed point (P_u, P_r) of the cavity precisions, unchecked.

    With s = snr, c = s/d, alpha = (d-1)/d and b = 1 - (1 - beta) s, the
    resource precision P_r = 1 + (beta_d - 1) c/P_u is the positive root of
    P_r^2 - b P_r - alpha s = 0, taken in conjugate form so that nothing
    cancels, and the user precision is P_u = 1 + (d - 1) c/P_r.
    """
    s = config.snr
    alpha = (config.d - 1) / config.d
    b = 1.0 - (1.0 - config.beta) * s
    r = math.hypot(b, 2.0 * math.sqrt(alpha * s))  # sqrt(b^2 + 4 alpha s) without overflow
    p_r = (b + r) / 2.0 if b >= 0.0 else 2.0 * alpha * s / (r - b)
    return 1.0 + alpha * s / p_r, p_r


def capacity_optimum(config: SystemConfig) -> CapacityResult:
    """Optimum-decoding spectral efficiency, closed form, in bits/s/Hz.

    The Bethe free energy of the Gaussian model at the `_cavity` fixed point,
    which is exact on the biregular tree (Yedidia, Freeman & Weiss, IEEE
    T-IT 2005; Malioutov, Johnson & Willsky, JMLR 2006): with c = snr/d,

        beta log1p(snr/P_r) + log1p(beta snr/P_u) - beta_d log1p(c/(P_u P_r))

    nats.  The first term is the LMMSE rate, so the rest is what the per-user
    filter loses.  Every log is of a positive number with an O(1) weight, so
    nothing cancels at any degree.

    Domain 0 <= snr <= 1e306 / beta_d^2, else `DomainError`; within 1e-12
    relative of the paper's formula in mpmath from snr = 1e-12 to 1e150 for
    d, beta_d from 2 to 2e5, and within 1e-13 over random d, beta_d in
    [2, 1e5] and snr in [1e-12, 1e12] (worst seen 6.7e-16).
    """
    _check_snr(config)
    p_u, p_r = _cavity(config)
    snr, beta = config.snr, config.beta
    nats = (
        beta * math.log1p(snr / p_r)
        + math.log1p(beta * snr / p_u)
        - config.beta_d * math.log1p(snr / config.d / (p_u * p_r))
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

    The paper's form beta (log(1 + beta_d snr) - log(1 + d u)) nats, with u
    from the F-kernel, taken as one log1p of (snr + d F/4)/(1 + d u) so that
    the two logs of about beta_d snr do not cancel at large degree.  It does
    not use the cavity fixed point, so it stays an independent route to
    `lmmse_error`'s SINR.

    Domain 0 <= snr <= 1e306 / beta_d^2, else `DomainError`; within 1e-12
    relative of the paper's formula in mpmath from snr = 1e-12 to 1e150 for
    d, beta_d from 2 to 2e5, and within 1e-13 over random d, beta_d in
    [2, 1e5] and snr in [1e-12, 1e12].
    """
    _check_snr(config)
    p = derive_params(config)
    snr = config.snr
    u, _, f4, _ = _kernel_terms(p.gamma * snr, p.beta_tilde)
    # 1 + d gamma snr - d F/4 = 1 + d u, and d gamma = beta_d - 1, so the
    # paper's log(1 + beta_d snr) - log(1 + d u) is log1p((snr + d F/4)/(1 + d u))
    nats = math.log1p((snr + config.d * f4) / (1.0 + config.d * u))
    return CapacityResult(config, "lmmse", p.beta * nats / LN2, "closed_form")


def lmmse_error(config: SystemConfig) -> MmseError:
    """Large-system limit m1 of the per-user MMSE, and the output SINR.

    m1 = (1/snr) m_R(-1/snr), m_R the Stieltjes transform of the limiting law
    of the user-side Gram matrix (1/d) A^H A.  The inner transform's
    quadratic at z = -1/snr is the `_cavity` quadratic, so P_r = 1 + alpha
    m_inner - (1 - beta) snr; then m1 = P_r/(snr + P_r) and sinr = snr/P_r.
    The route does not use the kernel F, so it stays independent of
    `capacity_lmmse`.

    Domain 0 <= snr <= 1e306 / beta_d^2, else `DomainError`; beta
    log2(1 + sinr) is within 1e-13 relative of the paper's LMMSE formula in
    mpmath, checked from snr = 1e-12 to 1e14 for d, beta_d from 2 to 1e5
    (worst seen 3.3e-16).
    """
    _check_snr(config)
    s = config.snr
    p_r = _cavity(config)[1]
    m1 = p_r / (s + p_r)
    if not 0.0 < m1 <= 1.0:
        raise NumericalError(f"m1={m1!r} outside (0, 1] for {config!r}")
    return MmseError(config, m1=m1, sinr=s / p_r)
