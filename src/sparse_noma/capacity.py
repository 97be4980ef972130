"""Closed-form spectral efficiency of the regular sparse ensemble.

Every closed form reads one private fixed point, the uniform fixed point
(P_u, P_r) of the cavity precisions.  The optimum (joint decoding) form is
the Bethe free energy there and the per-user LMMSE form is beta log(1 +
snr/P_r).  At alpha = 1 the same fixed point is the dense (Tse-Hanly) one,
and it gives the Verdu-Shamai baselines in `baselines`.  No closed form
cancels at any snr or degree (log1p keeps small-SNR relative precision).
An independent route integrates log2(1 + snr*lam) against the limiting
spectrum and serves as the oracle for the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .spectral import SystemConfig, integrate_against_density, spectral_density
from .units import LN2

__all__ = [
    "CapacityResult",
    "MmseError",
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


def _check_snr(config: SystemConfig) -> None:
    # the first terms to overflow are capacity_optimum's beta snr and the
    # `_cavity` root P_r, about (beta - 1) snr, both past about 1.8e308 / beta
    # (none at beta <= 1); the stated bound is a contract below that
    if config.beta_d**2 * config.snr > 1e306:
        raise DomainError(f"the closed forms support 0 <= snr <= 1e306 / beta_d^2, got {config!r}")


def _cavity(alpha: float, beta: float, snr: float) -> tuple[float, float]:
    """Uniform fixed point (P_u, P_r) of the cavity precisions, unchecked.

    With h = b/2 and b = 1 - (1 - beta) snr, the resource precision P_r is
    the positive root h + sqrt(h^2 + alpha snr) of P_r^2 - b P_r - alpha snr
    = 0, taken in conjugate form when h < 0 so that nothing cancels, and the
    user precision is P_u = 1 + alpha snr/P_r.  The sparse ensemble has
    alpha = (d - 1)/d, where P_r = 1 + (beta_d - 1) c/P_u with c = snr/d;
    alpha = 1 is the dense limit, where snr/P_r is the Tse-Hanly LMMSE SINR
    (IEEE T-IT 1999).
    """
    h = 0.5 - (1.0 - beta) * (snr / 2.0)
    r = math.hypot(h, math.sqrt(alpha * snr))  # sqrt(h^2 + alpha snr) without overflow
    p_r = h + r if h >= 0.0 else alpha * snr / (r - h)
    return 1.0 + alpha * snr / p_r, p_r


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

    It obeys I-MMSE (Guo, Shamai & Verdu, IEEE T-IT 2005): dC/dsnr =
    beta/(snr + P_r) nats, beta (1 - m1)/snr with m1 = P_r/(snr + P_r).  The
    free energy is stationary in (P_u, P_r) at the fixed point: its P_u
    derivative vanishes where P_u + beta snr = P_u P_r + c, which is P_r =
    1 + (beta_d - 1) c/P_u, and its P_r derivative where P_u P_r + c = P_r
    + snr, which P_u = 1 + alpha snr/P_r gives since alpha + 1/d = 1.  So
    only the explicit snr dependence counts, beta/(snr + P_r) + beta/(P_u +
    beta snr) - beta/(P_u P_r + c), and the first condition cancels the last
    two terms; at alpha = 1 (c -> 0) the same holds for the dense rate.
    Hence C = integral from 0 to snr of beta/(t + P_r(t)) dt.  Since P_r = h
    + sqrt(h^2 + alpha snr) with h = (1 - (1 - beta) snr)/2 free of alpha,
    P_r strictly increases with alpha = (d - 1)/d for snr > 0, and at fixed
    beta and snr this rate and the LMMSE rate beta log1p(snr/P_r) strictly
    decrease in d, down to their dense (Verdu-Shamai) limits: sparse beats
    dense at every load and snr > 0.  The "monotone in d" of validate's
    dense_limit check (criterion 7) samples this on the lattice.

    Sparse beats dense to first order in 1/d: at fixed beta and snr,
    d (C_d - C_VS) -> beta rho^2/(2 ln 2) > 0 bits, C_VS the Verdu-Shamai
    rate and rho = snr/(P_u P_r) at alpha = 1.
    """
    _check_snr(config)
    p_u, p_r = _cavity((config.d - 1) / config.d, config.beta, config.snr)
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

    beta log1p(snr/P_r) nats at the `_cavity` fixed point, the beta log(1 +
    sinr) of `lmmse_error`; it equals the paper's beta (log(1 + beta_d snr) -
    log(1 + d u)), whose two logs of about beta_d snr cancel at large degree.

    Domain 0 <= snr <= 1e306 / beta_d^2, else `DomainError`; within 1e-12
    relative of the paper's formula in mpmath from snr = 1e-12 to 1e150 for
    d, beta_d from 2 to 2e5, and within 1e-13 over random d, beta_d in
    [2, 1e5] and snr in [1e-12, 1e12] (worst seen 4.4e-16 on both).

    Sparse beats dense to first order in 1/d: d (C_d - C_VS) -> beta snr^2/
    (P_r (P_r + snr)(2 P_r - b) ln 2) > 0 bits, C_VS the Verdu-Shamai LMMSE
    rate, b = 1 - (1 - beta) snr, P_r at alpha = 1 and 2 P_r - b > 0.
    """
    _check_snr(config)
    p_r = _cavity((config.d - 1) / config.d, config.beta, config.snr)[1]
    nats = config.beta * math.log1p(config.snr / p_r)
    return CapacityResult(config, "lmmse", nats / LN2, "closed_form")


def lmmse_error(config: SystemConfig) -> MmseError:
    """Large-system limit m1 of the per-user MMSE, and the output SINR.

    m1 = (1/snr) m_R(-1/snr), m_R the Stieltjes transform of the limiting law
    of the user-side Gram matrix (1/d) A^H A.  The inner transform's
    quadratic at z = -1/snr is the `_cavity` quadratic, so P_r = 1 + alpha
    m_inner - (1 - beta) snr; then m1 = P_r/(snr + P_r) and sinr = snr/P_r.
    `capacity_lmmse` reads the same fixed point; `validate`'s lmmse_identity
    check compares that rate with m1 from `spectral.stieltjes`, a separate
    route.

    Domain 0 <= snr <= 1e306 / beta_d^2, else `DomainError`; beta
    log2(1 + sinr) is within 1e-13 relative of the paper's LMMSE formula in
    mpmath, checked from snr = 1e-12 to 1e14 for d, beta_d from 2 to 1e5
    (worst seen 3.3e-16).
    """
    _check_snr(config)
    s = config.snr
    p_r = _cavity((config.d - 1) / config.d, config.beta, s)[1]
    m1 = p_r / (s + p_r)
    if not 0.0 < m1 <= 1.0:
        raise NumericalError(f"m1={m1!r} outside (0, 1] for {config!r}")
    return MmseError(config, m1=m1, sinr=s / p_r)
