"""Extreme-SNR behavior: thresholds, slopes, and affine rate approximations.

Low SNR is parametrized by Eb/N0: both receivers share the minimum
ln 2 (-1.59 dB) and differ in the slope s0 (bits/s/Hz per 3 dB).  High SNR
is parametrized by log2(snr) with slope s_inf and power offset l_inf.  The
LMMSE receiver saturates for beta > 1 (zero slope), where no offset exists;
that case is represented by an absent value rather than 0 so nothing can
silently plot a wrong asymptote.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .spectral import SystemConfig
from .units import LN2, THREE_DB, linear_to_db

__all__ = [
    "LowSnrParams",
    "HighSnrParams",
    "low_snr_optimum",
    "low_snr_lmmse",
    "high_snr_optimum",
    "high_snr_lmmse",
]


@dataclass(frozen=True)
class LowSnrParams:
    """Eb/N0 threshold (linear) and wideband slope in bits/s/Hz per 3 dB."""

    ebn0_min: float
    s0: float

    @property
    def ebn0_min_db(self) -> float:
        return linear_to_db(self.ebn0_min)

    def rate(self, ebn0_db: float) -> float:
        """Affine low-SNR rate s0 (ebn0_db - ebn0_min_db) / 3 dB; zero at the threshold."""
        return self.s0 * (ebn0_db - self.ebn0_min_db) / THREE_DB


@dataclass(frozen=True)
class HighSnrParams:
    """High-SNR slope (bits/s/Hz per log2 snr) and power offset.

    l_inf is None when the slope is zero (LMMSE, beta > 1): the receiver
    saturates and has no affine asymptote in log2(snr).
    """

    s_inf: float
    l_inf: float | None

    def rate(self, snr: float) -> float:
        """Affine high-SNR rate s_inf (log2 snr - l_inf) at linear snr > 0."""
        if self.l_inf is None:
            raise DomainError(
                "no high-SNR affine asymptote: slope is zero and the offset is undefined"
            )
        if snr <= 0.0:
            raise DomainError(f"snr must be positive, got {snr!r}")
        return self.s_inf * (math.log2(snr) - self.l_inf)


def low_snr_optimum(d: int, beta_d: int) -> LowSnrParams:
    cfg = SystemConfig(d, beta_d)
    # 2*beta*d / (d(beta+1) - 1) reduces to the integer form below
    return LowSnrParams(ebn0_min=LN2, s0=2 * cfg.beta_d / (cfg.beta_d + cfg.d - 1))


def low_snr_lmmse(d: int, beta_d: int) -> LowSnrParams:
    cfg = SystemConfig(d, beta_d)
    return LowSnrParams(ebn0_min=LN2, s0=2 * cfg.beta_d / (2 * cfg.beta_d + cfg.d - 2))


def high_snr_optimum(d: int, beta_d: int) -> HighSnrParams:
    cfg = SystemConfig(d, beta_d)
    b = cfg.beta
    d_ = cfg.d
    if cfg.beta_d < d_:
        l_inf = (1.0 / b - 1.0) * math.log2(1.0 - b) - (d_ - 1) * math.log2(1.0 - 1.0 / d_)
    elif cfg.beta_d == d_:
        l_inf = -(d_ - 1) * math.log2(1.0 - 1.0 / d_)
    else:
        l_inf = (
            (b - 1.0) * math.log2(b - 1.0)
            - b * math.log2(b)
            - (cfg.beta_d - 1) * math.log2(1.0 - 1.0 / cfg.beta_d)
        )
    return HighSnrParams(s_inf=min(b, 1.0), l_inf=l_inf)


def high_snr_lmmse(d: int, beta_d: int) -> HighSnrParams:
    cfg = SystemConfig(d, beta_d)
    b = cfg.beta
    if cfg.beta_d < cfg.d:
        return HighSnrParams(s_inf=b, l_inf=math.log2(1.0 / (1.0 - b)) + math.log2((d - 1) / d))
    if cfg.beta_d == cfg.d:
        return HighSnrParams(s_inf=0.5, l_inf=math.log2((d - 1) / d))
    return HighSnrParams(s_inf=0.0, l_inf=None)
