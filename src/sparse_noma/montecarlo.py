"""Monte Carlo estimates on random signatures, checked against the closed forms.

One signature comes from `ensemble`, and `gram` computes what a trial reads
on it: the log-determinant of I + snr R, the per-user MMSE values or the
whole spectrum.  This module turns those into estimates: the snr domain of
the estimators, the trial loop and its records, the comparison with the
closed forms and the Kolmogorov-Smirnov distance to the limiting law.

Trials are mutually independent: trial t of master seed s uses the RNG
substream seeded by (s, t), so results are reproducible and the loop could
be distributed without coordination.  Here trials run sequentially and the
BLAS layer uses the cores.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .capacity import capacity_lmmse, capacity_optimum
from .ensemble import SignatureMatrix, feasible_resources, generate_signature
from .errors import ConfigurationError, DomainError, NumericalError
from .gram import gram_eigenvalues, log_det, mmse_diagonal
from .spectral import SpectralDensity, SystemConfig, limiting_cdf, spectral_density
from .units import LN2

__all__ = [
    "EmpiricalSpectrum", "McEstimate", "McAgreement", "KsAgreement", "KS_THRESHOLD", "KS_MIN_RESOURCES",
    "empirical_spectrum", "empirical_capacity_opt", "empirical_capacity_lmmse", "lmmse_diagonal",
    "compare_to_closed_form", "ks_distance", "ks_draw",
]

_MIN_SNR = 1e-9  # smallest snr > 0 the capacity estimators take (_require_resolved_snr)

KS_THRESHOLD = 0.02
KS_MIN_RESOURCES = 2000  # the threshold is only meaningful near this acceptance scale


@dataclass(eq=False)
class EmpiricalSpectrum:
    """Sorted eigenvalues of (1/d) A A^H for one realization, one per resource."""

    eigenvalues: np.ndarray
    driver: str = ""  # eigensolver that produced the eigenvalues; "" when built by hand

    @property
    def mean(self) -> float:
        return float(np.mean(self.eigenvalues))

    @property
    def second_moment(self) -> float:
        return float(np.mean(self.eigenvalues**2))


def empirical_spectrum(sig: SignatureMatrix) -> EmpiricalSpectrum:
    """Eigenvalues of the resource-side scaled Gram matrix and the driver that ran (gram_eigenvalues)."""
    return EmpiricalSpectrum(*gram_eigenvalues(sig))


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo point estimate with its standard error and the per-trial values."""

    estimate: float
    stderr: float
    trials: int
    samples: tuple[float, ...]


def _mc_trials(
    n_resources: int,
    config: SystemConfig,
    trials: int,
    seed: int,
    phase_scheme: str,
    value: Callable[[SignatureMatrix], float],
) -> McEstimate:
    """Mean and standard error of value(sig) over draws from the substreams (seed, t), t < trials."""
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    values = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        values[t] = value(generate_signature(n_resources, config.d, config.beta_d, phase_scheme, rng))
    stderr = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return McEstimate(
        estimate=float(values.mean()), stderr=stderr, trials=trials, samples=tuple(values.tolist()),
    )


def _require_resolved_snr(snr: float) -> None:
    """DomainError for 0 < snr < 1e-9, where a trial's rounding error can pass 1e-6 relative.

    The estimators take logs of values stored next to 1 (L_ii ~ 1 + snr/2,
    the MMSE 1 - O(snr)), so a trial's relative error grows like 1e-16/snr:
    at worst 2.5e-7 at snr = 1e-9 and 2.1e-6 at 1e-10 (README, "Numerical notes").
    At snr = 0 the matrix factored is I and every value is exact.
    """
    if not (snr == 0.0 or snr >= _MIN_SNR):
        raise DomainError(f"snr must be 0 or at least {_MIN_SNR:g} for a Monte Carlo estimate, got {snr!r}")


def empirical_capacity_opt(
    n_resources: int,
    config: SystemConfig,
    trials: int = 50,
    seed: int = 0,
    phase_scheme: str = "uniform",
) -> McEstimate:
    """Per-resource log-determinant estimate of the optimum spectral efficiency.

    Each trial is log2 det(I + snr G/d) / N, from gram.log_det.  snr = 0
    gives exactly 0; from snr = 1e-9 up each trial is within 1e-6 relative
    of its exact log-determinant, and in between it raises DomainError
    (_require_resolved_snr).
    """
    _require_resolved_snr(config.snr)
    return _mc_trials(
        n_resources, config, trials, seed, phase_scheme,
        lambda sig: log_det(sig, config.snr) / (sig.n_resources * LN2),
    )


def lmmse_diagonal(sig: SignatureMatrix, snr: float) -> np.ndarray:
    """Per-user MMSE values diag((I + snr R)^{-1}), R = (1/d) A^H A, each in (0, 1].

    gram.mmse_diagonal gives the values, and this checks them.  snr = 0
    gives exactly 1 for every user; from snr = 1e-9 up the mean log of the
    values is within 1e-6 relative of the exact one, and in between it
    raises DomainError (_require_resolved_snr).  A value outside
    (0, 1 + 1e-10] raises NumericalError.
    """
    _require_resolved_snr(snr)
    diag = mmse_diagonal(sig, snr)
    if not (np.min(diag) > 0.0 and np.max(diag) <= 1.0 + 1e-10):
        raise NumericalError("per-user MMSE left (0, 1]")
    return np.minimum(diag, 1.0)


def empirical_capacity_lmmse(
    n_resources: int,
    config: SystemConfig,
    trials: int = 20,
    seed: int = 0,
    phase_scheme: str = "uniform",
) -> McEstimate:
    """Per-user LMMSE spectral-efficiency estimate beta * E[log2(1/M_kk)], for snr = 0 or snr >= 1e-9 (lmmse_diagonal)."""
    beta = config.beta_d / config.d
    return _mc_trials(
        n_resources, config, trials, seed, phase_scheme,
        lambda sig: float(-beta * np.log(lmmse_diagonal(sig, config.snr)).mean() / LN2),
    )


@dataclass(frozen=True)
class McAgreement:
    """One receiver's Monte Carlo estimate against its closed form.

    passed is abs_dev < tolerance, with tolerance = max(3 SE, 1% of the
    closed form), or abs_dev == 0 (an exact match, as at snr = 0).
    """

    closed_form: float
    estimate: float
    stderr: float
    trials: int
    n_resources: int
    abs_dev: float
    tolerance: float
    passed: bool


def compare_to_closed_form(
    receiver: str,
    config: SystemConfig,
    n_resources: int | None = None,
    trials: int | None = None,
    seed: int = 0,
    phase_scheme: str = "uniform",
) -> McAgreement:
    """Estimate one receiver's spectral efficiency and compare it with its closed form.

    receiver is "optimum" (default N = 1200, 50 trials) or "lmmse" (default
    N = 2000, 20 trials); N is rounded up to a feasible resource count.
    """
    if receiver == "optimum":
        closed = capacity_optimum(config).spectral_efficiency
        run, n_default, trials_default = empirical_capacity_opt, 1200, 50
    elif receiver == "lmmse":
        closed = capacity_lmmse(config).spectral_efficiency
        run, n_default, trials_default = empirical_capacity_lmmse, 2000, 20
    else:
        raise ConfigurationError(f"receiver must be 'optimum' or 'lmmse', got {receiver!r}")
    n = feasible_resources(n_default if n_resources is None else n_resources, config.d, config.beta_d)
    est = run(
        n, config, trials=trials_default if trials is None else trials,
        seed=seed, phase_scheme=phase_scheme,
    )
    abs_dev = abs(est.estimate - closed)
    tolerance = max(3.0 * est.stderr, 0.01 * closed)
    return McAgreement(
        closed_form=closed, estimate=est.estimate, stderr=est.stderr, trials=est.trials,
        n_resources=n, abs_dev=abs_dev, tolerance=tolerance,
        passed=abs_dev < tolerance or abs_dev == 0.0,
    )


def ks_distance(spectrum: EmpiricalSpectrum, density: SpectralDensity) -> float:
    """Two-sided Kolmogorov-Smirnov distance to the limiting law.

    The limiting law may carry an atom at zero and the spectrum ties there
    exactly (padded kernel eigenvalues), so the supremum is taken with the
    correct one-sided values on both sides of every tie block.

    The distance reproduces to about 1e-7 across eigensolvers and BLAS
    builds, not to the 17 significant digits the CLI prints: real weights
    give exactly degenerate eigenvalues, and when the supremum sits at
    lambda_plus, where the limiting CDF rises like sqrt(lambda_plus - lam), a
    rounding-level split of such a group moves the distance by about 1e-8.
    Spectra from the d = beta_d = 2 cycle formula do not depend on the build.
    """
    lams = np.sort(spectrum.eigenvalues)
    n = len(lams)
    if n == 0:
        raise ConfigurationError("empty spectrum")
    uniq, counts = np.unique(lams, return_counts=True)
    cum = np.cumsum(counts)  # samples <= x
    below = cum - counts  # samples < x
    cdf_right = limiting_cdf(density, uniq)
    cdf_left = cdf_right.copy()
    cdf_left[uniq == 0.0] -= density.point_mass_at_zero
    return float(
        max(
            np.max(np.abs(cdf_right - cum / n)),
            np.max(np.abs(cdf_left - below / n)),
        )
    )


@dataclass(frozen=True)
class KsAgreement:
    """One signature's spectrum against the limiting law.

    threshold is KS_THRESHOLD and passed is distance < threshold once
    n_resources >= KS_MIN_RESOURCES; below that scale the distance is
    informational and both are None.
    """

    n_resources: int
    distance: float
    threshold: float | None
    passed: bool | None


def ks_draw(
    n_resources: int,
    config: SystemConfig,
    rng: np.random.Generator,
    phase_scheme: str = "uniform",
) -> KsAgreement:
    """KS distance to the limiting law of one signature drawn from rng, with its verdict."""
    sig = generate_signature(n_resources, config.d, config.beta_d, phase_scheme, rng)
    distance = ks_distance(empirical_spectrum(sig), spectral_density(config))
    if sig.n_resources < KS_MIN_RESOURCES:
        return KsAgreement(sig.n_resources, distance, None, None)
    return KsAgreement(sig.n_resources, distance, KS_THRESHOLD, distance < KS_THRESHOLD)

