"""Limiting spectrum of regular sparse signature ensembles.

A signature matrix has N rows (resources) and K columns (users), exactly d
unit-modulus nonzeros per column and beta*d per row, so the load is
beta = K/N.  In the large-system limit the empirical eigenvalue law of the
scaled Gram matrix (1/d) A A^H converges to a deterministic measure: a point
mass [1-beta]^+ at zero plus an absolutely continuous part supported on
[lambda_minus, lambda_plus].  This module derives the ensemble parameters
exactly from the integer pair (d, beta*d), evaluates the Stieltjes transform
pair off the support in closed form, and integrates smooth functions against
the limiting measure with a substitution that removes every endpoint
singularity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalError

__all__ = [
    "SystemConfig",
    "DerivedParams",
    "StieltjesValue",
    "SpectralDensity",
    "derive_params",
    "spectral_density",
    "stieltjes",
    "density_at",
    "limiting_cdf",
    "integrate_against_density",
]

_STIELTJES_RESIDUAL_TOL = 1e-12


def _require_degree(name: str, value) -> int:
    # bool is an int subclass; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < 2:
        raise ConfigurationError(f"{name} must be at least 2, got {value}")
    return int(value)


@dataclass(frozen=True)
class SystemConfig:
    """Regular ensemble parameters: column degree d, row degree beta_d, SNR.

    The load beta = beta_d / d is always recomputed from the two integers,
    never stored as a float of record.
    """

    d: int
    beta_d: int
    snr: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "d", _require_degree("d", self.d))
        object.__setattr__(self, "beta_d", _require_degree("beta_d", self.beta_d))
        snr = float(self.snr)
        if not math.isfinite(snr) or snr < 0.0:
            raise ConfigurationError(f"snr must be finite and >= 0, got {self.snr!r}")
        object.__setattr__(self, "snr", snr)

    @property
    def beta_exact(self) -> Fraction:
        return Fraction(self.beta_d, self.d)

    @property
    def beta(self) -> float:
        return self.beta_d / self.d

    def with_snr(self, snr: float) -> "SystemConfig":
        return SystemConfig(self.d, self.beta_d, snr)


@dataclass(frozen=True)
class DerivedParams:
    """Dimensionless ensemble constants derived from (d, beta_d).

    alpha = (d-1)/d, gamma = (beta_d-1)/d, beta_tilde = alpha/gamma,
    zeta = beta_d/gamma; the continuous support is [lambda_minus,
    lambda_plus] = [(sqrt(alpha)-sqrt(gamma))^2, (sqrt(alpha)+sqrt(gamma))^2].
    support_gap is beta_d - lambda_plus, computed in a cancellation-free
    form; it vanishes exactly when (d-1)(beta_d-1) = 1, the arcsine case.
    """

    d: int
    beta_d: int
    alpha: float
    gamma: float
    beta_tilde: float
    zeta: float
    lambda_minus: float
    lambda_plus: float
    support_gap: float

    @property
    def beta(self) -> float:
        return self.beta_d / self.d

    @property
    def beta_exact(self) -> Fraction:
        return Fraction(self.beta_d, self.d)

    @property
    def point_mass_at_zero(self) -> float:
        return float(max(Fraction(0), 1 - self.beta_exact))

    @property
    def edge_contact(self) -> bool:
        """True when lambda_plus = beta_d exactly (inverse-sqrt divergence)."""
        return (self.d - 1) * (self.beta_d - 1) == 1


@lru_cache(maxsize=None)
def _derive_params_cached(d: int, beta_d: int) -> DerivedParams:
    alpha = Fraction(d - 1, d)
    gamma = Fraction(beta_d - 1, d)
    beta_tilde = alpha / gamma
    zeta = Fraction(beta_d) / gamma

    # zeta >= (1 + sqrt(beta_tilde))^2 must hold on the admissible lattice;
    # checked in exact rational arithmetic before any float is produced.
    excess = zeta - 1 - beta_tilde
    if excess < 0 or excess * excess < 4 * beta_tilde:
        raise ConfigurationError(
            f"derived constants violate zeta >= (1 + sqrt(beta_tilde))^2 "
            f"for d={d}, beta_d={beta_d}"
        )

    prod = (d - 1) * (beta_d - 1)
    root = math.sqrt(prod)
    lam_plus = float(alpha + gamma) + 2.0 * root / d
    # lambda_minus = (alpha - gamma)^2 / lambda_plus avoids the subtractive
    # cancellation of (sqrt(alpha) - sqrt(gamma))^2 when alpha ~ gamma
    diff = float(alpha - gamma)
    lam_minus = 0.0 if d == beta_d else diff * diff / lam_plus
    support_gap = (root - 1.0) ** 2 / d

    return DerivedParams(
        d=d,
        beta_d=beta_d,
        alpha=float(alpha),
        gamma=float(gamma),
        beta_tilde=float(beta_tilde),
        zeta=float(zeta),
        lambda_minus=lam_minus,
        lambda_plus=lam_plus,
        support_gap=support_gap,
    )


def derive_params(config: SystemConfig) -> DerivedParams:
    """Exact-rational derivation of the ensemble constants for a config."""
    return _derive_params_cached(config.d, config.beta_d)


@dataclass(frozen=True)
class StieltjesValue:
    """Stieltjes transform pair evaluated at one point z off the support."""

    z: complex
    m_inner: complex
    m_outer: complex


def _support_sqrt(params: DerivedParams, z: complex) -> complex:
    """sqrt((z - lambda_minus)(z - lambda_plus)) with cut on the support.

    The product of principal square roots is analytic off
    [lambda_minus, lambda_plus] and behaves like +z at both real infinities,
    which is exactly the branch the transform needs.
    """
    return cmath.sqrt(z - params.lambda_minus) * cmath.sqrt(z - params.lambda_plus)


def stieltjes(params: DerivedParams, z: complex) -> StieltjesValue:
    """Evaluate the inner/outer Stieltjes transforms at z.

    The inner transform solves alpha*z*m^2 + (z + alpha - gamma)*m + 1 = 0;
    its discriminant factors through the support edges, so the correct branch
    (upper half-plane image, -1/z decay) is picked by the support-cut square
    root rather than by iterating the fixed point.  Real z inside the closed
    support (or at a zero-mass atom) is rejected.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"z must be finite, got {z!r}")
    beta = params.beta
    if z.imag == 0.0:
        x = z.real
        if params.lambda_minus <= x <= params.lambda_plus:
            raise DomainError(
                f"z={x!r} lies on the continuous support "
                f"[{params.lambda_minus!r}, {params.lambda_plus!r}]"
            )
        if x == 0.0 and beta <= 1.0:
            raise DomainError("z=0 coincides with the point mass at zero")
        z = complex(x, 0.0)

    w = _support_sqrt(params, z)
    b = z + params.alpha - params.gamma
    # Two algebraically equivalent forms of the same branch; take whichever
    # denominator is larger to dodge cancellation.
    if abs(b + w) >= abs(b - w):
        m_inner = -2.0 / (b + w)
    else:
        m_inner = (w - b) / (2.0 * params.alpha * z)

    term_sq = params.alpha * z * m_inner * m_inner
    residual = term_sq + b * m_inner + 1.0
    # near z = 0 the bounded root itself diverges (the inner measure has an
    # atom there when beta < 1), so measure the residual against the terms
    scale = max(1.0, abs(term_sq), abs(b * m_inner))
    if abs(residual) > _STIELTJES_RESIDUAL_TOL * scale:
        raise NumericalError(
            f"inner transform residual {abs(residual):.3e} exceeds tolerance at z={z!r}"
        )

    denom = z - beta / (1.0 + params.alpha * m_inner)
    if denom == 0:
        raise NumericalError(f"outer transform pole encountered at z={z!r}")
    m_outer = -1.0 / denom
    return StieltjesValue(z=z, m_inner=m_inner, m_outer=m_outer)


@dataclass(frozen=True)
class SpectralDensity:
    """Limiting eigenvalue law of (1/d) A A^H for one ensemble."""

    config: SystemConfig
    params: DerivedParams

    @property
    def point_mass_at_zero(self) -> float:
        return self.params.point_mass_at_zero


def spectral_density(config: SystemConfig) -> SpectralDensity:
    return SpectralDensity(config=config, params=derive_params(config))


def density_at(density: SpectralDensity, lam: float) -> float:
    """Continuous density value at lam >= 0 (the atom at 0 is not included).

    Exactly at a support endpoint the returned value is the one-sided limit:
    0.0 where the density vanishes, math.inf where the endpoint touches a
    pole of the formula (lambda_minus = 0 at beta = 1, lambda_plus = beta_d
    in the arcsine case) and the density diverges like an inverse square
    root.  Off the support the density is 0.
    """
    p = density.params
    lam = float(lam)
    if not math.isfinite(lam) or lam < 0.0:
        raise DomainError(f"lambda must be finite and >= 0, got {lam!r}")
    if lam == p.lambda_minus:
        return math.inf if p.lambda_minus == 0.0 else 0.0
    if lam == p.lambda_plus:
        return math.inf if p.edge_contact else 0.0
    if lam < p.lambda_minus or lam > p.lambda_plus:
        return 0.0
    num = math.sqrt((lam - p.lambda_minus) * (p.lambda_plus - lam))
    return p.beta_d * num / (2.0 * math.pi * lam * (p.beta_d - lam))


def _theta_weight(params: DerivedParams, theta: np.ndarray) -> np.ndarray:
    """Integrand weight after lam = lambda_minus + span*sin^2(theta).

    The substitution absorbs both square-root endpoint factors, and the two
    bounded ratios below absorb the 1/lam and 1/(beta_d - lam) poles even in
    the contact cases, so the weight is smooth on [0, pi/2].
    """
    p = params
    span = p.lambda_plus - p.lambda_minus
    s2 = np.sin(theta) ** 2
    c2 = 1.0 - s2
    r_low = span * s2 / (p.lambda_minus + span * s2)
    r_high = span * c2 / (p.support_gap + span * c2)
    return (p.beta_d / math.pi) * r_low * r_high


def _eval_on_support(density: SpectralDensity, f, lams: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(f(lams), dtype=float)
        if vals.shape != lams.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([float(f(x)) for x in lams])
    if not np.all(np.isfinite(vals)):
        bad = lams[~np.isfinite(vals)][:3]
        raise NumericalError(f"integrand is not finite on the support, e.g. at {bad}")
    return vals


@lru_cache(maxsize=32)
def _gauss_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    # map from [-1, 1] to (0, pi/2); nodes stay interior
    theta = (x + 1.0) * (math.pi / 4.0)
    return theta, w * (math.pi / 4.0)


def integrate_against_density(
    density: SpectralDensity,
    f: Callable[[np.ndarray], np.ndarray],
    *,
    abs_tol: float = 1e-12,
    max_nodes: int = 8192,
) -> float:
    """Integral of f against the limiting law, point mass included.

    Gauss-Legendre in the substituted variable, doubling the node count
    until two successive estimates agree to abs_tol (absolute, with a
    relative floor for large integrals).  f must be finite on the support
    and at 0 when the ensemble has a point mass there.
    """
    p = density.params
    span = p.lambda_plus - p.lambda_minus

    pm = p.point_mass_at_zero
    total_atom = 0.0
    if pm > 0.0:
        f0 = float(np.asarray(f(np.array([0.0])), dtype=float).ravel()[0])
        if not math.isfinite(f0):
            raise NumericalError("integrand is not finite at the point mass (lambda=0)")
        total_atom = pm * f0

    prev = None
    n = 32
    while n <= max_nodes:
        theta, w = _gauss_nodes(n)
        lams = p.lambda_minus + span * np.sin(theta) ** 2
        vals = _eval_on_support(density, f, lams)
        cur = float(np.dot(w, vals * _theta_weight(p, theta)))
        if prev is not None and abs(cur - prev) <= max(abs_tol, 1e-14 * abs(cur)):
            return total_atom + cur
        prev = cur
        n *= 2
    raise NumericalError(
        f"quadrature did not converge to {abs_tol:g} within {max_nodes} nodes"
    )


def limiting_cdf(density: SpectralDensity, lam) -> np.ndarray:
    """CDF of the limiting law, F(x) = mass of [0, x], vectorized in lam.

    Used by the Kolmogorov-Smirnov comparison; 64 Gauss-Legendre nodes per
    query point are far below the 1e-6 accuracy the comparison needs.
    """
    p = density.params
    span = p.lambda_plus - p.lambda_minus
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    out = np.zeros(lam.shape)
    out[lam >= 0.0] = p.point_mass_at_zero
    out[lam >= p.lambda_plus] = 1.0

    inside = (lam > p.lambda_minus) & (lam < p.lambda_plus)
    if np.any(inside):
        frac = np.clip((lam[inside] - p.lambda_minus) / span, 0.0, 1.0)
        theta_q = np.arcsin(np.sqrt(frac))
        x, w = np.polynomial.legendre.leggauss(64)
        # per-query scaling of the reference nodes onto [0, theta_q]
        half = theta_q[:, None] / 2.0
        theta = half * (x[None, :] + 1.0)
        mass = (half * w[None, :] * _theta_weight(p, theta)).sum(axis=1)
        out[inside] = p.point_mass_at_zero + mass
    return out
