"""Limiting spectrum of regular sparse signature ensembles.

A signature matrix has N rows (resources) and K columns (users), exactly d
unit-modulus nonzeros per column and beta*d per row, so the load is
beta = K/N.  In the large-system limit the empirical eigenvalue law of the
scaled Gram matrix (1/d) A A^H converges to a deterministic measure: a point
mass [1-beta]^+ at zero plus an absolutely continuous part supported on
[lambda_minus, lambda_plus].  That measure depends only on the integer pair
(d, beta*d), and one record holds it: spectral_density(config) returns the
cached SpectralDensity of config's degree pair.  Every other function here
takes that record: it evaluates the Stieltjes transform pair off the support
in closed form, and integrates continuous functions against the limiting
measure: a substitution removes every endpoint singularity, and adaptive
32/64-node Gauss panels resolve kinks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalError

__all__ = [
    "SystemConfig",
    "StieltjesValue",
    "SpectralDensity",
    "spectral_density",
    "stieltjes",
    "density_at",
    "limiting_cdf",
    "integrate_against_density",
]

_STIELTJES_RESIDUAL_TOL = 1e-12
_PANEL_CAP = 4096  # most Gauss panels one integral may use


def require_integer(name: str, value) -> int:
    # bool is an int subclass; reject it explicitly
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _require_degree(name: str, value) -> int:
    value = require_integer(name, value)
    if value < 2:
        raise ConfigurationError(f"{name} must be at least 2, got {value}")
    return value


def _require_snr(value) -> float:
    snr = float(value)
    if not math.isfinite(snr) or snr < 0.0:
        raise ConfigurationError(f"snr must be finite and >= 0, got {value!r}")
    return snr


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
        object.__setattr__(self, "snr", _require_snr(self.snr))

    @property
    def beta(self) -> float:
        return self.beta_d / self.d

    def with_snr(self, snr: float) -> "SystemConfig":
        """The same degree pair at another snr; only the snr is checked, the degrees already were.

        A load sweep calls this on every rate evaluation, where the
        constructor's degree checks would take about half the time.
        """
        cfg = object.__new__(SystemConfig)
        vars(cfg).update(d=self.d, beta_d=self.beta_d, snr=_require_snr(snr))
        return cfg


@dataclass(frozen=True)
class SpectralDensity:
    """Limiting eigenvalue law of (1/d) A A^H, fixed by the degree pair (d, beta_d).

    Built only by spectral_density.  Its constants: alpha = (d-1)/d,
    gamma = (beta_d-1)/d, beta_tilde = alpha/gamma, zeta = beta_d/gamma; the
    continuous support is [lambda_minus, lambda_plus] =
    [(sqrt(alpha)-sqrt(gamma))^2, (sqrt(alpha)+sqrt(gamma))^2].  Each of
    alpha, gamma, beta_tilde, zeta and point_mass_at_zero is one division of
    two integers, so it is the double nearest its exact rational value.
    zeta >= (1 + sqrt(beta_tilde))^2 holds for every degree pair: with
    P = (d-1)(beta_d-1), zeta - 1 - beta_tilde = (P + 1)/(beta_d - 1) and
    (zeta - 1 - beta_tilde)^2 - 4 beta_tilde = ((P - 1)/(beta_d - 1))^2.
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
    def point_mass_at_zero(self) -> float:
        return max(0, self.d - self.beta_d) / self.d

    @property
    def edge_contact(self) -> bool:
        """True when lambda_plus = beta_d exactly (inverse-sqrt divergence)."""
        return (self.d - 1) * (self.beta_d - 1) == 1


@lru_cache(maxsize=None)
def _density(d: int, beta_d: int) -> SpectralDensity:
    root = math.sqrt((d - 1) * (beta_d - 1))
    lam_plus = (d + beta_d - 2) / d + 2.0 * root / d
    # lambda_minus = (alpha - gamma)^2 / lambda_plus avoids the subtractive
    # cancellation of (sqrt(alpha) - sqrt(gamma))^2 when alpha ~ gamma
    diff = (d - beta_d) / d
    lam_minus = 0.0 if d == beta_d else diff * diff / lam_plus
    support_gap = (root - 1.0) ** 2 / d

    return SpectralDensity(
        d=d,
        beta_d=beta_d,
        alpha=(d - 1) / d,
        gamma=(beta_d - 1) / d,
        beta_tilde=(d - 1) / (beta_d - 1),
        zeta=beta_d * d / (beta_d - 1),
        lambda_minus=lam_minus,
        lambda_plus=lam_plus,
        support_gap=support_gap,
    )


def spectral_density(config: SystemConfig) -> SpectralDensity:
    """The limiting law of config's degree pair, cached; config.snr is not read."""
    return _density(config.d, config.beta_d)


@dataclass(frozen=True)
class StieltjesValue:
    """Stieltjes transform pair at the point z off the support that `stieltjes` was given."""

    m_inner: complex
    m_outer: complex


def _support_sqrt(density: SpectralDensity, z: complex) -> complex:
    """sqrt((z - lambda_minus)(z - lambda_plus)) with cut on the support.

    The product of principal square roots is analytic off
    [lambda_minus, lambda_plus] and behaves like +z at both real infinities,
    which is exactly the branch the transform needs.
    """
    return cmath.sqrt(z - density.lambda_minus) * cmath.sqrt(z - density.lambda_plus)


def stieltjes(density: SpectralDensity, z: complex) -> StieltjesValue:
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
    beta = density.beta
    if z.imag == 0.0:
        x = z.real
        if density.lambda_minus <= x <= density.lambda_plus:
            raise DomainError(
                f"z={x!r} lies on the continuous support "
                f"[{density.lambda_minus!r}, {density.lambda_plus!r}]"
            )
        if x == 0.0 and beta <= 1.0:
            raise DomainError("z=0 coincides with the point mass at zero")
        z = complex(x, 0.0)

    w = _support_sqrt(density, z)
    b = z + density.alpha - density.gamma
    # Two algebraically equivalent forms of the same branch; take whichever
    # denominator is larger to dodge cancellation.
    if abs(b + w) >= abs(b - w):
        m_inner = -2.0 / (b + w)
    else:
        m_inner = (w - b) / (2.0 * density.alpha * z)

    term_sq = density.alpha * z * m_inner * m_inner
    residual = term_sq + b * m_inner + 1.0
    # near z = 0 the bounded root itself diverges (the inner measure has an
    # atom there when beta < 1), so measure the residual against the terms
    scale = max(1.0, abs(term_sq), abs(b * m_inner))
    if abs(residual) > _STIELTJES_RESIDUAL_TOL * scale:
        raise NumericalError(
            f"inner transform residual {abs(residual):.3e} exceeds tolerance at z={z!r}"
        )

    denom = z - beta / (1.0 + density.alpha * m_inner)
    if denom == 0:
        raise NumericalError(f"outer transform pole encountered at z={z!r}")
    m_outer = -1.0 / denom
    return StieltjesValue(m_inner=m_inner, m_outer=m_outer)


def density_at(density: SpectralDensity, lam: float) -> float:
    """Continuous density value at lam >= 0 (the atom at 0 is not included).

    Exactly at a support endpoint the returned value is the one-sided limit:
    0.0 where the density vanishes, math.inf where the endpoint touches a
    pole of the formula (lambda_minus = 0 at beta = 1, lambda_plus = beta_d
    in the arcsine case) and the density diverges like an inverse square
    root.  Off the support the density is 0.
    """
    lam = float(lam)
    if not math.isfinite(lam) or lam < 0.0:
        raise DomainError(f"lambda must be finite and >= 0, got {lam!r}")
    if lam == density.lambda_minus:
        return math.inf if density.lambda_minus == 0.0 else 0.0
    if lam == density.lambda_plus:
        return math.inf if density.edge_contact else 0.0
    if lam < density.lambda_minus or lam > density.lambda_plus:
        return 0.0
    num = math.sqrt((lam - density.lambda_minus) * (density.lambda_plus - lam))
    return density.beta_d * num / (2.0 * math.pi * lam * (density.beta_d - lam))


def _theta_weight(p: SpectralDensity, theta: np.ndarray) -> np.ndarray:
    """Integrand weight after lam = lambda_minus + span*sin^2(theta).

    The substitution absorbs both square-root endpoint factors, and the two
    bounded ratios below absorb the 1/lam and 1/(beta_d - lam) poles even in
    the contact cases, so the weight is smooth on [0, pi/2].
    """
    span = p.lambda_plus - p.lambda_minus
    s2 = np.sin(theta) ** 2
    c2 = 1.0 - s2
    r_low = span * s2 / (p.lambda_minus + span * s2)
    r_high = span * c2 / (p.support_gap + span * c2)
    return (p.beta_d / math.pi) * r_low * r_high


def _eval_on_support(f, lams: np.ndarray) -> np.ndarray:
    """f on the flat node array; a result that broadcasts to it (a scalar) is fine."""
    vals = np.broadcast_to(np.asarray(f(lams.ravel()), dtype=float), (lams.size,)).reshape(lams.shape)
    if not np.all(np.isfinite(vals)):
        bad = lams[~np.isfinite(vals)][:3]
        raise NumericalError(f"integrand is not finite on the support, e.g. at {bad}")
    return vals


@lru_cache(maxsize=None)
def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss-Legendre rule on [-1, 1], built on first use (n = 32, 64)."""
    return np.polynomial.legendre.leggauss(n)


def _panels(p: SpectralDensity, f) -> list[tuple[float, float]]:
    """(left end, integral) of each accepted panel for f times the weight, sorted.

    Panel [a, b] is accepted when its 32- and 64-node sums agree to
    max(1e-12 (b - a)/(pi/2), 1e-14 |I|), I the 64-node sum; else both
    halves go to the next pass.  Starting from [0, pi/2], a smooth integrand
    costs 32 + 64 evaluations, and panels grade toward a kink by themselves.
    """
    span = p.lambda_plus - p.lambda_minus
    x32, w32 = _gauss_rule(32)
    x64, w64 = _gauss_rule(64)
    nodes = np.concatenate((x32, x64)) + 1.0
    todo, done = [(0.0, 0.5 * math.pi)], []
    while todo:
        lo, hi = np.array(todo).T
        half = 0.5 * (hi - lo)
        theta = lo[:, None] + half[:, None] * nodes
        g = _eval_on_support(f, p.lambda_minus + span * np.sin(theta) ** 2) * _theta_weight(p, theta)
        fine = half * (g[:, 32:] @ w64)
        err = np.abs(fine - half * (g[:, :32] @ w32))
        todo = []
        for a, b, value, e in zip(lo.tolist(), hi.tolist(), fine.tolist(), err.tolist()):
            if e <= max(1e-12 * (b - a) / (0.5 * math.pi), 1e-14 * abs(value)):
                done.append((a, value))
            else:
                mid = a + 0.5 * (b - a)
                todo += [(a, mid), (mid, b)]
        if len(done) + len(todo) > _PANEL_CAP:
            raise NumericalError(
                f"quadrature needs more than {_PANEL_CAP} panels (the panel cap); "
                "the integrand is not resolved on the support"
            )
    return sorted(done)


def integrate_against_density(density: SpectralDensity, f: Callable[[np.ndarray], np.ndarray]) -> float:
    """Integral of f against the limiting law, point mass included.

    f is vectorized: it maps a 1-D array of lam to an array of that shape (or
    to anything that broadcasts to it, such as a constant).  Its domain is
    continuous integrands: f continuous and finite on the support (kinks
    included), and finite at 0 when the law has an atom there.  There the
    error of the continuous part is about 1e-12 absolute with a 1e-14
    relative floor; an f that needs more than _PANEL_CAP (4096) panels raises
    NumericalError.  A jump is outside the domain and may go unseen: inside
    the gap around a panel's centre that the 32- and 64-node rules share,
    both sums can agree and the panel is accepted with a wrong value.
    """
    total_atom = 0.0
    pm = density.point_mass_at_zero
    if pm > 0.0:
        f0 = float(np.asarray(f(np.array([0.0])), dtype=float).ravel()[0])
        if not math.isfinite(f0):
            raise NumericalError("integrand is not finite at the point mass (lambda=0)")
        total_atom = pm * f0
    return total_atom + math.fsum(value for _, value in _panels(density, f))


def limiting_cdf(density: SpectralDensity, lam) -> np.ndarray:
    """CDF of the limiting law, F(x) = mass of [0, x], vectorized in lam.

    Builds the panels once for f = 1; each query adds the mass of the panels
    to its left and a 64-node rule from its own panel's left end, so every
    point is accurate to about 1e-12.  -inf and inf give exactly 0 and 1; a
    NaN query raises DomainError.
    """
    span = density.lambda_plus - density.lambda_minus
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if np.isnan(lam).any():
        raise DomainError("lambda must not be NaN")
    out = np.zeros(lam.shape)
    out[lam >= 0.0] = density.point_mass_at_zero
    out[lam >= density.lambda_plus] = 1.0

    inside = (lam > density.lambda_minus) & (lam < density.lambda_plus)
    if np.any(inside):
        frac = np.clip((lam[inside] - density.lambda_minus) / span, 0.0, 1.0)
        theta_q = np.arcsin(np.sqrt(frac))
        starts, masses = np.array(_panels(density, lambda _: 1.0)).T
        k = np.searchsorted(starts, theta_q, side="right") - 1
        x, w = _gauss_rule(64)
        half = (theta_q - starts[k])[:, None] / 2.0
        theta = starts[k][:, None] + half * (x[None, :] + 1.0)
        part = (half * w[None, :] * _theta_weight(density, theta)).sum(axis=1)
        out[inside] = density.point_mass_at_zero + (np.cumsum(masses) - masses)[k] + part
    return out
