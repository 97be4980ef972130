"""Closed-form spectral efficiency of regular sparse NOMA.

Library layout:

- spectral: the limiting spectrum as one record (SpectralDensity), its density,
  CDF, quadrature and Stieltjes transforms
- capacity: optimum/LMMSE closed forms, integral oracle, MMSE diagnostics
- asymptotics: extreme-SNR slope/threshold parameters and affine approximations
- baselines: dense baselines, fixed-Eb/N0 rate solving, load sweeps, envelopes
- ensemble: random regular signatures, drawn by stub matching and swap repair
- gram: the smaller Gram side of one signature, its spectrum, log-determinant
  and MMSE diagonal (LAPACK in RFP, or the d = beta_d = 2 cycle sums)
- montecarlo: estimates over many draws against the closed forms, and KS
- cli: command-line interface over all of the above
"""

from .capacity import (
    CapacityResult,
    MmseError,
    capacity_integral_oracle,
    capacity_lmmse,
    capacity_optimum,
    lmmse_error,
)
from .errors import ConfigurationError, DomainError, GenerationError, NumericalError
from .spectral import (
    SpectralDensity,
    StieltjesValue,
    SystemConfig,
    density_at,
    integrate_against_density,
    limiting_cdf,
    spectral_density,
    stieltjes,
)

__version__ = "0.1.0"
