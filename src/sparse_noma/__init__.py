"""Closed-form spectral efficiency of regular sparse NOMA.

Library layout:

- spectral: the limiting spectrum as one record (SpectralDensity), its density,
  CDF, quadrature and Stieltjes transforms
- capacity: optimum/LMMSE closed forms, integral oracle, MMSE diagnostics
- asymptotics: extreme-SNR slope/threshold parameters and affine approximations
- baselines: dense baselines, fixed-Eb/N0 rate solving, load sweeps, envelopes
- montecarlo: random signature ensembles and empirical validation
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
