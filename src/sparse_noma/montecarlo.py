"""Random regular signature ensembles and empirical validation.

Finite matrices are drawn by configuration-model stub matching (exact
degrees by construction) followed by random two-edge swaps until the
bipartite graph is simple; nonzeros sit on the complex unit circle.  Dense
algebra runs on the smaller Gram side, real when every weight is real.  Only
the empirical spectrum is an eigensolve: both capacity estimates factor
I + snr R (Cholesky log-determinant, triangular-inverse MMSE diagonal).

Trials are mutually independent: trial t of master seed s uses the RNG
substream seeded by (s, t), so results are reproducible and the loop could
be distributed without coordination.  Here trials run sequentially and the
BLAS layer uses the cores.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .capacity import capacity_lmmse, capacity_optimum
from .errors import ConfigurationError, DomainError, GenerationError, NumericalError
from .spectral import SpectralDensity, SystemConfig, limiting_cdf, spectral_density
from .units import LN2

__all__ = [
    "SignatureMatrix",
    "EmpiricalSpectrum",
    "McEstimate",
    "McAgreement",
    "generate_signature",
    "empirical_spectrum",
    "empirical_capacity_opt",
    "empirical_capacity_lmmse",
    "lmmse_diagonal",
    "feasible_resources",
    "compare_to_closed_form",
    "ks_distance",
    "ks_draw",
    "KS_THRESHOLD",
    "KS_MIN_RESOURCES",
]

PHASE_SCHEMES = ("uniform", "binary", "repetition")

_TRACE_TOL = 1e-10

KS_THRESHOLD = 0.02
KS_MIN_RESOURCES = 2000  # the threshold is only meaningful near this acceptance scale


@dataclass(eq=False)
class SignatureMatrix:
    """Sparse N x K signature matrix in edge-list form."""

    n_resources: int
    n_users: int
    d: int
    beta_d: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    phase_scheme: str

    def to_sparse(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (self.weights, (self.rows, self.cols)),
            shape=(self.n_resources, self.n_users),
        )

    def validate(self) -> None:
        n, k = self.n_resources, self.n_users
        if not np.array_equal(np.bincount(self.cols, minlength=k), np.full(k, self.d)):
            raise GenerationError("column degrees are not exactly d")
        if not np.array_equal(np.bincount(self.rows, minlength=n), np.full(n, self.beta_d)):
            raise GenerationError("row degrees are not exactly beta_d")
        if len(set(zip(self.rows.tolist(), self.cols.tolist()))) != len(self.rows):
            raise GenerationError("duplicate edges survive; the graph is not simple")
        if np.max(np.abs(np.abs(self.weights) - 1.0)) > 1e-12:
            raise GenerationError("nonzeros are not unit modulus")


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _repair_to_simple(rng, rows: np.ndarray, cols: np.ndarray, cap: int) -> bool:
    """Random two-edge swaps (degree-preserving) until no duplicate edges."""
    n_edges = len(rows)
    counts = Counter(zip(rows.tolist(), cols.tolist()))
    iters = 0
    while True:
        dup_idx = [
            i for i, e in enumerate(zip(rows.tolist(), cols.tolist())) if counts[e] > 1
        ]
        if not dup_idx:
            return True
        for i in dup_idx:
            while counts[(int(rows[i]), int(cols[i]))] > 1:
                iters += 1
                if iters > cap:
                    return False
                j = int(rng.integers(n_edges))
                ri, ci = int(rows[i]), int(cols[i])
                rj, cj = int(rows[j]), int(cols[j])
                if ri == rj or ci == cj:
                    continue
                e_new_1, e_new_2 = (rj, ci), (ri, cj)
                counts[(ri, ci)] -= 1
                counts[(rj, cj)] -= 1
                if counts[e_new_1] == 0 and counts[e_new_2] == 0:
                    counts[e_new_1] += 1
                    counts[e_new_2] += 1
                    rows[i], rows[j] = rj, ri
                else:
                    counts[(ri, ci)] += 1
                    counts[(rj, cj)] += 1


def generate_signature(
    n_resources: int,
    d: int,
    beta_d: int,
    phase_scheme: str = "uniform",
    seed=0,
) -> SignatureMatrix:
    """Draw a uniform-ish simple (beta_d, d)-regular bipartite signature.

    Stub matching gives exact degrees; the swap repair removes the few
    duplicate edges a random matching produces.  If 100 * E swaps do not
    reach a simple graph the matching is redrawn from scratch.
    """
    cfg = SystemConfig(d, beta_d)  # validates the degree pair
    if phase_scheme not in PHASE_SCHEMES:
        raise ConfigurationError(f"phase_scheme must be one of {PHASE_SCHEMES}")
    n = int(n_resources)
    if n * beta_d % d != 0:
        raise ConfigurationError(
            f"n_resources={n} gives a non-integer user count for d={d}, beta_d={beta_d}"
        )
    k = n * beta_d // d
    if not (n > d and k > beta_d):
        raise ConfigurationError(
            f"need n_resources > d and n_users > beta_d, got n={n}, k={k}"
        )

    rng = _as_rng(seed)
    n_edges = k * d
    cols = np.repeat(np.arange(k), d)
    for attempt in range(25):
        rows = np.repeat(np.arange(n), beta_d)
        rng.shuffle(rows)
        if _repair_to_simple(rng, rows, cols, cap=100 * n_edges):
            break
    else:
        raise GenerationError(
            f"no simple graph after 25 matchings with 100*E swaps each "
            f"(n={n}, k={k}, d={d}, beta_d={beta_d})"
        )

    if phase_scheme == "uniform":
        weights = np.exp(2j * math.pi * rng.random(n_edges))
    elif phase_scheme == "binary":
        weights = (rng.integers(0, 2, n_edges) * 2.0 - 1.0).astype(complex)
    else:
        weights = np.ones(n_edges, dtype=complex)

    sig = SignatureMatrix(
        n_resources=n, n_users=k, d=cfg.d, beta_d=cfg.beta_d,
        rows=rows, cols=cols, weights=weights, phase_scheme=phase_scheme,
    )
    sig.validate()
    return sig


@dataclass(eq=False)
class EmpiricalSpectrum:
    """Sorted eigenvalues of (1/d) A A^H for one realization."""

    eigenvalues: np.ndarray
    n_resources: int
    n_users: int

    @property
    def mean(self) -> float:
        return float(np.mean(self.eigenvalues))

    @property
    def second_moment(self) -> float:
        return float(np.mean(self.eigenvalues**2))

    def histogram(self, bins: int = 60):
        return np.histogram(self.eigenvalues, bins=bins, density=True)


def _smaller_gram(sig: SignatureMatrix) -> tuple[sp.csr_matrix, sp.csr_matrix, bool]:
    """A, its unscaled sparse Gram product on the smaller side, and whether that is the user side.

    A^H A (K x K) when K <= N, otherwise A A^H (N x N).  The two sides share
    their nonzero eigenvalues; callers apply their own scaling.  A is real when
    every weight is, and the diagonal must hold d (user side) or beta_d.
    """
    a = sig.to_sparse() if sig.weights.imag.any() else sig.to_sparse().real
    user_side = sig.n_users <= sig.n_resources
    gram = a.conj().T @ a if user_side else a @ a.conj().T
    if not np.max(np.abs(gram.diagonal() - (sig.d if user_side else sig.beta_d))) <= _TRACE_TOL:
        raise NumericalError("trace identity violated: Gram diagonal differs from the degree")
    return a, gram, user_side


def _cholesky(sig: SignatureMatrix, snr: float) -> tuple[np.ndarray, sp.csr_matrix, bool]:
    """Lower Cholesky factor of I + (snr/d) G on the smaller Gram side, with A and the side."""
    a, gram, user_side = _smaller_gram(sig)
    # Fortran order lets potrf factor the one dense copy in place
    m = (sp.identity(gram.shape[0]) + snr / sig.d * gram).toarray(order="F")
    potrf = sla.get_lapack_funcs("potrf", (m,))
    low, info = potrf(m, lower=True, clean=True, overwrite_a=True)
    if info != 0:
        raise NumericalError(f"Cholesky factorization of I + snr R failed (potrf info {info})")
    return low, a, user_side


def empirical_spectrum(sig: SignatureMatrix) -> EmpiricalSpectrum:
    """Eigenvalues of the resource-side scaled Gram matrix.

    The two Gram sides share nonzero eigenvalues, so the decomposition runs
    on the smaller side and zeros are padded back when users are fewer.
    """
    n, k = sig.n_resources, sig.n_users
    _, gram, _ = _smaller_gram(sig)
    eigs = np.linalg.eigvalsh(gram.toarray() / sig.d)
    if k < n:
        eigs = np.concatenate([np.zeros(n - k), eigs])
    # the Gram matrix is PSD; negatives are eigensolver noise
    eigs = np.sort(np.clip(eigs, 0.0, None))
    beta = sig.beta_d / sig.d
    if abs(float(np.mean(eigs)) - beta) > _TRACE_TOL:
        raise NumericalError("trace identity violated: mean eigenvalue differs from beta")
    return EmpiricalSpectrum(eigenvalues=eigs, n_resources=n, n_users=k)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo point estimate with its standard error."""

    estimate: float
    stderr: float
    trials: int
    seed: int
    samples: tuple[float, ...]


def _mc_reduce(values: list[float], seed: int) -> McEstimate:
    arr = np.asarray(values)
    stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return McEstimate(
        estimate=float(arr.mean()), stderr=stderr, trials=len(arr),
        seed=seed, samples=tuple(float(v) for v in arr),
    )


def empirical_capacity_opt(
    n_resources: int,
    config: SystemConfig,
    trials: int = 50,
    seed: int = 0,
    phase_scheme: str = "uniform",
) -> McEstimate:
    """Per-resource log-determinant estimate of the optimum spectral efficiency.

    Each trial is log2 det(I + snr G) / N = 2 sum log2 L_ii over the Cholesky
    factor L on the smaller Gram side; no eigenvalues are computed.
    """
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    values = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        sig = generate_signature(n_resources, config.d, config.beta_d, phase_scheme, rng)
        low, _, _ = _cholesky(sig, config.snr)
        values.append(float(2.0 * np.log(low.diagonal().real).sum() / (n_resources * LN2)))
    return _mc_reduce(values, seed)


def lmmse_diagonal(sig: SignatureMatrix, snr: float) -> np.ndarray:
    """Per-user MMSE values diag((I + snr R)^{-1}), R = (1/d) A^H A.

    The Cholesky factor L of I + (snr/d) G on the smaller Gram side is
    inverted in place (LAPACK trtri).  User k's MMSE is |column k of L^{-1}|^2
    when K <= N, else 1 - (snr/d) |L^{-1} a_k|^2 over blocks of sparse columns.
    """
    if not snr > 0.0:
        raise DomainError(f"snr must be positive, got {snr!r}")
    low, a, user_side = _cholesky(sig, snr)
    trtri = sla.get_lapack_funcs("trtri", (low,))
    inv, info = trtri(low, lower=True, overwrite_c=True)
    if info != 0:
        raise NumericalError(f"inverting the Cholesky factor failed (trtri info {info})")
    if user_side:
        diag = (np.abs(inv) ** 2).sum(axis=0)
    else:
        c = snr / sig.d
        at = a.T.tocsr()  # row k is a_k, so at @ inv.T has rows (L^{-1} a_k)^T
        diag = np.empty(sig.n_users)
        block = 512
        for start in range(0, sig.n_users, block):
            y = at[start : start + block] @ inv.T
            diag[start : start + len(y)] = 1.0 - c * (np.abs(y) ** 2).sum(axis=1)
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
    """Per-user LMMSE spectral-efficiency estimate beta * E[log2(1/M_kk)]."""
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    beta = config.beta_d / config.d
    values = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        sig = generate_signature(n_resources, config.d, config.beta_d, phase_scheme, rng)
        diag = lmmse_diagonal(sig, config.snr)
        values.append(float(-beta * np.log(diag).mean() / LN2))
    return _mc_reduce(values, seed)


def feasible_resources(n_resources: int, d: int, beta_d: int) -> int:
    """Smallest N >= n_resources with an integer user count N * beta_d / d."""
    cfg = SystemConfig(d, beta_d)
    n = int(n_resources)
    if n < 1:
        raise ConfigurationError("n_resources must be positive")
    while n * cfg.beta_d % cfg.d != 0:
        n += 1
    return n


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


def ks_draw(
    n_resources: int,
    config: SystemConfig,
    rng: np.random.Generator,
    phase_scheme: str = "uniform",
) -> float:
    """KS distance to the limiting law of one signature drawn from rng.

    Compared against KS_THRESHOLD once n_resources >= KS_MIN_RESOURCES.
    """
    sig = generate_signature(n_resources, config.d, config.beta_d, phase_scheme, rng)
    return ks_distance(empirical_spectrum(sig), spectral_density(config))
