"""Random regular signature ensembles and empirical validation.

Finite matrices are drawn by configuration-model stub matching (exact
degrees by construction) followed by random two-edge swaps until the
bipartite graph is simple; nonzeros sit on the complex unit circle.  Edges
are stored user by user (user c owns edges c*d .. c*d + d - 1) and swaps
only exchange resources, so the repair finds and tests duplicates per user
block without a pass over all edges.  That layout is already the column
structure of a CSC matrix: a signature holds 24 bytes per edge (int32
resource and user indices, complex128 weights), and its sparse operator is a
read-only CSC view of those arrays plus a K + 1 column pointer.  Dense
algebra runs on the smaller Gram side, real when every weight is real.  Only
the empirical spectrum is an eigensolve (LAPACK's two-stage ?heevd_2stage
through ctypes, else numpy.linalg.eigvalsh): both capacity estimates factor
I + snr R (Cholesky log-determinant, triangular-inverse MMSE diagonal).
scipy is imported inside the functions that run sparse or dense algebra, so
importing this module (and the CLI's closed-form commands) loads numpy only:
to_sparse loads scipy.sparse, the LAPACK routes scipy.linalg, once per
process on first use.

At d = beta_d = 2 the graph is a disjoint union of cycles, and on a cycle of
L users with flux phi the Gram's eigenvalues are 2 + 2 cos((phi + 2 pi k)/L)
(Davis, Circulant Matrices, 1979).  One walk over the edges finds every
cycle, and the spectrum, the log-determinant and the MMSE diagonal are O(m)
sums over these eigenvalues; no LAPACK routine runs and no m x m array is
formed.

Trials are mutually independent: trial t of master seed s uses the RNG
substream seeded by (s, t), so results are reproducible and the loop could
be distributed without coordination.  Here trials run sequentially and the
BLAS layer uses the cores.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .capacity import capacity_lmmse, capacity_optimum
from .errors import ConfigurationError, DomainError, GenerationError, NumericalError
from .spectral import SpectralDensity, SystemConfig, limiting_cdf, spectral_density
from .units import LN2

if TYPE_CHECKING:
    import scipy.sparse as sp

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
    """Sparse N x K signature matrix in edge-list form.

    Edge e joins resource rows[e] to user cols[e] with weight weights[e].
    generate_signature lays the edges out in user blocks with int32 indices
    (int64 from 2**31 edges on); validate accepts any order and any integer
    index type.
    """

    n_resources: int
    n_users: int
    d: int
    beta_d: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    phase_scheme: str
    swap_iterations: int = 0  # swap attempts on the accepted stub matching
    matchings: int = 1  # stub matchings drawn, including the accepted one

    def _user_order(self) -> np.ndarray | None:
        """None when the edges sit in user blocks (generate_signature's layout), else the stable sort by user."""
        k, d, cols = self.n_users, self.d, self.cols
        if len(cols) == k * d and (cols.reshape(k, d) == np.arange(k)[:, None]).all():
            return None
        return np.argsort(cols, kind="stable")

    def to_sparse(self) -> sp.csc_matrix:
        """A as an N x K CSC matrix whose data and row indices cannot be written through.

        In user-block order (user c owns edges c*d .. c*d + d - 1, as
        generate_signature lays them out) ``data`` and ``indices`` are
        read-only views of ``weights`` and ``rows`` and only the column
        pointer arange(0, K*d + 1, d) is allocated, so the operator adds
        4 (K + 1) bytes to the signature's 24 per edge.  Any other edge order
        is sorted into user order once, into copies.  Within a column the row
        indices keep the edge order and need not be sorted.
        """
        import scipy.sparse as sp

        k, d, rows, weights = self.n_users, self.d, self.rows, self.weights
        order = self._user_order()
        if order is None:
            indptr = np.arange(0, k * d + 1, d, dtype=rows.dtype)
        else:
            rows, weights = rows[order], weights[order]
            indptr = np.concatenate(([0], np.cumsum(np.bincount(self.cols, minlength=k))))
        data, indices = weights.view(), rows.view()
        data.flags.writeable = indices.flags.writeable = False
        return sp.csc_matrix((data, indices, indptr), shape=(self.n_resources, k), copy=False)

    def validate(self) -> None:
        """Raise GenerationError unless a simple regular unit-modulus graph (any edge order).

        Duplicates are found by sorting each user's d resources, on a view in
        user-block order or on one sorted copy of ``rows`` otherwise, so the
        check's transients stay at about the size of ``rows``.
        """
        n, k, d, rows, cols = self.n_resources, self.n_users, self.d, self.rows, self.cols
        if not len(rows) == len(cols) == len(self.weights):
            raise GenerationError("rows, cols and weights differ in length")
        if len(rows) and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= k):
            raise GenerationError("an edge index is out of range")
        if not np.array_equal(np.bincount(cols, minlength=k), np.full(k, d)):
            raise GenerationError("column degrees are not exactly d")
        if not np.array_equal(np.bincount(rows, minlength=n), np.full(n, self.beta_d)):
            raise GenerationError("row degrees are not exactly beta_d")
        order = self._user_order()
        blocks = np.sort((rows if order is None else rows[order]).reshape(k, d), axis=1)
        if (blocks[:, 1:] == blocks[:, :-1]).any():
            raise GenerationError("duplicate edges survive; the graph is not simple")
        del order, blocks  # freed before the float modulus, so the check's peak is one array
        modulus = np.abs(self.weights)
        if not max(np.max(modulus) - 1.0, 1.0 - np.min(modulus)) <= 1e-12:
            raise GenerationError("nonzeros are not unit modulus")


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _repair_to_simple(rng, rows: np.ndarray, d: int, cap: int) -> int | None:
    """Random two-edge swaps (degree-preserving) until no duplicate edges.

    ``rows`` holds d resources per user in user order and is repaired in
    place.  Returns the swap-iteration count, or None when it passes ``cap``.
    """
    n_edges = len(rows)
    blocks = rows.reshape(-1, d)  # live view: blocks[c] are user c's resources
    srt = np.sort(blocks, axis=1)
    users = np.flatnonzero((srt[:, 1:] == srt[:, :-1]).any(axis=1))
    sub = blocks[users]
    repeated = (sub[:, :, None] == sub[:, None, :]).sum(axis=2) > 1
    dup_idx = (users[:, None] * d + np.arange(d))[repeated]  # ascending edge index
    # An accepted swap never creates a duplicate, so one pass over dup_idx suffices.
    iters = 0
    for i in dup_idx.tolist():
        ci = i // d
        while (blocks[ci] == rows[i]).sum() > 1:
            iters += 1
            if iters > cap:
                return None
            j = int(rng.integers(n_edges))
            ri, rj, cj = int(rows[i]), int(rows[j]), j // d
            if ri == rj or ci == cj:
                continue
            if rj not in blocks[ci] and ri not in blocks[cj]:
                rows[i], rows[j] = rj, ri
    return iters


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
    reach a simple graph the matching is redrawn from scratch.  Edges are
    laid out per user: ``cols`` is 0..K-1 each repeated d times, so user c's
    resources are ``rows[c*d:(c+1)*d]``, which the repair and to_sparse
    rely on.  Indices are int32 below 2**31 edges; the shuffle and the
    repair draw the same numbers at either width, so a seed gives the same
    signature.
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
    index = np.int32 if n_edges < 2**31 else np.int64
    cols = np.repeat(np.arange(k, dtype=index), d)
    for matchings in range(1, 26):
        rows = np.repeat(np.arange(n, dtype=index), beta_d)
        rng.shuffle(rows)
        swaps = _repair_to_simple(rng, rows, d, cap=100 * n_edges)
        if swaps is not None:
            break
    else:
        raise GenerationError(
            f"no simple graph after 25 matchings with 100*E swaps each "
            f"(n={n}, k={k}, d={d}, beta_d={beta_d})"
        )

    if phase_scheme == "uniform":
        # exp(2 pi i x) without a complex temporary: cos and sin into one complex array
        theta = rng.random(n_edges)
        theta *= 2.0 * math.pi
        weights = np.empty(n_edges, dtype=complex)
        np.cos(theta, out=weights.real)
        np.sin(theta, out=weights.imag)
        del theta
    elif phase_scheme == "binary":
        weights = (rng.integers(0, 2, n_edges) * 2.0 - 1.0).astype(complex)
    else:
        weights = np.ones(n_edges, dtype=complex)

    sig = SignatureMatrix(
        n_resources=n, n_users=k, d=cfg.d, beta_d=cfg.beta_d,
        rows=rows, cols=cols, weights=weights, phase_scheme=phase_scheme,
        swap_iterations=swaps, matchings=matchings,
    )
    sig.validate()
    return sig


@dataclass(eq=False)
class EmpiricalSpectrum:
    """Sorted eigenvalues of (1/d) A A^H for one realization."""

    eigenvalues: np.ndarray
    n_resources: int
    n_users: int
    driver: str = ""  # eigensolver that produced the eigenvalues; "" when built by hand

    @property
    def mean(self) -> float:
        return float(np.mean(self.eigenvalues))

    @property
    def second_moment(self) -> float:
        return float(np.mean(self.eigenvalues**2))


def _smaller_gram(sig: SignatureMatrix) -> tuple[sp.csc_matrix, sp.spmatrix, bool]:
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


def _cholesky(sig: SignatureMatrix, snr: float) -> tuple[np.ndarray, sp.csc_matrix, bool]:
    """Dense lower Cholesky factor of I + (snr/d) G on the smaller Gram side, with A and the side."""
    import scipy.linalg as sla
    import scipy.sparse as sp

    a, gram, user_side = _smaller_gram(sig)
    # Fortran order lets potrf factor the one dense copy in place
    m = (sp.identity(gram.shape[0]) + (snr / sig.d) * gram).toarray(order="F")
    potrf = sla.get_lapack_funcs("potrf", (m,))
    low, info = potrf(m, lower=True, clean=True, overwrite_a=True)
    if info != 0:
        raise NumericalError(f"Cholesky factorization of I + snr R failed (potrf info {info})")
    return low, a, user_side


def _cycles(sig: SignatureMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Users in walk order, cycle starts in that order, and the Gram eigenvalues of a (2,2) signature.

    The graph is a disjoint union of cycles u_0 r_0 u_1 r_1 ... u_{L-1} r_{L-1}.
    A diagonal unitary gauge turns each cycle's user-side Gram into 2I plus a
    phi-twisted circulant, phi the argument of the product of
    w(u_i, r_i) conj(w(u_{i+1}, r_i)) around it, so its eigenvalues are
    2 + 2 cos((phi + 2 pi k)/L), k = 0..L-1, laid out like the users.  Both
    incidences come from sorting the edges, so any edge order works.
    """
    by_user = np.argsort(sig.cols, kind="stable").reshape(-1, 2)
    by_res = np.argsort(sig.rows, kind="stable").reshape(-1, 2)
    other_user = np.empty(len(sig.cols), dtype=np.intp)  # the other edge at the same user
    other_user[by_user] = by_user[:, ::-1]
    other_res = np.empty_like(other_user)  # the other edge at the same resource
    other_res[by_res] = by_res[:, ::-1]
    # edge (u_i, r_i) steps to (u_{i+1}, r_{i+1}); the edges (u_i, r_{i-1}) walk the cycle backwards
    step, back = other_user[other_res].tolist(), other_user.tolist()
    seen = [False] * len(step)
    order, starts = [], []
    for e in range(len(step)):
        if not seen[e]:
            starts.append(len(order))
        while not seen[e]:
            seen[e] = seen[back[e]] = True
            order.append(e)
            e = step[e]
    starts = np.array(starts, dtype=np.intp)
    lengths = np.diff(starts, append=len(order))
    twist = sig.weights[order] * np.conj(sig.weights[other_res[order]])
    phi = np.repeat(np.angle(np.multiply.reduceat(twist, starts)), lengths)
    k = np.arange(len(order)) - np.repeat(starts, lengths)
    theta = (phi + 2.0 * math.pi * k) / np.repeat(lengths, lengths)
    return sig.cols[order], starts, 2.0 + 2.0 * np.cos(theta)


@functools.cache
def _two_stage_driver(complex_: bool):
    """(name, ctypes function) of LAPACKE's two-stage eigenvalue driver, or None if absent."""
    from scipy.linalg import cython_lapack

    name = "zheevd_2stage" if complex_ else "dsyevd_2stage"
    # bound on first call, from the LP64 LAPACK scipy links; dlsym also searches its dependencies
    lib = ctypes.CDLL(cython_lapack.__file__)
    fn = getattr(lib, "scipy_LAPACKE_" + name, None) or getattr(lib, "LAPACKE_" + name, None)
    if fn is None:
        return None
    i, c, p = ctypes.c_int, ctypes.c_char, ctypes.c_void_p
    fn.argtypes = [i, c, c, i, p, i, p]  # (layout, jobz, uplo, n, a, lda, w)
    fn.restype = ctypes.c_int
    return name, fn


def _eigvalsh(gram: sp.spmatrix, scale: float) -> tuple[np.ndarray, str]:
    """Ascending eigenvalues of the Hermitian gram / scale, and the driver that computed them."""
    # the driver reads a as float64 or complex128 in column-major order
    a = (gram / scale).astype(complex if np.iscomplexobj(gram) else float).toarray(order="F")
    name, fn = _two_stage_driver(np.iscomplexobj(a)) or ("eigvalsh", None)
    if fn is None:
        return np.linalg.eigvalsh(a), name
    w = np.empty(a.shape[0])  # column major (102), eigenvalues only, lower triangle; overwrites a
    info = fn(102, b"N", b"L", a.shape[0], a.ctypes.data, max(1, a.shape[0]), w.ctypes.data)
    if info != 0:
        raise NumericalError(f"eigensolve failed ({name} info {info})")
    return w, name


def empirical_spectrum(sig: SignatureMatrix) -> EmpiricalSpectrum:
    """Eigenvalues of the resource-side scaled Gram matrix.

    The two Gram sides share nonzero eigenvalues, so the decomposition runs
    on the smaller side and zeros are padded back when users are fewer.
    `driver` names the route: "cycles" at d = beta_d = 2, where every
    eigenvalue is 1 + cos((phi + 2 pi k)/L) of its cycle (exactly 2 and 0 at
    phi = 0); otherwise LAPACK's two-stage driver in place on the one dense
    copy, else numpy.linalg.eigvalsh, both backward stable (errors about N ulp
    of the largest eigenvalue).  Mean and sum of squares are checked.
    """
    n, k = sig.n_resources, sig.n_users
    _, gram, _ = _smaller_gram(sig)
    if sig.d == sig.beta_d == 2:
        eigs, driver = _cycles(sig)[2] / sig.d, "cycles"
    else:
        eigs, driver = _eigvalsh(gram, sig.d)
    if k < n:
        eigs = np.concatenate([np.zeros(n - k), eigs])
    # the Gram matrix is PSD; negatives are eigensolver noise
    eigs = np.sort(np.clip(eigs, 0.0, None))
    beta = sig.beta_d / sig.d
    if abs(float(np.mean(eigs)) - beta) > _TRACE_TOL:
        raise NumericalError("trace identity violated: mean eigenvalue differs from beta")
    frobenius = float(np.sum(np.abs(gram.data) ** 2)) / sig.d**2
    if abs(float(np.sum(eigs**2)) - frobenius) > _TRACE_TOL * frobenius:
        raise NumericalError("trace identity violated: squared eigenvalues do not sum to ||G||_F^2/d^2")
    return EmpiricalSpectrum(eigenvalues=eigs, n_resources=n, n_users=k, driver=driver)


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

    Each trial is log2 det(I + snr G/d) / N: at d = beta_d = 2 the sum of
    log1p(snr mu / d) over the cycle eigenvalues mu of G, otherwise
    2 sum log2 L_ii over the Cholesky factor L on the smaller Gram side; no
    eigensolve runs.
    """
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    c = config.snr / config.d
    values = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        sig = generate_signature(n_resources, config.d, config.beta_d, phase_scheme, rng)
        if config.d == config.beta_d == 2:
            logdet = float(np.log1p(c * _cycles(sig)[2]).sum())
        else:
            logdet = float(2.0 * np.log(_cholesky(sig, config.snr)[0].diagonal().real).sum())
        values.append(logdet / (n_resources * LN2))
    return _mc_reduce(values, seed)


def lmmse_diagonal(sig: SignatureMatrix, snr: float) -> np.ndarray:
    """Per-user MMSE values diag((I + snr R)^{-1}), R = (1/d) A^H A.

    At d = beta_d = 2 the gauge that makes each cycle's Gram circulant leaves
    the diagonal of the inverse constant on the cycle: every user on it gets
    (1/L) sum_k 1/(1 + (snr/d) mu_k) over the cycle's Gram eigenvalues mu_k.
    Otherwise, from the Cholesky factor L of I + (snr/d) G on the smaller
    Gram side, inverted in place (LAPACK trtri), user k's MMSE is
    |column k of L^{-1}|^2 when K <= N, else 1 - (snr/d) |L^{-1} a_k|^2.
    Both reductions run in panels of at most 256 columns or 128 users, so
    their temporaries stay a few MB beside the m x m factor.
    """
    if not snr > 0.0:
        raise DomainError(f"snr must be positive, got {snr!r}")
    c = snr / sig.d
    k, panel, block = sig.n_users, 256, 128
    diag = np.empty(k)
    if sig.d == sig.beta_d == 2:
        users, starts, mu = _cycles(sig)
        lengths = np.diff(starts, append=k)
        diag[users] = np.repeat(np.add.reduceat(1.0 / (1.0 + c * mu), starts) / lengths, lengths)
    else:
        import scipy.linalg as sla

        low, a, user_side = _cholesky(sig, snr)
        trtri = sla.get_lapack_funcs("trtri", (low,))
        inv, info = trtri(low, lower=True, overwrite_c=True)
        if info != 0:
            raise NumericalError(f"inverting the Cholesky factor failed (trtri info {info})")
        if user_side:
            for start in range(0, k, panel):
                diag[start : start + panel] = (np.abs(inv[:, start : start + panel]) ** 2).sum(axis=0)
        else:
            at = a.T  # CSR; row k is a_k, so at @ inv.T has rows (L^{-1} a_k)^T
            for start in range(0, k, block):
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
