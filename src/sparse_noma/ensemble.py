"""Random regular signature ensembles: drawing, repairing and checking one signature.

A finite matrix is drawn by configuration-model stub matching (exact
degrees by construction) followed by random two-edge swaps until the
bipartite graph is simple; nonzeros sit on the complex unit circle.  A
signature is its user blocks: user c owns edges c*d .. c*d + d - 1, so only
the resource of each edge is stored and its user is implied.  Swaps only
exchange resources, so the repair finds and tests duplicates per user block
without a pass over all edges.  That layout is already the column structure
of a CSC matrix: a signature holds 20 bytes per edge (int32 resource
indices, complex128 weights), and its sparse operator is a read-only CSC
view of those arrays plus a K + 1 column pointer.  scipy is imported only
by that view, which nothing in the package calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError, GenerationError
from .spectral import SystemConfig, require_integer

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["PHASE_SCHEMES", "SignatureMatrix", "generate_signature", "feasible_resources"]

PHASE_SCHEMES = ("uniform", "binary", "repetition")


@dataclass(eq=False)
class SignatureMatrix:
    """Sparse N x K signature matrix stored as its user blocks.

    User c's edges are c*d .. c*d + d - 1: edge e joins resource rows[e] to
    user e // d with weight weights[e].  generate_signature draws int32
    indices (int64 from 2**31 edges on).
    """

    n_resources: int
    n_users: int
    d: int
    beta_d: int
    rows: np.ndarray
    weights: np.ndarray
    phase_scheme: str
    swap_iterations: int = 0  # swap attempts on the accepted stub matching
    matchings: int = 1  # stub matchings drawn, including the accepted one

    @property
    def cols(self) -> np.ndarray:
        """The user of every edge, 0..K-1 each repeated d times, in the dtype of ``rows``."""
        return np.repeat(np.arange(self.n_users, dtype=self.rows.dtype), self.d)

    def to_sparse(self) -> sp.csc_matrix:
        """A as an N x K CSC matrix whose data and row indices cannot be written through.

        ``data`` and ``indices`` are read-only views of ``weights`` and
        ``rows`` and only the column pointer arange(0, K*d + 1, d) is
        allocated, so the operator adds 4 (K + 1) bytes to the signature's
        20 per edge.  Within a column the row indices keep the edge order and
        need not be sorted.
        """
        import scipy.sparse as sp

        k, d = self.n_users, self.d
        indptr = np.arange(0, k * d + 1, d, dtype=self.rows.dtype)
        data, indices = self.weights.view(), self.rows.view()
        data.flags.writeable = indices.flags.writeable = False
        return sp.csc_matrix((data, indices, indptr), shape=(self.n_resources, k), copy=False)

    def validate(self) -> None:
        """Raise GenerationError unless a simple regular unit-modulus graph.

        Duplicates are found per user block (_repeated_users), so the
        check's transients stay at about the size of ``rows``.
        """
        n, k, d, rows = self.n_resources, self.n_users, self.d, self.rows
        if not len(rows) == len(self.weights) == k * d:
            raise GenerationError(f"rows and weights must both have length K*d = {k * d}")
        if len(rows) and (rows.min() < 0 or rows.max() >= n):
            raise GenerationError("an edge index is out of range")
        if not np.array_equal(np.bincount(rows, minlength=n), np.full(n, self.beta_d)):
            raise GenerationError("row degrees are not exactly beta_d")
        if len(_repeated_users(rows.reshape(k, d))):
            raise GenerationError("duplicate edges survive; the graph is not simple")
        modulus = np.abs(self.weights)
        if not max(np.max(modulus) - 1.0, 1.0 - np.min(modulus)) <= 1e-12:
            raise GenerationError("nonzeros are not unit modulus")


def _repeated_users(blocks: np.ndarray) -> np.ndarray:
    """Ascending indices of the rows of the K x d ``blocks`` that hold a resource twice.

    Below d = 10 the d(d-1)/2 column pairs are compared, one boolean per
    user each; from d = 10 on, sorting each row and comparing neighbours is
    faster.  Column pairs against the sort at N = 1e5, best of nine on one
    core of a 2-vCPU host: (2,2) 0.12 vs 3.8 ms, (3,6) 0.9 vs 14 ms, (8,8)
    5.1 vs 7.8 ms, (9,9) 5.1-6.8 vs 5.4-7.7 ms, (10,10) 7.0-7.6 vs
    5.4-7.0 ms.
    """
    k, d = blocks.shape
    if d < 10:
        repeated = np.zeros(k, dtype=bool)
        for p, q in zip(*np.tril_indices(d, -1)):
            repeated |= blocks[:, p] == blocks[:, q]
    else:
        srt = np.sort(blocks, axis=1)
        repeated = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
    return np.flatnonzero(repeated)


def _repair_to_simple(rng, rows: np.ndarray, d: int, cap: int) -> int | None:
    """Random two-edge swaps (degree-preserving) until no duplicate edges.

    ``rows`` holds d resources per user in user order and is repaired in
    place.  Returns the swap-iteration count, or None when it passes ``cap``.
    """
    n_edges = len(rows)
    blocks = rows.reshape(-1, d)  # live view: blocks[c] are user c's resources
    users = _repeated_users(blocks)
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
    """Draw a simple (beta_d, d)-regular bipartite signature.

    Stub matching gives exact degrees; the swap repair removes the few
    duplicate edges a random matching produces.  If 100 * E swaps do not
    reach a simple graph the matching is redrawn from scratch.  The repair
    biases the draw away from the uniform law on simple graphs where
    duplicates are dense: against every labelled graph at (2,2), N = 4 the
    chi-squared excess is z = 39.6, and the mean 4-cycle count at (10,10),
    N = 400 sits 4.4 SE above its uniform value; at N = 2000 no bias shows
    (ROADMAP item 1 has the tables and the fix).  User c's resources are
    ``rows[c*d:(c+1)*d]``.  Indices are int32 below 2**31 edges; the shuffle
    and the repair draw the same numbers at either width, so a seed gives
    the same signature.  n_resources must be an integer (a numpy integer
    passes, a bool or a float does not).
    """
    cfg = SystemConfig(d, beta_d)  # validates the degree pair
    if phase_scheme not in PHASE_SCHEMES:
        raise ConfigurationError(f"phase_scheme must be one of {PHASE_SCHEMES}")
    n = require_integer("n_resources", n_resources)
    if n * beta_d % d != 0:
        raise ConfigurationError(
            f"n_resources={n} gives a non-integer user count for d={d}, beta_d={beta_d}"
        )
    k = n * beta_d // d
    if not (n > d and k > beta_d):
        raise ConfigurationError(
            f"need n_resources > d and n_users > beta_d, got n={n}, k={k}"
        )

    rng = np.random.default_rng(seed)  # a Generator is returned as it is
    n_edges = k * d
    index = np.int32 if n_edges < 2**31 else np.int64
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
        rows=rows, weights=weights, phase_scheme=phase_scheme,
        swap_iterations=swaps, matchings=matchings,
    )
    sig.validate()
    return sig


def feasible_resources(n_resources: int, d: int, beta_d: int) -> int:
    """Smallest N >= n_resources with an integer user count N * beta_d / d; n_resources must be an integer."""
    cfg = SystemConfig(d, beta_d)
    n = require_integer("n_resources", n_resources)
    if n < 1:
        raise ConfigurationError("n_resources must be positive")
    while n * cfg.beta_d % cfg.d != 0:
        n += 1
    return n

