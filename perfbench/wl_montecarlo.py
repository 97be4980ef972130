"""The Monte Carlo workloads: mc_capacity, mc_spectrum and signature_large.

Every op draws its own signature from a substream of --seed, so two runs with
one seed time the same matrices.  Outputs are checked against linear algebra
the benchmark does itself on the signature's edge list.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from sparse_noma import SystemConfig, montecarlo, spectral_density

from common import Op, feasible_n, rel_dev, small_gram, structure_problems
from grids import MC_PAIRS, MC_SNR_DB

MC_SNR = 10.0 ** (MC_SNR_DB / 10.0)
KS_THRESHOLD = 0.02
WARMUP_STREAM = 999_999  # substream index no timed op uses


def _reference_limits() -> dict[tuple[int, int], tuple[float, float]]:
    import reference

    cap = reference.load()["capacity"]
    return {pair: cap[(*pair, MC_SNR_DB)] for pair in MC_PAIRS}


class McCapacity:
    """One trial of empirical_capacity_opt (N ~ 1200) or _lmmse (N ~ 2000)."""

    name = "mc_capacity"
    nominal_round_s = 9.0
    # (pair, receiver, phases): 8 uniform ops and a fixed minority of 2 binary
    ROUND = (
        ((2, 2), "opt", "uniform"), ((2, 2), "lmmse", "uniform"),
        ((3, 2), "opt", "uniform"), ((3, 2), "lmmse", "uniform"),
        ((3, 6), "opt", "uniform"), ((3, 6), "lmmse", "uniform"),
        ((10, 10), "opt", "uniform"), ((10, 10), "lmmse", "uniform"),
        ((3, 6), "opt", "binary"), ((10, 10), "lmmse", "binary"),
    )
    N = {"opt": 1200, "lmmse": 2000}
    # the lmmse op whose per-user MMSE diagonal is checked against eigenvalues
    DIAGONAL_CHECK = ((3, 2), "lmmse", "uniform")

    def __init__(self, seed: int, rounds: int):
        self.ops = [
            self._op(pair, receiver, phases, seed * 1000 + r * len(self.ROUND) + i)
            for r in range(rounds)
            for i, (pair, receiver, phases) in enumerate(self.ROUND)
        ]
        self.warmup = [self._op((3, 2), "opt", "uniform", WARMUP_STREAM),
                       self._op((3, 2), "lmmse", "uniform", WARMUP_STREAM)]

    def _op(self, pair, receiver, phases, op_seed) -> Op:
        d, bd = pair
        n = feasible_n(self.N[receiver], d, bd)
        run = montecarlo.empirical_capacity_opt if receiver == "opt" else montecarlo.empirical_capacity_lmmse
        cfg = SystemConfig(d, bd, MC_SNR)

        def op():
            return run(n, cfg, trials=1, seed=op_seed, phase_scheme=phases)

        return Op(receiver, (pair, receiver, phases, n, op_seed), op)

    def verify(self, results) -> tuple[dict[int, str], list[str]]:
        limits = _reference_limits()
        problems = []
        diagonal_checked = False
        for r in results:
            pair, receiver, phases, n, op_seed = r.op.key
            tag = f"{pair} {receiver} {phases} seed={op_seed}"
            if r.error is not None:
                problems.append(f"{tag}: raised {r.error}")
                continue
            est = r.value
            limit = limits[pair][0 if receiver == "opt" else 1]
            if est.trials != 1 or abs(est.estimate - limit) > max(3 * est.stderr, 0.01 * limit):
                problems.append(f"{tag}: estimate {est.estimate:.6f} vs limit {limit:.6f}")
            want_diag = (pair, receiver, phases) == self.DIAGONAL_CHECK and not diagonal_checked
            if receiver == "lmmse" and not want_diag:
                continue
            # the program draws trial t of seed s from default_rng([s, t])
            d, bd = pair
            sig = montecarlo.generate_signature(n, d, bd, phases, np.random.default_rng([op_seed, 0]))
            bad = structure_problems(sig, n, d, bd)
            if bad:
                problems += [f"{tag}: {b}" for b in bad]
                continue
            gram = small_gram(sig)
            if receiver == "opt":
                chol = np.linalg.cholesky(np.eye(len(gram)) + MC_SNR * gram)
                logdet = 2.0 * np.log(np.abs(np.diag(chol))).sum()
                exact = logdet / (n * math.log(2.0))
                if rel_dev(est.estimate, exact) > 1e-9:
                    problems.append(f"{tag}: {est.estimate!r} vs log2det/N {exact!r}")
            else:
                diagonal_checked = True
                k = sig.n_users
                eigs = np.linalg.eigvalsh(gram)
                eig_sum = (1.0 / (1.0 + MC_SNR * eigs)).sum() + (k - len(eigs))
                diag = montecarlo.lmmse_diagonal(sig, MC_SNR)
                if rel_dev(diag.sum(), eig_sum) > 1e-9:
                    problems.append(f"{tag}: sum of MMSE {diag.sum()!r} vs eigenvalues {eig_sum!r}")
                beta = bd / d
                if rel_dev(est.estimate, -beta * np.log2(diag).mean()) > 1e-12:
                    problems.append(f"{tag}: estimate does not come from its MMSE diagonal")
        if not diagonal_checked:
            problems.append("the MMSE diagonal check did not run")
        return {}, problems


def limit_cdf(d: int, beta_d: int, lam: np.ndarray) -> np.ndarray:
    """CDF of the limiting law at lam, from the benchmark's own density.

    Cumulative trapezoid rule on 2^16 steps of the smooth substituted weight
    (error far below 1e-8), then linear interpolation in the substituted
    variable.
    """
    import reference

    ens = reference.Ensemble(d, beta_d)
    lo, hi, gap, atom = (float(x) for x in (ens.lam_minus, ens.lam_plus, ens.gap, ens.atom))
    span = hi - lo
    t = np.linspace(0.0, np.pi / 2, 2**16 + 1)
    s2, c2 = np.sin(t) ** 2, np.cos(t) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        w = (beta_d / np.pi) * (span * s2 / (lo + span * s2)) * (span * c2 / (gap + span * c2))
    # the endpoint limits of the two bounded ratios
    w[0] = (beta_d / np.pi) * (1.0 if lo == 0.0 else 0.0) * span / (gap + span)
    w[-1] = (beta_d / np.pi) * span / (lo + span) * (1.0 if gap == 0.0 else 0.0)
    cum = np.concatenate([[0.0], np.cumsum((w[1:] + w[:-1]) / 2 * np.diff(t))])
    theta = np.arcsin(np.sqrt(np.clip((lam - lo) / span, 0.0, 1.0)))
    return atom * (lam >= 0) + np.interp(theta, t, cum)


def ks_statistic(d: int, beta_d: int, lam: np.ndarray, atom: float) -> float:
    """Two-sided KS distance of sorted eigenvalues to the limit, ties included."""
    uniq, counts = np.unique(lam, return_counts=True)
    n = len(lam)
    above = np.cumsum(counts) / n
    right = limit_cdf(d, beta_d, uniq)
    left = right - atom * (uniq == 0.0)
    return float(max(np.max(np.abs(right - above)), np.max(np.abs(left - (above - counts / n)))))


class McSpectrum:
    """One KS draw as criterion 4 makes it, at N ~ 2000."""

    name = "mc_spectrum"
    nominal_round_s = 10.5
    N = 2000

    def __init__(self, seed: int, rounds: int):
        densities = {pair: spectral_density(SystemConfig(*pair)) for pair in MC_PAIRS}
        self.ops = [
            self._op(pair, densities[pair], (seed, r, i))
            for r in range(rounds)
            for i, pair in enumerate(MC_PAIRS)
        ]
        self.warmup = [self._op((3, 2), densities[(3, 2)], (seed, WARMUP_STREAM))]

    def _op(self, pair, density, stream) -> Op:
        d, bd = pair
        n = feasible_n(self.N, d, bd)

        def op():
            sig = montecarlo.generate_signature(n, d, bd, "uniform", np.random.default_rng(stream))
            spec = montecarlo.empirical_spectrum(sig)
            return sig, spec, montecarlo.ks_distance(spec, density)

        return Op("ks_draw", (pair, n, stream), op)

    def verify(self, results) -> tuple[dict[int, str], list[str]]:
        problems = []
        for r in results:
            pair, n, stream = r.op.key
            tag = f"{pair} stream={stream}"
            if r.error is not None:
                problems.append(f"{tag}: raised {r.error}")
                continue
            sig, spec, ks = r.value
            bad = structure_problems(sig, n, *pair)
            if bad:
                problems += [f"{tag}: {b}" for b in bad]
                continue
            lam = np.asarray(spec.eigenvalues)
            if len(lam) != n or np.any(np.diff(lam) < 0) or lam[0] < 0:
                problems.append(f"{tag}: spectrum is not N sorted nonnegative values")
                continue
            own = ks_statistic(*pair, lam, max(0.0, 1.0 - pair[1] / pair[0]))
            if not (ks < KS_THRESHOLD and own < KS_THRESHOLD and abs(ks - own) < 1e-6):
                problems.append(f"{tag}: KS {ks:.6f}, recomputed {own:.6f}")
            # trace and Frobenius norm of G = (1/d) A A^H straight from the edges
            d = sig.d
            trace = float((np.abs(sig.weights) ** 2).sum()) / d
            a = sp.coo_matrix((sig.weights, (sig.rows, sig.cols)), shape=(n, sig.n_users)).tocsr()
            frob2 = float((np.abs((a @ a.conj().T).data) ** 2).sum()) / d**2
            if rel_dev(lam.sum(), trace) > 1e-9:
                problems.append(f"{tag}: sum of eigenvalues {lam.sum()!r} vs trace {trace!r}")
            if rel_dev((lam**2).sum(), frob2) > 1e-9:
                problems.append(f"{tag}: sum of squares {(lam**2).sum()!r} vs |G|_F^2 {frob2!r}")
        return {}, problems


class SignatureLarge:
    """generate_signature + to_sparse at N = 1e4 and 1e5."""

    name = "signature_large"
    nominal_round_s = 10.5
    # (pair, N, draws per round); more draws of the cheap pairs at 1e5 keep
    # the run time from hanging on whether one draw needed a second repair pass
    ROUND = (
        ((2, 2), 10_000, 3), ((3, 2), 10_000, 3), ((3, 6), 10_000, 3), ((10, 10), 10_000, 3),
        ((2, 2), 100_000, 3), ((3, 2), 100_000, 3), ((3, 6), 100_000, 1), ((10, 10), 100_000, 1),
    )

    def __init__(self, seed: int, rounds: int):
        spec = [(pair, n0) for pair, n0, draws in self.ROUND for _ in range(draws)]
        small = [s for s in spec if s[1] < 100_000]
        large = [s for s in spec if s[1] == 100_000]
        # interleave: a large draw after every few small ones
        order = []
        for i, s in enumerate(large):
            order += small[i * len(small) // len(large):(i + 1) * len(small) // len(large)] + [s]
        self.ops = [
            self._op(pair, n0, (seed, r, i)) for r in range(rounds) for i, (pair, n0) in enumerate(order)
        ]
        self.warmup = [self._op((3, 2), 100_000, (seed, WARMUP_STREAM))]

    def _op(self, pair, n0, stream) -> Op:
        d, bd = pair
        n = feasible_n(n0, d, bd)

        def op():
            sig = montecarlo.generate_signature(n, d, bd, "uniform", np.random.default_rng(stream))
            return sig, sig.to_sparse()

        return Op("generate", (pair, n, stream), op)

    def verify(self, results) -> tuple[dict[int, str], list[str]]:
        problems = []
        redrawn_large = False
        for r in results:
            pair, n, stream = r.op.key
            tag = f"{pair} N={n} stream={stream}"
            if r.error is not None:
                problems.append(f"{tag}: raised {r.error}")
                continue
            sig, a = r.value
            bad = structure_problems(sig, n, *pair)
            if bad:
                problems += [f"{tag}: {b}" for b in bad]
                continue
            coo = a.tocoo()
            order = np.lexsort((coo.col, coo.row))
            edges = np.lexsort((sig.cols, sig.rows))
            if (
                a.shape != (n, sig.n_users)
                or a.nnz != len(sig.rows)
                or not np.array_equal(coo.row[order], sig.rows[edges])
                or not np.array_equal(coo.col[order], sig.cols[edges])
                or not np.array_equal(coo.data[order], sig.weights[edges])
            ):
                problems.append(f"{tag}: to_sparse does not hold the edge list")
            # the same seed gives the same edges: all small draws, one large one
            if n < 100_000 or (pair == (3, 2) and not redrawn_large):
                redrawn_large = redrawn_large or n >= 100_000
                again = montecarlo.generate_signature(n, *pair, "uniform", np.random.default_rng(stream))
                if not (np.array_equal(again.rows, sig.rows) and np.array_equal(again.cols, sig.cols)
                        and np.array_equal(again.weights, sig.weights)):
                    problems.append(f"{tag}: a second draw with the same seed differs")
        return {}, problems
