"""Finite-size validation harness: generation, spectra, and estimators."""

import ctypes
import dataclasses
import functools
import math
import re
import sys
import tracemalloc
import types
from collections import Counter, defaultdict

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from sparse_noma import (
    ConfigurationError, DomainError, GenerationError, NumericalError, SystemConfig, spectral_density,
)
from sparse_noma.capacity import _cavity, capacity_lmmse, capacity_optimum, lmmse_error
from sparse_noma import montecarlo
from sparse_noma.checks import MC_CONFIGS
from sparse_noma.montecarlo import (
    KS_MIN_RESOURCES,
    EmpiricalSpectrum,
    McEstimate,
    SignatureMatrix,
    compare_to_closed_form,
    empirical_capacity_lmmse,
    empirical_capacity_opt,
    empirical_spectrum,
    feasible_resources,
    generate_signature,
    ks_distance,
    lmmse_diagonal,
)
from sparse_noma.spectral import limiting_cdf


def cycle_spectrum_oracle(sig):
    """Independent eigenvalue oracle for degree-2 ensembles.

    A (2,2)-regular bipartite graph is a disjoint union of even cycles.  On a
    cycle with L resources the scaled Gram matrix is I + (C + C*)/2 with C a
    phase-twisted cyclic shift, so its eigenvalues are 1 + cos((2*pi*j + phi)/L)
    where phi is the argument of the weight product around the cycle (weights
    enter conjugated on every second edge).
    """
    by_res = defaultdict(list)
    by_user = defaultdict(list)
    for r, u, w in zip(sig.rows.tolist(), sig.cols.tolist(), sig.weights.tolist()):
        by_res[r].append((u, w))
        by_user[u].append((r, w))
    seen = set()
    eigs = []
    for start in range(sig.n_resources):
        if start in seen:
            continue
        used = set()
        phase = complex(1.0)
        length = 0
        r = start
        while True:
            seen.add(r)
            length += 1
            u, w = next(e for e in by_res[r] if (r, e[0]) not in used)
            used.add((r, u))
            phase *= w
            r2, w2 = next(e for e in by_user[u] if (e[0], u) not in used)
            used.add((r2, u))
            phase *= np.conj(w2)
            r = r2
            if r == start:
                break
        phi = np.angle(phase)
        eigs.extend(1.0 + np.cos((2.0 * np.pi * np.arange(length) + phi) / length))
    return np.sort(np.asarray(eigs))


def reference_repair(rng, rows, cols, cap):
    """Loop-and-Counter swap repair, kept as the reference for the library's.

    The vectorized repair must leave the same rows, consume the same RNG
    draws and give up at the same cap, for every seed.
    """
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


def reference_generate(n, d, beta_d, phase_scheme, rng):
    """generate_signature's draw sequence on top of reference_repair."""
    k = n * beta_d // d
    n_edges = k * d
    cols = np.repeat(np.arange(k), d)
    for _ in range(25):
        rows = np.repeat(np.arange(n), beta_d)
        rng.shuffle(rows)
        if reference_repair(rng, rows, cols, cap=100 * n_edges):
            break
    else:
        raise GenerationError("no simple graph")
    if phase_scheme == "uniform":
        weights = np.exp(2j * math.pi * rng.random(n_edges))
    elif phase_scheme == "binary":
        weights = (rng.integers(0, 2, n_edges) * 2.0 - 1.0).astype(complex)
    else:
        weights = np.ones(n_edges, dtype=complex)
    return rows, cols, weights


def assert_matches_reference(n, d, beta_d, phase_scheme, seed):
    mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    sig = generate_signature(n, d, beta_d, phase_scheme, seed=mine)
    rows, cols, weights = reference_generate(n, d, beta_d, phase_scheme, theirs)
    assert np.array_equal(sig.rows, rows)
    assert np.array_equal(sig.cols, cols)
    assert np.array_equal(sig.weights, weights)
    assert mine.random() == theirs.random()  # the same RNG draws were consumed
    return sig


class TestGeneration:
    def test_exact_degrees(self):
        sig = generate_signature(3, 2, 4, seed=5)
        assert sig.n_users == 6
        a = sig.to_sparse()
        assert (np.asarray(a.getnnz(axis=1)) == 4).all()  # rows
        assert (np.asarray(a.getnnz(axis=0)) == 2).all()  # columns

    def test_unit_modulus(self):
        sig = generate_signature(60, 3, 4, "uniform", seed=1)
        assert np.max(np.abs(np.abs(sig.weights) - 1.0)) < 1e-15

    def test_phase_schemes(self):
        binary = generate_signature(30, 3, 6, "binary", seed=2)
        assert set(np.unique(binary.weights.real)) <= {-1.0, 1.0}
        assert np.all(binary.weights.imag == 0.0)
        rep = generate_signature(30, 3, 6, "repetition", seed=2)
        assert np.all(rep.weights == 1.0)

    def test_deterministic_given_seed(self):
        a = generate_signature(48, 3, 4, seed=9)
        b = generate_signature(48, 3, 4, seed=9)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.cols, b.cols)
        assert np.array_equal(a.weights, b.weights)
        c = generate_signature(48, 3, 4, seed=10)
        assert not (
            np.array_equal(a.rows, c.rows) and np.array_equal(a.weights, c.weights)
        )

    def test_infeasible_user_count(self):
        with pytest.raises(ConfigurationError, match="integer"):
            generate_signature(5, 3, 2, seed=0)

    def test_too_few_resources(self):
        with pytest.raises(ConfigurationError, match="need n_resources > d"):
            generate_signature(3, 3, 3, seed=0)

    def test_unknown_phase_scheme(self):
        with pytest.raises(ConfigurationError, match="phase_scheme"):
            generate_signature(6, 2, 2, "gaussian", seed=0)

    @pytest.mark.parametrize("n", [1200.7, 1200.9, 1200.0, True])
    def test_non_integral_resource_count(self, n):
        # a float count is refused, not truncated below what was asked for
        with pytest.raises(ConfigurationError, match="n_resources must be an integer"):
            generate_signature(n, 3, 6, seed=0)
        with pytest.raises(ConfigurationError, match="n_resources must be an integer"):
            feasible_resources(n, 3, 6)
        assert generate_signature(np.int64(12), 3, 6, seed=0).n_resources == 12
        assert feasible_resources(np.int64(1201), 3, 2) == 1203

    @given(
        d=st.integers(2, 4),
        mult=st.integers(1, 3),
        scale=st.integers(4, 9),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_simple_graph_property(self, d, mult, scale, seed):
        bd = d * mult
        n = feasible_resources(scale * d, d, bd)
        sig = generate_signature(n, d, bd, seed=seed)
        sig.validate()
        pairs = set(zip(sig.rows.tolist(), sig.cols.tolist()))
        assert len(pairs) == len(sig.rows)

    @pytest.mark.parametrize("d,bd", [(2, 2), (3, 2), (3, 6), (10, 10)])
    def test_matches_reference_at_acceptance_pairs(self, d, bd):
        n = feasible_resources(2000, d, bd)
        for seed, scheme in enumerate(montecarlo.PHASE_SCHEMES):
            assert_matches_reference(n, d, bd, scheme, seed)

    @pytest.mark.parametrize("d,bd,n", [(2, 2, 6), (3, 6, 30), (2, 4, 24), (3, 4, 36)])
    def test_matches_reference_under_heavy_repair(self, d, bd, n):
        swaps = 0
        for seed in range(100):
            for scheme in montecarlo.PHASE_SCHEMES:
                swaps += assert_matches_reference(n, d, bd, scheme, seed).swap_iterations
        assert swaps > 0

    @pytest.mark.parametrize("d,bd,n", [(2, 2, 6), (3, 6, 30), (3, 3, 4)])
    def test_repair_matches_reference_at_the_cap(self, d, bd, n):
        cols = np.repeat(np.arange(n * bd // d), d)
        gave_up = 0
        for seed in range(100):
            for cap in (1, 2, 5, 1000):
                rows = np.repeat(np.arange(n), bd)
                np.random.default_rng(seed).shuffle(rows)
                mine, theirs = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
                ours, ref = rows.copy(), rows.copy()
                swaps = montecarlo._repair_to_simple(mine, ours, d, cap)
                assert (swaps is not None) == reference_repair(theirs, ref, cols, cap)
                assert np.array_equal(ours, ref)
                assert mine.random() == theirs.random()
                gave_up += swaps is None
        assert gave_up > 0

    def test_repair_counters(self):
        sig = generate_signature(30, 3, 6, seed=0)
        assert sig.swap_iterations > 0
        assert sig.matchings == 1

    def test_repair_failure_after_25_matchings(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_repair_to_simple", lambda rng, rows, d, cap: None)
        with pytest.raises(GenerationError, match="no simple graph after 25 matchings"):
            generate_signature(30, 3, 6, seed=0)

    def test_large_draw_is_valid(self):
        sig = generate_signature(100_000, 10, 10, seed=1)
        assert sig.n_users == 100_000
        sig.validate()


class TestValidate:
    @staticmethod
    def user_blocks(rows, n, k, d, bd):
        """A signature whose user c owns rows[c*d:(c+1)*d]."""
        rows = np.asarray(rows)
        return SignatureMatrix(n, k, d, bd, rows, np.ones(len(rows), complex), "repetition")

    def valid(self):
        # 4 resources, 4 users, d = beta_d = 2: the 8-cycle r0 u0 r1 u1 r2 u2 r3 u3
        return self.user_blocks([0, 1, 1, 2, 2, 3, 3, 0], 4, 4, 2, 2)

    @pytest.mark.parametrize("field", ["rows", "weights"])
    def test_length_not_k_times_d(self, field):
        sig = self.valid()
        sig.validate()
        assert np.array_equal(sig.cols, np.repeat(np.arange(4), 2))
        assert sig.cols.dtype == sig.rows.dtype
        setattr(sig, field, np.concatenate([getattr(sig, field)] * 2))
        with pytest.raises(GenerationError, match=r"length K\*d = 8"):
            sig.validate()

    def test_duplicate_edge(self):
        # exact degrees, but each resource is connected twice to the same user
        sig = self.user_blocks([0, 0, 1, 1], 2, 2, 2, 2)
        with pytest.raises(GenerationError, match="duplicate"):
            sig.validate()

    def test_wrong_row_degree(self):
        sig = self.valid()
        sig.rows[sig.rows == 3] = 0
        with pytest.raises(GenerationError, match="row degrees"):
            sig.validate()

    def test_negative_index(self):
        sig = self.valid()
        sig.rows[0] = -1
        with pytest.raises(GenerationError, match="out of range"):
            sig.validate()

    def test_index_past_the_end(self):
        sig = self.valid()
        sig.rows[0] = sig.n_resources
        with pytest.raises(GenerationError, match="out of range"):
            sig.validate()

    def test_length_mismatch(self):
        sig = self.valid()
        sig.weights = sig.weights[:-1]
        with pytest.raises(GenerationError, match="length"):
            sig.validate()

    def test_off_circle_weight(self):
        sig = self.valid()
        sig.weights[3] = 1.5
        with pytest.raises(GenerationError, match="unit modulus"):
            sig.validate()

    @given(d=st.integers(1, 12), k=st.integers(0, 40), n=st.integers(1, 30), seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_repeated_users_on_both_sides_of_the_switch(self, d, k, n, seed):
        # column pairs below d = 10, a per-row sort from there; both against a set per user
        blocks = np.random.default_rng(seed).integers(0, n, (k, d), dtype=np.int32)
        want = [c for c in range(k) if len(set(blocks[c].tolist())) < d]
        assert montecarlo._repeated_users(blocks).tolist() == want


class TestEmpiricalSpectrum:
    def test_trace_identity(self):
        for d, bd, n in ((2, 2, 50), (3, 2, 51), (3, 6, 40)):
            sig = generate_signature(n, d, bd, seed=3)
            spec = empirical_spectrum(sig)
            assert spec.mean == pytest.approx(bd / d, abs=1e-10)

    def test_eigenvalue_range(self):
        sig = generate_signature(60, 3, 6, seed=4)
        eigs = empirical_spectrum(sig).eigenvalues
        assert eigs.min() >= 0.0
        assert eigs.max() <= 6.0 + 1e-9

    def test_zero_padding_when_underloaded(self):
        sig = generate_signature(30, 3, 2, seed=6)  # 20 users, 30 resources
        eigs = empirical_spectrum(sig).eigenvalues
        assert len(eigs) == 30
        assert np.sum(eigs == 0.0) >= 10

    def test_cycle_closed_form(self):
        # independent per-cycle eigenvalue formula, small systems, many seeds
        for n in (4, 7, 12):
            for seed in range(6):
                sig = generate_signature(n, 2, 2, "uniform", seed=seed)
                expected = cycle_spectrum_oracle(sig)
                got = np.sort(empirical_spectrum(sig).eigenvalues)
                assert np.allclose(got, expected, atol=1e-10)

    def test_second_moment_approaches_limit(self):
        cfg = SystemConfig(3, 6)
        sig = generate_signature(600, 3, 6, seed=7)
        spec = empirical_spectrum(sig)
        limit = cfg.beta**2 + cfg.beta * (2 / 3)
        assert spec.second_moment == pytest.approx(limit, rel=0.02)


class TestCapacityEstimators:
    def test_optimum_matches_closed_form(self):
        cfg = SystemConfig(3, 2, 10.0)
        est = empirical_capacity_opt(300, cfg, trials=10, seed=42)
        closed = capacity_optimum(cfg).spectral_efficiency
        assert abs(est.estimate - closed) < max(4.0 * est.stderr, 0.01 * closed)

    def test_lmmse_matches_closed_form(self):
        cfg = SystemConfig(3, 2, 10.0)
        est = empirical_capacity_lmmse(300, cfg, trials=8, seed=43)
        closed = capacity_lmmse(cfg).spectral_efficiency
        assert abs(est.estimate - closed) < max(4.0 * est.stderr, 0.01 * closed)

    def test_per_trial_sum_rate_bound(self):
        # each realization obeys the diagonal (Hadamard) bound
        cfg = SystemConfig(3, 6, 10.0)
        est = empirical_capacity_opt(60, cfg, trials=10, seed=8)
        bound = math.log2(1.0 + cfg.beta * cfg.snr)
        assert all(s <= bound + 1e-12 for s in est.samples)

    def test_zero_snr_is_exactly_zero(self):
        for d, bd, n in ((2, 2, 30), (3, 6, 30)):
            for run in (empirical_capacity_opt, empirical_capacity_lmmse):
                est = run(n, SystemConfig(d, bd, 0.0), trials=3, seed=0)
                assert repr((est.estimate, est.stderr)) == "(0.0, 0.0)", (run.__name__, d, bd)

    def test_deterministic_given_seed(self):
        cfg = SystemConfig(2, 4, 10.0)
        a = empirical_capacity_opt(40, cfg, trials=5, seed=11)
        b = empirical_capacity_opt(40, cfg, trials=5, seed=11)
        assert a.samples == b.samples

    def test_non_integral_resource_count(self):
        # each trial divides by the N it drew, so a count must be an integer to mean that N
        cfg = SystemConfig(3, 6, 10.0)
        with pytest.raises(ConfigurationError, match="n_resources must be an integer"):
            empirical_capacity_opt(1200.5, cfg, trials=2)
        assert empirical_capacity_opt(np.int64(1200), cfg, trials=2) == empirical_capacity_opt(1200, cfg, trials=2)

    def test_negative_seed_is_a_configuration_error(self):
        # numpy's SeedSequence rejects it; both estimators and the comparison say so in the package's terms
        cfg = SystemConfig(3, 6, 10.0)
        for run in (empirical_capacity_opt, empirical_capacity_lmmse):
            with pytest.raises(ConfigurationError, match="seed must be >= 0"):
                run(60, cfg, trials=2, seed=-1)
        with pytest.raises(ConfigurationError, match="seed must be >= 0"):
            compare_to_closed_form("optimum", cfg, n_resources=60, trials=2, seed=-1)

    def test_phase_scheme_insensitivity(self):
        # the limit only needs unit-circle weights, so every scheme converges
        # to the same value; at finite size they differ by an O(1/N) bias
        cfg = SystemConfig(3, 6, 10.0)
        closed = capacity_optimum(cfg).spectral_efficiency
        for scheme in ("uniform", "binary", "repetition"):
            est = empirical_capacity_opt(240, cfg, trials=12, seed=12, phase_scheme=scheme)
            assert abs(est.estimate - closed) < 0.005 * closed


class TestLowSnrBound:
    """For 0 < snr < 1e-9 a trial's rounding passes 1e-6 relative, so the estimators raise DomainError."""

    @pytest.mark.parametrize("snr", [5e-10, 1e-16])
    def test_below_the_bound_is_a_domain_error(self, snr):
        cfg = SystemConfig(3, 6, snr)
        for run in (empirical_capacity_opt, empirical_capacity_lmmse):
            with pytest.raises(DomainError, match="at least 1e-09"):
                run(30, cfg, trials=1)
        with pytest.raises(DomainError, match="at least 1e-09"):
            lmmse_diagonal(generate_signature(30, 3, 6, seed=1), snr)

    @pytest.mark.parametrize("scheme", ["uniform", "binary"])
    @pytest.mark.parametrize("d, bd, n", [(2, 2, 30), (3, 2, 30), (3, 6, 30), (10, 10, 12)])
    def test_zero_snr_gives_exact_ones(self, d, bd, n, scheme):
        # cycles at (2,2), tftri on the user side at (3,2) and (10,10), pftri on the resource side at (3,6)
        sig = generate_signature(n, d, bd, scheme, seed=2)
        assert np.array_equal(lmmse_diagonal(sig, 0.0), np.ones(sig.n_users))

    @pytest.mark.parametrize("d, bd, n, scheme", [
        (2, 2, 300, "uniform"), (3, 6, 30, "binary"), (10, 10, 12, "repetition"), (3, 2, 120, "binary"),
    ])
    def test_trials_at_the_bound_are_within_1e_6(self, d, bd, n, scheme):
        snr, seed = 1e-9, 1
        sig = generate_signature(n, d, bd, scheme, np.random.default_rng([seed, 0]))  # trial 0 of seed
        a = sig.to_sparse().toarray()
        lam, u = np.linalg.eigh(a.conj().T @ a)
        cl = snr / d * np.clip(lam, 0.0, None)
        exact_opt = np.log1p(cl).sum() / (n * math.log(2.0))
        exact_mean_log = np.log1p(-(np.abs(u) ** 2 @ (cl / (1.0 + cl)))).mean()
        est = empirical_capacity_opt(n, SystemConfig(d, bd, snr), trials=1, seed=seed, phase_scheme=scheme)
        assert est.estimate == pytest.approx(exact_opt, rel=1e-6, abs=0.0)
        assert np.log(lmmse_diagonal(sig, snr)).mean() == pytest.approx(exact_mean_log, rel=1e-6, abs=0.0)


class TestCompareToClosedForm:
    """The agreement rule abs_dev < max(3 SE, 1% closed) on synthetic estimates."""

    def _compare(self, monkeypatch, estimate, stderr, receiver="optimum", **kwargs):
        calls = []

        def fake_estimator(n, config, trials, seed, phase_scheme):
            calls.append((n, trials))
            return McEstimate(estimate, stderr, trials, ())

        closed = types.SimpleNamespace(spectral_efficiency=100.0)  # 1% is exactly 1.0
        monkeypatch.setattr(montecarlo, "capacity_optimum", lambda cfg: closed)
        monkeypatch.setattr(montecarlo, "capacity_lmmse", lambda cfg: closed)
        monkeypatch.setattr(montecarlo, "empirical_capacity_opt", fake_estimator)
        monkeypatch.setattr(montecarlo, "empirical_capacity_lmmse", fake_estimator)
        return compare_to_closed_form(receiver, SystemConfig(3, 2, 10.0), **kwargs), calls

    def test_floor_branch(self, monkeypatch):
        under, _ = self._compare(monkeypatch, math.nextafter(101.0, 100.0), 0.25)
        assert under.tolerance == 1.0 and under.passed
        at, _ = self._compare(monkeypatch, 99.0, 0.25)
        assert at.abs_dev == at.tolerance == 1.0 and not at.passed

    def test_stderr_branch(self, monkeypatch):
        under, _ = self._compare(monkeypatch, math.nextafter(101.5, 100.0), 0.5)
        assert under.tolerance == 1.5 and under.passed
        at, _ = self._compare(monkeypatch, 101.5, 0.5)
        assert at.abs_dev == at.tolerance == 1.5 and not at.passed

    def test_record_fields(self, monkeypatch):
        r, _ = self._compare(monkeypatch, 100.25, 0.125, trials=7, n_resources=100)
        assert (r.closed_form, r.estimate, r.stderr, r.abs_dev) == (100.0, 100.25, 0.125, 0.25)
        assert (r.trials, r.n_resources) == (7, feasible_resources(100, 3, 2))

    def test_receiver_defaults(self, monkeypatch):
        _, calls = self._compare(monkeypatch, 100.0, 0.0, receiver="optimum")
        assert calls == [(feasible_resources(1200, 3, 2), 50)]
        _, calls = self._compare(monkeypatch, 100.0, 0.0, receiver="lmmse")
        assert calls == [(feasible_resources(2000, 3, 2), 20)]

    def test_unknown_receiver(self):
        with pytest.raises(ConfigurationError, match="receiver"):
            compare_to_closed_form("opt", SystemConfig(3, 2, 10.0))


class TestLmmseDiagonal:
    def _dense_reference(self, sig, snr):
        a = sig.to_sparse().toarray()
        r = a.conj().T @ a / sig.d
        m = np.linalg.inv(np.eye(sig.n_users) + snr * r)
        return np.real(np.diag(m))

    def test_direct_route_underloaded(self):
        sig = generate_signature(30, 3, 2, seed=13)  # K=20 < N
        got = lmmse_diagonal(sig, 10.0)
        assert np.allclose(got, self._dense_reference(sig, 10.0), atol=1e-10)

    def test_resource_side_route_overloaded(self):
        sig = generate_signature(24, 2, 4, seed=14)  # K=48 > N
        got = lmmse_diagonal(sig, 10.0)
        assert np.allclose(got, self._dense_reference(sig, 10.0), atol=1e-10)

    def test_values_are_contractions(self):
        sig = generate_signature(36, 3, 4, seed=15)
        vals = lmmse_diagonal(sig, 5.0)
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)

    def test_mean_sinr_matches_limit(self):
        cfg = SystemConfig(2, 2, 10.0)
        target = lmmse_error(cfg).sinr
        sinrs = []
        for seed in range(8):
            sig = generate_signature(400, 2, 2, seed=seed)
            m = lmmse_diagonal(sig, 10.0)
            sinrs.append(float(np.mean(1.0 / m - 1.0)))
        assert np.mean(sinrs) == pytest.approx(target, rel=0.02)


SHAPES = {"K<N": (3, 2), "K=N": (2, 2), "K>N": (3, 6)}


@pytest.mark.parametrize("scheme", ["uniform", "binary", "repetition"])
@pytest.mark.parametrize("shape", list(SHAPES))
class TestFactorRoutes:
    """The Cholesky routes against eigenvalues and a dense inverse, one signature per case."""

    N, SNR, SEED = 60, 10.0, 21

    def _signature(self, shape, scheme):
        d, bd = SHAPES[shape]
        # the draw empirical_capacity_opt makes for trial 0 of SEED
        return generate_signature(self.N, d, bd, scheme, np.random.default_rng([self.SEED, 0]))

    def test_logdet_matches_eigenvalues(self, shape, scheme):
        sig = self._signature(shape, scheme)
        cfg = SystemConfig(sig.d, sig.beta_d, self.SNR)
        est = empirical_capacity_opt(self.N, cfg, trials=1, seed=self.SEED, phase_scheme=scheme)
        # the user-side Gram shares its nonzero eigenvalues with the resource side
        a = sig.to_sparse().toarray()
        eigs = np.linalg.eigvalsh(a.conj().T @ a / sig.d)
        exact = np.log1p(self.SNR * eigs).sum() / (self.N * math.log(2.0))
        assert est.estimate == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_lmmse_diagonal_matches_inverse(self, shape, scheme):
        sig = self._signature(shape, scheme)
        a = sig.to_sparse().toarray()
        r = a.conj().T @ a / sig.d
        want = np.real(np.diag(np.linalg.inv(np.eye(sig.n_users) + self.SNR * r)))
        assert np.allclose(lmmse_diagonal(sig, self.SNR), want, rtol=1e-12, atol=0.0)

    def test_real_path_matches_complex_path(self, shape, scheme):
        # a common factor 1j leaves both Gram sides exactly unchanged but
        # makes every weight complex, so the complex arithmetic runs
        sig = self._signature(shape, scheme)
        rotated = dataclasses.replace(sig, weights=1j * sig.weights)
        assert np.allclose(lmmse_diagonal(sig, self.SNR), lmmse_diagonal(rotated, self.SNR),
                           rtol=1e-13, atol=0.0)
        lam, lam_rot = empirical_spectrum(sig).eigenvalues, empirical_spectrum(rotated).eigenvalues
        assert np.allclose(lam, lam_rot, rtol=0.0, atol=1e-13)
        logdet = [dense_logdet(s, self.SNR) for s in (sig, rotated)]
        assert logdet[0] == pytest.approx(logdet[1], rel=1e-13, abs=0.0)


class TestFactorFailures:
    def test_failed_cholesky_is_numerical_error(self):
        # I - G/d is indefinite, so pftrf reports a nonpositive pivot
        sig = generate_signature(24, 2, 4, seed=22)
        with pytest.raises(NumericalError, match="pftrf"):
            montecarlo._cholesky(sig, -1.0)

    def test_failed_cholesky_without_lapacke_is_numerical_error(self, monkeypatch):
        # the same pivot through numpy.linalg.cholesky on the unpacked copy
        monkeypatch.setattr(montecarlo, "_lapacke", lambda: None)
        sig = generate_signature(24, 2, 4, seed=22)
        with pytest.raises(NumericalError, match=r"Cholesky factorization of I \+ snr R failed \(numpy\.linalg\.cholesky: "):
            montecarlo._cholesky(sig, -1.0)

    @pytest.mark.parametrize("name, d, bd, failure", [
        ("zpftrf", 3, 6, "Cholesky factorization of I + snr R"), ("dpftrf", 3, 6, "Cholesky factorization of I + snr R"),
        ("zpftri", 3, 6, "inverting I + snr R"), ("dpftri", 3, 6, "inverting I + snr R"),  # resource side
        ("ztftri", 3, 2, "inverting the Cholesky factor"), ("dtftri", 3, 2, "inverting the Cholesky factor"),
        ("zheevd_2stage", 3, 6, "eigensolve"), ("dsyevd_2stage", 3, 6, "eigensolve"),
    ])
    def test_routine_failure_names_the_routine(self, monkeypatch, name, d, bd, failure):
        sig = generate_signature(60, d, bd, "uniform" if name[0] == "z" else "binary", seed=21)
        monkeypatch.setitem(montecarlo._lapacke(), name, lambda *args: -5)
        with pytest.raises(NumericalError, match=re.escape(f"{failure} failed ({name} info -5)")):
            empirical_spectrum(sig) if failure == "eigensolve" else lmmse_diagonal(sig, 10.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("n, d, bd", [(30, 3, 2), (24, 2, 4)])
    def test_infinite_snr_is_numerical_error(self, n, d, bd):
        sig = generate_signature(n, d, bd, seed=23)
        with pytest.raises(NumericalError):
            lmmse_diagonal(sig, math.inf)


# several 64-column reduction panels, the last one partial, odd and even m, on both Gram sides
RFP_CASES = [(10, 10, 1000), (10, 10, 1001), (3, 6, 999), (3, 6, 1000)]


class TestRfpRoutes:
    """The factor in rectangular full packed storage: its layout, panels past the first, its LAPACK bindings."""

    SNR, SEED = 10.0, 31

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n", range(1, 12))
    def test_positions_match_trttf(self, n, complex_):
        rng = np.random.default_rng([n, complex_])
        a = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_ else 0.0)
        trttf = sla.get_lapack_funcs("trttf", (a,))
        arf, info = trttf(np.asfortranarray(a), transr="N", uplo="L")
        assert info == 0
        i, j = np.tril_indices(n)
        pos, conj = montecarlo._rfp_positions(n, i, j)
        assert np.array_equal(np.sort(pos), np.arange(n * (n + 1) // 2))
        assert np.array_equal(np.where(conj, arf[pos].conj(), arf[pos]), a[i, j])

    @pytest.mark.parametrize("scheme", ["uniform", "binary"])
    @pytest.mark.parametrize("d, bd, n", RFP_CASES)
    def test_estimators_past_one_panel(self, d, bd, n, scheme):
        # the draw empirical_capacity_opt makes for trial 0 of SEED
        sig = generate_signature(n, d, bd, scheme, np.random.default_rng([self.SEED, 0]))
        assert np.allclose(lmmse_diagonal(sig, self.SNR), dense_mmse(sig, self.SNR), rtol=1e-12, atol=0.0)
        sign, want = np.linalg.slogdet(dense_smaller_side(sig, self.SNR))
        assert abs(sign - 1.0) <= 1e-12  # complex weights give a unit complex sign
        est = empirical_capacity_opt(n, SystemConfig(d, bd, self.SNR), trials=1, seed=self.SEED,
                                     phase_scheme=scheme)
        assert est.estimate * n * math.log(2.0) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_routes_run_without_pythonapi(self, run_probe):
        # nothing binds the CPython C API, so an interpreter without ctypes.pythonapi runs every route
        probe = (
            "import ctypes; ctypes.pythonapi = None\n"
            "import numpy as np\n"
            "from sparse_noma import SystemConfig, montecarlo as mc\n"
            "sig = mc.generate_signature(60, 3, 6, 'uniform', np.random.default_rng(0))\n"
            "cfg = SystemConfig(3, 6, 10.0)\n"
            "print(mc.empirical_spectrum(sig).driver, mc.empirical_capacity_opt(60, cfg, trials=1).trials,\n"
            "      mc.empirical_capacity_lmmse(60, cfg, trials=1).trials, len(mc.lmmse_diagonal(sig, 10.0)))\n"
        )
        assert run_probe(probe).split() == ["zheevd_2stage", "1", "1", "120"]

    def test_tftri_binds_on_this_platform(self):
        # a silent fallback would keep every result and lose the speed and the packed memory; numpy's
        # OpenBLAS is ILP64, so every routine returns a 64-bit lapack_int
        bound = montecarlo._lapacke()
        assert sorted(bound) == sorted([
            "zpftrf", "dpftrf", "zpftri", "dpftri", "ztftri", "dtftri", "zheevd_2stage", "dsyevd_2stage",
        ])
        assert {fn.__name__ for fn in bound.values()} == {f"scipy_LAPACKE_{name}64_" for name in bound}
        assert {ctypes.sizeof(fn.restype) for fn in bound.values()} == {8}

    @staticmethod
    def bind_lacking(monkeypatch, symbols, served=None):
        """_lapacke() rebound with numpy's library hiding the given symbols and exporting served, a map of symbols to functions."""
        cdll = ctypes.CDLL

        class Lacking:
            def __init__(self, path):
                self.lib = cdll(path)

            def __getattr__(self, symbol):
                if symbol in symbols:
                    raise AttributeError(symbol)
                return (served or {}).get(symbol) or getattr(self.lib, symbol)

        montecarlo._lapacke.cache_clear()
        monkeypatch.setattr(ctypes, "CDLL", Lacking)
        return montecarlo._lapacke()

    @pytest.mark.parametrize("missing", ["ztftri", "dpftri", "dsyevd_2stage"])
    def test_library_lacking_one_routine_binds_none(self, monkeypatch, missing):
        # the platform is one decision: when neither naming exports every routine, numpy.linalg
        # does the work of every routine
        symbols = {f"scipy_LAPACKE_{missing}64_", f"LAPACKE_{missing}"}
        try:
            assert self.bind_lacking(monkeypatch, symbols) is None
            assert empirical_spectrum(generate_signature(60, 3, 6, seed=34)).driver == "eigvalsh"
        finally:
            montecarlo._lapacke.cache_clear()

    @pytest.mark.parametrize("missing", ["ztftri", "dsyevd_2stage"])
    def test_plain_lapacke_names_bind_with_a_c_int(self, monkeypatch, missing):
        # the second naming: a numpy build linking a system LAPACKE exports LAPACKE_<name> with a 32-bit
        # lapack_int, played here by scipy's LP64 OpenBLAS, opened through the extension that links it.
        # One missing ILP64 name moves all eight routines to the second naming, none stays on the first.
        # Both libraries are OpenBLAS, so the results agree: to the bit at these sizes with one BLAS
        # thread, to rounding with more, where the two builds split the work differently
        from scipy.linalg import cython_lapack

        lp64 = ctypes.CDLL(cython_lapack.__file__)
        names = [name for _, *pair in montecarlo._LAPACKE_ROUTINES.values() for name in pair]
        hidden = {f"scipy_LAPACKE_{missing}64_"}
        served = {f"LAPACKE_{name}": getattr(lp64, f"scipy_LAPACKE_{name}") for name in names}

        def results():
            out = []
            for d, bd, n in [(3, 6, 300), (3, 2, 300), (10, 10, 301)]:
                for scheme in ("uniform", "binary"):
                    sig = generate_signature(n, d, bd, scheme, np.random.default_rng([self.SEED, 0]))
                    cfg = SystemConfig(d, bd, self.SNR)
                    out += [empirical_spectrum(sig).eigenvalues, lmmse_diagonal(sig, self.SNR),
                            empirical_capacity_opt(n, cfg, trials=1, seed=self.SEED, phase_scheme=scheme).estimate]
            return out

        want = results()
        try:
            bound = self.bind_lacking(monkeypatch, hidden, served)
            assert len(bound) == 8
            assert {ctypes.sizeof(fn.restype) for fn in bound.values()} == {ctypes.sizeof(ctypes.c_int)}
            assert {fn.__name__ for fn in bound.values()} == {f"scipy_LAPACKE_{name}" for name in bound}
            got = results()
        finally:
            montecarlo._lapacke.cache_clear()
        for x, y in zip(got, want):
            assert np.allclose(x, y, rtol=1e-12, atol=1e-12)

    def test_routes_import_no_scipy_and_map_one_openblas(self, run_probe):
        # spectrum, log-det and MMSE diagonal on both Gram sides, real and complex weights: with every
        # routine bound from numpy's own OpenBLAS no scipy module is imported and no second BLAS mapped
        probe = (
            "import sys\n"
            "import numpy as np\n"
            "from sparse_noma import SystemConfig, montecarlo as mc\n"
            "drivers = set()\n"
            "for d, bd in [(3, 6), (3, 2), (10, 10)]:  # K > N, K < N, K = N\n"
            "    for scheme in ('uniform', 'binary'):\n"
            "        sig = mc.generate_signature(60, d, bd, scheme, np.random.default_rng(0))\n"
            "        drivers.add(mc.empirical_spectrum(sig).driver)\n"
            "        mc.empirical_capacity_opt(60, SystemConfig(d, bd, 10.0), trials=1, phase_scheme=scheme)\n"
            "        mc.lmmse_diagonal(sig, 10.0)\n"
            "print(*sorted(drivers))\n"
            "print(len([name for name in sys.modules if name.split('.')[0] == 'scipy']))\n"
            "if sys.platform == 'linux':\n"
            "    with open('/proc/self/maps') as fh:\n"
            "        print(len({line.split()[-1] for line in fh if 'openblas' in line.lower()}))\n"
        )
        drivers, scipy_modules, *openblas = run_probe(probe).splitlines()
        assert drivers.split() == ["dsyevd_2stage", "zheevd_2stage"]
        assert scipy_modules == "0"
        assert openblas == (["1"] if sys.platform == "linux" else [])

    def test_routes_without_lapacke_import_no_scipy(self, run_probe):
        # the same routes where no naming binds: numpy.linalg does every routine's work, and no scipy
        # module is imported
        probe = (
            "import sys\n"
            "import numpy as np\n"
            "from sparse_noma import SystemConfig, montecarlo as mc\n"
            "mc._lapacke = lambda: None\n"
            "drivers = set()\n"
            "for d, bd in [(3, 6), (3, 2), (10, 10)]:  # K > N, K < N, K = N\n"
            "    for scheme in ('uniform', 'binary'):\n"
            "        sig = mc.generate_signature(60, d, bd, scheme, np.random.default_rng(0))\n"
            "        drivers.add(mc.empirical_spectrum(sig).driver)\n"
            "        mc.empirical_capacity_opt(60, SystemConfig(d, bd, 10.0), trials=1, phase_scheme=scheme)\n"
            "        mc.lmmse_diagonal(sig, 10.0)\n"
            "print(*sorted(drivers), len([name for name in sys.modules if name.split('.')[0] == 'scipy']))\n"
        )
        assert run_probe(probe).split() == ["eigvalsh", "0"]

    def test_tftri_failure_is_numerical_error(self, monkeypatch):
        monkeypatch.setitem(montecarlo._lapacke(), "ztftri", lambda *args: -5)
        with pytest.raises(NumericalError, match="ztftri info -5"):
            lmmse_diagonal(generate_signature(30, 3, 2, seed=13), self.SNR)

    @pytest.mark.parametrize("scheme", ["uniform", "binary"])
    @pytest.mark.parametrize("d, bd, n", [(3, 6, 300), (10, 10, 301), (3, 2, 300)])
    def test_platform_without_lapacke(self, monkeypatch, d, bd, n, scheme):
        # numpy builds on Accelerate have no LAPACKE at all: numpy.linalg's eigvalsh, cholesky and
        # inv do every routine's work, on both Gram sides
        cfg = SystemConfig(d, bd, self.SNR)
        sig = generate_signature(n, d, bd, scheme, np.random.default_rng([self.SEED, 0]))

        def results():
            return (empirical_spectrum(sig), lmmse_diagonal(sig, self.SNR),
                    [run(n, cfg, trials=1, seed=self.SEED, phase_scheme=scheme).estimate
                     for run in (empirical_capacity_opt, empirical_capacity_lmmse)])

        spectrum, diag, estimates = results()
        monkeypatch.setattr(montecarlo, "_lapacke", lambda: None)
        bare_spectrum, bare_diag, bare_estimates = results()
        assert bare_spectrum.driver == "eigvalsh"
        top = spectrum.eigenvalues[-1]
        assert np.max(np.abs(bare_spectrum.eigenvalues - spectrum.eigenvalues)) <= 1e-12 * max(1.0, top)
        assert np.allclose(bare_diag, diag, rtol=1e-12, atol=0.0)
        assert bare_estimates == pytest.approx(estimates, rel=1e-12, abs=0.0)


def ordered_pairs(groups):
    """(f, g) over every ordered pair of distinct entries within each row of groups."""
    f, g = np.broadcast_arrays(groups[:, :, None], groups[:, None, :])
    distinct = ~np.eye(groups.shape[1], dtype=bool)
    return f[:, distinct].ravel(), g[:, distinct].ravel()


def nonbacktracking(sig, rho):
    """The 2E x 2E non-backtracking matrix of the signature graph, weighted for the Bethe-zeta identity.

    Directed edge f < E runs from user f // d to resource rows[f], and E + f
    runs back.  A step user -> resource -> user, from f to E + g with g != f
    at the same resource, carries rho w_g conj(w_f); a step resource -> user
    -> resource, from E + f to g with g != f in the same user block, carries 1.
    """
    e = len(sig.rows)
    b = np.zeros((2 * e, 2 * e), dtype=complex)
    f, g = ordered_pairs(np.argsort(sig.rows, kind="stable").reshape(-1, sig.beta_d))
    b[f, e + g] = rho * sig.weights[g] * np.conj(sig.weights[f])
    f, g = ordered_pairs(np.arange(e).reshape(-1, sig.d))
    b[e + f, g] = 1.0
    return b


class TestBetheZeta:
    """On every draw, log det(I + c G) = N C_opt + log det(I - B) in nats, B the weighted non-backtracking matrix.

    rho = -c/(P_u P_r) at the cavity fixed point, c = snr/d (Watanabe &
    Fukumizu, NIPS 2009; Ihara-Bass for the (2,2) cycles).  The log-det is
    the one empirical_capacity_opt takes from the RFP Cholesky factor, or
    from the cycle eigenvalues at (2,2), so the equation checks that route,
    the closed form at finite N and the generator with no standard error.
    Each N gives 2E = 1200; the worst relative error seen is 1.2e-13, at
    snr = 1e-3, where the log-det is a sum of logs of numbers near 1.
    """

    SEED = 41

    @pytest.mark.parametrize("scheme", ["uniform", "binary", "repetition"])
    @pytest.mark.parametrize("d, bd, n", [(2, 2, 300), (3, 2, 300), (3, 6, 100), (10, 10, 60)])
    def test_logdet_is_bethe_plus_loops(self, d, bd, n, scheme):
        # the draw empirical_capacity_opt makes for trial 0 of SEED
        sig = generate_signature(n, d, bd, scheme, np.random.default_rng([self.SEED, 0]))
        identity = np.eye(2 * len(sig.rows))
        for snr in (1e-3, 0.1, 10.0, 1e3):
            cfg = SystemConfig(d, bd, snr)
            logdet = empirical_capacity_opt(n, cfg, trials=1, seed=self.SEED, phase_scheme=scheme).estimate
            logdet *= n * math.log(2.0)
            p_u, p_r = _cavity((d - 1) / d, bd / d, snr)
            sign, loops = np.linalg.slogdet(identity - nonbacktracking(sig, -snr / d / (p_u * p_r)))
            assert abs(sign - 1.0) <= 1e-12  # det(I - B) = det(I + c G) e^{-N C_opt} > 0
            bethe = n * capacity_optimum(cfg).spectral_efficiency * math.log(2.0)
            assert bethe + loops == pytest.approx(logdet, rel=1e-12, abs=0.0), f"snr {snr}"


class TestMmseIdentity:
    """On every draw, sum_k mmse_k = K m1 - snr d/dsnr log det(I - B), m1 = P_r/(snr + P_r).

    The snr derivative of TestBetheZeta's identity, with I-MMSE on its left
    side: d/dsnr log det(I + c G) = (K - sum_k mmse_k)/snr.  B is linear in
    rho, B = B(0) + rho U, so d/dsnr log det(I - B) = -rho' tr((I - B)^{-1} U),
    with rho' from the cavity quadratic, no finite difference.  The sum is
    lmmse_diagonal's on every route: tftri at (3,2) and (10,10), numpy.linalg's
    inverse in its place without LAPACKE, pftri on the resource side at
    (3,6), the cycles at (2,2).  Each N gives 2E = 1200; the worst relative
    error seen is 1.7e-14, at snr = 1e3, where the sum is near 2.
    """

    SEED = 41

    @staticmethod
    def cavity_slope(d, bd, snr):
        """(P_r, rho, d rho/d snr), rho = -c/(P_u P_r) with P_u P_r = P_r + alpha snr."""
        alpha, beta = (d - 1) / d, bd / d
        _, p_r = _cavity(alpha, beta, snr)
        # P_r' from differentiating the quadratic; its root is P_r - h
        h = (1.0 - (1.0 - beta) * snr) / 2.0
        dp_r = (alpha - (1.0 - beta) * p_r) / (2.0 * (p_r - h))
        q = p_r + alpha * snr
        return p_r, -snr / (d * q), -(p_r - snr * dp_r) / (d * q * q)

    def check(self, d, bd, n, scheme):
        sig = generate_signature(n, d, bd, scheme, np.random.default_rng([self.SEED, 0]))
        u = nonbacktracking(sig, 1.0) - nonbacktracking(sig, 0.0)
        identity = np.eye(len(u))
        for snr in (1e-3, 0.1, 10.0, 1e3):
            p_r, rho, slope = self.cavity_slope(d, bd, snr)
            trace = np.trace(np.linalg.solve(identity - nonbacktracking(sig, rho), u))
            want = sig.n_users * p_r / (snr + p_r) + snr * slope * trace
            assert abs(want.imag) <= 1e-12 * abs(want)
            got = lmmse_diagonal(sig, snr).sum()
            assert got == pytest.approx(want.real, rel=1e-12, abs=0.0), f"snr {snr}"

    @pytest.mark.parametrize("scheme", ["uniform", "binary"])
    @pytest.mark.parametrize("d, bd, n", [(2, 2, 300), (3, 2, 300), (3, 6, 100), (10, 10, 60)])
    def test_mmse_sum_is_bethe_plus_loops(self, d, bd, n, scheme):
        self.check(d, bd, n, scheme)

    @pytest.mark.parametrize("scheme", ["uniform", "binary"])
    @pytest.mark.parametrize("d, bd, n", [(3, 2, 300), (10, 10, 60)])
    def test_pftri_fallback(self, monkeypatch, d, bd, n, scheme):
        monkeypatch.setattr(montecarlo, "_lapacke", lambda: None)
        self.check(d, bd, n, scheme)


RSS_PROBE = """
import os
import sys
# one BLAS thread, read when numpy loads OpenBLAS: a second thread's buffers added 1-2 MB
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
import numpy as np
from sparse_noma import SystemConfig, montecarlo as mc

def peak():
    # VmHWM is this process's own peak; ru_maxrss starts at the forking parent's, which can hide the growth
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) * 1024

def run(t, n, d, bd):
    if sys.argv[1] == "opt":  # one trial, drawn from default_rng([71 + t, 0])
        mc.empirical_capacity_opt(n, SystemConfig(d, bd, 10.0), trials=1, seed=71 + t)
        return
    sig = mc.generate_signature(n, d, bd, "uniform", np.random.default_rng([71, t]))
    if sys.argv[1] == "spectrum":
        mc.empirical_spectrum(sig)
    else:
        mc.lmmse_diagonal(sig, 10.0)

run(0, 60, 3, 6)  # warm-up: the LAPACKE binding
base = peak()
for t, case in enumerate(sys.argv[2:], 1):
    run(t, *map(int, case.split(",")))
print(peak() - base)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status; the mmap threshold is glibc's")
class TestResidentMemory:
    """Peak resident growth of a fresh process over the Monte Carlo routes' largest arrays.

    It counts what tracemalloc never sees: the arrays' own mappings, LAPACK
    workspace and heap that glibc keeps.  A sequence of trials peaks at its
    largest array, not at the sum of the freed ones glibc kept: from malloc,
    freeing a mapped block of up to 32 MiB raises glibc's mmap threshold to
    its size, so the next copy of that size came from the heap and stayed
    resident.  Those probes run two (3,2) draws at N = 2001 (m = 1334), then
    the largest array.
    """

    def test_spectra_peak_at_one_dense_copy(self, run_probe):
        # (3,6), N = 2000: m = 2000 resources, a 16 m^2 = 61 MiB complex copy; from malloc the
        # growth was 89.2-90.6 MiB (1.40-1.42 x 16 m^2), with the mapped copy on huge pages
        # 1.06-1.07 x, on base pages, where the unread upper triangle stays unbacked, 0.68-0.69 x,
        # and with lda rounded up to whole pages, so no column's lower part ends mid-page, 0.624 x
        m = 2000
        growth = int(run_probe(RSS_PROBE, "spectrum", "2001,3,2", "2001,3,2", "2000,3,6"))
        assert growth <= 0.65 * 16 * m * m

    def test_spectra_free_the_triplets_before_the_eigensolve(self, run_probe):
        # (10,10), N = 2000: m = 2000 users and 92,000 Gram triplets, 24 bytes each with complex weights;
        # the growth was 0.673-0.674 x 16 m^2 with the triplets alive during the eigensolve and
        # 0.656-0.658 x with them freed before it
        m = 2000
        growth = int(run_probe(RSS_PROBE, "spectrum", "2001,3,2", "2001,3,2", "2000,10,10"))
        assert growth <= 0.67 * 16 * m * m

    def test_lmmse_peaks_at_one_rfp_factor(self, run_probe):
        # (10,10), N = 2000: m = 2000 users, an 8 m(m+1) = 30.5 MiB complex RFP array; from malloc,
        # with 256-column panels, the growth was 54.2-56.5 MiB, with the mapped array 40.4-42.5 MiB
        m = 2000
        growth = int(run_probe(RSS_PROBE, "lmmse", "2001,3,2", "2001,3,2", "2000,10,10"))
        assert growth <= 1.5 * 8 * m * (m + 1)

    @pytest.mark.parametrize("mode", ["lmmse", "opt"])
    @pytest.mark.parametrize("m", [1000, 2000])
    def test_rfp_estimates_peak_near_half_a_dense_copy(self, run_probe, mode, m):
        # (3,6), N = m: K = 2m users, so the m x m resource side in RFP, 8 m(m+1) bytes with complex
        # weights where a dense copy takes 16 m^2.  The growth was 0.606-0.616 x 16 m^2 at m = 1000 and
        # 0.553 x at m = 2000, one BLAS thread; with _cholesky packing a dense copy (trttf) it was 1.51-1.52 x
        growth = int(run_probe(RSS_PROBE, mode, f"{m},3,6"))
        assert growth <= 0.65 * 16 * m * m


def hermitian(rng, m, complex_):
    x = rng.standard_normal((m, m))
    if complex_:
        x = x + 1j * rng.standard_normal((m, m))
    return (x + x.conj().T) / 2


def block_diagonal(rng, m, complex_):
    sizes = [s for s in (m // 3, m // 3, m - 2 * (m // 3)) if s]
    return sla.block_diag(*(hermitian(rng, s, complex_) for s in sizes))


MATRICES = {
    "random": hermitian,
    "zero": lambda rng, m, complex_: np.zeros((m, m)),
    "identity": lambda rng, m, complex_: np.eye(m),
    "diagonal": lambda rng, m, complex_: np.diag(rng.uniform(-3.0, 7.0, m)),
    "block": block_diagonal,
}


def dense_gram(sig):
    """The unscaled Gram on the smaller side, A^H A or A A^H, by dense products of the sparse operator's array."""
    a = sig.to_sparse().toarray()
    return a.conj().T @ a if sig.n_users <= sig.n_resources else a @ a.conj().T


def eigvalsh_spectrum(sig):
    """empirical_spectrum's eigenvalues by numpy.linalg.eigvalsh on the dense Gram, built without the package's builder."""
    eigs = np.linalg.eigvalsh(dense_gram(sig) / sig.d)
    eigs = np.concatenate([np.zeros(sig.n_resources - len(eigs)), eigs])
    return np.sort(np.clip(eigs, 0.0, None))


def moved_eigenvalue_driver(delta, shift=0.0):
    """The two-stage complex driver, adding delta to the smallest value, subtracting it from the largest
    and adding shift to every value."""
    real = montecarlo._lapacke()["zheevd_2stage"]

    def moved(layout, jobz, uplo, n, a, lda, w):
        info = real(layout, jobz, uplo, n, a, lda, w)
        lam = np.ctypeslib.as_array(ctypes.cast(w, ctypes.POINTER(ctypes.c_double)), (n,))
        lam[0] += delta
        lam[-1] -= delta
        lam += shift
        return info

    return moved


class TestEigensolveDriver:
    """The two-stage LAPACK route against numpy.linalg.eigvalsh, and its guards."""

    @pytest.mark.parametrize("kind", list(MATRICES))
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("m", [1, 2, 3, 17, 256, 300, 512])  # 256 and 512 fill whole pages
    def test_matches_eigvalsh(self, m, complex_, kind):
        rng = np.random.default_rng([m, complex_, len(kind)])
        mat = MATRICES[kind](rng, m, complex_).astype(complex if complex_ else float)
        want = np.linalg.eigvalsh(mat)
        i, j = np.tril_indices(m)
        got, driver = montecarlo._eigvalsh(montecarlo._dense_lower(m, i, j, mat[i, j], 1.0))
        assert driver == ("zheevd_2stage" if complex_ else "dsyevd_2stage")
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("dtype", [np.float32, np.complex64])
    def test_single_precision_gram_is_widened(self, dtype):
        mat = hermitian(np.random.default_rng(28), 40, np.iscomplexobj(dtype(0))).astype(dtype)
        i, j = np.tril_indices(40)
        got, _ = montecarlo._eigvalsh(montecarlo._dense_lower(40, i, j, mat[i, j], 2.0))
        want = np.linalg.eigvalsh(mat.astype(np.complex128) / 2.0)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("d, bd", MC_CONFIGS)
    def test_acceptance_pair_matches_eigvalsh(self, d, bd):
        n = feasible_resources(KS_MIN_RESOURCES, d, bd)
        rng = np.random.default_rng([40_000 + d * 100 + bd, 0])  # criterion 4's first draw
        sig = generate_signature(n, d, bd, "uniform", rng)
        spec = empirical_spectrum(sig)
        want = eigvalsh_spectrum(sig)
        assert np.max(np.abs(spec.eigenvalues - want)) <= 1e-12 * max(1.0, want[-1])
        dens = spectral_density(SystemConfig(d, bd))
        reference = EmpiricalSpectrum(eigenvalues=want)
        assert abs(ks_distance(spec, dens) - ks_distance(reference, dens)) <= 1e-12

    def test_two_stage_driver_runs_on_this_platform(self):
        # a silent fallback would keep every result and lose the speed
        for scheme, driver in (("uniform", "zheevd_2stage"), ("binary", "dsyevd_2stage")):
            assert empirical_spectrum(generate_signature(60, 3, 6, scheme, seed=24)).driver == driver

    def test_driver_failure_is_numerical_error(self, monkeypatch):
        monkeypatch.setitem(montecarlo._lapacke(), "zheevd_2stage", lambda *args: -5)
        with pytest.raises(NumericalError, match="zheevd_2stage info -5"):
            empirical_spectrum(generate_signature(60, 3, 6, seed=26))

    def test_moved_eigenvalues_fail_the_second_moment_identity(self, monkeypatch):
        # the trace and so the mean check stay intact; only the second identity sees the move
        sig = generate_signature(60, 3, 6, seed=27)
        unmoved, moved = moved_eigenvalue_driver(0.0), moved_eigenvalue_driver(1e-6)
        monkeypatch.setitem(montecarlo._lapacke(), "zheevd_2stage", unmoved)
        empirical_spectrum(sig)
        monkeypatch.setitem(montecarlo._lapacke(), "zheevd_2stage", moved)
        with pytest.raises(NumericalError, match="squared eigenvalues"):
            empirical_spectrum(sig)

    def test_shifted_eigenvalues_fail_the_mean_identity(self, monkeypatch):
        monkeypatch.setitem(montecarlo._lapacke(), "zheevd_2stage", moved_eigenvalue_driver(0.0, shift=1e-6))
        with pytest.raises(NumericalError, match="mean eigenvalue differs from beta"):
            empirical_spectrum(generate_signature(60, 3, 6, seed=27))

    def test_import_does_not_bind(self, run_probe):
        probe = "import sparse_noma.montecarlo as m; print(m._lapacke.cache_info().currsize)"
        assert run_probe(probe).strip() == "0"

    def test_first_spectrum_binds_the_driver(self, run_probe):
        # the driver is bound without importing scipy.linalg
        probe = (
            "import sys, sparse_noma.montecarlo as m; "
            "sig = m.generate_signature(60, 3, 6, seed=26); "
            "print('scipy.linalg' in sys.modules, m.empirical_spectrum(sig).driver)"
        )
        assert run_probe(probe).split() == ["False", "zheevd_2stage"]


def hand_built(edges, n, k, d, bd, weights):
    """A SignatureMatrix from (resource, user) edges listed user by user."""
    rows, users = (np.array(x) for x in zip(*edges))
    assert np.array_equal(users, np.repeat(np.arange(k), d))
    sig = SignatureMatrix(n, k, d, bd, rows, np.asarray(weights, dtype=complex), "uniform")
    sig.validate()
    return sig


# users 0 and 1 share resources 0 and 1 (a 2-cycle: one Gram neighbour each),
# users 2, 3, 4 close a cycle through resources 2, 3, 4
TWO_CYCLE_EDGES = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (2, 4)]
TWO_CYCLE_WEIGHTS = np.exp(2j * np.pi * np.random.default_rng(29).random(10))
HAND_BUILT = {
    "uniform": lambda: hand_built(TWO_CYCLE_EDGES, 5, 5, 2, 2, TWO_CYCLE_WEIGHTS),
    # 1*1 + 1*(-1): the 2-cycle's off-diagonal entry cancels, leaving two isolated vertices
    "binary": lambda: hand_built(TWO_CYCLE_EDGES, 5, 5, 2, 2, [1, 1, 1, -1, 1, -1, 1, 1, -1, 1]),
    # K > N: on the resource side each resource's three users all lead to one other resource
    "resource side": lambda: hand_built(
        [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 3), (3, 3), (2, 4), (3, 4), (2, 5), (3, 5)],
        4, 6, 2, 3, np.exp(2j * np.pi * np.random.default_rng(30).random(12))),
}


def dense_mmse(sig, snr):
    a = sig.to_sparse().toarray()
    return np.real(np.diag(np.linalg.inv(np.eye(sig.n_users) + snr * (a.conj().T @ a) / sig.d)))


def dense_smaller_side(sig, snr):
    """I + (snr/d) G as a dense array on the smaller Gram side, built from the sparse operator."""
    g = dense_gram(sig)
    return np.eye(len(g)) + snr / sig.d * g


def dense_logdet(sig, snr):
    return 2.0 * np.log(np.linalg.cholesky(dense_smaller_side(sig, snr)).diagonal().real).sum()


def cycle_logdet(sig, snr):
    return np.log1p(snr / sig.d * montecarlo._cycles(sig)[2]).sum()


def assert_cycle_route_matches_dense(sig, snr):
    """Spectrum, log-det and MMSE diagonal of a (2,2) signature against the dense references."""
    spec = empirical_spectrum(sig)
    assert spec.driver == "cycles"
    want = eigvalsh_spectrum(sig)
    assert np.max(np.abs(spec.eigenvalues - want)) <= 1e-12 * max(1.0, want[-1])
    assert cycle_logdet(sig, snr) == pytest.approx(dense_logdet(sig, snr), rel=1e-12, abs=0.0)
    assert np.allclose(lmmse_diagonal(sig, snr), dense_mmse(sig, snr), rtol=1e-12, atol=0.0)


class TestBandRoute:
    """(2,2) Grams are unions of cycles: the cycle route against the dense routes.

    The class keeps the name of the banded route it replaced, so its test ids
    stay comparable with earlier runs.
    """

    SNR, SEED = 10.0, 40_202  # trial 0 of SEED is criterion 4's first (2,2) draw

    @staticmethod
    @functools.cache
    def signature(n, scheme):
        return generate_signature(n, 2, 2, scheme, np.random.default_rng([TestBandRoute.SEED, 0]))

    @pytest.mark.parametrize("n", [3, 4, 60, 2000])
    @pytest.mark.parametrize("scheme", ["uniform", "binary", "repetition"])
    def test_spectrum_matches_eigvalsh(self, scheme, n):
        sig = self.signature(n, scheme)
        spec = empirical_spectrum(sig)
        assert spec.driver == "cycles"
        want = eigvalsh_spectrum(sig)
        assert np.max(np.abs(spec.eigenvalues - want)) <= 1e-12 * max(1.0, want[-1])

    @pytest.mark.parametrize("n", [3, 4, 60, 2000])
    @pytest.mark.parametrize("scheme", ["uniform", "binary", "repetition"])
    def test_logdet_matches_dense_cholesky(self, scheme, n):
        sig = self.signature(n, scheme)
        want = dense_logdet(sig, self.SNR)
        assert cycle_logdet(sig, self.SNR) == pytest.approx(want, rel=1e-12, abs=0.0)
        cfg = SystemConfig(2, 2, self.SNR)
        est = empirical_capacity_opt(n, cfg, trials=1, seed=self.SEED, phase_scheme=scheme)
        assert est.estimate == pytest.approx(want / (n * math.log(2.0)), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [3, 4, 60, 2000])
    @pytest.mark.parametrize("scheme", ["uniform", "binary", "repetition"])
    def test_lmmse_diagonal_matches_inverse(self, scheme, n):
        sig = self.signature(n, scheme)
        got = lmmse_diagonal(sig, self.SNR)
        assert np.allclose(got, dense_mmse(sig, self.SNR), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("case", list(HAND_BUILT))
    def test_hand_built_paths(self, case):
        sig = HAND_BUILT[case]()
        assert montecarlo._gram_lower(sig)[3] == (case != "resource side")
        # the 2-cycle leaves a Gram row with one neighbour or none
        assert min(np.count_nonzero(dense_gram(sig), axis=1)) < 3
        if case == "resource side":  # d = 2, beta_d = 3 takes the dense routes
            spec, want = empirical_spectrum(sig), eigvalsh_spectrum(sig)
            assert spec.driver == "zheevd_2stage"
            assert np.max(np.abs(spec.eigenvalues - want)) <= 1e-12 * max(1.0, want[-1])
            assert np.allclose(lmmse_diagonal(sig, self.SNR), dense_mmse(sig, self.SNR), rtol=1e-12, atol=0.0)
        else:
            assert_cycle_route_matches_dense(sig, self.SNR)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 300),
        scheme=st.sampled_from(["uniform", "binary", "repetition"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_draws_match_dense(self, n, scheme, seed):
        assert_cycle_route_matches_dense(generate_signature(n, 2, 2, scheme, seed), self.SNR)

    def test_degenerate_edges_are_exact(self):
        # the draw whose KS distance moved by 1.3e-8 between eigensolvers: with
        # zero flux every cycle puts exactly 2 at lambda_plus and, if even, exactly 0
        sig = generate_signature(2000, 2, 2, "repetition", np.random.default_rng([40_202, 3]))
        got, want = empirical_spectrum(sig).eigenvalues, eigvalsh_spectrum(sig)
        top, zero = want > 2.0 - 1e-9, want < 1e-9
        assert top.sum() > 0 and zero.sum() > 0
        assert np.all(got[top] == 2.0) and np.all(got[zero] == 0.0)
        assert np.all(got[~top] < 2.0) and np.all(got[~zero] > 0.0)

    def test_moved_cycle_eigenvalues_fail_the_second_moment_identity(self, monkeypatch):
        # the same move as the dense driver test: the trace holds, only sum lambda^2 changes
        sig, walk = self.signature(60, "uniform"), montecarlo._cycles

        def moved(sig):
            users, starts, mu = walk(sig)
            order = np.argsort(mu)
            mu[order[0]] += 2e-6
            mu[order[-1]] -= 2e-6
            return users, starts, mu

        monkeypatch.setattr(montecarlo, "_cycles", moved)
        with pytest.raises(NumericalError, match="squared eigenvalues"):
            empirical_spectrum(sig)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_infinite_snr_is_numerical_error(self):
        with pytest.raises(NumericalError):
            lmmse_diagonal(self.signature(60, "uniform"), math.inf)

    @pytest.mark.parametrize("d, bd", [(3, 2), (3, 6), (10, 10)])
    def test_other_pairs_stay_dense(self, monkeypatch, d, bd):
        def no_walk(sig):
            raise AssertionError("the cycle walk ran outside d = beta_d = 2")

        monkeypatch.setattr(montecarlo, "_cycles", no_walk)
        for scheme, driver in (("uniform", "zheevd_2stage"), ("binary", "dsyevd_2stage")):
            sig = generate_signature(feasible_resources(300, d, bd), d, bd, scheme, seed=31)
            assert empirical_spectrum(sig).driver == driver
            lmmse_diagonal(sig, self.SNR)
        empirical_capacity_opt(feasible_resources(60, d, bd), SystemConfig(d, bd, self.SNR), trials=1)

    def test_csgraph_is_not_imported(self, run_probe):
        probe = (
            "import sys, sparse_noma.montecarlo as m; "
            "print(m.empirical_spectrum(m.generate_signature(200, 2, 2, seed=1)).driver, "
            "'scipy.sparse.csgraph' in sys.modules)"
        )
        assert run_probe(probe).split() == ["cycles", "False"]


def gram_from_triplets(sig):
    """The dense Hermitian Gram rebuilt from _gram_lower's triplets, after checking their form."""
    i, j, v, user_side = montecarlo._gram_lower(sig)
    assert user_side == (sig.n_users <= sig.n_resources)
    m = sig.n_users if user_side else sig.n_resources
    assert np.all(i >= j)
    assert len(np.unique(i.astype(np.int64) * m + j)) == len(i)  # no (i, j) twice
    if not sig.weights.imag.any():  # binary and repetition weights
        assert v.dtype == np.float64
    low = np.zeros((m, m), dtype=v.dtype)
    low[i, j] = v
    return low + np.tril(low, -1).conj().T


class TestGramBuilder:
    """The Gram's lower-triangle triplets against A^H A or A A^H of the dense signature matrix."""

    TOL = 1e-14  # an entry sums at most min(d, beta_d) unit-modulus products

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("case", list(HAND_BUILT))
    def test_hand_built_four_cycles(self, case, real):
        # user side (m = 5, odd) and resource side (m = 4, even); real weights are the signs of the real parts
        sig = HAND_BUILT[case]()
        if real:
            sig = dataclasses.replace(sig, weights=np.where(sig.weights.real < 0.0, -1.0, 1.0) + 0j)
        assert np.max(np.abs(gram_from_triplets(sig) - dense_gram(sig))) <= self.TOL

    @pytest.mark.parametrize("case, products", [
        # users 0 and 1 share resources 0 and 1: conj(A[r, 1]) A[r, 0] over both
        ("uniform", lambda w: np.conj(w[2]) * w[0] + np.conj(w[3]) * w[1]),
        # resources 0 and 1 share users 0, 1 and 2: A[1, u] conj(A[0, u]) over all three
        ("resource side", lambda w: w[1] * np.conj(w[0]) + w[3] * np.conj(w[2]) + w[5] * np.conj(w[4])),
    ])
    def test_shared_entry_is_one_summed_triplet(self, case, products):
        sig = HAND_BUILT[case]()
        i, j, v, _ = montecarlo._gram_lower(sig)
        (at,) = np.flatnonzero((i == 1) & (j == 0))
        assert abs(v[at] - products(sig.weights)) <= self.TOL

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 4),
        bd=st.integers(2, 6),
        n=st.integers(5, 40),
        scheme=st.sampled_from(montecarlo.PHASE_SCHEMES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_draws(self, d, bd, n, scheme, seed):
        sig = generate_signature(feasible_resources(n, d, bd), d, bd, scheme, seed)
        assert np.max(np.abs(gram_from_triplets(sig) - dense_gram(sig))) <= self.TOL

    @pytest.mark.parametrize("d, bd", MC_CONFIGS)
    def test_acceptance_pairs(self, d, bd):
        n = feasible_resources(KS_MIN_RESOURCES, d, bd)
        sig = generate_signature(n, d, bd, "uniform", np.random.default_rng([40_000 + d * 100 + bd, 0]))
        assert np.max(np.abs(gram_from_triplets(sig) - dense_gram(sig))) <= self.TOL

    def test_wrong_diagonal_is_numerical_error(self):
        sig = generate_signature(60, 3, 6, seed=3)
        with pytest.raises(NumericalError, match="Gram diagonal"):
            montecarlo._gram_lower(dataclasses.replace(sig, weights=2.0 * sig.weights))

    def test_peak_bytes_per_pair(self):
        # (10,10), N = 2000, complex weights: N beta_d (beta_d - 1)/2 = 90,000 products, whose keys
        # and values are sorted and merged; measured 44.6 bytes per product, bound with a 12% margin
        montecarlo._gram_lower(generate_signature(60, 10, 10, seed=0))  # first-call allocations happen outside
        sig = generate_signature(2000, 10, 10, "uniform", seed=1)
        tracemalloc.start()
        try:
            montecarlo._gram_lower(sig)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 50 * (2000 * 10 * 9 // 2)

    def test_routes_load_neither_linalg_nor_sparse(self, run_probe):
        # K > N at (3,6) takes pftri, K = N at (10,10) tftri
        probe = (
            "import sys, sparse_noma.montecarlo as m; "
            "m.empirical_spectrum(m.generate_signature(60, 3, 6, seed=3)); "
            "m.empirical_capacity_opt(60, m.SystemConfig(3, 6, 10.0), trials=1); "
            "m.empirical_capacity_lmmse(60, m.SystemConfig(3, 6, 10.0), trials=1); "
            "m.empirical_capacity_lmmse(60, m.SystemConfig(10, 10, 10.0), trials=1); "
            "print('scipy.linalg' in sys.modules, 'scipy.sparse' in sys.modules)"
        )
        assert run_probe(probe).split() == ["False", "False"]


def dense_from_edges(sig):
    """The N x K signature matrix assembled entry by entry from the edge list."""
    a = np.zeros((sig.n_resources, sig.n_users), dtype=complex)
    np.add.at(a, (sig.rows, sig.cols), sig.weights)
    return a


class TestSparseLayout:
    """int32 edge indices, and to_sparse as a read-only CSC view of them."""

    def test_indices_are_int32(self):
        sig = generate_signature(60, 3, 6, seed=3)
        assert sig.rows.dtype == sig.cols.dtype == np.int32

    def test_to_sparse_shares_memory(self):
        sig = generate_signature(60, 3, 6, seed=3)
        a = sig.to_sparse()
        assert a.format == "csc"
        assert np.shares_memory(a.data, sig.weights)
        assert np.shares_memory(a.indices, sig.rows)
        assert np.array_equal(a.indptr, np.arange(0, sig.n_users * sig.d + 1, sig.d))

    def test_view_is_read_only(self):
        sig = generate_signature(60, 3, 6, seed=3)
        a = sig.to_sparse()
        with pytest.raises(ValueError, match="read-only"):
            a.data[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            a.indices[0] = 0
        sig.rows[0] = sig.rows[0]  # the signature's own arrays stay writable
        sig.weights[0] = sig.weights[0]

    @pytest.mark.parametrize("scheme", ["uniform", "binary", "repetition"])
    @pytest.mark.parametrize("d, bd, n", [(2, 2, 40), (3, 2, 30), (3, 6, 30)])
    def test_generated_matches_edge_list(self, d, bd, n, scheme):
        sig = generate_signature(n, d, bd, scheme, seed=17)
        assert np.array_equal(sig.to_sparse().toarray(), dense_from_edges(sig))

    @pytest.mark.parametrize("case", ["uniform"])
    def test_hand_built_matches_edge_list(self, case):
        # hand_built keeps int64 lists
        sig = HAND_BUILT[case]()
        assert sig.rows.dtype == sig.cols.dtype == np.int64
        a = sig.to_sparse()
        assert np.array_equal(a.toarray(), dense_from_edges(sig))
        assert np.array_equal(a.indptr, np.arange(0, 11, 2))
        assert np.shares_memory(a.data, sig.weights)

    def test_retained_bytes_per_edge(self):
        # 4 index bytes and 16 weight bytes per edge, plus the int32 column pointer
        generate_signature(200, 10, 10, seed=0).to_sparse()  # first-call allocations happen outside
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sig = generate_signature(20_000, 10, 10, seed=1)
            a = sig.to_sparse()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        n_edges, k = a.nnz, sig.n_users
        assert n_edges == 200_000
        assert retained <= 21 * n_edges + 4 * (k + 1)

    @staticmethod
    def peak_bytes_per_edge(call, n_edges):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / n_edges
        finally:
            tracemalloc.stop()

    def test_generation_peak_bytes_per_edge(self):
        # the 20 retained bytes plus one float per edge: the phases, then validate's modulus
        generate_signature(200, 10, 10, seed=0)
        assert self.peak_bytes_per_edge(lambda: generate_signature(20_000, 10, 10, seed=1), 200_000) <= 30

    def test_validate_peak_bytes_per_edge(self):
        # one float modulus per edge; the duplicate check sorts an int32 copy of rows
        sig = generate_signature(20_000, 10, 10, seed=1)
        assert self.peak_bytes_per_edge(sig.validate, len(sig.rows)) <= 10

    def test_to_sparse_loads_no_dense_algebra(self, run_probe):
        probe = (
            "import sys, sparse_noma.montecarlo as m; "
            "m.generate_signature(60, 3, 6, seed=3).to_sparse(); "
            "print('scipy.sparse' in sys.modules, 'scipy.linalg' in sys.modules)"
        )
        assert run_probe(probe).split() == ["True", "False"]


class TestKsDistance:
    def test_empty_spectrum(self):
        with pytest.raises(ConfigurationError, match="empty spectrum"):
            ks_distance(EmpiricalSpectrum(eigenvalues=np.array([])), spectral_density(SystemConfig(3, 2)))

    def test_synthetic_sample_from_limit(self):
        # stratified inverse-CDF draws from the limit itself: distance ~ 1/n
        dens = spectral_density(SystemConfig(3, 2))
        grid = np.linspace(0.0, dens.lambda_plus, 20001)
        cdf = limiting_cdf(dens, grid)
        n = 4000
        targets = (np.arange(n) + 0.5) / n
        samples = grid[np.searchsorted(cdf, targets)]
        spec = EmpiricalSpectrum(eigenvalues=np.sort(samples))
        assert ks_distance(spec, dens) < 0.005

    def test_acceptance_scale_config(self):
        dens = spectral_density(SystemConfig(3, 6))
        sig = generate_signature(1000, 3, 6, seed=16)
        assert ks_distance(empirical_spectrum(sig), dens) < 0.03

    def test_negative_control(self):
        wrong = spectral_density(SystemConfig(10, 10))
        sig = generate_signature(500, 2, 2, seed=17)
        assert ks_distance(empirical_spectrum(sig), wrong) > 0.1

    def test_shrinks_with_size(self):
        dens = spectral_density(SystemConfig(3, 6))
        medians = []
        for n in (252, 999):
            dists = [
                ks_distance(
                    empirical_spectrum(generate_signature(n, 3, 6, seed=s)), dens
                )
                for s in range(5)
            ]
            medians.append(float(np.median(dists)))
        assert medians[1] < medians[0]


class TestFeasibleResources:
    def test_already_feasible(self):
        assert feasible_resources(2000, 2, 2) == 2000
        assert feasible_resources(1200, 10, 10) == 1200

    def test_rounds_up(self):
        assert feasible_resources(2000, 3, 2) == 2001
        assert feasible_resources(1998, 3, 2) == 1998

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            feasible_resources(0, 3, 2)
