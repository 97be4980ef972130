"""Finite-size validation harness: generation, spectra, and estimators."""

import dataclasses
import math
import types
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparse_noma import ConfigurationError, NumericalError, SystemConfig, spectral_density
from sparse_noma.capacity import capacity_lmmse, capacity_optimum, lmmse_error
from sparse_noma import montecarlo
from sparse_noma.montecarlo import (
    EmpiricalSpectrum,
    McEstimate,
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

    def test_unknown_phase_scheme(self):
        with pytest.raises(ConfigurationError, match="phase_scheme"):
            generate_signature(6, 2, 2, "gaussian", seed=0)

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
        est = empirical_capacity_opt(30, SystemConfig(2, 2, 0.0), trials=3, seed=0)
        assert est.estimate == 0.0 and est.stderr == 0.0

    def test_deterministic_given_seed(self):
        cfg = SystemConfig(2, 4, 10.0)
        a = empirical_capacity_opt(40, cfg, trials=5, seed=11)
        b = empirical_capacity_opt(40, cfg, trials=5, seed=11)
        assert a.samples == b.samples

    def test_phase_scheme_insensitivity(self):
        # the limit only needs unit-circle weights, so every scheme converges
        # to the same value; at finite size they differ by an O(1/N) bias
        cfg = SystemConfig(3, 6, 10.0)
        closed = capacity_optimum(cfg).spectral_efficiency
        for scheme in ("uniform", "binary", "repetition"):
            est = empirical_capacity_opt(240, cfg, trials=12, seed=12, phase_scheme=scheme)
            assert abs(est.estimate - closed) < 0.005 * closed


class TestCompareToClosedForm:
    """The agreement rule abs_dev < max(3 SE, 1% closed) on synthetic estimates."""

    def _compare(self, monkeypatch, estimate, stderr, receiver="optimum", **kwargs):
        calls = []

        def fake_estimator(n, config, trials, seed, phase_scheme):
            calls.append((n, trials))
            return McEstimate(estimate, stderr, trials, seed, ())

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
        eigs = empirical_spectrum(sig).eigenvalues
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
        logdet = [2.0 * np.log(montecarlo._cholesky(s, self.SNR)[0].diagonal().real).sum()
                  for s in (sig, rotated)]
        assert logdet[0] == pytest.approx(logdet[1], rel=1e-13, abs=0.0)


class TestFactorFailures:
    def test_failed_cholesky_is_numerical_error(self):
        # I - G/d is indefinite, so potrf reports a nonpositive pivot
        sig = generate_signature(24, 2, 4, seed=22)
        with pytest.raises(NumericalError, match="potrf"):
            montecarlo._cholesky(sig, -1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("n, d, bd", [(30, 3, 2), (24, 2, 4)])
    def test_infinite_snr_is_numerical_error(self, n, d, bd):
        sig = generate_signature(n, d, bd, seed=23)
        with pytest.raises(NumericalError):
            lmmse_diagonal(sig, math.inf)


class TestKsDistance:
    def test_synthetic_sample_from_limit(self):
        # stratified inverse-CDF draws from the limit itself: distance ~ 1/n
        dens = spectral_density(SystemConfig(3, 2))
        grid = np.linspace(0.0, dens.params.lambda_plus, 20001)
        cdf = limiting_cdf(dens, grid)
        n = 4000
        targets = (np.arange(n) + 0.5) / n
        samples = grid[np.searchsorted(cdf, targets)]
        spec = EmpiricalSpectrum(eigenvalues=np.sort(samples), n_resources=n, n_users=2 * n // 3)
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
