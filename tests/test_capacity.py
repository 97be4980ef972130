"""Closed-form capacities, the F/G kernels, and the LMMSE error route."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from sparse_noma import (
    DomainError,
    SystemConfig,
    capacity_integral_oracle,
    capacity_lmmse,
    capacity_optimum,
    kernel_F,
    kernel_G,
    lmmse_error,
)

degrees = st.integers(min_value=2, max_value=20)
snrs = st.floats(min_value=1e-4, max_value=1e4)

# arcsine-law constants for the contact pair at snr = 10
OPT_22_10 = math.log2((11.0 + math.sqrt(21.0)) / 2.0)
LMMSE_22_10 = 0.5 * math.log2(21.0)


class TestKernelF:
    def test_zero_arguments(self):
        assert kernel_F(0.0, 3.7) == 0.0
        assert kernel_F(4.2, 0.0) == 0.0

    def test_reference_value(self):
        assert kernel_F(5.0, 1.0) == pytest.approx(22.0 - 2.0 * math.sqrt(21.0), rel=1e-14)

    def test_matches_radical_definition(self):
        for x, z in ((0.3, 0.7), (2.0, 1.0), (10.0, 4.0), (1e-6, 2.0)):
            direct = (
                math.sqrt(x * (1 + math.sqrt(z)) ** 2 + 1)
                - math.sqrt(x * (1 - math.sqrt(z)) ** 2 + 1)
            ) ** 2
            assert kernel_F(x, z) == pytest.approx(direct, rel=1e-12)

    @given(x=st.floats(min_value=0.0, max_value=1e6), z=st.floats(min_value=0.0, max_value=1e3))
    def test_nonnegative(self, x, z):
        assert kernel_F(x, z) >= 0.0

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            kernel_F(-1.0, 1.0)
        with pytest.raises(DomainError):
            kernel_F(1.0, -1.0)


class TestKernelG:
    def test_unit_at_zero_x(self):
        assert kernel_G(0.0, 9.0, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_reference_value(self):
        assert kernel_G(5.0, 4.0, 1.0) == pytest.approx(21.0, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            kernel_G(1.0, 3.9, 1.0)  # y below (1+sqrt(z))^2 = 4
        with pytest.raises(DomainError):
            kernel_G(1.0, 4.0, 0.0)

    def test_boundary_collapse(self):
        # at y = (1+sqrt(z))^2 the matched terms vanish and G = x(1+sqrt(z))^2 + 1
        for x, z in ((0.5, 1.0), (3.0, 2.25), (7.0, 0.25)):
            y = (1 + math.sqrt(z)) ** 2
            assert kernel_G(x, y, z) == pytest.approx(x * y + 1.0, rel=1e-10)

    @given(
        x=st.floats(min_value=0.0, max_value=1e4),
        z=st.floats(min_value=1e-3, max_value=1e3),
        slack=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=100)
    def test_at_least_one(self, x, z, slack):
        y = (1 + math.sqrt(z)) ** 2 + slack
        assert kernel_G(x, y, z) >= 1.0 - 1e-12


class TestOptimum:
    def test_zero_snr(self):
        assert capacity_optimum(SystemConfig(3, 4, 0.0)).spectral_efficiency == 0.0

    def test_contact_pair_value(self):
        res = capacity_optimum(SystemConfig(2, 2, 10.0))
        assert res.spectral_efficiency == pytest.approx(OPT_22_10, abs=1e-9)
        assert res.receiver == "optimum" and res.route == "closed_form"

    def test_low_snr_linearization(self):
        cfg = SystemConfig(3, 2, 1e-6)
        lead = cfg.beta * cfg.snr * math.log2(math.e)
        assert capacity_optimum(cfg).spectral_efficiency == pytest.approx(lead, rel=1e-4)

    def test_oracle_agreement_spots(self):
        for d, bd, snr in ((2, 2, 10.0), (3, 2, 0.01), (5, 9, 100.0), (6, 12, 1.0)):
            cfg = SystemConfig(d, bd, snr)
            closed = capacity_optimum(cfg)
            oracle = capacity_integral_oracle(cfg)
            assert oracle.route == "integral_oracle"
            assert closed.spectral_efficiency == pytest.approx(
                oracle.spectral_efficiency, abs=1e-9
            )

    @pytest.mark.parametrize("d", (2, 3, 10))
    @pytest.mark.parametrize("snr_db", (110, 120, 150))
    def test_oracle_at_full_load_and_high_snr(self, d, snr_db):
        # beta = 1: lambda_minus = 0, so log1p(snr*lam) has a kink of width
        # about 1/sqrt(snr) at the lower support edge
        cfg = SystemConfig(d, d, 10.0 ** (snr_db / 10.0))
        oracle = capacity_integral_oracle(cfg).spectral_efficiency
        assert abs(oracle - capacity_optimum(cfg).spectral_efficiency) <= 1e-12

    @given(d=degrees, bd=degrees, snr=snrs)
    @settings(max_examples=60)
    def test_receiver_ordering(self, d, bd, snr):
        cfg = SystemConfig(d, bd, snr)
        opt = capacity_optimum(cfg).spectral_efficiency
        lin = capacity_lmmse(cfg).spectral_efficiency
        assert opt >= lin > 0.0
        # never above the unconstrained sum-rate bound
        assert opt <= math.log2(1.0 + cfg.beta * snr) + 1e-12

    def test_strictly_increasing_in_snr(self):
        cfg = SystemConfig(4, 6)
        vals = [
            capacity_optimum(cfg.with_snr(s)).spectral_efficiency
            for s in (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestLmmse:
    def test_zero_snr(self):
        assert capacity_lmmse(SystemConfig(2, 2, 0.0)).spectral_efficiency == 0.0

    def test_contact_pair_value(self):
        res = capacity_lmmse(SystemConfig(2, 2, 10.0))
        assert res.spectral_efficiency == pytest.approx(LMMSE_22_10, abs=1e-9)
        assert res.receiver == "lmmse"

    def test_strictly_increasing_in_snr(self):
        cfg = SystemConfig(2, 5)
        vals = [
            capacity_lmmse(cfg.with_snr(s)).spectral_efficiency
            for s in (0.01, 0.1, 1.0, 10.0, 100.0)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestLmmseError:
    def test_zero_snr_identity(self):
        err = lmmse_error(SystemConfig(3, 2, 0.0))
        assert err.m1 == 1.0 and err.sinr == 0.0

    def test_contact_pair_values(self):
        err = lmmse_error(SystemConfig(2, 2, 10.0))
        assert err.m1 == pytest.approx(1.0 / math.sqrt(21.0), rel=1e-12)
        assert err.sinr == pytest.approx(math.sqrt(21.0) - 1.0, rel=1e-12)

    def test_route_identity(self):
        cfg = SystemConfig(3, 6, 10.0)
        err = lmmse_error(cfg)
        via_m1 = cfg.beta * math.log2(1.0 / err.m1)
        assert via_m1 == pytest.approx(capacity_lmmse(cfg).spectral_efficiency, abs=1e-9)

    @given(d=degrees, bd=degrees, snr=snrs)
    @settings(max_examples=60)
    def test_error_in_unit_interval(self, d, bd, snr):
        err = lmmse_error(SystemConfig(d, bd, snr))
        assert 0.0 < err.m1 < 1.0
        assert err.sinr > 0.0


def test_dense_limit_matches_dense_formulas():
    # at d = 500 both receivers sit on the classical dense expressions
    snr = 10.0
    cfg = SystemConfig(500, 500, snr)
    f = kernel_F(snr, 1.0)
    dense_lmmse = math.log2(1.0 + snr - f / 4.0)
    assert capacity_lmmse(cfg).spectral_efficiency == pytest.approx(dense_lmmse, abs=1e-2)
    dense_opt = (
        math.log2(1.0 + snr - f / 4.0)
        + math.log2(1.0 + snr - f / 4.0)
        - f / (4.0 * snr) * math.log2(math.e)
    )
    assert capacity_optimum(cfg).spectral_efficiency == pytest.approx(dense_opt, abs=1e-2)
