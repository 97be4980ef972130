"""Low/high-SNR parameters and the affine rate approximations."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from sparse_noma import DomainError, SystemConfig, capacity_lmmse, capacity_optimum
from sparse_noma.asymptotics import (
    HighSnrParams,
    LowSnrParams,
    high_snr_lmmse,
    high_snr_optimum,
    low_snr_lmmse,
    low_snr_optimum,
)
from sparse_noma.units import THREE_DB

degrees = st.integers(min_value=2, max_value=30)


class TestLowSnr:
    def test_threshold_is_ln2(self):
        for d, bd in ((2, 2), (3, 2), (7, 12)):
            assert low_snr_optimum(d, bd).ebn0_min == math.log(2.0)
            assert low_snr_lmmse(d, bd).ebn0_min == math.log(2.0)

    def test_threshold_in_db(self):
        assert low_snr_optimum(2, 2).ebn0_min_db == pytest.approx(-1.5917, abs=1e-4)

    def test_contact_pair_slopes(self):
        assert low_snr_optimum(2, 2).s0 == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert low_snr_lmmse(2, 2).s0 == pytest.approx(1.0, rel=1e-15)

    @given(d=degrees, bd=degrees)
    def test_slope_ordering(self, d, bd):
        s_opt = low_snr_optimum(d, bd).s0
        s_lin = low_snr_lmmse(d, bd).s0
        assert 0.0 < s_lin < s_opt <= 2.0

    def test_dense_degree_limit(self):
        # fixed load 2, growing d: slope approaches the dense value 2*beta/(beta+1)
        d = 10**6
        assert low_snr_optimum(d, 2 * d).s0 == pytest.approx(4.0 / 3.0, rel=1e-5)

    def test_slope_against_finite_differences(self):
        for capfn, lowfn in (
            (capacity_optimum, low_snr_optimum),
            (capacity_lmmse, low_snr_lmmse),
        ):
            s1, s2 = 1e-5, 2e-5
            c1 = capfn(SystemConfig(2, 2, s1)).spectral_efficiency
            c2 = capfn(SystemConfig(2, 2, s2)).spectral_efficiency
            # secant slope in rate per 3dB of Eb/N0
            dep_db = 10.0 * math.log10((s2 * c1) / (s1 * c2))
            slope = THREE_DB * (c2 - c1) / dep_db
            assert slope == pytest.approx(lowfn(2, 2).s0, rel=1e-3)


class TestHighSnr:
    def test_multiplexing_gain(self):
        assert high_snr_optimum(3, 2).s_inf == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert high_snr_optimum(2, 2).s_inf == 1.0
        assert high_snr_optimum(2, 4).s_inf == 1.0

    def test_power_offset_balanced(self):
        assert high_snr_optimum(2, 2).l_inf == pytest.approx(1.0, rel=1e-12)

    def test_power_offset_overloaded(self):
        ref = -2.0 - 3.0 * math.log2(3.0 / 4.0)
        assert high_snr_optimum(2, 4).l_inf == pytest.approx(ref, rel=1e-12)

    def test_lmmse_cases(self):
        p = high_snr_lmmse(2, 2)
        assert p.s_inf == 0.5
        assert p.l_inf == pytest.approx(-1.0, rel=1e-12)
        p = high_snr_lmmse(3, 2)
        assert p.s_inf == pytest.approx(2.0 / 3.0)
        assert p.l_inf == pytest.approx(1.0, rel=1e-12)

    def test_lmmse_overloaded_has_no_offset(self):
        p = high_snr_lmmse(2, 4)
        assert p.s_inf == 0.0
        assert p.l_inf is None

    @given(d=degrees, bd=degrees)
    def test_gains_bounded(self, d, bd):
        for p in (high_snr_optimum(d, bd), high_snr_lmmse(d, bd)):
            assert 0.0 <= p.s_inf <= 1.0
        assert high_snr_optimum(d, bd).s_inf == min(bd / d, 1.0)

    @given(d=degrees, bd=degrees)
    @settings(max_examples=60)
    def test_offset_ordering_underloaded(self, d, bd):
        # below unit load both receivers have slope beta, so their offsets
        # compare directly and the better receiver needs less power headroom;
        # at load 1 the slopes differ (1 vs 1/2) and the offsets say nothing
        if bd >= d:
            return
        assert high_snr_optimum(d, bd).l_inf < high_snr_lmmse(d, bd).l_inf

    def test_affine_residual_at_high_snr(self):
        snr = 1e6
        for d, bd in ((2, 2), (3, 2), (3, 6), (10, 10)):
            cfg = SystemConfig(d, bd, snr)
            p = high_snr_optimum(d, bd)
            resid = capacity_optimum(cfg).spectral_efficiency - p.rate(snr)
            assert abs(resid) < 1e-2
            p = high_snr_lmmse(d, bd)
            if p.l_inf is not None:
                resid = capacity_lmmse(cfg).spectral_efficiency - p.rate(snr)
                assert abs(resid) < 1e-2

    def test_offset_continuity_across_unit_load(self):
        # the two offset formulas meet at load 1; probed numerically at huge d
        d = 10**8
        at = high_snr_optimum(d, d).l_inf
        below = high_snr_optimum(d, d - 1).l_inf
        above = high_snr_optimum(d, d + 1).l_inf
        assert abs(below - at) < 1e-6
        assert abs(above - at) < 1e-6


class TestApproxRate:
    def test_zero_at_threshold(self):
        p = low_snr_optimum(3, 2)
        assert p.rate(p.ebn0_min_db) == 0.0

    def test_reference_point(self):
        val = low_snr_optimum(2, 2).rate(0.0)
        assert val == pytest.approx(0.7050218305931968, rel=1e-12)

    def test_high_slope_by_construction(self):
        p = high_snr_optimum(3, 2)
        delta = p.rate(4000.0) - p.rate(1000.0)
        assert delta == pytest.approx(2.0 * p.s_inf, rel=1e-12)

    def test_regime_validation(self):
        with pytest.raises(DomainError, match="positive"):
            high_snr_optimum(2, 2).rate(0.0)

    def test_missing_offset_is_an_error(self):
        with pytest.raises(DomainError, match="asymptote"):
            high_snr_lmmse(2, 4).rate(100.0)


def test_param_types_are_plain_dataclasses():
    assert isinstance(low_snr_optimum(2, 2), LowSnrParams)
    assert isinstance(high_snr_lmmse(2, 2), HighSnrParams)
