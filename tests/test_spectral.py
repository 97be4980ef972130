"""Tests for the limiting-spectrum layer: parameters, transform, density."""

import dataclasses
import math
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparse_noma import (
    ConfigurationError,
    DomainError,
    NumericalError,
    SystemConfig,
    density_at,
    integrate_against_density,
    limiting_cdf,
    spectral_density,
    stieltjes,
)
from sparse_noma.asymptotics import (
    HighSnrParams,
    LowSnrParams,
    high_snr_lmmse,
    high_snr_optimum,
    low_snr_lmmse,
    low_snr_optimum,
)
from sparse_noma.spectral import SpectralDensity

degrees = st.integers(min_value=2, max_value=40)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def reference_ensemble(d, bd):
    """The benchmark's independent mpmath form of the limiting law."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        from reference import Ensemble
    finally:
        sys.path.remove(str(PERFBENCH))
    return Ensemble(d, bd)


def reference_cdf(ens, x):
    """Atom plus tanh-sinh quadrature of the density in lam, on pieces graded
    toward lam_-, where the density rises over a width about lam_-."""
    x = mp.mpf(x)
    pieces = [ens.lam_minus + (x - ens.lam_minus) * mp.mpf(10) ** -k for k in range(8, 0, -1)]
    return ens.atom + mp.quad(ens.density, [ens.lam_minus, *pieces, x])


class TestSystemConfig:
    def test_rejects_small_degrees(self):
        with pytest.raises(ConfigurationError, match="d must be at least 2"):
            SystemConfig(1, 2)
        with pytest.raises(ConfigurationError, match="beta_d must be at least 2"):
            SystemConfig(2, 1)

    def test_rejects_non_integers(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(2.5, 2)
        with pytest.raises(ConfigurationError):
            SystemConfig(2, True)

    def test_rejects_bad_snr(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(2, 2, -1.0)
        with pytest.raises(ConfigurationError):
            SystemConfig(2, 2, math.inf)

    def test_load_is_exact(self):
        cfg = SystemConfig(3, 2)
        assert cfg.beta == 2 / 3

    def test_with_snr(self):
        cfg = SystemConfig(3, 2).with_snr(7.5)
        assert cfg.snr == 7.5 and cfg.d == 3

    @pytest.mark.parametrize("snr", [0, 0.0, 7, 7.5, np.float64(1e-12), np.float32(3.25), 1e306])
    def test_with_snr_equals_the_constructor(self, snr):
        base = SystemConfig(10, 7, 2.0)
        got, want = base.with_snr(snr), SystemConfig(10, 7, snr)
        assert type(got) is SystemConfig and type(got.snr) is float
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert base.snr == 2.0

    @pytest.mark.parametrize("snr", [math.nan, math.inf, -math.inf, -1.0, -1e-300, np.float64(math.nan)])
    def test_with_snr_rejects_bad_snr(self, snr):
        with pytest.raises(ConfigurationError, match="snr must be finite and >= 0"):
            SystemConfig(3, 2).with_snr(snr)


class TestSpectralDensity:
    def test_one_cached_record_per_degree_pair(self):
        dens = spectral_density(SystemConfig(3, 6, snr=10.0))
        assert dens is spectral_density(SystemConfig(3, 6))
        assert {f.name for f in dataclasses.fields(dens)}.isdisjoint({"config", "params", "snr"})

    def test_contact_pair(self):
        p = spectral_density(SystemConfig(2, 2))
        assert p.alpha == 0.5 and p.gamma == 0.5
        assert p.beta_tilde == 1.0 and p.zeta == 4.0
        assert p.lambda_minus == 0.0
        assert p.lambda_plus == pytest.approx(2.0, abs=1e-15)
        assert p.edge_contact
        assert p.point_mass_at_zero == 0.0

    def test_underloaded_pair(self):
        p = spectral_density(SystemConfig(3, 2))
        assert p.alpha == pytest.approx(2 / 3)
        assert p.gamma == pytest.approx(1 / 3)
        assert p.lambda_minus == pytest.approx(1 - 2 * math.sqrt(2) / 3, rel=1e-14)
        assert p.lambda_plus == pytest.approx(1 + 2 * math.sqrt(2) / 3, rel=1e-14)
        assert p.point_mass_at_zero == pytest.approx(1 / 3)
        assert not p.edge_contact

    @given(d=degrees, bd=degrees)
    def test_support_relations(self, d, bd):
        p = spectral_density(SystemConfig(d, bd))
        assert 0.0 <= p.lambda_minus < p.lambda_plus <= bd + 1e-12
        # edge touches the hard upper bound beta_d only for the single contact pair
        assert p.edge_contact == ((d - 1) * (bd - 1) == 1)
        assert p.support_gap == pytest.approx(bd - p.lambda_plus, abs=1e-12)
        assert p.lambda_minus * p.lambda_plus == pytest.approx((p.alpha - p.gamma) ** 2, rel=1e-12)
        assert p.zeta >= (1 + math.sqrt(p.beta_tilde)) ** 2 - 1e-12
        assert p.point_mass_at_zero == pytest.approx(max(0.0, 1.0 - bd / d), abs=1e-15)
        # the zero atom joins the continuous support exactly when d = beta_d
        assert (p.lambda_minus == 0.0) == (d == bd)


# every degree from 2 to 59, primes and round numbers up to 2e5
CONSTANT_DEGREES = [*range(2, 60), 97, 250, 500, 1000, 99989, 99991, 200000]


def rational_density(d, bd):
    """The limiting law's record with its constants built as Fractions and rounded once."""
    alpha, gamma = Fraction(d - 1, d), Fraction(bd - 1, d)
    root = math.sqrt((d - 1) * (bd - 1))
    lam_plus = float(alpha + gamma) + 2.0 * root / d
    diff = float(alpha - gamma)
    return SpectralDensity(
        d=d, beta_d=bd, alpha=float(alpha), gamma=float(gamma),
        beta_tilde=float(alpha / gamma), zeta=float(Fraction(bd) / gamma),
        lambda_minus=0.0 if d == bd else diff * diff / lam_plus,
        lambda_plus=lam_plus, support_gap=(root - 1.0) ** 2 / d,
    )


def rational_asymptotics(d, bd):
    """The four extreme-SNR records, their cases chosen and slopes taken in Fractions."""
    beta = Fraction(bd, d)
    b = float(beta)
    if beta < 1:
        l_opt = (1.0 / b - 1.0) * math.log2(1.0 - b) - (d - 1) * math.log2(1.0 - 1.0 / d)
        lmmse = HighSnrParams(b, math.log2(1.0 / (1.0 - b)) + math.log2((d - 1) / d))
    elif beta == 1:
        l_opt = -(d - 1) * math.log2(1.0 - 1.0 / d)
        lmmse = HighSnrParams(0.5, math.log2((d - 1) / d))
    else:
        l_opt = (b - 1.0) * math.log2(b - 1.0) - b * math.log2(b) - (bd - 1) * math.log2(1.0 - 1.0 / bd)
        lmmse = HighSnrParams(0.0, None)
    return (
        LowSnrParams(math.log(2.0), float(Fraction(2 * bd, bd + d - 1))),
        LowSnrParams(math.log(2.0), float(Fraction(2 * bd, 2 * bd + d - 2))),
        HighSnrParams(min(b, 1.0), l_opt),
        lmmse,
    )


class TestConstantsMatchRationals:
    """Each ensemble constant is one integer division, the double nearest its exact rational."""

    def test_density_records(self):
        for d in CONSTANT_DEGREES:
            for bd in CONSTANT_DEGREES:
                got = spectral_density(SystemConfig(d, bd))
                assert got == rational_density(d, bd), (d, bd)
                assert got.point_mass_at_zero == float(max(Fraction(0), 1 - Fraction(bd, d))), (d, bd)

    def test_asymptotics_records(self):
        for d in CONSTANT_DEGREES:
            for bd in CONSTANT_DEGREES:
                got = (low_snr_optimum(d, bd), low_snr_lmmse(d, bd), high_snr_optimum(d, bd), high_snr_lmmse(d, bd))
                assert got == rational_asymptotics(d, bd), (d, bd)


class TestStieltjes:
    def test_decay_far_left(self):
        p = spectral_density(SystemConfig(3, 6))
        sv = stieltjes(p, -1e8)
        assert sv.m_outer.real == pytest.approx(1e-8, rel=1e-6)
        assert abs(sv.m_outer.imag) < 1e-20

    def test_quadratic_residual_on_real_axis(self):
        p = spectral_density(SystemConfig(2, 2))
        z = -1.0
        m = stieltjes(p, z).m_inner
        resid = p.alpha * z * m * m + (z + p.alpha - p.gamma) * m + 1.0
        assert abs(resid) < 1e-12

    def test_inversion_near_support(self):
        # imaginary part at height 1e-3 recovers the density within 2%
        p = spectral_density(SystemConfig(2, 2))
        approx = stieltjes(p, 1.0 + 1e-3j).m_outer.imag / math.pi
        assert approx == pytest.approx(1 / math.pi, rel=0.02)

    def test_rejects_support_points(self):
        p = spectral_density(SystemConfig(2, 2))
        for z in (0.0, 1.0, 2.0):
            with pytest.raises(DomainError, match="support"):
                stieltjes(p, z)

    def test_rejects_infinite_z_and_the_zero_atom(self):
        p = spectral_density(SystemConfig(3, 2))
        with pytest.raises(DomainError, match="finite"):
            stieltjes(p, complex(math.inf, 1.0))
        with pytest.raises(DomainError, match="point mass at zero"):
            stieltjes(p, 0.0)

    def test_gap_below_support_is_fine_when_overloaded(self):
        p = spectral_density(SystemConfig(3, 6))
        sv = stieltjes(p, 0.0)
        assert sv.m_outer.imag == 0.0 and sv.m_outer.real > 0.0

    @given(
        d=degrees,
        bd=degrees,
        re=st.floats(min_value=-10.0, max_value=50.0),
        log_im=st.floats(min_value=-6.0, max_value=2.0),
    )
    @settings(max_examples=200)
    def test_upper_half_plane_branch(self, d, bd, re, log_im):
        p = spectral_density(SystemConfig(d, bd))
        z = complex(re, 10.0**log_im)
        sv = stieltjes(p, z)
        assert sv.m_inner.imag > 0.0
        assert sv.m_outer.imag > 0.0
        assert abs(sv.m_outer) <= 1.0 / z.imag * (1.0 + 1e-9)
        t1 = p.alpha * z * sv.m_inner**2
        t2 = (z + p.alpha - p.gamma) * sv.m_inner
        assert abs(t1 + t2 + 1.0) < 1e-12 * max(1.0, abs(t1), abs(t2))


class TestDensity:
    def test_arcsine_value(self):
        dens = spectral_density(SystemConfig(2, 2))
        assert density_at(dens, 1.0) == pytest.approx(1 / math.pi, rel=1e-14)

    def test_arcsine_shape(self):
        # the contact pair degenerates to the arcsine law on [0, 2]
        dens = spectral_density(SystemConfig(2, 2))
        for lam in (0.25, 0.8, 1.3, 1.9):
            ref = 1.0 / (math.pi * math.sqrt(lam * (2.0 - lam)))
            assert density_at(dens, lam) == pytest.approx(ref, rel=1e-12)

    def test_outside_support(self):
        dens = spectral_density(SystemConfig(3, 2))
        assert density_at(dens, 3.0) == 0.0
        assert density_at(dens, 0.01) == 0.0
        with pytest.raises(DomainError):
            density_at(dens, -0.5)

    def test_endpoint_conventions(self):
        # divergent inverse-square-root endpoints at contact, zero limits otherwise
        contact = spectral_density(SystemConfig(2, 2))
        assert density_at(contact, 0.0) == math.inf
        assert density_at(contact, 2.0) == math.inf
        plain = spectral_density(SystemConfig(3, 2))
        assert density_at(plain, plain.lambda_minus) == 0.0
        assert density_at(plain, plain.lambda_plus) == 0.0

    def test_zero_atom(self):
        assert spectral_density(SystemConfig(3, 2)).point_mass_at_zero == pytest.approx(1 / 3)
        assert spectral_density(SystemConfig(2, 4)).point_mass_at_zero == 0.0

    @given(d=degrees, bd=degrees)
    @settings(max_examples=40)
    def test_mass_normalizes(self, d, bd):
        dens = spectral_density(SystemConfig(d, bd))
        total = integrate_against_density(dens, lambda lam: np.ones_like(lam))
        assert total == pytest.approx(1.0, abs=1e-10)


class TestQuadrature:
    def test_first_moment(self):
        dens = spectral_density(SystemConfig(3, 2))
        assert integrate_against_density(dens, lambda lam: lam) == pytest.approx(2 / 3, abs=1e-9)

    def test_second_moment(self):
        dens = spectral_density(SystemConfig(2, 2))
        second = integrate_against_density(dens, lambda lam: lam * lam)
        assert second == pytest.approx(1.5, abs=1e-8)

    def test_atom_is_included(self):
        dens = spectral_density(SystemConfig(3, 2))
        # indicator of zero picks up exactly the atom
        val = integrate_against_density(dens, lambda lam: np.where(lam == 0.0, 1.0, 0.0))
        assert val == pytest.approx(1 / 3, abs=1e-12)

    def test_nonfinite_integrand_is_reported(self):
        dens = spectral_density(SystemConfig(3, 2))
        with pytest.raises(NumericalError):
            integrate_against_density(dens, lambda lam: np.where(lam > 1.0, np.inf, 1.0))

    def test_nonfinite_integrand_at_the_atom_is_reported(self):
        dens = spectral_density(SystemConfig(3, 2))
        with pytest.raises(NumericalError, match="point mass"):
            integrate_against_density(dens, lambda lam: np.where(lam == 0.0, np.inf, 1.0))

    def test_constant_integrand(self):
        # a scalar result broadcasts to the nodes; the atom takes it too
        for d, bd in ((3, 2), (2, 2), (3, 6)):
            dens = spectral_density(SystemConfig(d, bd))
            assert integrate_against_density(dens, lambda lam: 2.5) == pytest.approx(2.5, abs=1e-12)

    def test_unresolved_integrand_stops_at_the_panel_cap(self):
        # about 3e4 oscillations on the support: no panel budget resolves them
        dens = spectral_density(SystemConfig(2, 2))
        with pytest.raises(NumericalError, match="more than 4096 panels"):
            integrate_against_density(dens, lambda lam: np.sin(1e6 * lam))


class TestLimitingCdf:
    def test_arcsine_closed_form(self):
        dens = spectral_density(SystemConfig(2, 2))
        lams = np.array([0.1, 0.5, 1.0, 1.7])
        ref = (2 / math.pi) * np.arcsin(np.sqrt(lams / 2.0))
        assert np.allclose(limiting_cdf(dens, lams), ref, atol=1e-10)

    def test_range_and_atom(self):
        dens = spectral_density(SystemConfig(3, 2))
        vals = limiting_cdf(dens, [-1.0, 0.0, dens.lambda_plus, 10.0])
        assert vals[0] == 0.0
        assert vals[1] == pytest.approx(1 / 3, abs=1e-12)
        assert vals[2] == pytest.approx(1.0, abs=1e-10)
        assert vals[3] == 1.0

    def test_nan_is_a_domain_error_and_infinities_are_exact(self):
        dens = spectral_density(SystemConfig(3, 6))
        with pytest.raises(DomainError, match="NaN"):
            limiting_cdf(dens, [math.nan, 1.0])
        assert limiting_cdf(dens, [-math.inf, math.inf]).tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("d, bd", [(50, 51), (100, 101), (1000, 1001)])
    def test_near_unit_load_against_reference(self, d, bd):
        # lambda_minus is small but positive here, so the weight rises steeply
        # near the lower support edge
        dens = spectral_density(SystemConfig(d, bd))
        lams = dens.lambda_minus + (dens.lambda_plus - dens.lambda_minus) * np.array([1e-4, 0.01, 0.1, 0.5, 0.9])
        vals = limiting_cdf(dens, lams)
        with mp.workdps(30):
            ens = reference_ensemble(d, bd)
            for lam, val in zip(lams, vals):
                assert abs(val - reference_cdf(ens, lam)) < 1e-10

    @given(d=degrees, bd=degrees)
    @settings(max_examples=25)
    def test_monotone(self, d, bd):
        dens = spectral_density(SystemConfig(d, bd))
        grid = np.linspace(-0.5, bd + 0.5, 60)
        vals = limiting_cdf(dens, grid)
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all((vals >= 0.0) & (vals <= 1.0 + 1e-12))


def test_dense_degree_limit_matches_marchenko_pastur():
    # at d = 500 the continuous part should sit on the classical bulk
    beta = 0.5
    dens = spectral_density(SystemConfig(500, 250))
    lo, hi = (1 - math.sqrt(beta)) ** 2, (1 + math.sqrt(beta)) ** 2
    for lam in np.linspace(lo + 0.05, hi - 0.05, 9):
        mp = math.sqrt((lam - lo) * (hi - lam)) / (2 * math.pi * lam)
        assert density_at(dens, lam) == pytest.approx(mp, abs=1e-2)
