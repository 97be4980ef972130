"""Closed-form capacities and the LMMSE error route."""

import math
from dataclasses import replace

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from sparse_noma import (
    DomainError,
    SystemConfig,
    capacity_integral_oracle,
    capacity_lmmse,
    capacity_optimum,
    lmmse_error,
)
from sparse_noma import checks
from sparse_noma.baselines import baseline_rate
from sparse_noma.checks import GRID_BD, GRID_D, GRID_SNR

degrees = st.integers(min_value=2, max_value=20)
snrs = st.floats(min_value=1e-4, max_value=1e4)

# arcsine-law constants for the contact pair at snr = 10
OPT_22_10 = math.log2((11.0 + math.sqrt(21.0)) / 2.0)
LMMSE_22_10 = 0.5 * math.log2(21.0)


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


@pytest.mark.parametrize("closed_form", (capacity_optimum, capacity_lmmse))
class TestSupportedSnrRange:
    def test_finite_at_1e300(self, closed_form):
        rate = closed_form(SystemConfig(3, 6, 1e300)).spectral_efficiency
        assert math.isfinite(rate) and rate > 0.0

    @pytest.mark.parametrize("d,bd", ((2, 2), (3, 2), (2, 100), (1000, 1000), (10**5, 10**5)))
    def test_finite_at_the_stated_bound(self, closed_form, d, bd):
        rate = closed_form(SystemConfig(d, bd, 1e306 / bd**2)).spectral_efficiency
        assert math.isfinite(rate) and rate > 0.0

    @pytest.mark.parametrize("d,bd,snr", ((2, 2, 1e308), (3, 6, 1e305), (1000, 1000, 1e301)))
    def test_beyond_the_bound_names_the_range(self, closed_form, d, bd, snr):
        with pytest.raises(DomainError, match=r"0 <= snr <= 1e306 / beta_d\^2"):
            closed_form(SystemConfig(d, bd, snr))


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


def test_lmmse_identity_check_catches_a_relative_error_of_1e_minus_8(monkeypatch):
    # the check's reference m1 comes from the Stieltjes transform, so it sees
    # a wrong LMMSE form that a comparison with the cavity would not
    assert checks.check_lmmse_identity()[0]

    def off(cfg):
        res = capacity_lmmse(cfg)
        return replace(res, spectral_efficiency=res.spectral_efficiency * (1.0 + 1e-8))

    monkeypatch.setattr(checks, "capacity_lmmse", off)
    assert not checks.check_lmmse_identity()[0]


def test_dense_limit_matches_dense_formulas():
    # at d = 500 both receivers sit on the classical dense expressions
    snr = 10.0
    cfg = SystemConfig(500, 500, snr)
    f = (math.sqrt(4.0 * snr + 1.0) - 1.0) ** 2  # F(snr, 1) from its radicals
    dense_lmmse = math.log2(1.0 + snr - f / 4.0)
    assert capacity_lmmse(cfg).spectral_efficiency == pytest.approx(dense_lmmse, abs=1e-2)
    dense_opt = (
        math.log2(1.0 + snr - f / 4.0)
        + math.log2(1.0 + snr - f / 4.0)
        - f / (4.0 * snr) * math.log2(math.e)
    )
    assert capacity_optimum(cfg).spectral_efficiency == pytest.approx(dense_opt, abs=1e-2)


def _first_order_constants(beta, snr):
    """lim d (C_d - C_VS) in bits for the optimum and the LMMSE receiver.

    (P_u, P_r) is the dense (d -> infinity) cavity fixed point, P_r the
    positive root of P_r^2 - b P_r - snr = 0.
    """
    b = 1.0 - (1.0 - beta) * snr
    p_r = (b + math.sqrt(b * b + 4.0 * snr)) / 2.0
    p_u = 1.0 + snr / p_r
    # optimum: beta rho^2 / 2 with rho = snr/(P_u P_r), the 2-cycle term that
    # a dense matrix has and a simple sparse graph does not; LMMSE: the
    # derivative of beta log1p(snr/P_r) in alpha = 1 - 1/d at alpha = 1
    opt = beta * (snr / (p_u * p_r)) ** 2 / 2.0
    lmmse = beta * snr**2 / (p_r * (p_r + snr) * (2.0 * p_r - b))
    return opt / math.log(2.0), lmmse / math.log(2.0)


@pytest.mark.parametrize("beta,snr", ((1, 1.0), (1, 10.0), (2, 10.0), (0.5, 10.0)))
def test_dense_limit_to_first_order_in_one_over_d(beta, snr):
    consts = _first_order_constants(beta, snr)
    receivers = (("rs_cdma_opt", capacity_optimum), ("rs_cdma_lmmse", capacity_lmmse))
    for const, (scheme, closed_form) in zip(consts, receivers):
        dense = baseline_rate(scheme, beta, snr)
        for d in (10**2, 10**3, 10**4, 10**5):
            gap = closed_form(SystemConfig(d, round(beta * d), snr)).spectral_efficiency - dense
            assert abs(d * gap - const) <= 0.5 / d, (scheme, d, d * (d * gap - const))


def mp_p_r(alpha, beta, s):
    """The resource precision in mpmath: the positive root of P_r^2 - b P_r - alpha s = 0, b = 1 - (1 - beta) s."""
    b = 1 - (1 - beta) * s
    r = mp.sqrt(b * b + 4 * alpha * s)
    return (b + r) / 2 if b >= 0 else 2 * alpha * s / (r - b)


def mp_bethe(d, beta, s):
    """The optimum rate in nats as the Bethe free energy at the cavity fixed point; d None is the dense limit."""
    alpha = 1 - mp.mpf(1) / d if d else mp.mpf(1)
    p_r = mp_p_r(alpha, beta, s)
    p_u = 1 + alpha * s / p_r
    loss = beta * d * mp.log1p(s / d / (p_u * p_r)) if d else beta * s / (p_u * p_r)
    return beta * mp.log1p(s / p_r) + mp.log1p(beta * s / p_u) - loss


class TestImmse:
    """dC/dsnr = beta/(snr + P_r) nats, the I-MMSE relation (Guo, Shamai & Verdu, IEEE T-IT 2005).

    The Bethe free energy is stationary in (P_u, P_r) at the fixed point, so
    only its explicit snr dependence survives in the derivative.
    """

    @pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
    @pytest.mark.parametrize("d,bd", ((2, 2), (3, 2), (3, 6), (10, 10), (1000, 1000), (10**5, 2 * 10**5), (2, 10**5)))
    def test_derivative_in_mpmath(self, dense, d, bd):
        # at 40 + |log10 snr| digits the worst deviation seen was 2.3e-41
        worst, worst_at = 0.0, None
        for e in range(-12, 13):
            with mp.workdps(40 + abs(e)):
                s, beta = mp.mpf(10) ** e, mp.mpf(bd) / d
                alpha = mp.mpf(1) if dense else 1 - mp.mpf(1) / d
                want = beta / (s + mp_p_r(alpha, beta, s))
                got = mp.diff(lambda t: mp_bethe(None if dense else d, beta, t), s)
                dev = abs(got / want - 1)
            if dev > worst:
                worst, worst_at = dev, e
        assert worst <= 1e-38, f"worst relative deviation {mp.nstr(worst, 3)} at snr 1e{worst_at}"

    def test_integral_gives_the_optimum_on_criterion_1_grid(self):
        # a third route to the optimum, apart from the Bethe form and the spectral oracle;
        # worst seen 5.6e-16 relative, at (3, 10, 0.1)
        worst, worst_at = 0.0, None
        for d in GRID_D:
            for bd in GRID_BD:
                alpha, beta = (d - 1) / d, bd / d
                for snr in GRID_SNR:
                    nats = quad(lambda t: beta / (t + float(mp_p_r(alpha, beta, t))), 0.0, snr, epsabs=0.0, epsrel=1e-13)[0]
                    want = capacity_optimum(SystemConfig(d, bd, snr)).spectral_efficiency
                    dev = abs(nats / math.log(2.0) / want - 1.0)
                    if dev > worst:
                        worst, worst_at = dev, (d, bd, snr)
        assert worst <= 1e-12, f"worst relative deviation {worst:.2e} at (d, beta_d, snr) = {worst_at}"
