"""Dense reference curves, the fixed-Eb/N0 solver, and the envelope."""

import math

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st

from sparse_noma import (
    ConfigurationError,
    DomainError,
    NumericalError,
    SystemConfig,
    capacity_lmmse,
    capacity_optimum,
    lmmse_error,
)
from sparse_noma import baselines
from sparse_noma.baselines import (
    SCHEMES,
    RatePoint,
    _dense_schemes,
    _rate_fn,
    baseline_rate,
    solve_rate_at_ebn0,
    sweep_load,
    timeshare_envelope,
)

loads = st.floats(min_value=0.05, max_value=5.0)
DENSE = ("cover_wyner", "rs_cdma_opt", "rs_cdma_lmmse")


def mp_kernel_F(x, z):
    """F(x, z) straight from its radicals, at the caller's mpmath precision."""
    rz = mpmath.sqrt(z)
    return (mpmath.sqrt(x * (1 + rz) ** 2 + 1) - mpmath.sqrt(x * (1 - rz) ** 2 + 1)) ** 2


class TestBaselineRate:
    def test_cover_wyner_value(self):
        assert baseline_rate("cover_wyner", 1.0, 10.0) == pytest.approx(math.log2(11.0), rel=1e-15)

    def test_rs_cdma_opt_value(self):
        # equals the balanced-load dense optimum formula at snr 10
        assert baseline_rate("rs_cdma_opt", 1.0, 10.0) == pytest.approx(
            2.7233264657365007, rel=1e-13
        )

    @given(snr=st.floats(min_value=0.0, max_value=1e6))
    def test_orthogonal_meets_cover_wyner_at_unit_load(self, snr):
        assert baseline_rate("orthogonal", 1.0, snr) == pytest.approx(
            baseline_rate("cover_wyner", 1.0, snr), rel=1e-12, abs=1e-300
        )

    def test_orthogonal_rejects_overload(self):
        with pytest.raises(DomainError, match="beta <= 1"):
            baseline_rate("orthogonal", 1.5, 10.0)

    def test_zero_snr(self):
        for scheme in DENSE:
            assert baseline_rate(scheme, 0.7, 0.0) == 0.0

    @pytest.mark.parametrize("snr", [math.nan, math.inf, -1.0])
    def test_snr_must_be_finite_and_nonnegative(self, snr):
        with pytest.raises(DomainError, match="snr must be finite and >= 0"):
            baseline_rate("cover_wyner", 1.0, snr)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 3.0, 30.0, 1e6])
    def test_domain_bound_on_beta_snr(self, beta):
        # past the bound the rates overflowed to inf, nan or 0.0 instead of raising
        schemes = DENSE + ("orthogonal",) * (beta <= 1.0)
        for scheme in schemes:
            assert 0.0 < baseline_rate(scheme, beta, 0.999e306 / beta) < math.inf
            for snr in (1.001e306 / beta, 1e307, 1e308):
                with pytest.raises(DomainError, match="beta \\* snr <= 1e306"):
                    baseline_rate(scheme, beta, snr)

    def test_unknown_scheme(self):
        with pytest.raises(DomainError, match="unknown"):
            baseline_rate("sparse_opt", 1.0, 10.0)

    @pytest.mark.parametrize("beta", [math.inf, math.nan, 0.0, -1.0])
    def test_load_must_be_finite_and_positive(self, beta):
        with pytest.raises(DomainError, match="beta must be finite and positive"):
            baseline_rate("cover_wyner", beta, 10.0)

    @given(beta=loads, snr=st.floats(min_value=1e-3, max_value=1e4))
    @settings(max_examples=80)
    def test_dense_ordering(self, beta, snr):
        cw = baseline_rate("cover_wyner", beta, snr)
        opt = baseline_rate("rs_cdma_opt", beta, snr)
        lin = baseline_rate("rs_cdma_lmmse", beta, snr)
        assert cw >= opt - 1e-12
        assert opt >= lin - 1e-12
        assert lin >= 0.0

    @pytest.mark.parametrize("beta", [1 / 3, 2 / 3, 1.0, 3 / 2, 8 / 3, 3.0])
    def test_rs_cdma_matches_verdu_shamai(self, beta):
        # 1e-12 bits absolute from -10 dB up, 1e-13 relative below, against
        # the Verdu-Shamai formulas evaluated directly in 50-digit arithmetic
        with mpmath.workdps(50):
            z = mpmath.mpf(beta)
            for snr_db in range(-40, 121, 5):
                snr = 10.0 ** (snr_db / 10.0)
                x = mpmath.mpf(snr)
                f = mp_kernel_F(x, z)
                lmmse = z * mpmath.log(1 + x - f / 4, 2)
                opt = lmmse + mpmath.log(1 + z * x - f / 4, 2) - f / (4 * x) / mpmath.log(2)
                for scheme, ref in (("rs_cdma_opt", opt), ("rs_cdma_lmmse", lmmse)):
                    err = abs(baseline_rate(scheme, beta, snr) - ref)
                    bar = 1e-12 if snr_db >= -10 else 1e-13 * abs(ref)
                    assert err < bar, (scheme, snr_db, float(err))

    @pytest.mark.parametrize("snr", [1e-160, 1e-200, 1e-300])
    @pytest.mark.parametrize("beta", [0.5, 2 / 3, 1.0, 2.0, 3.0])
    def test_rs_cdma_at_tiny_snr(self, beta, snr):
        # both rates are beta snr log2(e) to first order, with a relative
        # correction of order snr; nothing may underflow or turn negative
        lead = beta * snr * math.log2(math.e)
        opt = baseline_rate("rs_cdma_opt", beta, snr)
        lin = baseline_rate("rs_cdma_lmmse", beta, snr)
        assert opt == pytest.approx(lead, rel=1e-12, abs=0.0)
        assert lin == pytest.approx(lead, rel=1e-12, abs=0.0)
        assert opt >= lin >= 0.0


def paper_closed_forms(d, beta_d, snr):
    """The paper's optimum and LMMSE closed forms in bits, evaluated directly.

    Both subtract F/4 from terms that grow with snr, so the digits lost grow
    with |log10 snr|; the working precision grows with it.
    """
    with mpmath.workdps(30 + abs(math.log10(snr))):
        s, d, beta_d = mpmath.mpf(snr), mpmath.mpf(d), mpmath.mpf(beta_d)
        alpha, gamma, beta = (d - 1) / d, (beta_d - 1) / d, beta_d / d
        z, zeta = alpha / gamma, beta_d / gamma
        x = gamma * s
        f4 = mp_kernel_F(x, z) / 4
        a, b = (1 + mpmath.sqrt(z)) ** 2, (1 - mpmath.sqrt(z)) ** 2
        big, small = zeta - b, zeta - a
        g = ((mpmath.sqrt(big * (x * a + 1)) - mpmath.sqrt(small * (x * b + 1)))
             / (mpmath.sqrt(big) - mpmath.sqrt(small))) ** 2
        opt = ((beta * (d - 1) + 1) / 2 * mpmath.log(1 + (gamma + alpha) * s - f4)
               + (beta - 1) * mpmath.log(1 + alpha * s - f4)
               - (beta * (d - 1) - 1) / 2 * mpmath.log((1 + beta_d * s) ** 2 / g))
        lmmse = beta * (mpmath.log(1 + beta_d * s) - mpmath.log(1 + d * gamma * s - d * f4))
        return opt / mpmath.log(2), lmmse / mpmath.log(2)


def assert_matches_paper(d, beta_d, snr, bar):
    """Both sparse closed forms within `bar` relative of `paper_closed_forms`."""
    opt, lmmse = paper_closed_forms(d, beta_d, snr)
    cfg = SystemConfig(d, beta_d, snr)
    for name, fn, ref in (("optimum", capacity_optimum, opt), ("lmmse", capacity_lmmse, lmmse)):
        err = abs(fn(cfg).spectral_efficiency / ref - 1)
        assert err < bar, (name, snr, float(err))


@pytest.mark.parametrize(
    "d,beta_d",
    [
        (2, 2), (3, 2), (2, 3), (3, 6), (10, 3), (10, 30), (50, 3), (2, 12),
        (10**3, 10**3), (10**4, 10**4), (10**5, 10**5), (10**5, 2 * 10**5), (2, 10**5), (10**5, 2),
    ],
)
def test_sparse_closed_forms_match_paper_formula(d, beta_d):
    for e in range(-48, 601):
        assert_matches_paper(d, beta_d, 10.0 ** (e / 4), 1e-12)


@given(
    log_d=st.floats(min_value=math.log10(2), max_value=5),
    log_bd=st.floats(min_value=math.log10(2), max_value=5),
    log_snr=st.floats(min_value=-12, max_value=12),
)
@settings(max_examples=200, deadline=None)
def test_sparse_closed_forms_match_paper_formula_at_any_degree(log_d, log_bd, log_snr):
    assert_matches_paper(round(10**log_d), round(10**log_bd), 10.0**log_snr, 1e-13)


@pytest.mark.parametrize(
    "d,beta_d",
    [(10, 3), (50, 3), (3, 2), (3, 6), (2, 2), (10, 10), (2, 12), (100, 101), (10**5, 10**5)],
)
def test_lmmse_error_matches_paper_formula(d, beta_d):
    # the SINR, not -log2(m1): m1 rounds to 1 at low snr and would lose the rate
    for e in range(-12, 15):
        snr = 10.0 ** e
        ref = paper_closed_forms(d, beta_d, snr)[1]
        cfg = SystemConfig(d, beta_d, snr)
        rate = cfg.beta * math.log1p(lmmse_error(cfg).sinr) / math.log(2.0)
        err = abs(rate / ref - 1)
        assert err < 1e-13, (snr, float(err))


class TestRateSolver:
    def test_constant_rate_function(self):
        pt = solve_rate_at_ebn0(lambda snr: 1.75, 1.0, 2.0)
        assert pt.rate == pytest.approx(1.75, abs=1e-10)
        assert not pt.below_threshold

    def test_below_threshold_returns_zero(self):
        pt = solve_rate_at_ebn0(
            lambda snr: baseline_rate("cover_wyner", 1.0, snr), 1.0, math.log(2.0)
        )
        assert pt.rate == 0.0 and pt.snr == 0.0
        assert pt.below_threshold

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rate_is_numerical_error(self, value):
        # a NaN shortfall compares False with everything, so neither the bracket nor the residual bar sees it
        with pytest.raises(NumericalError, match="rate function gave"):
            solve_rate_at_ebn0(lambda snr: value, 1.0, 10.0)

    def test_unbounded_rate_function_does_not_close_the_bracket(self):
        # R = 2 R ebn0 / beta has no positive fixed point: the shortfall stays negative
        with pytest.raises(NumericalError, match="rate bracket did not close"):
            solve_rate_at_ebn0(lambda snr: 2.0 * snr, 1.0, 10.0)

    @pytest.mark.parametrize("beta,ebn0,name", [(math.inf, 10.0, "beta"), (1.0, math.inf, "ebn0")])
    def test_infinite_input_is_not_called_non_positive(self, beta, ebn0, name):
        with pytest.raises(DomainError, match=f"{name} must be finite and positive"):
            solve_rate_at_ebn0(lambda snr: 1.0, beta, ebn0)

    def test_rate_vanishes_near_threshold(self):
        ebn0 = math.log(2.0) * (1.0 + 1e-6)
        pt = solve_rate_at_ebn0(
            lambda snr: baseline_rate("cover_wyner", 1.0, snr), 1.0, ebn0
        )
        assert 0.0 < pt.rate < 1e-4

    def test_sparse_fixed_point(self):
        cfg = SystemConfig(2, 2)
        fn = lambda snr: capacity_optimum(cfg.with_snr(snr)).spectral_efficiency
        pt = solve_rate_at_ebn0(fn, 1.0, 10.0, scheme="sparse_opt", d=2, beta_d=2)
        assert abs(pt.rate - fn(pt.snr)) < 1e-10
        assert abs(pt.beta * pt.snr - pt.rate * pt.ebn0) < 1e-9

    @given(
        beta=loads,
        ebn0=st.floats(min_value=0.75, max_value=1e3),
        scheme=st.sampled_from(DENSE),
    )
    @settings(max_examples=80)
    def test_power_identity(self, beta, ebn0, scheme):
        pt = solve_rate_at_ebn0(
            lambda snr: baseline_rate(scheme, beta, snr), beta, ebn0, scheme=scheme
        )
        assert not pt.below_threshold
        assert pt.rate > 0.0
        assert pt.beta * pt.snr == pytest.approx(pt.rate * pt.ebn0, rel=1e-9)
        assert abs(pt.rate - baseline_rate(scheme, beta, pt.snr)) < 1e-10

    def test_monotone_in_ebn0(self):
        rates = [
            solve_rate_at_ebn0(
                lambda snr: baseline_rate("rs_cdma_opt", 2.0, snr), 2.0, e
            ).rate
            for e in (1.0, 3.0, 10.0, 30.0)
        ]
        assert all(b > a for a, b in zip(rates, rates[1:]))


class TestRateSolverLargeRates:
    """The residual bar follows the bracket's relative width above 100 bits."""

    @pytest.mark.parametrize("ebn0_db", [1520, 1530, 1770, 1780, 1800])
    def test_rs_cdma_opt_solves_past_500_bits(self, ebn0_db):
        rate = _rate_fn("rs_cdma_opt", 1.0)
        pt = solve_rate_at_ebn0(rate, 1.0, 10.0 ** (ebn0_db / 10.0), scheme="rs_cdma_opt")
        assert 500.0 < pt.rate < 610.0
        assert abs(pt.rate - rate(pt.snr)) <= 1e-12 * pt.rate

    @pytest.mark.parametrize("root,jump", [(50.0, 3e-10), (1000.0, 2e-9)])
    def test_residual_bar_is_not_loose(self, root, jump):
        # R - f jumps from -jump to +jump at the root: the bracket closes on
        # it, but no midpoint gets within 1e-10 max(1, R/100) of a fixed point
        def rate(snr):
            tried = snr / 10.0  # the rate that gives this snr at beta = 1, Eb/N0 = 10
            return root + jump if tried < root else root - jump

        with pytest.raises(NumericalError, match="fixed-point residual"):
            solve_rate_at_ebn0(rate, 1.0, 10.0)


def _cover_wyner_fixed_point(ebn0):
    """Positive root of R = log2(1 + R ebn0) by the Lambert W function, 30 digits.

    With u = 1 + R ebn0 the root is u = -e W_{-1}(-(ln 2 / e) 2^(-1/e)) / ln 2,
    e = ebn0, on the lower branch (the upper one gives the root R = 0).
    """
    with mpmath.workdps(30):
        e, ln2 = mpmath.mpf(ebn0), mpmath.log(2)
        u = -e * mpmath.lambertw(-(ln2 / e) * mpmath.power(2, -1 / e), -1) / ln2
        return float((mpmath.re(u) - 1) / e)


class TestRateSolverAccuracy:
    @pytest.mark.parametrize("beta", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("ebn0", [math.log(2.0) * (1.0 + 1e-6), 0.75, 1.0, 10.0, 1e3, 1e6])
    def test_cover_wyner_exact_fixed_point(self, ebn0, beta):
        # the Cover-Wyner fixed point R = log2(1 + R ebn0) does not depend on the load
        ref = _cover_wyner_fixed_point(ebn0)
        pt = solve_rate_at_ebn0(
            lambda snr: baseline_rate("cover_wyner", beta, snr), beta, ebn0, scheme="cover_wyner"
        )
        assert abs(pt.rate - ref) <= 1e-12 * max(1.0, ref), (pt.rate, ref)

    def test_reference_at_ten_db(self):
        assert _cover_wyner_fixed_point(10.0) == pytest.approx(5.90907, abs=1e-5)


def _count_cases():
    """(rate_fn, beta, ebn0, sparse?) for the lattice at 4-18 dB and hard dense cases."""
    for d in (2, 3, 10):
        for bd in range(2, 3 * d + 1):
            cfg = SystemConfig(d, bd)
            for cap in (capacity_optimum, capacity_lmmse):
                fn = lambda snr, cap=cap, cfg=cfg: cap(cfg.with_snr(snr)).spectral_efficiency
                for db in range(4, 19):
                    yield fn, bd / d, 10.0 ** (db / 10.0), True
    ln2 = math.log(2.0)
    for ebn0 in (ln2 * (1.0 + 1e-9), ln2 * (1.0 + 1e-6), 0.75, 1.0, 10.0, 1e3, 1e6):
        for beta in (0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0):
            for scheme in ("cover_wyner", "orthogonal", "rs_cdma_opt", "rs_cdma_lmmse"):
                if scheme == "orthogonal" and beta > 1.0:
                    continue
                fn = lambda snr, s=scheme, b=beta: baseline_rate(s, b, snr)
                yield fn, beta, ebn0, False


def _bisection_evals(rate_fn, beta, ebn0):
    """Rate-function calls of plain bisection on the solver's bracket and exit width."""
    shortfall = lambda r: r - rate_fn(r * ebn0 / beta)
    lo, hi, calls = 1e-18, 1.0, 2  # shortfall(1e-18) and shortfall(1)
    while shortfall(hi) < 0.0:
        lo, hi, calls = hi, 2.0 * hi, calls + 1
    width, eps = hi - lo, 0.5e-12 * max(1.0, lo)
    while width > 2.0 * eps:  # every bisection step halves the bracket
        width, calls = 0.5 * width, calls + 1
    return calls + 1  # the residual check


class TestRateSolverCost:
    def test_evaluation_count(self):
        sparse_counts, worst = [], 0
        for rate_fn, beta, ebn0, sparse in _count_cases():
            calls = [0]

            def counted(snr):
                calls[0] += 1
                return rate_fn(snr)

            pt = solve_rate_at_ebn0(counted, beta, ebn0)
            assert pt.rate_evals == calls[0]
            assert pt.rate_evals <= _bisection_evals(rate_fn, beta, ebn0) + 1, (beta, ebn0)
            worst = max(worst, pt.rate_evals)
            if sparse:
                sparse_counts.append(pt.rate_evals)
        assert worst <= 49
        assert sum(sparse_counts) / len(sparse_counts) <= 20.0
        # no run of wasted steps on a bracket end once the falsi nudge drops below one ulp
        assert max(sparse_counts) <= 30

    def test_unsolved_points_count_nothing(self):
        cw = lambda snr: baseline_rate("cover_wyner", 1.0, snr)
        assert solve_rate_at_ebn0(cw, 1.0, math.log(2.0)).rate_evals == 0
        assert solve_rate_at_ebn0(lambda snr: snr * snr, 1.0, 2.0).rate_evals == 0
        table = sweep_load(2, 10.0, [1.0, 2.0])
        for p in table.points:
            assert (p.rate_evals > 0) == (p.scheme != "timeshare_envelope")


def _pt(beta, rate, ebn0=10.0):
    return RatePoint("sparse_opt", beta, rate, ebn0, 1.0, d=3)


class TestEnvelope:
    def test_two_points_both_retained(self):
        env = timeshare_envelope([_pt(1.0, 1.0), _pt(2.0, 2.5)])
        assert [(p.beta, p.rate) for p in env.points] == [(1.0, 1.0), (2.0, 2.5)]
        assert all(p.scheme == "timeshare_envelope" for p in env.points)
        assert all(p.snr is None for p in env.points)
        # no caller reads a label the envelope could give them
        assert all(p.d is None and p.route == "closed_form" for p in env.points) and env.d is None

    def test_sagging_point_dropped(self):
        env = timeshare_envelope([_pt(1.0, 1.0), _pt(1.5, 1.1), _pt(2.0, 2.5)])
        assert [p.beta for p in env.points] == [1.0, 2.0]

    def test_vertices_keep_generator_rates(self):
        pts = [_pt(0.5, 0.9), _pt(1.0, 1.6), _pt(1.5, 2.0), _pt(2.0, 2.2)]
        env = timeshare_envelope(pts)
        rates = {p.beta: p.rate for p in env.points}
        for p in pts:
            if p.beta in rates:
                assert rates[p.beta] == p.rate

    def test_no_points_give_an_empty_table(self):
        assert timeshare_envelope([]).points == ()

    def test_single_point_is_degenerate(self):
        pt = _pt(1.0, 1.0)
        assert timeshare_envelope([pt]).points == (pt,)  # returned unchanged

    def test_repeated_load_keeps_only_its_highest_rate(self):
        env = timeshare_envelope([_pt(1.0, 1.0), _pt(1.0, 2.0), _pt(2.0, 1.0)])
        assert [(p.beta, p.rate) for p in env.points] == [(1.0, 2.0), (2.0, 1.0)]

    def test_mixed_ebn0_rejected(self):
        with pytest.raises(ConfigurationError, match="common ebn0"):
            timeshare_envelope([_pt(1.0, 1.0), _pt(2.0, 2.0, ebn0=12.0)])

    @given(
        draws=st.lists(
            st.tuples(st.integers(1, 8), st.floats(min_value=0.1, max_value=10.0)),
            min_size=3, max_size=12,
        )
    )
    @settings(max_examples=60)
    def test_concave_and_dominating(self, draws):
        # few loads for up to 12 points, so loads repeat
        assume(len({i for i, _ in draws}) >= 2)
        pts = [_pt(0.5 * i, r) for i, r in draws]
        env = timeshare_envelope(pts)
        vertices = [(p.beta, p.rate) for p in env.points]
        assert all(b1 < b2 for (b1, _), (b2, _) in zip(vertices, vertices[1:]))
        slopes = [
            (r2 - r1) / (b2 - b1) for (b1, r1), (b2, r2) in zip(vertices, vertices[1:])
        ]
        assert all(s2 <= s1 + 1e-12 for s1, s2 in zip(slopes, slopes[1:]))
        by_beta = dict(vertices)
        for p in pts:
            if p.beta in by_beta:
                assert by_beta[p.beta] >= p.rate - 1e-12


class TestSweepLoad:
    def test_lattice_points_d2(self):
        table = sweep_load(2, 10.0, [1.0, 2.0, 3.0])
        sparse = [p for p in table.points if p.scheme == "sparse_opt"]
        assert [p.beta_d for p in sparse] == [2, 3, 4, 5, 6]
        assert [p.beta for p in sparse] == [1.0, 1.5, 2.0, 2.5, 3.0]

    def test_empty_lattice_is_an_error(self):
        with pytest.raises(ConfigurationError, match="lattice"):
            sweep_load(10, 10.0, [0.05, 0.15])
        with pytest.raises(ConfigurationError, match="empty"):
            sweep_load(2, 10.0, [])

    def test_non_positive_load_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="loads must be positive"):
            sweep_load(3, 10.0, [0.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_load_is_a_configuration_error(self, bad):
        with pytest.raises(ConfigurationError, match="loads must be finite"):
            sweep_load(2, 10.0, [0.5, bad])

    def test_envelope_reads_the_hull_without_timeshare_envelope(self, monkeypatch):
        expected = sweep_load(3, 10.0, [0.5, 1.0, 2.0])
        assert any(p.scheme == "timeshare_envelope" for p in expected.points)

        def refuse(points):
            raise AssertionError("sweep_load called timeshare_envelope")

        monkeypatch.setattr(baselines, "timeshare_envelope", refuse)
        assert sweep_load(3, 10.0, [0.5, 1.0, 2.0]) == expected

    def test_sparse_beats_dense_at_lattice(self):
        table = sweep_load(2, 10.0, [1.0, 1.5, 2.0, 2.5, 3.0])
        opt = {p.beta: p.rate for p in table.points if p.scheme == "sparse_opt"}
        dense = {p.beta: p.rate for p in table.points if p.scheme == "rs_cdma_opt"}
        cw = {p.beta: p.rate for p in table.points if p.scheme == "cover_wyner"}
        for beta, rate in opt.items():
            assert rate > dense[beta]
            assert rate < cw[beta]

    def test_rows_sorted_within_scheme_and_route(self):
        table = sweep_load(3, 10.0, [1.0, 1.5, 2.0])
        groups = {(p.scheme, p.route) for p in table.points}
        for scheme, route in groups:
            betas = [
                p.beta for p in table.points
                if p.scheme == scheme and p.route == route
            ]
            assert betas == sorted(betas)

    def test_envelope_covers_grid_and_generators(self):
        grid = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0]
        table = sweep_load(2, 10.0, grid)
        env = {
            p.beta: p.rate
            for p in table.points
            if p.scheme == "timeshare_envelope" and p.route == "sparse_opt"
        }
        gen = {p.beta: p.rate for p in table.points if p.scheme == "sparse_opt"}
        for b in grid:
            assert b in env
        for b, r in gen.items():
            if b in env:
                assert env[b] >= r - 1e-9


# loads 2/3, 1, 1, 7/6 and 2; orthogonal is left out above beta = 1
RATE_CASES = [
    (scheme, d, beta_d)
    for scheme in SCHEMES if scheme != "timeshare_envelope"
    for d, beta_d in ((3, 2), (2, 2), (3, 3), (6, 7), (3, 6))
    if scheme != "orthogonal" or beta_d <= d
]


class TestRateFn:
    """`_rate_fn` returns exactly the closed form each scheme name stands for."""

    @pytest.mark.parametrize("scheme,d,beta_d", RATE_CASES)
    def test_matches_the_closed_form(self, scheme, d, beta_d):
        cfg = SystemConfig(d, beta_d)
        beta = cfg.beta
        for snr in (0.0, 1e-3, 1.0, 10.0, 1e6):
            at = cfg.with_snr(snr)
            if scheme == "sparse_opt":
                expected = capacity_optimum(at).spectral_efficiency
            elif scheme == "sparse_lmmse":
                expected = capacity_lmmse(at).spectral_efficiency
            else:
                expected = baseline_rate(scheme, beta, snr)
            assert _rate_fn(scheme, beta, cfg)(snr) == expected
            assert _rate_fn(scheme, beta, at)(snr) == expected

    def test_orthogonal_only_up_to_full_load(self):
        assert _dense_schemes(1.0) == ("rs_cdma_opt", "rs_cdma_lmmse", "orthogonal", "cover_wyner")
        assert _dense_schemes(2 / 3) == _dense_schemes(1.0)
        assert _dense_schemes(7 / 6) == ("rs_cdma_opt", "rs_cdma_lmmse", "cover_wyner")
        with pytest.raises(DomainError, match="beta <= 1"):
            _rate_fn("orthogonal", 7 / 6)(10.0)
        table = sweep_load(3, 10.0, [2 / 3, 1.0, 7 / 6, 2.0])
        assert {p.beta for p in table.points if p.scheme == "orthogonal"} == {2 / 3, 1.0}
