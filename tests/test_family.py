import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

import oracles
from bgmo import special
from bgmo.baselines import (
    Exponential,
    ExponentiatedPareto,
    ExtendedWeibull,
    Frechet,
    Lomax,
    ModifiedWeibull,
    Weibull,
    ZFunction,
)
from bgmo.family import BgmoDistribution, BgmoParams
from bgmo.gmo import tilt_inverse
from bgmo.series import DivergenceError, _support_quad, asymptote
from eval_sweep import SHAPES as SWEEP_SHAPES
from test_gmo import ALL_BASELINES, BASELINE_IDS
from test_series import EACH_FAMILY

# (m, n, theta, alpha), each log-uniform on [1e-2, 1e2]
SHAPE_BOX = st.tuples(*[st.floats(-2.0, 2.0).map(lambda e: 10.0**e)] * 4)
KS_LEVEL = 1e-6  # the benchmark's: a 1% level would reject correct draws on one seed in a hundred
# m, n < 1 draws each gamma variate through the shape + 1 boost; m, n > 1 directly
SAMPLER_SHAPES = [(0.3, 0.6, 0.7, 1.8), (2.5, 1.7, 1.4, 0.6)]


def dist(m, n, theta, alpha, baseline=None):
    return BgmoDistribution(BgmoParams(m, n, theta, alpha), baseline or Exponential(1.0))


class TestDensity:
    def test_full_reduction_is_baseline(self):
        d = dist(1, 1, 1, 1)
        ts = np.linspace(0.0, 5, 40)
        np.testing.assert_allclose(d.pdf(ts), Exponential(1.0).pdf(ts), rtol=1e-13)

    def test_beta_two_one_closed_form(self):
        # beta(2,1) layer over the exponential: 2 f F
        d = dist(2, 1, 1, 1)
        expected = 2 * math.exp(-1) * (1 - math.exp(-1))
        assert d.pdf(1.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.46508, abs=2e-5)

    def test_pdf_matches_cdf_derivative(self):
        d = dist(2.5, 1.3, 0.7, 1.5, Weibull(1.0, 2.0))
        t = 0.8
        h = 1e-5
        num = (d.cdf(t + h) - d.cdf(t - h)) / (2 * h)
        assert d.pdf(t) == pytest.approx(num, rel=1e-6)

    def test_outside_support_is_zero(self):
        d = dist(2, 3, 0.5, 2.0)
        assert d.pdf(-1.0) == 0.0
        assert d.log_pdf(-1.0) == -math.inf
        # with theta < 1, (theta - 1) * log sf_G is +inf where the baseline
        # log sf overflows to -inf; the density there is still 0
        d = dist(2, 1.5, 0.8, 2, Weibull(1.0, 2.0))
        for t in (1e200, math.inf):
            assert d.log_pdf(t) == -math.inf
            assert d.pdf(t) == 0.0
        np.testing.assert_array_equal(d.pdf(np.array([-1.0, 1e200, math.inf])), 0.0)

    def test_deep_tail_stays_finite(self):
        # log-space evaluation: finite positive density wherever the
        # log-density is above -700
        d = dist(0.5, 0.5, 0.5, 0.5, Frechet(2.0, 1.0))
        for t in (1e-3, 1e2, 1e6, 1e12):
            lp = d.log_pdf(t)
            assert np.isfinite(lp)
            if lp > -700:
                assert d.pdf(t) > 0.0

    def test_finite_at_the_exponentiated_pareto_location(self):
        # points at the edge are evaluated at the next double above it, not at the edge itself
        d = dist(0.5, 1, 1, 1, ExponentiatedPareto(0.8, 1.7, 2.4))
        assert math.isfinite(d.log_pdf(0.8))
        # a quantile that lands on the edge
        d = dist(0.2424, 57.96, 1.2128, 0.3942, ExponentiatedPareto(0.8, 1.7, 2.4))
        assert d.quantile(1e-12) == 0.8
        assert math.isfinite(d.log_pdf(d.quantile(1e-12)))


class TestCdf:
    @pytest.mark.parametrize("shapes", [(0.01, 2, 1, 1), (2, 0.01, 1, 1)])
    def test_median_at_small_shapes(self, shapes):
        # at (0.01, 2) the median sits at t = 2.9e-31, where s = e^-t rounds to 1;
        # at (2, 0.01) it sits at t = 70.3, where 1 - s does: each incomplete
        # beta must read the argument of its own small tail
        d = dist(*shapes)
        t = d.quantile(0.5)
        cdf, sf = oracles.cdf_sf_mp(*shapes, -t)  # Exponential(1): log sf_G = -t
        assert d.cdf(t) == pytest.approx(cdf, rel=1e-14)
        assert d.sf(t) == pytest.approx(sf, rel=1e-14)
        assert d.log_sf(t) == pytest.approx(math.log(sf), rel=1e-14)
        assert d.chrf(t) == pytest.approx(-math.log(sf), rel=1e-14)
        assert d.hrf(t) == pytest.approx(d.pdf(t) / sf, rel=1e-14)
        assert cdf == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("shapes", [(12, 0.7, 0.05, 0.03), (2, 3, 2, 2)])
    def test_near_the_exponentiated_pareto_location(self, shapes):
        # heavy k = 0.3, gamma = 0.5: the baseline sf must come from the same
        # log(1 - (theta_p/t)^k) as its cdf, exact where (theta_p/t)^k rounds to 1
        b = ExponentiatedPareto(0.8, 0.3, 0.5)
        d = dist(*shapes, b)
        ts = 0.8 * (1.0 + 10.0 ** -np.arange(1.0, 16.0))
        want = []
        for t in ts:
            with mpmath.workdps(50):
                log_g = b.gamma * mpmath.log1p(-((b.theta_p / mpmath.mpf(t)) ** b.k))
                want.append(oracles.cdf_sf_mp(*shapes, float(mpmath.log(-mpmath.expm1(log_g)))))
        np.testing.assert_allclose(np.stack([d.cdf(ts), d.sf(ts)], axis=1), want, rtol=1e-12)

    def test_limits(self):
        d = dist(2, 3, 0.5, 2.0)
        assert d.cdf(0.0) == pytest.approx(0.0, abs=1e-300)
        assert d.cdf(1e9) == pytest.approx(1.0, abs=1e-12)

    def test_unit_shapes_reduce_to_tilted_cdf(self):
        d = dist(1, 1, 2.0, 3.0)
        ts = np.linspace(0.05, 6, 30)
        np.testing.assert_allclose(d.cdf(ts), oracles.gmo_cdf(3.0, 2.0, d.baseline, ts), atol=1e-13)

    def test_hand_value(self):
        d = dist(1, 1, 1, 2.0)
        assert d.cdf(math.log(2)) == pytest.approx(1 / 3, abs=1e-14)

    def test_monotone(self):
        d = dist(0.7, 2.2, 1.4, 0.3, Lomax(2.0, 1.0))
        ts = np.linspace(0.0, 20, 300)
        assert np.all(np.diff(d.cdf(ts)) >= -1e-14)


class TestReliabilityIdentities:
    @pytest.mark.parametrize(
        "params", [(1, 1, 1, 1), (2, 3, 1, 2), (0.6, 1.4, 2.2, 0.5), (2.5, 1.3, 0.7, 1.5)]
    )
    def test_pdf_equals_hrf_sf_and_rhrf_cdf(self, params):
        d = dist(*params, Weibull(1.0, 2.0))
        ts = d.quantile(np.linspace(0.05, 0.95, 15))
        pdf = d.pdf(ts)
        np.testing.assert_allclose(d.hrf(ts) * d.sf(ts), pdf, atol=1e-12, rtol=1e-10)
        np.testing.assert_allclose(d.rhrf(ts) * d.cdf(ts), pdf, atol=1e-12, rtol=1e-10)

    def test_unit_shape_hazard_matches_tilted_hazard(self):
        d = dist(1, 1, 2.0, 3.0)
        ts = np.linspace(0.1, 5, 20)
        np.testing.assert_allclose(d.hrf(ts), oracles.gmo_hrf(3.0, 2.0, d.baseline, ts), rtol=1e-9)

    def test_chrf_monotone_and_matches_sf(self):
        d = dist(1.5, 0.8, 1.2, 2.0)
        ts = np.linspace(0.05, 8, 100)
        ch = d.chrf(ts)
        assert np.all(np.diff(ch) >= -1e-12)
        np.testing.assert_allclose(ch, -np.log(d.sf(ts)), atol=1e-12)


def weibull_sf_oracle(m, n, theta, alpha, t):
    """1 - F at Weibull(1, 2) for integer m, n, with no cancelling step.

    s is formed directly from the baseline sf, which is small here, and
    I_w(n, m) is the finite binomial sum of positive terms.
    """
    gbar = math.exp(-(t**2))
    w = (alpha * gbar / (1.0 - (1.0 - alpha) * gbar)) ** theta
    top = m + n - 1
    return sum(math.comb(top, j) * w**j * (1.0 - w) ** (top - j) for j in range(n, top + 1))


class TestTails:
    @pytest.mark.parametrize("shapes", [(2, 3, 0.8, 2.0), (3, 1, 1.7, 0.4), (1, 2, 0.5, 3.0)])
    def test_sf_relative_precision_in_upper_tail(self, shapes):
        d = dist(*shapes, Weibull(1.0, 2.0))
        for t in (6.0, 8.0, 12.0):
            want = weibull_sf_oracle(*shapes, t)
            assert want <= 1e-12
            assert d.sf(t) == pytest.approx(want, rel=1e-9)
            assert d.chrf(t) == pytest.approx(-math.log(want), rel=1e-12)

    def test_hrf_matches_upper_asymptote(self):
        # 1 - cdf is 0 from t = 6 on; the hazard must stay finite and exact
        d = dist(2, 1.5, 0.8, 2.0, Weibull(1.0, 2.0))
        h_tail = asymptote(d, "upper").hrf
        ts = np.array([6.0, 8.0, 12.0, 20.0, 30.0, 100.0])  # sf underflows from 30 on
        np.testing.assert_allclose(d.hrf(ts), h_tail(ts), rtol=1e-9)
        assert d.hrf(6.0) == pytest.approx(14.4, rel=1e-9)

    @pytest.mark.parametrize(
        "shapes, baseline",
        [
            ((0.7, 2.5, 0.5, 2.5), Weibull(1.0, 2.0)),
            ((2, 3, 1.5, 0.5), Frechet(2.0, 1.0)),
            ((0.689, 2.39, 0.533, 2.28), Exponential(0.986)),
        ],
    )
    def test_cdf_and_pdf_match_lower_asymptote(self, shapes, baseline):
        # the leading-order forms are off by O(G) relative, at most 1e-8 here
        d = dist(*shapes, baseline)
        lower = asymptote(d, "lower")
        ts = baseline.quantile(10.0 ** -np.arange(8, 17, 2))
        np.testing.assert_allclose(d.cdf(ts), lower.tail_prob(ts), rtol=1e-6)
        np.testing.assert_allclose(d.pdf(ts), lower.pdf(ts), rtol=1e-6)

    @pytest.mark.parametrize("shapes", [(0.1, 1, 1, 1), (0.1, 2, 1.5, 0.7), (0.5, 0.5, 0.4, 2.0)])
    def test_cdf_beyond_underflow_of_one_minus_s_power(self, shapes):
        # z = 1 - s^theta underflows to 0 with the baseline cdf exp(-1/t^2),
        # while F ~ G^m does not; F keeps the leading term z^m/(m B(m, n)) there
        d = dist(*shapes, Frechet(2.0, 1.0))
        ts = np.array([0.028, 0.03, 0.035])
        want = asymptote(d, "lower").tail_prob(ts)
        assert np.all(want > 0)
        np.testing.assert_allclose(d.cdf(ts), want, rtol=1e-12)
        assert d.cdf(0.03) == pytest.approx(float(want[1]), rel=1e-12)
        assert d.cdf(0.0) == 0.0

    def test_log_pdf_where_weibull_cdf_underflows(self):
        # the baseline cdf t^2 underflows below t = 1e-154; log G = 2 log t does not
        d = dist(0.7, 2.5, 0.5, 2.5, Weibull(1.0, 2.0))
        lower = asymptote(d, "lower")
        ts = np.array([1e-300, 1e-200])
        np.testing.assert_allclose(d.log_pdf(ts), np.log(lower.pdf(ts)), rtol=0, atol=1e-12)
        assert d.log_pdf(1e-300) == pytest.approx(-276.40381580727905, abs=1e-12)
        assert d.log_pdf(1e-200) == pytest.approx(-184.30041208751723, abs=1e-12)

    @pytest.mark.parametrize(
        "baseline", [ExtendedWeibull(1.0, ZFunction("square")), ModifiedWeibull(0.0, 1.0, 2.0)]
    )
    def test_log_pdf_where_power_cumulative_hazard_underflows(self, baseline):
        # both have cumulative hazard t^2, as Weibull(1, 2) has: log G = 2 log t
        # where t^2 underflows (1e-300, 1e-200) or is subnormal (1e-160)
        ts = np.array([1e-300, 1e-200, 1e-160])
        want = dist(0.7, 2.5, 0.5, 2.5, Weibull(1.0, 2.0)).log_pdf(ts)
        np.testing.assert_allclose(want, [-276.403816, -184.300412, -147.459051], rtol=1e-8)
        got = dist(0.7, 2.5, 0.5, 2.5, baseline).log_pdf(ts)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_cdf_where_one_minus_s_power_is_subnormal(self):
        # z = 1 - s^theta is about 2e-321 at t = 1e-160: I_z would see a few
        # significant bits, the leading term z^m/(m B(m, n)) keeps them all
        d = dist(0.7, 2.5, 0.5, 2.5, Weibull(1.0, 2.0))
        want = asymptote(d, "lower").tail_prob(1e-160)
        assert 0.0 < want
        assert d.cdf(1e-160) == pytest.approx(want, rel=1e-12)
        np.testing.assert_allclose(d.cdf(np.array([1e-160, 1e-100])),
                                   asymptote(d, "lower").tail_prob(np.array([1e-160, 1e-100])),
                                   rtol=1e-12)

    def test_rhrf_where_the_cdf_underflows(self):
        # the cdf is 6.5e-281 at t = 1e-200 and 0.0 from t = 1e-300 on; log cdf
        # keeps its leading term there, so pdf/cdf ~ 1.4/t stays finite
        d = dist(0.7, 2.5, 0.5, 2.5, Weibull(1.0, 2.0))
        for t in (1e-50, 1e-100, 1e-200, 1e-250, 1e-300):
            with mpmath.workdps(50):
                tm = mpmath.mpf(t)
                g = 2 * tm * mpmath.exp(-(tm**2))
                pdf, cdf, _ = oracles.pdf_cdf_mp(0.7, 2.5, 0.5, 2.5, g, -mpmath.expm1(-(tm**2)))
                want = float(pdf / cdf)
            assert d.rhrf(t) == pytest.approx(want, rel=1e-12)
        assert d.cdf(1e-300) == 0.0

    @pytest.mark.parametrize("shapes, ts", [
        ((50, 3, 1, 1), (8.27e-7, 5e-7, 2e-7)),
        ((50, 3, 0.5, 2), (2e-6, 1e-6)),
    ])
    def test_rhrf_where_the_cdf_is_below_1e_300(self, shapes, ts):
        # the cdf is a normal double at the first points (9.9e-302 at 8.27e-7),
        # where the leading term z^m/(m B(m, n)) misses log cdf by a term in
        # log(1 - z); the hypergeometric form (DLMF 8.17.8) keeps every digit
        d = dist(*shapes)
        for t in ts:
            with mpmath.workdps(50):
                tm = mpmath.mpf(t)
                pdf, cdf, _ = oracles.pdf_cdf_mp(*shapes, mpmath.exp(-tm), -mpmath.expm1(-tm))
            assert cdf <= 1e-300
            assert d.rhrf(t) == pytest.approx(float(pdf / cdf), rel=1e-12)

    @pytest.mark.parametrize("shapes, ts", [
        ((3, 50, 1, 1), (16.0, 20.0, 40.0)),
        ((3, 50, 0.5, 2), (30.0, 40.0)),
    ])
    def test_hrf_where_the_sf_is_below_1e_300(self, shapes, ts):
        # the mirror of the rhrf case: log sf takes the hypergeometric form,
        # whose log(1 - w) term the leading term w^n/(n B(m, n)) drops
        d = dist(*shapes)
        for t in ts:
            with mpmath.workdps(50):
                gbar = mpmath.exp(-mpmath.mpf(t))
                pdf, _, sf = oracles.pdf_cdf_mp(*shapes, gbar, 1 - gbar, gbar)
            assert sf <= 1e-300
            assert d.hrf(t) == pytest.approx(float(pdf / sf), rel=1e-12)
            assert d.chrf(t) == pytest.approx(float(-mpmath.log(sf)), rel=1e-12)

    def test_cdf_and_rhrf_just_above_underflow(self):
        # the cdf is 7.7e-304 to 8.1e-298 here, a normal double, where scipy's
        # betainc was 2e-5 to 3.5e-11 off; below 1e-290 the hypergeometric form
        # replaces it
        shapes = (20, 2, 3, 0.5)
        d = dist(*shapes)
        for t in (1e-16, 1.2e-16, 1.5e-16, 2e-16):
            with mpmath.workdps(50):
                tm = mpmath.mpf(t)
                pdf, cdf, _ = oracles.pdf_cdf_mp(*shapes, mpmath.exp(-tm), -mpmath.expm1(-tm))
            assert 1e-304 <= cdf <= 1e-296
            assert d.cdf(t) == pytest.approx(float(cdf), rel=1e-12)
            assert d.rhrf(t) == pytest.approx(float(pdf / cdf), rel=1e-12)

    def test_one_hypergeometric_evaluation_per_point(self, monkeypatch):
        # rhrf reads log cdf from the evaluation that gave the cdf, not from a second one
        sizes, form = [], special._log_inc_beta_hyp
        monkeypatch.setattr(
            special, "_log_inc_beta_hyp", lambda x, *a: sizes.append(x.size) or form(x, *a)
        )
        got = dist(20, 2, 3, 0.5).rhrf(np.array([1e-16, 1.2e-16, 1.5e-16, 2e-16, 1.0]))
        assert sizes == [4]
        assert np.all(np.isfinite(got))

    def test_sf_and_hrf_just_above_underflow(self):
        # the mirror: the sf was up to 5.9e-6 off at these points
        shapes = (2, 20, 3, 0.5)
        d = dist(*shapes)
        for t in (10.75, 10.85, 10.95, 11.0):
            with mpmath.workdps(50):
                gbar = mpmath.exp(-mpmath.mpf(t))
                pdf, _, sf = oracles.pdf_cdf_mp(*shapes, gbar, 1 - gbar, gbar)
            assert 1e-304 <= sf <= 1e-296
            assert d.sf(t) == pytest.approx(float(sf), rel=1e-12)
            assert d.hrf(t) == pytest.approx(float(pdf / sf), rel=1e-12)

    # (baseline, its (g, G, sf) at t from h and e^-h, its cumulative hazard
    # h at t, its hazard rate at t = inf); Frechet's h is -log G, the
    # others' -log sf.  The far points run to h = 1e300 (t = 1e150 for the
    # Weibull, whose h = t^2)
    HRF_BASELINES = [
        (Exponential(1.3), lambda t, h, e: (1.3 * e, -mpmath.expm1(-h), e), lambda t: 1.3 * t, 1.3),
        (Weibull(1.0, 2.0), lambda t, h, e: (2 * t * e, -mpmath.expm1(-h), e), lambda t: t * t, math.inf),
        (Lomax(2.0, 1.0), lambda t, h, e: (2 * e / (1 + t), -mpmath.expm1(-h), e), lambda t: 2 * mpmath.log1p(t), 0.0),
        (
            Frechet(2.0, 1.2),
            lambda t, h, e: (2 * h / t * e, e, -mpmath.expm1(-h)),
            lambda t: (mpmath.mpf(1.2) / t) ** 2,
            0.0,
        ),
    ]

    @pytest.mark.parametrize("baseline, exact, hazard, _", HRF_BASELINES, ids=lambda v: getattr(v, "tag", ""))
    def test_hrf_far_into_the_upper_tail(self, baseline, exact, hazard, _):
        # w = s^theta <= 1/2 takes theta n h_G/(D z 2F1(m + n, 1; n + 1; w)):
        # exp(log f - log sf) lost about theta n h eps, and was NaN once h overflowed
        def exact_at(t):
            with mpmath.workdps(400):  # h is up to 1.3e300
                t = mpmath.mpf(t)
                h = hazard(t)
                return exact(t, h, mpmath.exp(-h))

        far = [1e5, 1e50, 1e100, 1e150] if baseline.tag == "weibull" else [1e5, 1e100, 1e200, 1e300]
        at_far = [exact_at(t) for t in far]
        for shapes in [(0.7, 2.5, 0.5, 2.5), (2.0, 1.5, 0.8, 2.0), (1.0, 1.0, 1.0, 1.0)]:
            d = dist(*shapes, baseline)
            body = [float(t) for t in d.quantile(np.array([0.6, 0.9, 0.999]))]
            for t, (g, gcdf, gbar) in zip(body + far, [exact_at(t) for t in body] + at_far):
                # 50 digits beyond those of -log sf_G before the point
                dps = 50 + int(mpmath.log10(1 - mpmath.log(gbar)))
                pdf, _, sf = oracles.pdf_cdf_mp(*shapes, g, gcdf, gbar, dps=dps)
                assert d.hrf(t) == pytest.approx(float(pdf / sf), rel=1e-12, abs=0), (shapes, t)
            np.testing.assert_array_equal(d.hrf(np.array(far)), [d.hrf(t) for t in far])

    @pytest.mark.parametrize("baseline, _, __, rate", HRF_BASELINES, ids=lambda v: getattr(v, "tag", ""))
    def test_hrf_at_inf_is_theta_n_times_the_baseline_hazard(self, baseline, _, __, rate):
        # D = 1 and z = 1 there
        assert baseline.hrf(math.inf) == rate
        for m, n, theta, alpha in [(0.7, 2.5, 0.5, 2.5), (2.0, 1.5, 0.8, 2.0)]:
            assert dist(m, n, theta, alpha, baseline).hrf(math.inf) == theta * n * rate

    def test_hrf_at_the_points_of_the_upper_tail_faults(self):
        d = dist(0.7, 2.5, 0.5, 2.5)
        assert d.hrf(1e100) == pytest.approx(1.25, rel=1e-14)
        assert d.hrf(math.inf) == pytest.approx(1.25, rel=1e-14)
        assert dist(0.7, 2.5, 0.5, 2.5, Weibull(1.0, 2.0)).hrf(1e200) == pytest.approx(2.5e200, rel=1e-12)

    def test_quantile_round_trip_is_relative_at_tiny_levels(self):
        d = dist(0.7, 2.5, 0.5, 2.5, Weibull(1.0, 2.0))
        us = 10.0 ** -np.arange(4, 16, 2)
        np.testing.assert_allclose(d.cdf(d.quantile(us)), us, rtol=1e-12)


class TestQuantile:
    def test_reduction_median(self):
        assert dist(1, 1, 1, 1).quantile(0.5) == pytest.approx(math.log(2), abs=1e-10)

    def test_unit_shapes_match_tilted_quantile(self):
        d = dist(1, 1, 2.0, 3.0)
        us = np.linspace(0.05, 0.95, 19)
        np.testing.assert_allclose(
            d.quantile(us), oracles.gmo_quantile(3.0, 2.0, d.baseline, us), rtol=1e-9
        )

    def test_round_trip_random_draws(self):
        rng = np.random.default_rng(42)
        us = np.linspace(0.01, 0.99, 99)
        baselines = [Exponential(1.0), Weibull(1.0, 2.0), Lomax(2.0, 1.0), Frechet(2.0, 1.0)]
        for k in range(5):
            p = np.exp(rng.uniform(math.log(0.25), math.log(4.0), size=4))
            d = BgmoDistribution(BgmoParams(*p), baselines[k % 4])
            np.testing.assert_allclose(d.cdf(d.quantile(us)), us, atol=1e-8)

    @pytest.mark.parametrize("u", [0.0, 1.5, math.nan, [0.5, math.nan]])
    def test_domain(self, u):
        with pytest.raises(ValueError, match=r"quantile requires u in \(0, 1\)"):
            dist(1, 1, 1, 1).quantile(u)


class TestSampling:
    def test_deterministic_for_seed(self):
        d = dist(2.5, 1.3, 0.7, 1.5, Weibull(1.0, 2.0))
        a = d.sample(50, seed=123)
        b = d.sample(50, seed=123)
        np.testing.assert_array_equal(a, b)
        c = d.sample(50, seed=124)
        assert not np.array_equal(a, c)

    def test_reduction_ks_against_exponential(self):
        n = 20000
        draws = np.sort(dist(1, 1, 1, 1).sample(n, seed=7))
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        F = -np.expm1(-draws)
        ks = max(np.max(np.abs(ecdf_hi - F)), np.max(np.abs(F - ecdf_lo)))
        assert ks < 1.63 / math.sqrt(n)

    def test_reduction_sample_mean(self):
        n = 20000
        draws = dist(1, 1, 1, 1).sample(n, seed=11)
        # exponential(1): mean 1, sd 1
        assert abs(draws.mean() - 1.0) < 3.0 / math.sqrt(n)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            dist(1, 1, 1, 1).sample(0, seed=1)

    @pytest.mark.parametrize("shapes", SAMPLER_SHAPES)
    @pytest.mark.parametrize("baseline", ALL_BASELINES, ids=BASELINE_IDS)
    def test_ks_against_cdf(self, shapes, baseline):
        d = dist(*shapes, baseline)
        assert stats.kstest(d.sample(20000, seed=21), d.cdf).pvalue >= KS_LEVEL

    @pytest.mark.parametrize("shapes", SAMPLER_SHAPES + [(30.0, 0.2, 2.0, 0.5)])
    def test_two_sample_ks_against_inverse_transform(self, shapes):
        d = dist(*shapes, Weibull(1.0, 2.0))
        drawn = d.sample(20000, seed=31)
        inverted = oracles.inverse_transform_sample(d, 20000, seed=32)
        assert stats.ks_2samp(drawn, inverted).pvalue >= KS_LEVEL

    # these two leave out the heavy exponentiated Pareto (the last baseline):
    # at small n or theta it has mass beyond the largest double, so some of
    # its draws are rightly inf
    @pytest.mark.parametrize("shapes", [(1e-3, 1e-3, 1.0, 1.0), (1e4, 1e-2, 1.0, 1.0)])
    @pytest.mark.parametrize("baseline", ALL_BASELINES[:-1], ids=BASELINE_IDS[:-1])
    def test_extreme_shapes_stay_on_the_support(self, shapes, baseline):
        # at m = n = 1e-3 about half of the plain Gamma(1e-3) variates are 0
        d = dist(*shapes, baseline)
        draws = d.sample(5000, seed=41)
        assert np.all(np.isfinite(draws))
        assert np.all(draws >= d.support_low)

    @pytest.mark.parametrize("baseline", ALL_BASELINES[:-1], ids=BASELINE_IDS[:-1])
    @given(
        shapes=SHAPE_BOX,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draws_over_the_parameter_box(self, baseline, shapes, seed):
        d = dist(*shapes, baseline)
        draws = d.sample(64, seed)
        assert np.all(np.isfinite(draws))
        assert np.all(draws >= d.support_low)
        np.testing.assert_array_equal(draws, d.sample(64, seed))


class TestOneInversionPerPoint:
    """Each inversion through the tilt makes one ``_inv_hazard`` call per point."""

    LEVELS = np.concatenate([10.0 ** -np.arange(300.0, 0.0, -20.0), [0.3, 0.5]])

    @pytest.mark.parametrize("baseline", ALL_BASELINES, ids=BASELINE_IDS)
    def test_one_inv_hazard_call(self, baseline, monkeypatch):
        sizes = []
        inv = type(baseline)._inv_hazard

        def counted(self, y):
            sizes.append(np.size(y))
            return inv(self, y)

        monkeypatch.setattr(type(baseline), "_inv_hazard", counted)
        d = dist(0.7, 2.5, 0.5, 2.5, baseline)
        d.sample(1000, 7)
        d.quantile(self.LEVELS)
        tilt_inverse(2.0, baseline, np.log(self.LEVELS))
        assert sizes == [1000, self.LEVELS.size, self.LEVELS.size]

        # one call per integrand batch, over its nodes and the tail probe
        sizes.clear()
        batches = []

        def pdf(t):
            batches.append(t.size)
            return d.pdf(t)

        try:
            _support_quad(pdf, baseline, check="pdf")
        except DivergenceError:  # the heavy exponentiated Pareto's pdf integral
            pass
        assert sizes == batches and len(batches) >= 1

    @pytest.mark.parametrize("baseline", ALL_BASELINES, ids=BASELINE_IDS)
    @given(shapes=SHAPE_BOX)
    @example(shapes=(1e-3, 1e-3, 1.0, 1.0))
    @example(shapes=(1e4, 1e-2, 1.0, 1.0))
    def test_equals_two_inversions_bit_for_bit(self, baseline, shapes):
        # the log s a quantile feeds the tilt inverse, in both tails of the
        # beta layer: log(1 - z) below the median of z, log w above it
        m, n, theta, alpha = shapes
        z = special.beta_quantile(self.LEVELS, m, n)
        w = special.beta_quantile(self.LEVELS, n, m)
        with np.errstate(divide="ignore"):
            log_s = np.concatenate((np.log1p(-z), np.log(w), [-np.inf, 0.0])) / theta
        got = tilt_inverse(alpha, baseline, log_s)
        want = oracles.tilt_inverse_two_calls(alpha, baseline, log_s)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestEvaluationOverTheBox:
    """Properties over (m, n, theta, alpha) in [1e-2, 1e2]^4.

    At the quantiles of levels in [1e-12, 1 - 1e-12]:
    - log_pdf is finite or -inf, never +inf or NaN;
    - |cdf + sf - 1| <= 1e-14;
    - the baseline pass equals the public baseline functions bit for bit,
      also below the support, at its edge and at inf and NaN.
    """

    LEVELS = np.concatenate(
        [10.0 ** -np.arange(12.0, 0.0, -2.0), [0.5], 1.0 - 10.0 ** -np.arange(2.0, 13.0, 2.0)]
    )

    @pytest.mark.parametrize("baseline", ALL_BASELINES, ids=BASELINE_IDS)
    @given(shapes=SHAPE_BOX, level=st.floats(1e-12, 1.0 - 1e-12))
    def test_properties(self, baseline, shapes, level):
        d = dist(*shapes, baseline)
        with np.errstate(all="ignore"):
            t = d.quantile(np.append(self.LEVELS, level))
        log_f = d.log_pdf(t)
        assert not np.any(np.isnan(log_f) | (log_f == math.inf))
        assert np.max(np.abs(d.cdf(t) + d.sf(t) - 1.0)) <= 1e-14

        lo = baseline.support_low
        t = np.append(t, [lo - 1.0, lo, math.nextafter(lo, math.inf), math.inf, math.nan])
        log_g, log_sf, log_cdf = baseline.log_parts(t)
        np.testing.assert_array_equal(log_g, baseline.log_pdf(t))
        np.testing.assert_array_equal(log_sf, baseline.log_sf(t))
        np.testing.assert_array_equal(log_cdf, baseline.log_cdf(t))
        for got, want in zip(baseline.log_tails(t), (log_sf, log_cdf)):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("baseline", ALL_BASELINES, ids=BASELINE_IDS)
def test_the_hazard_of_the_pass_is_the_baseline_hrf(baseline):
    # log_parts(t, hazard=True) appends log hrf from the same pass, also
    # below the support, at its edge and at inf and NaN
    lo = baseline.support_low
    t = np.array([lo - 1.0, lo, math.nextafter(lo, math.inf), lo + 0.5, lo + 3.0, 1e300, math.inf, math.nan])
    *parts, log_h = baseline.log_parts(t, hazard=True)
    with np.errstate(over="ignore"):  # the Gompertz hazard overflows far out
        np.testing.assert_array_equal(np.exp(log_h), baseline.hrf(t))
    for got, want in zip(parts, baseline.log_parts(t)):
        np.testing.assert_array_equal(got, want)


def test_empty_arrays_evaluate_to_empty_arrays():
    # the passes test a reduction of h or log(1 - s) before masking; it must
    # have a value on no points
    d = dist(0.7, 2.5, 0.5, 2.5, Weibull(1.0, 2.0))
    for name in ("pdf", "log_pdf", "cdf", "sf", "log_sf", "hrf", "rhrf"):
        assert getattr(d, name)(np.array([])).shape == (0,), name
    for part in d.baseline.log_parts(np.array([])):
        assert part.shape == (0,)


@pytest.mark.parametrize(
    "name", ["log_pdf", "pdf", "cdf", "sf", "log_sf", "hrf", "rhrf", "chrf", "quantile"]
)
def test_a_scalar_point_gives_a_python_float(name):
    # the one scalar rule (``special._scalar_or_array``): a float exactly when the input has ndim 0
    fn = getattr(dist(0.7, 2.5, 0.5, 2.5, Weibull(1.0, 2.0)), name)
    points = (0.5,) if name == "quantile" else (0.5, -1.0, math.inf)
    for t in points:
        for point in (t, np.float64(t), np.array(t)):
            assert type(fn(point)) is float, point
    for shape in ((1,), (2, 3)):
        out = fn(np.full(shape, 0.5))
        assert isinstance(out, np.ndarray) and out.shape == shape


@pytest.mark.parametrize("shapes", SWEEP_SHAPES)
@pytest.mark.parametrize(
    "baseline", EACH_FAMILY,
    ids=lambda b: f"{b.tag}-{b.z.kind}" if isinstance(b, ExtendedWeibull) else b.tag,
)
def test_the_density_is_zero_exactly_where_the_baselines_is(baseline, shapes):
    # every family, the extended Weibull once per Z kind, at the eval sweep's shape sets:
    # f is 0 where g is, also where a power of a vanishing z or sf_G alone reads +inf
    # against log g = -inf (Frechet at m < 1 near t = 0 was NaN there)
    d = BgmoDistribution(BgmoParams(*shapes), baseline)
    edge = d.support_low
    ts = np.array([
        edge, math.nextafter(edge, math.inf), edge + 1e-300, 1e-160, edge + 1e-160, edge + 1e-10,
        edge + 1.0, edge + 100.0, 1e5, 1e100, 1e300, math.inf,
    ])
    for name in ("log_pdf", "pdf", "hrf"):
        fn = getattr(d, name)
        assert not np.isnan(fn(ts)).any(), name
        assert not any(math.isnan(fn(t)) for t in ts), name
    zero = baseline.log_pdf(ts) == -np.inf
    assert (d.log_pdf(ts)[zero] == -np.inf).all()
    assert (d.pdf(ts)[zero] == 0.0).all()


class TestOneBaselinePass:
    @pytest.mark.parametrize("name", ["log_pdf", "pdf", "cdf", "sf", "log_sf", "hrf", "rhrf"])
    def test_one_log_sf_per_call(self, monkeypatch, name):
        # the baseline log sf and log cdf come from one cumulative hazard, not from two
        calls = []
        hazard = Weibull._hazard

        def counted(self, t):
            calls.append(t)
            return hazard(self, t)

        monkeypatch.setattr(Weibull, "_hazard", counted)
        getattr(dist(0.7, 2.5, 0.5, 2.5, Weibull(1.0, 2.0)), name)(np.linspace(0.1, 3.0, 20))
        assert len(calls) == 1


class TestShapeMeasures:
    def test_bowley_exponential_closed_form(self):
        q = [-math.log(1 - p) for p in (0.25, 0.5, 0.75)]
        expected = (q[2] + q[0] - 2 * q[1]) / (q[2] - q[0])
        assert expected == pytest.approx(0.2619, abs=1e-4)
        assert dist(1, 1, 1, 1).bowley_skewness() == pytest.approx(expected, abs=1e-9)

    def test_moors_exponential_closed_form(self):
        e = [-math.log(1 - i / 8) for i in range(1, 8)]
        expected = (e[2] - e[0] + e[6] - e[4]) / (e[5] - e[1])
        assert expected == pytest.approx(1.30627, abs=1e-5)
        assert dist(1, 1, 1, 1).moors_kurtosis() == pytest.approx(expected, abs=1e-9)

    def test_degenerate_quartiles_and_octiles(self):
        # k = 1e17 puts every quantile on the location to double precision
        d = dist(1, 1, 1, 1, ExponentiatedPareto(1.0, 1e17, 1.0))
        with pytest.raises(ArithmeticError, match="degenerate quartiles"):
            d.bowley_skewness()
        with pytest.raises(ArithmeticError, match="degenerate octiles"):
            d.moors_kurtosis()

    def test_bowley_bounded(self):
        for params in [(0.5, 2, 1.5, 0.3), (3, 0.4, 0.6, 1.5)]:
            b = dist(*params, Weibull(1.0, 2.0)).bowley_skewness()
            assert -1.0 <= b <= 1.0


class TestReductionCheck:
    def test_all_unit_matches_plain_tilt(self):
        assert oracles.reduction_gap(dist(1, 1, 1, 1), "mo") < 1e-14

    def test_beta_layer_over_tilt(self):
        assert oracles.reduction_gap(dist(2, 3, 1, 2), "bmo") <= 1e-12

    def test_exponentiated_tilt(self):
        assert oracles.reduction_gap(dist(1, 1, 2, 3), "gmo") <= 1e-12

    def test_classical_beta_generated(self):
        assert oracles.reduction_gap(dist(2, 3, 1, 1, Weibull(1.0, 2.0)), "beta_g") <= 1e-12


class TestParams:
    def test_positivity(self):
        # each shape is positive and finite (``baselines._in_domain``), false at NaN
        for name in ("m", "n", "theta", "alpha"):
            for value in (-1.0, -0.0, 0.0, math.inf, math.nan, 5e-324, 0.7):
                shapes = {"m": 1.0, "n": 1.0, "theta": 1.0, "alpha": 1.0, name: value}
                if value in (5e-324, 0.7):
                    assert BgmoParams(**shapes).as_dict()[name] == value
                    continue
                with pytest.raises(ValueError, match=f"parameter {name} must be positive and finite, got {value}"):
                    BgmoParams(**shapes)

    def test_as_dict(self):
        p = BgmoParams(2, 3, 0.5, 1.5)
        assert p.as_dict() == {"m": 2, "n": 3, "theta": 0.5, "alpha": 1.5}
