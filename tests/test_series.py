import itertools
import math

import numpy as np
import oracles
import pytest
from scipy.integrate import quad
from scipy.special import beta as scipy_beta
from test_gmo import ALL_BASELINES, BASELINE_IDS

from bgmo.baselines import Exponential, Frechet, Lomax, Weibull
from bgmo.family import BgmoDistribution, BgmoParams
from bgmo.series import (
    DivergenceError,
    _support_quad,
    TruncationPolicy,
    _binom_row,
    asymptote,
    cdf_via_expansion,
    delta_coeffs,
    mgf,
    mgf_series,
    moment_direct,
    moment_series,
    order_stat_moment,
    order_stat_pdf,
    pdf_via_expansion,
    pwm_mo,
    renyi_entropy,
)

EXP = Exponential(1.0)


def dist(m, n, theta, alpha, baseline=EXP):
    return BgmoDistribution(BgmoParams(m, n, theta, alpha), baseline)


class TestDeltaCoeffs:
    def test_binom_row_term_count(self):
        # a nonnegative integer exponent gives the finite expansion, any other
        # the capped series, negative integers included
        np.testing.assert_array_equal(_binom_row(2.0, 10), [1.0, 2.0, 1.0])
        np.testing.assert_array_equal(_binom_row(-1.0, 5), [1.0, -1.0, 1.0, -1.0, 1.0])
        np.testing.assert_allclose(_binom_row(0.5, 4), [1.0, 0.5, -0.125, 0.0625], rtol=1e-15)

    def test_single_term_for_m_one(self):
        delta, _ = delta_coeffs(1.0, 3.0, 2.0)
        assert len(delta) == 1
        assert delta[0] == pytest.approx(2.0 * 3.0, rel=1e-14)  # theta / B(1, n) = theta*n

    def test_hand_evaluated_m3(self):
        delta, _ = delta_coeffs(3.0, 1.0, 1.0)
        np.testing.assert_allclose(delta, [3.0, -6.0, 3.0], atol=1e-12)

    @pytest.mark.parametrize("m,n,theta", [(2, 1, 1), (3, 2, 0.7), (4, 1.5, 2.0)])
    def test_weights_sum_to_one(self, m, n, theta):
        # integrating the survival-power expansion termwise gives
        # sum_j delta_j / (theta (j+n)) = 1 for integer m
        delta, _ = delta_coeffs(m, n, theta)
        total = sum(d / (theta * (j + n)) for j, d in enumerate(delta))
        assert total == pytest.approx(1.0, rel=1e-12)

    def test_sign_relation(self):
        delta, delta_prime = delta_coeffs(3.5, 1.2, 0.8, TruncationPolicy(max_terms=20))
        j = np.arange(len(delta))
        np.testing.assert_allclose(delta, -delta_prime * 0.8 * (j + 1.2), rtol=1e-13)

    def test_termwise_integration_oracle(self):
        # each expansion term integrates to delta_j/(theta(j+n)) by quadrature
        m, n, theta, alpha = 2, 1.0, 1.0, 1.0
        d = dist(m, n, theta, alpha)
        delta, _ = delta_coeffs(m, n, theta)
        total = 0.0
        for j, dj in enumerate(delta):
            expo = theta * (j + n) - 1.0
            term, _ = quad(lambda t, e=expo: math.exp(-t) * math.exp(-t) ** e, 0, 60)
            total += dj * term
        assert total == pytest.approx(1.0, abs=1e-8)


class TestExpansionCoeffs:
    def test_bundle_tables(self):
        from bgmo.series import expansion_coefficients, _mo_parts

        co = expansion_coefficients(2, 2, 1.0, TruncationPolicy(), r=2, sample_n=3)
        # delta has exactly m entries for integer m and obeys the sign relation
        assert len(co.delta) == 2
        j = np.arange(2)
        np.testing.assert_allclose(co.delta, -co.delta_prime * (j + 2.0), rtol=1e-13)
        assert co.psi is not None and co.xi is not None
        # the xi table reproduces the order-statistic series pointwise
        d = dist(2, 2, 1, 1)
        t = 0.9
        f_mo, _, c_mo = _mo_parts(d, t)
        powers = c_mo ** np.arange(co.xi.shape[1])
        val = f_mo * sum(co.xi[l] @ (powers * c_mo**l) for l in range(co.xi.shape[0]))
        assert val == pytest.approx(order_stat_pdf(d, 2, 3, t, "series"), rel=1e-12)

    def test_psi_absent_for_real_shapes(self):
        from bgmo.series import expansion_coefficients

        co = expansion_coefficients(2.5, 2, 1.0)
        assert co.psi is None and co.xi is None


def _loop_phi(m, n, theta, L):
    delta, _ = delta_coeffs(m, n, theta, TruncationPolicy(max_terms=L))
    phi = np.zeros(L)
    for j, dj in enumerate(delta):
        row = _binom_row(theta * (j + n) - 1.0, L)[:L]
        phi[: len(row)] += dj * (-1.0) ** np.arange(len(row)) * row
    return phi


def _loop_chi(m, n, theta, K):
    inv_beta = 1.0 / scipy_beta(m, n)
    chi = np.zeros(K)
    for i, binom_n_i in enumerate(_binom_row(n - 1.0, K)):
        w_i = binom_n_i * inv_beta / (m + i) * (-1.0) ** i
        for j, binom_mi_j in enumerate(_binom_row(m + i, 2 * K)):
            row = _binom_row(theta * j, K)[:K]
            chi[: len(row)] += w_i * (-1.0) ** (j + np.arange(len(row))) * binom_mi_j * row
    return chi


def _loop_psi(m, n, theta, R):
    top = m + n - 1
    psi = np.zeros(R)
    for p in range(m, top + 1):
        for q in range(p + 1):
            row = _binom_row(theta * (top - p + q), R)[:R]
            w = (-1.0) ** q * math.comb(p, q) * math.comb(top, p)
            psi[: len(row)] += w * (-1.0) ** np.arange(len(row)) * row
    return psi


class TestTablesAgainstLoops:
    """The broadcast scipy tables against term-by-term recurrence loops."""

    POLICY = TruncationPolicy()

    @staticmethod
    def close(got, want):
        # the sums run over up to 60 x 120 terms of either sign
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))

    @pytest.mark.parametrize(
        "m,n,theta", [(2, 3, 2), (3, 2, 1), (2, 2, 0.7), (0.7, 2.5, 0.5), (1.5, 0.7, 1.3)]
    )
    def test_phi_and_chi(self, m, n, theta):
        from bgmo.series import _chi_coeffs, _phi_coeffs

        self.close(_phi_coeffs(m, n, theta, self.POLICY), _loop_phi(m, n, theta, 60))
        self.close(_chi_coeffs(m, n, theta, self.POLICY), _loop_chi(m, n, theta, 60))

    @pytest.mark.parametrize("m,n,theta", [(2, 3, 2), (3, 2, 1), (2, 2, 0.7), (1, 4, 1.5)])
    def test_psi(self, m, n, theta):
        from bgmo.series import _psi_cdf_coeffs

        self.close(_psi_cdf_coeffs(m, n, theta, self.POLICY), _loop_psi(m, n, theta, 60))


class TestPdfExpansion:
    def test_integer_exact(self):
        d = dist(2, 1, 1, 1)
        ev = pdf_via_expansion(d, 1.0, "survival_powers")
        assert ev.converged
        assert ev.value == pytest.approx(d.pdf(1.0), abs=1e-12)

    def test_noninteger_near_direct(self):
        d = dist(2.5, 1.3, 0.7, 1.5, Weibull(1.0, 2.0))
        t = float(d.quantile(0.5))
        ev = pdf_via_expansion(d, t, "survival_powers")
        assert ev.value == pytest.approx(d.pdf(t), abs=1e-6)

    def test_forms_agree_integer(self):
        d = dist(2, 2, 1, 1.5)
        for u in (0.2, 0.5, 0.8):
            t = float(d.quantile(u))
            a = pdf_via_expansion(d, t, "survival_powers").value
            b = pdf_via_expansion(d, t, "cdf_powers").value
            assert a == pytest.approx(b, abs=1e-8)

    def test_error_shrinks_with_more_terms(self):
        d = dist(2.5, 1.3, 0.7, 1.5)
        t = float(d.quantile(0.6))
        exact = d.pdf(t)
        errs = [
            abs(pdf_via_expansion(d, t, "survival_powers", TruncationPolicy(max_terms=k)).value - exact)
            for k in (5, 15, 60)
        ]
        assert errs[2] <= errs[1] <= errs[0]

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            pdf_via_expansion(dist(2, 1, 1, 1), 1.0, "powers_of_t")


class TestCdfExpansion:
    def test_unit_shapes_reduce_to_tilted_cdf(self):
        d = dist(1, 1, 2, 3)
        for t in (0.3, 1.0, 2.5):
            ev = cdf_via_expansion(d, t, "cdf_powers")
            assert ev.value == pytest.approx(d.cdf(t), abs=1e-8)

    def test_integer_identity_form(self):
        d = dist(2, 2, 1, 1)
        for t in (0.5, 1.5):
            ev = cdf_via_expansion(d, t, "order_stat_identity")
            assert ev.value == pytest.approx(d.cdf(t), abs=1e-10)

    def test_support_edge_is_zero(self):
        d = dist(2, 2, 1, 1)
        assert cdf_via_expansion(d, 0.0, "cdf_powers").value == pytest.approx(0.0, abs=1e-14)
        assert cdf_via_expansion(d, 0.0, "order_stat_identity").value == pytest.approx(0.0, abs=1e-14)

    def test_identity_form_requires_integer_shapes(self):
        with pytest.raises(ValueError):
            cdf_via_expansion(dist(2.5, 2, 1, 1), 1.0, "order_stat_identity")

    def test_relative_precision_in_lower_tail(self):
        # C = 1 - S comes from the baseline cdf, not from 1 - S, so the powers
        # of C keep their relative precision where the baseline cdf is tiny
        d = dist(2, 3, 1.5, 0.7, Weibull(1.0, 2.0))
        for level in (1e-4, 1e-8, 1e-12):
            t = float(d.baseline.quantile(level))
            cdf = cdf_via_expansion(d, t).value
            pdf = pdf_via_expansion(d, t, "cdf_powers").value
            assert cdf == pytest.approx(d.cdf(t), rel=1e-12, abs=0)
            assert pdf == pytest.approx(d.pdf(t), rel=1e-12, abs=0)


class TestOrderStatPdf:
    def test_single_observation(self):
        d = dist(2, 2, 1, 1)
        assert order_stat_pdf(d, 1, 1, 1.0, "direct") == pytest.approx(d.pdf(1.0), rel=1e-13)
        assert order_stat_pdf(d, 1, 1, 1.0, "series") == pytest.approx(d.pdf(1.0), abs=1e-9)

    def test_minimum_of_two(self):
        d = dist(2, 2, 1, 1.5)
        t = 0.8
        expected = 2.0 * d.pdf(t) * (1.0 - d.cdf(t))
        assert order_stat_pdf(d, 1, 2, t, "direct") == pytest.approx(expected, rel=1e-12)

    def test_series_matches_direct(self):
        d = dist(2, 2, 1, 1)
        for u in (0.1, 0.3, 0.5, 0.7, 0.9):
            t = float(d.quantile(u))
            a = order_stat_pdf(d, 2, 3, t, "series")
            b = order_stat_pdf(d, 2, 3, t, "direct")
            assert a == pytest.approx(b, abs=1e-6)

    def test_mixture_identity(self):
        # averaging the order statistics recovers the parent density
        d = dist(2, 1, 1, 2)
        N = 3
        for t in (0.4, 1.1, 2.3):
            mix = sum(order_stat_pdf(d, r, N, t, "direct") for r in range(1, N + 1)) / N
            assert mix == pytest.approx(d.pdf(t), abs=1e-10)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            order_stat_pdf(dist(1, 1, 1, 1), 0, 3, 1.0)
        with pytest.raises(ValueError):
            order_stat_pdf(dist(1, 1, 1, 1), 4, 3, 1.0)


class TestSupportQuad:
    def test_array_argument_gives_one_integral_per_element(self):
        # int t^k e^-t dt = k!
        k = np.arange(4.0)
        got = _support_quad(lambda t, k: t**k * EXP.pdf(t), EXP, k)
        np.testing.assert_allclose(got, [1.0, 1.0, 2.0, 6.0], rtol=1e-12)

    def test_scalar_integrand_returns_float(self):
        value = _support_quad(EXP.pdf, EXP)
        assert isinstance(value, float)
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_non_convergence_raises(self):
        # f ~ t^(-1/2) at 0 for m = 1/2, so f^2 is not integrable there
        with pytest.raises(DivergenceError, match="status"):
            renyi_entropy(dist(0.5, 2.5, 0.5, 2.5), 2.0, method="direct")

    def test_divergence_names_level_estimate_and_zeroed_values(self):
        message = r"after level 8\): relative error estimate .*, 0 non-finite"
        with pytest.raises(DivergenceError, match=message):
            renyi_entropy(dist(0.5, 2.5, 0.5, 2.5), 2.0, method="direct")

    @pytest.mark.parametrize(
        "baseline", [EXP, Weibull(1.0, 2.0), Lomax(2.0, 1.0), Frechet(2.0, 1.0)], ids=lambda b: b.tag
    )
    def test_matches_scipy_tanhsinh_on_the_c05_grid(self, baseline):
        for shapes in itertools.product((0.5, 1.0, 2.5), repeat=4):
            d = dist(*shapes, baseline)
            want = oracles.tanhsinh_support_quad(d.pdf, baseline)
            assert _support_quad(d.pdf, baseline) == pytest.approx(want, rel=1e-12), shapes

    @pytest.mark.parametrize("baseline", ALL_BASELINES, ids=BASELINE_IDS)
    def test_matches_scipy_tanhsinh_with_array_arguments(self, baseline):
        # E[F^q] = 1/(q + 1): array args share the nodes, one integral each;
        # n < 1 makes the integrand singular at the upper end
        d = dist(2.0, 0.7, 1.5, 0.5, baseline)
        q = np.array([0.0, 0.5, 2.0])

        def fn(t, q):
            return d.pdf(t) * d.cdf(t) ** q

        got = _support_quad(fn, baseline, q)
        np.testing.assert_allclose(got, oracles.tanhsinh_support_quad(fn, baseline, q), rtol=1e-12)
        np.testing.assert_allclose(got, 1.0 / (q + 1.0), rtol=1e-12)

    def test_endpoint_singularities(self):
        # int t^(-1/2) e^(-t) dt = sqrt(pi): v^(-1/2) at the lower end
        got = _support_quad(lambda t: t**-0.5 * np.exp(-t), EXP)
        assert got == pytest.approx(math.sqrt(math.pi), rel=1e-13)
        # Lomax(3, 1) moment of order 2.8 < 3: v^(-0.93) at the upper end
        want = math.gamma(3.8) * math.gamma(0.2) / math.gamma(3.0)
        assert moment_direct(dist(1, 1, 1, 1, Lomax(3.0, 1.0)), 2.8) == pytest.approx(want, rel=1e-13)

    def test_series_shares_nodes_across_terms(self, monkeypatch):
        # the 60 terms of the series read the baseline once per node, not once per term
        d = dist(0.7, 2.5, 0.5, 2.5, Weibull(1.0, 2.0))
        points = []
        hazard = Weibull._hazard

        def counted(self, t):
            points.append(np.size(t))
            return hazard(self, t)

        monkeypatch.setattr(Weibull, "_hazard", counted)
        moment_direct(d, 2)
        scalar = sum(points)
        points.clear()
        moment_series(d, 2)
        assert sum(points) <= 2 * scalar


class TestPwm:
    def test_total_mass(self):
        assert pwm_mo(1.0, EXP, 0, 0, 0) == pytest.approx(1.0, abs=1e-9)

    def test_untilted_mean(self):
        assert pwm_mo(1.0, EXP, 1, 0, 0) == pytest.approx(1.0, abs=1e-8)

    def test_probability_integral_transform(self):
        # E[survival] = 1/2 under any tilt
        assert pwm_mo(2.0, EXP, 0, 0, 1) == pytest.approx(0.5, abs=1e-9)

    def test_order_domain(self):
        # E[S^r] = 1/(r + 1) under any tilt, finite for every r > -1
        assert pwm_mo(2.0, EXP, 0, 0, -0.5) == pytest.approx(2.0, rel=1e-8)
        for p, q, r in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
            with pytest.raises(ValueError):
                pwm_mo(1.0, EXP, p, q, r)

    @pytest.mark.parametrize(
        "baseline", [EXP, Weibull(1.0, 2.0), Lomax(3.0, 1.0)], ids=lambda b: b.tag
    )
    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    @pytest.mark.parametrize("q", [-0.5, -0.9])
    def test_negative_cdf_order(self, baseline, alpha, q):
        # E[F^q] = 1/(q + 1) under any tilt; C^q diverges at the lower end,
        # where C = 1 - S must come from the baseline cdf, not from 1 - S
        assert pwm_mo(alpha, baseline, 0, q, 0) == pytest.approx(1.0 / (1.0 + q), rel=1e-12)

    def test_heavy_tail_divergence(self):
        with pytest.raises(DivergenceError):
            pwm_mo(1.0, Frechet(1.0, 1.0), 1, 0, 0)


class TestMoments:
    def test_reduction_first_two_moments(self):
        r = dist(1, 1, 1, 1)
        assert moment_series(r, 1) == pytest.approx(1.0, rel=1e-8)
        assert moment_series(r, 2) == pytest.approx(2.0, rel=1e-8)

    def test_max_of_two_exponentials(self):
        # beta(2,1) layer = distribution of the larger of two draws
        d = dist(2, 1, 1, 1)
        assert moment_series(d, 1) == pytest.approx(1.5, rel=1e-9)
        assert moment_direct(d, 1) == pytest.approx(1.5, rel=1e-7)

    @pytest.mark.parametrize(
        "params,baseline",
        [
            ((2, 1, 1, 1), EXP),
            ((3, 2, 1, 2), EXP),
            ((2, 1.5, 0.8, 2.0), Weibull(1.0, 2.0)),
            ((1, 2, 2, 0.5), Weibull(1.0, 2.0)),
        ],
    )
    def test_series_matches_quadrature(self, params, baseline):
        d = dist(*params, baseline)
        for s in (1, 2):
            series = moment_series(d, s)
            direct = moment_direct(d, s)
            assert series == pytest.approx(direct, rel=1e-5)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            moment_series(dist(1, 1, 1, 1), 0)

    def test_theta_n_below_one(self):
        # the series' PWMs have survival power theta*(j + n) - 1 > -1, negative
        # when theta*n < 1; the integrals are finite there
        d = dist(2, 0.5, 1, 1, Weibull(1.0, 2.0))
        assert moment_series(d, 2) == pytest.approx(8.0 / 3.0, rel=1e-9)
        d = dist(1.5, 0.7, 1.3, 0.6)
        assert moment_series(d, 2) == pytest.approx(moment_direct(d, 2), rel=1e-6)


class TestOrderStatMoments:
    def test_single_draw_equals_plain_moment(self):
        d = dist(2, 1, 1, 1)
        assert order_stat_moment(d, 1, 1, 1) == pytest.approx(moment_series(d, 1), rel=1e-8)

    def test_min_max_of_two_exponentials(self):
        r = dist(1, 1, 1, 1)
        assert order_stat_moment(r, 1, 2, 1) == pytest.approx(0.5, rel=1e-8)
        assert order_stat_moment(r, 2, 2, 1) == pytest.approx(1.5, rel=1e-8)

    def test_max_against_quadrature(self):
        d = dist(2, 1, 1, 2)
        series = order_stat_moment(d, 2, 2, 1)

        def integrand(t):
            return t * order_stat_pdf(d, 2, 2, t, "direct")

        direct, _ = quad(integrand, 0, 80, limit=200)
        assert series == pytest.approx(direct, rel=1e-6)

    @pytest.mark.parametrize(
        "params,baseline,tol",
        [((2, 3, 2, 2), EXP, 1e-6), ((1, 3, 2, 3), Frechet(3.0, 1.0), 1e-8)],
    )
    def test_middle_of_three_against_quadrature(self, params, baseline, tol):
        # the order-statistic weights alternate and reach 1e8 here, so the
        # PWMs must be accurate far beyond the tolerance
        d = dist(*params, baseline)

        def integrand(t):
            return t * order_stat_pdf(d, 2, 3, t, "direct")

        direct = sum(
            quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            for a, b in ((0.0, 1.0), (1.0, np.inf))
        )
        assert order_stat_moment(d, 2, 3, 1) == pytest.approx(direct, rel=tol)


class TestMgf:
    def test_at_zero(self):
        assert mgf(dist(1, 1, 1, 1), 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_exponential_closed_form(self):
        assert mgf(dist(1, 1, 1, 1), 0.5) == pytest.approx(2.0, rel=1e-8)

    def test_derivative_matches_mean(self):
        d = dist(2, 1, 1, 1)
        h = 1e-4
        deriv = (mgf(d, h) - mgf(d, -h)) / (2 * h)
        assert deriv == pytest.approx(moment_series(d, 1), abs=1e-4)

    def test_series_decomposition_integer_m(self):
        d = dist(2, 1, 1, 1.5)
        assert mgf_series(d, 0.3) == pytest.approx(mgf(d, 0.3), rel=1e-8)

    def test_divergence_beyond_abscissa(self):
        with pytest.raises(DivergenceError):
            mgf(dist(1, 1, 1, 1), 1.5)


class TestRenyi:
    def test_exponential_closed_form(self):
        # reduction: entropy = -ln(lambda) + ln(delta)/(delta - 1)
        r = dist(1, 1, 1, 1)
        assert renyi_entropy(r, 2.0) == pytest.approx(math.log(2), abs=1e-8)
        assert renyi_entropy(r, 0.5) == pytest.approx(2 * math.log(2), abs=1e-8)

    def test_series_matches_direct(self):
        d = dist(2, 1.5, 0.8, 2.0, Weibull(1.0, 2.0))
        a = renyi_entropy(d, 2.0, method="series")
        b = renyi_entropy(d, 2.0, method="direct")
        assert a == pytest.approx(b, abs=1e-6)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            renyi_entropy(dist(1, 1, 1, 1), 1.0)


class TestAsymptotes:
    STD = (2.0, 1.5, 0.8, 2.0)

    def test_upper_tail_ratios(self):
        d = dist(*self.STD)
        ap = asymptote(d, "upper")
        t = float(d.baseline.quantile(0.999))
        assert d.pdf(t) / ap.pdf(t) == pytest.approx(1.0, abs=0.02)
        assert d.sf(t) / ap.tail_prob(t) == pytest.approx(1.0, abs=0.02)
        assert d.hrf(t) / ap.hrf(t) == pytest.approx(1.0, abs=0.02)

    def test_lower_tail_ratios(self):
        d = dist(*self.STD)
        ap = asymptote(d, "lower")
        t = float(d.baseline.quantile(0.001))
        assert d.pdf(t) / ap.pdf(t) == pytest.approx(1.0, abs=0.02)
        assert d.cdf(t) / ap.tail_prob(t) == pytest.approx(1.0, abs=0.02)
        assert d.hrf(t) / ap.hrf(t) == pytest.approx(1.0, abs=0.02)

    def test_ratios_approach_one_monotonically(self):
        d = dist(*self.STD)
        up = asymptote(d, "upper")
        levels = [1 - 10.0**-k for k in range(3, 8)]
        gaps = [abs(d.pdf(t := float(d.baseline.quantile(u))) / up.pdf(t) - 1.0) for u in levels]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(gaps, gaps[1:]))
        low = asymptote(d, "lower")
        levels = [10.0**-k for k in range(3, 8)]
        gaps = [abs(d.cdf(t := float(d.baseline.quantile(u))) / low.tail_prob(t) - 1.0) for u in levels]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(gaps, gaps[1:]))

    def test_lower_tail_beyond_baseline_cdf_underflow(self):
        # the baseline cdf exp(-1111.1) underflows, its log does not
        d = dist(0.1, 1, 1, 1, Frechet(2.0, 1.0))
        ap = asymptote(d, "lower")
        t = 0.03
        log_g = d.baseline.log_cdf(t)
        assert log_g == pytest.approx(-1 / t**2, rel=1e-14)
        assert ap.pdf(t) == pytest.approx(d.pdf(t), rel=1e-9)
        # F ~ G^m / (m B(m, 1)) = G^m
        assert ap.tail_prob(t) == pytest.approx(math.exp(0.1 * log_g), rel=1e-12)

    def test_end_validation(self):
        with pytest.raises(ValueError):
            asymptote(dist(1, 1, 1, 1), "middle")
