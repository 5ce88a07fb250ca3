import itertools
import math

import mpmath
import numpy as np
import oracles
import pytest
from scipy.integrate import quad
from scipy.special import beta as scipy_beta
from test_gmo import ALL_BASELINES, BASELINE_IDS

from bgmo import series
from bgmo.baselines import (
    BASELINE_FAMILIES,
    Exponential,
    ExponentiatedPareto,
    ExtendedWeibull,
    Frechet,
    Gompertz,
    Lomax,
    ModifiedWeibull,
    Weibull,
    ZFunction,
)
from bgmo.family import BgmoDistribution, BgmoParams
from bgmo.series import (
    _LADDER,
    _RTOL,
    DivergenceError,
    _bailey_error,
    _support_quad,
    _alt_binom_row,
    _alt_binom_table,
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
# one baseline per family, the extended Weibull once per Z kind
EACH_FAMILY = [
    Exponential(1.3),
    Weibull(0.5, 2.0),
    Lomax(2.0, 1.5),
    Frechet(2.0, 1.2),
    Gompertz(0.4, 1.1),
    *(ExtendedWeibull(0.8, ZFunction(kind, k=0.25, beta=1.5))
      for kind in ("linear", "square", "log_ratio", "gompertz_link")),
    ModifiedWeibull(0.7, 0.8, 1.5),
    ExponentiatedPareto(0.8, 0.3, 0.5),
]


def dist(m, n, theta, alpha, baseline=EXP):
    return BgmoDistribution(BgmoParams(m, n, theta, alpha), baseline)


def ladder_walk(fn, baseline, *args):
    """The tanh-sinh ladder one level per integrand call: (integral, level it stopped at)."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    args = tuple(np.asarray(a)[..., None] for a in args)
    sums = []
    with np.errstate(all="ignore"):
        for k, (w, weight) in enumerate(_LADDER):
            t = np.concatenate((baseline.quantile(w), baseline.isf(w)))
            ratio = np.broadcast_to(fn(t, *args) / baseline.pdf(t), shape + t.shape)
            ratio = np.where(np.isfinite(ratio), ratio, 0.0)
            level = 2.0**-k * ((ratio[..., : w.size] + ratio[..., w.size :]) @ weight)
            sums.append(level if k == 0 else 0.5 * sums[-1] + level)
            if k >= 2 and np.all(_bailey_error(*sums[-3:]) <= _RTOL):
                return sums[-1], k
    raise AssertionError("the ladder walk did not converge")


class TestDeltaCoeffs:
    def test_binom_row_term_count(self):
        # a nonnegative integer exponent gives the finite expansion, any other
        # the capped series, negative integers included
        np.testing.assert_array_equal(_alt_binom_row(2.0, 10), [1.0, -2.0, 1.0])
        np.testing.assert_array_equal(_alt_binom_row(-1.0, 5), [1.0, 1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(
            _alt_binom_row(0.5, 4), [1.0, -0.5, -0.125, -0.0625], rtol=1e-15
        )

    @pytest.mark.parametrize(
        "call",
        [
            lambda d: series.expansion_coefficients(2.5, 1.3, 0.7, 0),
            lambda d: delta_coeffs(2.5, 1.3, 0.7, 0),
            lambda d: pdf_via_expansion(d, 1.0, "survival_powers", 0),
            lambda d: pdf_via_expansion(d, 1.0, "cdf_powers", 0),
            lambda d: cdf_via_expansion(d, 1.0, "cdf_powers", 0),
            lambda d: cdf_via_expansion(dist(2, 2, 0.7, 1.5), 1.0, "order_stat_identity", 0),
            lambda d: order_stat_pdf(d, 2, 3, 1.0, "series", 0),
            lambda d: moment_series(d, 1, 0),
            lambda d: order_stat_moment(d, 2, 3, 1, 0),
            lambda d: mgf_series(d, 0.5, 0),
            lambda d: renyi_entropy(d, 1.5, 0),
        ],
        ids=[
            "expansion_coefficients", "delta_coeffs", "pdf_survival_powers", "pdf_cdf_powers",
            "cdf_cdf_powers", "cdf_order_stat_identity", "order_stat_pdf", "moment_series",
            "order_stat_moment", "mgf_series", "renyi_entropy",
        ],
    )
    def test_max_terms_below_one_is_rejected(self, call):
        with pytest.raises(ValueError, match="max_terms must be at least 1"):
            call(dist(2.5, 1.3, 0.7, 1.5))

    @pytest.mark.parametrize(
        "shapes, name", [((math.inf, 1.3, 0.7), "m"), ((2.5, 0.0, 0.7), "n"), ((2.5, 1.3, math.nan), "theta")]
    )
    def test_delta_coeffs_shapes_are_positive_and_finite(self, shapes, name):
        with pytest.raises(ValueError, match=f"parameter {name} must be positive and finite"):
            delta_coeffs(*shapes)

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
        delta, delta_prime = delta_coeffs(3.5, 1.2, 0.8, 20)
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
        from bgmo.series import expansion_coefficients, _mo_log_parts

        co = expansion_coefficients(2, 2, 1.0, 60, r=2, sample_n=3)
        # delta has exactly m entries for integer m and obeys the sign relation
        assert len(co.delta) == 2
        j = np.arange(2)
        np.testing.assert_allclose(co.delta, -co.delta_prime * (j + 2.0), rtol=1e-13)
        assert co.psi is not None and co.xi is not None
        # the xi table reproduces the order-statistic series pointwise
        d = dist(2, 2, 1, 1)
        t = 0.9
        f_mo, _, c_mo = np.exp(_mo_log_parts(d.params.alpha, d.baseline, t))
        powers = c_mo ** np.arange(co.xi.shape[1])
        val = f_mo * sum(co.xi[l] @ (powers * c_mo**l) for l in range(co.xi.shape[0]))
        assert val == pytest.approx(order_stat_pdf(d, 2, 3, t, "series"), rel=1e-12)

    def test_psi_absent_for_real_shapes(self):
        from bgmo.series import expansion_coefficients

        co = expansion_coefficients(2.5, 2, 1.0)
        assert co.psi is None and co.xi is None


def _loop_phi(m, n, theta, L):
    delta, _ = delta_coeffs(m, n, theta, L)
    phi = np.zeros(L)
    for j, dj in enumerate(delta):
        row = oracles.binom_row(theta * (j + n) - 1.0, L)
        phi += dj * (-1.0) ** np.arange(L) * row
    return phi


def _loop_chi(m, n, theta, K):
    inv_beta = 1.0 / scipy_beta(m, n)
    chi = np.zeros(K)
    for i, binom_n_i in enumerate(oracles.binom_row(n - 1.0, K)):
        w_i = binom_n_i * inv_beta / (m + i) * (-1.0) ** i
        for j, binom_mi_j in enumerate(oracles.binom_row(m + i, 2 * K)):
            row = oracles.binom_row(theta * j, K)
            chi += w_i * (-1.0) ** (j + np.arange(K)) * binom_mi_j * row
    return chi


def _loop_psi(m, n, theta, R):
    top = m + n - 1
    psi = np.zeros(R)
    for p in range(m, top + 1):
        for q in range(p + 1):
            row = oracles.binom_row(theta * (top - p + q), R)
            w = (-1.0) ** q * math.comb(p, q) * math.comb(top, p)
            psi += w * (-1.0) ** np.arange(R) * row
    return psi


class TestTablesAgainstLoops:
    """The broadcast tables against term-by-term loops over scalar binomial rows."""

    @staticmethod
    def close(got, want):
        # the sums run over up to 60 x 120 terms of either sign
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))

    @pytest.mark.parametrize(
        "m,n,theta", [(2, 3, 2), (3, 2, 1), (2, 2, 0.7), (0.7, 2.5, 0.5), (1.5, 0.7, 1.3)]
    )
    def test_phi_and_chi(self, m, n, theta):
        from bgmo.series import _chi_coeffs, _phi_coeffs

        self.close(_phi_coeffs(m, n, theta, 60), _loop_phi(m, n, theta, 60))
        self.close(_chi_coeffs(m, n, theta, 60), _loop_chi(m, n, theta, 60))

    @pytest.mark.parametrize("m,n,theta", [(2, 3, 2), (3, 2, 1), (2, 2, 0.7), (1, 4, 1.5)])
    def test_psi(self, m, n, theta):
        from bgmo.series import _psi_cdf_coeffs

        self.close(_psi_cdf_coeffs(m, n, theta, 60), _loop_psi(m, n, theta, 60))


class TestBinomialRecurrence:
    """``_alt_binom_table``, the one recurrence behind every table, against mpmath."""

    @staticmethod
    def tables(m, n, theta, K=60):
        """(x, length) of the tables of phi, of chi (two) and, for integer shapes, of psi."""
        j = np.arange(len(_alt_binom_row(m - 1.0, K)))
        i = np.arange(len(_alt_binom_row(n - 1.0, K)))
        out = [(theta * (j + n) - 1.0, K), (m + i, 2 * K), (theta * np.arange(2 * K), K)]
        if isinstance(m, int) and isinstance(n, int):
            top = m + n - 1
            p = np.arange(m, top + 1)
            out += [(p, top + 1), ((theta * (top - p[:, None] + np.arange(top + 1))).ravel(), K)]
        return out

    @pytest.mark.parametrize("m,n,theta", [(0.7, 2.5, 0.5), (2, 3, 2)])
    def test_tables_against_mpmath(self, m, n, theta):
        # scipy's binom tables were off by up to 3.7e-14 here
        for x, length in self.tables(m, n, theta):
            got = _alt_binom_table(x, length)
            with mpmath.workdps(30):
                want = np.array(
                    [[float((-1) ** k * mpmath.binomial(xi, k)) for k in range(length)] for xi in x]
                )
            np.testing.assert_array_equal(got[want == 0.0], 0.0)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_rows_end_at_a_nonnegative_integer(self):
        x = np.array([0.0, 1.0, 3.0, 7.0, 20.0])
        table = _alt_binom_table(x, 30)
        for row, xi in zip(table, x.astype(int)):
            assert np.all(row[: xi + 1] != 0.0)
            np.testing.assert_array_equal(row[xi + 1 :], 0.0)

    def test_minus_one_is_all_ones(self):
        # (-1)^k C(-1, k) = 1; scipy's binom is NaN at negative integers
        np.testing.assert_array_equal(_alt_binom_table(-1.0, 5), np.ones(5))


@pytest.mark.parametrize("b", ALL_BASELINES, ids=BASELINE_IDS)
@pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5])
def test_the_plain_tilt_is_the_family_density_form_at_unit_shapes(b, alpha):
    # _log_pdf_core at m = n = theta = 1 gives log alpha + log g - 2 log D and the
    # log tails of log_tilt bit for bit, also where sf_G is 0 (there 0 * log sf_G is 0)
    edge = b.support_low
    ts = [edge - 1.0, edge, math.nextafter(edge, math.inf), edge + 0.5, 1e-300, 0.5, 3.0, 1e300, math.inf]
    for t in (*ts, np.array(ts)):
        got, want = series._mo_log_parts(alpha, b, t), oracles.mo_log_parts(alpha, b, t)
        for part, (g, w) in enumerate(zip(got, want)):
            assert np.all(g == w), (t, part)


class TestPdfExpansion:
    def test_integer_exact(self):
        d = dist(2, 1, 1, 1)
        ev = pdf_via_expansion(d, 1.0, "survival_powers")
        assert ev.converged
        assert ev.value == pytest.approx(d.pdf(1.0), abs=1e-12)
        # the tail is the measured gap to the exact pdf, in plain Python types
        assert ev.tail < 1e-15 and ev.tail == abs(ev.value - d.pdf(1.0))
        assert type(ev.value) is float and type(ev.tail) is float and type(ev.converged) is bool
        assert float(ev) == ev.value

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
            abs(pdf_via_expansion(d, t, "survival_powers", k).value - exact)
            for k in (5, 15, 60)
        ]
        assert errs[2] <= errs[1] <= errs[0]

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            pdf_via_expansion(dist(2, 1, 1, 1), 1.0, "powers_of_t")

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda d: cdf_via_expansion(d, 1.0, "powers_of_t"), "unknown cdf expansion form 'powers_of_t'"),
            (lambda d: order_stat_pdf(d, 1, 3, 1.0, method="exact"), "unknown order statistic method 'exact'"),
            (lambda d: renyi_entropy(d, 2.0, method="exact"), "unknown entropy method 'exact'"),
        ],
        ids=["cdf_form", "order_stat_method", "entropy_method"],
    )
    def test_an_unknown_form_or_method(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(dist(2, 1, 1, 1))


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


class TestMeasuredError:
    """``tail`` is the gap to the exact pdf/cdf, and ``converged`` its 1e-10 relative test."""

    def test_chi_residue_is_not_converged(self):
        # chi of (3, 2, 1) carries -4.4e-16 of rounding where F ~ 4 C^3 is 5e-25
        d = dist(3, 2, 1, 2)
        t = float(d.baseline.quantile(1e-8))
        ev = cdf_via_expansion(d, t)
        assert d.cdf(t) == pytest.approx(5e-25, rel=0.01, abs=0)
        assert ev.tail == abs(ev.value - d.cdf(t)) > 1e-10 * d.cdf(t)
        assert not ev.converged

    def test_truncated_real_shape_is_not_converged_in_the_lower_tail(self):
        # integer powers of C cannot follow F ~ C^2.5 once the series is cut at 60 terms
        d = dist(2.5, 1.3, 0.7, 1.5, Weibull(1.0, 2.0))
        t = float(d.baseline.quantile(1e-4))
        assert not cdf_via_expansion(d, t).converged
        for form in ("survival_powers", "cdf_powers"):
            ev = pdf_via_expansion(d, t, form)
            assert not ev.converged and ev.tail == abs(ev.value - d.pdf(t))

    def test_upper_tail_where_the_survival_underflows(self):
        # S^(theta n - 1) with a negative power times f_MO is formed in logs
        d = dist(2, 1, 0.3, 1)
        ev = pdf_via_expansion(d, 800.0)
        assert ev.converged and ev.value == pytest.approx(d.pdf(800.0), rel=1e-12, abs=0)

    def test_survival_powers_at_infinity(self):
        # log f_MO = -inf meets (theta n - 1) log S = +inf when theta n < 1
        d = dist(2, 1, 0.3, 1)
        for form in ("survival_powers", "cdf_powers"):
            ev = pdf_via_expansion(d, math.inf, form)
            assert ev.value == 0.0 and ev.converged and ev.tail == 0.0


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

    def test_direct_keeps_the_upper_tail(self):
        # 1 - cdf is 0 where the sf is below 1e-16; the sf keeps its digits
        shapes = (2, 3, 2, 2)
        d = dist(*shapes)
        for t in (20.0, 30.0, 40.0):
            with mpmath.workdps(50):
                tm = mpmath.mpf(t)
                pdf, _, _ = oracles.pdf_cdf_mp(*shapes, mpmath.exp(-tm), -mpmath.expm1(-tm))
                cdf, sf = oracles.cdf_sf_mp(*shapes, -t)
                assert sf <= 1e-16
                for r in (1, 2, 3):
                    want = math.comb(3, r) * r * pdf * cdf ** (r - 1) * mpmath.mpf(sf) ** (3 - r)
                    got = order_stat_pdf(d, r, 3, t, "direct")
                    assert got == pytest.approx(float(want), rel=1e-12, abs=0)
        assert order_stat_pdf(d, 1, 3, 40.0, "direct") == pytest.approx(6.137e-305, rel=1e-3, abs=0)

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

    @pytest.mark.parametrize(
        "fn,baseline,args",
        [
            (EXP.pdf, EXP, ()),
            (lambda t, k: t**k * EXP.pdf(t), EXP, (np.arange(4.0),)),
            (lambda t: t**-0.5 * np.exp(-t), EXP, ()),
            # the Lomax(3, 1) moment of order 2.8, as moment_direct integrates it
            (
                lambda t: np.exp(
                    np.where(t > 0, dist(1, 1, 1, 1, Lomax(3.0, 1.0)).log_pdf(t) + 2.8 * np.log(t), -np.inf)
                ),
                Lomax(3.0, 1.0),
                (),
            ),
        ],
        ids=["scalar", "array_argument", "endpoint_singularity", "lomax_moment_2.8"],
    )
    def test_batched_levels_equal_the_ladder_walk(self, monkeypatch, fn, baseline, args):
        # levels 0-3 in one call give the level sums of one call per level,
        # bit for bit, and stop at the same level
        want, stop = ladder_walk(fn, baseline, *args)
        estimates = []

        def counted(*sums):
            estimates.append(None)
            return _bailey_error(*sums)

        monkeypatch.setattr(series, "_bailey_error", counted)
        got = _support_quad(fn, baseline, *args)
        np.testing.assert_array_equal(got, want)
        assert len(estimates) + 1 == stop  # one estimate per level from level 2 on

    def test_each_family_and_tail_orientation_is_covered(self):
        assert {b.tag for b in EACH_FAMILY} == set(BASELINE_FAMILIES)
        assert {b._lower_tail for b in EACH_FAMILY} == {False, True}

    @pytest.mark.parametrize("baseline", EACH_FAMILY, ids=repr)
    def test_hoisted_hazard_levels_invert_as_invert_does(self, baseline):
        # the hazards stored at import give the t of _invert at the batch's
        # levels (w of G, then w and the tail probe of sf), bit for bit
        first = list(range(series._FIRST_LEVELS))
        groups = [first] + [[k] for k in range(series._FIRST_LEVELS, series._MAX_LEVEL + 1)]
        assert len(groups) == len(series._BATCHES)
        for (half, hazards, _), levels in zip(series._BATCHES, groups):
            w = np.concatenate([_LADDER[k][0] for k in levels])
            p = np.concatenate((w, w, series._TAIL_PROBE if levels == first else []))
            want = baseline._invert(p, np.arange(p.size) < w.size)
            assert half == w.size
            with np.errstate(all="ignore"):  # as in _support_quad; _invert sets its own
                got = baseline._inv_hazard(hazards[baseline._lower_tail])
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "sums, want",
        [
            ((1.0, 2.0, 2.0), 0.0),  # new equals old
            ((1.0, 2.0, 0.0), math.inf),  # a zero sum
            ((1.0, 2.0, math.nan), math.inf),
            ((1.0, math.nan, 2.0), math.inf),
            ((2.0, 1.0, 2.0), None),  # new equals older: d2 is -inf
            ((2.0, 3.0, 1.0), None),  # |new - older|/|new| is 1: d2 is 0
            ((11e-300, 1e300, 1e-300), None),  # 10^(d1^2/d2) overflows
            ((0.999, 0.99999, 0.9999999), None),
            ((1.0, 1.0 + 1e-9, 1.0 + 1e-9 + 1e-13), None),
        ],
    )
    def test_bailey_error_on_numbers_matches_its_array_form(self, sums, want):
        got = _bailey_error(*sums)
        with np.errstate(all="ignore"):  # as in _support_quad
            array = _bailey_error(*(np.array([s]) for s in sums))[0]
        assert isinstance(got, float)
        assert got == pytest.approx(array, rel=1e-14, abs=0)
        if want is not None:
            assert got == array == want

    def test_one_integrand_call_up_to_level_3(self, monkeypatch):
        sizes = []

        def fn(t):
            sizes.append(t.size)
            return EXP.pdf(t)

        assert _support_quad(fn, EXP) == pytest.approx(1.0, rel=1e-12)
        assert len(sizes) == 1
        # moment_direct's tail-decay probe rides along: 2 * 99 nodes and 2 probe points
        sizes.clear()
        log_pdf = BgmoDistribution.log_pdf

        def counted(self, t):
            sizes.append(np.size(t))
            return log_pdf(self, t)

        monkeypatch.setattr(BgmoDistribution, "log_pdf", counted)
        moment_direct(dist(0.7, 2.5, 0.5, 2.5, Weibull(1.0, 2.0)), 2.5)
        assert sizes == [2 * 99 + 2]

    @pytest.mark.parametrize(
        "call",
        [
            lambda: pwm_mo(1.0, Frechet(1.0, 1.0), 1, 0, 0),
            lambda: mgf(dist(1, 1, 1, 1), 1.5),
            lambda: moment_direct(dist(1, 1, 1, 1, Lomax(1.5, 1.0)), 2),
        ],
        ids=["pwm_frechet", "mgf_past_abscissa", "lomax_second_moment"],
    )
    def test_tail_probe_rejects_growing_contributions(self, call):
        with pytest.raises(DivergenceError, match="upper-tail contribution is not decaying"):
            call()

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
        # e^(s t) overflows in the Weibull(1, 2) tail long before the density decays
        with pytest.raises(DivergenceError, match="integrand not finite"):
            mgf(dist(1, 1, 1, 1, Weibull(1.0, 2.0)), 200.0)


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

    @pytest.mark.parametrize("shapes, baseline, a", [
        ((0.5, 2.5, 0.5, 2.5), EXP, "-1"),  # the direct integral diverges: f ~ t^(-1/2) at 0
        ((0.5, 2.5, 0.5, 2.5), Weibull(1.0, 2.0), "-1"),  # direct 0.4644; the series gave 0.7259
        ((1e-3, 1e-3, 1.0, 1.0), Lomax(2.0, 1.0), "-1.998"),  # the series gave 10.37
    ])
    def test_series_raises_where_its_binomial_row_does_not_decay(self, shapes, baseline, a):
        # (1 - S^theta)^a with a = delta (m - 1) <= -1: no |C(a, j)| is below 1, so 60
        # terms have no error bound
        with pytest.raises(DivergenceError, match=rf"a = {a}, does not decay"):
            renyi_entropy(dist(*shapes, baseline), 2.0)

    def test_series_raises_on_a_non_positive_sum(self):
        # two terms of a = 18.5: 1 - 18.5 S^theta weights, a sum below 0
        with pytest.raises(DivergenceError, match="non-positive integral sum"):
            renyi_entropy(dist(10.25, 1, 1, 1), 2.0, max_terms=2)


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

    def test_upper_hazard_is_theta_n_times_the_baseline_hazard(self):
        # no two logs of size h are subtracted: at t = 1e300 the hazard is theta n lam
        ap = asymptote(dist(0.7, 2.5, 0.5, 2.5, Exponential(1.3)), "upper")
        assert ap.hrf(1e300) == 1.25 * 1.3
        b = Weibull(1.0, 2.0)
        ap = asymptote(dist(0.7, 2.5, 0.5, 2.5, b), "upper")
        ts = np.array([1.0, 1e5, 1e300, math.inf])
        np.testing.assert_array_equal(ap.hrf(ts), 1.25 * b.hrf(ts))
        assert ap.hrf(1e5) == pytest.approx(2.5e5, rel=1e-14)
        assert ap.hrf(1e300) == pytest.approx(2.5e300, rel=1e-12)

    @pytest.mark.parametrize("shapes, baseline, end, t", [
        ((0.7, 2.5, 0.5, 2.5), Frechet(2.0, 1.0), "lower", 1e-160),
        ((1.0, 1.0, 1.0, 2.5), Weibull(1.0, 2.0), "upper", 1e300),
    ])
    def test_the_densities_are_zero_where_the_baselines_is(self, shapes, baseline, end, t):
        # the baseline density is 0 there, and a vanishing power read +inf or 0 * -inf against it
        assert baseline.pdf(t) == 0.0
        pdf = asymptote(dist(*shapes, baseline), end).pdf
        assert pdf(t) == 0.0
        assert pdf(np.array([t]))[0] == 0.0
