"""Pins the benchmark's reference module to closed forms.

Run with ``python3 -m pytest benchmark/test_reference.py``.
"""

import math

import numpy as np
import pytest
from scipy import stats

from reference import Case, info_criteria, weibull_mle

T = np.array([0.05, 0.3, 1.0, 2.5, 6.0])


@pytest.mark.parametrize(
    "baseline, base, sf, cdf",
    [
        ("exponential", (1.3,), lambda t: np.exp(-1.3 * t), lambda t: -np.expm1(-1.3 * t)),
        ("weibull", (0.7, 1.8),
         lambda t: np.exp(-0.7 * t**1.8), lambda t: -np.expm1(-0.7 * t**1.8)),
        ("lomax", (3.0, 1.5),
         lambda t: (1.0 + t / 1.5) ** -3.0, lambda t: -np.expm1(-3.0 * np.log1p(t / 1.5))),
        ("frechet", (3.0, 1.2),
         lambda t: -np.expm1(-((1.2 / t) ** 3.0)), lambda t: np.exp(-((1.2 / t) ** 3.0))),
    ],
)
def test_unit_shapes_give_the_baseline(baseline, base, sf, cdf):
    case = Case(baseline, base, 1.0, 1.0, 1.0, 1.0)
    np.testing.assert_allclose(case.cdf(T), cdf(T), rtol=1e-12)
    np.testing.assert_allclose(case.sf(T), sf(T), rtol=1e-12)
    # the baseline density by central differences of whichever of cdf and sf is small
    h = 1e-6 * T
    pdf = np.where(cdf(T) < 0.5, cdf(T + h) - cdf(T - h), sf(T - h) - sf(T + h)) / (2 * h)
    np.testing.assert_allclose(case.pdf(T), pdf, rtol=1e-6, atol=1e-300)


def test_exponential_renyi_entropy_of_order_two_is_log_2():
    assert Case("exponential", (1.0,), 1.0, 1.0, 1.0, 1.0).renyi_entropy(2.0) == pytest.approx(
        math.log(2.0), rel=1e-12
    )


def test_weibull_mean():
    lam, beta = 2.0, 1.5
    case = Case("weibull", (lam, beta), 1.0, 1.0, 1.0, 1.0)
    assert case.moment(1) == pytest.approx(math.gamma(1 + 1 / beta) * lam ** (-1 / beta), rel=1e-12)


def test_quantile_inverts_the_cdf_in_both_tails():
    case = Case("weibull", (1.0, 2.0), 0.7, 2.5, 0.5, 2.5)
    u = np.array([1e-12, 1e-6, 0.3, 0.9, 1 - 1e-9])
    t = case.quantile(u)
    np.testing.assert_allclose(case.cdf(t[:3]), u[:3], rtol=1e-10)
    np.testing.assert_allclose(case.sf(t[3:]), 1.0 - u[3:], rtol=1e-6)
    q = np.array([1e-3, 1e-9, 1e-15])
    np.testing.assert_allclose(case.sf(case.isf(q)), q, rtol=1e-10)


def test_order_statistic_of_one_draw_is_the_variable():
    case = Case("lomax", (3.0, 1.0), 2.0, 1.5, 0.8, 2.0)
    assert case.order_stat_moment(1, 1, 1) == pytest.approx(case.moment(1), rel=1e-9)


def test_weibull_mle_matches_scipy_parameterisation():
    data = stats.weibull_min.rvs(2.0, scale=3.0, size=200, random_state=1)
    lam, beta, log_l = weibull_mle(data)
    case = Case("weibull", (lam, beta), 1.0, 1.0, 1.0, 1.0)
    assert float(np.sum(case.log_pdf(data))) == pytest.approx(log_l, rel=1e-12)


def test_info_criteria_formulas():
    crit = info_criteria(-10.0, 2, 50)
    assert crit["aic"] == 24.0
    assert crit["bic"] == pytest.approx(20.0 + 2 * math.log(50))
    assert crit["caic"] == pytest.approx(24.0 + 12.0 / 47.0)
    assert crit["hqic"] == pytest.approx(20.0 + 4 * math.log(math.log(50)))
