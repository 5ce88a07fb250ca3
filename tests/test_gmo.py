import math

import numpy as np
import pytest
from scipy.integrate import quad

from bgmo.baselines import (
    Exponential,
    ExponentiatedPareto,
    ExtendedWeibull,
    Frechet,
    Gompertz,
    Lomax,
    ModifiedWeibull,
    Weibull,
)
from bgmo.gmo import (
    GmoParams,
    gmo_cdf,
    gmo_chrf,
    gmo_hrf,
    gmo_pdf,
    gmo_quantile,
    gmo_rhrf,
    gmo_sf,
    mo_pdf,
)

# Plain tilt (theta = 1), coded independently for cross-checks.


def mo_sf(alpha, b, t):
    gbar = b.sf(t)
    return alpha * gbar / (1.0 - (1.0 - alpha) * gbar)


def mo_cdf(alpha, b, t):
    gbar = b.sf(t)
    return b.cdf(t) / (1.0 - (1.0 - alpha) * gbar)


ALL_BASELINES = [
    Exponential(1.0),
    Weibull(1.0, 2.0),
    Lomax(2.0, 1.0),
    Frechet(2.0, 1.0),
    Gompertz(0.7, 0.9),
    ExtendedWeibull(1.2),
    ModifiedWeibull(0.5, 0.8, 2.0),
    ExponentiatedPareto(0.8, 1.7, 2.4),
]


class TestReductionsAndSpotValues:
    def test_identity_reduction(self):
        b = Exponential(1.0)
        p = GmoParams(alpha=1.0, theta=1.0)
        ts = np.linspace(0.1, 4, 20)
        np.testing.assert_allclose(gmo_sf(p, b, ts), b.sf(ts), atol=1e-15)
        np.testing.assert_allclose(gmo_pdf(p, b, ts), b.pdf(ts), rtol=1e-14)

    def test_hand_evaluated_sf(self):
        # alpha=2, theta=1, exponential at ln 2: (2*0.5)/(1-(-1)*0.5) = 2/3
        p = GmoParams(alpha=2.0, theta=1.0)
        b = Exponential(1.0)
        assert gmo_sf(p, b, math.log(2)) == pytest.approx(2 / 3, abs=1e-14)
        assert gmo_cdf(p, b, math.log(2)) == pytest.approx(1 / 3, abs=1e-14)

    def test_theta_scales_cumulative_hazard(self):
        b = Weibull(1.0, 2.0)
        t = 0.9
        h1 = gmo_chrf(GmoParams(alpha=2.0, theta=1.0), b, t)
        h2 = gmo_chrf(GmoParams(alpha=2.0, theta=2.0), b, t)
        assert h2 == pytest.approx(2 * h1, rel=1e-13)

    def test_alpha_one_hazard_scaling(self):
        b = Lomax(2.0, 1.0)
        p = GmoParams(alpha=1.0, theta=3.0)
        ts = np.linspace(0.2, 3, 10)
        np.testing.assert_allclose(gmo_hrf(p, b, ts), 3.0 * b.hrf(ts), rtol=1e-12)


class TestIdentities:
    @pytest.mark.parametrize("alpha", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("theta", [0.5, 1.0, 3.0])
    def test_hazard_and_chrf_identities(self, alpha, theta):
        p = GmoParams(alpha=alpha, theta=theta)
        b = Weibull(0.8, 1.7)
        ts = b.quantile(np.linspace(0.05, 0.95, 12))
        sf = gmo_sf(p, b, ts)
        pdf = gmo_pdf(p, b, ts)
        np.testing.assert_allclose(gmo_hrf(p, b, ts) * sf - pdf, 0.0, atol=1e-12)
        np.testing.assert_allclose(gmo_chrf(p, b, ts) + np.log(sf), 0.0, atol=1e-12)
        np.testing.assert_allclose(gmo_rhrf(p, b, ts) * gmo_cdf(p, b, ts), pdf, rtol=1e-10)

    def test_pdf_matches_sf_derivative(self):
        p = GmoParams(alpha=0.4, theta=2.3)
        b = Gompertz(0.7, 0.9)
        ts = b.quantile(np.linspace(0.1, 0.9, 9))
        h = 1e-6 * np.maximum(ts, 1.0)
        num = -(gmo_sf(p, b, ts + h) - gmo_sf(p, b, ts - h)) / (2 * h)
        np.testing.assert_allclose(num, gmo_pdf(p, b, ts), rtol=1e-6)

    def test_theta_one_matches_plain_tilt(self):
        b = Frechet(2.0, 1.0)
        for alpha in (0.25, 1.0, 4.0):
            p = GmoParams(alpha=alpha, theta=1.0)
            ts = b.quantile(np.linspace(0.05, 0.95, 20))
            np.testing.assert_allclose(gmo_sf(p, b, ts), mo_sf(alpha, b, ts), atol=1e-15)
            np.testing.assert_allclose(gmo_cdf(p, b, ts), mo_cdf(alpha, b, ts), atol=1e-15)
            np.testing.assert_allclose(gmo_pdf(p, b, ts), mo_pdf(alpha, b, ts), rtol=1e-13)


class TestNormalization:
    @pytest.mark.parametrize("b", ALL_BASELINES, ids=lambda b: b.tag)
    @pytest.mark.parametrize("alpha", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("theta", [0.5, 1.0, 3.0])
    def test_pdf_integrates_to_one(self, b, alpha, theta):
        # integrate in the baseline probability domain so heavy tails
        # become endpoint power behaviour
        p = GmoParams(alpha=alpha, theta=theta)

        def integrand(v):
            t = float(b.quantile(v))
            g = float(b.pdf(t))
            if not (np.isfinite(t) and np.isfinite(g)) or g <= 0:
                return 0.0
            return gmo_pdf(p, b, t) / g

        total, _ = quad(integrand, 0.0, 1.0, points=(0.25, 0.5, 0.75), limit=200, epsabs=1e-10)
        assert total == pytest.approx(1.0, abs=1e-8)


class TestQuantileAndGuards:
    def test_quantile_round_trip(self):
        p = GmoParams(alpha=3.0, theta=0.6)
        b = Weibull(1.0, 2.0)
        us = np.linspace(0.01, 0.99, 25)
        np.testing.assert_allclose(gmo_cdf(p, b, b_q := gmo_quantile(p, b, us)), us, atol=1e-12)
        assert np.all(np.diff(b_q) > 0)

    def test_sf_edges(self):
        p = GmoParams(alpha=0.5, theta=2.0)
        b = Exponential(1.0)
        assert gmo_sf(p, b, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert gmo_sf(p, b, 800.0) == pytest.approx(0.0, abs=1e-100)

    def test_deep_tail_log_space(self):
        # survival underflow must not break the density evaluation
        p = GmoParams(alpha=2.0, theta=0.3)
        b = Exponential(1.0)
        val = gmo_pdf(p, b, 500.0)
        assert np.isfinite(val) and val >= 0.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GmoParams(alpha=0.0, theta=1.0)
        with pytest.raises(ValueError):
            GmoParams(alpha=1.0, theta=-2.0)
