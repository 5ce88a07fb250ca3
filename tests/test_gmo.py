import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import bgmo
import oracles
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
from bgmo.family import BgmoDistribution, BgmoParams
from bgmo.gmo import log_tilt, tilt_inverse

ALL_BASELINES = [
    Exponential(1.0),
    Weibull(1.0, 2.0),
    Lomax(2.0, 1.0),
    Frechet(2.0, 1.0),
    Gompertz(0.7, 0.9),
    ExtendedWeibull(1.2),
    ModifiedWeibull(0.5, 0.8, 2.0),
    ExponentiatedPareto(0.8, 1.7, 2.4),
    ExponentiatedPareto(0.8, 0.3, 0.5),
]
# test ids: the family tag, and for the second exponentiated Pareto (k and
# gamma below 1, so its density is infinite at the location) a suffix
BASELINE_IDS = [b.tag for b in ALL_BASELINES[:-1]] + ["exponentiated_pareto_heavy"]


def gmo(alpha, theta, b):
    """The exponentiated-tilt sub-family: the family at m = n = 1."""
    return BgmoDistribution(BgmoParams(1, 1, theta, alpha), b)


class TestReductionsAndSpotValues:
    def test_identity_reduction(self):
        b = Exponential(1.0)
        d = gmo(1.0, 1.0, b)
        ts = np.linspace(0.1, 4, 20)
        np.testing.assert_allclose(d.sf(ts), b.sf(ts), atol=1e-15)
        np.testing.assert_allclose(d.pdf(ts), b.pdf(ts), rtol=1e-14)

    def test_hand_evaluated_sf(self):
        # alpha=2, theta=1, exponential at ln 2: (2*0.5)/(1-(-1)*0.5) = 2/3
        d = gmo(2.0, 1.0, Exponential(1.0))
        assert d.sf(math.log(2)) == pytest.approx(2 / 3, abs=1e-14)
        assert d.cdf(math.log(2)) == pytest.approx(1 / 3, abs=1e-14)

    def test_theta_scales_cumulative_hazard(self):
        b = Weibull(1.0, 2.0)
        t = 0.9
        h1 = gmo(2.0, 1.0, b).chrf(t)
        h2 = gmo(2.0, 2.0, b).chrf(t)
        assert h2 == pytest.approx(2 * h1, rel=1e-13)

    def test_alpha_one_hazard_scaling(self):
        b = Lomax(2.0, 1.0)
        ts = np.linspace(0.2, 3, 10)
        np.testing.assert_allclose(gmo(1.0, 3.0, b).hrf(ts), 3.0 * b.hrf(ts), rtol=1e-12)


class TestIdentities:
    @pytest.mark.parametrize("alpha", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("theta", [0.5, 1.0, 3.0])
    def test_hazard_and_chrf_identities(self, alpha, theta):
        b = Weibull(0.8, 1.7)
        d = gmo(alpha, theta, b)
        ts = b.quantile(np.linspace(0.05, 0.95, 12))
        sf = d.sf(ts)
        pdf = d.pdf(ts)
        np.testing.assert_allclose(d.hrf(ts) * sf - pdf, 0.0, atol=1e-12)
        np.testing.assert_allclose(d.chrf(ts) + np.log(sf), 0.0, atol=1e-12)
        np.testing.assert_allclose(d.rhrf(ts) * d.cdf(ts), pdf, rtol=1e-10)

    def test_pdf_matches_sf_derivative(self):
        b = Gompertz(0.7, 0.9)
        d = gmo(0.4, 2.3, b)
        ts = b.quantile(np.linspace(0.1, 0.9, 9))
        h = 1e-6 * np.maximum(ts, 1.0)
        num = -(d.sf(ts + h) - d.sf(ts - h)) / (2 * h)
        np.testing.assert_allclose(num, d.pdf(ts), rtol=1e-6)

    def test_theta_one_matches_plain_tilt(self):
        b = Frechet(2.0, 1.0)
        for alpha in (0.25, 1.0, 4.0):
            d = gmo(alpha, 1.0, b)
            ts = b.quantile(np.linspace(0.05, 0.95, 20))
            np.testing.assert_allclose(d.sf(ts), oracles.gmo_sf(alpha, 1.0, b, ts), atol=1e-15)
            np.testing.assert_allclose(d.cdf(ts), oracles.gmo_cdf(alpha, 1.0, b, ts), atol=1e-15)
            np.testing.assert_allclose(d.pdf(ts), oracles.mo_pdf(alpha, b, ts), rtol=1e-13)


class TestNormalization:
    @pytest.mark.parametrize("b", ALL_BASELINES, ids=BASELINE_IDS)
    @pytest.mark.parametrize("alpha", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("theta", [0.5, 1.0, 3.0])
    def test_pdf_integrates_to_one(self, b, alpha, theta):
        # integrate in the baseline probability domain so heavy tails
        # become endpoint power behaviour
        d = gmo(alpha, theta, b)

        def integrand(v):
            t = float(b.quantile(v))
            g = float(b.pdf(t))
            if not (np.isfinite(t) and np.isfinite(g)) or g <= 0:
                return 0.0
            return d.pdf(t) / g

        total, _ = quad(integrand, 0.0, 1.0, points=(0.25, 0.5, 0.75), limit=200, epsabs=1e-10)
        assert total == pytest.approx(1.0, abs=1e-8)


class TestQuantileAndGuards:
    def test_quantile_round_trip(self):
        d = gmo(3.0, 0.6, Weibull(1.0, 2.0))
        us = np.linspace(0.01, 0.99, 25)
        np.testing.assert_allclose(d.cdf(b_q := d.quantile(us)), us, atol=1e-12)
        assert np.all(np.diff(b_q) > 0)

    def test_sf_edges(self):
        d = gmo(0.5, 2.0, Exponential(1.0))
        assert d.sf(0.0) == pytest.approx(1.0, abs=1e-15)
        assert d.sf(800.0) == pytest.approx(0.0, abs=1e-100)

    def test_deep_tail_log_space(self):
        # survival underflow must not break the density evaluation
        val = gmo(2.0, 0.3, Exponential(1.0)).pdf(500.0)
        assert np.isfinite(val) and val >= 0.0


class TestTilt:
    @pytest.mark.parametrize("b", ALL_BASELINES, ids=BASELINE_IDS)
    def test_parts_complement_and_inverse(self, b):
        # s + (1 - s) = 1, D = 1 - (1-alpha)*sf_G, and the inverse maps log s back to t
        ts = b.quantile(np.linspace(0.01, 0.99, 15))
        for alpha in (0.25, 4.0):
            with np.errstate(all="ignore"):
                log_gbar = b.log_parts(ts)[1]
                log_s, log_1ms, log_d = log_tilt(alpha, *b.log_parts(ts)[1:])
            np.testing.assert_allclose(np.exp(log_s) + np.exp(log_1ms), 1.0, rtol=1e-14)
            np.testing.assert_allclose(np.exp(log_gbar), b.sf(ts), rtol=1e-14)
            np.testing.assert_allclose(np.exp(log_d), 1.0 - (1.0 - alpha) * b.sf(ts), rtol=1e-14)
            np.testing.assert_allclose(tilt_inverse(alpha, b, log_s), ts, rtol=1e-9)


class TestApi:
    # the benchmark's tracer wraps every name in these modules' __all__ (cli: main)
    TRACED = ("special", "baselines", "gmo", "family", "series", "fitting", "cli", "datasets")

    def test_exported_names_resolve(self):
        for name in bgmo.__all__:
            assert hasattr(bgmo, name), name
        for layer in self.TRACED:
            mod = importlib.import_module(f"bgmo.{layer}")
            for name in getattr(mod, "__all__", None) or ["main"]:
                assert hasattr(mod, name), f"bgmo.{layer}.{name}"

    def test_import_leaves_optimizer_stats_and_quadrature_unloaded(self):
        # fit_mle imports the optimizer and stats on first use, so the
        # subcommands that need neither do not pay for them at start-up; the
        # quadrature owns its rule, so a functional loads no scipy.integrate
        heavy = ("scipy.optimize", "scipy.stats", "scipy.integrate")
        code = (
            f"import sys, bgmo; loaded = [m for m in {heavy!r} if m in sys.modules]; "
            "d = bgmo.BgmoDistribution(bgmo.BgmoParams(2, 1, 1, 1), bgmo.Exponential(1.0)); "
            "bgmo.series.moment_direct(d, 1); "
            "print(loaded, 'scipy.integrate' in sys.modules)"
        )
        src = str(Path(bgmo.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True, timeout=120).stdout
        assert out.strip() == "[] False"

    def test_gmo_exports_are_not_empty(self):
        # with an empty __all__ the tracer falls back to a missing ``main``
        assert importlib.import_module("bgmo.gmo").__all__
