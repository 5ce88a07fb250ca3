import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from bgmo.baselines import Weibull
from bgmo.datasets import BUILTIN_NAMES, builtin_dataset
from bgmo.family import BgmoDistribution, BgmoParams
from bgmo.fitting import (
    FAMILY_PARAM_NAMES,
    FitConfig,
    _default_box,
    _objective,
    _pinned,
    _search_names,
    _to_params,
    ModelTemplate,
    fit_mle,
    info_criteria,
    log_likelihood,
    observed_information,
    score,
    wald_interval,
)
from test_family import SHAPE_BOX
from test_gmo import ALL_BASELINES, BASELINE_IDS


NESTED = {"m": 1.0, "n": 1.0, "theta": 1.0, "alpha": 1.0}
# per baseline, the ranges its parameters are drawn from; TestScore's data are
# at least 0.05, above every exponentiated-Pareto location drawn here and the
# oracle's stencil around it
BASELINE_RANGES = {
    "exponential": {"lam": (0.4, 2.0)},
    "weibull": {"lam": (0.4, 2.0), "beta": (0.6, 2.5)},
    "lomax": {"beta": (0.4, 3.0), "delta": (0.4, 3.0)},
    "frechet": {"lam": (0.6, 2.5), "delta": (0.4, 2.0)},
    "gompertz": {"beta": (0.4, 2.0), "lam": (0.2, 1.5)},
    "extended_weibull": {"delta": (0.4, 2.0)},
    "modified_weibull": {"sigma": (0.2, 1.5), "beta": (0.2, 1.5), "gamma": (0.6, 2.5)},
    "exponentiated_pareto": {"theta_p": (0.01, 0.045), "k": (0.4, 3.0), "gamma": (0.4, 3.0)},
}


def exp_reduction_template():
    return ModelTemplate("exponential", fixed={"m": 1.0, "n": 1.0, "theta": 1.0, "alpha": 1.0})


class TestInfoCriteria:
    def test_turbocharger_reference_criteria(self):
        c = info_criteria(-80.38, 6, 40)
        assert c.aic == pytest.approx(172.76, abs=0.01)
        assert c.bic == pytest.approx(182.89, abs=0.01)
        assert c.caic == pytest.approx(175.31, abs=0.01)
        assert c.hqic == pytest.approx(176.43, abs=0.01)

    def test_algebraic_relations(self):
        l, k, n = -123.4, 5, 87
        c = info_criteria(l, k, n)
        assert c.bic - c.aic == pytest.approx(k * (math.log(n) - 2.0), abs=1e-12)
        assert c.caic - c.aic == pytest.approx(2 * k * (k + 1) / (n - k - 1), abs=1e-12)
        assert c.hqic - c.aic == pytest.approx(2 * k * (math.log(math.log(n)) - 1.0), abs=1e-12)

    def test_degenerate_zero_parameters(self):
        c = info_criteria(0.0, 0, 10)
        assert c.aic == 0.0 and c.bic == 0.0 and c.caic == 0.0 and c.hqic == 0.0

    def test_caic_undefined_flag(self):
        c = info_criteria(-10.0, 6, 7)
        assert math.isnan(c.caic)
        assert math.isfinite(c.aic)


class TestWaldInterval:
    def test_reference_pairs(self):
        lo, hi = wald_interval(1.187, 0.702, 0.05)
        assert lo == pytest.approx(-0.19, abs=0.01)
        assert hi == pytest.approx(2.56, abs=0.01)
        lo, hi = wald_interval(4.194, 0.668, 0.05)
        assert lo == pytest.approx(2.88, abs=0.01)
        assert hi == pytest.approx(5.50, abs=0.01)

    def test_degenerate(self):
        assert wald_interval(3.2, 0.0, 0.05) == (3.2, 3.2)

    def test_quantile_constant(self):
        lo, hi = wald_interval(0.0, 1.0, 0.05)
        assert hi == pytest.approx(1.959964, abs=1e-6)

    def test_negative_se(self):
        with pytest.raises(ValueError):
            wald_interval(1.0, -0.1, 0.05)


class TestLogLikelihood:
    def test_single_observation(self):
        tpl = ModelTemplate("weibull")
        params = {"m": 1.3, "n": 0.9, "theta": 1.1, "alpha": 2.0, "lam": 0.8, "beta": 1.5}
        d = tpl.build(params)
        t = 1.7
        assert log_likelihood(tpl, params, [t]) == pytest.approx(d.log_pdf(t), rel=1e-13)

    def test_duplication_doubles(self):
        tpl = ModelTemplate("exponential")
        params = {"m": 1.3, "n": 0.9, "theta": 1.1, "alpha": 2.0, "lam": 0.8}
        data = [0.5, 1.2, 2.0]
        single = log_likelihood(tpl, params, data)
        double = log_likelihood(tpl, params, data + data)
        assert double == pytest.approx(2 * single, rel=1e-13)

    def test_zero_density_sentinel(self):
        tpl = ModelTemplate("exponentiated_pareto")
        params = {"m": 1.0, "n": 1.0, "theta": 1.0, "alpha": 1.0, "theta_p": 2.0, "k": 1.0, "gamma": 1.0}
        assert log_likelihood(tpl, params, [3.0, 1.0]) == -math.inf

    def test_turbocharger_reference_estimates(self):
        data = builtin_dataset("turbocharger").values
        tpl = ModelTemplate("weibull")
        params = {"m": 1.187, "n": 2.057, "theta": 0.017, "alpha": 0.047, "lam": 0.009, "beta": 4.194}
        assert log_likelihood(tpl, params, data) == pytest.approx(-80.38, abs=0.5)


class TestScore:
    @pytest.mark.parametrize("baseline", list(BASELINE_RANGES))
    def test_analytic_matches_finite_difference(self, baseline):
        rng = np.random.default_rng(31)
        data = rng.exponential(1.0, 80) + 0.05
        tpl = ModelTemplate(baseline)
        for _ in range(20):
            values = {name: float(rng.uniform(0.4, 3)) for name in FAMILY_PARAM_NAMES}
            for name, (lo, hi) in BASELINE_RANGES[baseline].items():
                values[name] = float(rng.uniform(lo, hi))
            sa = score(tpl, values, data)
            sf = oracles.finite_difference_score(tpl, values, data)
            rel = np.max(np.abs(sa - sf) / np.maximum(np.abs(sf), 1e-6))
            assert rel <= 1e-5

    def test_analytic_is_finite_where_baseline_sf_underflows(self):
        # the baseline sf of the largest observations underflows to 0 here,
        # while the log-likelihood stays finite
        data = builtin_dataset("turbocharger").values
        tpl = ModelTemplate("weibull")
        values = {"m": 0.3107, "n": 0.2833, "theta": 0.5414, "alpha": 0.3384,
                  "lam": 3.6325, "beta": 2.9785}
        assert math.isfinite(log_likelihood(tpl, values, data))
        sa = score(tpl, values, data)
        sf = oracles.finite_difference_score(tpl, values, data)
        assert np.all(np.isfinite(sa))
        np.testing.assert_allclose(sa, sf, rtol=1e-6)

    def test_analytic_is_finite_where_baseline_cdf_underflows(self):
        # G(1e-130) = 1e-325 is below the smallest double, so 1 - s^theta is
        # too, and (1-m) s^theta/(1 - s^theta) overflows; the score takes
        # d(log sf_G) there from d(log G)
        data = np.array([1e-130, 0.5, 1.0, 1.5])
        tpl = ModelTemplate("weibull")
        values = {"m": 0.5, "n": 1.3, "theta": 1.2, "alpha": 0.8, "lam": 1.0, "beta": 2.5}
        sa = score(tpl, values, data)
        assert np.all(np.isfinite(sa))
        np.testing.assert_allclose(sa, oracles.finite_difference_score(tpl, values, data), rtol=1e-6)

    def test_digamma_terms_in_shape_gradient(self):
        # the m-component separates into digamma terms plus a data sum;
        # verify the digamma part against finite differences of log B(m, n)
        from bgmo.special import log_beta

        tpl = ModelTemplate("exponential")
        values = {"m": 1.4, "n": 1.4, "theta": 1.0, "alpha": 1.0, "lam": 1.0}
        data = np.array([0.3, 0.9, 2.1])
        sa = score(tpl, values, data)
        h = 1e-6
        dlogB = (log_beta(1.4 + h, 1.4) - log_beta(1.4 - h, 1.4)) / (2 * h)
        tilted_sf = np.exp(-data)  # alpha = theta = 1: s = baseline sf
        data_part = np.sum(np.log1p(-tilted_sf))
        assert sa[0] == pytest.approx(-len(data) * dlogB + data_part, rel=1e-6)

    def test_finite_at_the_support_edge(self):
        # an observation at 0 has a finite log density for beta < 1, taken at
        # the support's floor; the partials must be taken there too
        tpl = ModelTemplate("weibull", fixed=NESTED)
        values = {"lam": 0.8, "beta": 0.6}
        assert math.isfinite(log_likelihood(tpl, values, [0.0, 0.5, 1.2]))
        assert np.all(np.isfinite(score(tpl, values, [0.0, 0.5, 1.2])))

    def test_nan_where_likelihood_is_zero(self):
        tpl = ModelTemplate("weibull")
        values = {"m": 1.3, "n": 0.9, "theta": 1.1, "alpha": 2.0, "lam": 0.8, "beta": 1.5}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_likelihood(tpl, values, [-1.0, 1.0]) == -math.inf
            g = score(tpl, values, [-1.0, 1.0])
        assert g.shape == (6,) and np.all(np.isnan(g))


class TestScoreOverTheBox:
    """Properties over (m, n, theta, alpha) in [1e-2, 1e2]^4, on 40 draws of the distribution.

    - The score is finite wherever the log-likelihood is.
    - Where the oracle's +-0.2% stencil stays on the support, the score
      matches it within 1e-6 relative plus the oracle's own error bound.
    """

    @pytest.mark.parametrize("baseline", ALL_BASELINES, ids=BASELINE_IDS)
    @given(shapes=SHAPE_BOX, seed=st.integers(0, 2**32 - 1))
    def test_properties(self, baseline, shapes, seed):
        data = BgmoDistribution(BgmoParams(*shapes), baseline).sample(40, seed)
        tpl = ModelTemplate(baseline.tag)
        values = dict(zip(FAMILY_PARAM_NAMES, shapes))
        values.update((name, getattr(baseline, name)) for name in baseline.param_names)
        if not math.isfinite(log_likelihood(tpl, values, data)):
            return
        g = score(tpl, values, data)
        assert np.all(np.isfinite(g))
        fd, err = oracles.finite_difference_score(tpl, values, data, error=True)
        if np.all(np.isfinite(fd)):
            assert np.all(np.abs(g - fd) <= 1e-6 * np.maximum(np.abs(fd), 1.0) + err)


class TestSearchGradient:
    @pytest.mark.parametrize(
        "fixed,x",
        [
            # six parameters, lam searched as log sigma: x holds log m, log n,
            # log theta, log alpha, log sigma, log beta
            ({}, np.log([1.3, 0.9, 1.1, 2.0, 6.0, 2.5])),
            # the nested model near its optimum
            ({"m": 1.0, "n": 1.0, "theta": 1.0, "alpha": 1.0}, np.log([6.9, 3.9])),
        ],
    )
    def test_matches_central_differences(self, fixed, x):
        data = builtin_dataset("turbocharger").values
        tpl = ModelTemplate("weibull", fixed=fixed)
        scale = (len(x) - 2, len(x) - 1)
        sigma, beta = np.exp(x[-2:])
        params = np.append(np.exp(x[:-2]), [sigma**-beta, beta])  # lam = sigma**(-beta)
        value, grad = _objective(x, tpl, data, scale)
        assert value == pytest.approx(-log_likelihood(tpl, params, data), rel=1e-13)
        h = 1e-6
        for i in range(len(x)):
            e = np.zeros(len(x))
            e[i] = h
            fd = (_objective(x + e, tpl, data, scale)[0] - _objective(x - e, tpl, data, scale)[0]) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_zero_likelihood_is_infinite(self):
        tpl = ModelTemplate("exponentiated_pareto", fixed={"m": 1.0, "n": 1.0, "theta": 1.0, "alpha": 1.0})
        value, grad = _objective(np.log([2.0, 1.0, 1.0]), tpl, np.array([3.0, 1.0]), None)
        assert value == math.inf and np.all(grad == 0)


class TestObjectiveKernel:
    """``_objective`` takes its value and gradient from one pass over the data."""

    @staticmethod
    def search_setup(baseline, fixed):
        tpl = ModelTemplate(baseline, fixed=fixed)
        names = _search_names(tpl)
        scale = (names.index("sigma"), names.index("beta")) if "sigma" in names else None
        return tpl, names, scale

    @staticmethod
    def assert_matches_public(tpl, x, data, scale):
        params, jac = _to_params(x, scale)
        value, grad = _objective(x, tpl, data, scale)
        assert value == -log_likelihood(tpl, params, data)
        np.testing.assert_array_equal(grad, -(jac.T @ score(tpl, params, data)))

    @pytest.mark.parametrize("baseline", ["exponential", "weibull"])
    @pytest.mark.parametrize(
        "fixed",
        # the partial fixes bind free values into scattered slots
        [{}, NESTED, {"m": 1.0, "n": 1.0}, {"theta": 1.0}, {"alpha": 2.0}],
        ids=["six", "nested", "m1n1", "theta1", "alpha2"],
    )
    def test_equals_public_functions_in_the_box(self, baseline, fixed):
        tpl, names, scale = self.search_setup(baseline, fixed)
        rng = np.random.default_rng(8)
        for name in BUILTIN_NAMES:
            data = builtin_dataset(name).values
            box = _default_box(tpl, data)
            lo, hi = np.log([box[n] for n in names]).T
            for _ in range(25):
                self.assert_matches_public(tpl, lo + rng.random(len(names)) * (hi - lo), data, scale)

    def test_equals_public_functions_where_baseline_sf_underflows(self):
        # the point of TestScore.test_analytic_is_finite_where_baseline_sf_underflows
        data = builtin_dataset("turbocharger").values
        tpl, _, scale = self.search_setup("weibull", {})
        lam, beta = 3.6325, 2.9785
        x = np.log([0.3107, 0.2833, 0.5414, 0.3384, lam ** (-1.0 / beta), beta])
        self.assert_matches_public(tpl, x, data, scale)
        assert math.isfinite(_objective(x, tpl, data, scale)[0])

    def test_one_baseline_pass_per_evaluation(self, monkeypatch):
        # one log_parts pass, whose one _hazard feeds both baseline log tails;
        # no public baseline evaluation besides it
        calls = []
        for name in ("log_parts", "_hazard", "log_pdf", "log_sf", "log_cdf"):
            method = getattr(Weibull, name)

            def counted(self, t, name=name, method=method):
                calls.append(name)
                return method(self, t)

            monkeypatch.setattr(Weibull, name, counted)
        data = builtin_dataset("turbocharger").values
        tpl, _, scale = self.search_setup("weibull", {})
        _objective(np.log([1.3, 0.9, 1.1, 2.0, 6.0, 2.5]), tpl, data, scale)
        assert sorted(calls) == ["_hazard", "log_parts"]


class TestObservedInformation:
    def test_symmetric_by_construction(self):
        tpl = ModelTemplate("weibull")
        data = builtin_dataset("turbocharger").values
        x = np.array([1.0, 1.0, 1.0, 1.0, 0.05, 2.0])
        info = observed_information(tpl, x, data)
        np.testing.assert_array_equal(info, info.T)

    def test_exponential_fisher_information(self):
        rng = np.random.default_rng(99)
        data = rng.exponential(0.5, 4000)
        tpl = exp_reduction_template()
        lam_hat = 1.0 / data.mean()
        info = observed_information(tpl, np.array([lam_hat]), data)
        assert info[0, 0] == pytest.approx(len(data) / lam_hat**2, rel=0.01)


    def test_relative_steps_follow_the_data_scale(self):
        # in units 100 times smaller the nested Weibull rate is about 1e-11,
        # far below an absolute step of 1e-6; SE(beta) does not depend on
        # the units, up to the differences' truncation error (7.1e-4 measured)
        data = builtin_dataset("turbocharger").values
        tpl = ModelTemplate("weibull", fixed=NESTED)
        se = []
        for scale in (1.0, 100.0):
            result = fit_mle(tpl, data * scale)
            assert result.information_pd
            se.append(result.std_errors["beta"])
        assert se[1] == pytest.approx(se[0], rel=2e-3)


class TestFitMle:
    def test_exponential_reduction_recovers_rate(self):
        rng = np.random.default_rng(3)
        data = rng.exponential(1 / 1.7, 500)
        result = fit_mle(exp_reduction_template(), data, FitConfig(starts=6, seed=1))
        # the exact single-parameter MLE is 1/mean
        assert result.estimates["lam"] == pytest.approx(1.0 / data.mean(), rel=1e-4)
        assert result.converged and result.at_boundary == ()
        assert result.information_pd
        assert result.k_params == 1
        lo, hi = result.conf_intervals["lam"]
        assert lo < 1.7 < hi

    def test_score_small_at_interior_optimum(self):
        rng = np.random.default_rng(3)
        data = rng.exponential(1 / 1.7, 500)
        tpl = exp_reduction_template()
        result = fit_mle(tpl, data, FitConfig(starts=6, seed=1))
        g = score(tpl, [result.estimates["lam"]], data)
        assert abs(g[0]) <= 1e-3 * abs(result.log_likelihood)

    def test_deterministic_given_seed(self):
        data = builtin_dataset("turbocharger").values
        tpl = ModelTemplate("weibull", fixed={"m": 1.0, "n": 1.0})
        cfg = FitConfig(starts=4, seed=5)
        a = fit_mle(tpl, data, cfg)
        b = fit_mle(tpl, data, cfg)
        assert a.to_json() == b.to_json()

    def test_boundary_fits_are_flagged(self):
        data = builtin_dataset("turbocharger").values
        result = fit_mle(ModelTemplate("weibull"), data, FitConfig(starts=8, seed=2))
        # this family's likelihood has no interior maximum on this sample;
        # the fit must land on the search box and say so
        assert result.at_boundary
        assert not result.converged

    def test_multistart_stability_across_seeds(self):
        # this likelihood has no interior optimum (see test_boundary_fits),
        # so refits agree only to the box-constrained search resolution,
        # not to f_tol; 0.05 in log-likelihood is the observed spread
        data = builtin_dataset("turbocharger").values
        tpl = ModelTemplate("weibull")
        a = fit_mle(tpl, data, FitConfig(seed=0))
        b = fit_mle(tpl, data, FitConfig(seed=1))
        assert abs(a.log_likelihood - b.log_likelihood) <= 0.05

    def test_nested_weibull_reaches_scipy(self):
        # the nested Weibull MLE sits at lam = 5.6e-4, beta = 3.87, far from
        # lam's data-scaled centre 1/mean(data); the sigma coordinate reaches it
        from scipy.stats import weibull_min

        data = builtin_dataset("turbocharger").values
        tpl = ModelTemplate("weibull", fixed={"m": 1.0, "n": 1.0, "theta": 1.0, "alpha": 1.0})
        result = fit_mle(tpl, data)
        shape, _, scale = weibull_min.fit(data, floc=0)
        want = float(np.sum(weibull_min.logpdf(data, shape, 0, scale)))
        assert result.log_likelihood >= want - 1e-4
        assert result.estimates["beta"] == pytest.approx(shape, rel=1e-3)
        assert result.estimates["lam"] == pytest.approx(scale ** -shape, rel=1e-2)
        assert result.converged and result.at_boundary == ()

    def test_exponentiated_pareto_fit_at_the_support_edge(self):
        # the likelihood rises toward theta_p = min(data), the edge of the
        # support, where a fixed finite-difference stencil would leave it.
        # A Nelder-Mead search of the same box reaches -300.5447 with gamma
        # on its upper bound.
        data = builtin_dataset("nicotine").values
        tpl = ModelTemplate(
            "exponentiated_pareto", fixed={"m": 1.0, "n": 1.0, "theta": 1.0, "alpha": 1.0}
        )
        result = fit_mle(tpl, data, FitConfig(starts=8))
        assert result.log_likelihood >= -300.5448
        assert result.at_boundary == ("gamma",)

    def test_kkt_boundary_flag(self):
        # the exponential rate's MLE 1/mean lies above this box: the fit ends
        # on the upper bound with the gradient pointing out, and says so
        rng = np.random.default_rng(3)
        data = rng.exponential(1 / 1.7, 500)
        cap = 0.5 / data.mean()
        result = fit_mle(
            exp_reduction_template(), data,
            FitConfig(starts=3, seed=1, start_box={"lam": (0.01, cap)}),
        )
        assert result.estimates["lam"] == pytest.approx(cap, rel=1e-12)
        assert result.at_boundary == ("lam",)
        assert not result.converged
        assert all(r.at_bound == ("lam",) for r in result.trace)

    def test_kkt_rule_needs_an_outward_gradient(self):
        lo, hi = np.zeros(3), np.ones(3)
        x = np.array([0.0, 1.0, 0.5])
        names = ("a", "b", "c")
        # the objective's gradient points out of the box at both bounds
        assert _pinned(names, x, np.array([1.0, -1.0, 5.0]), lo, hi) == ("a", "b")
        # on the bounds, but the descent direction points into the box
        assert _pinned(names, x, np.array([-1.0, 1.0, 5.0]), lo, hi) == ()

    def test_restart_trace(self):
        data = builtin_dataset("turbocharger").values
        tpl = ModelTemplate("weibull", fixed={"m": 1.0, "n": 1.0})
        result = fit_mle(tpl, data, FitConfig(starts=4, seed=5))
        assert len(result.trace) == 4
        best = min(result.trace, key=lambda r: r.neg_log_lik)
        assert -best.neg_log_lik == pytest.approx(result.log_likelihood, abs=1e-9)
        for r in result.trace:
            assert set(r.start) == set(r.end) == set(tpl.free_names)
            assert r.nfev >= 1 and r.seconds >= 0 and isinstance(r.message, str)
            assert r.status in (0, 1, 2)
        assert set(result.to_dict()) == {
            "estimates", "se", "ci", "logLik", "aic", "bic", "caic", "hqic", "converged", "n", "k"
        }

    def test_restart_that_never_moves_is_not_converged(self):
        # with theta_p boxed near min(data), some starts have only zero-likelihood
        # trial points: L-BFGS-B stays at the start and still reports status 0
        data = builtin_dataset("turbocharger").values
        tpl = ModelTemplate("exponentiated_pareto", fixed=NESTED)
        box = {"theta_p": (0.5 * data.min(), 2.0 * data.min())}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = fit_mle(tpl, data, FitConfig(start_box=box))
            stuck = [r for r in result.trace
                     if not r.moved and r.status == 0 and math.isfinite(r.neg_log_lik)]
            assert len(stuck) == 7
            assert all(r.end == r.start for r in stuck)
            assert all(r.moved for r in result.trace if r.end != r.start)
            # here the best of four restarts is one of them
            result = fit_mle(tpl, data, FitConfig(starts=4, seed=4, start_box=box))
        best = min(result.trace, key=lambda r: r.neg_log_lik)
        assert not best.moved and best.status == 0 and result.at_boundary == ()
        assert -best.neg_log_lik == pytest.approx(result.log_likelihood, abs=1e-9)
        assert not result.converged

    def test_start_box_keys_are_search_coordinates(self):
        data = builtin_dataset("turbocharger").values
        six = ModelTemplate("weibull")
        with pytest.raises(ValueError, match="zeta"):
            fit_mle(six, data, FitConfig(starts=1, start_box={"zeta": (0.1, 1.0)}))
        # with beta free, Weibull is searched in sigma = lam**(-1/beta)
        with pytest.raises(ValueError, match="lam"):
            fit_mle(six, data, FitConfig(starts=1, start_box={"lam": (0.1, 1.0)}))
        nested = ModelTemplate("weibull", fixed={"m": 1.0, "n": 1.0, "theta": 1.0, "alpha": 1.0})
        result = fit_mle(nested, data, FitConfig(starts=2, start_box={"sigma": (1.0, 5.0)}))
        assert result.estimates["lam"] ** (-1.0 / result.estimates["beta"]) <= 5.0 * (1 + 1e-12)
        # with beta fixed, lam is searched directly
        rate = ModelTemplate("weibull", fixed=dict(nested.fixed, beta=2.0))
        result = fit_mle(rate, data, FitConfig(starts=2, start_box={"lam": (0.1, 1.0)}))
        assert 0.1 <= result.estimates["lam"] <= 1.0

    def test_json_schema(self):
        rng = np.random.default_rng(8)
        data = rng.exponential(1.0, 120)
        result = fit_mle(exp_reduction_template(), data, FitConfig(starts=4, seed=0))
        doc = json.loads(result.to_json())
        assert set(doc) == {"estimates", "se", "ci", "logLik", "aic", "bic", "caic", "hqic", "converged", "n", "k"}
        assert doc["n"] == 120 and doc["k"] == 1

    def test_data_validation(self):
        tpl = exp_reduction_template()
        with pytest.raises(ValueError):
            fit_mle(tpl, [], FitConfig(starts=2))
        with pytest.raises(ValueError):
            fit_mle(tpl, [1.0, -2.0], FitConfig(starts=2))
        with pytest.raises(ValueError):
            fit_mle(tpl, [1.0, math.nan], FitConfig(starts=2))

    def test_fully_fixed_template_rejected(self):
        tpl = ModelTemplate(
            "exponential",
            fixed={"m": 1.0, "n": 1.0, "theta": 1.0, "alpha": 1.0, "lam": 1.0},
        )
        with pytest.raises(ValueError, match="nothing to fit"):
            fit_mle(tpl, [1.0, 2.0], FitConfig(starts=2))


class TestModelTemplate:
    def test_free_names_and_k(self):
        tpl = ModelTemplate("weibull", fixed={"m": 1.0, "n": 1.0, "theta": 1.0})
        assert tpl.free_names == ("alpha", "lam", "beta")
        assert tpl.k_params == 3

    def test_build_from_vector(self):
        tpl = ModelTemplate("weibull", fixed={"theta": 1.0})
        d = tpl.build([2.0, 3.0, 0.5, 1.0, 2.0])
        assert d.params.m == 2.0 and d.params.theta == 1.0
        assert d.baseline.beta == 2.0

    def test_build_binds_partial_fixes_by_position(self):
        tpl = ModelTemplate("weibull", fixed={"n": 0.5, "alpha": 3.0})
        d = tpl.build([2.0, 0.7, 1.5, 2.5])
        assert d.params.as_dict() == {"m": 2.0, "n": 0.5, "theta": 0.7, "alpha": 3.0}
        assert (d.baseline.lam, d.baseline.beta) == (1.5, 2.5)
        assert tpl.build({"m": 2.0, "theta": 0.7, "lam": 1.5, "beta": 2.5}) == d

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    @pytest.mark.parametrize("name", ["m", "alpha", "lam", "beta"])
    def test_build_rejects_non_positive_values(self, name, bad):
        free = ModelTemplate("weibull", fixed={"theta": 1.0})
        values = {"m": 1.3, "n": 0.9, "alpha": 2.0, "lam": 0.8, "beta": 1.5}
        values[name] = bad
        with pytest.raises(ValueError, match="positive"):
            free.build([values[n] for n in free.free_names])
        with pytest.raises(ValueError, match="positive"):
            free.build(values)
        fixed = ModelTemplate("weibull", fixed={name: bad})
        with pytest.raises(ValueError, match="positive"):
            fixed.build(np.ones(fixed.k_params))

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelTemplate("gaussian")
        with pytest.raises(ValueError):
            ModelTemplate("weibull", fixed={"zeta": 1.0})
