import itertools
import json
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bgmo import fitting
from bgmo.baselines import BASELINE_FAMILIES, Baseline, ExponentiatedPareto, Points, Weibull
from bgmo.datasets import BUILTIN_NAMES, builtin_dataset
from bgmo.family import BgmoDistribution, BgmoParams
from bgmo.fitting import (
    _F_TOL,
    FAMILY_PARAM_NAMES,
    FitConfig,
    FitError,
    _default_box,
    _Likelihood,
    _lockstep,
    _pinned,
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


def objective(x, tpl, data):
    """``fit_mle``'s objective at search point x, with the data bound as a fit binds them."""
    return _Likelihood(tpl, data).objective(x)


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
        # the data are observations whatever their shape, a number included
        one = log_likelihood(tpl, params, [t])
        assert log_likelihood(tpl, params, t) == one and log_likelihood(tpl, params, [[t]]) == one

    def test_duplication_doubles(self):
        tpl = ModelTemplate("exponential")
        params = {"m": 1.3, "n": 0.9, "theta": 1.1, "alpha": 2.0, "lam": 0.8}
        data = [0.5, 1.2, 2.0]
        single = log_likelihood(tpl, params, data)
        double = log_likelihood(tpl, params, data + data)
        assert double == pytest.approx(2 * single, rel=1e-13)

    def test_no_observations(self):
        tpl = ModelTemplate("weibull")
        values = {"m": 1.3, "n": 0.9, "theta": 1.1, "alpha": 2.0, "lam": 0.8, "beta": 1.5}
        assert log_likelihood(tpl, values, []) == 0.0
        np.testing.assert_array_equal(score(tpl, values, []), np.zeros(6))

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

    def test_finite_in_log_coordinates_where_lam_is_subnormal(self):
        # d log g/d lam = 1/lam - t^beta overflows at a subnormal lam, while
        # d log g/d log lam = 1 - h does not: the fitter's score stays finite
        data = builtin_dataset("turbocharger").values
        values = [0.05, 0.316, 2.78, 320.0, 4.94e-314, 200.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, g = _Likelihood(ModelTemplate("weibull"), data)(values)
        assert math.isfinite(value) and np.all(np.isfinite(g))

    @pytest.mark.parametrize("zero", ["sigma", "beta"])
    def test_modified_weibull_coefficient_at_zero(self, zero):
        # a coefficient at 0 is a valid value with no log: the score there is
        # d/d(phi) itself, a one-sided difference since phi < 0 is outside
        tpl = ModelTemplate("modified_weibull", fixed=NESTED)
        values = dict({"sigma": 0.7, "beta": 0.8, "gamma": 1.5}, **{zero: 0.0})
        data = [0.5, 1.0, 2.0]
        i = tpl.free_names.index(zero)
        g = score(tpl, values, data)
        assert np.all(np.isfinite(g))
        step = 1e-5
        at = [log_likelihood(tpl, dict(values, **{zero: j * step}), data) for j in (0, 1, 2)]
        one_sided = (4.0 * at[1] - at[2] - 3.0 * at[0]) / (2.0 * step)  # second order
        assert g[i] == pytest.approx(one_sided, rel=1e-7)
        # the other coordinates are those with the coefficient held at 0
        held = ModelTemplate("modified_weibull", fixed=dict(NESTED, **{zero: 0.0}))
        rest = {name: values[name] for name in held.free_names}
        np.testing.assert_array_equal(np.delete(g, i), score(held, rest, data))
        np.testing.assert_allclose(
            # at beta = 0 gamma has no effect: its score is 0
            score(held, rest, data), oracles.finite_difference_score(held, rest, data),
            rtol=1e-6, atol=1e-9,
        )

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

    @pytest.mark.parametrize("name, bad", [("m", 0.0), ("alpha", math.inf), ("lam", -1.0), ("beta", math.nan)])
    def test_rejects_a_point_outside_the_domain(self, name, bad):
        tpl = ModelTemplate("weibull")
        values = {"m": 1.3, "n": 0.9, "theta": 1.1, "alpha": 2.0, "lam": 0.8, "beta": 1.5}
        values[name] = bad
        data = builtin_dataset("turbocharger").values
        with pytest.raises(ValueError, match=f"parameter {name} "):
            score(tpl, values, data)
        with pytest.raises(ValueError, match=f"parameter {name} "):
            score(tpl, [values[n] for n in tpl.free_names], data)

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
        sigma, beta = np.exp(x[-2:])
        params = np.append(np.exp(x[:-2]), [sigma**-beta, beta])  # lam = sigma**(-beta)
        value, grad = objective(x, tpl, data)
        assert value == pytest.approx(-log_likelihood(tpl, params, data), rel=1e-13)
        h = 1e-6
        for i in range(len(x)):
            e = np.zeros(len(x))
            e[i] = h
            fd = (objective(x + e, tpl, data)[0] - objective(x - e, tpl, data)[0]) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_zero_likelihood_is_infinite(self):
        tpl = ModelTemplate("exponentiated_pareto", fixed={"m": 1.0, "n": 1.0, "theta": 1.0, "alpha": 1.0})
        value, grad = objective(np.log([2.0, 1.0, 1.0]), tpl, np.array([3.0, 1.0]))
        assert value == math.inf and np.all(grad == 0)

    def test_lam_past_the_largest_double_is_zero_likelihood(self):
        # the middle row's sigma = 0.0625 and beta = 500: lam = sigma**(-beta) = e^1386 overflows
        x = np.log([
            [1.3, 0.9, 1.1, 2.0, 6.0, 2.5],
            [1.0, 1.0, 1.0, 1.0, 0.0625, 500.0],
            [0.7, 2.1, 0.4, 3.0, 5.0, 3.5],
        ])
        params = _to_params(x, (4, 5))
        assert params[1, 4] == math.inf and np.all(np.isfinite(params[[0, 2]]))
        for row, point in zip(params, x):
            np.testing.assert_array_equal(row, _to_params(point, (4, 5)))
        data = builtin_dataset("turbocharger").values
        values, grads = objective(x, ModelTemplate("weibull"), data)
        assert values[1] == math.inf and np.all(grads[1] == 0)
        assert np.all(np.isfinite(values[[0, 2]]))


# every baseline, the extended Weibull once per Z kind (k below every builtin observation)
KERNEL_CASES = [(tag, {}) for tag in BASELINE_RANGES if tag != "extended_weibull"] + [
    ("extended_weibull", {"z": kind, "k": 0.05, "beta": 0.7})
    for kind in ("linear", "square", "log_ratio", "gompertz_link")
]


class TestObjectiveKernel:
    """``_Likelihood.objective`` takes its value and gradient from one pass over the data.

    The value is the sum of log densities (``oracles.log_pdf_sum``) exactly,
    and the gradient the score in log coordinates, which the public ``score``
    divides by the parameters, chained through log lam = -beta log sigma where
    the Weibull is searched in its scale.
    """

    @staticmethod
    def search_setup(baseline, fixed, options=None):
        tpl = ModelTemplate(baseline, fixed=fixed, options=options or {})
        names = tpl.search_names
        # the Weibull scale sigma (the modified Weibull's own sigma is a rate)
        weibull_scale = baseline == "weibull" and "sigma" in names
        scale = (names.index("sigma"), names.index("beta")) if weibull_scale else None
        return tpl, names, scale

    @staticmethod
    def assert_matches_public(tpl, x, data, scale):
        params = _to_params(x, scale)
        value, grad = objective(x, tpl, data)
        assert value == -oracles.log_pdf_sum(tpl, params, data)
        log_score = _Likelihood(tpl, data)(params)[1]
        with np.errstate(all="ignore"):
            np.testing.assert_array_equal(score(tpl, params, data), log_score / params)
        if math.isinf(value):
            assert np.all(grad == 0) and np.all(np.isnan(log_score))
            return
        want = log_score.copy()
        if scale is not None:
            i, j = scale
            want[j] += x[i] * -params[j] * want[i]
            want[i] *= -params[j]
        np.testing.assert_array_equal(grad, -want)

    @pytest.mark.parametrize(
        "baseline, options", KERNEL_CASES,
        ids=[f"{tag}-{opt['z']}" if opt else tag for tag, opt in KERNEL_CASES],
    )
    @pytest.mark.parametrize(
        "fixed",
        # the partial fixes bind free values into scattered slots
        [{}, NESTED, {"m": 1.0, "n": 1.0}, {"theta": 1.0}, {"alpha": 2.0}],
        ids=["six", "nested", "m1n1", "theta1", "alpha2"],
    )
    def test_equals_public_functions_in_the_box(self, baseline, options, fixed):
        tpl, names, scale = self.search_setup(baseline, fixed, options)
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
        assert math.isfinite(objective(x, tpl, data)[0])

    def test_one_baseline_pass_per_evaluation(self, monkeypatch):
        # one _hazard feeds the density, both baseline log tails and the
        # partials; the data were floored and support-checked when bound, so
        # no evaluation masks, floors or calls a public baseline method
        calls = []
        for name in ("_hazard", "_masked", "log_parts", "log_pdf", "log_sf", "log_cdf", "log_partials"):
            method = getattr(Weibull, name)

            def counted(self, *args, name=name, method=method):
                calls.append(name)
                return method(self, *args)

            monkeypatch.setattr(Weibull, name, counted)
        floor = Baseline._eval_floor
        monkeypatch.setattr(
            Baseline, "_eval_floor", staticmethod(lambda edge: calls.append("_eval_floor") or floor(edge))
        )
        data = builtin_dataset("turbocharger").values
        lik = _Likelihood(ModelTemplate("weibull"), data)
        calls.clear()
        for x in (np.log([1.3, 0.9, 1.1, 2.0, 6.0, 2.5]), np.log([0.5, 2.0, 0.8, 0.3, 4.0, 1.5])):
            lik.objective(x)
        assert calls == ["_hazard", "_hazard"]


    def test_exponentiated_pareto_base_once_per_evaluation(self, monkeypatch):
        # h = -gamma log(1 - (theta_p/t)^k) is the one log of the base per evaluation
        calls = []
        log_base = ExponentiatedPareto._log_base
        monkeypatch.setattr(
            ExponentiatedPareto, "_log_base", lambda self, t: calls.append(1) or log_base(self, t)
        )
        data = builtin_dataset("turbocharger").values
        lik = _Likelihood(ModelTemplate("exponentiated_pareto"), data)
        lik.objective(np.log([1.3, 0.9, 1.1, 2.0, 1.0, 2.0, 1.5]))
        assert len(calls) == 1


class TestKernelTotalIsLogLikelihood:
    """The kernel's total, the public ``log_likelihood``, is the sum of log densities
    (``oracles.log_pdf_sum``) wherever it is evaluated.

    The points reach 3 log-units beyond the default box on every side, and
    each data set adds one observation at or past the support's limits (or
    NaN) to the turbocharger data.  Every row is checked as a vector call and
    inside a block; neither raises, also outside the parameters' domain.
    """

    @pytest.mark.parametrize(
        "baseline, options", KERNEL_CASES,
        ids=[f"{tag}-{opt['z']}" if opt else tag for tag, opt in KERNEL_CASES],
    )
    @pytest.mark.parametrize("fixed", [{}, NESTED], ids=["six", "nested"])
    def test_beyond_the_box_and_the_support(self, baseline, options, fixed):
        tpl = ModelTemplate(baseline, fixed=fixed, options=options)
        clean = builtin_dataset("turbocharger").values
        lo, hi = np.log([_default_box(tpl, clean)[n] for n in tpl.search_names]).T
        rng = np.random.default_rng(26)
        for extra in (0.0, 1e-320, 1e300, math.nan, -1.0, 1e5):
            data = np.append(clean, extra)
            lik = _Likelihood(tpl, data)
            x = lo - 3.0 + rng.random((60, len(lo))) * (hi - lo + 6.0)
            values = _to_params(x, tpl._scale)
            totals, _ = lik(values)
            for row, total in zip(values, totals):
                want = oracles.log_pdf_sum(tpl, row, data)
                assert lik(row)[0] == want and total == want, (extra, row)


@pytest.mark.parametrize(
    "read",
    [lambda tpl, point, data: tpl.build(point), log_likelihood, score, observed_information],
    ids=["build", "log_likelihood", "score", "observed_information"],
)
@pytest.mark.parametrize(
    "fixed, point",
    [
        ({}, {"m": 1.3, "n": 0.9, "theta": 1.1, "alpha": 2.0, "lam": 0.8}),
        (NESTED, {"lam": 0.01, "beta": 3.0, "m": 2.0}),
        (NESTED, {"lam": 0.01, "beta": 3.0, "zeta": 1.0}),
        ({}, [1.3, 0.9, 1.1, 2.0, 0.8]),
        ({}, [1.3, 0.9, 1.1, 2.0, 0.8, 1.5, 1.0]),
    ],
    ids=["lacks-a-free-name", "names-a-fixed-one", "names-an-unknown-one", "k-1-values", "k+1-values"],
)
def test_a_point_is_k_values_or_a_mapping_of_the_free_names(read, fixed, point):
    # the mapping with m on the nested template was read at m = 2 by
    # log_likelihood and at the fixed m = 1 by score
    tpl = ModelTemplate("weibull", fixed=fixed)
    with pytest.raises(ValueError, match="a point "):
        read(tpl, point, builtin_dataset("turbocharger").values)


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

    @pytest.mark.parametrize("zero", ["sigma", "beta"])
    def test_forward_difference_at_a_coefficient_of_zero(self, zero):
        # a relative step at 0 is 0, and phi < 0 is outside the domain: the
        # row of a coefficient at 0 is a one-sided difference of the score
        tpl = ModelTemplate("modified_weibull", fixed=NESTED)
        i = tpl.free_names.index(zero)
        x = np.array([0.7, 0.8, 1.5])
        x[i] = 0.0
        data = [0.5, 1.0, 2.0]
        info = observed_information(tpl, x, data)
        assert np.all(np.isfinite(info))
        step = 1e-7
        forward = (score(tpl, x + step * np.eye(3)[i], data) - score(tpl, x, data)) / step
        np.testing.assert_allclose(info[i], -forward, rtol=1e-5, atol=1e-6)

    def test_an_overflowing_difference_is_a_non_positive_definite_information(self):
        # wide shape boxes end this fit where the score's differences overflow:
        # ``observed_information`` raises its ArithmeticError, not numpy's
        # RuntimeWarning, and the fit reports no Wald numbers
        box = {name: (0.001, 1000.0) for name in ("m", "n", "theta", "alpha", "beta")}
        result = fit_mle(
            ModelTemplate("weibull"), builtin_dataset("turbocharger").values, FitConfig(starts=96, start_box=box)
        )
        assert not result.information_pd
        assert all(math.isnan(se) for se in result.std_errors.values())

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
    @pytest.mark.parametrize("max_iter", [0, -5])
    def test_an_iteration_budget_below_one_is_refused(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            FitConfig(max_iter=max_iter)

    @pytest.mark.parametrize("seed", [-1, np.int64(-7)], ids=["int", "numpy_int"])
    def test_a_negative_seed_is_refused(self, seed):
        # numpy's own error for it ("expected non-negative integer") does not name the seed
        with pytest.raises(ValueError, match=f"seed must be non-negative, got {seed}"):
            FitConfig(seed=seed)

    @pytest.mark.parametrize(
        "bounds", [(0.0, 10.0), (-1.0, 10.0), (1.0, math.inf), (math.nan, 2.0), (5.0, 1.0)]
    )
    def test_a_start_box_range_outside_the_domain_is_refused(self, bounds):
        with pytest.raises(ValueError, match=r"start_box\['beta'\] needs 0 < low <= high < inf"):
            FitConfig(start_box={"beta": bounds})

    @pytest.mark.parametrize(
        "baseline, data, name",
        [
            ("weibull", [1e307, 1.1e307, 1.5e307], "sigma"),  # the mean times 100 overflows
            ("exponentiated_pareto", [5e-324, 1.0, 2.0], "theta_p"),  # 1e-3 of the smallest is 0
        ],
        ids=["weibull-sigma", "exponentiated-pareto-theta-p"],
    )
    def test_a_default_range_outside_the_domain_is_a_usage_error(self, baseline, data, name):
        # refused before any log of the box or restart, so no RuntimeWarning escapes either
        with pytest.raises(ValueError, match=rf"default range of '{name}' \(set start_box\['{name}'\] "
                                             rf"to replace it\) needs 0 < low <= high < inf, got \("):
            fit_mle(ModelTemplate(baseline, fixed=NESTED), data, FitConfig(starts=3))

    def test_a_start_box_in_the_domain_replaces_an_overflowing_default(self):
        data = [1e307, 1.1e307, 1.5e307]
        config = FitConfig(starts=3, start_box={"sigma": (1e305, 1e306)})
        assert math.isfinite(fit_mle(ModelTemplate("weibull", fixed=NESTED), data, config).log_likelihood)

    def test_a_default_box_sum_past_the_largest_double_does_not_warn(self):
        # the exponential rate's closed form needs sum t, which overflows: the rate keeps (0.05, 20)
        data = np.array([1e307, 1.7e308])
        assert _default_box(exp_reduction_template(), data) == {"lam": (0.05, 20.0)}

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

    @pytest.mark.parametrize("upper", [500.0, 1000.0])
    def test_wide_beta_box_overflows_no_start(self, upper):
        # with beta up to 500 or 1000, some start points have lam = sigma**(-beta)
        # past the largest double; they count as zero likelihood, and the fit
        # reaches the degenerate Weibull at beta ~ 47
        data = builtin_dataset("turbocharger").values
        result = fit_mle(ModelTemplate("weibull"), data, FitConfig(start_box={"beta": (0.05, upper)}))
        assert result.log_likelihood == pytest.approx(-77.494, abs=1e-3)
        assert any(math.isinf(r.start["lam"]) for r in result.trace)

    def test_pinned_coordinates_report_no_wald_numbers(self):
        # the six-parameter turbocharger fit ends on the box in alpha and beta:
        # their SEs and intervals are NaN (null in JSON), the other four finite
        data = builtin_dataset("turbocharger").values
        result = fit_mle(ModelTemplate("weibull"), data, FitConfig(seed=0))
        assert result.at_boundary == ("alpha", "beta") and result.information_pd
        doc = json.loads(result.to_json())
        for name in ("alpha", "beta"):
            assert math.isnan(result.std_errors[name])
            assert doc["se"][name] is None and doc["ci"][name] == [None, None]
        for name in ("m", "n", "theta", "lam"):
            assert math.isfinite(result.std_errors[name]) and result.std_errors[name] > 0
            assert all(math.isfinite(v) for v in result.conf_intervals[name])
        assert np.all(np.isfinite(result.covariance))
        # in 2 of 24 restarts only: this likelihood has no interior optimum
        assert result.restarts_at_best == 2

    def test_restarts_at_best_of_an_interior_fit(self):
        data = builtin_dataset("turbocharger").values
        result = fit_mle(ModelTemplate("weibull", fixed=NESTED), data, FitConfig(seed=0))
        assert result.converged and result.restarts_at_best == 24
        assert "restarts_at_best" not in result.to_dict()

    def test_multistart_stability_across_seeds(self):
        # this likelihood has no interior optimum (see test_boundary_fits),
        # so refits agree only to the box-constrained search resolution,
        # not to the 1e-9 tie tolerance; 0.05 in log-likelihood is the observed spread
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

    @pytest.mark.parametrize(
        "tpl, stuck",
        [
            (ModelTemplate("weibull", fixed=NESTED), False),
            (ModelTemplate("weibull"), False),
            (ModelTemplate("exponentiated_pareto", fixed=NESTED), True),
        ],
        ids=["weibull-nested", "weibull-six", "exponentiated-pareto-stuck"],
    )
    def test_the_report_is_one_restart_record(self, tpl, stuck):
        data = builtin_dataset("turbocharger").values
        # the stuck fit of the test above, whose best restart never moved
        box = {"theta_p": (0.5 * data.min(), 2.0 * data.min())}
        config = FitConfig(starts=4, seed=4, start_box=box) if stuck else FitConfig()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = fit_mle(tpl, data, config)
        chosen = [
            r for r in result.trace
            if r.end == result.estimates and r.neg_log_lik == -result.log_likelihood
            and r.at_bound == result.at_boundary
        ]
        assert chosen, "the estimates, log-likelihood and pins are one restart's, exactly"
        assert all(result.converged == (r.status == 0 and r.moved and not r.at_bound) for r in chosen)
        assert chosen[0].moved is not stuck

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

    def test_observations_below_a_fixed_support_edge_are_rejected(self):
        # checked once, before any restart runs: Z = ln(t/k) needs t >= k
        tpl = ModelTemplate("extended_weibull", fixed=NESTED, options={"z": "log_ratio", "k": 2.0})
        with pytest.raises(ValueError, match=r"indices \[0\] are below the support edge 2 "):
            fit_mle(tpl, [1.0, 3.0, 4.0, 5.0, 6.0], FitConfig(starts=2))
        # a fixed exponentiated-Pareto location is a fixed edge too
        tpl = ModelTemplate("exponentiated_pareto", fixed=dict(NESTED, theta_p=2.5))
        with pytest.raises(ValueError, match=r"indices \[0, 1\] are below the support edge 2.5 "):
            fit_mle(tpl, [1.0, 2.0, 3.0, 4.0], FitConfig(starts=2))

    @pytest.mark.parametrize("bad_value, tail", [
        (math.nan, r"^non-finite observations at indices \[0, 2, 4, 6, 8, \.\.\.\] \(5000 of 10000\)$"),
        (-1.0, r"^observations at indices \[0, 2, 4, 6, 8, \.\.\.\] \(5000 of 10000\) are outside the support$"),
        (1.0, r"^observations at indices \[0, 2, 4, 6, 8, \.\.\.\] \(5000 of 10000\) are below the support edge 2 "
              r"of extended_weibull$"),
    ])
    def test_many_bad_observations_are_named_by_the_first_five_and_a_count(self, bad_value, tail):
        tpl = ModelTemplate("extended_weibull", fixed=NESTED, options={"z": "log_ratio", "k": 2.0})
        data = np.where(np.arange(10_000) % 2 == 0, bad_value, 3.0)
        with pytest.raises(ValueError, match=tail) as error:
            fit_mle(tpl, data, FitConfig(starts=1))
        assert len(str(error.value)) < 200

    def test_a_free_location_above_an_observation_is_zero_likelihood(self):
        # a free exponentiated-Pareto location moves the edge, so each
        # evaluation checks it; on the smallest observation it is evaluated
        # at the edge's floor, as the sum of log densities is
        data = np.array([1.0, 3.0, 4.0, 5.0, 6.0])
        tpl = ModelTemplate("exponentiated_pareto", fixed=NESTED)
        lik = _Likelihood(tpl, data)
        value, grad = lik([2.0, 1.0, 1.0])
        assert value == -math.inf and np.all(np.isnan(grad))
        for theta_p in (0.5, 1.0):
            assert lik([theta_p, 1.0, 1.0])[0] == oracles.log_pdf_sum(tpl, [theta_p, 1.0, 1.0], data)
            assert math.isfinite(lik([theta_p, 1.0, 1.0])[0])
        result = fit_mle(tpl, data, FitConfig(starts=4, start_box={"theta_p": (0.5, 3.0)}))
        stuck = [r for r in result.trace if r.start["theta_p"] > 1.0]
        assert stuck and all(r.neg_log_lik == math.inf and not r.moved for r in stuck)
        assert math.isfinite(result.log_likelihood)

    def test_no_restart_with_a_finite_likelihood(self):
        # a free location whose box lies above the smallest observation gives
        # every trial point zero likelihood, so no restart moves
        data = np.array([1.0, 3.0, 4.0, 5.0, 6.0])
        tpl = ModelTemplate("exponentiated_pareto", fixed=NESTED)
        config = FitConfig(starts=2, start_box={"theta_p": (2.0, 3.0)})
        with pytest.raises(FitError, match="all 2 restarts produced non-finite likelihood"):
            fit_mle(tpl, data, config)

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
        with pytest.raises(ValueError, match="positive"):
            fixed = ModelTemplate("weibull", fixed={name: bad})
            fixed.build(np.ones(fixed.k_params))

    @pytest.mark.parametrize(
        "baseline, fixed, message",
        [
            ("weibull", {"lam": -1.0}, "parameter lam "),
            ("weibull", {"lam": math.inf}, "parameter lam must be positive and finite, got inf"),
            ("exponentiated_pareto", {"theta_p": math.nan}, "parameter theta_p must be positive and finite"),
            ("weibull", {"m": 0.0}, "parameter m "),
            # the modified Weibull's coefficients may each be 0, but not both
            ("modified_weibull", {"sigma": 0.0, "beta": 0.0}, r"sigma \+ beta > 0"),
        ],
    )
    def test_construction_rejects_fixed_values_outside_the_domain(self, baseline, fixed, message):
        with pytest.raises(ValueError, match=message):
            ModelTemplate(baseline, fixed=fixed)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelTemplate("gaussian")
        with pytest.raises(ValueError):
            ModelTemplate("weibull", fixed={"zeta": 1.0})
        with pytest.raises(ValueError, match=r"options \['k'\] not in \(\) for weibull"):
            ModelTemplate("weibull", options={"k": 2.0})

    def test_search_names(self):
        six = ModelTemplate("weibull")
        assert six.search_names == ("m", "n", "theta", "alpha", "sigma", "beta")
        assert six._scale == (4, 5)
        # with beta fixed, lam is searched as it is
        rate = ModelTemplate("weibull", fixed={"beta": 2.0})
        assert rate.search_names == rate.free_names == ("m", "n", "theta", "alpha", "lam")
        assert rate._scale is None

    def test_a_free_support_edge_is_its_own_coordinate_checked_per_evaluation(self):
        tpl = ModelTemplate("exponentiated_pareto", fixed=NESTED)
        assert tpl.search_names == tpl.free_names == ("theta_p", "k", "gamma")
        assert tpl._support_edge is None and tpl._scale is None
        lik = _Likelihood(tpl, [1.0, 3.0, 4.0])
        assert math.isfinite(lik([0.5, 2.0, 1.5])[0])
        assert lik([2.0, 2.0, 1.5])[0] == -math.inf  # the location is above the smallest observation


# the lockstep template cases: every baseline six-parameter and nested
LOCKSTEP_CASES = [
    (tag, options, fixed)
    for tag, options in KERNEL_CASES
    for fixed in ({}, NESTED)
]


def minimize_runs(lik, starts, lo, hi, max_iter, maxfun):
    """One ``scipy.optimize.minimize`` L-BFGS-B run per start: the reference ``_lockstep`` must match."""
    from scipy.optimize import minimize

    options = dict(maxiter=max_iter, ftol=_F_TOL, maxfun=maxfun)
    bounds = list(zip(lo, hi))
    return [
        minimize(lik.objective, x0, jac=True, method="L-BFGS-B", bounds=bounds, options=options)
        for x0 in starts
    ]


def assert_lockstep_matches_minimize(tpl, data, starts, lo, hi, max_iter=2000, maxfun=15000):
    """``maxfun`` is scipy's evaluation limit, which must equal ``fitting._MAXFUN``."""
    lik = _Likelihood(tpl, data)
    runs = _lockstep(lik.objective, starts, lo, hi, max_iter)
    for run, want in zip(runs, minimize_runs(lik, starts, lo, hi, max_iter, maxfun), strict=True):
        np.testing.assert_array_equal(run.x, want.x)
        np.testing.assert_array_equal(run.jac, want.jac)
        assert (run.fun, run.nfev, run.status, run.message) == (
            want.fun, want.nfev, want.status, want.message
        )
        assert run.seconds >= 0
    return runs


class TestLockstep:
    """``fit_mle`` drives scipy's private ``setulb`` itself, all restarts in lockstep.

    Every run must be bit for bit the run ``scipy.optimize.minimize`` makes
    from the same start, so that a change in scipy's routine fails here
    rather than moving fits silently.
    """

    @staticmethod
    def box(tpl, data, start_box=None):
        box = dict(_default_box(tpl, data), **(start_box or {}))
        names = tpl.search_names
        return np.log([box[n][0] for n in names]), np.log([box[n][1] for n in names])

    @pytest.mark.parametrize(
        "baseline, options, fixed", LOCKSTEP_CASES,
        ids=[f"{tag}{'-' + opt['z'] if opt else ''}-{'nested' if fixed else 'six'}"
             for tag, opt, fixed in LOCKSTEP_CASES],
    )
    def test_every_run_is_the_minimize_run(self, baseline, options, fixed):
        tpl = ModelTemplate(baseline, fixed=fixed, options=options)
        data = builtin_dataset("turbocharger").values
        lo, hi = self.box(tpl, data)
        starts = lo + np.random.default_rng(25).random((3, len(lo))) * (hi - lo)
        assert_lockstep_matches_minimize(tpl, data, starts, lo, hi)

    def test_an_iteration_limited_run(self):
        tpl = ModelTemplate("weibull")
        data = builtin_dataset("turbocharger").values
        lo, hi = self.box(tpl, data)
        starts = lo + np.random.default_rng(3).random((4, len(lo))) * (hi - lo)
        runs = assert_lockstep_matches_minimize(tpl, data, starts, lo, hi, max_iter=3)
        assert {run.status for run in runs} == {1}

    def test_an_evaluation_limited_run(self, monkeypatch):
        monkeypatch.setattr(fitting, "_MAXFUN", 5)
        tpl = ModelTemplate("weibull")
        data = builtin_dataset("turbocharger").values
        lo, hi = self.box(tpl, data)
        starts = lo + np.random.default_rng(3).random((4, len(lo))) * (hi - lo)
        runs = assert_lockstep_matches_minimize(tpl, data, starts, lo, hi, maxfun=5)
        assert {run.status for run in runs} == {1}

    def test_a_run_pinned_on_a_bound(self):
        # the nested Weibull's beta is about 3.9 on these data, above this box
        tpl = ModelTemplate("weibull", fixed=NESTED)
        data = builtin_dataset("turbocharger").values
        lo, hi = self.box(tpl, data, {"beta": (0.5, 2.0)})
        starts = lo + np.random.default_rng(4).random((3, 2)) * (hi - lo)
        runs = assert_lockstep_matches_minimize(tpl, data, starts, lo, hi)
        assert all(_pinned(("sigma", "beta"), run.x, run.jac, lo, hi) == ("beta",) for run in runs)

    def test_a_start_of_zero_likelihood(self):
        # a location above the smallest observation: L-BFGS-B stays at that start
        data = np.array([1.0, 3.0, 4.0, 5.0, 6.0])
        tpl = ModelTemplate("exponentiated_pareto", fixed=NESTED)
        lo, hi = self.box(tpl, data, {"theta_p": (0.5, 3.0)})
        starts = np.array([[np.log(2.0), 0.3, 0.1], [np.log(0.6), 1.0, -0.5]])
        runs = assert_lockstep_matches_minimize(tpl, data, starts, lo, hi)
        assert runs[0].fun == math.inf and np.array_equal(runs[0].x, starts[0])
        assert math.isfinite(runs[1].fun)

    def test_a_coordinate_whose_ends_are_equal(self):
        tpl = ModelTemplate("weibull", fixed=NESTED)
        data = builtin_dataset("turbocharger").values
        lo, hi = self.box(tpl, data, {"beta": (3.0, 3.0)})
        starts = lo + np.random.default_rng(5).random((3, 2)) * (hi - lo)
        runs = assert_lockstep_matches_minimize(tpl, data, starts, lo, hi)
        assert all(run.x[1] == math.log(3.0) for run in runs)

    def test_a_box_with_every_coordinate_fixed(self):
        # minimize reports no status here; each lockstep run stops at once on the box's one point
        tpl = ModelTemplate("weibull", fixed=NESTED)
        data = builtin_dataset("turbocharger").values
        result = fit_mle(tpl, data, FitConfig(starts=2, start_box={"sigma": (6.0, 6.0), "beta": (3.0, 3.0)}))
        assert result.estimates["beta"] == pytest.approx(3.0, rel=1e-15)
        assert all(r.nfev == 1 and r.status == 0 and not r.moved for r in result.trace)
        assert not result.converged

    def test_an_upper_bound_below_its_lower_one(self):
        # FitConfig refuses such a start_box range, so the box is passed to _lockstep itself
        tpl = ModelTemplate("weibull", fixed=NESTED)
        data = builtin_dataset("turbocharger").values
        lo, hi = self.box(tpl, data, {"beta": (3.0, 2.0)})
        with pytest.raises(ValueError, match="upper bound is less than"):
            _lockstep(_Likelihood(tpl, data).objective, [lo], lo, hi, 10)

    def test_a_scipy_without_the_private_routine_is_named(self, monkeypatch):
        import scipy

        monkeypatch.setitem(sys.modules, "scipy.optimize._lbfgsb", None)
        message = (r"the fitter steps scipy 1\.17's private L-BFGS-B routine setulb, .* installed scipy "
                   + re.escape(scipy.__version__))
        with pytest.raises(ImportError, match=message):
            fit_mle(ModelTemplate("weibull", fixed=NESTED), builtin_dataset("turbocharger").values)


# a Weibull (lam, beta) in the domain whose likelihood is zero: the cumulative hazard
# 1e300 t**200 overflows above t = 1.1, at every turbocharger observation and at nicotine's largest
ZERO_LIKELIHOOD = (1e300, 200.0)


def block_cases():
    """Per template case: the data and a block of free values, with rows outside the domain.

    The Weibull cases add a last row that the mask keeps but whose likelihood is zero
    (``ZERO_LIKELIHOOD``), and run on nicotine too, the distinct-value path.
    """
    for tag, options in KERNEL_CASES:
        for fixed, name in itertools.product(
            ({}, NESTED), ("turbocharger", "nicotine") if tag == "weibull" else ("turbocharger",)
        ):
            data = builtin_dataset(name).values
            tpl = ModelTemplate(tag, fixed=fixed, options=options)
            lo, hi = np.log([_default_box(tpl, data)[n] for n in tpl.search_names]).T
            values = _to_params(lo + np.random.default_rng(9).random((8, len(lo))) * (hi - lo),
                                tpl._scale)
            values[1, -1] = -1.0  # outside every baseline's domain
            # exponents numpy takes by special code when given as a number (x ** 2.0 is x * x)
            values[5:] = np.array([2.0, 0.5, 1.0])[:, None]
            if tag == "exponentiated_pareto":
                theta_p = tpl.free_names.index("theta_p")
                values[2, theta_p] = data.min()  # the edge on the smallest observation
                values[3, theta_p] = 2.0 * data.min()  # an observation below the edge
            if not fixed:
                values[4, 0] = math.inf  # a shape outside its domain
            if tag == "weibull":  # lam and beta are the last two free values
                values = np.vstack([values, values[0]])
                values[-1, -2:] = ZERO_LIKELIHOOD
            yield pytest.param(tpl, data, values, id=f"{tag}{'-' + options['z'] if options else ''}-"
                               f"{'nested' if fixed else 'six'}{'' if name == 'turbocharger' else '-' + name}")


def search_point(tpl, values):
    """The search point of free values: their logs, with log sigma = -log(lam)/beta for a Weibull scale."""
    x = np.log(values)
    if tpl._scale is not None:
        i, j = tpl._scale
        x[..., i] = -x[..., i] / values[..., j]
    return x


def compressed_cases():
    """Per template and sample where most observations repeat one (nicotine, 19 distinct
    of 346, and a scrambled sample of 30 values drawn 8 times each): a 14-row block of free
    values in the default box, with the exponentiated-Pareto location on the smallest
    observation, and the central steps around its first row as ``observed_information``
    takes them."""
    rng = np.random.default_rng(7)
    samples = {
        "nicotine": builtin_dataset("nicotine").values,
        "tied": rng.permutation(np.repeat(rng.gamma(2.0, 0.5, 30).round(3), 8)),
    }
    templates = {
        "weibull-six": ModelTemplate("weibull"),
        "weibull-nested": ModelTemplate("weibull", fixed=NESTED),
        "frechet-six": ModelTemplate("frechet"),
        "frechet-nested": ModelTemplate("frechet", fixed=NESTED),
        "exponentiated-pareto-six": ModelTemplate("exponentiated_pareto"),
    }
    for name, data in samples.items():
        for tag, tpl in templates.items():
            lo, hi = np.log([_default_box(tpl, data)[n] for n in tpl.search_names]).T
            values = _to_params(lo + np.random.default_rng(3).random((14, len(lo))) * (hi - lo), tpl._scale)
            if "theta_p" in tpl.free_names:
                values[:, tpl.free_names.index("theta_p")] = data.min()
            x = values[0]
            stepped = np.array([p for e in np.diag(1e-4 * x) for p in (x + e, x - e)])
            yield pytest.param(tpl, data, values, stepped, id=f"{tag}-{name}")


def direct_pass(lik):
    """The kernel bound to every observation in data order, as where no value repeats."""
    direct = _Likelihood(lik.template, lik.t)
    direct.points, direct.inverse = Points(lik.t), None
    return direct


class TestBatchedKernel:
    """Row b of a block call is the one-vector call at row b, bit for bit."""

    @pytest.mark.parametrize("tpl, data, values, stepped", compressed_cases())
    def test_distinct_values_give_the_direct_pass(self, tpl, data, values, stepped):
        # evaluated once per distinct value and put back in data order before each sum
        lik = _Likelihood(tpl, data)
        assert lik.inverse is not None and len(lik.points.t) < len(data) / 2
        direct = direct_pass(lik)
        for block in (values[0], values, stepped):
            totals, scores = lik(block)
            want_totals, want_scores = direct(block)
            np.testing.assert_array_equal(totals, want_totals)
            np.testing.assert_array_equal(scores, want_scores)
        assert np.all(np.isfinite(lik(values)[0])), "every row of the block is evaluated"
        assert lik(values[0])[0] == oracles.log_pdf_sum(tpl, values[0], data)

    def test_at_least_half_repeated_binds_the_distinct_values(self):
        for name in ("turbocharger", "carbon_fibres"):  # 34 of 40 and 80 of 100 distinct
            data = builtin_dataset(name).values
            lik = _Likelihood(ModelTemplate("weibull"), data)
            assert lik.inverse is None and lik.points.t is lik.t
        data = builtin_dataset("nicotine").values
        lik = _Likelihood(ModelTemplate("weibull"), data)
        assert len(data) == 346 and len(lik.points.t) == 19
        np.testing.assert_array_equal(lik.points.t, np.unique(data))
        np.testing.assert_array_equal(lik.points.t[lik.inverse], data)

    @pytest.mark.parametrize("tpl, data, values", block_cases())
    def test_rows_equal_one_vector_calls(self, tpl, data, values):
        lik = _Likelihood(tpl, data)
        totals, scores = lik(values)
        assert totals.shape == (len(values),) and scores.shape == values.shape
        for row, total, got in zip(values, totals, scores):
            try:
                want = lik(row)
            except ValueError:
                want = (-math.inf, np.full(len(row), math.nan))
            assert total == want[0]
            np.testing.assert_array_equal(got, want[1])
        assert totals[1] == -math.inf

    @pytest.mark.parametrize("tpl, data, values", block_cases())
    def test_objective_rows_equal_one_point_calls(self, tpl, data, values):
        lik = _Likelihood(tpl, data)
        with np.errstate(invalid="ignore"):
            x = np.log(values)
        fs, gs = lik.objective(x)
        for point, f, g in zip(x, fs, gs):
            want = lik.objective(point)
            assert f == want[0]
            np.testing.assert_array_equal(g, want[1])

    @pytest.mark.parametrize(
        "tpl, data, values", [case for case in block_cases() if case.values[0].baseline == "weibull"]
    )
    def test_an_in_domain_row_of_zero_likelihood(self, tpl, data, values):
        lik = _Likelihood(tpl, data)
        zero = values[-1]
        tpl.build(zero)  # in the domain, so the mask keeps it
        total, got = lik(zero)
        assert total == -math.inf and np.all(np.isnan(got))
        totals, scores = lik(values)  # its block-mates are their one-row calls (test_rows_equal_one_vector_calls)
        assert totals[-1] == -math.inf and np.all(np.isnan(scores[-1]))
        f, g = lik.objective(search_point(tpl, zero))
        assert f == math.inf and np.all(g == 0.0)

    def test_a_one_row_block_is_a_vector_call(self):
        data = builtin_dataset("turbocharger").values
        lik = _Likelihood(ModelTemplate("weibull"), data)
        values = np.array([[1.3, 0.9, 1.1, 2.0, 0.01, 2.5]])
        totals, scores = lik(values)
        total, score_ = lik(values[0])
        assert totals[0] == total
        np.testing.assert_array_equal(scores[0], score_)
        values[0, 0] = -1.0
        totals, scores = lik(values)
        assert totals[0] == -math.inf and np.all(np.isnan(scores[0]))

    @pytest.mark.parametrize("cls", list(BASELINE_FAMILIES.values()), ids=list(BASELINE_FAMILIES))
    def test_in_domain_agrees_with_construction(self, cls):
        edge = [-1.0, -0.0, 0.0, 5e-324, 0.7, math.inf, math.nan]
        for values in itertools.product(edge, repeat=len(cls.param_names)):
            try:
                cls(*values)
                valid = True
            except ValueError:
                valid = False
            assert bool(cls._in_domain(*values)) is valid, values
        columns = [np.array(column) for column in zip(*itertools.product(edge, repeat=len(cls.param_names)))]
        by_row = [bool(cls._in_domain(*row)) for row in zip(*columns)]
        assert cls._in_domain(*columns).tolist() == by_row

    @pytest.mark.parametrize(
        "tpl, x",
        [
            (ModelTemplate("weibull"), [0.3107, 0.2833, 0.5414, 0.3384, 3.6325, 2.9785]),
            (ModelTemplate("weibull", fixed=NESTED), [0.0123, 3.87]),
            (ModelTemplate("modified_weibull", fixed=NESTED), [0.0, 0.8, 1.5]),
            (ModelTemplate("modified_weibull", fixed=NESTED), [0.7, 0.0, 1.5]),
        ],
        ids=["weibull-six", "weibull-nested", "modified-weibull-sigma0", "modified-weibull-beta0"],
    )
    def test_observed_information_equals_score_by_score(self, tpl, x):
        # one batch of stepped points gives the differences of the public score, one point at a time
        data = builtin_dataset("turbocharger").values
        x = np.array(x)

        def s(step):
            return score(tpl, x + step, data)

        H = np.array([
            (4.0 * s(e) - s(2.0 * e) - 3.0 * s(0.0)) / (2.0 * e[i]) if x[i] == 0.0
            else (s(e) - s(-e)) / (2.0 * e[i])
            for i, e in enumerate(np.diag(np.where(x == 0.0, 1e-6, 1e-4 * np.abs(x))))
        ])
        np.testing.assert_array_equal(observed_information(tpl, x, data), -0.5 * (H + H.T))


BLOCK_CASES = [case.values for case in block_cases()]


@settings(max_examples=200)
@given(data=st.data())
def test_a_row_does_not_depend_on_its_block_mates(data):
    # the lockstep rests on this: any subset of a block_cases block, in any order, with rows
    # outside the domain and rows of zero likelihood, gives each row its one-row result exactly
    tpl, sample, values = data.draw(st.sampled_from(BLOCK_CASES))
    order = data.draw(st.lists(st.integers(0, len(values) - 1), min_size=1, max_size=len(values), unique=True))
    lik = _Likelihood(tpl, sample)
    block = values[order]
    with np.errstate(all="ignore"):  # the logs of values outside the domain
        x = search_point(tpl, block)
    (totals, scores), (fs, gs) = lik(block), lik.objective(x)
    for row, point, total, got, f, g in zip(block, x, totals, scores, fs, gs):
        want, want_objective = lik(row), lik.objective(point)
        assert total == want[0] and f == want_objective[0]
        np.testing.assert_array_equal(got, want[1])
        np.testing.assert_array_equal(g, want_objective[1])
