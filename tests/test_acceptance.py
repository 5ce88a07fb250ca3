"""End-to-end acceptance checks.

One test per numbered criterion; each prints a single PASS/FAIL line (visible
with ``pytest -s`` or on failure) and asserts at its stated tolerance.
"""

import itertools
import math
import time

import numpy as np

import oracles
from bgmo.baselines import Exponential, Frechet, Lomax, Weibull
from bgmo.datasets import builtin_dataset
from bgmo.family import BgmoDistribution, BgmoParams
from bgmo.fitting import FitConfig, ModelTemplate, fit_mle, info_criteria, score, wald_interval
from bgmo.series import asymptote, cdf_via_expansion, pdf_via_expansion, renyi_entropy
from bgmo.series import _support_quad  # the library integrator, cross-checked in unit tests


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def fit_weibull_model(dataset_name, seed=0):
    data = builtin_dataset(dataset_name).values
    return fit_mle(ModelTemplate("weibull"), data, FitConfig(seed=seed))


CRITERIA_TABLES = {
    # dataset: (logL floor, reference l, n, expected aic/bic/caic/hqic)
    "turbocharger": (-80.88, -80.38, 40, (172.76, 182.89, 175.31, 176.43)),
    "nicotine": (-109.78, -109.28, 346, (230.56, 253.64, 230.80, 239.76)),
    "carbon_fibres": (-141.79, -141.29, 100, (294.58, 310.21, 295.48, 300.92)),
}


class TestTableReproduction:
    def test_c01_turbocharger(self):
        floor, pub_l, n, expected = CRITERIA_TABLES["turbocharger"]
        t0 = time.time()
        result = fit_weibull_model("turbocharger")
        elapsed = time.time() - t0
        crit = info_criteria(pub_l, 6, n)
        gaps = [abs(c - e) for c, e in zip(crit, expected)]
        ok = (
            result.log_likelihood >= floor
            and result.aic <= expected[0] + 1.0
            and all(g <= 0.01 for g in gaps)
            and elapsed < 60.0
        )
        report(
            1,
            ok,
            f"turbocharger logL={result.log_likelihood:.3f} (floor {floor}), "
            f"AIC={result.aic:.3f} (cap {expected[0] + 1.0}), criteria gaps "
            f"{['%.4f' % g for g in gaps]}, {elapsed:.1f}s",
        )

    def test_c02_nicotine(self):
        floor, pub_l, n, expected = CRITERIA_TABLES["nicotine"]
        result = fit_weibull_model("nicotine")
        crit = info_criteria(pub_l, 6, n)
        gaps = [abs(c - e) for c, e in zip(crit, expected)]
        ok = result.log_likelihood >= floor and all(g <= 0.01 for g in gaps)
        report(
            2,
            ok,
            f"nicotine logL={result.log_likelihood:.3f} (floor {floor}), "
            f"criteria gaps {['%.4f' % g for g in gaps]}",
        )

    def test_c03_carbon_fibres(self):
        floor, pub_l, n, expected = CRITERIA_TABLES["carbon_fibres"]
        result = fit_weibull_model("carbon_fibres")
        crit = info_criteria(pub_l, 6, n)
        gaps = [abs(c - e) for c, e in zip(crit, expected)]
        ok = result.log_likelihood >= floor and all(g <= 0.01 for g in gaps)
        report(
            3,
            ok,
            f"carbon logL={result.log_likelihood:.3f} (floor {floor}), "
            f"criteria gaps {['%.4f' % g for g in gaps]} "
            f"(computed hqic={crit.hqic:.4f} vs reference {expected[3]})",
        )


class TestWald:
    def test_c04_wald_intervals(self):
        a = wald_interval(1.187, 0.702, 0.05)
        b = wald_interval(4.194, 0.668, 0.05)
        ok = (
            abs(a[0] - (-0.19)) <= 0.01
            and abs(a[1] - 2.56) <= 0.01
            and abs(b[0] - 2.88) <= 0.01
            and abs(b[1] - 5.50) <= 0.01
        )
        report(4, ok, f"intervals ({a[0]:.4f}, {a[1]:.4f}) and ({b[0]:.4f}, {b[1]:.4f})")


class TestNormalization:
    def test_c05_density_integrates_to_one(self):
        baselines = [Exponential(1.0), Weibull(1.0, 2.0), Lomax(2.0, 1.0), Frechet(2.0, 1.0)]
        grid = (0.5, 1.0, 2.5)
        worst = 0.0
        count = 0
        for b in baselines:
            for m, n, th, al in itertools.product(grid, repeat=4):
                d = BgmoDistribution(BgmoParams(m, n, th, al), b)
                worst = max(worst, abs(_support_quad(d.pdf, b) - 1.0))
                count += 1
        ok = count >= 324 and worst <= 1e-6
        report(5, ok, f"{count} cases, worst |integral - 1| = {worst:.3g}")


class TestQuantileRoundTrip:
    def test_c06_round_trip(self):
        rng = np.random.default_rng(20260810)
        baselines = [Exponential(1.0), Weibull(1.0, 2.0), Lomax(2.0, 1.0), Frechet(2.0, 1.0)]
        us = np.arange(1, 100) / 100.0
        worst = 0.0
        for k in range(20):
            p = np.exp(rng.uniform(math.log(0.25), math.log(4.0), size=4))
            d = BgmoDistribution(BgmoParams(*p), baselines[k % 4])
            worst = max(worst, float(np.max(np.abs(d.cdf(d.quantile(us)) - us))))
        ok = worst <= 1e-8
        report(6, ok, f"20 draws x 99 levels, worst |F(Q(u)) - u| = {worst:.3g}")


class TestReductions:
    def test_c07_reduction_identities(self):
        cases = [
            (BgmoParams(1, 1, 1, 1), "mo"),
            (BgmoParams(1, 1, 1, 2.5), "mo"),
            (BgmoParams(1, 1, 2, 3), "gmo"),
            (BgmoParams(2, 3, 1, 2), "bmo"),
            (BgmoParams(0.7, 1.6, 1, 0.4), "bmo"),
            (BgmoParams(2, 3, 1, 1), "beta_g"),
        ]
        worst = 0.0
        for baseline in (Exponential(1.0), Weibull(1.0, 2.0)):
            for params, target in cases:
                d = BgmoDistribution(params, baseline)
                worst = max(worst, oracles.reduction_gap(d, target))
        ok = worst <= 1e-12
        report(7, ok, f"max pointwise pdf gap across targets = {worst:.3g}")


class TestSeriesEquivalence:
    def test_c08_expansions(self):
        exp1 = Exponential(1.0)
        integer_models = [
            BgmoDistribution(BgmoParams(2, 2, 1, 1), exp1),
            BgmoDistribution(BgmoParams(2, 1, 2, 1.5), exp1),
            BgmoDistribution(BgmoParams(3, 2, 1, 0.5), Weibull(1.0, 2.0)),
        ]
        worst_int = 0.0
        for d in integer_models:
            for u in (0.15, 0.35, 0.55, 0.75, 0.9):
                t = float(d.quantile(u))
                pdf = d.pdf(t)
                cdf = d.cdf(t)
                worst_int = max(
                    worst_int,
                    abs(pdf_via_expansion(d, t, "survival_powers").value - pdf),
                    abs(pdf_via_expansion(d, t, "cdf_powers").value - pdf),
                    abs(cdf_via_expansion(d, t, "cdf_powers").value - cdf),
                    abs(cdf_via_expansion(d, t, "order_stat_identity").value - cdf),
                )
        # for real m only the survival-power expansion is an absolutely
        # convergent series; the cdf-power re-expansion mixes unboundedly
        # growing alternating binomials and has no convergence guarantee there
        noninteger_models = [
            BgmoDistribution(BgmoParams(2.5, 1.3, 0.7, 1.5), Weibull(1.0, 2.0)),
            BgmoDistribution(BgmoParams(3.3, 1.1, 1.2, 0.8), exp1),
        ]
        worst_real = 0.0
        for d in noninteger_models:
            for u in (0.25, 0.5, 0.75):
                t = float(d.quantile(u))
                pdf = d.pdf(t)
                worst_real = max(
                    worst_real,
                    abs(pdf_via_expansion(d, t, "survival_powers").value - pdf),
                )
        ok = worst_int <= 1e-9 and worst_real <= 1e-6
        report(
            8,
            ok,
            f"integer-parameter worst gap {worst_int:.3g} (tol 1e-9), "
            f"real-m 60-term worst gap {worst_real:.3g} (tol 1e-6)",
        )


class TestScoreCorrectness:
    def test_c09_analytic_vs_finite_difference(self):
        rng = np.random.default_rng(4)
        data = rng.exponential(1.0, 70) + 0.05
        worst = 0.0
        for baseline in ("exponential", "weibull"):
            tpl = ModelTemplate(baseline)
            for _ in range(20):
                values = {
                    name: float(rng.uniform(0.4, 3.0)) for name in ("m", "n", "theta", "alpha")
                }
                values["lam"] = float(rng.uniform(0.4, 2.0))
                if baseline == "weibull":
                    values["beta"] = float(rng.uniform(0.6, 2.5))
                sa = score(tpl, values, data)
                sf = oracles.finite_difference_score(tpl, values, data)
                worst = max(worst, float(np.max(np.abs(sa - sf) / np.maximum(np.abs(sf), 1e-6))))
        ok = worst <= 1e-5
        report(9, ok, f"max relative gradient gap over 40 interior points = {worst:.3g}")


class TestRenyi:
    def test_c10_entropy_consistency(self):
        default = 60
        # the non-integer-shape set has a genuinely infinite expansion whose
        # tail at 60 terms sits right at 1e-6, so it gets a larger budget
        sets = [
            (BgmoParams(2, 1.5, 0.8, 2.0), Weibull(1.0, 2.0), 2.0, default),
            (BgmoParams(2, 1, 1, 1.5), Exponential(1.0), 2.0, default),
            (BgmoParams(3, 2, 1, 0.5), Exponential(1.0), 2.0, default),
            (BgmoParams(1.5, 1, 2, 1), Weibull(1.0, 2.0), 3.0, 240),
            (BgmoParams(2, 2, 0.5, 3.0), Exponential(1.0), 2.0, default),
        ]
        worst = 0.0
        for params, baseline, delta, max_terms in sets:
            d = BgmoDistribution(params, baseline)
            gap = abs(
                renyi_entropy(d, delta, max_terms, method="series")
                - renyi_entropy(d, delta, max_terms, method="direct")
            )
            worst = max(worst, gap)
        red = BgmoDistribution(BgmoParams(1, 1, 1, 1), Exponential(1.0))
        closed_gap = max(
            abs(renyi_entropy(red, 2.0) - math.log(2)),
            abs(renyi_entropy(red, 0.5) - 2 * math.log(2)),
        )
        ok = worst <= 1e-6 and closed_gap <= 1e-8
        report(
            10,
            ok,
            f"series vs quadrature worst gap {worst:.3g} (tol 1e-6), "
            f"closed-form gap {closed_gap:.3g} (tol 1e-8)",
        )


class TestGenesis:
    def test_c11_order_statistic_monte_carlo(self):
        # with integer shapes (2, 2), the distribution is that of the middle
        # of 3 independent tilted-and-powered draws
        theta, alpha = 0.7, 2.0
        baseline = Exponential(1.0)
        d = BgmoDistribution(BgmoParams(2, 2, theta, alpha), baseline)
        reps = 20000
        rng = np.random.default_rng(1234)
        u = rng.random((reps, 3))
        draws = oracles.gmo_quantile(alpha, theta, baseline, u)
        middle = np.sort(np.sort(draws, axis=1)[:, 1])
        F = d.cdf(middle)
        hi = np.arange(1, reps + 1) / reps
        lo = np.arange(0, reps) / reps
        ks = max(float(np.max(np.abs(hi - F))), float(np.max(np.abs(F - lo))))
        crit = 1.63 / math.sqrt(reps)
        ok = ks < crit
        report(11, ok, f"KS distance {ks:.5f} vs 1% critical value {crit:.5f}")


class TestAsymptotes:
    def test_c12_tail_approximants(self):
        # ratios checked where the baseline cdf reaches 0.001 and 0.999,
        # matching the limits the approximants are derived in
        d = BgmoDistribution(BgmoParams(2.0, 1.5, 0.8, 2.0), Exponential(1.0))
        up = asymptote(d, "upper")
        t_hi = float(d.baseline.quantile(0.999))
        low = asymptote(d, "lower")
        t_lo = float(d.baseline.quantile(0.001))
        ratios = [
            d.pdf(t_hi) / up.pdf(t_hi),
            d.sf(t_hi) / up.tail_prob(t_hi),
            d.hrf(t_hi) / up.hrf(t_hi),
            d.pdf(t_lo) / low.pdf(t_lo),
            d.cdf(t_lo) / low.tail_prob(t_lo),
            d.hrf(t_lo) / low.hrf(t_lo),
        ]
        worst = max(abs(r - 1.0) for r in ratios)
        ok = worst <= 0.02
        report(12, ok, f"worst |ratio - 1| over f, tail probability, hazard = {worst:.4f}")
