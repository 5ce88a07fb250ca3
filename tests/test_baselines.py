import dataclasses
import math

import mpmath
import numpy as np
import pytest

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
    make_baseline,
)
from bgmo.family import BgmoDistribution, BgmoParams

ALL_FAMILIES = [
    Exponential(1.3),
    Weibull(0.8, 2.2),
    Lomax(2.5, 1.4),
    Frechet(2.0, 1.5),
    Gompertz(0.7, 0.9),
    ExtendedWeibull(1.2, ZFunction("square")),
    ModifiedWeibull(0.5, 0.8, 2.3),
    ExponentiatedPareto(0.8, 1.7, 2.4),
]


@pytest.mark.parametrize("b", ALL_FAMILIES, ids=lambda b: b.tag)
class TestCommonContracts:
    def test_pdf_matches_cdf_derivative(self, b):
        ts = b.quantile(np.linspace(0.05, 0.95, 15))
        h = 1e-6 * np.maximum(np.abs(ts), 1.0)
        num = (b.cdf(ts + h) - b.cdf(ts - h)) / (2 * h)
        np.testing.assert_allclose(num, b.pdf(ts), rtol=1e-6)

    def test_cdf_plus_sf_is_one(self, b):
        ts = b.quantile(np.linspace(0.01, 0.99, 30))
        np.testing.assert_allclose(b.cdf(ts) + b.sf(ts), 1.0, atol=1e-12)

    def test_quantile_right_inverse(self, b):
        us = np.linspace(0.01, 0.99, 49)
        np.testing.assert_allclose(b.cdf(b.quantile(us)), us, atol=1e-10)

    def test_isf_right_inverse(self, b):
        qs = np.array([1e-3, 1e-2, 0.1, 0.5, 0.9])
        np.testing.assert_allclose(b.sf(b.isf(qs)), qs, rtol=1e-9)
        # levels where 1 - q rounds to 1, checked in log space
        tiny = np.array([1e-20, 1e-100, 1e-300])
        np.testing.assert_allclose(b.log_sf(b.isf(tiny)), np.log(tiny), rtol=1e-9)

    def test_cdf_monotone(self, b):
        ts = np.linspace(b.support_low, float(b.quantile(0.999)), 200)
        vals = b.cdf(ts)
        assert np.all(np.diff(vals) >= -1e-15)

    def test_outside_support(self, b):
        below = b.support_low - 1.0
        assert b.pdf(below) == 0.0
        assert b.cdf(below) == 0.0
        assert b.sf(below) == 1.0
        assert b.log_pdf(below) == -math.inf
        assert b.log_sf(below) == 0.0
        assert b.log_cdf(below) == -math.inf
        # a mixed array is masked pointwise and matches the scalar calls
        ts = np.array([below, float(b.quantile(0.3)), below - 1.0, float(b.quantile(0.8))])
        inside = np.array([False, True, False, True])
        for name, outside in (("pdf", 0.0), ("cdf", 0.0), ("sf", 1.0), ("log_pdf", -math.inf),
                              ("log_sf", 0.0), ("log_cdf", -math.inf), ("hrf", 0.0)):
            fn = getattr(b, name)
            got = fn(ts)
            assert got.shape == ts.shape
            np.testing.assert_array_equal(got[~inside], outside)
            np.testing.assert_array_equal(got[inside], [fn(t) for t in ts[inside]])
            assert np.all(np.isfinite(got[inside]))

    def test_density_vanishes_at_infinity(self, b):
        # log g = log h' - h is inf - inf where h and h' both overflow
        assert b.pdf(math.inf) == 0.0
        assert b.log_pdf(math.inf) == -math.inf
        assert math.isfinite(b.pdf(1e308))
        log_g, _, _ = b.log_parts(np.array([1e308, math.inf]))
        assert log_g[1] == -math.inf and not np.isnan(log_g[0])

    def test_log_forms_consistent(self, b):
        ts = b.quantile(np.linspace(0.1, 0.9, 9))
        np.testing.assert_allclose(np.exp(b.log_pdf(ts)), b.pdf(ts), rtol=1e-12)
        np.testing.assert_allclose(np.exp(b.log_sf(ts)), b.sf(ts), rtol=1e-12)
        np.testing.assert_allclose(np.exp(b.log_cdf(ts)), b.cdf(ts), rtol=1e-10)

    def test_repr(self, b):
        # numeric parameters in %g form, options such as the Z kind as they are
        text = repr(b)
        assert text.startswith(f"{type(b).__name__}(") and text.endswith(")")
        for name, value in b.params().items():
            shown = f"{value:g}" if isinstance(value, float) else value
            assert f"{name}={shown}" in text


# every family once, the extended Weibull once per Z kind
PARTIALS_CASES = [b for b in ALL_FAMILIES if not isinstance(b, ExtendedWeibull)] + [
    ExtendedWeibull(1.2, ZFunction(kind, k=0.5, beta=0.7))
    for kind in ("linear", "square", "log_ratio", "gompertz_link")
]


def test_every_family_codes_one_cumulative_hazard():
    # the density, tails, quantile and isf all derive in Baseline from h, its
    # inverse and the rate log|h'|
    derived = {"_log_pdf", "_log_sf", "_quantile", "_isf", "_cdf", "_log_cdf", "_log_cum_hazard"}
    for cls in BASELINE_FAMILIES.values():
        assert {"_hazard", "_inv_hazard", "_log_rate"} <= set(vars(cls)), cls.__name__
        assert not derived & set(vars(cls)), cls.__name__


@pytest.mark.parametrize("b", ALL_FAMILIES + [Gompertz(1e-10, 1.0)], ids=lambda b: repr(b))
def test_each_call_evaluates_the_hazard_once(b, monkeypatch):
    # where h is -log sf the hazard rate is h' itself, so hrf needs no h at all;
    # at the support floor h underflows for most families (Gompertz(1e-10, 1)
    # has no closed-form log h), and log h is read there
    calls = []
    hazard = type(b)._hazard
    monkeypatch.setattr(type(b), "_hazard", lambda self, t: calls.append(1) or hazard(self, t))
    on = np.append(b.support_low, b.quantile(np.array([0.1, 0.5, 0.9])))
    for ts in (on, np.append(on, b.support_low - 1.0), float(on[1])):
        for name in ("log_parts", "log_tails", "log_pdf", "pdf", "hrf"):
            calls.clear()
            getattr(b, name)(ts)
            assert len(calls) == (0 if name == "hrf" and not b._lower_tail else 1), name


def test_exponentiated_pareto_takes_the_log_of_its_base_once_per_call(monkeypatch):
    # the cumulative hazard h = -gamma log(1 - (theta_p/t)^k) carries it to
    # the density's rate and to the partials
    calls = []
    log_base = ExponentiatedPareto._log_base
    monkeypatch.setattr(ExponentiatedPareto, "_log_base", lambda self, t: calls.append(1) or log_base(self, t))
    b = ExponentiatedPareto(0.3, 1.5, 2.0)
    ts = b.quantile(np.array([1e-10, 0.1, 0.5, 0.9]))
    for name in ("log_parts", "log_tails", "log_pdf", "pdf", "hrf", "log_partials"):
        calls.clear()
        getattr(b, name)(ts)
        assert len(calls) == 1, name


# the hazard rate h' in closed form, for every family whose h is -log sf
HAZARD_RATES = [
    (Exponential(1.3), lambda t: np.full_like(t, 1.3)),
    (Weibull(0.8, 2.2), lambda t: 0.8 * 2.2 * t**1.2),
    (Weibull(1.0, 0.5), lambda t: 0.5 * t**-0.5),
    (Lomax(2.5, 1.4), lambda t: 2.5 / (1.4 + t)),
    (Gompertz(0.7, 0.9), lambda t: 0.7 * np.exp(0.9 * t)),
    (ExtendedWeibull(1.2, ZFunction("linear")), lambda t: np.full_like(t, 1.2)),
    (ExtendedWeibull(1.2, ZFunction("square")), lambda t: 2.4 * t),
    (ExtendedWeibull(1.2, ZFunction("log_ratio", k=0.5)), lambda t: 1.2 / t),
    (ExtendedWeibull(1.2, ZFunction("gompertz_link", beta=0.7)), lambda t: 1.2 * np.exp(0.7 * t)),
    (ModifiedWeibull(0.5, 0.8, 2.3), lambda t: 0.5 + 0.8 * 2.3 * t**1.3),
    (ModifiedWeibull(0.0, 0.8, 0.5), lambda t: 0.4 * t**-0.5),
    (ModifiedWeibull(0.5, 0.0, 2.0), lambda t: np.full_like(t, 0.5)),
]


@pytest.mark.parametrize("b, rate", HAZARD_RATES, ids=[repr(b) for b, _ in HAZARD_RATES])
def test_hazard_rate_is_exact_where_h_is_huge_or_tiny(b, rate):
    # exp(log g - log sf) would lose about h*eps to the cancellation of h
    with np.errstate(all="ignore"):
        ts = b._inv_hazard(np.logspace(-300, 300, 31))
        # points below 1e-300 are evaluated at 1e-300, the support floor
        ts = np.append(ts[ts >= max(b.support_low, 1e-300)], math.inf)
        want = rate(ts)
    assert np.isfinite(want[:-1]).sum() >= 10
    np.testing.assert_allclose(b.hrf(ts), want, rtol=1e-12)
    assert b.hrf(math.inf) == want[-1]


@pytest.mark.parametrize(
    "b, rate", [(Frechet(2.0, 1.0), 2.0), (ExponentiatedPareto(1.0, 2.0, 1.5), 2.0)], ids=lambda v: repr(v)
)
def test_a_lower_tail_hazard_is_zero_at_infinity(b, rate):
    # g/sf falls as rate/t (lam/t, k/t); at inf exp(log g - log sf) would read -inf - (-inf)
    assert b.hrf(1e300) == pytest.approx(rate / 1e300, rel=1e-12)
    assert b.hrf(math.inf) == 0.0
    np.testing.assert_array_equal(b.hrf(np.array([2.0, math.inf]))[1:], 0.0)


@pytest.mark.parametrize(
    "name", ["log_pdf", "pdf", "cdf", "sf", "log_sf", "log_cdf", "hrf", "quantile", "isf"]
)
@pytest.mark.parametrize("b", [Weibull(1.0, 2.0), Frechet(2.0, 1.0)], ids=lambda b: b.tag)
def test_a_scalar_point_gives_a_python_float(b, name):
    # the one scalar rule (``special._scalar_or_array``): a float exactly when the input has ndim 0
    fn = getattr(b, name)
    points = (0.5,) if name in ("quantile", "isf") else (0.5, -1.0, math.inf)
    for t in points:
        for point in (t, np.float64(t), np.array(t)):
            assert type(fn(point)) is float, point
    for shape in ((1,), (2, 3)):
        out = fn(np.full(shape, 0.5))
        assert isinstance(out, np.ndarray) and out.shape == shape


def test_every_family_codes_its_partials():
    assert {type(b) for b in PARTIALS_CASES} == set(BASELINE_FAMILIES.values())
    for cls in BASELINE_FAMILIES.values():
        assert {"_hazard_partials", "_partials"} & set(vars(cls)), cls.__name__


@pytest.mark.parametrize(
    "b", PARTIALS_CASES,
    ids=lambda b: f"{b.tag}-{b.z.kind}" if isinstance(b, ExtendedWeibull) else b.tag,
)
def test_log_partials_match_central_differences(b):
    # each partial is taken with respect to the parameter's log: value * d/d(value)
    ts = b.quantile(np.linspace(0.02, 0.98, 13))
    partials = b.log_partials(ts)
    assert len(partials) == len(b.param_names)
    for name, triple in zip(b.param_names, partials):
        value = getattr(b, name)
        h = 1e-6 * value
        up = dataclasses.replace(b, **{name: value + h})
        down = dataclasses.replace(b, **{name: value - h})
        for got, fn in zip(triple, ("log_pdf", "log_sf", "log_cdf")):
            diff = (getattr(up, fn)(ts) - getattr(down, fn)(ts)) / (2.0 * h)
            np.testing.assert_allclose(got, value * diff, rtol=1e-6)
    # finite deep in both tails, next to the exponentiated-Pareto location too
    with np.errstate(all="ignore"):
        tails = b.log_partials(b.quantile(np.array([1e-10, 1.0 - 1e-10])))
    assert np.all(np.isfinite(tails))


def test_frechet_partials_where_z_underflows():
    # z = (delta/t)^lam is 0 at t = 1e200, and z/expm1(z) takes its limit 1:
    # d log sf is d log z, lam log(delta/t) and lam in log coordinates
    (_, sf_lam, _), (_, sf_delta, _) = Frechet(2.0, 1.5).log_partials(np.array([1e200]))
    np.testing.assert_allclose(sf_lam, 2.0 * math.log(1.5 / 1e200), rtol=1e-15)
    np.testing.assert_allclose(sf_delta, 2.0, rtol=1e-15)


@pytest.mark.parametrize("zero", ["sigma", "beta"])
def test_modified_weibull_partials_at_a_zero_coefficient(zero):
    # a coefficient at 0 has no log: its partials are d/d(phi), here one-sided
    b = dataclasses.replace(ModifiedWeibull(0.7, 0.8, 1.5), **{zero: 0.0})
    ts = b.quantile(np.linspace(0.02, 0.98, 13))
    triple = b.log_partials(ts)[b.param_names.index(zero)]
    step = 1e-5
    at = [dataclasses.replace(b, **{zero: j * step}) for j in (0, 1, 2)]
    for got, fn in zip(triple, ("log_pdf", "log_sf", "log_cdf")):
        f0, f1, f2 = (getattr(c, fn)(ts) for c in at)
        np.testing.assert_allclose(got, (4.0 * f1 - f2 - 3.0 * f0) / (2.0 * step), rtol=1e-6)


class TestWeibullLogCdf:
    def test_log_of_rate_where_cdf_underflows(self):
        b = Weibull(0.8, 2.2)
        ts = np.array([1e-300, 1e-200, 1e-150])
        np.testing.assert_allclose(b.log_cdf(ts), math.log(0.8) + 2.2 * np.log(ts), rtol=1e-15)
        assert np.all(np.isfinite(b.log_cdf(ts)))

    def test_unchanged_where_rate_term_is_normal(self):
        # bit-identical to log(-expm1(log sf)) wherever lam*t^beta is a normal double
        b = Weibull(0.8, 2.2)
        ts = np.concatenate(
            [10.0 ** -np.arange(1, 140, 7.5), b.quantile(np.linspace(0.01, 0.99, 50))]
        )
        np.testing.assert_array_equal(b.log_cdf(ts), np.log(-np.expm1(b.log_sf(ts))))


@pytest.mark.parametrize(
    "b", [ModifiedWeibull(0.0, 0.8, 0.5), ModifiedWeibull(0.5, 0.0, 2.0)], ids=["sigma0", "beta0"]
)
def test_modified_weibull_with_a_zero_coefficient_at_infinity(b):
    # the zero coefficient's term is left out, not taken as 0 * inf
    assert (b.sf(math.inf), b.cdf(math.inf), b.pdf(math.inf)) == (0.0, 1.0, 0.0)
    assert (b.log_sf(math.inf), b.log_cdf(math.inf), b.log_pdf(math.inf)) == (-math.inf, 0.0, -math.inf)
    ts = np.array([0.3, 1.0, 4.0])
    np.testing.assert_allclose(b.log_sf(ts), -(b.sigma * ts + b.beta * ts**b.gamma), rtol=1e-15)
    d = BgmoDistribution(BgmoParams(1, 1, 1, 1), b)
    np.testing.assert_allclose(d.cdf(np.array([1.0, math.inf])), [b.cdf(1.0), 1.0], rtol=1e-14)


@pytest.mark.parametrize(
    "b",
    [ModifiedWeibull(0.5, 0.8, 2.0), ModifiedWeibull(0.0, 0.8, 0.5), ModifiedWeibull(0.5, 0.0, 2.0)],
    ids=["both", "sigma0", "beta0"],
)
def test_modified_weibull_quantile_keeps_relative_precision(b):
    # the bisection was absolute (2^-100), so every level below ~4e-31 gave 3.94e-31
    for u in (1e-50, 1e-100):
        assert b.cdf(b.quantile(u)) == pytest.approx(u, rel=1e-12)
    assert b.isf(1.0) == 0.0


@pytest.mark.parametrize(
    "b",
    [Weibull(1.0, 2.0), Gompertz(0.5, 1.2), ModifiedWeibull(0.5, 0.8, 2.0),
     ExtendedWeibull(1.0, ZFunction("square"))],
    ids=lambda b: b.tag,
)
def test_density_where_the_hazard_overflows(b):
    # each was NaN at t = inf, the extended Weibull already at 1e308
    ts = np.array([1e308, math.inf])
    np.testing.assert_array_equal(b.pdf(ts), [0.0, 0.0])
    np.testing.assert_array_equal(b.log_pdf(ts), [-math.inf, -math.inf])
    np.testing.assert_array_equal(b.log_parts(ts)[0], [-math.inf, -math.inf])


def test_modified_weibull_log_density_where_the_rate_overflows():
    # beta*gamma*t^(gamma-1) overflows at t = 6.1 while h does not: the log rate
    # (713.68) is taken from the two terms' logs there, so log g is finite, as
    # the Weibull's with the same beta*t^gamma term is
    b = ModifiedWeibull(1.97, 150.0, 389.6)
    with mpmath.workdps(40):
        sigma, beta, gamma, t = map(mpmath.mpf, (1.97, 150.0, 389.6, 6.1))
        want = mpmath.log(sigma + beta * gamma * t ** (gamma - 1)) - (sigma * t + beta * t**gamma)
    assert b.log_pdf(6.1) == pytest.approx(float(want), rel=1e-14)
    assert b.log_pdf(6.1) == pytest.approx(Weibull(150.0, 389.6).log_pdf(6.1), rel=1e-14)
    assert b.log_parts(np.array([6.1]))[0] == b.log_pdf(6.1)


class TestSpotValues:
    def test_exponential_pdf_at_zero(self):
        assert Exponential(1.0).pdf(0.0) == pytest.approx(1.0)

    def test_exponential_cdf_ln2(self):
        assert Exponential(1.0).cdf(math.log(2)) == pytest.approx(0.5, abs=1e-15)

    def test_exponential_quantile(self):
        assert Exponential(2.0).quantile(0.5) == pytest.approx(math.log(2) / 2, rel=1e-14)

    def test_weibull_pdf(self):
        assert Weibull(1.0, 2.0).pdf(1.0) == pytest.approx(2 * math.exp(-1), rel=1e-14)

    def test_weibull_quantile_inverts_cdf_example(self):
        assert Weibull(1.0, 2.0).quantile(1 - math.exp(-1)) == pytest.approx(1.0, rel=1e-12)

    def test_lomax_cdf(self):
        assert Lomax(1.0, 1.0).cdf(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_frechet_cdf_vanishes_at_origin(self):
        assert Frechet(1.0, 1.0).cdf(1e-12) == 0.0

    def test_gompertz_closed_form_quantile(self):
        b = Gompertz(0.9, 1.7)
        u = 0.37
        t = b.quantile(u)
        expected = math.log1p(-(1.7 / 0.9) * math.log1p(-u)) / 1.7
        assert t == pytest.approx(expected, rel=1e-13)

    def test_modified_weibull_quantile_oracle(self):
        # root of sigma*t + beta*t^gamma = ln 2, independent bisection
        sigma, beta, gamma = 1.0, 1.0, 2.0
        b = ModifiedWeibull(sigma, beta, gamma)
        target = math.log(2)
        lo, hi = 0.0, 10.0
        for _ in range(200):
            mid = (lo + hi) / 2
            if sigma * mid + beta * mid**gamma < target:
                lo = mid
            else:
                hi = mid
        assert b.quantile(0.5) == pytest.approx((lo + hi) / 2, abs=1e-10)

    def test_exponentiated_pareto_support(self):
        b = ExponentiatedPareto(2.0, 1.5, 0.7)
        assert b.support_low == 2.0
        assert b.pdf(1.9) == 0.0
        assert b.cdf(b.quantile(0.7)) == pytest.approx(0.7, abs=1e-12)


class TestParameterValidation:
    def test_positive_params(self):
        with pytest.raises(ValueError):
            Exponential(0.0)
        with pytest.raises(ValueError):
            Weibull(1.0, -1.0)
        with pytest.raises(ValueError):
            Frechet(-1.0, 1.0)

    def test_modified_weibull_constraints(self):
        with pytest.raises(ValueError):
            ModifiedWeibull(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            ModifiedWeibull(-0.5, 1.0, 1.0)
        # sigma = 0 is allowed when beta > 0
        ModifiedWeibull(0.0, 1.0, 2.0)
        # NaN + 0.8 fails the rule on sigma + beta: every value it gave was NaN
        with pytest.raises(ValueError, match="all finite"):
            ModifiedWeibull(math.nan, 0.8, 2.0)

    @pytest.mark.parametrize("cls", list(BASELINE_FAMILIES.values()), ids=list(BASELINE_FAMILIES))
    def test_every_parameter_is_positive_and_finite(self, cls):
        # ``baselines._in_domain`` is the one rule; the modified Weibull's
        # sigma and beta may each be 0 where the other is not
        for i, name in enumerate(cls.param_names):
            zero_ok = cls is ModifiedWeibull and name != "gamma"
            for value in (-1.0, -0.0, 0.0, math.inf, math.nan, 5e-324, 0.7):
                values = [1.0] * len(cls.param_names)
                values[i] = value
                if value in (5e-324, 0.7) or (zero_ok and value == 0.0):
                    cls(*values)
                    continue
                with pytest.raises(ValueError, match=rf"\b{name}\b") as info:
                    cls(*values)
                assert str(value) in str(info.value)

    @pytest.mark.parametrize("setting", [{"k": math.inf}, {"k": math.nan}, {"beta": math.inf}, {"k": 0.0}])
    def test_z_function_settings_are_positive_and_finite(self, setting):
        (name, value), = setting.items()
        with pytest.raises(ValueError, match=f"parameter {name} must be positive and finite, got {value}"):
            ZFunction("log_ratio", **setting)

    def test_quantile_domain(self):
        with pytest.raises(ValueError):
            Exponential(1.0).quantile(0.0)
        with pytest.raises(ValueError):
            Weibull(1.0, 1.0).quantile(1.0)

    @pytest.mark.parametrize(
        "b", ALL_FAMILIES + [ExtendedWeibull(1.2, ZFunction("log_ratio", k=2.0))],
        ids=lambda b: b.tag if not isinstance(b, ExtendedWeibull) else f"{b.tag}-{b.z.kind}",
    )
    def test_isf_domain(self, b):
        for q in (0.0, -0.5, 2.0, np.array([0.5, 1.5])):
            with pytest.raises(ValueError):
                b.isf(q)
        # q = 1 is the support edge, without a warning
        assert b.isf(1.0) == pytest.approx(b.support_low, abs=1e-12)


class TestExtendedWeibullReductions:
    """The pluggable-hazard family collapses onto named families."""

    def check(self, ew, other, lo=0.05, hi=0.95):
        ts = other.quantile(np.linspace(lo, hi, 50))
        np.testing.assert_allclose(ew.cdf(ts), other.cdf(ts), atol=1e-12)
        np.testing.assert_allclose(ew.pdf(ts), other.pdf(ts), rtol=1e-10)

    def test_linear_is_exponential(self):
        self.check(ExtendedWeibull(1.7, ZFunction("linear")), Exponential(1.7))

    def test_square_is_rayleigh(self):
        self.check(ExtendedWeibull(0.8, ZFunction("square")), Weibull(0.8, 2.0))

    def test_log_ratio_is_pareto(self):
        # survival (t/k)^-delta matches the power cdf with unit exponent
        ew = ExtendedWeibull(2.5, ZFunction("log_ratio", k=1.5))
        pareto = ExponentiatedPareto(1.5, 2.5, 1.0)
        self.check(ew, pareto)

    def test_gompertz_link_is_gompertz(self):
        ew = ExtendedWeibull(1.5, ZFunction("gompertz_link", beta=2.0))
        self.check(ew, Gompertz(1.5, 2.0))


class TestFactory:
    def test_cli_spellings(self):
        b = make_baseline("weibull", **{"lambda": 1.0, "beta": 2.0})
        assert isinstance(b, Weibull)
        assert b.lam == 1.0 and b.beta == 2.0

    def test_extended_weibull_variant(self):
        b = make_baseline("extended_weibull", delta=2.0, z="log_ratio", k=3.0)
        assert b.support_low == 3.0

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            make_baseline("cauchy", gamma=1.0)

    def test_unknown_z_kind(self):
        known = r"\(known: linear, square, log_ratio, gompertz_link\)"
        with pytest.raises(ValueError, match=r"unknown Z-function kind 'cubic' " + known):
            make_baseline("extended_weibull", delta=1.0, z="cubic")

    def test_bad_parameter_name(self):
        with pytest.raises(ValueError):
            make_baseline("exponential", rate=1.0)
