import math

import mpmath
import numpy as np
import pytest

from bgmo.special import (
    beta_quantile,
    beta_quantile_series,
    log_beta,
    log_reg_inc_beta_mirrored,
    reg_inc_beta,
    reg_inc_beta_mirrored,
)


def binomial_sum_inc_beta(x, m, n):
    """Closed-form I_x(m, n) for integer shapes via the binomial identity."""
    top = m + n - 1
    return sum(
        math.comb(top, j) * x**j * (1.0 - x) ** (top - j) for j in range(m, top + 1)
    )


class TestLogBeta:
    def test_uniform_normalizer(self):
        assert log_beta(1, 1) == pytest.approx(0.0, abs=1e-15)

    def test_two_two(self):
        assert log_beta(2, 2) == pytest.approx(math.log(1 / 6), abs=1e-14)

    def test_half_half(self):
        assert log_beta(0.5, 0.5) == pytest.approx(math.log(math.pi), abs=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_beta(0.0, 1.0)
        with pytest.raises(ValueError):
            log_beta(1.0, -2.0)


class TestRegIncBeta:
    def test_uniform_identity(self):
        assert reg_inc_beta(0.7, 1, 1) == pytest.approx(0.7, abs=1e-14)

    def test_symmetry_at_half(self):
        assert reg_inc_beta(0.5, 3.2, 3.2) == pytest.approx(0.5, abs=1e-13)

    def test_binomial_oracle_spot(self):
        expected = binomial_sum_inc_beta(0.3, 2, 3)
        assert expected == pytest.approx(0.3483, abs=5e-5)
        assert reg_inc_beta(0.3, 2, 3) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("m", [1, 2, 3, 6])
    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    def test_binomial_oracle_grid(self, m, n):
        for x in np.linspace(0.02, 0.98, 25):
            assert reg_inc_beta(float(x), m, n) == pytest.approx(
                binomial_sum_inc_beta(float(x), m, n), abs=1e-12
            )

    def test_reflection_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m, n = rng.uniform(0.2, 10, size=2)
            x = float(rng.uniform(0, 1))
            total = reg_inc_beta(x, m, n) + reg_inc_beta(1.0 - x, n, m)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_endpoints_and_domain(self):
        assert reg_inc_beta(0.0, 2.5, 0.7) == 0.0
        assert reg_inc_beta(1.0, 2.5, 0.7) == 1.0
        with pytest.raises(ValueError):
            reg_inc_beta(1.2, 1, 1)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, -1, 1)

    def test_monotone_in_x(self):
        xs = np.linspace(0, 1, 101)
        vals = [reg_inc_beta(float(x), 2.7, 0.4) for x in xs]
        assert np.all(np.diff(vals) >= 0)

    def test_array_input_matches_scalar_calls(self):
        xs = np.linspace(0.0, 1.0, 41)
        out = reg_inc_beta(xs, 2.7, 0.4)
        assert isinstance(out, np.ndarray) and out.shape == xs.shape
        np.testing.assert_array_equal(out, [reg_inc_beta(float(x), 2.7, 0.4) for x in xs])
        assert out[0] == 0.0 and out[-1] == 1.0

    def test_array_shapes_broadcast(self):
        m = np.array([1.0, 2.0, 6.0])
        out = reg_inc_beta(0.3, m, 3)
        expected = [binomial_sum_inc_beta(0.3, int(mi), 3) for mi in m]
        np.testing.assert_allclose(out, expected, atol=1e-13)

    def test_array_domain(self):
        with pytest.raises(ValueError):
            reg_inc_beta(np.array([0.2, 1.5]), 1, 1)
        with pytest.raises(ValueError):
            reg_inc_beta(np.array([0.2, 0.5]), np.array([1.0, 0.0]), 1)


class TestRegIncBetaMirrored:
    def test_direct_where_the_argument_is_at_most_half(self):
        x = np.linspace(0.0, 0.5, 11)
        with np.errstate(divide="ignore"):
            got = reg_inc_beta_mirrored(x, np.log(x), 1.0 - x, np.log1p(-x), 2.5, 0.7)
        np.testing.assert_array_equal(got, reg_inc_beta(x, 2.5, 0.7))

    @pytest.mark.parametrize("y, m, n", [(1e-30, 2.0, 0.01), (0.1, 50.0, 0.5)])
    def test_complement_above_half(self, y, m, n):
        # x = 1 - 1e-30 rounds to 1, which the direct call reads; at (50, 0.5)
        # 1 - I_y(n, m) would cancel, so the complement is taken by betaincc
        x = 1.0 - y
        with mpmath.workdps(50):
            want = float(1 - mpmath.betainc(n, m, 0, y, regularized=True))
        got = reg_inc_beta_mirrored(x, math.log1p(-y), y, math.log(y), m, n)
        assert got == pytest.approx(want, rel=1e-14)

    def test_leading_term_below_the_smallest_normal_double(self):
        # I_x(0.01, 2) at x = e^-1000, which underflows to 0
        got = reg_inc_beta_mirrored(0.0, -1000.0, 1.0, 0.0, 0.01, 2.0)
        assert got == pytest.approx(math.exp(-10.0 - math.log(0.01) - log_beta(0.01, 2.0)), rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            reg_inc_beta_mirrored(1.5, 0.0, -0.5, 0.0, 2.0, 3.0)
        with pytest.raises(ValueError):
            reg_inc_beta_mirrored(0.3, 0.0, 0.7, 0.0, 0.0, 3.0)


class TestLogRegIncBetaMirrored:
    @pytest.mark.parametrize("x, m, n", [
        (1e-7, 50.0, 3.0),  # I_x = 1.5e-347, x a normal double
        (0.3, 800.0, 2.0),
        (0.9, 1e4, 0.01),  # I_x below 1e-300 with x above 1/2
        (1e-320, 0.5, 2.0),  # x subnormal
        (0.2, 2.5, 0.7),  # I_x a normal double: the log of the mirrored value
    ])
    def test_against_mpmath(self, x, m, n):
        with mpmath.workdps(50):
            want = float(mpmath.log(mpmath.betainc(m, n, 0, mpmath.mpf(x), regularized=True)))
        got = log_reg_inc_beta_mirrored(x, math.log(x), 1.0 - x, math.log1p(-x), m, n)
        assert isinstance(got, float)
        assert got == pytest.approx(want, rel=1e-14)

    def test_arrays_and_the_subnormal_branch_agree(self):
        # where x is subnormal, I_x itself is the exponential of the same form
        x = np.array([1e-320, 1e-310, 0.2])
        log_x, y, log_y = np.log(x), 1.0 - x, np.log1p(-x)
        got = log_reg_inc_beta_mirrored(x, log_x, y, log_y, 0.5, 2.0)
        np.testing.assert_allclose(np.exp(got), reg_inc_beta_mirrored(x, log_x, y, log_y, 0.5, 2.0),
                                   rtol=1e-14)
        assert log_reg_inc_beta_mirrored(0.0, -np.inf, 1.0, 0.0, 2.0, 3.0) == -math.inf

class TestBetaQuantile:
    def test_uniform_identity(self):
        assert beta_quantile(0.42, 1, 1) == pytest.approx(0.42, abs=1e-12)

    def test_symmetric_median(self):
        assert beta_quantile(0.5, 2, 2) == pytest.approx(0.5, abs=1e-12)

    def test_inverse_of_example(self):
        u = reg_inc_beta(0.3, 2, 3)
        assert beta_quantile(u, 2, 3) == pytest.approx(0.3, abs=1e-6)

    def test_round_trip_grid(self):
        # quantile(incomplete-beta(x)) recovers x across [0.001, 0.999].
        # Where the beta density is below ~1e-6, one ulp of u already moves x
        # by more than the tolerance, so those points carry too little
        # information to invert; they are skipped as ill-conditioned.
        shapes = [0.2, 0.7, 1.0, 2.5, 10.0]
        xs = np.linspace(0.001, 0.999, 21)
        checked = 0
        for m in shapes:
            for n in shapes:
                lb = log_beta(m, n)
                for x in xs:
                    x = float(x)
                    u = reg_inc_beta(x, m, n)
                    density = math.exp((m - 1) * math.log(x) + (n - 1) * math.log1p(-x) - lb)
                    if u in (0.0, 1.0) or density < 1e-6:
                        continue
                    assert beta_quantile(u, m, n) == pytest.approx(x, abs=1e-8)
                    checked += 1
        assert checked > 430

    def test_endpoints_and_domain(self):
        assert beta_quantile(0.0, 3, 2) == 0.0
        assert beta_quantile(1.0, 3, 2) == 1.0
        with pytest.raises(ValueError):
            beta_quantile(-0.1, 1, 1)

    def test_monotone_in_u(self):
        us = np.linspace(0.01, 0.99, 50)
        zs = [beta_quantile(float(u), 0.6, 3.1) for u in us]
        assert np.all(np.diff(zs) > 0)

    def test_array_input_matches_scalar_calls(self):
        us = np.linspace(0.0, 1.0, 41)
        out = beta_quantile(us, 0.6, 3.1)
        assert isinstance(out, np.ndarray) and out.shape == us.shape
        np.testing.assert_array_equal(out, [beta_quantile(float(u), 0.6, 3.1) for u in us])
        assert out[0] == 0.0 and out[-1] == 1.0

    def test_array_round_trip_with_per_element_shapes(self):
        rng = np.random.default_rng(5)
        m, n = rng.uniform(0.2, 10, size=(2, 200))
        x = rng.uniform(0.05, 0.95, 200)
        np.testing.assert_allclose(beta_quantile(reg_inc_beta(x, m, n), m, n), x, atol=1e-8)

    def test_array_domain(self):
        with pytest.raises(ValueError):
            beta_quantile(np.array([0.5, -0.1]), 2, 2)
        with pytest.raises(ValueError):
            beta_quantile(np.array([0.5, np.nan]), 2, 2)


class TestBetaQuantileSeries:
    def test_uniform_reduces_to_u(self):
        # n = 1 kills every coefficient beyond the first
        for u in (1e-5, 1e-3, 0.2):
            assert beta_quantile_series(u, 1, 1, 4) == pytest.approx(u, rel=1e-12)

    def test_matches_exact_quantile_small_u(self):
        exact = beta_quantile(1e-4, 2, 3)
        approx = beta_quantile_series(1e-4, 2, 3, 4)
        assert approx == pytest.approx(exact, rel=1e-4)

    def test_order_improves_accuracy(self):
        exact = beta_quantile(1e-2, 2, 3)
        err1 = abs(beta_quantile_series(1e-2, 2, 3, 1) - exact)
        err4 = abs(beta_quantile_series(1e-2, 2, 3, 4) - exact)
        assert err4 < err1

    def test_order_domain(self):
        with pytest.raises(ValueError):
            beta_quantile_series(0.1, 2, 3, 5)

    @pytest.mark.parametrize("u, m, n", [(1e-10, 1000, 1000), (1e-100, 600, 600)])
    def test_no_underflow_where_m_beta_u_underflows(self, u, m, n):
        # m B(m, n) u is below the double range (B(1000, 1000) ~ e^-1390)
        with mpmath.workdps(50):
            want = float((m * mpmath.beta(m, n) * mpmath.mpf(u)) ** (mpmath.mpf(1) / m))
        assert beta_quantile_series(u, m, n, 1) == pytest.approx(want, rel=1e-12, abs=0)
        for order in (2, 3, 4):
            assert math.isfinite(beta_quantile_series(u, m, n, order))
