"""The beta generalized Marshall-Olkin family.

A baseline survival function sf_G is tilted into
``s(t) = alpha*sf_G/(1 - (1-alpha)*sf_G)`` (``gmo.log_tilt``), exponentiated
by theta, and the resulting cdf ``1 - s^theta`` is pushed through a
Beta(m, n) distribution:

    F(t)  = I_{1 - s(t)^theta}(m, n)
    1-F   = I_{s(t)^theta}(n, m)
    f(t)  = (1/B(m,n)) * theta*alpha^theta*g*sf_G^(theta-1)
            / (1-(1-alpha)*sf_G)^(theta+1) * [1-s^theta]^(m-1) * [s^theta]^(n-1)

Densities are always computed as exp(log density); the raw product underflows
in tails long before the log-density leaves the representable range.  The cdf
and the survival function are each taken from their own incomplete beta, so
both keep their relative precision in their small tail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import hyp2f1

from . import special
from .baselines import Baseline, _require_in_domain, _zero_where_g_is, _zmul
from .gmo import _LN2, log_tilt, tilt_inverse
from .special import _log, _scalar_or_array

__all__ = ["BgmoParams", "BgmoDistribution"]


def _log_gamma_variates(rng: np.random.Generator, shape: float, count: int) -> np.ndarray:
    """log of ``count`` Gamma(shape, 1) draws, finite for every shape > 0.

    Below shape 1 a draw is G_(shape+1) * U^(1/shape) (Marsaglia & Tsang
    2000), taken in logs: at shape 1e-3 about half of the plain draws are 0.
    """
    if shape >= 1.0:
        return np.log(rng.standard_gamma(shape, count))
    return np.log(rng.standard_gamma(shape + 1.0, count)) + np.log1p(-rng.random(count)) / shape


def _z_of_s(theta, log_s, log_1ms):
    """z = 1 - s^theta, log z and log w, the beta layer's arguments z and w = s^theta = 1 - z.

    Where 1 - s is below exp(-700) log z is that of the leading term
    theta*(1 - s), finite even where 1 - s underflows to 0.  Call it under
    ``np.errstate(all="ignore")``.
    """
    log_w = theta * log_s
    z = -np.expm1(log_w)
    if log_1ms.min(initial=np.inf) > -700.0:  # False also where one is NaN
        return z, np.log(z), log_w
    return z, np.where(log_1ms > -700.0, np.log(z), _log(theta) + log_1ms), log_w


def _log_pdf_core(m, n, theta, alpha, log_g, log_gbar, log_gcdf):
    """log f, log s, log(1 - s), log D, z, log z and log w (``_z_of_s``) from one baseline pass.

    The one form of the density, for ``BgmoDistribution``, the fitter and
    the series layer's plain tilt (m = n = theta = 1) alike; it applies no
    support mask.  A vanishing exponent's term is 0 (``_zmul``), also where
    its log is -inf.  The shapes may be numbers or columns of values, one
    row per parameter vector.  Call it under ``np.errstate(all="ignore")``.
    """
    log_s, log_1ms, log_d = log_tilt(alpha, log_gbar, log_gcdf)
    z, log_z, log_w = _z_of_s(theta, log_s, log_1ms)
    log_f = (
        _log(theta)
        + theta * _log(alpha)
        - special.log_beta(m, n)
        + log_g
        + _zmul(theta - 1.0, log_gbar)
        - (theta + 1.0) * log_d
        + _zmul(m - 1.0, log_z)
        + _zmul(n - 1.0, log_w)
    )
    return log_f, log_s, log_1ms, log_d, z, log_z, log_w


@dataclass(frozen=True)
class BgmoParams:
    """Beta shapes (m, n) and tilt parameters (theta, alpha), all positive.

    Special cases: theta=1 drops the exponentiation, m=n=1 drops the beta
    layer, m=n=theta=1 is the plain tilt, and alpha=theta=1 is the classical
    beta-generated family.
    """

    m: float
    n: float
    theta: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        _require_in_domain(**self.as_dict())

    def as_dict(self) -> dict[str, float]:
        return {"m": self.m, "n": self.n, "theta": self.theta, "alpha": self.alpha}


@dataclass(frozen=True)
class BgmoDistribution:
    """A parameter vector bound to a concrete baseline."""

    params: BgmoParams
    baseline: Baseline

    @property
    def support_low(self) -> float:
        return self.baseline.support_low

    # --- log-space building blocks, called under np.errstate(all="ignore") ---

    def _log_pdf_parts(self, t, hazard=False):
        """Arrays log f, z, log z and log w (``_z_of_s``); f is 0 exactly where g is.

        With ``hazard``, log D and the baseline's log hazard rate
        (``Baseline.hrf``) follow, from the same baseline pass.
        """
        p = self.params
        log_g, log_gbar, log_gcdf, *log_hg = self.baseline.log_parts(t, hazard)
        out, _, _, log_d, z, log_z, log_w = _log_pdf_core(
            p.m, p.n, p.theta, p.alpha, log_g, log_gbar, log_gcdf
        )
        out = _zero_where_g_is(log_g, out)
        return (out, z, log_z, log_w, log_d, *log_hg) if hazard else (out, z, log_z, log_w)

    def log_pdf(self, t):
        with np.errstate(all="ignore"):
            out = self._log_pdf_parts(t)[0]
        return _scalar_or_array(out, t)

    def pdf(self, t):
        with np.errstate(all="ignore"):
            out = np.exp(self._log_pdf_parts(t)[0])
        return _scalar_or_array(out, t)

    def _beta_tail(self, fn, upper, z, log_z, log_w):
        """``fn`` (``special.reg_inc_beta_mirrored`` or its log) of the cdf, or of the sf where ``upper``.

        The one place the mirrored pair's argument order is set: the cdf is
        I_z(m, n), and the sf I_w(n, m) swaps z with w = 1 - z and m with n.
        """
        p = self.params
        cdf_side, sf_side = (z, log_z, p.m), (np.exp(log_w), log_w, p.n)
        (x, log_x, a), (y, log_y, b) = (sf_side, cdf_side) if upper else (cdf_side, sf_side)
        return fn(x, log_x, y, log_y, a, b)

    def _tail(self, fn, upper, t):
        """``_beta_tail`` at t, from one ``Baseline.log_tails`` pass."""
        p = self.params
        with np.errstate(all="ignore"):
            log_s, log_1ms, _ = log_tilt(p.alpha, *self.baseline.log_tails(t))
            out = self._beta_tail(fn, upper, *_z_of_s(p.theta, log_s, log_1ms))
        return _scalar_or_array(out, t)

    def cdf(self, t):
        """I_z(m, n) at z = 1 - s^theta where z <= 1/2, else 1 - I_w(n, m) at w = s^theta.

        No incomplete beta reads an argument rounded to 1 (see
        ``special.reg_inc_beta_mirrored``), so at small shapes too the cdf
        keeps its digits near 1 and sums with the sf to 1, also where z is
        not a normal double.
        """
        return self._tail(special.reg_inc_beta_mirrored, False, t)

    def sf(self, t):
        """I_w(n, m) at w = s^theta where w <= 1/2, else 1 - I_z(m, n) at z = 1 - w.

        Exact where the cdf rounds to 1; as in ``cdf``, no incomplete beta
        reads an argument rounded to 1.
        """
        return self._tail(special.reg_inc_beta_mirrored, True, t)

    def log_sf(self, t):
        """log sf, finite where the sf underflows (``special.log_reg_inc_beta_mirrored``)."""
        return self._tail(special.log_reg_inc_beta_mirrored, True, t)

    def hrf(self, t):
        """Hazard pdf/sf.

        Where w = s^theta <= 1/2 it is theta n h_G/(D z 2F1(m + n, 1; n + 1; w)),
        the density over the sf I_w(n, m) in its hypergeometric form (DLMF
        8.17.8), with h_G the baseline hazard rate from the same pass: no two
        logs of size theta n h are subtracted, so it keeps its digits far out
        and is theta n h_G at t = inf.  Elsewhere it is exp(log pdf - log sf).
        """
        p = self.params
        with np.errstate(all="ignore"):
            log_f, z, log_z, log_w, log_d, log_hg = self._log_pdf_parts(t, hazard=True)
            w = np.exp(log_w)
            small = (w <= 0.5).ravel()  # flat indices and the array methods: cheap on short arrays
            far, near, out = small.nonzero()[0], (~small).nonzero()[0], np.empty(np.shape(w))
            rate = np.exp((log_hg - log_d - log_z).take(far))
            out.put(far, p.theta * p.n * rate / hyp2f1(p.m + p.n, 1.0, p.n + 1.0, w.take(far)))
            log_sf = self._beta_tail(
                special.log_reg_inc_beta_mirrored, True, z.take(near), log_z.take(near), log_w.take(near)
            )
            out.put(near, np.exp(log_f.take(near) - log_sf))
        return _scalar_or_array(out, t)

    def rhrf(self, t):
        """Reversed hazard pdf/cdf, exp(log pdf - log cdf) from one baseline pass."""
        with np.errstate(all="ignore"):
            log_f, *beta = self._log_pdf_parts(t)
            out = np.exp(log_f - self._beta_tail(special.log_reg_inc_beta_mirrored, False, *beta))
        return _scalar_or_array(out, t)

    def chrf(self, t):
        """Cumulative hazard -log sf."""
        return -self.log_sf(t)

    def quantile(self, u):
        """Inverse cdf via the beta quantile and the closed-form tilt inverse.

        z = 1 - s^theta solves I_z(m, n) = u.  Below z = 1/2 the beta
        quantile is taken for z, above it for 1 - z through the mirror
        I_(1-z)(n, m) = 1 - u, so the smaller of the two, and with it
        theta*log s, keeps full relative precision at extreme levels.
        """
        levels = np.asarray(u, dtype=float)
        if not np.all((levels > 0.0) & (levels < 1.0)):  # NaN fails too
            raise ValueError("quantile requires u in (0, 1)")
        p = self.params
        low = levels <= special.reg_inc_beta(0.5, p.m, p.n)
        x = special.beta_quantile(
            np.where(low, levels, 1.0 - levels), np.where(low, p.m, p.n), np.where(low, p.n, p.m)
        )
        with np.errstate(divide="ignore"):
            log_s_theta = np.where(low, np.log1p(-x), np.log(x))
        return _scalar_or_array(tilt_inverse(p.alpha, self.baseline, log_s_theta / p.theta), u)

    def sample(self, count: int, seed: int) -> np.ndarray:
        """``count`` draws, deterministic for a fixed seed.

        z = 1 - s^theta ~ Beta(m, n) is drawn as the gamma ratio
        G_m/(G_m + G_n) in log space and mapped through the tilt inverse
        (the Beta-G construction); no incomplete beta is inverted.  As in
        ``quantile``, log s^theta is taken as log1p(-z) below z = 1/2 and as
        log(1 - z) = log G_n - log(G_m + G_n) above it, so both tails keep
        their relative precision.
        """
        if count < 1:
            raise ValueError(f"count must be positive, got {count}")
        p = self.params
        rng = np.random.default_rng(seed)
        # in place and released early: the tilt inverse sets the peak memory, so
        # as few arrays of ``count`` doubles as possible stay alive through it
        log_z = _log_gamma_variates(rng, p.m, count)
        log_w = _log_gamma_variates(rng, p.n, count)
        log_sum = np.logaddexp(log_z, log_w)
        log_z -= log_sum
        log_w -= log_sum
        del log_sum
        with np.errstate(divide="ignore"):
            log_s = np.where(log_z <= -_LN2, np.log1p(-np.exp(log_z)), log_w)
        del log_z, log_w
        log_s /= p.theta
        return tilt_inverse(p.alpha, self.baseline, log_s)

    # --- quantile-based shape measures ------------------------------------

    def bowley_skewness(self) -> float:
        """Quartile skewness (Q3 + Q1 - 2*Q2)/(Q3 - Q1), in [-1, 1]."""
        q1, q2, q3 = self.quantile(np.array([0.25, 0.5, 0.75]))
        denom = q3 - q1
        if denom <= 0 or not np.isfinite(denom):
            raise ArithmeticError("degenerate quartiles: Q3 - Q1 is not positive")
        return (q3 + q1 - 2.0 * q2) / denom

    def moors_kurtosis(self) -> float:
        """Octile kurtosis [Q(3/8)-Q(1/8)+Q(7/8)-Q(5/8)]/[Q(6/8)-Q(2/8)]."""
        e = self.quantile(np.arange(1, 8) / 8.0)
        denom = e[5] - e[1]
        if denom <= 0 or not np.isfinite(denom):
            raise ArithmeticError("degenerate octiles: Q(6/8) - Q(2/8) is not positive")
        return (e[2] - e[0] + e[6] - e[4]) / denom
