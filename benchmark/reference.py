"""Reference values for the benchmark's checks, computed without ``bgmo``.

Everything here is written from the family's definition with numpy and
scipy alone:

    s(t) = alpha * sf_G(t) / (1 - (1 - alpha) * sf_G(t))
    F(t) = I_{1 - s(t)^theta}(m, n),   1 - F(t) = I_{s(t)^theta}(n, m)

The survival function is taken from the complementary incomplete beta, so it
keeps its relative precision deep in the upper tail.  Functionals integrate
over the beta variate Z = 1 - s(T)^theta ~ Beta(m, n), mapped back to t
through the closed-form tilt and baseline inverses; each half of (0, 1) is
integrated in the variable that is small there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp
from scipy import stats
from scipy.integrate import quad


# --- baselines: (log_sf, log_cdf, log_pdf, quantile of G, inverse of sf_G) ----
# Parameterisations: exponential sf = exp(-lam t); weibull sf = exp(-lam t^beta);
# lomax sf = (1 + t/delta)^-beta; frechet cdf = exp(-(delta/t)^lam).


def _exponential(lam):
    return dict(
        log_sf=lambda t: -lam * t,
        log_cdf=lambda t: np.log(-np.expm1(-lam * t)),
        log_pdf=lambda t: math.log(lam) - lam * t,
        quantile=lambda g: -np.log1p(-g) / lam,
        isf=lambda q: -np.log(q) / lam,
    )


def _weibull(lam, beta):
    return dict(
        log_sf=lambda t: -lam * t**beta,
        log_cdf=lambda t: np.log(-np.expm1(-lam * t**beta)),
        log_pdf=lambda t: math.log(lam * beta) + (beta - 1.0) * np.log(t) - lam * t**beta,
        quantile=lambda g: (-np.log1p(-g) / lam) ** (1.0 / beta),
        isf=lambda q: (-np.log(q) / lam) ** (1.0 / beta),
    )


def _lomax(beta, delta):
    return dict(
        log_sf=lambda t: -beta * np.log1p(t / delta),
        log_cdf=lambda t: np.log(-np.expm1(-beta * np.log1p(t / delta))),
        log_pdf=lambda t: math.log(beta / delta) - (beta + 1.0) * np.log1p(t / delta),
        quantile=lambda g: delta * np.expm1(-np.log1p(-g) / beta),
        isf=lambda q: delta * np.expm1(-np.log(q) / beta),
    )


def _frechet(lam, delta):
    return dict(
        log_sf=lambda t: np.log(-np.expm1(-((delta / t) ** lam))),
        log_cdf=lambda t: -((delta / t) ** lam),
        log_pdf=lambda t: (
            math.log(lam) + lam * math.log(delta) - (lam + 1.0) * np.log(t) - (delta / t) ** lam
        ),
        quantile=lambda g: delta * (-np.log(g)) ** (-1.0 / lam),
        isf=lambda q: delta * (-np.log1p(-q)) ** (-1.0 / lam),
    )


BASELINES = {
    "exponential": (_exponential, ("lam",)),
    "weibull": (_weibull, ("lam", "beta")),
    "lomax": (_lomax, ("beta", "delta")),
    "frechet": (_frechet, ("lam", "delta")),
}

# the spec-string names ``bgmo`` uses for each baseline parameter
SPEC_NAMES = {"lam": "lambda", "beta": "beta", "delta": "delta"}


@dataclass(frozen=True)
class Case:
    """A baseline tag, its parameters, and the family shapes (m, n, theta, alpha)."""

    baseline: str
    base: tuple[float, ...]
    m: float
    n: float
    theta: float
    alpha: float

    @property
    def g(self):
        make, _ = BASELINES[self.baseline]
        return make(*self.base)

    @property
    def spec(self) -> str:
        """The model spec string of ``bgmo``'s command line."""
        _, names = BASELINES[self.baseline]
        pairs = [("m", self.m), ("n", self.n), ("theta", self.theta), ("alpha", self.alpha)]
        pairs += [(SPEC_NAMES[k], v) for k, v in zip(names, self.base)]
        return " ".join([self.baseline] + [f"{k}={float(v)!r}" for k, v in pairs])

    # --- the tilted survival in log form ---------------------------------

    def log_s_theta(self, t):
        """theta * log s(t), from whichever of s and 1 - s is small."""
        t = np.asarray(t, dtype=float)
        g = self.g
        abar = 1.0 - self.alpha
        with np.errstate(all="ignore"):
            log_gbar = g["log_sf"](t)
            log_den = np.log1p(-abar * np.exp(log_gbar))
            # 1 - s = G / (1 - (1 - alpha) sf_G)
            log_c = g["log_cdf"](t) - log_den
            from_c = np.log1p(-np.exp(log_c))
            from_s = math.log(self.alpha) + log_gbar - log_den
            return self.theta * np.where(log_c < math.log(0.5), from_c, from_s)

    # --- distribution functions --------------------------------------------

    def cdf(self, t):
        return sp.betainc(self.m, self.n, -np.expm1(self.log_s_theta(t)))

    def sf(self, t):
        return sp.betainc(self.n, self.m, np.exp(self.log_s_theta(t)))

    def log_pdf(self, t):
        t = np.asarray(t, dtype=float)
        g = self.g
        lst = self.log_s_theta(t)
        with np.errstate(all="ignore"):
            log_den = np.log1p(-(1.0 - self.alpha) * np.exp(g["log_sf"](t)))
            # -d(s^theta)/dt = theta * s^(theta-1) * alpha * g / (1 - (1-alpha) sf_G)^2
            log_ds = (
                math.log(self.theta)
                + (self.theta - 1.0) / self.theta * lst
                + math.log(self.alpha)
                + g["log_pdf"](t)
                - 2.0 * log_den
            )
            return (
                -sp.betaln(self.m, self.n)
                + log_ds
                + _times(self.m - 1.0, np.log(-np.expm1(lst)))
                + _times(self.n - 1.0, lst)
            )

    def pdf(self, t):
        with np.errstate(all="ignore"):
            return np.exp(self.log_pdf(t))

    def hrf(self, t):
        with np.errstate(all="ignore"):
            return np.exp(self.log_pdf(t) - np.log(self.sf(t)))

    def chrf(self, t):
        with np.errstate(divide="ignore"):
            return -np.log(self.sf(t))

    # --- inverses -----------------------------------------------------------

    def t_from_z(self, z):
        """t with 1 - s(t)^theta = z, for z in the lower half of (0, 1)."""
        log_s = np.log1p(-np.asarray(z, dtype=float)) / self.theta
        one_minus_s = -np.expm1(log_s)
        s = np.exp(log_s)
        big_g = self.alpha * one_minus_s / (self.alpha + (1.0 - self.alpha) * s)
        return self.g["quantile"](big_g)

    def t_from_w(self, w):
        """t with s(t)^theta = w, for w in the lower half of (0, 1)."""
        s = np.exp(np.log(np.asarray(w, dtype=float)) / self.theta)
        return self.g["isf"](s / (self.alpha + (1.0 - self.alpha) * s))

    def quantile(self, u):
        """Inverse cdf by the inverse incomplete beta and the closed-form tilt."""
        u = np.asarray(u, dtype=float)
        lower = u <= 0.5
        out = np.empty_like(u)
        with np.errstate(all="ignore"):
            out[lower] = self.t_from_z(sp.betaincinv(self.m, self.n, u[lower]))
            out[~lower] = self.t_from_w(sp.betaincinv(self.n, self.m, 1.0 - u[~lower]))
        return out

    def isf(self, q):
        """The t with 1 - F(t) = q, full precision for tiny q."""
        return self.t_from_w(sp.betaincinv(self.n, self.m, np.asarray(q, dtype=float)))

    # --- functionals --------------------------------------------------------

    def expect(self, h) -> float:
        """E[h(T)] by quadrature over the beta variate Z ~ Beta(m, n)."""
        lower = lambda z: float(h(self.t_from_z(z))) * (1.0 - z) ** (self.n - 1.0)
        upper = lambda w: float(h(self.t_from_w(w))) * (1.0 - w) ** (self.m - 1.0)
        return _beta_halves(lower, upper, self.m, self.n)

    def moment(self, s: float) -> float:
        return self.expect(lambda t: t**s)

    def mgf(self, s: float) -> float:
        return self.expect(lambda t: math.exp(s * t))

    def renyi_entropy(self, delta: float) -> float:
        """(1 - delta)^-1 log of the integral of f^delta = E[f(T)^(delta-1)]."""
        integral = self.expect(lambda t: math.exp((delta - 1.0) * float(self.log_pdf(t))))
        return math.log(integral) / (1.0 - delta)

    def order_stat_moment(self, r: int, sample_n: int, s: float) -> float:
        """E[T_{r:sample_n}^s]: F(T_{r:n}) ~ Beta(r, sample_n - r + 1)."""
        a, b = r, sample_n - r + 1
        lower = lambda u: float(self.quantile(u)) ** s * (1.0 - u) ** (b - 1.0)
        upper = lambda v: float(self.isf(v)) ** s * (1.0 - v) ** (a - 1.0)
        return _beta_halves(lower, upper, a, b)


def _times(c: float, v):
    """c * v, with 0 * (-inf) = 0 for a vanishing exponent."""
    return 0.0 if c == 0.0 else c * v


def _beta_halves(lower, upper, a: float, b: float) -> float:
    """Integral over (0, 1) of phi(x) x^(a-1) (1-x)^(b-1) / B(a, b).

    ``lower(x)`` is phi(x) (1-x)^(b-1) on x <= 1/2 and ``upper(y)`` is
    phi(1-y) (1-y)^(a-1) on y = 1 - x <= 1/2, each in the variable that is
    small on its half.  Substituting x = v^(1/a) (and y = v^(1/b)) absorbs the
    endpoint power, so QUADPACK's QAGS never sees it.
    """
    opts = dict(epsabs=0.0, epsrel=1e-11, limit=400)
    lo, _ = quad(lambda v: lower(v ** (1.0 / a)), 0.0, 0.5**a, **opts)
    hi, _ = quad(lambda v: upper(v ** (1.0 / b)), 0.0, 0.5**b, **opts)
    return (lo / a + hi / b) / math.exp(sp.betaln(a, b))


# --- fitting references ---------------------------------------------------------


def weibull_mle(data) -> tuple[float, float, float]:
    """Two-parameter Weibull MLE (lam, beta, logL) in the sf = exp(-lam t^beta) form."""
    data = np.asarray(data, dtype=float)
    c, _, scale = stats.weibull_min.fit(data, floc=0.0)
    log_l = float(np.sum(stats.weibull_min.logpdf(data, c, 0.0, scale)))
    return scale ** (-c), c, log_l


def info_criteria(log_l: float, k: int, n: int) -> dict[str, float]:
    """AIC, BIC, corrected AIC (CAIC) and HQIC by their textbook formulas."""
    aic = -2.0 * log_l + 2.0 * k
    return {
        "aic": aic,
        "bic": -2.0 * log_l + k * math.log(n),
        "caic": aic + 2.0 * k * (k + 1) / (n - k - 1),
        "hqic": -2.0 * log_l + 2.0 * k * math.log(math.log(n)),
    }
