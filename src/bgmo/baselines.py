"""Baseline lifetime distributions feeding the tilt and beta layers.

Each family codes one cumulative hazard h in closed form, with its log, its
inverse and the log of its rate |h'|; ``Baseline`` derives from them the
density, the hazard rate, the distribution and survival functions (plus
their logarithms, which the upper layers need for deep-tail work), the
quantile and the inverse survival function.  Families are
immutable after construction and all methods accept scalars or numpy arrays.

CLI-facing names use the conventional greek spellings (``lambda``, ``beta``,
...); see ``make_baseline``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import exprel

from .special import _TINY

__all__ = [
    "Baseline",
    "Exponential",
    "Weibull",
    "Lomax",
    "Frechet",
    "Gompertz",
    "ZFunction",
    "ExtendedWeibull",
    "ModifiedWeibull",
    "ExponentiatedPareto",
    "make_baseline",
    "BASELINE_FAMILIES",
    "PARAM_ALIASES",
]


def _maybe_scalar(out, scalar_in: bool):
    return float(out) if scalar_in else out


def _require_positive(**params):
    for name, value in params.items():
        if not value > 0:
            raise ValueError(f"parameter {name} must be positive, got {value}")


class Baseline:
    """Common behaviour for the concrete families below.

    Each family has one cumulative hazard h: h = -log sf, or h = -log G where
    ``_lower_tail`` is set.  Subclasses implement, on arrays already floored
    to the support:

    - ``_hazard(t)`` and ``_inv_hazard(y)`` (the t with h(t) = y);
    - ``_log_rate(t)``, log|h'(t)|, which may be a scalar where it is constant;
    - optionally ``_log_hazard(t)``, log h in closed form where h underflows;
      it is read only where h is not a normal double, and without it log h
      is the log of h itself;
    - ``log_partials(t)``: for the fitter's analytic score, the triples
      (d log g, d log sf, d log G) per parameter in ``param_names`` order,
      d log G precise where G underflows; ``_from_hazard`` builds them from
      d log h.

    From h this class derives both tails: e^-h is the tail h belongs to and
    -expm1(-h) the other, whose log is log h where h is tiny, so both keep
    their relative precision.  The density is g = |h'| e^-h, formed as
    log|h'| - h from the same h, and 0 wherever h is +inf, also where that
    reads inf - inf.  Where h is -log sf, h' is the hazard rate itself; where
    it is -log G, the hazard rate is g/sf.  Every inversion (quantile,
    isf, the tilt inverse) is one ``_invert`` call: h⁻¹ at -log p for a level
    p of h's own tail and at -log1p(-p) for the other, the tail set per point.
    It also handles support masking and scalar passthrough.
    ``log_parts`` (or ``log_tails`` where the density is not needed) is the
    one pass the family layer makes: log g, log sf and log G from one floor,
    one ``_hazard`` and one support mask (none where every point is on the
    support).  Each evaluating method calls ``_hazard`` at most once.
    """

    tag = ""
    param_names: tuple[str, ...] = ()
    option_names: tuple[str, ...] = ()  # structural settings, never fitted
    hazard_rate: str | None = None  # the r of log sf = -r*Z(t), if any
    support_low = 0.0
    _lower_tail = False  # h is -log G rather than -log sf
    _log_hazard = None

    def params(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self.param_names}

    def __repr__(self):
        inner = ", ".join(
            f"{k}={v:g}" if isinstance(v, (int, float)) else f"{k}={v}"
            for k, v in self.params().items()
        )
        return f"{type(self).__name__}({inner})"

    # --- public API -----------------------------------------------------

    def pdf(self, t):
        return self._on_support(lambda x: np.exp(self._log_density(x, self._hazard(x))), t, 0.0)

    def log_pdf(self, t):
        return self._on_support(lambda x: self._log_density(x, self._hazard(x)), t, -np.inf)

    def cdf(self, t):
        return self._on_support(lambda x: self._tails(x)[1], t, 0.0)

    def sf(self, t):
        return self._on_support(lambda x: self._tails(x)[0], t, 1.0)

    def log_sf(self, t):
        return self._on_support(lambda x: self._log_tails(x, self._hazard(x))[0], t, 0.0)

    def log_cdf(self, t):
        return self._on_support(lambda x: self._log_tails(x, self._hazard(x))[1], t, -np.inf)

    def log_parts(self, t):
        """(log g, log sf, log G) at t, as arrays equal to ``log_pdf``, ``log_sf`` and ``log_cdf``."""
        return self._masked(self._log_parts, t, (-np.inf, 0.0, -np.inf))

    def log_tails(self, t):
        """(log sf, log G) at t: the pass of ``log_parts`` without the density."""
        return self._masked(lambda x: self._log_tails(x, self._hazard(x)), t, (0.0, -np.inf))

    def hrf(self, t):
        """g/sf: h' itself where h is -log sf, else exp(log g - log sf) from one pass."""

        def rate(x):
            if not self._lower_tail:  # a constant log|h'| is a scalar, taken to t's shape
                return np.exp(np.broadcast_to(self._log_rate(x), x.shape))
            log_g, log_sf, _ = self._log_parts(x)
            return np.exp(log_g - log_sf)

        return self._on_support(rate, t, 0.0)

    def quantile(self, u):
        return self._invert(u, lower=True)

    def isf(self, q):
        """Inverse survival: the t with sf(t) = q; q = 1 gives the support edge."""
        return self._invert(q, lower=False)

    def _on_support(self, fn, t, outside):
        """fn on the support (points nudged up to its floor), ``outside`` below it."""
        return _maybe_scalar(self._masked(lambda x: (fn(x),), t, (outside,))[0], np.isscalar(t))

    def _masked(self, fn, t, outside):
        """The arrays of fn at t floored to the support, each set to its ``outside`` value below it.

        Where every point is on the support no mask is applied.
        """
        t = np.asarray(t, dtype=float)
        with np.errstate(all="ignore"):
            parts = fn(np.maximum(t, self._eval_floor()))
        on = t >= self.support_low
        if on.all():
            return parts
        return tuple(np.where(on, part, value) for part, value in zip(parts, outside))

    def _by_tail(self, own, other):
        """(sf part, G part) from the parts of h's own tail and of the other tail."""
        return (other, own) if self._lower_tail else (own, other)

    def _tails(self, t):
        h = self._hazard(t)
        return self._by_tail(np.exp(-h), -np.expm1(-h))

    def _log_parts(self, t):
        h = self._hazard(t)
        return (self._log_density(t, h), *self._log_tails(t, h))

    def _log_density(self, t, h):
        # log g = log|h'| - h: where h overflows it is -inf or, where log|h'|
        # overflows too, inf - inf; g is 0 wherever h is +inf
        log_g = self._log_rate(t) - h
        nan = np.isnan(log_g)
        if np.any(nan):
            log_g = np.where(nan & (h == np.inf), -np.inf, log_g)
        return log_g

    def _log_tails(self, t, h):
        # -h and log(1 - e^-h); where h is not a normal double, log h, finite
        # where h itself underflows
        other = np.log(-np.expm1(-h))
        tiny = h < _TINY
        if np.any(tiny):
            log_h = np.log(h) if self._log_hazard is None else self._log_hazard(t)
            other = np.where(tiny, log_h, other)
        return self._by_tail(-h, other)

    def _invert(self, p, lower):
        """h⁻¹ at the level p of G where ``lower`` (a flag, or one per point) holds, else of sf.

        Levels of G lie in (0, 1) and of sf in (0, 1]; h⁻¹(inf) at a level 1
        of the other tail is the support edge, so no warning is raised.
        """
        scalar = np.isscalar(p)
        p = np.asarray(p, dtype=float)
        bad = (p <= 0.0) | (p > 1.0) | ((p == 1.0) & lower)
        if np.any(bad & lower):
            raise ValueError("quantile requires u in (0, 1)")
        if bad.any():
            raise ValueError("isf requires q in (0, 1]")
        with np.errstate(all="ignore"):
            y = np.where(lower == self._lower_tail, -np.log(p), -np.log1p(-p))
            return _maybe_scalar(self._inv_hazard(y), scalar)

    def _from_hazard(self, h, pairs):
        """``log_partials`` from (d log g, d log h) per parameter.

        d log of h's own tail is -h d log h, and of the other tail
        d log h * h/expm1(h), also where h underflows.
        """
        neg_h, other = -h, 1.0 / exprel(h)
        return [(dlogg, *self._by_tail(neg_h * dlogh, dlogh * other)) for dlogg, dlogh in pairs]

    def _eval_floor(self):
        # evaluation points are nudged just above the support edge, to the next
        # double, so that formulas with t**negative or log(1 - edge/t) stay
        # finite; masks zero them out anyway
        return math.nextafter(self.support_low, math.inf) if self.support_low > 0 else 1e-300


@dataclass(frozen=True, repr=False)
class Exponential(Baseline):
    lam: float

    tag = "exponential"
    param_names = ("lam",)
    hazard_rate = "lam"

    def __post_init__(self):
        _require_positive(lam=self.lam)

    def _hazard(self, t):
        return self.lam * t

    def _inv_hazard(self, y):
        return y / self.lam

    def _log_rate(self, t):
        return math.log(self.lam)

    def log_partials(self, t):
        return self._from_hazard(self.lam * t, ((1.0 / self.lam - t, 1.0 / self.lam),))


@dataclass(frozen=True, repr=False)
class Weibull(Baseline):
    lam: float
    beta: float

    tag = "weibull"
    param_names = ("lam", "beta")
    hazard_rate = "lam"

    def __post_init__(self):
        _require_positive(lam=self.lam, beta=self.beta)

    def _hazard(self, t):
        return self.lam * t**self.beta

    def _log_hazard(self, t):
        return math.log(self.lam) + self.beta * np.log(t)

    def _inv_hazard(self, y):
        return (y / self.lam) ** (1.0 / self.beta)

    def _log_rate(self, t):
        return math.log(self.lam) + math.log(self.beta) + (self.beta - 1.0) * np.log(t)

    def log_partials(self, t):
        tb, lt = t**self.beta, np.log(t)
        d_beta = (1.0 / self.beta + lt - self.lam * tb * lt, lt)
        return self._from_hazard(self.lam * tb, ((1.0 / self.lam - tb, 1.0 / self.lam), d_beta))


@dataclass(frozen=True, repr=False)
class Lomax(Baseline):
    beta: float
    delta: float

    tag = "lomax"
    param_names = ("beta", "delta")
    hazard_rate = "beta"

    def __post_init__(self):
        _require_positive(beta=self.beta, delta=self.delta)

    def _hazard(self, t):
        return self.beta * np.log1p(t / self.delta)

    def _inv_hazard(self, y):
        return self.delta * np.expm1(y / self.beta)

    def _log_rate(self, t):
        return math.log(self.beta) - math.log(self.delta) - np.log1p(t / self.delta)

    def log_partials(self, t):
        log1p_r = np.log1p(t / self.delta)
        r_delta = t / (self.delta * (self.delta + t))  # -d log1p(t/delta)/d delta
        d_beta = (1.0 / self.beta - log1p_r, 1.0 / self.beta)
        d_delta = ((self.beta + 1.0) * r_delta - 1.0 / self.delta, -r_delta / log1p_r)
        return self._from_hazard(self.beta * log1p_r, (d_beta, d_delta))


@dataclass(frozen=True, repr=False)
class Frechet(Baseline):
    """cdf exp(-(delta/t)^lam): the cumulative hazard is that of the lower tail."""

    lam: float
    delta: float

    tag = "frechet"
    param_names = ("lam", "delta")
    _lower_tail = True

    def __post_init__(self):
        _require_positive(lam=self.lam, delta=self.delta)

    def _hazard(self, t):
        return (self.delta / t) ** self.lam

    def _log_hazard(self, t):
        return self.lam * (math.log(self.delta) - np.log(t))

    def _inv_hazard(self, y):
        return self.delta * y ** (-1.0 / self.lam)

    def _log_rate(self, t):
        return math.log(self.lam) + self.lam * math.log(self.delta) - (self.lam + 1.0) * np.log(t)

    def log_partials(self, t):
        log_ratio = math.log(self.delta) - np.log(t)  # d log h/d lam
        z = np.exp(self.lam * log_ratio)
        rate = self.lam / self.delta  # d log h/d delta
        d_lam = (1.0 / self.lam + log_ratio * (1.0 - z), log_ratio)
        return self._from_hazard(z, (d_lam, (rate * (1.0 - z), rate)))


@dataclass(frozen=True, repr=False)
class Gompertz(Baseline):
    beta: float
    lam: float

    tag = "gompertz"
    param_names = ("beta", "lam")
    hazard_rate = "beta"

    def __post_init__(self):
        _require_positive(beta=self.beta, lam=self.lam)

    def _hazard(self, t):
        return (self.beta / self.lam) * np.expm1(self.lam * t)

    def _inv_hazard(self, y):
        return np.log1p((self.lam / self.beta) * y) / self.lam

    def _log_rate(self, t):
        return math.log(self.beta) + self.lam * t

    def log_partials(self, t):
        lam_t = self.lam * t
        e = np.expm1(lam_t)
        h = self.beta / self.lam * e
        log_h_lam = (lam_t * (e + 1.0) - e) / (self.lam * e)  # d log H/d lam
        d_beta = (1.0 / self.beta - e / self.lam, 1.0 / self.beta)
        return self._from_hazard(h, (d_beta, (t - h * log_h_lam, log_h_lam)))


@dataclass(frozen=True)
class ZFunction:
    """Monotone cumulative-hazard shape Z(t) for the extended Weibull family.

    Supported kinds: ``linear`` (Z = t), ``square`` (Z = t^2), ``log_ratio``
    (Z = ln(t/k), support t >= k) and ``gompertz_link``
    (Z = (e^(beta t) - 1)/beta).
    """

    kind: str
    k: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        kinds = ("linear", "square", "log_ratio", "gompertz_link")
        if self.kind not in kinds:
            raise ValueError(f"unknown Z-function kind {self.kind!r} (known: {', '.join(kinds)})")
        _require_positive(k=self.k, beta=self.beta)

    @property
    def support_low(self):
        return self.k if self.kind == "log_ratio" else 0.0

    def value(self, t):
        if self.kind == "linear":
            return t
        if self.kind == "square":
            return t * t
        if self.kind == "log_ratio":
            return np.log(t / self.k)
        return np.expm1(self.beta * t) / self.beta

    def log_value(self, t):
        """log Z(t), finite where t^2 underflows."""
        if self.kind == "square":
            return 2.0 * np.log(t)
        return np.log(self.value(t))

    def deriv(self, t):
        if self.kind == "linear":
            return np.ones_like(np.asarray(t, dtype=float))
        if self.kind == "square":
            return 2.0 * t
        if self.kind == "log_ratio":
            return 1.0 / t
        return np.exp(self.beta * t)

    def inverse(self, y):
        if self.kind == "linear":
            return y
        if self.kind == "square":
            return np.sqrt(y)
        if self.kind == "log_ratio":
            return self.k * np.exp(y)
        return np.log1p(self.beta * y) / self.beta


@dataclass(frozen=True, repr=False)
class ExtendedWeibull(Baseline):
    """Survival exp(-delta Z(t)) for a pluggable increasing Z."""

    delta: float
    z: ZFunction = ZFunction("linear")

    tag = "extended_weibull"
    param_names = ("delta",)
    hazard_rate = "delta"
    option_names = ("z", "k", "beta")

    def __post_init__(self):
        _require_positive(delta=self.delta)

    @property
    def support_low(self):
        return self.z.support_low

    def params(self):
        out = {"delta": self.delta, "z": self.z.kind}
        if self.z.kind == "log_ratio":
            out["k"] = self.z.k
        if self.z.kind == "gompertz_link":
            out["beta"] = self.z.beta
        return out

    def _hazard(self, t):
        return self.delta * self.z.value(t)

    def _log_hazard(self, t):
        return math.log(self.delta) + self.z.log_value(t)

    def _inv_hazard(self, y):
        return self.z.inverse(y / self.delta)

    def _log_rate(self, t):
        return math.log(self.delta) + np.log(self.z.deriv(t))

    def log_partials(self, t):
        z = self.z.value(t)
        return self._from_hazard(self.delta * z, ((1.0 / self.delta - z, 1.0 / self.delta),))


@dataclass(frozen=True, repr=False)
class ModifiedWeibull(Baseline):
    """Cumulative hazard sigma*t + beta*t^gamma (sigma, beta >= 0, not both 0)."""

    sigma: float
    beta: float
    gamma: float

    tag = "modified_weibull"
    param_names = ("sigma", "beta", "gamma")

    def __post_init__(self):
        if self.sigma < 0 or self.beta < 0 or self.sigma + self.beta <= 0:
            raise ValueError("need sigma, beta >= 0 with sigma + beta > 0")
        _require_positive(gamma=self.gamma)

    def _hazard(self, t):
        # a zero coefficient's term is left out: 0 * inf is NaN at t = inf
        power = self.beta * t**self.gamma if self.beta else 0.0
        return self.sigma * t + power if self.sigma else power

    def _log_hazard(self, t):
        log_t = np.log(t)
        return np.logaddexp(np.log(self.sigma) + log_t, np.log(self.beta) + self.gamma * log_t)

    def _inv_hazard(self, y):
        # no closed form: bisect the increasing cumulative hazard inside a
        # bracket that is relative to the root.  Where h(t) = y, the larger
        # term is at least y/2 and each is at most y (a zero coefficient's
        # bound is inf), so lo <= t <= hi <= max(2, 2^(1/gamma)) * lo.
        target = np.atleast_1d(y)
        by_sigma = target / self.sigma if self.sigma else np.inf
        by_beta = (target / self.beta) ** (1.0 / self.gamma) if self.beta else np.inf
        hi = np.minimum(by_sigma, by_beta)
        lo = np.minimum(0.5 * by_sigma, 0.5 ** (1.0 / self.gamma) * by_beta)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            below = self._hazard(mid) < target
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        out = 0.5 * (lo + hi)
        return out.reshape(np.shape(y)) if np.shape(y) else out[0]

    def _log_rate(self, t):
        rate = self.sigma
        if self.beta:
            rate = rate + self.beta * self.gamma * t ** (self.gamma - 1.0)
        return np.log(rate)

    def log_partials(self, t):
        log_t = np.log(t)
        u = t ** (self.gamma - 1.0)
        rate = self.sigma + self.beta * self.gamma * u  # the hazard rate
        t_h = 1.0 / (self.sigma + self.beta * u)  # t/h
        bu_log_t = self.beta * u * log_t
        d_gamma = ((self.beta * u + self.gamma * bu_log_t) / rate - t * bu_log_t, bu_log_t * t_h)
        d_beta = (self.gamma * u / rate - t * u, u * t_h)
        hazard = self.sigma * t + self.beta * u * t
        return self._from_hazard(hazard, ((1.0 / rate - t, t_h), d_beta, d_gamma))


@dataclass(frozen=True, repr=False)
class ExponentiatedPareto(Baseline):
    """cdf [1 - (theta_p/t)^k]^gamma on t > theta_p: the cumulative hazard is that of the lower tail."""

    theta_p: float
    k: float
    gamma: float

    tag = "exponentiated_pareto"
    param_names = ("theta_p", "k", "gamma")
    _lower_tail = True

    def __post_init__(self):
        _require_positive(theta_p=self.theta_p, k=self.k, gamma=self.gamma)

    @property
    def support_low(self):
        return self.theta_p

    def _log_base(self, t):
        # log[1 - (theta_p/t)^k] = log(1 - e^-a), a = k log(t/theta_p), by the
        # log1mexp switch (Maechler 2012): exact at the location, where
        # (theta_p/t)^k rounds to 1, and in the upper tail
        a = self.k * np.log1p((t - self.theta_p) / self.theta_p)
        return np.where(a <= math.log(2.0), np.log(-np.expm1(-a)), np.log1p(-np.exp(-a)))

    def _hazard(self, t):
        return -self.gamma * self._log_base(t)

    def _log_hazard(self, t):
        # h ~ gamma (theta_p/t)^k far out
        return math.log(self.gamma) + self.k * (math.log(self.theta_p) - np.log(t))

    def _inv_hazard(self, y):
        base = -np.expm1(-y / self.gamma)  # 1 - G^(1/gamma)
        return self.theta_p * base ** (-1.0 / self.k)

    def _log_rate(self, t):
        # |h'| = gamma k theta_p^k t^-(k+1) / [1 - (theta_p/t)^k]
        return (
            math.log(self.gamma)
            + math.log(self.k)
            + self.k * math.log(self.theta_p)
            - (self.k + 1.0) * np.log(t)
            - self._log_base(t)
        )

    def log_partials(self, t):
        # w = e^-a = (theta_p/t)^k, log G = gamma log(1 - w): d log G is q = 1/expm1(a) times
        # -gamma k/theta_p or gamma a/k, d log sf = -(G/sf) d log G with G/sf * q in log space
        a = self.k * np.log1p((t - self.theta_p) / self.theta_p)
        q = 1.0 / np.expm1(a)
        log_b = self._log_base(t)
        rate, tilt = self.k / self.theta_p, (self.gamma - 1.0) / self.gamma
        d_theta_p, d_k = -self.gamma * rate, self.gamma * a / self.k
        log_odds = self.gamma * log_b - self._log_tails(t, -self.gamma * log_b)[0]  # log(G/sf)
        odds_q = np.exp(log_odds - a - log_b)
        return (
            (rate + tilt * d_theta_p * q, -d_theta_p * odds_q, d_theta_p * q),
            ((1.0 - a) / self.k + tilt * d_k * q, -d_k * odds_q, d_k * q),
            (1.0 / self.gamma + log_b, -log_b * np.exp(log_odds), log_b),
        )


BASELINE_FAMILIES = {
    cls.tag: cls
    for cls in (
        Exponential,
        Weibull,
        Lomax,
        Frechet,
        Gompertz,
        ExtendedWeibull,
        ModifiedWeibull,
        ExponentiatedPareto,
    )
}

# CLI spelling -> constructor keyword, per family
PARAM_ALIASES = {"lambda": "lam"}


def make_baseline(tag: str, **params) -> Baseline:
    """Construct a baseline from its family tag and named parameters.

    Accepts the CLI spellings (``lambda=...``) as well as the Python attribute
    names.  For ``extended_weibull`` pass ``z=<kind>`` plus any variant
    parameter (``k`` for log_ratio, ``beta`` for gompertz_link).
    """
    tag = tag.lower()
    if tag not in BASELINE_FAMILIES:
        known = ", ".join(sorted(BASELINE_FAMILIES))
        raise ValueError(f"unknown baseline family {tag!r} (known: {known})")
    cls = BASELINE_FAMILIES[tag]
    kwargs = {PARAM_ALIASES.get(name, name): value for name, value in params.items()}
    if cls is ExtendedWeibull:
        kind = kwargs.pop("z", "linear")
        if isinstance(kind, ZFunction):
            z = kind
        else:
            zargs = {name: float(kwargs.pop(name)) for name in ("k", "beta") if name in kwargs}
            z = ZFunction(kind, **zargs)
        return ExtendedWeibull(delta=float(kwargs.pop("delta")), z=z, **kwargs)
    try:
        return cls(**{k: float(v) for k, v in kwargs.items()})
    except TypeError as exc:
        raise ValueError(f"bad parameters for {tag}: {exc}") from None
