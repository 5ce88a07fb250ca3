"""Baseline lifetime distributions feeding the tilt and beta layers.

Each family exposes the density, distribution/survival functions (plus their
logarithms, which the upper layers need for deep-tail work), the quantile, and
the lower end of its support.  Families are immutable after construction and
all methods accept scalars or numpy arrays.

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


def _from_hazard(h, pairs):
    """``log_partials`` from (d log g, d log H) per parameter, for log sf = -H.

    d log sf = -H d log H and d log G = d log H * H/expm1(H), also where H underflows.
    """
    neg_h, cdf_factor = -h, 1.0 / exprel(h)
    return [(dlogg, neg_h * dlogh, dlogh * cdf_factor) for dlogg, dlogh in pairs]


def _require_positive(**params):
    for name, value in params.items():
        if not value > 0:
            raise ValueError(f"parameter {name} must be positive, got {value}")


class Baseline:
    """Common behaviour for the concrete families below.

    Subclasses implement, on arrays already floored to the support:

    - ``_log_pdf``, ``_log_sf`` and ``_quantile``;
    - ``_log_cdf(t, log_sf)``, given the log sf, and ``_cdf`` where
      ``-expm1(log_sf)`` loses precision, or ``_log_cum_hazard`` where the
      cumulative hazard underflows near 0;
    - ``log_partials(t)``: for the fitter's analytic score, the triples
      (d log g, d log sf, d log G) per parameter in ``param_names`` order,
      d log G precise where G underflows; families with a cumulative hazard
      H = -log sf build them from d log H (``_from_hazard``).

    This class handles support masking and scalar passthrough.  ``log_parts``
    (or ``log_tails`` where the density is not needed) is the one pass the
    family layer makes: log g, log sf and log G from one floor, one
    ``_log_sf`` and one support mask (none where every point is on the
    support).
    """

    tag = ""
    param_names: tuple[str, ...] = ()
    option_names: tuple[str, ...] = ()  # structural settings, never fitted
    hazard_rate: str | None = None  # the r of log sf = -r*Z(t), if any
    support_low = 0.0

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
        return self._on_support(lambda x: np.exp(self._log_pdf(x)), t, 0.0)

    def log_pdf(self, t):
        return self._on_support(self._log_pdf, t, -np.inf)

    def cdf(self, t):
        return self._on_support(lambda x: np.clip(self._cdf(x), 0.0, 1.0), t, 0.0)

    def sf(self, t):
        return self._on_support(lambda x: np.clip(np.exp(self._log_sf(x)), 0.0, 1.0), t, 1.0)

    def log_sf(self, t):
        return self._on_support(self._log_sf, t, 0.0)

    def log_cdf(self, t):
        return self._on_support(lambda x: self._log_cdf(x, self._log_sf(x)), t, -np.inf)

    def log_parts(self, t):
        """(log g, log sf, log G) at t, as arrays equal to ``log_pdf``, ``log_sf`` and ``log_cdf``."""
        return self._masked(
            lambda x: (self._log_pdf(x), *self._log_tails(x)), t, (-np.inf, 0.0, -np.inf)
        )

    def log_tails(self, t):
        """(log sf, log G) at t: the pass of ``log_parts`` without the density."""
        return self._masked(self._log_tails, t, (0.0, -np.inf))

    def hrf(self, t):
        return self._on_support(lambda x: np.exp(self._log_pdf(x) - self._log_sf(x)), t, 0.0)

    def quantile(self, u):
        scalar = np.isscalar(u)
        u = np.asarray(u, dtype=float)
        if np.any((u <= 0.0) | (u >= 1.0)):
            raise ValueError("quantile requires u in (0, 1)")
        return _maybe_scalar(self._quantile(u), scalar)

    def isf(self, q):
        """Inverse survival: the t with sf(t) = q."""
        return _maybe_scalar(self._isf(np.asarray(q, dtype=float)), np.isscalar(q))

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

    def _log_tails(self, t):
        # one _log_sf, from which the log cdf follows
        log_sf = self._log_sf(t)
        return log_sf, self._log_cdf(t, log_sf)

    def _cdf(self, t):
        return -np.expm1(self._log_sf(t))

    def _log_cdf(self, t, log_sf):
        # log(1 - e^-H), H = -log sf; where H is not a normal double, log H,
        # finite where H itself underflows
        out = np.log(-np.expm1(log_sf))
        tiny = log_sf > -_TINY
        if np.any(tiny):
            out = np.where(tiny, self._log_cum_hazard(t, log_sf), out)
        return out

    def _log_cum_hazard(self, t, log_sf):
        return np.log(-log_sf)

    def _isf(self, q):
        return self._quantile(1.0 - q)

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

    def _log_pdf(self, t):
        return math.log(self.lam) - self.lam * t

    def _log_sf(self, t):
        return -self.lam * t

    def _quantile(self, u):
        return -np.log1p(-u) / self.lam

    def _isf(self, q):
        return -np.log(q) / self.lam

    def log_partials(self, t):
        return _from_hazard(self.lam * t, ((1.0 / self.lam - t, 1.0 / self.lam),))


@dataclass(frozen=True, repr=False)
class Weibull(Baseline):
    lam: float
    beta: float

    tag = "weibull"
    param_names = ("lam", "beta")
    hazard_rate = "lam"

    def __post_init__(self):
        _require_positive(lam=self.lam, beta=self.beta)

    def _log_pdf(self, t):
        return (
            math.log(self.lam)
            + math.log(self.beta)
            + (self.beta - 1.0) * np.log(t)
            - self.lam * t**self.beta
        )

    def _log_sf(self, t):
        return -self.lam * t**self.beta

    def _log_cum_hazard(self, t, log_sf):
        return math.log(self.lam) + self.beta * np.log(t)

    def _quantile(self, u):
        return (-np.log1p(-u) / self.lam) ** (1.0 / self.beta)

    def _isf(self, q):
        return (-np.log(q) / self.lam) ** (1.0 / self.beta)

    def log_partials(self, t):
        tb, lt = t**self.beta, np.log(t)
        d_beta = (1.0 / self.beta + lt - self.lam * tb * lt, lt)
        return _from_hazard(self.lam * tb, ((1.0 / self.lam - tb, 1.0 / self.lam), d_beta))


@dataclass(frozen=True, repr=False)
class Lomax(Baseline):
    beta: float
    delta: float

    tag = "lomax"
    param_names = ("beta", "delta")
    hazard_rate = "beta"

    def __post_init__(self):
        _require_positive(beta=self.beta, delta=self.delta)

    def _log_pdf(self, t):
        return (
            math.log(self.beta)
            - math.log(self.delta)
            - (self.beta + 1.0) * np.log1p(t / self.delta)
        )

    def _log_sf(self, t):
        return -self.beta * np.log1p(t / self.delta)

    def _quantile(self, u):
        return self.delta * np.expm1(-np.log1p(-u) / self.beta)

    def _isf(self, q):
        return self.delta * np.expm1(-np.log(q) / self.beta)

    def log_partials(self, t):
        log1p_r = np.log1p(t / self.delta)
        r_delta = t / (self.delta * (self.delta + t))  # -d log1p(t/delta)/d delta
        d_beta = (1.0 / self.beta - log1p_r, 1.0 / self.beta)
        d_delta = ((self.beta + 1.0) * r_delta - 1.0 / self.delta, -r_delta / log1p_r)
        return _from_hazard(self.beta * log1p_r, (d_beta, d_delta))


@dataclass(frozen=True, repr=False)
class Frechet(Baseline):
    lam: float
    delta: float

    tag = "frechet"
    param_names = ("lam", "delta")

    def __post_init__(self):
        _require_positive(lam=self.lam, delta=self.delta)

    def _log_pdf(self, t):
        z = (self.delta / t) ** self.lam
        return (
            math.log(self.lam)
            + self.lam * math.log(self.delta)
            - (self.lam + 1.0) * np.log(t)
            - z
        )

    def _cdf(self, t):
        return np.exp(-((self.delta / t) ** self.lam))

    def _log_cdf(self, t, log_sf):
        return -((self.delta / t) ** self.lam)

    def _log_sf(self, t):
        # for tiny z, log(1 - e^-z) ~ log z; the log form survives the
        # underflow of z itself at huge t
        log_z = self.lam * (math.log(self.delta) - np.log(t))
        z = np.exp(log_z)
        with np.errstate(all="ignore"):
            return np.where(z < 1e-12, log_z, np.log(-np.expm1(-np.maximum(z, 1e-300))))

    def _quantile(self, u):
        return self.delta * (-np.log(u)) ** (-1.0 / self.lam)

    def _isf(self, q):
        return self.delta * (-np.log1p(-q)) ** (-1.0 / self.lam)

    def log_partials(self, t):
        # z = (delta/t)^lam, log G = -z and d log sf/d log z = z/expm1(z) = 1/exprel(z)
        log_ratio = math.log(self.delta) - np.log(t)
        z = np.exp(self.lam * log_ratio)
        rate = self.lam / self.delta
        tail = 1.0 / exprel(z)
        return (
            (1.0 / self.lam + log_ratio * (1.0 - z), log_ratio * tail, -z * log_ratio),
            (rate * (1.0 - z), rate * tail, -z * rate),
        )


@dataclass(frozen=True, repr=False)
class Gompertz(Baseline):
    beta: float
    lam: float

    tag = "gompertz"
    param_names = ("beta", "lam")
    hazard_rate = "beta"

    def __post_init__(self):
        _require_positive(beta=self.beta, lam=self.lam)

    def _cum_hazard(self, t):
        return (self.beta / self.lam) * np.expm1(self.lam * t)

    def _log_pdf(self, t):
        return math.log(self.beta) + self.lam * t - self._cum_hazard(t)

    def _log_sf(self, t):
        return -self._cum_hazard(t)

    def _quantile(self, u):
        return np.log1p(-(self.lam / self.beta) * np.log1p(-u)) / self.lam

    def _isf(self, q):
        return np.log1p(-(self.lam / self.beta) * np.log(q)) / self.lam

    def log_partials(self, t):
        lam_t = self.lam * t
        e = np.expm1(lam_t)
        h = self.beta / self.lam * e
        log_h_lam = (lam_t * (e + 1.0) - e) / (self.lam * e)  # d log H/d lam
        d_beta = (1.0 / self.beta - e / self.lam, 1.0 / self.beta)
        return _from_hazard(h, (d_beta, (t - h * log_h_lam, log_h_lam)))


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
        if self.kind not in ("linear", "square", "log_ratio", "gompertz_link"):
            raise ValueError(f"unknown Z-function kind {self.kind!r}")
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

    def _log_pdf(self, t):
        return math.log(self.delta) - self.delta * self.z.value(t) + np.log(self.z.deriv(t))

    def _log_sf(self, t):
        return -self.delta * self.z.value(t)

    def _log_cum_hazard(self, t, log_sf):
        return math.log(self.delta) + self.z.log_value(t)

    def _quantile(self, u):
        return self.z.inverse(-np.log1p(-u) / self.delta)

    def _isf(self, q):
        return self.z.inverse(-np.log(q) / self.delta)

    def log_partials(self, t):
        z = self.z.value(t)
        return _from_hazard(self.delta * z, ((1.0 / self.delta - z, 1.0 / self.delta),))


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

    def _cum_hazard(self, t):
        return self.sigma * t + self.beta * t**self.gamma

    def _log_pdf(self, t):
        rate = self.sigma + self.beta * self.gamma * t ** (self.gamma - 1.0)
        return np.log(rate) - self._cum_hazard(t)

    def _log_sf(self, t):
        return -self._cum_hazard(t)

    def _log_cum_hazard(self, t, log_sf):
        log_t = np.log(t)
        return np.logaddexp(np.log(self.sigma) + log_t, np.log(self.beta) + self.gamma * log_t)

    def _quantile(self, u):
        # no closed form: bisect the increasing cumulative hazard
        target = np.atleast_1d(-np.log1p(-u))
        hi = np.ones_like(target)
        for _ in range(200):
            need = self._cum_hazard(hi) < target
            if not need.any():
                break
            hi = np.where(need, hi * 2.0, hi)
        lo = np.zeros_like(target)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            below = self._cum_hazard(mid) < target
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        out = 0.5 * (lo + hi)
        return out.reshape(np.shape(u)) if np.shape(u) else out[0]

    def log_partials(self, t):
        log_t = np.log(t)
        u = t ** (self.gamma - 1.0)
        rate = self.sigma + self.beta * self.gamma * u  # the hazard
        t_h = 1.0 / (self.sigma + self.beta * u)  # t/H
        bu_log_t = self.beta * u * log_t
        d_gamma = ((self.beta * u + self.gamma * bu_log_t) / rate - t * bu_log_t, bu_log_t * t_h)
        d_beta = (self.gamma * u / rate - t * u, u * t_h)
        hazard = self.sigma * t + self.beta * u * t
        return _from_hazard(hazard, ((1.0 / rate - t, t_h), d_beta, d_gamma))


@dataclass(frozen=True, repr=False)
class ExponentiatedPareto(Baseline):
    """cdf [1 - (theta_p/t)^k]^gamma on t > theta_p."""

    theta_p: float
    k: float
    gamma: float

    tag = "exponentiated_pareto"
    param_names = ("theta_p", "k", "gamma")

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

    def _log_pdf(self, t):
        out = (
            math.log(self.gamma)
            + math.log(self.k)
            + self.k * math.log(self.theta_p)
            - (self.k + 1.0) * np.log(t)
        )
        if self.gamma != 1.0:
            out = out + (self.gamma - 1.0) * self._log_base(t)
        return out

    def _cdf(self, t):
        return np.exp(self.gamma * self._log_base(t))

    def _log_cdf(self, t, log_sf):
        return self.gamma * self._log_base(t)

    def _log_sf(self, t):
        # sf ~ gamma * (theta_p/t)^k far out; the log form survives underflow
        log_w = self.k * (math.log(self.theta_p) - np.log(t))
        inner = self.gamma * np.log1p(-np.exp(log_w))
        with np.errstate(all="ignore"):
            return np.where(
                np.exp(log_w) < 1e-12,
                math.log(self.gamma) + log_w,
                np.log(-np.expm1(np.minimum(inner, -1e-300))),
            )

    def _quantile(self, u):
        base = -np.expm1(np.log(u) / self.gamma)  # 1 - u^(1/gamma)
        return self.theta_p * base ** (-1.0 / self.k)

    def _isf(self, q):
        base = -np.expm1(np.log1p(-q) / self.gamma)
        return self.theta_p * base ** (-1.0 / self.k)

    def log_partials(self, t):
        # w = e^-a = (theta_p/t)^k, log G = gamma log(1 - w): d log G is q = 1/expm1(a) times
        # -gamma k/theta_p or gamma a/k, d log sf = -(G/sf) d log G with G/sf * q in log space
        a = self.k * np.log1p((t - self.theta_p) / self.theta_p)
        q = 1.0 / np.expm1(a)
        log_b = self._log_base(t)
        rate, tilt = self.k / self.theta_p, (self.gamma - 1.0) / self.gamma
        d_theta_p, d_k = -self.gamma * rate, self.gamma * a / self.k
        log_odds = self.gamma * log_b - self._log_sf(t)  # log(G/sf)
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
_Z_KINDS = ("linear", "square", "log_ratio", "gompertz_link")


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
            if kind not in _Z_KINDS:
                raise ValueError(f"unknown Z-function kind {kind!r} (known: {_Z_KINDS})")
            zargs = {name: float(kwargs.pop(name)) for name in ("k", "beta") if name in kwargs}
            z = ZFunction(kind, **zargs)
        return ExtendedWeibull(delta=float(kwargs.pop("delta")), z=z, **kwargs)
    try:
        return cls(**{k: float(v) for k, v in kwargs.items()})
    except TypeError as exc:
        raise ValueError(f"bad parameters for {tag}: {exc}") from None
