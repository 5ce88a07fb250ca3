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

from .special import _TINY, _log, _power, _scalar_or_array

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
    "baseline_class",
    "BASELINE_FAMILIES",
    "PARAM_ALIASES",
]


def _zmul(c, v):
    """c*v with the convention 0 * (+-inf) = 0, for vanishing coefficients (c may be an array).

    A scalar c of 0 gives 0.0, which adds to arrays as an array of zeros would.
    """
    if isinstance(c, np.ndarray):
        return np.where(c == 0.0, 0.0, c * v)
    return c * v if c != 0.0 else 0.0


def _hazard_levels(p, lower, lower_tail):
    """The cumulative hazard h⁻¹ takes at the level p of G where ``lower`` holds, else of sf.

    -log p where p is a level of h's own tail (G where ``lower_tail``, the
    family's ``_lower_tail``, is set) and -log1p(-p) for the other, inf
    with numpy's warning at a level 1 of the other tail.  The one
    level-to-hazard rule of ``Baseline._invert``; ``series`` applies it to
    its fixed quadrature levels once at import.
    """
    return np.where(lower == lower_tail, -np.log(p), -np.log1p(-p))


def _in_domain(*values):
    """Where every value (a number or a column) is positive and finite: the one domain rule
    of the model's parameters, false at NaN."""
    ok = True
    for value in values:
        ok = ok & (0.0 < value) & (value < math.inf)
    return ok


def _require_in_domain(**named):
    """Raise ``ValueError`` naming the first value that ``_in_domain`` rejects."""
    for name, value in named.items():
        if not _in_domain(value):
            raise ValueError(f"parameter {name} must be positive and finite, got {value}")


def _zero_where_g_is(log_g, log_f):
    """log f, -inf exactly where log g is -inf: the one zero-set rule, also where a power of a
    vanishing factor alone reads +inf against it."""
    return np.where(log_g == -np.inf, -np.inf, log_f)


class Points:
    """Evaluation points t on the support, with log t taken on first use and kept.

    The fitter binds its observations in one ``Points`` for the whole fit, so
    the families that read log t take it once per fit, not once per call.
    """

    __slots__ = ("t", "_log_t")

    def __init__(self, t):
        self.t = t
        self._log_t = None

    @property
    def log_t(self):
        if self._log_t is None:
            self._log_t = np.log(self.t)
        return self._log_t


class Baseline:
    """Common behaviour for the concrete families below.

    Each family has one cumulative hazard h: h = -log sf, or h = -log G where
    ``_lower_tail`` is set.  Subclasses implement, at points already floored
    to the support (an array t, or ``Points`` x carrying t and log t):

    - ``_hazard(t)`` and ``_inv_hazard(y)`` (the t with h(t) = y);
    - ``_log_rate(x, h)``, log|h'|, which may be a scalar where it is
      constant; h is the cumulative hazard at the same points;
    - optionally ``_log_hazard(x)``, log h in closed form where h underflows;
      it is read only where h is not a normal double, and without it log h
      is the log of h itself;
    - ``_hazard_partials(x, h)``: for the fitter's analytic score, the pairs
      (d log g, d log h) per parameter in ``param_names`` order, each taken
      with respect to the parameter's log, or to the parameter itself where
      it is 0 (a d log h may be a scalar); or ``_partials(x, h)`` where the
      family forms the triples itself.

    From h this class derives both tails: e^-h is the tail h belongs to and
    -expm1(-h) the other, whose log is log h where h is tiny, so both keep
    their relative precision.  The density is g = |h'| e^-h, formed as
    log|h'| - h from the same h, and 0 wherever h is +inf, also where that
    reads inf - inf.  Where h is -log sf, h' is the hazard rate itself; where
    it is -log G, the hazard rate is g/sf.  Every inversion (quantile,
    isf, the tilt inverse) is one ``_invert`` call: h⁻¹ at -log p for a level
    p of h's own tail and at -log1p(-p) for the other, the tail set per point
    (``_hazard_levels``); the quadrature of ``series`` applies that rule to
    its fixed levels once and calls ``_inv_hazard`` itself.
    It also handles support masking and the scalar rule (``_scalar_or_array``).
    ``log_parts`` (or ``log_tails`` where the density is not needed) is the
    one pass the family layer makes: log g, log sf and log G from one floor,
    one ``_hazard`` and one support mask (none where every point is on the
    support).  Each evaluating method calls ``_hazard`` at most once.  The
    fitter runs the same pass, ``_pass``, unmasked over observations it has
    floored and support-checked once per fit.
    """

    tag = ""
    param_names: tuple[str, ...] = ()
    option_names: tuple[str, ...] = ()  # structural settings, never fitted
    hazard_rate: str | None = None  # the r of log sf = -r*Z(t), if any
    support_low = 0.0
    edge_param: str | None = None  # the parameter support_low equals, if any
    _lower_tail = False  # h is -log G rather than -log sf
    _log_hazard = None

    # where the parameter values (numbers or columns, in ``param_names`` order) pass ``__post_init__``
    _in_domain = staticmethod(_in_domain)

    def __post_init__(self):
        _require_in_domain(**{name: getattr(self, name) for name in self.param_names})

    @classmethod
    def _columns(cls, *values, **options):
        """An instance whose parameters are columns, one row per parameter vector.

        Each evaluating method then gives one row of results per row; numbers
        and columns may be mixed.  Nothing is checked: the caller passes only
        rows that ``_in_domain`` accepts.
        """
        self = object.__new__(cls)
        self.__dict__.update(zip(cls.param_names, values), **options)
        return self

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
        return self._on_support(lambda x: np.exp(self._log_density(x, self._hazard(x.t))), t, 0.0)

    def log_pdf(self, t):
        return self._on_support(lambda x: self._log_density(x, self._hazard(x.t)), t, -np.inf)

    def cdf(self, t):
        return self._on_support(lambda x: self._tails(x.t)[1], t, 0.0)

    def sf(self, t):
        return self._on_support(lambda x: self._tails(x.t)[0], t, 1.0)

    def log_sf(self, t):
        return self._on_support(lambda x: self._log_tails(x, self._hazard(x.t))[0], t, 0.0)

    def log_cdf(self, t):
        return self._on_support(lambda x: self._log_tails(x, self._hazard(x.t))[1], t, -np.inf)

    def log_parts(self, t, hazard=False):
        """(log g, log sf, log G) at t, as arrays equal to ``log_pdf``, ``log_sf`` and ``log_cdf``.

        With ``hazard`` the log of ``hrf`` (``_log_hrf``) follows, from the same pass.
        """

        def parts(x):
            out = self._log_parts(x)
            return (*out, self._log_hrf(x, out)) if hazard else out

        return self._masked(parts, t, (-np.inf, 0.0, -np.inf, -np.inf))

    def log_tails(self, t):
        """(log sf, log G) at t: the pass of ``log_parts`` without the density."""
        return self._masked(lambda x: self._log_tails(x, self._hazard(x.t)), t, (0.0, -np.inf))

    def hrf(self, t):
        """g/sf (``_log_hrf``), 0 where g is 0."""
        return self._on_support(lambda x: np.exp(np.broadcast_to(self._log_hrf(x), x.t.shape)), t, 0.0)

    def quantile(self, u):
        return self._invert(u, lower=True)

    def isf(self, q):
        """Inverse survival: the t with sf(t) = q; q = 1 gives the support edge."""
        return self._invert(q, lower=False)

    def log_partials(self, t):
        """(d log g, d log sf, d log G) per parameter at points t on the support.

        Each is taken with respect to the parameter's log, phi d/d(phi): finite
        also where phi is subnormal, where d/d(phi) of log g is about 1/phi.
        A parameter at 0 (the modified Weibull's sigma or beta) has no log;
        its partials are d/d(phi) itself.  d log G keeps its relative
        precision where G underflows.
        """
        x = Points(np.asarray(t, dtype=float))
        return self._partials(x, self._hazard(x.t))

    def _on_support(self, fn, t, outside):
        """fn on the support (points nudged up to its floor), ``outside`` below it."""
        return _scalar_or_array(self._masked(lambda x: (fn(x),), t, (outside,))[0], t)

    def _masked(self, fn, t, outside):
        """The arrays of fn at t floored to the support, each set to its ``outside`` value below it.

        Where every point is on the support no mask is applied.
        """
        t = np.asarray(t, dtype=float)
        with np.errstate(all="ignore"):
            parts = fn(Points(np.maximum(t, self._eval_floor(self.support_low))))
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

    def _pass(self, x):
        """h, log g (``_log_density``), log sf and log G at x, from one ``_hazard``."""
        h = self._hazard(x.t)
        return (h, self._log_density(x, h), *self._log_tails(x, h))

    def _log_parts(self, x):
        return self._pass(x)[1:]

    def _log_hrf(self, x, parts=None):
        """log g/sf at x: log h' itself where h is -log sf, else log g - log sf, -inf where g is 0.

        No such h' reads h, and a constant one is a scalar.  log g and log sf
        are those of ``parts`` (``_log_parts`` at x), or of a new pass.
        """
        if not self._lower_tail:
            return self._log_rate(x, None)
        log_g, log_sf, _ = parts or self._log_parts(x)
        return _zero_where_g_is(log_g, log_g - log_sf)

    def _log_density(self, x, h):
        """log g = log|h'| - h, with g = 0 wherever h is +inf, also where that reads inf - inf."""
        log_g = self._log_rate(x, h) - h
        nan = np.isnan(log_g)
        if nan.any():
            log_g = np.where(nan & (h == np.inf), -np.inf, log_g)
        return log_g

    def _log_tails(self, x, h):
        # -h and log(1 - e^-h); where h is not a normal double, log h, finite
        # where h itself underflows
        neg_h = -h
        other = np.log(-np.expm1(neg_h))
        if not h.min(initial=np.inf) >= _TINY:  # some h is tiny, or NaN
            log_h = np.log(h) if self._log_hazard is None else self._log_hazard(x)
            other = np.where(h < _TINY, log_h, other)
        return self._by_tail(neg_h, other)

    def _invert(self, p, lower):
        """h⁻¹ at the level p of G where ``lower`` (a flag, or one per point) holds, else of sf.

        Levels of G lie in (0, 1) and of sf in (0, 1]; h⁻¹(inf) at a level 1
        of the other tail is the support edge, so no warning is raised.
        """
        levels = np.asarray(p, dtype=float)
        bad = (levels <= 0.0) | (levels > 1.0) | ((levels == 1.0) & lower)
        if np.any(bad & lower):
            raise ValueError("quantile requires u in (0, 1)")
        if bad.any():
            raise ValueError("isf requires q in (0, 1]")
        with np.errstate(all="ignore"):
            return _scalar_or_array(self._inv_hazard(_hazard_levels(levels, lower, self._lower_tail)), p)

    def _partials(self, x, h):
        """The triples (d log g, d log sf, d log G) from ``_hazard_partials``.

        d log of h's own tail is -h d log h, and of the other tail
        d log h * h/expm1(h), also where h underflows.
        """
        neg_h, other = -h, 1.0 / exprel(h)
        return [
            (dlogg, *self._by_tail(neg_h * dlogh, dlogh * other))
            for dlogg, dlogh in self._hazard_partials(x, h)
        ]

    @staticmethod
    def _eval_floor(edge):
        # evaluation points are nudged just above the support edge (a number,
        # or a column of them), to the next double, so that formulas with
        # t**negative or log(1 - edge/t) stay finite; masks zero them out anyway
        if isinstance(edge, np.ndarray):
            return np.where(edge > 0, np.nextafter(edge, math.inf), 1e-300)
        return math.nextafter(edge, math.inf) if edge > 0 else 1e-300


@dataclass(frozen=True, repr=False)
class Exponential(Baseline):
    lam: float

    tag = "exponential"
    param_names = ("lam",)
    hazard_rate = "lam"

    def _hazard(self, t):
        return self.lam * t

    def _inv_hazard(self, y):
        return y / self.lam

    def _log_rate(self, x, h):
        return _log(self.lam)

    def _hazard_partials(self, x, h):
        return ((1.0 - h, 1.0),)


@dataclass(frozen=True, repr=False)
class Weibull(Baseline):
    lam: float
    beta: float

    tag = "weibull"
    param_names = ("lam", "beta")
    hazard_rate = "lam"

    def _hazard(self, t):
        return self.lam * _power(t, self.beta)

    def _log_hazard(self, x):
        return _log(self.lam) + self.beta * x.log_t

    def _inv_hazard(self, y):
        return _power(y / self.lam, 1.0 / self.beta)

    def _log_rate(self, x, h):
        return _log(self.lam) + _log(self.beta) + (self.beta - 1.0) * x.log_t

    def _hazard_partials(self, x, h):
        one_minus_h, beta_log_t = 1.0 - h, self.beta * x.log_t
        return ((one_minus_h, 1.0), (1.0 + beta_log_t * one_minus_h, beta_log_t))


@dataclass(frozen=True, repr=False)
class Lomax(Baseline):
    beta: float
    delta: float

    tag = "lomax"
    param_names = ("beta", "delta")
    hazard_rate = "beta"

    def _hazard(self, t):
        return self.beta * np.log1p(t / self.delta)

    def _inv_hazard(self, y):
        return self.delta * np.expm1(y / self.beta)

    def _log_rate(self, x, h):
        return _log(self.beta) - _log(self.delta) - np.log1p(x.t / self.delta)

    def _hazard_partials(self, x, h):
        r = x.t / (self.delta + x.t)  # -d log1p(t/delta)/d log delta
        d_delta = ((self.beta + 1.0) * r - 1.0, -self.beta * r / h)  # h/beta = log1p(t/delta)
        return ((1.0 - h, 1.0), d_delta)


@dataclass(frozen=True, repr=False)
class Frechet(Baseline):
    """cdf exp(-(delta/t)^lam): the cumulative hazard is that of the lower tail."""

    lam: float
    delta: float

    tag = "frechet"
    param_names = ("lam", "delta")
    _lower_tail = True

    def _hazard(self, t):
        return _power(self.delta / t, self.lam)

    def _log_hazard(self, x):
        return self.lam * (_log(self.delta) - x.log_t)

    def _inv_hazard(self, y):
        return self.delta * _power(y, -1.0 / self.lam)

    def _log_rate(self, x, h):
        return _log(self.lam) + self.lam * _log(self.delta) - (self.lam + 1.0) * x.log_t

    def _hazard_partials(self, x, h):
        # h = (delta/t)^lam: d log h is lam log(delta/t) and lam
        lam_log_ratio, one_minus_h = self.lam * (_log(self.delta) - x.log_t), 1.0 - h
        return ((1.0 + lam_log_ratio * one_minus_h, lam_log_ratio), (self.lam * one_minus_h, self.lam))


@dataclass(frozen=True, repr=False)
class Gompertz(Baseline):
    beta: float
    lam: float

    tag = "gompertz"
    param_names = ("beta", "lam")
    hazard_rate = "beta"

    def _hazard(self, t):
        return (self.beta / self.lam) * np.expm1(self.lam * t)

    def _inv_hazard(self, y):
        return np.log1p((self.lam / self.beta) * y) / self.lam

    def _log_rate(self, x, h):
        return _log(self.beta) + self.lam * x.t

    def _hazard_partials(self, x, h):
        lam_t = self.lam * x.t
        e = np.expm1(lam_t)
        log_h_lam = (lam_t * (e + 1.0) - e) / e  # d log h/d log lam
        return ((1.0 - h, 1.0), (lam_t - h * log_h_lam, log_h_lam))


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
        _require_in_domain(k=self.k, beta=self.beta)

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

    def _log_hazard(self, x):
        return _log(self.delta) + self.z.log_value(x.t)

    def _inv_hazard(self, y):
        return self.z.inverse(y / self.delta)

    def _log_rate(self, x, h):
        return _log(self.delta) + np.log(self.z.deriv(x.t))

    def _hazard_partials(self, x, h):
        return ((1.0 - h, 1.0),)


@dataclass(frozen=True, repr=False)
class ModifiedWeibull(Baseline):
    """Cumulative hazard sigma*t + beta*t^gamma (sigma, beta >= 0, not both 0)."""

    sigma: float
    beta: float
    gamma: float

    tag = "modified_weibull"
    param_names = ("sigma", "beta", "gamma")

    def __post_init__(self):
        if not self._in_domain(self.sigma, self.beta, self.gamma):
            raise ValueError(f"need sigma, beta >= 0, sigma + beta > 0 and gamma > 0, all finite, got {self.params()}")

    @staticmethod
    def _in_domain(sigma, beta, gamma):
        return _in_domain(sigma + beta, gamma) & (sigma >= 0) & (beta >= 0)

    def _hazard(self, t):
        # a zero coefficient's term is left out: 0 * inf is NaN at t = inf
        return _zmul(self.sigma, t) + _zmul(self.beta, _power(t, self.gamma))

    def _log_hazard(self, x):
        log_t = x.log_t
        return np.logaddexp(np.log(self.sigma) + log_t, np.log(self.beta) + self.gamma * log_t)

    def _inv_hazard(self, y):
        # no closed form: bisect the increasing cumulative hazard inside a
        # bracket that is relative to the root.  Where h(t) = y, the larger
        # term is at least y/2 and each is at most y (a zero coefficient's
        # bound is inf), so lo <= t <= hi <= max(2, 2^(1/gamma)) * lo.
        by_sigma = y / self.sigma if self.sigma else np.inf
        by_beta = _power(y / self.beta, 1.0 / self.gamma) if self.beta else np.inf
        hi = np.minimum(by_sigma, by_beta)
        lo = np.minimum(0.5 * by_sigma, 0.5 ** (1.0 / self.gamma) * by_beta)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            below = self._hazard(mid) < y
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)

    def _log_rate(self, x, h):
        log_rate = np.log(self.sigma + _zmul(self.beta * self.gamma, _power(x.t, self.gamma - 1.0)))
        over = log_rate == np.inf
        if not np.any(over):
            return log_rate
        # the rate overflows before its log does: there take the log from the two terms' logs
        log_beta_term = np.log(self.beta * self.gamma) + (self.gamma - 1.0) * x.log_t
        return np.where(over, np.logaddexp(np.log(self.sigma), log_beta_term), log_rate)

    def _hazard_partials(self, x, h):
        # a coefficient at 0 has no log: its partials are d/d(sigma) or d/d(beta)
        t = x.t
        u = _power(t, self.gamma - 1.0)
        bu = self.beta * u  # beta t^(gamma - 1)
        rate = self.sigma + self.gamma * bu  # the hazard rate
        t_h = 1.0 / (self.sigma + bu)  # t/h
        bu_log_t = bu * x.log_t
        gamma_bu_log_t = self.gamma * bu_log_t
        c_sigma, c_bu = np.where(self.sigma == 0.0, 1.0, self.sigma), np.where(self.beta == 0.0, u, bu)
        d_sigma = (c_sigma / rate - c_sigma * t, c_sigma * t_h)
        d_beta = (self.gamma * c_bu / rate - t * c_bu, c_bu * t_h)
        d_gamma = (self.gamma * (bu + gamma_bu_log_t) / rate - t * gamma_bu_log_t, gamma_bu_log_t * t_h)
        return (d_sigma, d_beta, d_gamma)


@dataclass(frozen=True, repr=False)
class ExponentiatedPareto(Baseline):
    """cdf [1 - (theta_p/t)^k]^gamma on t > theta_p: the cumulative hazard is that of the lower tail."""

    theta_p: float
    k: float
    gamma: float

    tag = "exponentiated_pareto"
    param_names = ("theta_p", "k", "gamma")
    edge_param = "theta_p"
    _lower_tail = True

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

    def _log_hazard(self, x):
        # h ~ gamma (theta_p/t)^k far out
        return _log(self.gamma) + self.k * (_log(self.theta_p) - x.log_t)

    def _inv_hazard(self, y):
        base = -np.expm1(-y / self.gamma)  # 1 - G^(1/gamma)
        return self.theta_p * _power(base, -1.0 / self.k)

    def _log_rate(self, x, h):
        # |h'| = gamma k theta_p^k t^-(k+1) / [1 - (theta_p/t)^k], the base's log being -h/gamma
        return (
            _log(self.gamma)
            + _log(self.k)
            + self.k * _log(self.theta_p)
            - (self.k + 1.0) * x.log_t
            + h / self.gamma
        )

    def _partials(self, x, h):
        # w = e^-a = (theta_p/t)^k, log G = gamma log(1 - w) = -h: d log G is q = 1/expm1(a)
        # times -gamma k or gamma a, d log sf = -(G/sf) d log G with G/sf * q in log space
        a = self.k * np.log1p((x.t - self.theta_p) / self.theta_p)
        q = 1.0 / np.expm1(a)
        log_b = h / -self.gamma
        log_odds = -h - self._log_tails(x, h)[0]  # log(G/sf)
        odds_q = np.exp(log_odds - a - log_b)
        d_theta_p, d_k, tilt = -self.gamma * self.k, self.gamma * a, self.gamma - 1.0
        return (
            (self.k * (1.0 - tilt * q), -d_theta_p * odds_q, d_theta_p * q),
            (1.0 - a + tilt * a * q, -d_k * odds_q, d_k * q),
            (1.0 - h, h * np.exp(log_odds), -h),
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


def baseline_class(tag: str) -> type[Baseline]:
    """The family class ``tag`` names; an unknown tag is a ``ValueError`` listing the known ones."""
    if tag not in BASELINE_FAMILIES:
        known = ", ".join(sorted(BASELINE_FAMILIES))
        raise ValueError(f"unknown baseline family {tag!r} (known: {known})")
    return BASELINE_FAMILIES[tag]


def make_baseline(tag: str, **params) -> Baseline:
    """Construct a baseline from its family tag and named parameters.

    Accepts the CLI spellings (``lambda=...``) as well as the Python attribute
    names.  For ``extended_weibull`` pass ``z=<kind>`` plus any variant
    parameter (``k`` for log_ratio, ``beta`` for gompertz_link).
    """
    tag = tag.lower()
    cls = baseline_class(tag)
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
