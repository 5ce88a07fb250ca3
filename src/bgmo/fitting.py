"""Maximum-likelihood fitting with multi-start simplex search.

The likelihood is maximized over log-transformed parameters (positivity is
structural) inside a compact search box.  For several baselines this family's
likelihood has no interior maximum: it keeps rising along a degenerate ridge
of extreme parameter combinations, so an unbounded search never terminates at
a statistically meaningful point.  The box makes the maximization well posed;
estimates that end up pinned against the box are reported with
``converged = False`` and named in ``at_boundary``.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize
from scipy.special import ndtri
from scipy.stats import qmc

from . import special
from .baselines import BASELINE_FAMILIES, make_baseline
from .family import BgmoDistribution, BgmoParams, _log_one_minus_power

__all__ = [
    "FitConfig",
    "FitResult",
    "FitError",
    "ModelTemplate",
    "log_likelihood",
    "score",
    "fit_mle",
    "observed_information",
    "wald_interval",
    "info_criteria",
]

FAMILY_PARAM_NAMES = ("m", "n", "theta", "alpha")


class FitError(RuntimeError):
    """No restart produced a finite likelihood."""


@dataclass(frozen=True)
class ModelTemplate:
    """A fit specification: baseline family plus any parameters held fixed.

    Free parameters are the four family shapes (m, n, theta, alpha) and the
    baseline parameters, minus whatever ``fixed`` pins.  Fixing
    m = n = theta = 1 yields the plain tilted baseline, and so on.
    ``options`` are structural baseline settings that are never fitted, such
    as the extended Weibull's Z-function (``z``, ``k``, ``beta``); they are
    passed to ``make_baseline`` as given.
    """

    baseline: str
    fixed: dict[str, float] = field(default_factory=dict)
    options: dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.baseline not in BASELINE_FAMILIES:
            known = ", ".join(sorted(BASELINE_FAMILIES))
            raise ValueError(f"unknown baseline family {self.baseline!r} (known: {known})")
        bad = set(self.fixed) - set(self.param_names)
        if bad:
            raise ValueError(f"fixed parameters {sorted(bad)} not in {self.param_names}")
        allowed = BASELINE_FAMILIES[self.baseline].option_names
        bad = set(self.options) - set(allowed)
        if bad:
            raise ValueError(f"options {sorted(bad)} not in {allowed} for {self.baseline}")
        if self.options:
            # the option values are checked by building the baseline once
            make_baseline(
                self.baseline, **dict.fromkeys(self.baseline_param_names, 1.0), **self.options
            )

    @property
    def baseline_param_names(self) -> tuple[str, ...]:
        return BASELINE_FAMILIES[self.baseline].param_names

    @property
    def param_names(self) -> tuple[str, ...]:
        return FAMILY_PARAM_NAMES + self.baseline_param_names

    @property
    def free_names(self) -> tuple[str, ...]:
        return tuple(name for name in self.param_names if name not in self.fixed)

    @property
    def k_params(self) -> int:
        return len(self.free_names)

    def build(self, free_values) -> BgmoDistribution:
        """Bind free parameter values (array in free_names order, or mapping)."""
        if isinstance(free_values, dict):
            values = dict(self.fixed, **free_values)
        else:
            values = dict(self.fixed, **dict(zip(self.free_names, np.asarray(free_values, dtype=float))))
        fam = {name: float(values[name]) for name in FAMILY_PARAM_NAMES}
        base = {name: float(values[name]) for name in self.baseline_param_names}
        return BgmoDistribution(
            BgmoParams(**fam), make_baseline(self.baseline, **base, **self.options)
        )


@dataclass(frozen=True)
class FitConfig:
    """Search controls: restart count, iteration budgets, tolerances, box.

    ``start_box`` maps parameter names to (low, high) ranges, sampled
    log-uniformly; it is also the hard search region.  Unlisted parameters use
    (0.05, 20), except a baseline rate ``lam`` whose default box is scaled by
    the reciprocal sample mean.
    """

    starts: int = 24
    max_iter: int = 2000
    f_tol: float = 1e-9
    x_tol: float = 1e-8
    seed: int = 0
    level: float = 0.05
    start_box: dict[str, tuple[float, float]] = field(default_factory=dict)
    polish_rounds: int = 4

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be at least 1")
        if self.f_tol <= 0 or self.x_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not 0 < self.level < 1:
            raise ValueError("level must be in (0, 1)")


@dataclass(frozen=True)
class FitResult:
    """Estimates plus the usual large-sample summaries."""

    estimates: dict[str, float]
    log_likelihood: float
    covariance: np.ndarray | None
    std_errors: dict[str, float]
    conf_intervals: dict[str, tuple[float, float]] | None
    aic: float
    bic: float
    caic: float
    hqic: float
    converged: bool
    information_pd: bool
    at_boundary: tuple[str, ...]
    n_obs: int
    k_params: int
    level: float

    def to_dict(self) -> dict:
        ci = None
        if self.conf_intervals is not None:
            ci = {k: [v[0], v[1]] for k, v in self.conf_intervals.items()}
        return {
            "estimates": self.estimates,
            "se": self.std_errors,
            "ci": ci,
            "logLik": self.log_likelihood,
            "aic": self.aic,
            "bic": self.bic,
            "caic": self.caic,
            "hqic": self.hqic,
            "converged": self.converged,
            "n": self.n_obs,
            "k": self.k_params,
        }

    def to_json(self, indent: int = 2) -> str:
        def walk(node):
            if isinstance(node, dict):
                return {k: walk(v) for k, v in node.items()}
            if isinstance(node, (list, tuple)):
                return [walk(v) for v in node]
            if isinstance(node, (float, np.floating)):
                x = float(node)
                return x if math.isfinite(x) else None
            if isinstance(node, (int, np.integer, bool)):
                return node
            return node

        return json.dumps(walk(self.to_dict()), indent=indent, sort_keys=True)


# --- likelihood and score ----------------------------------------------------


def log_likelihood(template: ModelTemplate, params, data) -> float:
    """Sum of log densities; -inf when any observation has zero density."""
    data = np.asarray(data, dtype=float)
    try:
        dist = template.build(params)
    except ValueError:
        return -math.inf
    with np.errstate(all="ignore"):
        contributions = dist.log_pdf(data)
    total = float(np.sum(contributions))
    return total if math.isfinite(total) else -math.inf


def _score_analytic(template, values: dict[str, float], data):
    """Closed-form score, written through log s, log(1 - s) and d(log sf_G).

    With D = 1 - (1-alpha)*sf_G the tilted survival s = alpha*sf_G/D has
    d(log s)/d(alpha) = (1 - s)/alpha and d(log s)/d(phi) = d(log sf_G)/d(phi)/D
    for a baseline parameter phi.  Every term is then a bounded factor times a
    quantity taken in log space, so the score stays finite wherever the
    log-likelihood is, including where sf_G or 1 - s underflows.
    """
    dist = template.build(values)
    p = dist.params
    m, n, theta, alpha = p.m, p.n, p.theta, p.alpha
    b = dist.baseline
    t = np.asarray(data, dtype=float)
    r = len(t)

    log_s, log_1ms, log_gbar, log_d = dist._log_tilt(t)
    log_z = _log_one_minus_power(theta, log_s, log_1ms)  # log(1 - s^theta)
    odds = np.exp(theta * log_s - log_z)  # s^theta/(1 - s^theta)
    # d(log f)/d(alpha) = theta/alpha - (theta+1)*sf_G/D + theta/alpha * w_alpha
    w_alpha = (1.0 - m) * np.exp(theta * log_s + log_1ms - log_z) + (n - 1.0) * np.exp(log_1ms)
    gbar_d = np.exp(log_gbar - log_d)  # sf_G/D

    out = {}
    psi_mn = special.digamma(m + n)
    out["m"] = r * (psi_mn - special.digamma(m)) + float(np.sum(log_z))
    out["n"] = r * (psi_mn - special.digamma(n)) + float(theta * np.sum(log_s))
    out["theta"] = float(r / theta + np.sum(log_s * (n + (1.0 - m) * odds)))
    out["alpha"] = float(
        r * theta / alpha - (theta + 1.0) * np.sum(gbar_d) + theta / alpha * np.sum(w_alpha)
    )
    # d(log f)/d(log sf_G): the tilt's own terms plus d(log s)/d(log sf_G) = 1/D
    # times the beta layer's d(log f)/d(log s)
    per_log_sf = (
        theta - 1.0
        + (theta + 1.0) * (1.0 - alpha) * gbar_d
        + theta * np.exp(-log_d) * ((1.0 - m) * odds + n - 1.0)
    )
    dlogg = b.log_pdf_partials(t)
    dlogsf = b.log_sf_partials(t)
    for name in template.baseline_param_names:
        out[name] = float(np.sum(dlogg[name]) + np.sum(dlogsf[name] * per_log_sf))
    return out


def score(template: ModelTemplate, params, data, mode: str = "analytic") -> np.ndarray:
    """Gradient of the log-likelihood in the template's free parameters.

    ``analytic`` uses closed-form partials (requires a baseline with coded
    derivatives; falls back to finite differences with a warning otherwise).
    ``finite_difference`` uses 5-point central differencing.
    """
    if isinstance(params, dict):
        values = dict(template.fixed, **params)
    else:
        values = dict(template.fixed, **dict(zip(template.free_names, np.asarray(params, dtype=float))))
    if mode == "analytic":
        b_cls = BASELINE_FAMILIES[template.baseline]
        if not (hasattr(b_cls, "log_sf_partials") and hasattr(b_cls, "log_pdf_partials")):
            warnings.warn(
                f"no analytic partials for baseline {template.baseline!r}; "
                "falling back to finite differences",
                stacklevel=2,
            )
            mode = "finite_difference"
        else:
            full = _score_analytic(template, values, data)
            return np.array([full[name] for name in template.free_names])
    if mode != "finite_difference":
        raise ValueError(f"unknown score mode {mode!r}")
    x = np.array([values[name] for name in template.free_names])

    def ll(vec):
        return log_likelihood(template, vec, data)

    out = np.empty(len(x))
    for i in range(len(x)):
        h = 1e-3 * max(abs(x[i]), 1e-3)
        e = np.zeros_like(x)
        e[i] = 1.0
        out[i] = (
            -ll(x + 2 * h * e) + 8 * ll(x + h * e) - 8 * ll(x - h * e) + ll(x - 2 * h * e)
        ) / (12 * h)
    return out


# --- observed information and intervals ---------------------------------------


def observed_information(template: ModelTemplate, params_hat, data) -> np.ndarray:
    """Negative Hessian of the log-likelihood by central differences."""
    if isinstance(params_hat, dict):
        x = np.array([dict(template.fixed, **params_hat)[n] for n in template.free_names])
    else:
        x = np.asarray(params_hat, dtype=float)
    names = template.free_names
    k = len(x)
    h = np.maximum(1e-4 * np.abs(x), 1e-6)

    def ll(vec):
        return log_likelihood(template, vec, data)

    base = ll(x)
    H = np.empty((k, k))
    for i in range(k):
        ei = np.zeros(k)
        ei[i] = h[i]
        H[i, i] = (ll(x + ei) - 2.0 * base + ll(x - ei)) / h[i] ** 2
        for j in range(i + 1, k):
            ej = np.zeros(k)
            ej[j] = h[j]
            H[i, j] = H[j, i] = (
                ll(x + ei + ej) - ll(x + ei - ej) - ll(x - ei + ej) + ll(x - ei - ej)
            ) / (4.0 * h[i] * h[j])
    if not np.all(np.isfinite(H)):
        bad = [
            (names[i], names[j])
            for i in range(k)
            for j in range(k)
            if not np.isfinite(H[i, j])
        ]
        raise ArithmeticError(f"non-finite observed information for parameter pairs {bad}")
    info = -0.5 * (H + H.T)
    return info


def wald_interval(estimate: float, std_error: float, gamma: float = 0.05):
    """estimate +- z_(gamma/2) * std_error; may extend below zero."""
    if std_error < 0:
        raise ValueError("std_error must be nonnegative")
    z = float(ndtri(1.0 - gamma / 2.0))
    return estimate - z * std_error, estimate + z * std_error


class InfoCriteria(tuple):
    """(aic, bic, caic, hqic) with named access."""

    __slots__ = ()

    def __new__(cls, aic, bic, caic, hqic):
        return super().__new__(cls, (aic, bic, caic, hqic))

    aic = property(lambda self: self[0])
    bic = property(lambda self: self[1])
    caic = property(lambda self: self[2])
    hqic = property(lambda self: self[3])


def info_criteria(log_l: float, k: int, n: int) -> InfoCriteria:
    """AIC, BIC, CAIC and HQIC from a maximized log-likelihood.

    CAIC requires n > k + 1 and is reported as NaN otherwise.
    """
    aic = 2.0 * k - 2.0 * log_l
    bic = k * math.log(n) - 2.0 * log_l if n > 0 else math.nan
    caic = aic + 2.0 * k * (k + 1.0) / (n - k - 1.0) if n > k + 1 else math.nan
    hqic = 2.0 * k * math.log(math.log(n)) - 2.0 * log_l if n > 1 else math.nan
    return InfoCriteria(aic, bic, caic, hqic)


# --- the fitter ----------------------------------------------------------------


def _default_box(template: ModelTemplate, data) -> dict[str, tuple[float, float]]:
    box = {name: (0.05, 20.0) for name in template.free_names}
    if "lam" in box:
        lam0 = 1.0 / float(np.mean(data))
        box["lam"] = (lam0 * 1e-2, lam0 * 1e2)
    if "theta_p" in box:
        # exponentiated-Pareto location must stay below the smallest observation
        tmin = float(np.min(data))
        box["theta_p"] = (tmin * 1e-3, tmin * (1.0 - 1e-9))
    return box


def fit_mle(template: ModelTemplate, data, config: FitConfig = FitConfig()) -> FitResult:
    """Box-constrained multi-start simplex maximum likelihood.

    Runs ``config.starts`` Nelder-Mead descents from scrambled-Sobol points in
    the log-space box, each polished by restarts until the improvement drops
    below ``f_tol``, and keeps the best final value (ties broken toward the
    lexicographically smaller parameter vector).  Estimates pinned against the
    box are flagged: ``converged`` is False and ``at_boundary`` names them.
    """
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise ValueError("data is empty")
    if not np.all(np.isfinite(data)):
        bad = np.nonzero(~np.isfinite(data))[0]
        raise ValueError(f"non-finite observations at indices {bad.tolist()}")
    bad = np.nonzero(data <= 0)[0]
    if bad.size:
        raise ValueError(f"observations at indices {bad.tolist()} are outside the support")

    names = template.free_names
    k = len(names)
    if k == 0:
        raise ValueError("template fixes every parameter; nothing to fit")
    box = _default_box(template, data)
    box.update({n: v for n, v in config.start_box.items() if n in names})
    lo = np.log([box[n][0] for n in names])
    hi = np.log([box[n][1] for n in names])

    def neg_ll(x):
        if np.any(x < lo) or np.any(x > hi):
            return 1e300
        value = log_likelihood(template, np.exp(x), data)
        return -value if math.isfinite(value) else 1e300

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        sob = qmc.Sobol(d=k, scramble=True, seed=config.seed).random(config.starts)
    starts = lo + sob * (hi - lo)

    best = None
    best_x = None
    any_finite = False
    nm_opts = dict(maxiter=config.max_iter, fatol=config.f_tol, xatol=config.x_tol)
    # polish restarts rebuild the simplex with dimension-adapted coefficients,
    # which reliably frees runs stuck on descent plateaus
    polish_opts = dict(nm_opts, adaptive=True)
    for x0 in starts:
        run = minimize(neg_ll, x0, method="Nelder-Mead", options=nm_opts)
        for _ in range(config.polish_rounds):
            prev = run.fun
            run = minimize(neg_ll, run.x, method="Nelder-Mead", options=polish_opts)
            if prev - run.fun < config.f_tol:
                break
        if run.fun >= 1e300:
            continue
        any_finite = True
        if (
            best is None
            or run.fun < best.fun - config.f_tol
            or (abs(run.fun - best.fun) <= config.f_tol and tuple(run.x) < tuple(best_x))
        ):
            best, best_x = run, run.x
    if not any_finite:
        raise FitError(
            f"all {config.starts} restarts produced non-finite likelihood "
            f"(baseline={template.baseline}, n={data.size}); widen start_box or check data"
        )

    edge = 1e-4 * (hi - lo)
    at_boundary = tuple(
        names[i] for i in range(k) if best_x[i] < lo[i] + edge[i] or best_x[i] > hi[i] - edge[i]
    )
    estimates_vec = np.exp(best_x)
    estimates = {n: float(v) for n, v in zip(names, estimates_vec)}
    log_l = -float(best.fun)

    info_pd = False
    cov = None
    se = {n: math.nan for n in names}
    ci = None
    try:
        info = observed_information(template, estimates_vec, data)
        np.linalg.cholesky(info)
        cov = np.linalg.inv(info)
        diag = np.diag(cov)
        if np.all(diag >= 0):
            info_pd = True
            se = {n: float(math.sqrt(d)) for n, d in zip(names, diag)}
            ci = {
                n: wald_interval(estimates[n], se[n], config.level) for n in names
            }
    except (np.linalg.LinAlgError, ArithmeticError):
        pass

    crit = info_criteria(log_l, k, int(data.size))
    return FitResult(
        estimates=estimates,
        log_likelihood=log_l,
        covariance=cov,
        std_errors=se,
        conf_intervals=ci,
        aic=crit.aic,
        bic=crit.bic,
        caic=crit.caic,
        hqic=crit.hqic,
        converged=bool(best.success) and not at_boundary,
        information_pd=info_pd,
        at_boundary=at_boundary,
        n_obs=int(data.size),
        k_params=k,
        level=config.level,
    )
