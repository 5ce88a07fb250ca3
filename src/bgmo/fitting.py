"""Maximum-likelihood fitting with multi-start bounded L-BFGS-B.

The likelihood is maximized over log-transformed parameters (positivity is
structural) inside a compact search box.  For several baselines this family's
likelihood has no interior maximum: it keeps rising along a degenerate ridge
of extreme parameter combinations, so an unbounded search never terminates at
a statistically meaningful point.  The box makes the maximization well posed.

Each restart is one L-BFGS-B run (Byrd, Lu, Nocedal & Zhu 1995) driven by the
analytic score, which every baseline's partials feed; the observed information
is central differences of the same score, all stepped points in one batched
call.  The restarts run in lockstep: ``fit_mle`` steps scipy's
reverse-communication routine ``setulb`` (Zhu, Byrd, Lu & Nocedal 1997, ACM
TOMS Algorithm 778) itself, once per restart per round, in the loop
``scipy.optimize.minimize`` runs around it, and every restart that asks for
the objective at a new point joins one batched likelihood call.  A fit thus
makes as many likelihood calls as its longest restart makes evaluations, and
each restart follows exactly the path ``minimize`` would take from its start.

The score is taken in the log coordinates the search runs in, d/d(log phi),
so it stays finite where a parameter is subnormal.  The template and the data are bound once per fit:
``ModelTemplate`` checks its fixed values and resolves its names, search
coordinates, free slots and baseline class at construction, and ``_Likelihood`` floors the
observations to the support, checks them against a fixed support edge and
keeps their log, once per distinct value where at least half of them repeat
one, so each evaluation binds its vectors by position, masks the
rows outside the parameters' domain and runs one unmasked baseline pass.  The
public functions read a point by one rule (``ModelTemplate._free``); ``log_likelihood``
is the kernel's total, -inf outside the domain, where ``score`` and
``observed_information`` raise ``ValueError``.
``fit_mle`` rejects observations below a fixed support edge with
``ValueError`` before any restart.  A Weibull baseline with both parameters
free is searched in its scale sigma = lam**(-1/beta) instead of its rate: lam
and beta are nearly collinear along the likelihood's ridge, sigma and beta are
not.  An estimate counts as pinned against the box when, at the optimum, a
search coordinate sits on a bound and the projected gradient points out of the
box (the KKT conditions of the bounded problem); such fits are reported with
``converged = False``, the coordinate named in ``at_boundary`` and no Wald
standard error or interval for its parameter.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np
from scipy.special import digamma, ndtri

from .baselines import Baseline, Points, _in_domain, baseline_class, make_baseline
from .family import BgmoDistribution, BgmoParams, _log_pdf_core, _require_seed
from .special import _each, _log

__all__ = [
    "FitConfig",
    "FitResult",
    "Restart",
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
# L-BFGS-B's relative reduction tolerance, and the gap within which two restarts tie
_F_TOL = 1e-9


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

    The names, the search coordinates, the slots of the free parameters and
    the baseline class with its built options are resolved once, at
    construction, so that ``build`` and the fitter bind a vector by position.
    ``search_names`` are ``fit_mle``'s coordinates, in free-parameter order:
    the free names, except that a Weibull baseline with ``lam`` and ``beta``
    both free is searched in its scale ``sigma`` = lam**(-1/beta).
    """

    baseline: str
    fixed: dict[str, float] = field(default_factory=dict)
    options: dict[str, object] = field(default_factory=dict)
    baseline_param_names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    param_names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    free_names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    search_names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    # every parameter's value in param_names order, NaN in the free slots
    _values: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _free_slots: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # the support's lower edge, or None where a free parameter moves it, and then that parameter's slot
    _support_edge: float | None = field(init=False, repr=False, compare=False)
    _edge_slot: int | None = field(init=False, repr=False, compare=False)
    # the free slots (i, j) of the Weibull scale sigma, searched for lam, and of beta, or None
    _scale: tuple[int, int] | None = field(init=False, repr=False, compare=False)
    # the baseline class and its built options (e.g. the extended Weibull's Z)
    _baseline_class: type[Baseline] = field(init=False, repr=False, compare=False)
    _options: dict[str, object] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b_cls = baseline_class(self.baseline)
        base_names = b_cls.param_names
        names = FAMILY_PARAM_NAMES + base_names
        bad = set(self.fixed) - set(names)
        if bad:
            raise ValueError(f"fixed parameters {sorted(bad)} not in {names}")
        bad = set(self.options) - set(b_cls.option_names)
        if bad:
            allowed = b_cls.option_names
            raise ValueError(f"options {sorted(bad)} not in {allowed} for {self.baseline}")
        # building the shapes and the baseline once checks the fixed and option values
        BgmoParams(*(self.fixed.get(name, 1.0) for name in FAMILY_PARAM_NAMES))
        probe = make_baseline(
            self.baseline, **{name: self.fixed.get(name, 1.0) for name in base_names}, **self.options
        )
        free = tuple(name for name in names if name not in self.fixed)
        edge_slot = names.index(b_cls.edge_param) if b_cls.edge_param in free else None
        scale = self.baseline == "weibull" and {"lam", "beta"} <= set(free)
        search = tuple("sigma" if scale and name == "lam" else name for name in free)
        resolved = dict(
            baseline_param_names=base_names,
            param_names=names,
            free_names=free,
            search_names=search,
            _values=tuple(float(self.fixed.get(name, math.nan)) for name in names),
            _free_slots=tuple(i for i, name in enumerate(names) if name not in self.fixed),
            _support_edge=probe.support_low if edge_slot is None else None,
            _edge_slot=edge_slot,
            _scale=(search.index("sigma"), search.index("beta")) if scale else None,
            _baseline_class=b_cls,
            _options={f.name: getattr(probe, f.name) for f in fields(probe) if f.name not in base_names},
        )
        for name, value in resolved.items():
            object.__setattr__(self, name, value)

    @property
    def k_params(self) -> int:
        return len(self.free_names)

    def build(self, point) -> BgmoDistribution:
        """Bind a point (see ``_free``).  ``BgmoParams`` and the baseline reject values
        outside their domain with ``ValueError``, fixed values included."""
        m, n, theta, alpha, *base = self._full(self._free(point).tolist())
        return BgmoDistribution(BgmoParams(m, n, theta, alpha), self._baseline_class(*base, **self._options))

    def _free(self, point) -> np.ndarray:
        """The free values of a point: a vector of ``k_params`` values in ``free_names`` order,
        or a mapping of exactly ``free_names``.  Anything else raises ``ValueError``."""
        if isinstance(point, Mapping):
            if set(point) != set(self.free_names):
                raise ValueError(f"a point maps exactly {list(self.free_names)}, got {list(point)}")
            point = [point[name] for name in self.free_names]
        values = np.asarray(point, dtype=float)
        if values.shape != (self.k_params,):
            raise ValueError(f"a point has {self.k_params} values {self.free_names}, got shape {values.shape}")
        return values

    def _full(self, free) -> list:
        """Every parameter's value in ``param_names`` order, with ``free`` in the free slots."""
        full = list(self._values)
        for slot, value in zip(self._free_slots, free):
            full[slot] = value
        return full


@dataclass(frozen=True)
class FitConfig:
    """Search controls: restart count, iteration budget, seed, level, box.

    ``start_box`` maps search-coordinate names to (low, high) ranges, sampled
    log-uniformly; it is also the hard search region.  Its keys are the
    template's ``ModelTemplate.search_names``: the free parameters, except
    that a Weibull baseline with ``lam`` and ``beta`` both free is searched
    in ``sigma`` = lam**(-1/beta), so its box key is ``sigma``, not ``lam``;
    ``fit_mle`` rejects any other key.  A range needs both ends positive and
    finite and low <= high, or construction raises ``ValueError``, as it
    does for a negative seed.
    Unlisted coordinates use (0.05, 20), except:

    - ``sigma``: the sample mean times or divided by 100;
    - a cumulative-hazard rate r (log sf = -r*Z(t)) whose Z is fully known,
      such as the exponential ``lam`` or the extended Weibull ``delta``: its
      closed-form MLE n / sum Z(t), times or divided by 100;
    - the exponentiated-Pareto location ``theta_p``: below the smallest
      observation.

    ``fit_mle`` holds the default ranges to the same rule: on data near the
    ends of the double range one can overflow, and it names the coordinate.
    """

    starts: int = 24
    max_iter: int = 2000
    seed: int = 0
    level: float = 0.05
    start_box: dict[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be at least 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        _require_seed(self.seed)
        if not 0 < self.level < 1:
            raise ValueError("level must be in (0, 1)")
        for key, (low, high) in self.start_box.items():
            _require_range(f"start_box[{key!r}]", low, high)


def _require_range(what: str, low, high) -> None:
    """Raise ``ValueError`` naming ``what`` unless 0 < low <= high < inf: both ends in the domain."""
    if not (_in_domain(low, high) and low <= high):
        raise ValueError(f"{what} needs 0 < low <= high < inf, got {(low, high)}")


@dataclass(frozen=True)
class Restart:
    """One L-BFGS-B run of ``fit_mle``, kept in ``FitResult.trace``.

    ``start`` and ``end`` are parameter values; ``at_bound`` names the search
    coordinates pinned at the end by the KKT rule; ``status`` and ``message``
    are scipy's (0 is convergence, 1 an iteration or evaluation limit, 2 a
    failed line search).  ``moved`` is False for a run that ended exactly at
    its start: where every trial point has zero likelihood, L-BFGS-B stays
    put and still reports status 0.  The restarts of a fit run in lockstep,
    so ``seconds`` is the time from the start of the fit's restarts to this
    run's stop, which includes the other runs' evaluations until then.
    """

    start: dict[str, float]
    end: dict[str, float]
    neg_log_lik: float
    nfev: int
    status: int
    message: str
    at_bound: tuple[str, ...]
    seconds: float
    moved: bool


@dataclass(frozen=True)
class FitResult:
    """Estimates plus the usual large-sample summaries.

    ``trace`` holds one ``Restart`` per start, in start order, and
    ``restarts_at_best`` counts the restarts whose final value is within
    1e-9 of the best; neither is part of ``to_dict``/``to_json``.  A
    parameter whose search coordinate is in ``at_boundary`` has a NaN standard
    error and interval (null in JSON): Wald numbers are not valid on the box.
    """

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
    trace: tuple[Restart, ...] = field(default=(), repr=False, compare=False)
    restarts_at_best: int = field(default=0, compare=False)

    def to_dict(self) -> dict:
        ci = self.conf_intervals
        return {
            "estimates": self.estimates,
            "se": self.std_errors,
            "ci": None if ci is None else {k: [v[0], v[1]] for k, v in ci.items()},
            "logLik": self.log_likelihood,
            "aic": self.aic,
            "bic": self.bic,
            "caic": self.caic,
            "hqic": self.hqic,
            "converged": self.converged,
            "n": self.n_obs,
            "k": self.k_params,
        }

    def to_json(self) -> str:
        def walk(node):
            if isinstance(node, dict):
                return {k: walk(v) for k, v in node.items()}
            if isinstance(node, (list, tuple)):
                return [walk(v) for v in node]
            if isinstance(node, (float, np.floating)):
                x = float(node)
                return x if math.isfinite(x) else None
            return node

        return json.dumps(walk(self.to_dict()), indent=2, sort_keys=True)


# --- likelihood and score ----------------------------------------------------


def log_likelihood(template: ModelTemplate, params, data) -> float:
    """Sum of log densities at a point, the kernel's total; -inf where any observation
    has zero density or the point is outside the parameters' domain."""
    return _Likelihood(template, data)(template._free(params))[0]


def _per_value(log_score, values):
    """d/d(phi) from the score d/d(log phi): divided by each phi, except a phi at 0
    (the modified Weibull's sigma or beta may be), which has no log, so its entry
    is d/d(phi) already."""
    with np.errstate(all="ignore"):  # d/d(phi) is about 1/phi where phi is subnormal
        return log_score / np.where(values == 0.0, 1.0, values)


class _Likelihood:
    """A template and its observations, bound once per fit.

    Calling it gives the log-likelihood and the analytic score at a vector
    of free values, or at each row of a (B, k) block of them in one pass;
    ``objective`` gives the negative of both at a search point, or at each
    row of a block of them.  The observations are floored to the support and
    checked against its edge once, and one ``Points`` over them keeps log t
    for the whole fit, so each evaluation runs one unmasked baseline pass.
    Only an edge that a free parameter moves (the exponentiated-Pareto
    location) is checked per evaluation: an observation below it has zero
    likelihood, and one on it is evaluated at the edge's floor.

    Where at least half the observations repeat an earlier one (at most n/2
    distinct values, as nicotine's 19 of 346), the points are the distinct
    values: every per-observation term is formed once per value, and each
    sum (the log-likelihood and the score rows) takes them back to data
    order first (``_in_data_order``), so it adds the same n doubles in the
    same order as a pass over every observation, bit for bit.  Elsewhere
    the points are the observations themselves: with few repeats the
    expansion costs more than it saves.

    One mask, from the shapes' and the baseline's domains and the support
    edge, selects the rows that are evaluated; ``_evaluate`` returns their raw
    sums, and one rule in ``__call__`` gives each row of non-finite total,
    evaluated or not, -inf and NaN.  Nothing raises.  The free parameters of
    several rows become columns, one row per vector, and the fixed ones stay
    numbers; every step is elementwise, and where numpy's array code could
    differ in the last bit from what a number gets, a column takes the
    number's call per value: the parameters' logs and log-gammas by the scalar
    ``math`` function (``special._each``), powers with a column exponent by
    one broadcast with its special-cased exponents redone
    (``special._power``).  So each row gets exactly the arithmetic of a
    one-row call; one row binds numbers and runs on floats.
    """

    def __init__(self, template: ModelTemplate, data):
        t = np.asarray(data, dtype=float).ravel()
        self.template = template
        self.low = float(t.min(initial=math.inf))
        edge = template._support_edge
        self.t = np.maximum(t, Baseline._eval_floor(edge or 0.0))
        self.outside = edge is not None and self.low < edge
        distinct, inverse = np.unique(self.t, return_inverse=True)
        if 2 * len(distinct) > len(self.t):  # with fewer repeats, expanding costs more than it saves
            distinct, inverse = self.t, None
        self.points, self.inverse = Points(distinct), inverse

    def __call__(self, values):
        """Log-likelihood and its score in the free parameters' logs, from one baseline pass.

        The score is d/d(log phi) = phi d/d(phi) for each free phi, the
        coordinates the search runs in (d/d(phi) for a baseline phi at 0,
        which has no log).  With D = 1 - (1-alpha)*sf_G the tilted
        survival s = alpha*sf_G/D has d(log s)/d(log alpha) = 1 - s and
        d(log s)/d(log phi) = d(log sf_G)/d(log phi)/D for a baseline
        parameter phi.  Every term is then a bounded factor times a quantity
        taken in log space, so the score stays finite wherever the
        log-likelihood is, including where sf_G or 1 - s underflows or phi is
        subnormal.  A vector gives a number and a vector; a (B, k) block
        gives a (B,) array of values and a (B, k) array of scores.  One rule,
        applied here to ``_evaluate``'s raw sums, gives a row outside the
        mask or of a non-finite total -inf and an all-NaN score.
        """
        template = self.template
        rows = np.atleast_2d(np.asarray(values, dtype=float))
        count = len(rows)
        # one row binds numbers, so its evaluation runs on floats; more bind columns
        full = template._full(rows[0].tolist() if count == 1 else rows.T.copy())
        ok = _in_domain(*full[:4]) & template._baseline_class._in_domain(*full[4:]) & (not self.outside)
        if template._edge_slot is not None:  # the edge moves with a free parameter
            ok = ok & (self.low >= full[template._edge_slot])
        total, scores = np.full(count, math.nan), np.empty((count, template.k_params))
        (keep,) = np.array(ok, ndmin=1).nonzero()  # ok is one flag for one row, else one per row
        if keep.size:
            if count > 1:
                full = [v[keep][:, None] if isinstance(v, np.ndarray) else v for v in full]
            m, n, theta, alpha, *base = full
            b = template._baseline_class._columns(*base, **template._options)
            x = self.points
            if template._edge_slot is not None and np.any(self.low == b.support_low):
                # the floor of an edge on the smallest observation leaves the other rows' points as they are
                x = Points(np.maximum(x.t, b._eval_floor(b.support_low)))
            total[keep], scores[keep] = self._evaluate(m, n, theta, alpha, b, x)
        zero = ~np.isfinite(total)  # the one zero-likelihood rule: rows masked out or of non-finite total
        total[zero], scores[zero] = -math.inf, math.nan
        return (float(total[0]), scores[0]) if np.ndim(values) == 1 else (total, scores)

    def _evaluate(self, m, n, theta, alpha, b, x):
        """The raw sums at points x from one pass of baseline b: log-likelihood and score.

        Numbers give a total and a (1, k) score, on floats; columns give (B,) and (B, k).
        A total that is not finite is returned as summed: ``__call__`` owns the rule.
        """
        template = self.template
        r = len(self.t)
        with np.errstate(all="ignore"):
            h, log_g, log_gbar, log_gcdf = b._pass(x)
            log_f, _, log_1ms, log_d, _, log_z, log_w = _log_pdf_core(
                m, n, theta, alpha, log_g, log_gbar, log_gcdf
            )
            m_odds = (1.0 - m) * np.exp(log_w - log_z)  # (1-m) * w/z, w = s^theta = 1 - z
            # d(log f)/d(log s) over theta
            beta_layer = m_odds + (n - 1.0)
            gbar_d = np.exp(log_gbar - log_d)  # sf_G/D
            # d(log f)/d(log sf_G): the tilt's own terms plus d(log s)/d(log sf_G) = 1/D
            # times the beta layer's d(log f)/d(log s)
            per_log_sf = (
                (theta - 1.0)
                + (theta + 1.0) * (1.0 - alpha) * gbar_d
                + np.exp(_log(theta) - log_d) * beta_layer
            )
            theta_row = log_w * (n + m_odds)
            # d(log f)/d(log alpha) = theta - (theta+1)*alpha*sf_G/D + theta * w_alpha,
            # with d(log s)/d(log alpha) = 1 - s
            w_alpha = np.exp(log_1ms) * beta_layer
            partials = b._partials(x, h)
            base_rows = [row for dlogg, dlogsf, _ in partials for row in (dlogg, dlogsf * per_log_sf)]
            if log_z.min(initial=np.inf) < -690.0:
                # where z < 1e-300, m_odds overflows while 1 - s and d(log sf_G) =
                # -(G/sf_G) d(log G) underflow; to double precision z = theta (1 - s)
                # there, so log w * m_odds is m - 1, (1 - s) m_odds is (1 - m)/theta,
                # and each baseline parameter's d(log sf_G) term (after its d log g)
                # is (m - 1) d(log G)
                deep = log_z < -690.0
                theta_row = np.where(deep, n * log_w + (m - 1.0), theta_row)
                w_alpha = np.where(deep, (1.0 - m) / theta, w_alpha)
                for i, (_, _, dlogcdf) in enumerate(partials):
                    base_rows[2 * i + 1] = np.where(deep, (m - 1.0) * dlogcdf, base_rows[2 * i + 1])
            rows = [log_f, log_z, log_w, theta_row, gbar_d, w_alpha, *base_rows]
            # one reduction, each row summed contiguously, so the same pairwise sums as one by one;
            # log f's sum first, then the score's: floats for one row, so it runs on floats, columns for a block
            stacked = np.empty((len(rows), *log_f.shape))
            for out, row in zip(stacked, rows):
                out[...] = row
            sums = self._in_data_order(stacked).sum(axis=-1)
            total, sums = sums[0], (sums[1:].tolist() if sums.ndim == 1 else sums[1:, :, None])
            sum_log_z, sum_log_w, sum_theta, sum_gbar_d, sum_w_alpha, *sum_base = sums
            psi_mn = digamma(m + n)
            full = [
                m * (r * (psi_mn - digamma(m)) + sum_log_z),
                n * (r * (psi_mn - digamma(n)) + sum_log_w),
                r + sum_theta,
                theta * (r + sum_w_alpha) - (theta + 1.0) * alpha * sum_gbar_d,
                *(g + sf for g, sf in zip(sum_base[::2], sum_base[1::2])),
            ]
        score = np.array([full[slot] for slot in template._free_slots])
        return total, score.reshape(-1, total.size).T

    def _in_data_order(self, a):
        """Per-point terms along a's last axis, one per observation in data order.

        ``np.take`` gives a C-contiguous copy, so its sum adds the same doubles
        in the same order as a pass over every observation; a fancy index on
        the last axis would not be contiguous, and numpy would sum it otherwise.
        """
        return a if self.inverse is None else np.take(a, self.inverse, axis=-1)

    def objective(self, x):
        """Negative log-likelihood at search point x and its gradient in x.

        Every coordinate is a log parameter, so the gradient is the score in
        log coordinates, except that the Weibull scale's coordinate log sigma
        reaches log lam = -beta log sigma.  Where the likelihood is zero the
        value is inf and the gradient zero.  A (B, k) block of points gives
        a (B,) array of values and a (B, k) array of gradients.
        """
        block = np.atleast_2d(x)
        scale = self.template._scale
        params = _to_params(block, scale)
        value, grad = self(params)
        if scale is not None:
            i, j = scale
            with np.errstate(all="ignore"):  # the rows of zero likelihood are NaN
                grad[:, j] += block[:, i] * -params[:, j] * grad[:, i]  # d log lam/d log beta = -beta log sigma
                grad[:, i] *= -params[:, j]  # d log lam/d log sigma = -beta
        value, grad = -value, -grad
        zero = ~np.isfinite(value)
        value[zero], grad[zero] = math.inf, 0.0
        return (float(value[0]), grad[0]) if np.ndim(x) == 1 else (value, grad)


def score(template: ModelTemplate, params, data) -> np.ndarray:
    """Gradient of the log-likelihood in the template's free parameters.

    Closed-form: the baseline's partials chained through the tilt and the
    beta layer, in log coordinates and divided by the parameters
    (``_per_value``).  Where the likelihood is zero it is an all-NaN vector.
    A point outside the parameters' domain raises ``ValueError``.
    """
    free = template._free(params)
    template.build(free)
    return _per_value(_Likelihood(template, data)(free)[1], free)


# --- observed information and intervals ---------------------------------------


def observed_information(template: ModelTemplate, params_hat, data) -> np.ndarray:
    """Negative Hessian of the log-likelihood: central differences of ``score``, symmetrized.

    The score at every stepped point comes from one batched likelihood call
    of 2k + 1 points for k free parameters, the centre once.

    The steps are 1e-4 of each value (relative, so a tiny rate keeps its
    precision).  A value of exactly 0 (the modified Weibull's sigma or beta
    may be) is on its domain's edge, so there the difference is the
    second-order forward one, (-3 s(x) + 4 s(x + h) - s(x + 2h)) / 2h with
    h = 1e-6.  A non-finite entry raises ``ArithmeticError``.
    """
    x = template._free(params_hat)
    template.build(x)  # a point outside the parameters' domain raises ValueError
    k, zero = len(x), (x == 0.0)[:, None]  # zero and h are columns, one entry per row of H
    h = np.where(zero, 1e-6, 1e-4 * np.abs(x)[:, None])
    steps = np.diag(h[:, 0])
    # one block of 2k + 1 points: x + h_i e_i for each i, then x + 2 h_i e_i where x_i = 0
    # and x - h_i e_i elsewhere, then x itself
    points = x + np.concatenate([steps, np.where(zero, 2.0 * steps, -steps), np.zeros((1, k))])
    s = _per_value(_Likelihood(template, data)(points)[1], points)
    up, other, centre = s[:k], s[k:-1], s[-1]
    with np.errstate(all="ignore"):  # a difference that overflows is caught below
        H = np.where(zero, (4.0 * up - other - 3.0 * centre) / (2.0 * h), (up - other) / (2.0 * h))
        info = -0.5 * (H + H.T)
    if not np.all(np.isfinite(info)):
        names = template.free_names
        bad = [(names[i], names[j]) for i, j in zip(*np.nonzero(~np.isfinite(info))) if i <= j]
        raise ArithmeticError(f"non-finite observed information for parameter pairs {bad}")
    return info


def wald_interval(estimate: float, std_error: float, gamma: float = 0.05):
    """estimate +- z_(gamma/2) * std_error; may extend below zero."""
    if std_error < 0:
        raise ValueError("std_error must be nonnegative")
    z = float(ndtri(1.0 - gamma / 2.0))
    return estimate - z * std_error, estimate + z * std_error


class InfoCriteria(NamedTuple):
    """(aic, bic, caic, hqic) with named access."""

    aic: float
    bic: float
    caic: float
    hqic: float


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
    box = dict.fromkeys(template.search_names, (0.05, 20.0))
    rate = template._baseline_class.hazard_rate
    with np.errstate(over="ignore"):  # a sum past the largest double is inf, and fit_mle names its range
        if template._scale is not None:
            mean = float(np.mean(data))
            box["sigma"] = (mean * 1e-2, mean * 1e2)
        if rate in box and set(template.baseline_param_names) - {rate} <= set(template.fixed):
            # log sf = -rate*Z(t) with Z known, so the baseline alone has the
            # closed-form MLE n / sum Z(t); Z is minus the log sf at rate 1
            unit = template._full([1.0] * template.k_params)[4:]
            unit_baseline = template._baseline_class(*unit, **template._options)
            total = -float(np.sum(unit_baseline.log_sf(data)))
            if 0 < total < math.inf:
                rate0 = data.size / total
                box[rate] = (rate0 * 1e-2, rate0 * 1e2)
    if template._edge_slot is not None:
        # a moving support edge (the exponentiated-Pareto location) must stay below the smallest observation
        tmin = float(np.min(data))
        box[template.param_names[template._edge_slot]] = (tmin * 1e-3, tmin * (1.0 - 1e-9))
    return box


def _to_params(x, scale: tuple[int, int] | None):
    """Free parameters at search point x, or at each row of a block of points.

    Every coordinate is a log parameter, except that with ``scale = (i, j)``
    coordinate i is log sigma and parameter i is lam = sigma**(-beta), beta
    being parameter j: one product gives every row's log lam, and lam is its
    ``math.exp`` per value (``special._each``), as a single point takes it.
    A lam past the largest double is inf, a point of zero likelihood.
    """
    params = np.exp(x)
    if scale is not None:
        i, j = scale
        rows = params.reshape(-1, params.shape[-1])  # a view: writing a row writes params
        rows[:, i] = _each(_exp, -rows[:, j] * np.reshape(x, rows.shape)[:, i])
    return params


def _exp(v: float) -> float:
    """``math.exp``, inf past the largest double."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _pinned(names, x, grad, lo, hi) -> tuple[str, ...]:
    """Coordinates on a bound with the objective's gradient pointing out of the box (KKT)."""
    hit = ((x <= lo) & (grad > 0)) | ((x >= hi) & (grad < 0))
    return tuple(name for name, h in zip(names, hit) if h)


class _Run(NamedTuple):
    """The end of one L-BFGS-B run, as scipy's ``minimize`` reports it, and its time."""

    x: np.ndarray
    fun: float
    jac: np.ndarray
    nfev: int
    status: int
    message: str
    seconds: float


# scipy's L-BFGS-B defaults: stored corrections, projected-gradient tolerance,
# line-search steps and evaluation limit
_MAXCOR, _PGTOL, _MAXLS, _MAXFUN = 10, 1e-5, 20, 15000


def _descent(x0, low, up, max_iter, lbfgsb):
    """One L-BFGS-B run (Zhu, Byrd, Lu & Nocedal 1997): yields each point it needs f and g at,
    as a list of floats, is sent (f, g) there, and returns its ``_Run`` (seconds 0).

    This is scipy's own loop around the reverse-communication routine
    ``setulb`` in ``minimize(method="L-BFGS-B", jac=True)``, step for step:
    x0 clipped to the box, one evaluation there before the first ``setulb``
    call (which gets f = 0 and g = 0), the last f and g reused where
    ``setulb`` asks again at an equal x, and the same limits, status and
    message.  x equals the last point asked by ``np.array_equal``'s rule,
    ``==`` at every coordinate, taken on ``x.tolist()``: -0.0 equals 0.0,
    and a NaN equals nothing.  The box [low, up] is finite.  ``lbfgsb`` is
    scipy's ``setulb`` and its status and task messages.
    """
    setulb, status_messages, task_messages = lbfgsb
    k = len(x0)
    x = np.clip(x0, low, up)
    at = x.tolist()
    f_at, g_at = yield at
    nfev, nit = 1, 0
    f, g = np.array(0.0), np.zeros(k)
    wa = np.zeros(2 * _MAXCOR * k + 5 * k + 11 * _MAXCOR**2 + 8 * _MAXCOR)
    iwa = np.zeros(3 * k, np.int32)
    task, ln_task, lsave = np.zeros(2, np.int32), np.zeros(2, np.int32), np.zeros(4, np.int32)
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    factr = _F_TOL / np.finfo(float).eps
    nbd = np.full(k, 2, np.int32)  # every coordinate bounded on both sides
    while True:
        g = g.astype(np.float64)
        setulb(_MAXCOR, x, low, up, nbd, f, g, factr, _PGTOL, wa, iwa, task, lsave, isave, dsave,
               _MAXLS, ln_task)
        step = task.item(0)
        if step == 3:  # f and g wanted at x
            asked = x.tolist()
            if asked != at:
                at = asked
                f_at, g_at = yield at
                nfev += 1
            f, g = f_at, g_at
        elif step == 1:  # a new iterate
            nit += 1
            if nit >= max_iter:
                task[:] = 5, 504
            elif nfev > _MAXFUN:
                task[:] = 5, 502
        else:
            break
    status = 0 if step == 4 else 1 if nfev > _MAXFUN or nit >= max_iter else 2
    message = status_messages[step] + ": " + task_messages[task.item(1)]
    return _Run(x, f, g, nfev, status, message, 0.0)


def _lockstep(objective, starts, lo, hi, max_iter) -> list[_Run]:
    """A ``_descent`` from each start in the box [lo, hi], all stepped together.

    Each round, every run that needs f and g at a new point gets them from
    one ``objective`` call on the block of those points, so a fit makes as
    many objective calls as its longest run makes evaluations.  The runs do
    not interact: each follows exactly the path it would follow alone.  A
    run's seconds count from the start of the batch to its stop.  The box
    is finite, as ``FitConfig`` and ``fit_mle`` check it, so every
    coordinate is bounded on both sides; an upper bound below its lower one
    raises ``ValueError``, as in scipy.  A scipy whose private ``setulb``
    does not import raises ``ImportError`` naming its version.
    """
    try:  # imported here, once per fit, so that ``import bgmo`` does not load scipy.optimize
        from scipy.optimize._lbfgsb import setulb
        from scipy.optimize._lbfgsb_py import status_messages, task_messages
    except ImportError as error:
        from scipy import __version__

        raise ImportError(
            f"the fitter steps scipy 1.17's private L-BFGS-B routine setulb, which did not import "
            f"from the installed scipy {__version__}; it needs scipy>=1.17,<1.18"
        ) from error

    if np.any(hi < lo):
        raise ValueError("An upper bound is less than the corresponding lower bound.")
    t0 = time.perf_counter()
    lbfgsb = setulb, status_messages, task_messages
    runs = [_descent(x0, lo, hi, max_iter, lbfgsb) for x0 in starts]
    ends = [None] * len(runs)
    waiting = [(i, run, next(run)) for i, run in enumerate(runs)]
    while waiting:
        values, grads = objective(np.array([x for _, _, x in waiting]))
        asked = []
        for (i, run, _), f, g in zip(waiting, values.tolist(), grads):
            try:
                asked.append((i, run, run.send((f, g))))
            except StopIteration as stop:
                ends[i] = stop.value._replace(seconds=time.perf_counter() - t0)
        waiting = asked
    return ends


def _indices(bad) -> str:
    """The observations flagged by ``bad`` for an error message: their indices, only
    the first five and their count of all where there are more, so its length is bounded."""
    where = np.flatnonzero(bad)
    if where.size <= 5:
        return f"indices {where.tolist()}"
    return f"indices {str(where[:5].tolist())[:-1]}, ...] ({where.size} of {bad.size})"


def fit_mle(template: ModelTemplate, data, config: FitConfig = FitConfig()) -> FitResult:
    """Box-constrained multi-start L-BFGS-B maximum likelihood.

    Runs one L-BFGS-B descent from each of ``config.starts`` scrambled-Sobol
    points in the log-space box of the search coordinates (see ``FitConfig``
    for the coordinates, their ``start_box`` keys and default boxes), on the
    negative log-likelihood and its gradient, the analytic score times
    d(params)/d(coordinates); the descents run in lockstep, one batched
    likelihood call per round (``_lockstep``).  It keeps the best final value (ties
    within 1e-9 broken toward the lexicographically smaller coordinate
    vector).
    A coordinate that ends on a bound with the projected gradient pointing
    out of the box is pinned by the box: ``at_boundary`` names it and
    ``converged`` is False, and its standard error and interval are NaN.
    ``converged`` is also False when the best run stopped at its iteration or
    evaluation limit, or never left its start.  ``trace`` records every run.
    Estimates are reported under the template's parameter names.
    """
    # imported here so that ``import bgmo`` does not load scipy.stats
    from scipy.stats import qmc

    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise ValueError("data is empty")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"non-finite observations at {_indices(~np.isfinite(data))}")
    if np.any(data <= 0):
        raise ValueError(f"observations at {_indices(data <= 0)} are outside the support")
    edge = template._support_edge or 0.0  # an edge a free parameter moves is checked per evaluation
    if np.any(data < edge):
        raise ValueError(
            f"observations at {_indices(data < edge)} are below the support edge "
            f"{edge:g} of {template.baseline}"
        )

    free = template.free_names
    k = len(free)
    if k == 0:
        raise ValueError("template fixes every parameter; nothing to fit")
    names = template.search_names
    unknown = set(config.start_box) - set(names)
    if unknown:
        raise ValueError(f"start_box keys {sorted(unknown)} are not search coordinates {names}")
    box = _default_box(template, data)
    box.update(config.start_box)
    for name in names:  # a default range overflows only for data near the ends of the double range
        _require_range(f"the default range of {name!r} (set start_box[{name!r}] to replace it)", *box[name])
    lo = np.log([box[n][0] for n in names])
    hi = np.log([box[n][1] for n in names])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        sob = qmc.Sobol(d=k, scramble=True, seed=config.seed).random(config.starts)
    starts = lo + sob * (hi - lo)
    runs = _lockstep(_Likelihood(template, data).objective, starts, lo, hi, config.max_iter)
    scale = template._scale
    ends = _to_params(np.array([run.x for run in runs]), scale).tolist()
    trace = tuple(
        Restart(
            start=dict(zip(free, start)),
            end=dict(zip(free, end)),
            neg_log_lik=float(run.fun),
            nfev=run.nfev,
            status=run.status,
            message=run.message,
            at_bound=_pinned(names, run.x, run.jac, lo, hi),
            seconds=run.seconds,
            moved=not np.array_equal(run.x, x0),
        )
        for x0, start, run, end in zip(starts, _to_params(starts, scale).tolist(), runs, ends)
    )
    best = None  # the index of the best finite run so far
    for i, run in enumerate(runs):
        if math.isfinite(run.fun) and (
            best is None
            or run.fun < runs[best].fun - _F_TOL
            or (abs(run.fun - runs[best].fun) <= _F_TOL and tuple(run.x) < tuple(runs[best].x))
        ):
            best = i
    if best is None:
        raise FitError(
            f"all {config.starts} restarts produced non-finite likelihood "
            f"(baseline={template.baseline}, n={data.size}); widen start_box or check data"
        )
    chosen = trace[best]  # the report's one source
    estimates, at_boundary, log_l = dict(chosen.end), chosen.at_bound, -chosen.neg_log_lik

    info_pd, cov, ci = False, None, None
    se = {n: math.nan for n in free}
    try:
        info = observed_information(template, estimates, data)
        np.linalg.cholesky(info)
        cov = np.linalg.inv(info)
        diag = np.diag(cov)
        if np.all(diag >= 0):
            info_pd = True
            # a NaN SE gives the interval (NaN, NaN)
            se = {
                n: math.nan if name in at_boundary else float(math.sqrt(d))
                for n, name, d in zip(free, names, diag)
            }
            ci = {n: wald_interval(estimates[n], se[n], config.level) for n in free}
    except (np.linalg.LinAlgError, ArithmeticError, ValueError):
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
        converged=chosen.status == 0 and chosen.moved and not at_boundary,
        information_pd=info_pd,
        at_boundary=at_boundary,
        n_obs=int(data.size),
        k_params=k,
        level=config.level,
        trace=trace,
        restarts_at_best=sum(abs(r.neg_log_lik - chosen.neg_log_lik) <= _F_TOL for r in trace),
    )
