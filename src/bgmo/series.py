"""Series expansions and integral functionals of the family.

The density and distribution function admit mixture expansions in powers of
the tilted survival S(t) = alpha*sf_G/(1-(1-alpha)*sf_G) or of its complement
C(t) = 1 - S(t).  For integer shape m the expansions are finite and exact;
for real m they are generalized-binomial series truncated at ``max_terms``
terms (60 by default).  Everything here is cross-checkable against the direct
evaluations in ``family``.  The integral functionals (PWMs, moments, mgf,
entropy) integrate over v = G(t), split at v = 1/2, with a tanh-sinh rule
whose node ladder is computed once at import (levels 0 to 8, stopped by
Bailey's error estimate at 1e-14 relative).  Levels 0 to 3 and the points of
the upper-tail decay check share one call of the integrand; each later level
is one call.  Each series is one batched integral, one per term, which shares
the baseline's values at each node, and one dot product with its weight
table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import special
from .baselines import Baseline, _hazard_levels, _require_in_domain, _zero_where_g_is, _zmul
from .family import BgmoDistribution, _log_pdf_core

__all__ = [
    "SeriesEval",
    "DivergenceError",
    "ExpansionCoeffs",
    "expansion_coefficients",
    "delta_coeffs",
    "pdf_via_expansion",
    "cdf_via_expansion",
    "order_stat_pdf",
    "pwm_mo",
    "moment_series",
    "moment_direct",
    "order_stat_moment",
    "mgf",
    "mgf_series",
    "renyi_entropy",
    "asymptote",
    "TailApproximant",
]


# a pointwise expansion has converged when it is within this of the exact value, relative
_CONVERGED_RTOL = 1e-10


@dataclass(frozen=True)
class SeriesEval:
    """A pointwise expansion's value with its measured error.

    ``tail`` is |value - exact|, the gap to the exact ``pdf``/``cdf`` that
    ``family`` computes at the same point, and ``converged`` is
    tail <= 1e-10 * |exact| (``_CONVERGED_RTOL``).  All three are plain
    Python ``float``/``bool``.
    """

    value: float
    converged: bool
    tail: float

    def __float__(self):
        return self.value


class DivergenceError(ArithmeticError):
    """An integral functional fails its tail-decay convergence check."""


@dataclass(frozen=True)
class ExpansionCoeffs:
    """All coefficient tables of the series machinery for one parameter set.

    ``delta``/``delta_prime`` weight powers of the tilted survival, ``phi``
    and ``chi`` weight powers of its complement, ``psi`` is the integer-shape
    cdf table, and ``xi``/``d_table`` appear only when an order-statistic
    context (r, sample_n) is supplied.
    """

    delta: np.ndarray
    delta_prime: np.ndarray
    phi: np.ndarray
    chi: np.ndarray
    psi: np.ndarray | None = None
    xi: np.ndarray | None = None
    d_table: np.ndarray | None = None


def expansion_coefficients(
    m: float,
    n: float,
    theta: float,
    max_terms: int = 60,
    r: int | None = None,
    sample_n: int | None = None,
) -> ExpansionCoeffs:
    """Bundle every coefficient table for the given shape parameters.

    The integer-shape cdf table ``psi`` is included when m and n are integer;
    ``xi`` (rows l, columns k, the order-statistic weights) and the cdf-power
    tables ``d_table`` (powers of the chi series, one row per power) require
    both ``r`` and ``sample_n``.
    """
    delta, delta_prime = delta_coeffs(m, n, theta, max_terms)
    phi = _phi_coeffs(m, n, theta, max_terms)
    chi = _chi_coeffs(m, n, theta, max_terms)
    psi = _psi_cdf_coeffs(m, n, theta, max_terms) if _is_int(m) and _is_int(n) else None
    xi = d_table = None
    if r is not None and sample_n is not None:
        d_table = _chi_powers(chi, r, sample_n)
        # xi[l, k] = sum_j w_j * phi_l * d_table[j, k]
        xi = np.outer(phi, _order_stat_weights(r, sample_n) @ d_table)
    return ExpansionCoeffs(
        delta=delta, delta_prime=delta_prime, phi=phi, chi=chi, psi=psi, xi=xi, d_table=d_table
    )


def _is_int(x: float) -> bool:
    return abs(x - round(x)) < 1e-9


def _alt_binom_row(x: float, cap: int) -> np.ndarray:
    """Signed generalized binomial coefficients (-1)^j C(x, j), j = 0, 1, ...

    The row of ``_alt_binom_table``.  A nonnegative integer x gives the
    x + 1 terms of the finite expansion (all later ones vanish); any other x
    gives ``cap`` terms.
    """
    length = int(round(x)) + 1 if _is_int(x) and round(x) >= 0 else cap
    return _alt_binom_table(x, length)


def _alt_binom_table(x, length: int) -> np.ndarray:
    """Rows (-1)^k C(x_i, k), k < length, one per element of x.

    Each row is the recurrence (-1)^k C(x, k) = prod_{i=1..k} (i - 1 - x)/i,
    one cumulative product along the last axis after a column of ones.  Past
    a nonnegative integer x the factor i = x + 1 is exactly 0, so the row is
    exact zeros there and finite expansions end by themselves; at x = -1
    every factor is 1.  A row of fewer than one term is an error: every
    truncated table is built here, with ``max_terms`` as its length.
    """
    if length < 1:
        raise ValueError("max_terms must be at least 1")
    x = np.asarray(x, dtype=float)[..., None]
    i = np.arange(1.0, length)
    factors = np.concatenate((np.ones_like(x), (i - 1.0 - x) / i), axis=-1)
    return np.cumprod(factors, axis=-1)


def _chi_powers(chi: np.ndarray, r: int, sample_n: int) -> np.ndarray:
    """Rows chi^(r-1), ..., chi^(sample_n-1) of truncated Cauchy products."""
    rows = [np.eye(1, len(chi))[0]]
    for _ in range(sample_n - 1):
        rows.append(np.convolve(rows[-1], chi)[: len(chi)])
    return np.vstack(rows[r - 1 :])


def _order_stat_const(r: int, sample_n: int) -> float:
    """n!/((r-1)!(n-r)!) of the r-th of n order statistics."""
    if not 1 <= r <= sample_n:
        raise ValueError(f"need 1 <= r <= sample_n, got r={r}, sample_n={sample_n}")
    return math.factorial(sample_n) / (math.factorial(r - 1) * math.factorial(sample_n - r))


def _order_stat_weights(r: int, sample_n: int) -> np.ndarray:
    """const * (-1)^j C(n-r, j): f_{r:n}/f = sum_j of these times F^(r-1+j)."""
    return _order_stat_const(r, sample_n) * _alt_binom_table(sample_n - r, sample_n - r + 1)


# --- coefficient tables ----------------------------------------------------


def delta_coeffs(m: float, n: float, theta: float, max_terms: int = 60):
    """Mixture weights of the survival-power expansion of the density.

    delta[j]  = (-1)^j * theta * C(m-1, j) / B(m, n)
    delta'[j] = (-1)^(j+1) * C(m-1, j) / (B(m, n) * (j + n))

    so that delta[j] = -delta'[j] * theta * (j + n).  For integer m there are
    exactly m nonzero terms; otherwise the table has ``max_terms`` terms.
    """
    _require_in_domain(m=m, n=n, theta=theta)
    row = _alt_binom_row(m - 1.0, max_terms)
    inv_beta = math.exp(-special.log_beta(m, n))
    delta = theta * row * inv_beta
    delta_prime = -row * inv_beta / (np.arange(len(row)) + n)
    return delta, delta_prime


def _phi_coeffs(m, n, theta, max_terms):
    """Weights of the cdf-power expansion: phi[l] = sum_j delta_j (-1)^l C(theta(j+n)-1, l)."""
    delta, _ = delta_coeffs(m, n, theta, max_terms)
    return delta @ _alt_binom_table(theta * (np.arange(len(delta)) + n) - 1.0, max_terms)


def _chi_coeffs(m, n, theta, max_terms):
    """Coefficients of F = sum_k chi_k C^k from the incomplete-beta series.

    chi[k] = sum_i w_i sum_j (-1)^(j+k) C(m+i, j) C(theta j, k) with
    w_i = (-1)^i C(n-1, i) / ((m+i) B(m, n)), j < 2K and k < K.
    """
    K = max_terms
    row = _alt_binom_row(n - 1.0, K)
    i = np.arange(len(row))
    w = row * math.exp(-special.log_beta(m, n)) / (m + i)
    outer = w @ _alt_binom_table(m + i, 2 * K)
    return outer @ _alt_binom_table(theta * np.arange(2 * K), K)


def _psi_cdf_coeffs(m, n, theta, max_terms):
    """Coefficients of C^r in the order-statistic-identity cdf expansion.

    Derivation relies on integer beta shapes; the identity expands
    I_z(m, n) as a binomial sum over m..m+n-1:
    psi[r] = sum_{p=m}^{m+n-1} sum_{q<=p} C(m+n-1, p) (-1)^q C(p, q) (-1)^r C(theta(m+n-1-p+q), r).
    """
    if not (_is_int(m) and _is_int(n)):
        raise ValueError("this cdf expansion requires integer m and n")
    mi, ni = int(round(m)), int(round(n))
    top = mi + ni - 1
    p = np.arange(mi, top + 1)
    # w[p, q] = C(top, p) (-1)^q C(p, q), q <= top (zero past p)
    w = np.abs(_alt_binom_row(top, top + 1))[mi:, None] * _alt_binom_table(p, top + 1)
    x = theta * (top - p[:, None] + np.arange(top + 1))
    return w.ravel() @ _alt_binom_table(x.ravel(), max_terms)


# --- building blocks at a point ---------------------------------------------


def _mo_log_parts(alpha: float, baseline: Baseline, t):
    """(log f_MO, log S_MO, log C_MO) of the plain tilt at the points t.

    The family's one density form, ``family._log_pdf_core``, at
    m = n = theta = 1: f = alpha*g/D^2, and S and C = 1 - S each exact in
    its small tail.
    """
    with np.errstate(all="ignore"):
        return _log_pdf_core(1.0, 1.0, 1.0, alpha, *baseline.log_parts(t))[:3]


def _power_sum(log_front, coeffs, log_base, powers) -> float:
    """sum_k coeffs_k exp(log_front + powers_k log_base), with 0 * log 0 = 0.

    In logs, so f_MO S^(negative power) stays finite where S underflows.  A
    term is 0 wherever log_front is -inf, also where a negative power of a
    vanishing base makes the exponent -inf + inf.
    """
    with np.errstate(all="ignore"):
        log_terms = _zero_where_g_is(log_front, log_front + _zmul(powers, log_base))
        return float(coeffs @ np.exp(log_terms))


def _measured(value: float, exact: float) -> SeriesEval:
    """``value`` with its gap to ``exact`` as the tail."""
    tail = abs(value - exact)
    return SeriesEval(value, bool(tail <= _CONVERGED_RTOL * abs(exact)), float(tail))


def pdf_via_expansion(
    dist: BgmoDistribution,
    t: float,
    form: str = "survival_powers",
    max_terms: int = 60,
) -> SeriesEval:
    """Density via its mixture expansion at a single point, measured against ``dist.pdf``.

    ``survival_powers``: f_MO * sum_j delta_j S^(theta(j+n)-1)
    ``cdf_powers``:      f_MO * sum_l phi_l C^l
    """
    p = dist.params
    log_f, log_s, log_c = _mo_log_parts(p.alpha, dist.baseline, t)
    if form == "survival_powers":
        coeffs, _ = delta_coeffs(p.m, p.n, p.theta, max_terms)
        log_base, powers = log_s, p.theta * (np.arange(len(coeffs)) + p.n) - 1.0
    elif form == "cdf_powers":
        coeffs = _phi_coeffs(p.m, p.n, p.theta, max_terms)
        log_base, powers = log_c, np.arange(len(coeffs))
    else:
        raise ValueError(f"unknown pdf expansion form {form!r}")
    return _measured(_power_sum(log_f, coeffs, log_base, powers), dist.pdf(t))


def cdf_via_expansion(
    dist: BgmoDistribution,
    t: float,
    form: str = "cdf_powers",
    max_terms: int = 60,
) -> SeriesEval:
    """Distribution function via a power series in C = 1 - S, measured against ``dist.cdf``.

    ``cdf_powers``: the incomplete-beta series re-expanded in C (real shapes
    allowed, truncated); ``order_stat_identity``: the finite binomial-sum form,
    valid only for integer m and n.
    """
    p = dist.params
    if form == "cdf_powers":
        coeffs = _chi_coeffs(p.m, p.n, p.theta, max_terms)
    elif form == "order_stat_identity":
        coeffs = _psi_cdf_coeffs(p.m, p.n, p.theta, max_terms)
    else:
        raise ValueError(f"unknown cdf expansion form {form!r}")
    log_c = _mo_log_parts(p.alpha, dist.baseline, t)[2]
    return _measured(_power_sum(0.0, coeffs, log_c, np.arange(len(coeffs))), dist.cdf(t))


# --- order statistics --------------------------------------------------------


def _order_stat_poly(dist: BgmoDistribution, r: int, sample_n: int, max_terms):
    """Coefficients W_w of f_{r:n} = f_MO * sum_w W_w C^w (constants folded in)."""
    p = dist.params
    phi = _phi_coeffs(p.m, p.n, p.theta, max_terms)
    chi = _chi_coeffs(p.m, p.n, p.theta, max_terms)
    cdf_part = _order_stat_weights(r, sample_n) @ _chi_powers(chi, r, sample_n)
    return np.convolve(phi, cdf_part)[: len(phi)]


def order_stat_pdf(
    dist: BgmoDistribution,
    r: int,
    sample_n: int,
    t: float,
    method: str = "direct",
    max_terms: int = 60,
) -> float:
    """Density of the r-th smallest of ``sample_n`` iid draws at a point.

    ``direct`` combines the family pdf, cdf and sf through the classical
    order statistic formula, so both tails keep their relative precision;
    ``series`` evaluates the power-series form, with the needed powers of the
    cdf series built by repeated truncated Cauchy products.
    """
    const = _order_stat_const(r, sample_n)
    if method == "direct":
        return float(const * dist.pdf(t) * dist.cdf(t) ** (r - 1) * dist.sf(t) ** (sample_n - r))
    if method == "series":
        log_f, _, log_c = _mo_log_parts(dist.params.alpha, dist.baseline, t)
        w = _order_stat_poly(dist, r, sample_n, max_terms)
        return _power_sum(log_f, w, log_c, np.arange(len(w)))
    raise ValueError(f"unknown order statistic method {method!r}")


# --- quadrature over the support ---------------------------------------------

# The tanh-sinh rule of ``_support_quad``: level 0 holds the nodes u = 0, +-1,
# ... and level k the odd multiples of 2^-k, all within _U_MAX (past |u| = 6.17
# every node or its weight underflows).  The first levels can misjudge their
# error a hundredfold; the 1e-14 relative tolerance forces one more level, so
# no integral stops before level 2 and few before level 3.  Levels 0 to
# _FIRST_LEVELS - 1 (99 nodes) therefore share the first integrand call: up to
# a few hundred nodes, a call's cost is mostly fixed dispatch.
_U_MAX = 6.5
_MAX_LEVEL = 8
_FIRST_LEVELS = 4
_RTOL = 1e-14
_TAIL_PROBE = np.array([1e-8, 1e-11])  # sf levels of the tail-decay check


def _tanh_sinh_level(k: int):
    """Nodes w = 1/(2(1 + e^(-x))), x = pi sinh u, of level k and their weights dw/du.

    dw/du = (pi/8) cosh u sech^2(x/2); both are written in e^(-|x|) so nothing
    overflows, and nodes whose w or weight underflows to 0 are dropped.
    """
    j = np.arange(-int(_U_MAX * 2**k), int(_U_MAX * 2**k) + 1)
    u = j[(j % 2 == 1) | (k == 0)] * 2.0**-k
    x = math.pi * np.sinh(u)
    e = np.exp(-np.abs(x))
    w = np.where(x >= 0.0, 0.5, 0.5 * e) / (1.0 + e)
    weight = 0.5 * math.pi * np.cosh(u) * e / (1.0 + e) ** 2
    keep = (w > 0.0) & (weight > 0.0)
    return w[keep], weight[keep]


_LADDER = [_tanh_sinh_level(k) for k in range(_MAX_LEVEL + 1)]


def _batch(levels, probe=()):
    """One integrand call over ``levels`` of the ladder.

    Returns the node count of each half, the cumulative hazards at which the
    baseline's h reaches the points' levels (w of G, then w and ``probe`` of
    sf), one array per tail orientation (indexed by ``Baseline._lower_tail``),
    and per level (k, its slice of w, its weights).
    """
    sizes = [_LADDER[k][0].size for k in levels]
    ends = np.cumsum(sizes)
    parts = [(k, slice(e - n, e), _LADDER[k][1]) for k, n, e in zip(levels, sizes, ends)]
    w = np.concatenate([_LADDER[k][0] for k in levels])
    p = np.concatenate((w, w, probe))
    lower = np.arange(p.size) < w.size
    hazards = tuple(_hazard_levels(p, lower, lower_tail) for lower_tail in (False, True))
    return w.size, hazards, parts


_BATCHES = [_batch(range(_FIRST_LEVELS), _TAIL_PROBE)] + [
    _batch([k]) for k in range(_FIRST_LEVELS, _MAX_LEVEL + 1)
]


def _bailey_error(older, old, new):
    """Relative error of ``new`` from the sums of the last three levels (Bailey's d1^2/d2).

    d1 and d2 are log10 of |new - old| and |new - older| relative to |new|;
    the estimate is 10^max(d1^2/d2, 2 d1), 0 where new equals old and inf
    where it is NaN.  The sums are arrays, or numbers where the integral is
    one: numbers take ``math``, and its errors (a zero sum, a d2 of 0, an
    overflow) are the cases the array form sets to inf.
    """
    if isinstance(new, np.ndarray):
        d1 = np.log10(np.abs(new - old) / np.abs(new))
        d2 = np.log10(np.abs(new - older) / np.abs(new))
        est = 10.0 ** np.maximum(d1 * d1 / d2, 2.0 * d1)
        return np.where(new == old, 0.0, np.where(np.isnan(est), np.inf, est))
    if new == old:
        return 0.0
    try:
        d1 = math.log10(abs(new - old) / abs(new))
        r2 = abs(new - older) / abs(new)
        est = 10.0 ** max(d1 * d1 / (math.log10(r2) if r2 != 0.0 else -math.inf), 2.0 * d1)
    except ArithmeticError:
        return math.inf
    return math.inf if math.isnan(est) else est


def _check_tail_decay(check: str, t, values):
    """Raise unless t*|fn(t)| shrinks from sf = 1e-8 to sf = 1e-11 (the points t)."""
    w1 = np.ravel(np.abs(values[..., 0]) * t[0])
    w2 = np.ravel(np.abs(values[..., 1]) * t[1])
    if not (np.all(np.isfinite(w1)) and np.all(np.isfinite(w2))):
        raise DivergenceError(f"{check}: integrand not finite in the upper tail")
    growing = np.flatnonzero((w2 > 0.9 * w1) & (w2 > 1e-280))
    if growing.size:
        k = growing[0]
        raise DivergenceError(
            f"{check}: upper-tail contribution is not decaying "
            f"({w1[k]:.3g} at sf=1e-8 vs {w2[k]:.3g} at sf=1e-11)"
        )


def _support_quad(fn: Callable, baseline: Baseline, *args, check: str | None = None):
    """Integral of fn(t, *args) over the support, one per element of the broadcast args.

    Substituting t = Q_G(v) turns both tails into power-type endpoint
    behaviour in v, which the tanh-sinh rule handles uniformly well (heavy-
    tailed baselines included).  The v range is split at 1/2 and folded onto
    w in (0, 1/2]: the lower half takes t = Q_G(w), the upper half t = isf(w),
    so both tails keep their relative precision.  Non-finite values of fn/g
    count as 0.  fn reads every arg, so its values have their broadcast shape.

    The rule walks the node ladder ``_LADDER``: the sum at level k is half
    that of level k - 1 plus 2^-k times the sum over its new nodes.  Levels 0
    to 3 share one call of the baseline and of fn, and each later level takes
    one call.  What depends on the ladder alone is fixed at import in
    ``_BATCHES``: the hazards at which h reaches each call's levels, for both
    tail orientations, so a call inverts its nodes with one ``_inv_hazard``.
    A single integral (no args, or args of shape ()) carries its level sums
    as Python floats.  The args get a new last axis, so the baseline (and
    whatever in fn depends on t alone) is evaluated once per node, and only
    the final combination once per element and node; a call's arrays are
    the element count times its nodes (198 in the first call, 1,578 at
    level 8).  It stops once Bailey's error estimate is at most 1e-14
    relative for every element; ``DivergenceError``, naming the estimate and
    the count of zeroed values, is raised after level 8.

    When ``check`` is given, it names the integral in a tail-decay check
    that rejects integrands whose far-tail contribution is not shrinking.
    Its two points, isf(1e-8) and isf(1e-11), ride along in the first call,
    and the check raises before any sum is formed.
    """
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    args = tuple(np.asarray(a)[..., None] for a in args)
    sums, finites = [], []
    with np.errstate(all="ignore"):
        for half, hazards, parts in _BATCHES:
            t = baseline._inv_hazard(hazards[baseline._lower_tail])
            values = fn(t, *args)
            nodes = 2 * half
            if check and t.size > nodes:  # the first call, with the tail probe
                _check_tail_decay(check, t[nodes:], values[..., nodes:])
            ratio = values[..., :nodes] / baseline.pdf(t[:nodes])
            finites.append(np.isfinite(ratio))
            ratio = np.where(finites[-1], ratio, 0.0)
            both = ratio[..., :half] + ratio[..., half:]
            for k, part, weight in parts:
                level = both[..., part] @ weight
                level = 2.0**-k * (float(level) if not shape else level)
                sums.append(level if k == 0 else 0.5 * sums[-1] + level)
                if k >= 2:
                    err = _bailey_error(*sums[-3:])
                    if err <= _RTOL if not shape else np.all(err <= _RTOL):
                        return sums[-1]
    err, total = np.asarray(err), np.asarray(sums[-1])
    zeroed = sum(np.count_nonzero(~finite, axis=-1) for finite in finites)
    i = np.unravel_index(np.argmax(err > _RTOL), shape)
    raise DivergenceError(
        f"tanh-sinh quadrature did not converge (status: {np.count_nonzero(err > _RTOL)} of "
        f"{err.size} integrals above tolerance after level {_MAX_LEVEL}): relative error "
        f"estimate {err[i]:.3g} of integral {total[i]:.6g}, {zeroed[i]} non-finite "
        f"integrand values counted as 0"
    )


def _exp_of(log_fn: Callable) -> Callable:
    """exp(log_fn(...)), quiet where the log is infinite."""

    def fn(*args):
        with np.errstate(all="ignore"):
            return np.exp(log_fn(*args))

    return fn


def _tilt_integral(
    alpha, baseline, what, t_power=0.0, c_power=0.0, s_power=0.0, f_power=1.0, rate=0.0
):
    """Integrals of t^t_power C^c_power S^s_power f^f_power e^(rate t) of the plain tilt.

    The integrands of every tilt functional below.  The powers may be
    arrays: the result holds one integral per element of their broadcast.
    The tail-decay check, labelled ``what``, runs when some t_power or rate
    is positive.
    """

    def log_fn(t, t_power, c_power, s_power, f_power, rate):
        log_f, log_s, log_c = _mo_log_parts(alpha, baseline, t)
        return (
            f_power * log_f
            + _zmul(c_power, log_c)
            + _zmul(s_power, log_s)
            + _zmul(t_power, np.log(t))
            + _zmul(rate, t)
        )

    check = what if np.any(np.asarray(t_power) > 0) or np.any(np.asarray(rate) > 0) else None
    args = (t_power, c_power, s_power, f_power, rate)
    return _support_quad(_exp_of(log_fn), baseline, *args, check=check)


def _delta_mixture(dist: BgmoDistribution, max_terms, what: str, power=1.0, **powers) -> float:
    """Integral of f^a (a = ``power``) times ``powers``, as a series of plain-tilt integrals.

    f^a = (theta/B(m, n))^a f_MO^a S^(a(theta n - 1)) (1 - S^theta)^(a(m-1)),
    and the last factor expands as sum_j (-1)^j C(a(m-1), j) S^(theta j).  At
    a = 1 the weights are the ``delta_coeffs`` table, and the terms the
    delta-weighted survival powers of the density expansion.  Where
    a(m - 1) <= -1 no |C(a(m-1), j)| is below 1, so a truncated sum has no
    error bound: ``DivergenceError``.
    """
    p = dist.params
    exponent = power * (p.m - 1.0)
    if exponent <= -1.0:
        raise DivergenceError(f"{what}: the binomial row of (1 - S^theta)^a, a = {exponent:g}, does not decay")
    row = _alt_binom_row(exponent, max_terms)
    j = np.arange(len(row))
    front = math.exp(power * (math.log(p.theta) - special.log_beta(p.m, p.n)))
    weights = front * row
    s_power = p.theta * j + power * (p.theta * p.n - 1.0)
    tilt = _tilt_integral(p.alpha, dist.baseline, what, s_power=s_power, f_power=power, **powers)
    return float(weights @ tilt)


def pwm_mo(alpha: float, baseline: Baseline, p: int, q: float, r: float) -> float:
    """Probability weighted moment E[t^p F^q S^r] of the plain tilt.

    F and S are the tilted cdf/survival; the density weight is
    alpha*g/(1-(1-alpha)*sf_G)^2.  Raises ``DivergenceError`` when the
    integrand fails its tail-decay check (heavy-tailed baselines with p too
    large).
    """
    if p < 0 or q <= -1 or r <= -1:
        raise ValueError("pwm orders need p >= 0, q > -1 and r > -1")
    return _tilt_integral(alpha, baseline, f"pwm({p},{q},{r})", t_power=p, c_power=q, s_power=r)


def moment_series(dist: BgmoDistribution, s: int, max_terms: int = 60) -> float:
    """E[T^s] as the delta-weighted sum of tilted-survival PWMs."""
    if s < 1:
        raise ValueError("moment order must be a positive integer")
    return _delta_mixture(dist, max_terms, f"moment_series({s})", t_power=s)


def moment_direct(dist: BgmoDistribution, s: float) -> float:
    """E[T^s] by direct quadrature of t^s against the density."""
    return _support_quad(
        _exp_of(lambda t: np.where(t > 0, dist.log_pdf(t) + s * np.log(t), -np.inf)),
        dist.baseline,
        check=f"moment({s})",
    )


def order_stat_moment(
    dist: BgmoDistribution,
    r: int,
    sample_n: int,
    s: int,
    max_terms: int = 60,
) -> float:
    """E[T_{r:n}^s] through the order-statistic series and tilted PWMs."""
    w = _order_stat_poly(dist, r, sample_n, max_terms)
    k = np.flatnonzero(w)
    what = f"order_stat_moment({r},{sample_n},{s})"
    return float(w[k] @ _tilt_integral(dist.params.alpha, dist.baseline, what, s, c_power=k))


def mgf(dist: BgmoDistribution, s: float) -> float:
    """Moment generating function E[e^(sT)] by direct quadrature.

    Raises ``DivergenceError`` when s sits at or beyond the abscissa of
    convergence of the baseline tail.
    """
    return _support_quad(
        _exp_of(lambda t: dist.log_pdf(t) + s * t),
        dist.baseline,
        check=f"mgf({s})" if s > 0 else None,
    )


def mgf_series(dist: BgmoDistribution, s: float, max_terms: int = 60) -> float:
    """E[e^(sT)] decomposed over exponentiated-tilt components.

    Each term is the mgf of a variable with survival S^(theta(j+n)), weighted
    by delta_j/(theta(j+n)); the weights sum to one for integer m.
    """
    return _delta_mixture(dist, max_terms, f"mgf_series({s})", rate=s)


def renyi_entropy(
    dist: BgmoDistribution,
    delta: float,
    max_terms: int = 60,
    method: str = "series",
) -> float:
    """Order-delta Renyi entropy (1-delta)^(-1) * log integral f^delta.

    ``series`` expands f^delta over powers of the tilted survival;
    ``direct`` integrates f^delta as-is.  The two agree wherever the
    expansion converges.
    """
    if delta <= 0 or delta == 1.0:
        raise ValueError("entropy order must be positive and different from 1")
    if method == "direct":
        total = _support_quad(_exp_of(lambda t: delta * dist.log_pdf(t)), dist.baseline)
    elif method == "series":
        total = _delta_mixture(dist, max_terms, f"renyi_entropy({delta})", power=delta)
        if total <= 0:
            raise DivergenceError("entropy series produced a non-positive integral sum")
    else:
        raise ValueError(f"unknown entropy method {method!r}")
    return math.log(total) / (1.0 - delta)


# --- leading-order tail approximants ------------------------------------------


@dataclass(frozen=True)
class TailApproximant:
    """Leading-order forms of the density, tail probability and hazard.

    For the lower tail ``tail_prob`` approximates F(t); for the upper tail it
    approximates 1 - F(t).
    """

    tail: str
    pdf: Callable
    tail_prob: Callable
    hrf: Callable


def asymptote(dist: BgmoDistribution, end: str) -> TailApproximant:
    """Evaluable leading-order approximants at either end of the support.

    Lower tail (baseline cdf -> 0):
        f ~ theta^m * g * G^(m-1) / (B(m,n) * alpha^m)
        F ~ (theta*G/alpha)^m / (m * B(m,n))
        h ~ f
    Upper tail (t -> infinity):
        f ~ theta * alpha^(theta*n) * g * sf_G^(theta*n - 1) / B(m,n)
        1-F ~ (alpha*sf_G)^(theta*n) / (n * B(m,n))
        h ~ theta * n * h_G, with h_G = g/sf_G the baseline's ``hrf``

    Both densities are 0 exactly where g is (``baselines._zero_where_g_is``).
    """
    p = dist.params
    b = dist.baseline
    log_b = special.log_beta(p.m, p.n)

    def density(log_f_of):
        """exp of log f from log g and the tail of one ``log_parts`` pass, 0 exactly where g is."""

        def log_f(t):
            log_g, log_sf, log_cdf = b.log_parts(t)
            return _zero_where_g_is(log_g, log_f_of(log_g, log_sf, log_cdf))

        return _exp_of(log_f)

    if end == "lower":
        log_front = p.m * (math.log(p.theta) - math.log(p.alpha))
        f = density(lambda log_g, _, log_cdf: log_front + log_g + _zmul(p.m - 1.0, log_cdf) - log_b)
        F = _exp_of(lambda t: log_front + p.m * b.log_cdf(t) - math.log(p.m) - log_b)
        return TailApproximant("lower", f, F, f)
    if end == "upper":
        tn = p.theta * p.n
        log_front = tn * math.log(p.alpha) - log_b
        log_theta = math.log(p.theta)
        return TailApproximant(
            "upper",
            density(lambda log_g, log_sf, _: log_theta + log_front + log_g + (tn - 1.0) * log_sf),
            _exp_of(lambda t: log_front + tn * b.log_sf(t) - math.log(p.n)),
            lambda t: tn * b.hrf(t),
        )
    raise ValueError(f"end must be 'lower' or 'upper', got {end!r}")

