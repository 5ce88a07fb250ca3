"""Series expansions and integral functionals of the family.

The density and distribution function admit mixture expansions in powers of
the tilted survival S(t) = alpha*sf_G/(1-(1-alpha)*sf_G) or of its complement
C(t) = 1 - S(t).  For integer shape m the expansions are finite and exact;
for real m they are generalized-binomial series truncated by a
``TruncationPolicy``.  Everything here is cross-checkable against the direct
evaluations in ``family``; quadrature-based functionals (PWMs, moments, mgf,
entropy) use adaptive Gauss-Kronrod integration over the baseline support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from . import special
from .baselines import Baseline
from .family import BgmoDistribution, _zmul

__all__ = [
    "TruncationPolicy",
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


@dataclass(frozen=True)
class TruncationPolicy:
    """Term cap and relative tail tolerance for the infinite expansions."""

    max_terms: int = 60
    tail_tol: float = 1e-10

    def __post_init__(self):
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")
        if self.tail_tol <= 0:
            raise ValueError("tail_tol must be positive")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class SeriesEval:
    """A truncated-series value with a convergence flag and tail estimate."""

    value: float
    converged: bool
    tail: float = 0.0

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
    policy: TruncationPolicy = DEFAULT_POLICY,
    r: int | None = None,
    sample_n: int | None = None,
) -> ExpansionCoeffs:
    """Bundle every coefficient table for the given shape parameters.

    The integer-shape cdf table ``psi`` is included when m and n are integer;
    ``xi`` (rows l, columns k, the order-statistic weights) and the cdf-power
    tables ``d_table`` (powers of the chi series, one row per power) require
    both ``r`` and ``sample_n``.
    """
    delta, delta_prime = delta_coeffs(m, n, theta, policy)
    phi = _phi_coeffs(m, n, theta, policy)
    chi = _chi_coeffs(m, n, theta, policy)
    psi = _psi_cdf_coeffs(m, n, theta, policy) if _is_int(m) and _is_int(n) else None
    xi = d_table = None
    if r is not None and sample_n is not None:
        const = _order_stat_const(r, sample_n)
        d_table = _chi_powers(chi, r, sample_n)
        weights = np.array(
            [(-1.0) ** j * math.comb(sample_n - r, j) for j in range(sample_n - r + 1)]
        )
        # xi[l, k] = const * sum_j w_j * phi_l * d_table[j, k]
        xi = const * np.outer(phi, weights @ d_table)
    return ExpansionCoeffs(
        delta=delta, delta_prime=delta_prime, phi=phi, chi=chi, psi=psi, xi=xi, d_table=d_table
    )


def _is_int(x: float) -> bool:
    return abs(x - round(x)) < 1e-9


def _binom_row(r: float, cap: int) -> np.ndarray:
    """Generalized binomial coefficients C(r, j), j = 0, 1, ...

    A nonnegative integer r gives the r + 1 terms of the finite expansion
    (all later ones vanish); any other r gives ``cap`` terms.
    """
    length = int(round(r)) + 1 if _is_int(r) and round(r) >= 0 else cap
    out = np.empty(length)
    out[0] = 1.0
    for j in range(1, length):
        out[j] = out[j - 1] * (r - (j - 1)) / j
    return out


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


def _sum_with_policy(terms, policy: TruncationPolicy) -> SeriesEval:
    """Sum a term sequence, stopping after two consecutive negligible terms.

    Leading zero terms (power series often start with vanishing coefficients)
    do not count toward the stopping rule.
    """
    total = 0.0
    small_run = 0
    last = 0.0
    seen_nonzero = False
    for term in terms:
        total += term
        last = abs(term)
        if not seen_nonzero:
            seen_nonzero = term != 0.0
            continue
        if last <= policy.tail_tol * max(abs(total), 1e-300):
            small_run += 1
            if small_run >= 2:
                return SeriesEval(total, True, last)
        else:
            small_run = 0
    return SeriesEval(total, small_run > 0, last)


# --- coefficient tables ----------------------------------------------------


def delta_coeffs(m: float, n: float, theta: float, policy: TruncationPolicy = DEFAULT_POLICY):
    """Mixture weights of the survival-power expansion of the density.

    delta[j]  = (-1)^j * theta * C(m-1, j) / B(m, n)
    delta'[j] = (-1)^(j+1) * C(m-1, j) / (B(m, n) * (j + n))

    so that delta[j] = -delta'[j] * theta * (j + n).  For integer m there are
    exactly m nonzero terms; otherwise the table is truncated by ``policy``.
    """
    if m <= 0 or n <= 0 or theta <= 0:
        raise ValueError("shape parameters must be positive")
    binom = _binom_row(m - 1.0, policy.max_terms)
    inv_beta = math.exp(-special.log_beta(m, n))
    j = np.arange(len(binom))
    signs = np.where(j % 2 == 0, 1.0, -1.0)
    delta = signs * theta * binom * inv_beta
    delta_prime = -signs * binom * inv_beta / (j + n)
    return delta, delta_prime


def _phi_coeffs(m, n, theta, policy):
    """Weights of the cdf-power expansion: phi[l] = sum_j delta_j (-1)^l C(theta(j+n)-1, l)."""
    delta, _ = delta_coeffs(m, n, theta, policy)
    L = policy.max_terms
    phi = np.zeros(L)
    for j, dj in enumerate(delta):
        row = _binom_row(theta * (j + n) - 1.0, L)[:L]
        phi[: len(row)] += dj * (-1.0) ** np.arange(len(row)) * row
    return phi


def _chi_coeffs(m, n, theta, policy):
    """Coefficients of F = sum_k chi_k C^k from the incomplete-beta series."""
    K = policy.max_terms
    inv_beta = math.exp(-special.log_beta(m, n))
    chi = np.zeros(K)
    for i, binom_n_i in enumerate(_binom_row(n - 1.0, K)):
        mi = m + i
        w_i = binom_n_i * inv_beta / mi * (-1.0) ** i
        for j_idx, binom_mi_j in enumerate(_binom_row(mi, 2 * K)):
            row = _binom_row(theta * j_idx, K)[:K]
            signs = (-1.0) ** (j_idx + np.arange(len(row)))
            chi[: len(row)] += w_i * signs * binom_mi_j * row
    return chi


def _psi_cdf_coeffs(m, n, theta, policy):
    """Coefficients of C^r in the order-statistic-identity cdf expansion.

    Derivation relies on integer beta shapes; the identity expands
    I_z(m, n) as a binomial sum over m..m+n-1.
    """
    if not (_is_int(m) and _is_int(n)):
        raise ValueError("this cdf expansion requires integer m and n")
    mi, ni = int(round(m)), int(round(n))
    top = mi + ni - 1
    R = policy.max_terms
    coeffs = np.zeros(R)
    for p in range(mi, top + 1):
        c_top_p = math.comb(top, p)
        for q in range(p + 1):
            row = _binom_row(theta * (top - p + q), R)[:R]
            w = (-1.0) ** q * math.comb(p, q) * c_top_p
            coeffs[: len(row)] += w * (-1.0) ** np.arange(len(row)) * row
    return coeffs


# --- building blocks at a point ---------------------------------------------


def _mo_log_parts(alpha: float, baseline: Baseline, t: float):
    """(log f_MO, log S_MO, log C_MO) of the plain tilt at a point.

    With D = 1 - (1-alpha)*sf_G, S = alpha*sf_G/D and f = alpha*g/D^2.
    """
    log_gbar = baseline.log_sf(t)
    log_d = np.log1p((alpha - 1.0) * np.exp(log_gbar))
    log_s = math.log(alpha) + log_gbar - log_d
    log_f = math.log(alpha) + baseline.log_pdf(t) - 2.0 * log_d
    c = 1.0 - math.exp(log_s)
    return log_f, log_s, (math.log(c) if c > 0.0 else -math.inf)


def _mo_parts(dist: BgmoDistribution, t: float):
    """(f_MO, S_MO, C_MO) of the plain tilt at a point, in linear scale."""
    log_f, log_s, _ = _mo_log_parts(dist.params.alpha, dist.baseline, t)
    s = math.exp(log_s)
    return math.exp(log_f), s, 1.0 - s


def pdf_via_expansion(
    dist: BgmoDistribution,
    t: float,
    form: str = "survival_powers",
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> SeriesEval:
    """Density via its mixture expansion at a single point.

    ``survival_powers``: f_MO * sum_j delta_j S^(theta(j+n)-1)
    ``cdf_powers``:      f_MO * sum_l phi_l C^l
    """
    p = dist.params
    f_mo, s_mo, c_mo = _mo_parts(dist, t)
    if form == "survival_powers":
        delta, _ = delta_coeffs(p.m, p.n, p.theta, policy)
        exact = _is_int(p.m)
        log_s = math.log(s_mo) if s_mo > 0 else -math.inf

        def terms():
            for j, dj in enumerate(delta):
                expo = p.theta * (j + p.n) - 1.0
                yield dj * math.exp(expo * log_s) if log_s > -math.inf or expo == 0 else 0.0

        ev = _sum_with_policy(terms(), policy)
        return SeriesEval(f_mo * ev.value, exact or ev.converged, f_mo * ev.tail)
    if form == "cdf_powers":
        phi = _phi_coeffs(p.m, p.n, p.theta, policy)
        ev = _sum_with_policy((phi[l] * c_mo**l for l in range(len(phi))), policy)
        exact_outer = _is_int(p.m) and _is_int(p.theta * (p.m - 1 + p.n))
        return SeriesEval(f_mo * ev.value, exact_outer or ev.converged, f_mo * ev.tail)
    raise ValueError(f"unknown pdf expansion form {form!r}")


def cdf_via_expansion(
    dist: BgmoDistribution,
    t: float,
    form: str = "cdf_powers",
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> SeriesEval:
    """Distribution function via a power series in C = 1 - S.

    ``cdf_powers``: the incomplete-beta series re-expanded in C (real shapes
    allowed, truncated); ``order_stat_identity``: the finite binomial-sum form,
    valid only for integer m and n.
    """
    p = dist.params
    _, _, c_mo = _mo_parts(dist, t)
    if form == "cdf_powers":
        chi = _chi_coeffs(p.m, p.n, p.theta, policy)
    elif form == "order_stat_identity":
        chi = _psi_cdf_coeffs(p.m, p.n, p.theta, policy)
    else:
        raise ValueError(f"unknown cdf expansion form {form!r}")
    return _sum_with_policy((chi[k] * c_mo**k for k in range(len(chi))), policy)


# --- order statistics --------------------------------------------------------


def _order_stat_poly(dist: BgmoDistribution, r: int, sample_n: int, policy):
    """Coefficients W_w of f_{r:n} = f_MO * sum_w W_w C^w (constants folded in)."""
    p = dist.params
    const = _order_stat_const(r, sample_n)
    phi = _phi_coeffs(p.m, p.n, p.theta, policy)
    chi = _chi_coeffs(p.m, p.n, p.theta, policy)
    total = np.zeros(len(phi))
    for j, chi_pow in enumerate(_chi_powers(chi, r, sample_n)):
        combined = np.convolve(phi, chi_pow)[: len(phi)]
        total += (-1.0) ** j * math.comb(sample_n - r, j) * combined
    return const * total


def order_stat_pdf(
    dist: BgmoDistribution,
    r: int,
    sample_n: int,
    t: float,
    method: str = "direct",
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """Density of the r-th smallest of ``sample_n`` iid draws at a point.

    ``direct`` combines the family pdf/cdf through the classical order
    statistic formula; ``series`` evaluates the power-series form, with the
    needed powers of the cdf series built by repeated truncated Cauchy
    products.
    """
    const = _order_stat_const(r, sample_n)
    if method == "direct":
        f = dist.pdf(t)
        F = dist.cdf(t)
        return float(const * f * F ** (r - 1) * (1.0 - F) ** (sample_n - r))
    if method == "series":
        f_mo, _, c_mo = _mo_parts(dist, t)
        w = _order_stat_poly(dist, r, sample_n, policy)
        powers = c_mo ** np.arange(len(w))
        return float(f_mo * np.dot(w, powers))
    raise ValueError(f"unknown order statistic method {method!r}")


# --- quadrature over the support ---------------------------------------------

_QUAD_OPTS = dict(limit=200, epsabs=1e-10, epsrel=1e-9)


def _support_quad(fn: Callable[[float], float], baseline: Baseline) -> float:
    """Adaptive integral of fn over the support.

    Substituting t = Q_G(v) maps the support onto (0, 1) and turns both tails
    into power-type endpoint behaviour, which the Gauss-Kronrod extrapolation
    handles uniformly well (heavy-tailed baselines included).
    """
    import warnings
    from scipy.integrate import IntegrationWarning

    def integrand(v: float) -> float:
        t = float(baseline.quantile(v))
        g = float(baseline.pdf(t))
        if not math.isfinite(t) or not math.isfinite(g) or g <= 0.0:
            return 0.0
        w = fn(t) / g
        return w if math.isfinite(w) else 0.0

    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, _ = quad(
            integrand, 0.0, 1.0, points=(0.05, 0.25, 0.5, 0.75, 0.95), **_QUAD_OPTS
        )
    return value


def _check_tail_decay(weight, baseline, what: str):
    """Reject integrands whose far-tail contribution is not shrinking."""
    t1 = float(baseline.isf(1e-8))
    t2 = float(baseline.isf(1e-11))
    with np.errstate(all="ignore"):
        w1 = abs(weight(t1)) * t1
        w2 = abs(weight(t2)) * t2
    if not (np.isfinite(w1) and np.isfinite(w2)):
        raise DivergenceError(f"{what}: integrand not finite in the upper tail")
    if w2 > 0.9 * w1 and w2 > 1e-280:
        raise DivergenceError(
            f"{what}: upper-tail contribution is not decaying "
            f"({w1:.3g} at sf=1e-8 vs {w2:.3g} at sf=1e-11)"
        )


def _log_integral(log_fn: Callable[[float], float], baseline: Baseline, check: str | None = None):
    """Integral of exp(log_fn) over the support.

    ``check`` names the integral in the tail-decay check, which runs only
    when it is given.
    """

    def fn(t):
        out = log_fn(t)
        return math.exp(out) if out > -700 else 0.0

    if check:
        _check_tail_decay(fn, baseline, check)
    return _support_quad(fn, baseline)


def _tilt_integral(
    alpha: float,
    baseline: Baseline,
    what: str,
    t_power: float = 0.0,
    c_power: float = 0.0,
    s_power: float = 0.0,
    f_power: float = 1.0,
    rate: float = 0.0,
) -> float:
    """Integral of t^t_power C^c_power S^s_power f^f_power e^(rate t) of the plain tilt.

    The integrands of every tilt functional below.  The tail-decay check,
    labelled ``what``, runs when t_power or rate is positive.
    """

    def log_fn(t):
        log_f, log_s, log_c = _mo_log_parts(alpha, baseline, t)
        log_t = math.log(t) if t > 0 else -math.inf
        return (
            f_power * log_f
            + _zmul(c_power, log_c)
            + _zmul(s_power, log_s)
            + _zmul(t_power, log_t)
            + _zmul(rate, t)
        )

    return _log_integral(log_fn, baseline, what if t_power > 0 or rate > 0 else None)


def _weighted_sum(weights, integral: Callable[[int], float], tail_tol: float) -> float:
    """sum_k weights[k] * integral(k), skipping zero weights.

    Stops at the first term after the leading one whose size is at most
    ``tail_tol`` times the running total.
    """
    total = 0.0
    for k, w in enumerate(weights):
        if w == 0.0:
            continue
        term = w * integral(k)
        total += term
        if k > 0 and abs(term) <= tail_tol * max(abs(total), 1e-300):
            break
    return total


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


def moment_series(
    dist: BgmoDistribution, s: int, policy: TruncationPolicy = DEFAULT_POLICY
) -> float:
    """E[T^s] as the delta-weighted sum of tilted-survival PWMs."""
    if s < 1:
        raise ValueError("moment order must be a positive integer")
    p = dist.params
    delta, _ = delta_coeffs(p.m, p.n, p.theta, policy)
    return _weighted_sum(
        delta,
        lambda j: pwm_mo(p.alpha, dist.baseline, s, 0.0, p.theta * (j + p.n) - 1.0),
        policy.tail_tol,
    )


def moment_direct(dist: BgmoDistribution, s: float) -> float:
    """E[T^s] by direct quadrature of t^s against the density."""
    return _log_integral(
        lambda t: (dist.log_pdf(t) + s * math.log(t)) if t > 0 else -math.inf,
        dist.baseline,
        f"moment({s})",
    )


def order_stat_moment(
    dist: BgmoDistribution,
    r: int,
    sample_n: int,
    s: int,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> float:
    """E[T_{r:n}^s] through the order-statistic series and tilted PWMs."""
    w = _order_stat_poly(dist, r, sample_n, policy)
    return _weighted_sum(
        w, lambda k: pwm_mo(dist.params.alpha, dist.baseline, s, float(k), 0.0), policy.tail_tol
    )


def mgf(dist: BgmoDistribution, s: float) -> float:
    """Moment generating function E[e^(sT)] by direct quadrature.

    Raises ``DivergenceError`` when s sits at or beyond the abscissa of
    convergence of the baseline tail.
    """
    return _log_integral(
        lambda t: dist.log_pdf(t) + s * t, dist.baseline, f"mgf({s})" if s > 0 else None
    )


def mgf_series(
    dist: BgmoDistribution, s: float, policy: TruncationPolicy = DEFAULT_POLICY
) -> float:
    """E[e^(sT)] decomposed over exponentiated-tilt components.

    Each term is the mgf of a variable with survival S^(theta(j+n)), weighted
    by delta_j/(theta(j+n)); the weights sum to one for integer m.
    """
    p = dist.params
    delta, _ = delta_coeffs(p.m, p.n, p.theta, policy)
    return sum(
        dj * _tilt_integral(p.alpha, dist.baseline, f"mgf_series({s})", s_power=c - 1.0, rate=s)
        for dj, c in zip(delta, p.theta * (np.arange(len(delta)) + p.n))
    )


def renyi_entropy(
    dist: BgmoDistribution,
    delta: float,
    policy: TruncationPolicy = DEFAULT_POLICY,
    method: str = "series",
) -> float:
    """Order-delta Renyi entropy (1-delta)^(-1) * log integral f^delta.

    ``series`` expands f^delta over powers of the tilted survival;
    ``direct`` integrates f^delta as-is.  The two agree wherever the
    expansion converges.
    """
    if delta <= 0 or delta == 1.0:
        raise ValueError("entropy order must be positive and different from 1")
    p = dist.params
    if method == "direct":
        total = _log_integral(lambda t: delta * dist.log_pdf(t), dist.baseline)
        return math.log(total) / (1.0 - delta)
    if method != "series":
        raise ValueError(f"unknown entropy method {method!r}")

    binom = _binom_row(delta * (p.m - 1.0), policy.max_terms)
    z_front = delta * (math.log(p.theta) - special.log_beta(p.m, p.n))
    weights = math.exp(z_front) * binom * (-1.0) ** np.arange(len(binom))
    total = _weighted_sum(
        weights,
        lambda j: _tilt_integral(
            p.alpha,
            dist.baseline,
            f"renyi_entropy({delta})",
            f_power=delta,
            s_power=p.theta * j + delta * (p.theta * p.n - 1.0),
        ),
        policy.tail_tol,
    )
    if total <= 0:
        raise DivergenceError("entropy series produced a non-positive integral sum")
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
        h ~ theta * n * g / sf_G
    """
    p = dist.params
    b = dist.baseline
    log_b = special.log_beta(p.m, p.n)
    if end == "lower":

        def f_approx(t):
            with np.errstate(all="ignore"):
                logG = np.log(b.cdf(t))
                out = (
                    p.m * math.log(p.theta)
                    + b.log_pdf(t)
                    + _zmul(p.m - 1.0, logG)
                    - log_b
                    - p.m * math.log(p.alpha)
                )
            return np.exp(out)

        def F_approx(t):
            with np.errstate(all="ignore"):
                out = p.m * (math.log(p.theta) + np.log(b.cdf(t)) - math.log(p.alpha))
            return np.exp(out - math.log(p.m) - log_b)

        return TailApproximant("lower", f_approx, F_approx, f_approx)
    if end == "upper":
        tn = p.theta * p.n

        def f_approx(t):
            with np.errstate(all="ignore"):
                out = (
                    math.log(p.theta)
                    + tn * math.log(p.alpha)
                    + b.log_pdf(t)
                    + (tn - 1.0) * b.log_sf(t)
                    - log_b
                )
            return np.exp(out)

        def sf_approx(t):
            with np.errstate(all="ignore"):
                out = tn * (math.log(p.alpha) + b.log_sf(t))
            return np.exp(out - math.log(p.n) - log_b)

        def h_approx(t):
            with np.errstate(all="ignore"):
                return p.theta * p.n * np.exp(b.log_pdf(t) - b.log_sf(t))

        return TailApproximant("upper", f_approx, sf_approx, h_approx)
    raise ValueError(f"end must be 'lower' or 'upper', got {end!r}")

