"""Closed forms of the family's special cases, coded independently of ``bgmo``.

Each takes a baseline and works in linear scale from its pdf, cdf and sf, with
none of the package's log-space tilt; the tests compare the shipped family at
the matching parameters against them.  Names follow the sub-families:

- ``mo``: the plain Marshall-Olkin tilt (m = n = theta = 1);
- ``gmo``: the exponentiated tilt (m = n = 1);
- ``bmo``: the beta layer over the plain tilt (theta = 1);
- ``beta_g``: the classical beta-generated family (alpha = theta = 1).

``tilt_inverse_two_calls`` is the tilt inverse by a quantile and an isf call
over every point, ``inverse_transform_sample`` the quantile route to random
draws, against which the family's gamma-ratio sampler is compared,
``cdf_sf_mp`` the family's cdf and sf at 50 digits, ``pdf_cdf_mp`` its pdf,
cdf and sf at 50 digits from a baseline cdf or sf below the double range,
``binom_row`` a scalar binomial row for the loop forms of the series tables,
``tanhsinh_support_quad`` the support integral of ``series._support_quad``
by scipy's tanh-sinh solver, ``mo_log_parts`` the plain tilt's log density
and log tails as alpha*g/D^2 over ``gmo.log_tilt``, the series layer's own
coding before it took the family's density form, ``log_pdf_sum`` the
fitter's log-likelihood as the sum of the family's log densities, and
``finite_difference_score`` its score by differences of that sum.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.special import beta as beta_fn

from bgmo.gmo import log_tilt


def _tilt_denominator(alpha, b, t):
    """D = 1 - (1-alpha)*sf_G."""
    return 1.0 - (1.0 - alpha) * b.sf(t)


def gmo_sf(alpha, theta, b, t):
    """Survival [alpha*sf_G/D]^theta."""
    return (alpha * b.sf(t) / _tilt_denominator(alpha, b, t)) ** theta


def gmo_cdf(alpha, theta, b, t):
    return 1.0 - gmo_sf(alpha, theta, b, t)


def gmo_pdf(alpha, theta, b, t):
    """Density theta*alpha^theta*g*sf_G^(theta-1)/D^(theta+1)."""
    return (
        theta * alpha**theta * b.pdf(t) * b.sf(t) ** (theta - 1.0)
        / _tilt_denominator(alpha, b, t) ** (theta + 1.0)
    )


def gmo_hrf(alpha, theta, b, t):
    """Hazard theta*h_G/D."""
    return theta * b.hrf(t) / _tilt_denominator(alpha, b, t)


def gmo_quantile(alpha, theta, b, u):
    """Inverse cdf: s = (1-u)^(1/theta) and G = alpha*(1-s)/(alpha + (1-alpha)*s)."""
    u = np.asarray(u, dtype=float)
    one_minus_s = -np.expm1(np.log1p(-u) / theta)
    return b.quantile(alpha * one_minus_s / (alpha + (1.0 - alpha) * (1.0 - one_minus_s)))


def mo_pdf(alpha, b, t):
    """Density alpha*g/D^2 of the plain tilt."""
    return alpha * b.pdf(t) / _tilt_denominator(alpha, b, t) ** 2


def bmo_pdf(m, n, alpha, b, t):
    """Beta(m, n) layer over the plain tilt: f_MO*(1-S)^(m-1)*S^(n-1)/B(m,n)."""
    s = gmo_sf(alpha, 1.0, b, t)
    return mo_pdf(alpha, b, t) * (1.0 - s) ** (m - 1.0) * s ** (n - 1.0) / beta_fn(m, n)


def beta_g_pdf(m, n, b, t):
    """Classical beta-generated density g*G^(m-1)*(1-G)^(n-1)/B(m,n)."""
    return b.pdf(t) * b.cdf(t) ** (m - 1.0) * b.sf(t) ** (n - 1.0) / beta_fn(m, n)


def tilt_inverse_two_calls(alpha, b, log_s):
    """The tilt inverse with both baseline inversions over every point.

    ``b.quantile`` at G = alpha*(1 - s)/D and ``b.isf`` at sf_G = s/D, each
    level clipped into its inverse's domain, and per point the one whose
    level is at most 1/2 (G where G <= 1/2).
    """
    s = np.exp(log_s)
    den = alpha + (1.0 - alpha) * s
    g = alpha * -np.expm1(log_s) / den
    gbar = s / den
    with np.errstate(all="ignore"):
        return np.where(
            g <= 0.5,
            b.quantile(np.clip(g, 1e-300, 0.75)),
            b.isf(np.clip(gbar, 1e-300, 1.0)),
        )


def reduction_gap(dist, target: str, grid_size: int = 200) -> float:
    """Max pointwise pdf gap between ``dist`` and the closed form of ``target``.

    ``target`` is one of ``mo``, ``gmo``, ``bmo`` and ``beta_g``; the
    distribution's parameters must be the sub-family's (e.g. theta = 1 for
    ``bmo``), or the gap is that of a different density.  The grid is the
    baseline's quantiles at levels 0.005 to 0.995.
    """
    p, b = dist.params, dist.baseline
    t = b.quantile(np.linspace(0.005, 0.995, grid_size))
    other = {
        "mo": lambda: mo_pdf(p.alpha, b, t),
        "gmo": lambda: gmo_pdf(p.alpha, p.theta, b, t),
        "bmo": lambda: bmo_pdf(p.m, p.n, p.alpha, b, t),
        "beta_g": lambda: beta_g_pdf(p.m, p.n, b, t),
    }[target]()
    return float(np.max(np.abs(dist.pdf(t) - other)))


def inverse_transform_sample(dist, count: int, seed: int):
    """``count`` draws quantile(U) with U uniform, levels kept off 0 and 1."""
    u = np.random.default_rng(seed).random(count)
    return dist.quantile(np.clip(u, 1e-15, 1.0 - 1e-15))


def cdf_sf_mp(m, n, theta, alpha, log_gbar):
    """The family's cdf and sf at 50 digits, from a baseline log sf taken as exact.

    The incomplete beta is evaluated at the smaller of z = 1 - s^theta and
    w = s^theta, and the other tail as its complement (I_z(m, n) = 1 - I_w(n, m)),
    so no argument within 1e-50 of 1 is rounded.
    """
    with mpmath.workdps(50):
        log_gbar = mpmath.mpf(log_gbar)
        gbar, gcdf = mpmath.exp(log_gbar), -mpmath.expm1(log_gbar)
        d = 1 - (1 - mpmath.mpf(alpha)) * gbar
        one_minus_s = gcdf / d
        log_s = mpmath.log1p(-one_minus_s) if one_minus_s < 0.5 else mpmath.log(alpha * gbar / d)
        w, z = mpmath.exp(theta * log_s), -mpmath.expm1(theta * log_s)
        if z <= w:
            cdf = mpmath.betainc(m, n, 0, z, regularized=True)
            return float(cdf), float(1 - cdf)
        sf = mpmath.betainc(n, m, 0, w, regularized=True)
        return float(1 - sf), float(sf)


def pdf_cdf_mp(m, n, theta, alpha, g, gcdf, gbar=None, dps=50):
    """The family's pdf, cdf and sf at 50 digits, from a baseline g, G and sf_G taken as exact.

    g, G and sf_G (1 - G unless given) are mpmath numbers, so they may lie
    below the smallest double; 1 - s is formed as G/D where G/D < 1/2 and s
    as alpha*sf_G/D elsewhere, never as a difference.  As in ``cdf_sf_mp``,
    the incomplete beta is evaluated at the smaller of z and w, the other
    tail as its complement.  Where -log sf_G has k digits before the point,
    the powers of s keep 50 digits only at ``dps`` = 50 + k, and the
    baseline values must carry as many.
    """
    with mpmath.workdps(dps):
        m, n, theta, alpha = (mpmath.mpf(v) for v in (m, n, theta, alpha))
        gbar = 1 - gcdf if gbar is None else gbar
        d = 1 - (1 - alpha) * gbar
        log_s = mpmath.log1p(-gcdf / d) if gcdf / d < 0.5 else mpmath.log(alpha * gbar / d)
        w, z = mpmath.exp(theta * log_s), -mpmath.expm1(theta * log_s)
        pdf = (
            theta * alpha**theta * g * gbar ** (theta - 1) / d ** (theta + 1)
            * z ** (m - 1) * w ** (n - 1) / mpmath.beta(m, n)
        )
        if z <= w:
            cdf = mpmath.betainc(m, n, 0, z, regularized=True)
            return pdf, cdf, 1 - cdf
        sf = mpmath.betainc(n, m, 0, w, regularized=True)
        return pdf, 1 - sf, sf


def binom_row(x: float, length: int) -> np.ndarray:
    """C(x, k), k < length, one scalar product at a time: C(x, k) = C(x, k - 1) (x - k + 1)/k."""
    row = [1.0]
    for k in range(1, length):
        row.append(row[-1] * (x - k + 1) / k)
    return np.array(row)


def tanhsinh_support_quad(fn, baseline, *args):
    """Integral of fn(t, *args) over the support, one per element of the broadcast args.

    The substitution of ``series._support_quad`` (t = Q_G(w) and t = isf(w),
    w in (0, 1/2], non-finite fn/g counted as 0) integrated by scipy's
    vectorised tanh-sinh solver, which evaluates the baseline once per element
    and node and stops at a 1e-14 relative error estimate.
    """
    from scipy.integrate import tanhsinh

    def ratio(t, *args):
        w = fn(t, *args) / baseline.pdf(t)
        return np.where(np.isfinite(w), w, 0.0)

    def integrand(w, *args):
        return ratio(baseline.quantile(w), *args) + ratio(baseline.isf(w), *args)

    with np.errstate(all="ignore"):
        res = tanhsinh(integrand, 0.0, 0.5, args=args, atol=1e-300, rtol=1e-14)
    if np.any(res.status != 0):
        raise ArithmeticError(f"tanh-sinh status {res.status}")
    return res.integral


def mo_log_parts(alpha, b, t):
    """(log f, log S, log C) of the plain tilt: log alpha + log g - 2 log D, S and C from ``log_tilt``."""
    with np.errstate(all="ignore"):
        log_g, log_gbar, log_gcdf = b.log_parts(t)
        log_s, log_c, log_d = log_tilt(alpha, log_gbar, log_gcdf)
        return math.log(alpha) + log_g - 2.0 * log_d, log_s, log_c


def log_pdf_sum(template, params, data):
    """Sum of ``log_pdf`` of the distribution ``template.build`` binds, over the data.

    It is -inf where any observation has zero density or ``build`` rejects
    the point.
    """
    try:
        dist = template.build(params)
    except ValueError:
        return -math.inf
    with np.errstate(all="ignore"):  # a sum of inf and -inf is NaN, a zero likelihood
        total = float(np.sum(dist.log_pdf(np.asarray(data, dtype=float))))
    return total if math.isfinite(total) else -math.inf


def finite_difference_score(template, params, data, error=False):
    """Gradient of ``log_pdf_sum`` by 5-point central differences.

    The step in each free parameter is 1e-3 of its value (at least 1e-6), so
    the stencil spans +-0.2% of it; an entry is non-finite where the stencil
    leaves the support.  With ``error``, also a bound on each entry's error:
    twice its gap to the 3-point difference of the inner points (truncation)
    plus 1e3 eps |log L| / h (rounding).
    """
    x = template._free(params)
    out, err = np.empty(len(x)), np.empty(len(x))
    for i in range(len(x)):
        h = 1e-3 * max(abs(x[i]), 1e-3)
        e = np.zeros(len(x))
        e[i] = h
        ll = [log_pdf_sum(template, x + j * e, data) for j in (2, 1, -1, -2)]
        up2, up, down, down2 = ll
        out[i] = (-up2 + 8.0 * up - 8.0 * down + down2) / (12.0 * h)
        rounding = 1e3 * np.finfo(float).eps * np.max(np.abs(ll)) / h
        err[i] = 2.0 * abs(out[i] - (up - down) / (2.0 * h)) + rounding
    return (out, err) if error else out
