"""Special functions used throughout the package.

The incomplete beta function and its inverse are thin wrappers over
``scipy.special`` (Boost-backed; DiDonato & Morris 1992,
ACM TOMS 708): they add the package's domain checks and exact endpoints and
take scalars or arrays, returning a float for scalar input.
``reg_inc_beta_mirrored`` takes the argument and its complement apart, so
that neither is read rounded to 1, and ``log_reg_inc_beta_mirrored`` is its
log, finite where it underflows.  Both take the hypergeometric form
wherever the value is below 1e-290, where scipy's ``betainc`` loses digits
as it nears the underflow range, and the log reuses the form's log of each
point the value took from it.  ``log_beta`` is
a scalar ``math.lgamma`` sum, cheapest where it runs once per likelihood
evaluation, and ``beta_quantile_series`` is the small-u power series of the
beta quantile.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special as sc

_TINY = np.finfo(float).tiny  # the smallest normal double
# below this, I_x(m, n) is taken from its hypergeometric form, not from betainc
_HYP_BELOW = 1e-290

__all__ = [
    "log_beta",
    "reg_inc_beta",
    "reg_inc_beta_mirrored",
    "log_reg_inc_beta_mirrored",
    "beta_quantile",
    "beta_quantile_series",
]


def _scalar_or_array(out, *inputs):
    """The package's one scalar rule: ``out`` as a Python float exactly when every input has ndim 0."""
    return float(out) if all(np.ndim(x) == 0 for x in inputs) else out


def _checked(name: str, arg: str, x, m, n) -> np.ndarray:
    """``x`` as a float array, once m, n > 0 and x in [0, 1] hold everywhere (NaN fails).

    The array methods ``all`` cost a fraction of ``np.any``'s dispatch, which
    took about a fifth of a 100-point incomplete beta.
    """
    if not ((np.asarray(m) > 0).all() and (np.asarray(n) > 0).all()):
        raise ValueError(f"{name} requires positive shapes, got ({m}, {n})")
    x_arr = np.asarray(x, dtype=float)
    if not ((x_arr >= 0.0) & (x_arr <= 1.0)).all():
        raise ValueError(f"{name} requires {arg} in [0, 1], got {x}")
    return x_arr


def _each(fn, v):
    """fn at a number v, or at each value of an array v, by the scalar ``math`` function.

    The fitter evaluates a batch of parameter vectors as columns.  numpy's
    log and scipy's ``gammaln`` differ from libm's log and lgamma in the
    last bit on some doubles, so a column takes the scalar call a single
    vector takes, once per value, mapped straight into the result array.
    """
    if isinstance(v, np.ndarray):
        return np.fromiter(map(fn, v.ravel().tolist()), float, v.size).reshape(v.shape)
    return fn(v)


def _log(v):
    """``math.log`` of a number, or of each value of an array (see ``_each``)."""
    return _each(math.log, v)


# the exponents numpy special-cases where given as a number (see ``_power``)
_SCALAR_POWERS = (-1.0, 0.5, 2.0)


def _power(base, exponent):
    """base ** exponent, where the exponent may be a (B, 1) column: one row per value.

    A column takes one broadcast ``np.power``.  numpy 2.4 takes a number
    exponent of -1, 0.5 or 2 (``_SCALAR_POWERS``) by its reciprocal, sqrt and
    square, not by that pow, and they can differ from it in the last bit, so
    the rows with one of those exponents are taken again as ``row ** e``.
    Every row is then bit for bit what a single vector's number exponent
    gives (see ``_each``); at any other exponent, 0 and 1 included, the
    broadcast pow is that value already.  A number base is taken as a 0-d
    array: a float or ``numpy.float64`` would take the C library's ``pow``,
    which differs from numpy's array loop in the last bit on some doubles,
    so a point gets exactly what it gets inside an array.
    """
    if isinstance(exponent, np.ndarray):
        out = np.power(base, exponent)
        for i, e in enumerate(exponent.ravel().tolist()):
            if e in _SCALAR_POWERS:
                out[i] = np.broadcast_to(base, out.shape)[i] ** e
        return out
    return np.asarray(base) ** exponent


def log_beta(m: float, n: float) -> float:
    """Return ln B(m, n) = ln Γ(m) + ln Γ(n) - ln Γ(m+n) for m, n > 0.

    Either argument may be an array of values, each taken by the scalar
    ``math.lgamma`` a number gets (``_each``).
    """
    if isinstance(m, np.ndarray) or isinstance(n, np.ndarray):
        if np.less_equal(m, 0).any() or np.less_equal(n, 0).any():
            raise ValueError(f"log_beta requires positive arguments, got ({m}, {n})")
        return _each(math.lgamma, m) + _each(math.lgamma, n) - _each(math.lgamma, m + n)
    if m <= 0 or n <= 0:
        raise ValueError(f"log_beta requires positive arguments, got ({m}, {n})")
    return math.lgamma(m) + math.lgamma(n) - math.lgamma(m + n)


def reg_inc_beta(x, m, n):
    """Regularized incomplete beta function I_x(m, n).

    I_x(m, n) = (1/B(m, n)) * integral_0^x t^(m-1) (1-t)^(n-1) dt, for x in
    [0, 1] and m, n > 0, elementwise over broadcast arrays; I_0 = 0 and
    I_1 = 1 exactly.
    """
    out = sc.betainc(m, n, _checked("reg_inc_beta", "x", x, m, n))
    return _scalar_or_array(out, x, m, n)


def reg_inc_beta_mirrored(x, log_x, y, log_y, m: float, n: float):
    """I_x(m, n) from x and y = 1 - x given apart, each exact in its own small tail.

    An incomplete beta is taken directly only where its argument is at most
    1/2, so none reads an argument rounded to 1: I_x(m, n) where x <= 1/2,
    else 1 - I_y(n, m), or scipy's ``betaincc`` (several times the cost) on
    the few points where that difference is below 1/10 and would lose a
    digit to cancellation.  Where the argument u taken is not a normal
    double, or the incomplete beta taken is below 1e-290 (``_HYP_BELOW``),
    the hypergeometric form of ``_log_inc_beta_hyp``, from log u and
    log(1 - u), replaces it; the logs are read only there.  Elementwise over
    arrays of one shape, for x, y in [0, 1] and m, n > 0.
    """
    return _scalar_or_array(_reg_inc_beta_mirrored(x, log_x, y, log_y, m, n)[0], x, y)


def _reg_inc_beta_mirrored(x, log_x, y, log_y, m, n):
    """The I_x(m, n) array, the mask where x <= 1/2 took it from the hypergeometric form, its logs there."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    low = x <= 0.5
    u = _checked("reg_inc_beta_mirrored", "x and y", np.where(low, x, y), m, n)
    first, second = np.where(low, m, n), np.where(low, n, m)
    c = np.asarray(sc.betainc(first, second, u))
    hyp = (u < _TINY) | (c < _HYP_BELOW)
    log_hyp = np.empty(0)
    if np.any(hyp):
        logs = np.where(low, log_x, log_y), np.where(low, log_y, log_x)
        at = (np.broadcast_to(v, c.shape)[hyp] for v in (u, *logs, first, second))
        log_hyp = _log_inc_beta_hyp(*at, log_beta(m, n))
        c[hyp] = np.exp(log_hyp)
        log_hyp, hyp = log_hyp[low[hyp]], hyp & low
    out = np.where(low, c, 1.0 - c)
    hard = ~low & (c > 0.9)
    if np.any(hard):
        out[hard] = sc.betaincc(n, m, y[hard])
    return out, hyp, log_hyp


def log_reg_inc_beta_mirrored(x, log_x, y, log_y, m: float, n: float):
    """log I_x(m, n) from x and y = 1 - x given apart, as ``reg_inc_beta_mirrored`` takes them.

    Where I_x(m, n) is below 1e-290 (``_HYP_BELOW``), the hypergeometric form of
    ``_log_inc_beta_hyp`` replaces the log of the rounded value, so the
    result stays finite and keeps its digits where I_x underflows; a value
    the form gave keeps the log of that one evaluation.
    """
    c, hyp, log_hyp = _reg_inc_beta_mirrored(x, log_x, y, log_y, m, n)
    with np.errstate(divide="ignore"):
        out = np.asarray(np.log(c))
    out[hyp] = log_hyp
    small = (c < _HYP_BELOW) & ~hyp  # x above 1/2
    if np.any(small):
        at = (np.broadcast_to(v, c.shape)[small] for v in (x, log_x, log_y))
        out[small] = _log_inc_beta_hyp(*at, m, n, log_beta(m, n))
    return _scalar_or_array(out, x, y)


def _log_inc_beta_hyp(x, log_x, log_y, m, n, log_b):
    """log I_x(m, n) = m log x + n log y - log m - log B + log 2F1(m + n, 1; m + 1; x).

    DLMF 8.17.8, with y = 1 - x and log_b = log B(m, n); it stays finite where
    I_x underflows.  m and n may be arrays, one shape pair per point.
    """
    log_f = np.log(sc.hyp2f1(m + n, 1.0, m + 1.0, x))
    return m * log_x + n * log_y - np.log(m) - log_b + log_f


def beta_quantile(u, m, n):
    """Inverse of ``reg_inc_beta`` in x: the z with I_z(m, n) = u.

    Elementwise over broadcast arrays, for u in [0, 1] and m, n > 0; u = 0
    and u = 1 map to 0 and 1 exactly.  The relative precision is that of
    the smaller of z and u, so callers wanting 1 - z near 0 should invert
    the mirrored problem I_{1-z}(n, m) = 1 - u instead.
    """
    out = sc.betaincinv(m, n, _checked("beta_quantile", "u", u, m, n))
    return _scalar_or_array(out, u, m, n)


def _quantile_series_coeffs(m: float, n: float) -> tuple[float, float, float, float]:
    """Coefficients d_1..d_4 of the small-u beta quantile expansion."""
    d1 = 1.0
    d2 = (n - 1.0) / (m + 1.0)
    d3 = (n - 1.0) * (m * m + 3.0 * m * n - m + 5.0 * n - 4.0) / (
        2.0 * (m + 1.0) ** 2 * (m + 2.0)
    )
    d4 = (
        (n - 1.0)
        * (
            m**4
            + (6.0 * n - 1.0) * m**3
            + (n + 2.0) * (8.0 * n - 5.0) * m**2
            + (33.0 * n * n - 30.0 * n + 4.0) * m
            + n * (31.0 * n - 47.0)
            + 18.0
        )
        / (3.0 * (m + 1.0) ** 3 * (m + 2.0) * (m + 3.0))
    )
    return d1, d2, d3, d4


def beta_quantile_series(u: float, m: float, n: float, order: int = 4) -> float:
    """Small-u power series for the beta quantile.

    Q_{m,n}(u) ~ sum_i d_i w^i with w = [m B(m, n) u]^(1/m), so the i-th term
    scales as [m B(m, n)]^(i/m) u^(i/m).  w is formed from the logs of its
    factors, so it stays a normal double where m B(m, n) u underflows (B(1000,
    1000) is about e^-1390).  Valid only as u -> 0; the exact
    ``beta_quantile`` should be used elsewhere.
    """
    if not 1 <= order <= 4:
        raise ValueError(f"order must be in [1, 4], got {order}")
    if m <= 0 or n <= 0:
        raise ValueError(f"beta_quantile_series requires positive shapes, got ({m}, {n})")
    if not 0.0 <= u < 1.0:
        raise ValueError(f"beta_quantile_series requires u in [0, 1), got {u}")
    if u == 0.0:
        return 0.0
    d = _quantile_series_coeffs(m, n)
    w = math.exp((math.log(m) + log_beta(m, n) + math.log(u)) / m)
    return sum(d[i] * w ** (i + 1) for i in range(order))

