"""Marshall-Olkin tilt and its exponentiated (generalized) form.

The tilt maps a baseline survival function sf_G into
``alpha*sf_G / (1 - (1-alpha)*sf_G)``; raising that ratio to the power theta
gives the generalized family.  theta = 1 recovers the plain tilt and
alpha = theta = 1 recovers the baseline.  All evaluation is done in log space
so deep tails survive exponentiation.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .baselines import Baseline

__all__ = [
    "GmoParams",
    "gmo_log_sf",
    "gmo_sf",
    "gmo_cdf",
    "gmo_pdf",
    "gmo_log_pdf",
    "gmo_hrf",
    "gmo_rhrf",
    "gmo_chrf",
    "gmo_quantile",
    "mo_pdf",
    "mo_log_pdf",
]


@dataclass(frozen=True)
class GmoParams:
    """Tilt parameter alpha > 0 and exponent theta > 0."""

    alpha: float
    theta: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0 or self.theta <= 0:
            raise ValueError(
                f"alpha and theta must be positive, got ({self.alpha}, {self.theta})"
            )

    @property
    def alpha_bar(self) -> float:
        """1 - alpha; negative whenever alpha > 1."""
        return 1.0 - self.alpha


def _log_ratio(p: GmoParams, b: Baseline, t):
    """log of alpha*sf_G/(1 - (1-alpha)*sf_G), the log tilted survival."""
    log_gbar = b.log_sf(t)
    gbar = np.exp(log_gbar)
    return math.log(p.alpha) + log_gbar - np.log1p(-p.alpha_bar * gbar)


def gmo_log_sf(p: GmoParams, b: Baseline, t):
    return p.theta * _log_ratio(p, b, t)


def gmo_sf(p: GmoParams, b: Baseline, t):
    """Survival [alpha*sf_G/(1 - (1-alpha)*sf_G)]^theta."""
    return np.exp(gmo_log_sf(p, b, t))


def gmo_cdf(p: GmoParams, b: Baseline, t):
    return -np.expm1(gmo_log_sf(p, b, t))


def gmo_log_pdf(p: GmoParams, b: Baseline, t):
    scalar = np.isscalar(t)
    log_gbar = b.log_sf(t)
    gbar = np.exp(log_gbar)
    log_denom = np.log1p(-p.alpha_bar * gbar)
    out = (
        math.log(p.theta)
        + p.theta * math.log(p.alpha)
        + b.log_pdf(t)
        + (p.theta - 1.0) * log_gbar
        - (p.theta + 1.0) * log_denom
    )
    return float(out) if scalar else out


def gmo_pdf(p: GmoParams, b: Baseline, t):
    """Density theta*alpha^theta*g*sf_G^(theta-1)/(1-(1-alpha)*sf_G)^(theta+1)."""
    with np.errstate(all="ignore"):
        return np.exp(gmo_log_pdf(p, b, t))


def gmo_hrf(p: GmoParams, b: Baseline, t):
    """Hazard theta*h_G(t)/(1 - (1-alpha)*sf_G(t)); +inf where the sf vanishes."""
    gbar = b.sf(t)
    with np.errstate(divide="ignore"):
        return p.theta * b.hrf(t) / (1.0 - p.alpha_bar * gbar)


def gmo_rhrf(p: GmoParams, b: Baseline, t):
    """Reversed hazard pdf/cdf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return gmo_pdf(p, b, t) / gmo_cdf(p, b, t)


def gmo_chrf(p: GmoParams, b: Baseline, t):
    """Cumulative hazard -log sf."""
    return -gmo_log_sf(p, b, t)


def _tilt_inverse(alpha: float, b: Baseline, log_s):
    """The t whose tilted survival alpha*sf_G/(1 - (1-alpha)*sf_G) is exp(log_s).

    Inverting the tilt gives G = alpha*(1 - s)/D and sf_G = s/D with
    D = alpha + (1-alpha)*s; the baseline is inverted through whichever of
    the two is at most 1/2, so both tails keep their relative precision.
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


def gmo_quantile(p: GmoParams, b: Baseline, u):
    """Inverse cdf: closed form through the baseline quantile."""
    scalar = np.isscalar(u)
    u = np.asarray(u, dtype=float)
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise ValueError("quantile requires u in (0, 1)")
    out = _tilt_inverse(p.alpha, b, np.log1p(-u) / p.theta)
    return float(out) if scalar else out


# Plain tilt (theta = 1), coded independently for cross-checks.


def mo_log_pdf(alpha: float, b: Baseline, t):
    gbar = np.exp(b.log_sf(t))
    return math.log(alpha) + b.log_pdf(t) - 2.0 * np.log1p(-(1.0 - alpha) * gbar)


def mo_pdf(alpha: float, b: Baseline, t):
    with np.errstate(all="ignore"):
        return np.exp(mo_log_pdf(alpha, b, t))
