"""The Marshall-Olkin tilt, under the family's density, cdf and quantile.

The tilt maps a baseline survival function sf_G into
``s = alpha*sf_G/D`` with ``D = 1 - (1-alpha)*sf_G``, so ``1 - s = G/D``;
alpha = 1 recovers the baseline.  ``log_tilt`` is the one place the tilt is
computed and ``tilt_inverse`` its closed-form inverse, one baseline inversion
per point.  The sub-families the paper names (the plain and exponentiated
tilts, Beta-G) are cross-checked against independently coded closed forms in
the test suite.
"""

from __future__ import annotations

import math

import numpy as np

from .baselines import Baseline
from .special import _log

__all__ = ["log_tilt", "tilt_inverse"]


_LN2 = math.log(2.0)


def log_tilt(alpha: float, log_gbar, log_gcdf):
    """log s, log(1 - s) and log D of the tilted survival s, from log sf_G and log G.

    The baseline logs are those of one ``Baseline.log_parts`` pass.  log s
    comes from the baseline log sf where s is small and as log1p(-(1 - s))
    from the baseline log cdf where 1 - s is small: neither tail takes a
    difference of nearly equal numbers.  Call it under
    ``np.errstate(all="ignore")``.
    """
    log_d = np.log1p(-(1.0 - alpha) * np.exp(log_gbar))
    log_1ms = log_gcdf - log_d
    log_s = np.where(
        log_1ms < -_LN2,
        np.log1p(-np.exp(log_1ms)),
        _log(alpha) + log_gbar - log_d,
    )
    return log_s, log_1ms, log_d


def tilt_inverse(alpha: float, baseline: Baseline, log_s):
    """The t whose tilted survival alpha*sf_G/(1 - (1-alpha)*sf_G) is exp(log_s).

    Inverting the tilt gives G = alpha*(1 - s)/D and sf_G = s/D with
    D = alpha + (1-alpha)*s.  Each point is inverted through whichever of
    the two is at most 1/2, in one ``Baseline._invert`` call, so both tails
    keep their relative precision.  Levels below 1e-300 are taken as 1e-300.
    """
    s = np.exp(log_s)
    den = alpha + (1.0 - alpha) * s
    g = alpha * -np.expm1(log_s) / den
    lower = g <= 0.5
    return baseline._invert(np.maximum(np.where(lower, g, s / den), 1e-300), lower)
