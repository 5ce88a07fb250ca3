"""Evaluate every ``BgmoDistribution`` method and the series functionals on a fixed grid.

Run from the repository root:

    PYTHONPATH=src python tests/eval_sweep.py OUT.json

The grid is ten baselines (all eight families, the extended Weibull and the
exponentiated Pareto twice) times seven shape sets, among them the plain
tilt m = n = theta = 1 and its sub-families.  For each pair OUT.json holds
every evaluating method at each point from below the support edge to inf,
one scalar call per point and one array call over all points; ``quantile``
at levels in and outside (0, 1); ``sample``, the two quantile shape
measures; and the series functionals: both pointwise expansions of the pdf
and cdf, order-statistic densities and moments, direct and series moments,
mgf and Renyi entropy, a PWM of the plain tilt and both tail approximants.
Each value is recorded as ``float.hex``, so a change of return type alone
(``numpy.float64`` to ``float``) does not show; each raised error as its
type and message.  A change that claims to leave evaluation as it is leaves
this file byte for byte the same; ``tests/test_sweeps.py`` compares it with
``tests/golden/eval_sweep.json`` entry by entry.  Pytest does not collect
it: its name does not start with ``test_``.
"""

import json
import math
import sys

import numpy as np

from bgmo import series
from bgmo.baselines import (
    Exponential,
    ExponentiatedPareto,
    ExtendedWeibull,
    Frechet,
    Gompertz,
    Lomax,
    ModifiedWeibull,
    Weibull,
    ZFunction,
)
from bgmo.family import BgmoDistribution, BgmoParams

BASELINES = [
    Exponential(1.3),
    Weibull(1.0, 2.0),
    Lomax(2.0, 1.0),
    Frechet(2.0, 1.0),
    Gompertz(0.7, 0.9),
    ExtendedWeibull(1.2),
    ExtendedWeibull(0.8, ZFunction("log_ratio", k=2.0)),
    ModifiedWeibull(0.5, 0.8, 2.0),
    ExponentiatedPareto(0.8, 1.7, 2.4),
    ExponentiatedPareto(0.8, 0.3, 0.5),
]
# (m, n, theta, alpha): the plain tilt, the exponentiated tilt, Beta-G, the
# beta layer over the plain tilt, two general points and tiny beta shapes
SHAPES = [
    (1.0, 1.0, 1.0, 2.5),
    (1.0, 1.0, 0.5, 0.3),
    (2.0, 3.0, 1.0, 1.0),
    (0.7, 2.5, 1.0, 0.4),
    (2.0, 1.5, 0.8, 2.0),
    (0.7, 2.5, 0.5, 2.5),
    (1e-3, 1e-3, 1.0, 1.0),
]
METHODS = ("log_pdf", "pdf", "cdf", "sf", "log_sf", "hrf", "rhrf", "chrf")
LEVELS = (1e-300, 1e-10, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0 - 1e-10)
OFFSETS = (1e-300, 1e-10, 0.01, 0.5, 1.0, 3.0, 10.0, 100.0, 1e5)


def points(edge: float) -> list[float]:
    """Below the edge, at it, just above it, then out to 1e300 and inf."""
    return [edge - 1.0, edge, math.nextafter(edge, math.inf)] + [edge + d for d in OFFSETS] + [1e300, math.inf]


def hexed(value):
    """A number or an array as ``float.hex`` strings; a ``SeriesEval`` field by field."""
    if isinstance(value, series.SeriesEval):
        return [hexed(value.value), value.converged, hexed(value.tail)]
    if np.ndim(value) == 0:
        return float(value).hex()
    return [float(v).hex() for v in np.asarray(value, dtype=float).ravel().tolist()]


def outcome(fn, *args, **kwargs):
    """``fn``'s value, hexed, or the type and message of the error it raised."""
    try:
        return hexed(fn(*args, **kwargs))
    except Exception as exc:  # every failure is part of the record
        return f"{type(exc).__name__}: {exc}"


def evaluations(dist: BgmoDistribution) -> dict:
    ts = points(dist.support_low)
    out = {}
    for name in METHODS:
        fn = getattr(dist, name)
        out[name] = [outcome(fn, t) for t in ts]
        out[name + "[]"] = outcome(fn, np.array(ts))
    levels = list(LEVELS) + [0.0, 1.0, math.nan]
    out["quantile"] = [outcome(dist.quantile, u) for u in levels]
    out["quantile[]"] = outcome(dist.quantile, np.array(LEVELS))
    out["sample"] = outcome(dist.sample, 8, 3)
    out["bowley_skewness"] = outcome(dist.bowley_skewness)
    out["moors_kurtosis"] = outcome(dist.moors_kurtosis)
    return out


def functionals(dist: BgmoDistribution) -> dict:
    edge, p = dist.support_low, dist.params
    at = [edge + 1e-10, edge + 0.5, edge + 3.0, 1e300]
    out = {}
    for form in ("survival_powers", "cdf_powers"):
        out["pdf_via_expansion:" + form] = [outcome(series.pdf_via_expansion, dist, t, form) for t in at]
    for form in ("cdf_powers", "order_stat_identity"):
        out["cdf_via_expansion:" + form] = [outcome(series.cdf_via_expansion, dist, t, form) for t in at]
    for method in ("direct", "series"):
        out["order_stat_pdf:" + method] = [outcome(series.order_stat_pdf, dist, 2, 3, t, method) for t in at]
        out["renyi_entropy:" + method] = outcome(series.renyi_entropy, dist, 2.0, method=method)
    out["moment_direct"] = outcome(series.moment_direct, dist, 1.0)
    out["moment_series"] = outcome(series.moment_series, dist, 1)
    out["order_stat_moment"] = outcome(series.order_stat_moment, dist, 2, 3, 1)
    out["mgf"] = outcome(series.mgf, dist, 0.1)
    out["mgf_series"] = outcome(series.mgf_series, dist, 0.1)
    out["pwm_mo"] = outcome(series.pwm_mo, p.alpha, dist.baseline, 1, 1.0, 0.5)
    for end in ("lower", "upper"):
        tail = series.asymptote(dist, end)
        for part in ("pdf", "tail_prob", "hrf"):
            out[f"asymptote:{end}:{part}"] = outcome(getattr(tail, part), np.array(at))
    return out


def sweep() -> list[dict]:
    records = []
    for baseline in BASELINES:
        for shapes in SHAPES:
            dist = BgmoDistribution(BgmoParams(*shapes), baseline)
            records.append({
                "baseline": repr(baseline),
                "shapes": shapes,
                "evaluations": evaluations(dist),
                "functionals": functionals(dist),
            })
    return records


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: PYTHONPATH=src python tests/eval_sweep.py OUT.json")
    with open(sys.argv[1], "w") as fh:
        json.dump(sweep(), fh, indent=1)
        fh.write("\n")
