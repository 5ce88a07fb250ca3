"""Beta generalized Marshall-Olkin distribution family.

Evaluation, sampling, series expansions and maximum-likelihood fitting for
the four-parameter family built by pushing a Marshall-Olkin tilted and
exponentiated baseline through a beta distribution.
"""

from .baselines import (
    BASELINE_FAMILIES,
    Exponential,
    ExponentiatedPareto,
    ExtendedWeibull,
    Frechet,
    Gompertz,
    Lomax,
    ModifiedWeibull,
    Weibull,
    ZFunction,
    make_baseline,
)
from .datasets import Dataset, builtin_dataset, load_dataset, save_dataset
from .family import BgmoDistribution, BgmoParams
from .fitting import (
    FitConfig,
    FitResult,
    ModelTemplate,
    fit_mle,
    info_criteria,
    log_likelihood,
    observed_information,
    score,
    wald_interval,
)
from .series import (
    ExpansionCoeffs,
    expansion_coefficients,
    asymptote,
    cdf_via_expansion,
    delta_coeffs,
    mgf,
    moment_direct,
    moment_series,
    order_stat_moment,
    order_stat_pdf,
    pdf_via_expansion,
    pwm_mo,
    renyi_entropy,
)
from .special import beta_quantile, log_beta, reg_inc_beta

__version__ = "0.1.0"

__all__ = [
    "BASELINE_FAMILIES",
    "BgmoDistribution",
    "BgmoParams",
    "Dataset",
    "Exponential",
    "ExponentiatedPareto",
    "ExtendedWeibull",
    "FitConfig",
    "FitResult",
    "Frechet",
    "Gompertz",
    "Lomax",
    "ModelTemplate",
    "ModifiedWeibull",
    "Weibull",
    "ZFunction",
    "asymptote",
    "beta_quantile",
    "builtin_dataset",
    "cdf_via_expansion",
    "delta_coeffs",
    "expansion_coefficients",
    "ExpansionCoeffs",
    "fit_mle",
    "info_criteria",
    "load_dataset",
    "log_beta",
    "log_likelihood",
    "make_baseline",
    "mgf",
    "moment_direct",
    "moment_series",
    "observed_information",
    "order_stat_moment",
    "order_stat_pdf",
    "pdf_via_expansion",
    "pwm_mo",
    "reg_inc_beta",
    "renyi_entropy",
    "save_dataset",
    "score",
    "wald_interval",
]
