"""Command-line interface.

Subcommands: ``eval``, ``quantile``, ``sample`` (thin wrappers over the
distribution), ``fit`` (JSON report), ``compare`` (information-criterion
ranking), ``curves`` (fitted pdf/cdf over a data-driven grid plus histogram)
and ``shapes`` (pdf/hazard columns for one or more parameter sets).

Exit codes: 0 success, 1 usage or I/O error, 2 numerical non-convergence.
Any ``ValueError`` the library raises on the input (a parameter out of its
domain, a bad data file, a quantile level outside (0, 1), a bad fit flag)
is a usage error, and any ``OSError`` reading data or writing a report (a
directory given as a file, a file without permission) an I/O error.
``eval`` and ``quantile`` write nothing unless every point evaluates.

A model spec is one string: the baseline family tag followed by name=value
pairs, where ``m``, ``n``, ``theta``, ``alpha`` are the family shapes and the
rest belong to the baseline, e.g. ``"weibull m=2 n=1 theta=1 alpha=1
lambda=0.5 beta=2"``.  Every spec becomes a ``ModelTemplate`` whose named
values are held fixed: ``fit``, ``compare`` and ``curves --fit`` estimate
the rest, and the other subcommands need every value set.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .baselines import PARAM_ALIASES, baseline_class
from .datasets import Dataset, builtin_dataset, load_dataset
from .family import BgmoDistribution
from .fitting import FitConfig, FitError, ModelTemplate, fit_mle

# shown by ``shapes`` when no spec is given; spans monotone and bathtub hazards
DEFAULT_GALLERY = (
    "exponential m=1 n=1 theta=1 alpha=1 lambda=1",
    "exponential m=2 n=1.5 theta=0.8 alpha=2 lambda=1",
    "weibull m=0.5 n=2 theta=1.5 alpha=0.3 lambda=1 beta=0.5",
    "weibull m=3 n=0.4 theta=0.6 alpha=1.5 lambda=1 beta=2",
    "lomax m=1.5 n=1 theta=2 alpha=0.5 beta=2 delta=1",
    "frechet m=1 n=2 theta=1 alpha=3 lambda=2 delta=1",
)


class CliError(Exception):
    """Usage or I/O problem; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse defaults to exit code 2, which this tool reserves for
        # numerical non-convergence
        self.print_usage(sys.stderr)
        raise CliError(message)


def _template(spec: str) -> ModelTemplate:
    """The spec's ``ModelTemplate``: its values fixed, its Z-function settings options."""
    tokens = spec.split()
    if not tokens:
        raise CliError("empty model spec")
    tag = tokens[0].lower()
    option_names = baseline_class(tag).option_names
    fixed, options = {}, {}
    for tok in tokens[1:]:
        name, eq, value = tok.partition("=")
        if not eq:
            raise CliError(f"expected name=value, got {tok!r}")
        if name != "z":  # the extended Weibull's Z kind is a word
            try:
                value = float(value)
            except ValueError:
                raise CliError(f"{name}={value!r} is not a number") from None
        if name in option_names:
            options[name] = value
        else:
            fixed[PARAM_ALIASES.get(name, name)] = value
    return ModelTemplate(tag, fixed=fixed, options=options)


def build_distribution(spec: str) -> BgmoDistribution:
    """The distribution a spec names; it must set every parameter."""
    template = _template(spec)
    if template.free_names:
        raise CliError(f"model spec must set {list(template.free_names)} (got {spec!r})")
    return template.build(())


def _load_data(ref: str) -> Dataset:
    if ref.startswith("builtin:"):
        return builtin_dataset(ref.split(":", 1)[1])
    return load_dataset(ref)


def _parse_values(text: str) -> np.ndarray:
    return np.array([float(tok) for piece in text.split(",") for tok in piece.split()])


def _emit(path, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _fmt(x: float) -> str:
    return repr(float(x))


def _table(path, header, rows):
    """Write a TSV table: a ``# `` line of column names, then one tab-joined line per row,
    each number in ``_fmt``'s text and each string as it is."""
    lines = ["# " + "\t".join(header)]
    lines += ["\t".join(v if isinstance(v, str) else _fmt(v) for v in row) for row in rows]
    _emit(path, "\n".join(lines) + "\n")


def _fit_config(args) -> FitConfig:
    return FitConfig(
        starts=args.starts,
        max_iter=args.max_iter,
        seed=args.seed,
        level=args.level,
    )


# --- subcommand bodies -------------------------------------------------------


def _cmd_eval(args) -> int:
    dist = build_distribution(args.dist)
    fn = getattr(dist, args.fn)
    # one point at a time, all before one write: a bad point leaves stdout empty
    _emit(None, "".join(_fmt(fn(float(t))) + "\n" for t in _parse_values(args.t)))
    return 0


def _cmd_sample(args) -> int:
    dist = build_distribution(args.dist)
    # one write: repr of a Python float is _fmt's text
    print("\n".join(map(repr, dist.sample(args.count, args.seed).tolist())))
    return 0


def _cmd_fit(args) -> int:
    data = _load_data(args.data)
    result = fit_mle(_template(args.dist), data.values, _fit_config(args))
    _emit(args.out, result.to_json() + "\n")
    return 0 if result.converged else 2


def _cmd_compare(args) -> int:
    if len(args.candidates) < 2:
        raise CliError("compare needs at least two --candidate specs")
    data = _load_data(args.data)
    config = _fit_config(args)
    rows = []
    any_bad = False
    for spec in args.candidates:
        template = _template(spec)
        try:
            r = fit_mle(template, data.values, config)
        except (FitError, ValueError) as exc:
            rows.append((spec, math.inf, math.inf, math.nan, math.nan, math.nan, f"failed: {exc}"))
            any_bad = True
            continue
        conv = "yes" if r.converged else "no"
        rows.append((spec, r.aic, r.bic, r.caic, r.hqic, r.log_likelihood, conv))
        any_bad = any_bad or not r.converged
    rows.sort(key=lambda r: (r[1], r[2], r[0]))  # by AIC, then BIC, then spec
    _table(args.out, ("model", "aic", "bic", "caic", "hqic", "logLik", "converged"), rows)
    return 2 if any_bad else 0


def _grid(data: np.ndarray, points: int) -> np.ndarray:
    """``points`` values over the data's range, widened by 5% of it at each end."""
    lo, hi = float(np.min(data)), float(np.max(data))
    pad = 0.05 * (hi - lo)
    return np.linspace(lo - pad, hi + pad, points)


def _cmd_curves(args) -> int:
    data = _load_data(args.data)
    if args.fit:
        template = _template(args.dist)
        dist = template.build(fit_mle(template, data.values, _fit_config(args)).estimates)
    else:
        dist = build_distribution(args.dist)
    grid = _grid(data.values, args.grid_points)
    pdf = dist.pdf(grid)
    cdf = dist.cdf(grid)
    edges = np.histogram_bin_edges(data.values, bins="fd")
    dens, _ = np.histogram(data.values, bins=edges, density=True)
    # one histogram bin per grid row while the bins last, NaN after
    bins = [*zip(edges[:-1], edges[1:], dens), *[(math.nan,) * 3] * len(grid)]
    rows = [(t, p, c, *b) for t, p, c, b in zip(grid, pdf, cdf, bins)]
    _table(args.out, ("t", "pdf", "cdf", "bin_left", "bin_right", "bin_density"), rows)
    return 0


def _cmd_shapes(args) -> int:
    specs = args.dists or list(DEFAULT_GALLERY)
    dists = [build_distribution(s) for s in specs]
    if args.t_max is not None:
        t_hi = args.t_max
    else:
        t_hi = max(float(d.quantile(0.99)) for d in dists)
    t_lo = max(float(max(d.support_low for d in dists)), 0.0)
    grid = np.linspace(t_lo, t_hi, args.grid_points + 1)[1:]  # skip the edge point
    cols = [getattr(d, args.fn)(grid) for d in dists]
    _table(args.out, ("t", *specs), zip(grid, *cols))
    return 0


# --- argument wiring ---------------------------------------------------------


def _add_fit_flags(sub):
    sub.add_argument("--starts", type=int, default=FitConfig.starts, help="multi-start restarts")
    sub.add_argument("--max-iter", type=int, default=FitConfig.max_iter, help="optimizer iteration cap")
    sub.add_argument("--seed", type=int, default=FitConfig.seed, help="restart sampling seed")
    sub.add_argument("--level", type=float, default=FitConfig.level, help="1 - confidence level")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bgmo", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eval", help="evaluate pdf/cdf/sf/hrf/rhrf/chrf at points")
    p.add_argument("--dist", required=True, help="full model spec")
    p.add_argument("--fn", default="pdf", choices=("pdf", "cdf", "sf", "hrf", "rhrf", "chrf"))
    p.add_argument("--t", required=True, help="comma or space separated points")
    p.set_defaults(run=_cmd_eval)

    p = subs.add_parser("quantile", help="evaluate the quantile function")
    p.add_argument("--dist", required=True)
    p.add_argument("--u", dest="t", metavar="U", required=True, help="levels in (0,1)")
    p.set_defaults(run=_cmd_eval, fn="quantile")

    p = subs.add_parser("sample", help="draw a seeded random sample")
    p.add_argument("--dist", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_sample)

    p = subs.add_parser("fit", help="maximum-likelihood fit; JSON report")
    p.add_argument("--data", required=True, help="file path or builtin:<name>")
    p.add_argument(
        "--dist",
        default="weibull",
        help="baseline tag plus any parameters to hold fixed",
    )
    p.add_argument("--out", default=None, help="report path (default stdout)")
    _add_fit_flags(p)
    p.set_defaults(run=_cmd_fit)

    p = subs.add_parser("compare", help="fit several specs, rank by AIC")
    p.add_argument("--data", required=True)
    p.add_argument(
        "--candidate",
        dest="candidates",
        action="append",
        default=[],
        help="model spec; repeat for each candidate",
    )
    p.add_argument("--out", default=None)
    _add_fit_flags(p)
    p.set_defaults(run=_cmd_compare)

    p = subs.add_parser("curves", help="fitted pdf/cdf columns plus data histogram")
    p.add_argument("--data", required=True)
    p.add_argument("--dist", required=True, help="model spec (full, unless --fit)")
    p.add_argument("--fit", action="store_true", help="fit the spec to the data first")
    p.add_argument("--grid-points", type=int, default=400)
    p.add_argument("--out", default=None)
    _add_fit_flags(p)
    p.set_defaults(run=_cmd_curves)

    p = subs.add_parser("shapes", help="pdf or hazard columns for parameter sets")
    p.add_argument(
        "--dist",
        dest="dists",
        action="append",
        default=[],
        help="model spec; repeat per column (default: built-in gallery)",
    )
    p.add_argument("--fn", default="pdf", choices=("pdf", "hrf"))
    p.add_argument("--grid-points", type=int, default=200)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_shapes)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except (CliError, ValueError, FitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
