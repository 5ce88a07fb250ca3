"""The benchmark's operation groups: fit, distribution and functionals.

Each group builds its inputs from the seed, runs its operations on ``bgmo``
(each call timed on its own), checks every output against ``reference`` or a
property the method must have, and turns the timings into its end-to-end
metrics.  A group runs at two sizes: ``full`` is the workload of the same
name, ``probe`` is a small slice that the other two workloads run after each
pass, so that every run reports every end-to-end metric.

Library calls go through module attributes (``series.moment_direct``, not a
name imported once) so that the traced run sees them.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from bgmo import baselines, cli, datasets, family, fitting, series

import reference as ref
from reference import Case

FULL, PROBE = "full", "probe"


# --- bookkeeping ----------------------------------------------------------------


def _kernel() -> float:
    """Fixed interpreter and numpy work, independent of ``bgmo``."""
    s = 0.0
    for i in range(200_000):
        s += math.sqrt(i + 1.0)
    a = np.linspace(0.0, 20.0, 10_000)
    for _ in range(150):
        s += float(np.sum(np.exp(-a) * np.log1p(a)))
    return s


class Calibrator:
    """Rescales measured times to a machine of fixed speed.

    On a shared machine the speed of a core drifts by half from one stretch
    of seconds to the next, and every call in a stretch drifts together.  A
    fixed kernel is timed at least every ``EVERY`` seconds between calls and
    after every long one; a call's time is scaled by NOMINAL over the mean
    kernel time around it.  Reported seconds are thus seconds on a machine
    that runs the kernel in NOMINAL seconds.
    """

    NOMINAL = 0.025  # kernel seconds on this machine when it is not slowed
    EVERY = 0.5

    def __init__(self):
        self.samples = []  # (end time, kernel seconds)
        self.calibrate()

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    def due(self) -> None:
        if time.perf_counter() - self.samples[-1][0] >= self.EVERY:
            self.calibrate()

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL over the mean kernel time near [t0, t1].

        Near means within the call's own length, or one second, of either
        end; the closest sample on each side always counts.  A long call
        thus takes the speed of the stretch around it, not of one sample.
        """
        w = max(1.0, t1 - t0)
        before = [(end, d) for end, d in self.samples if end <= t0]
        after = [(end, d) for end, d in self.samples if end > t1]
        near = [d for end, d in before if end >= t0 - w] or [d for _, d in before[-1:]]
        near += [d for end, d in after if end <= t1 + w] or [d for _, d in after[:1]]
        return self.NOMINAL / (sum(near) / len(near))


class Ledger:
    """Timings, work counts and check outcomes of the operations of one pass."""

    def __init__(self, calibrator: Calibrator, tracer=None):
        self.calibrator = calibrator
        self.tracer = tracer
        self.calls = defaultdict(list)  # kind -> (start, end) of each timed call
        self.work = defaultdict(int)  # kind -> points, levels or calls processed
        self.attempted = 0
        self.failed = []  # operations that failed only on a known fault
        self.errors = []  # every other failed check

    @contextlib.contextmanager
    def op(self, name: str, known_fault: bool = False):
        """One operation; an exception inside it fails the operation, not the run.

        ``known_fault`` marks an operation whose exceptions are a known fault.
        """
        self.attempted += 1
        op = Op(self)
        span = self.tracer.span(name) if self.tracer else contextlib.nullcontext()
        try:
            with span:
                yield op
        except Exception as exc:  # noqa: BLE001 - reported as a failed operation
            op.problems.append((f"raised {type(exc).__name__}: {exc}", known_fault))
        if op.problems:
            text = f"{name}: " + "; ".join(msg for msg, _ in op.problems)
            if all(known for _, known in op.problems):
                self.failed.append(text)
            else:
                self.errors.append(text)

    def seconds(self, kind: str) -> list[float]:
        """Calibrated duration of each timed call of ``kind``."""
        scale = self.calibrator.scale
        return [(t1 - t0) * scale(t0, t1) for t0, t1 in self.calls[kind]]

    def total(self, *kinds) -> float:
        return sum(sum(self.seconds(k)) for k in kinds or tuple(self.calls))

    def rate(self, *kinds) -> float:
        return sum(self.work[k] for k in kinds) / self.total(*kinds)


class Op:
    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self.problems = []

    def call(self, kind: str, fn, *args, work: int = 1, **kwargs):
        """fn(*args, **kwargs), timed under ``kind``."""
        cal = self.ledger.calibrator
        cal.due()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        self.ledger.calls[kind].append((t0, t1))
        self.ledger.work[kind] += work
        if t1 - t0 >= cal.EVERY:
            cal.calibrate()
        return out

    def check(self, ok, message: str, known: bool = False):
        """Record ``message`` unless ``ok``; ``known`` marks a known fault."""
        if not ok:
            self.problems.append((message, known))


def worst_gap(values, expected, scale=1.0) -> float:
    """Largest |values - expected| / max(|expected|, scale); inf on a non-finite miss."""
    values = np.asarray(values, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if values.shape != expected.shape:
        return math.inf
    same = values == expected  # equal infinities count as a match
    with np.errstate(all="ignore"):
        gap = np.abs(values - expected) / np.maximum(np.abs(expected), scale)
    gap = np.where(same, 0.0, gap)
    return float(np.max(np.where(np.isnan(gap), np.inf, gap), initial=0.0))


def bgmo_dist(case: Case) -> family.BgmoDistribution:
    names = ref.BASELINES[case.baseline][1]
    return family.BgmoDistribution(
        family.BgmoParams(case.m, case.n, case.theta, case.alpha),
        baselines.make_baseline(case.baseline, **dict(zip(names, case.base))),
    )


# Two shape sets per baseline: integer (m, n, theta, alpha), fixed, and
# non-integer ones scaled by the seed.  The baseline parameters are scaled too.
BASE_PARAMS = {
    "exponential": (1.0,),
    "weibull": (1.0, 2.0),
    "lomax": (3.0, 1.0),
    "frechet": (3.0, 1.0),
}
INT_SHAPES = {
    "exponential": (2, 3, 2, 2),
    "weibull": (3, 2, 1, 2),
    "lomax": (2, 2, 3, 1),
    "frechet": (1, 3, 2, 3),
}
REAL_SHAPES = (0.7, 2.5, 0.5, 2.5)
JITTER = 0.1  # log-scale half width of the seed's scaling


def structural_cases(rng=None) -> list[Case]:
    """Baselines crossed with integer and non-integer shapes; unscaled when rng is None."""

    def scale(values):
        if rng is None:
            return tuple(float(v) for v in values)
        return tuple(float(v) * math.exp(rng.uniform(-JITTER, JITTER)) for v in values)

    cases = []
    for tag, base in BASE_PARAMS.items():
        cases.append(Case(tag, scale(base), *map(float, INT_SHAPES[tag])))
        cases.append(Case(tag, scale(base), *scale(REAL_SHAPES)))
    return cases


def is_integer_case(case: Case) -> bool:
    return all(float(v).is_integer() for v in (case.m, case.n, case.theta, case.alpha))


# --- fit ------------------------------------------------------------------------------

NESTED = {"m": 1.0, "n": 1.0, "theta": 1.0, "alpha": 1.0}
# log-likelihood floors of the paper's tables for the six-parameter fits
PAPER_FLOORS = {"turbocharger": -80.88, "nicotine": -109.78, "carbon_fibres": -141.79}
# the six-parameter fits of nicotine (about a minute) and carbon_fibres (20 s)
# do not fit the run budget
FULL_FITS = ("turbocharger",)


class Fit:
    """The paper's data-fitting examples; the inputs do not depend on the seed."""

    def setup(self, seed: int, size: str) -> dict:
        full = size == FULL
        return dict(
            data={name: datasets.builtin_dataset(name).values for name in datasets.BUILTIN_NAMES},
            full_fits=FULL_FITS if full else ("turbocharger",),
            # the probe's six-parameter fit is one short simplex run
            flags=[] if full else ["--starts", "1", "--max-iter", "100"],
            nested=datasets.BUILTIN_NAMES if full else ("carbon_fibres",),
            config=fitting.FitConfig() if full else fitting.FitConfig(starts=2),
            full=full,
        )

    def run(self, ledger: Ledger, inp: dict, out_dir) -> None:
        for name in inp["full_fits"]:
            data = inp["data"][name]
            with ledger.op(f"fit weibull {name}") as op:
                path = out_dir / f"fit-{name}.json"
                argv = ["fit", "--data", f"builtin:{name}", "--dist", "weibull",
                        "--out", str(path), *inp["flags"]]
                code = op.call("full_fit", cli.main, argv)
                op.check(code in (0, 2), f"exit code {code}")
                report = json.loads(path.read_text())
                est = report["estimates"]
                case = Case("weibull", (est["lam"], est["beta"]),
                            est["m"], est["n"], est["theta"], est["alpha"])
                crit = {k: report[k] for k in ("aic", "bic", "caic", "hqic")}
                _check_fit(op, report["logLik"], crit, report["k"], report["n"], 6, data, case)
                if inp["full"]:
                    floor = max(PAPER_FLOORS[name], ref.weibull_mle(data)[2])
                    op.check(report["logLik"] >= floor,
                             f"logL {report['logLik']:.4f} below {floor:.4f}")
        for name in inp["nested"]:
            data = inp["data"][name]
            with ledger.op(f"fit nested weibull {name}") as op:
                template = fitting.ModelTemplate("weibull", fixed=dict(NESTED))
                res = op.call("nested_fit", fitting.fit_mle, template, data, inp["config"])
                est = res.estimates
                case = Case("weibull", (est["lam"], est["beta"]), 1.0, 1.0, 1.0, 1.0)
                crit = {k: getattr(res, k) for k in ("aic", "bic", "caic", "hqic")}
                _check_fit(op, res.log_likelihood, crit, res.k_params, res.n_obs, 2, data, case)
                _, _, ll_scipy = ref.weibull_mle(data)
                # known fault: fitting._default_box floors lam at 1e-2/mean(data)
                op.check(res.log_likelihood >= ll_scipy - 1e-4,
                         f"logL {res.log_likelihood:.6f} below scipy's {ll_scipy:.6f}",
                         known=name == "turbocharger")

    def metrics(self, ledger: Ledger) -> dict:
        return {
            "full_fit_s": statistics.fmean(ledger.seconds("full_fit")),
            "nested_fit_s": statistics.fmean(ledger.seconds("nested_fit")),
        }


def _check_fit(op, log_l, crit, k, n, k_expected, data, case):
    op.check(k == k_expected and n == len(data), f"k={k}, n={n}")
    recomputed = float(np.sum(case.log_pdf(data)))
    op.check(abs(log_l - recomputed) <= 1e-8 * max(1.0, abs(recomputed)),
             f"logL {log_l!r} but the estimates give {recomputed!r}")
    for key, want in ref.info_criteria(log_l, k_expected, len(data)).items():
        op.check(crit[key] is not None and abs(crit[key] - want) <= 1e-9 * abs(want),
                 f"{key} {crit[key]!r}, formula gives {want!r}")


# --- distribution -----------------------------------------------------------------------

KS_LEVEL = 1e-6  # a true 1% level would reject correct output on one seed in a hundred
TAIL_LEVELS = 10.0 ** -np.arange(2, 17, 2)  # cdf and sf levels of the fixed tail points


@dataclass
class Grid:
    case: Case
    dist: family.BgmoDistribution
    t_pdf: np.ndarray
    t_cdf: np.ndarray
    u: np.ndarray
    ref: dict = field(default_factory=dict)


def levels(rng, count: int, lower_tail: bool) -> np.ndarray:
    """Four fifths uniform on (1e-4, 1); one fifth within 1e-12..1e-4 of the ends.

    The extreme fifth sits at the upper end only, unless ``lower_tail``: below
    1e-4 the lower tail has its own fixed cases (see ``TAIL_LEVELS``).
    """
    k = count // 5
    ext = 10.0 ** -rng.uniform(4.0, 12.0, k)
    if lower_tail:
        ext = np.where(rng.random(k) < 0.5, ext, 1.0 - ext)
    else:
        ext = 1.0 - ext
    return np.concatenate([rng.uniform(1e-4, 1.0, count - k), ext])


def _cli_sample(op: Op, kind: str, case: Case, count: int, seed: int, out_dir) -> np.ndarray:
    """``bgmo sample`` in-process with its output in a file; the draws read back."""
    path = out_dir / "sample.txt"
    argv = ["sample", "--dist", case.spec, "--count", str(count), "--seed", str(seed)]
    with open(path, "w") as fh, contextlib.redirect_stdout(fh):
        code = op.call(kind, cli.main, argv)
    op.check(code == 0, f"exit code {code}")
    return np.array([float(tok) for tok in path.read_text().split()])


class Distribution:
    """Vectorised evaluation, quantiles and sampling over the structural cases."""

    SIZES = {
        FULL: dict(n_pdf=50_000, n_cdf=4_000, n_q=1_000, n_sample=100_000, n_exact=2_000,
                   tail=True),
        PROBE: dict(n_pdf=5_000, n_cdf=100, n_q=25, n_sample=300, n_exact=100, tail=False),
    }

    def setup(self, seed: int, size: str) -> dict:
        sz = self.SIZES[size]
        rng = np.random.default_rng([seed, 2])
        grids = []
        for case in structural_cases(rng):
            grids.append(Grid(case, bgmo_dist(case),
                              case.quantile(levels(rng, sz["n_pdf"], False)),
                              case.quantile(levels(rng, sz["n_cdf"], False)),
                              levels(rng, sz["n_q"], True)))
        tail = []
        if sz["tail"]:
            tail = [(case, bgmo_dist(case), case.quantile(TAIL_LEVELS), case.isf(TAIL_LEVELS))
                    for case in structural_cases()]
        sample = grids[3]  # weibull, non-integer shapes
        return dict(grids=grids, tail=tail, sample=(sample.case, sample.dist),
                    n_sample=sz["n_sample"], n_exact=sz["n_exact"],
                    sample_seed=int(rng.integers(2**31)))

    def run(self, ledger: Ledger, inp: dict, out_dir) -> None:
        for g in inp["grids"]:
            self._evaluate(ledger, g)
        for case, dist, lower, upper in inp["tail"]:
            self._tail(ledger, case, dist, lower, ("cdf", "pdf"))
            self._tail(ledger, case, dist, upper, ("sf", "hrf"))
        self._sample(ledger, inp, out_dir)

    @staticmethod
    def _evaluate(ledger: Ledger, g: Grid) -> None:
        c, d = g.case, g.dist
        if not g.ref:
            g.ref.update(log_pdf=c.log_pdf(g.t_pdf), cdf=c.cdf(g.t_cdf), sf=c.sf(g.t_cdf),
                         hrf=c.hrf(g.t_cdf), chrf=c.chrf(g.t_cdf))
        r = g.ref
        n_pdf, n_cdf = len(g.t_pdf), len(g.t_cdf)
        with ledger.op(f"log_pdf {c.spec}") as op:
            out = op.call("pdf", d.log_pdf, g.t_pdf, work=n_pdf)
            op.check(worst_gap(out, r["log_pdf"]) <= 1e-9, f"off by {worst_gap(out, r['log_pdf']):.3g}")
        with ledger.op(f"pdf {c.spec}") as op:
            out = op.call("pdf", d.pdf, g.t_pdf, work=n_pdf)
            gap = worst_gap(out, np.exp(r["log_pdf"]), 1e-300)
            op.check(gap <= 1e-9, f"off by {gap:.3g} relative")
        for name in ("cdf", "sf"):
            with ledger.op(f"{name} {c.spec}") as op:
                out = op.call("cdf", getattr(d, name), g.t_cdf, work=n_cdf)
                gap = float(np.max(np.abs(out - r[name])))
                op.check(gap <= 1e-12, f"off by {gap:.3g}")
        # 1 - cdf holds its relative precision only away from the upper tail,
        # which the fixed tail cases cover
        body = r["sf"] >= 1e-6
        with ledger.op(f"hrf {c.spec}") as op:
            out = op.call("cdf", d.hrf, g.t_cdf, work=n_cdf)
            gap = worst_gap(out[body], r["hrf"][body])
            op.check(gap <= 1e-7, f"off by {gap:.3g} relative where sf >= 1e-6")
        with ledger.op(f"chrf {c.spec}") as op:
            out = op.call("cdf", d.chrf, g.t_cdf, work=n_cdf)
            gap = float(np.max(np.abs(out[body] - r["chrf"][body])))
            op.check(gap <= 1e-8, f"off by {gap:.3g} where sf >= 1e-6")
        with ledger.op(f"quantile {c.spec}") as op:
            q = op.call("quantile", d.quantile, g.u, work=len(g.u))
            op.check(np.all(np.isfinite(q)), "non-finite quantile")
            gap = float(np.max(np.abs(c.cdf(q) - g.u)))
            op.check(gap <= 1e-9, f"|F(Q(u)) - u| up to {gap:.3g}")

    @staticmethod
    def _tail(ledger: Ledger, case: Case, dist, ts, names) -> None:
        # known faults, each on fixed points: BgmoDistribution.sf is 1 - cdf and
        # cancels in the upper tail; 1 - s^theta is taken from theta * log s,
        # which cancels in the lower tail
        for t in ts:
            t = float(t)
            for name in names:
                want = float(getattr(case, name)(t))
                with ledger.op(f"{name}({t!r}) {case.spec}") as op:
                    got = op.call("tail", getattr(dist, name), t)
                    gap = abs(got - want) / want
                    op.check(gap <= 1e-6, f"{got!r} against {want!r}", known=True)

    @staticmethod
    def _sample(ledger: Ledger, inp: dict, out_dir) -> None:
        case, dist = inp["sample"]
        count, seed = inp["n_sample"], inp["sample_seed"]
        with ledger.op(f"bgmo sample --count {count} {case.spec}") as op:
            drawn = _cli_sample(op, "cli_sample", case, count, seed, out_dir)
            op.check(drawn.shape == (count,), f"{drawn.size} draws")
            op.check(np.all(np.isfinite(drawn) & (drawn > 0.0)), "draws outside the support")
            p = stats.kstest(drawn, case.cdf).pvalue
            op.check(p >= KS_LEVEL, f"KS p-value {p:.3g}")
        # the printed draws parse back to the library's; checked on a short
        # sample, since repeating the long one in the library doubles the pass
        count = inp["n_exact"]
        with ledger.op(f"bgmo sample --count {count} against sample({count}, {seed})") as op:
            drawn = _cli_sample(op, "cli_exact", case, count, seed, out_dir)
            again = op.call("quantile", dist.sample, count, seed, work=count)
            op.check(np.array_equal(drawn, again), "the CLI draws differ from sample(count, seed)")

    def metrics(self, ledger: Ledger) -> dict:
        return {
            "cli_sample_s": statistics.fmean(ledger.seconds("cli_sample")),
            "pdf_rate": ledger.rate("pdf"),
            "cdf_rate": ledger.rate("cdf"),
            "quantile_rate": ledger.rate("quantile"),
        }


# --- functionals ----------------------------------------------------------------------

W = ("weibull", (1.0, 2.0))
# known faults of the series functionals, each on fixed inputs: the call
# passes when it matches the reference or raises DivergenceError
KNOWN_SERIES = (
    ("moment_series(d, 2)", Case(*W, 0.7, 2.5, 0.5, 2.5),
     lambda d: series.moment_series(d, 2), lambda c: c.moment(2)),
    ("mgf_series(d, 0.5)", Case(*W, 0.7, 2.5, 0.5, 2.5),
     lambda d: series.mgf_series(d, 0.5), lambda c: c.mgf(0.5)),
    ("renyi_entropy(d, 2)", Case(*W, 0.7, 2.5, 0.5, 2.5),
     lambda d: series.renyi_entropy(d, 2.0), lambda c: c.renyi_entropy(2.0)),
    ("renyi_entropy(d, 2)", Case(*W, 0.5, 2.5, 0.5, 2.5),
     lambda d: series.renyi_entropy(d, 2.0), lambda c: c.renyi_entropy(2.0)),
    ("order_stat_moment(d, 2, 3, 1)", Case(*W, 2.0, 1.5, 0.8, 2.0),
     lambda d: series.order_stat_moment(d, 2, 3, 1), lambda c: c.order_stat_moment(2, 3, 1)),
    ("order_stat_moment(d, 2, 3, 1)", Case(*W, 2.0, 2.0, 0.7, 2.0),
     lambda d: series.order_stat_moment(d, 2, 3, 1), lambda c: c.order_stat_moment(2, 3, 1)),
) + tuple(
    # the order-statistic series loses precision even at integer shapes
    ("order_stat_moment(d, 2, 3, 1)", case,
     lambda d: series.order_stat_moment(d, 2, 3, 1), lambda c: c.order_stat_moment(2, 3, 1))
    for case in structural_cases() if is_integer_case(case)
)
# E[T^2] does not exist: the Lomax tail index 1.5 is below 2
DIVERGENT = Case("lomax", (1.5, 1.0), 1.0, 1.0, 1.0, 1.0)
LIGHT_TAILS = ("exponential", "weibull")  # where the mgf exists
# shapes (m, n, theta, alpha) of the normalisation integrals, from the corners
# and centre of [0.5, 2.5]^4; the seed scales them like the other parameters
INTEGRAL_SHAPES = (
    REAL_SHAPES,
    (0.5, 0.5, 0.5, 0.5),
    (2.5, 2.5, 2.5, 2.5),
    (0.5, 2.5, 1.0, 2.5),
    (2.5, 0.5, 2.5, 0.5),
    (1.0, 1.0, 0.5, 2.5),
    (1.0, 2.5, 2.5, 1.0),
    (2.5, 1.0, 1.0, 0.5),
)


def _mgf_arg(case: Case) -> float:
    # half the exponential decay rate lam*theta*n of the exponential-baseline tail
    if case.baseline == "exponential":
        return 0.5 * case.base[0] * case.theta * case.n
    return 0.5


class Functionals:
    """Normalisation integrals, direct and series functionals, coefficient tables."""

    # Full size makes each integral and functional call three times, the
    # repeats apart: a median over so few calls of 10-100 ms swings with the
    # machine's speed.
    SIZES = {
        FULL: dict(integrals_per_baseline=8, repeats=3),
        PROBE: dict(integrals_per_baseline=1, repeats=1),
    }

    def setup(self, seed: int, size: str) -> dict:
        sz = self.SIZES[size]
        rng = np.random.default_rng([seed, 3])
        integrals = []
        for tag, base in BASE_PARAMS.items():
            for shapes in INTEGRAL_SHAPES[: sz["integrals_per_baseline"]]:
                scaled = [v * math.exp(rng.uniform(-JITTER, JITTER)) for v in (*base, *shapes)]
                integrals.append(Case(tag, tuple(scaled[: len(base)]), *scaled[len(base):]))
        cases = structural_cases(rng)
        full = size == FULL
        if not full:
            cases = [c for c in cases if not is_integer_case(c)]
        return dict(
            integrals=[(c, bgmo_dist(c)) for c in integrals],
            calls=[(c, bgmo_dist(c), call) for c in cases for call in self._calls(c, full)],
            cases=cases,
            repeats=sz["repeats"],
            full=full,
            known=[(label, c, bgmo_dist(c), call, want) for label, c, call, want in KNOWN_SERIES]
            if full else [],
            references={},
        )

    @staticmethod
    def _calls(case: Case, full: bool) -> list:
        """(label, function, extra arguments, reference, tolerance) for one case."""
        calls = [("moment_direct(d, 1)", series.moment_direct, (1,), lambda c: c.moment(1), 1e-7)]
        if not full:
            return calls
        calls.append(("moment_direct(d, 2)", series.moment_direct, (2,), lambda c: c.moment(2), 1e-7))
        calls.append(("renyi_entropy(d, 2, direct)",
                      lambda d: series.renyi_entropy(d, 2.0, method="direct"), (),
                      lambda c: c.renyi_entropy(2.0), 1e-7))
        s = _mgf_arg(case)
        if case.baseline in LIGHT_TAILS:
            calls.append((f"mgf(d, {s!r})", series.mgf, (s,), lambda c: c.mgf(s), 1e-7))
        if is_integer_case(case):
            # at integer shapes the series are finite and must match the direct values
            calls.append(("moment_series(d, 2)", series.moment_series, (2,),
                          lambda c: c.moment(2), 1e-6))
            calls.append(("renyi_entropy(d, 2)", series.renyi_entropy, (2.0,),
                          lambda c: c.renyi_entropy(2.0), 1e-6))
            if case.baseline in LIGHT_TAILS:
                calls.append((f"mgf_series(d, {s!r})", series.mgf_series, (s,),
                              lambda c: c.mgf(s), 1e-6))
        return calls

    def run(self, ledger: Ledger, inp: dict, out_dir) -> None:
        refs = inp["references"]

        def reference(key, compute):
            if key not in refs:
                refs[key] = compute()
            return refs[key]

        for _ in range(inp["repeats"]):
            for case, d in inp["integrals"]:
                with ledger.op(f"integral of pdf {case.spec}") as op:
                    value = op.call("integral", series._support_quad, d.pdf, d.baseline)
                    op.check(abs(value - 1.0) <= 1e-6, f"integrates to {value!r}")

        for _ in range(inp["repeats"]):
            for case, d, (label, fn, args, want, tol) in inp["calls"]:
                with ledger.op(f"{label} {case.spec}") as op:
                    got = op.call("functional", fn, d, *args)
                    expected = reference((label, case), lambda: want(case))
                    gap = abs(got - expected) / max(abs(expected), 1.0)
                    op.check(gap <= tol, f"{float(got)!r} against {expected!r}")

        if inp["full"]:
            for case in inp["cases"]:
                self._coefficients(ledger, case)
            for label, case, d, call, want in inp["known"]:
                with ledger.op(f"{label} {case.spec}", known_fault=True) as op:
                    try:
                        got = op.call("functional", call, d)
                    except series.DivergenceError:
                        continue  # an honest report of non-convergence passes
                    expected = reference((label, case), lambda: want(case))
                    gap = abs(got - expected) / abs(expected)
                    op.check(gap <= 1e-6, f"{float(got)!r} against {expected!r}", known=True)
            d = bgmo_dist(DIVERGENT)
            with ledger.op(f"moment_direct(d, 2) {DIVERGENT.spec}") as op:
                try:
                    got = op.call("functional", series.moment_direct, d, 2)
                    op.check(False, f"returned {float(got)!r} for a moment that does not exist")
                except series.DivergenceError:
                    pass

    @staticmethod
    def _coefficients(ledger: Ledger, case: Case) -> None:
        with ledger.op(f"expansion_coefficients r=2 n=3 {case.spec}") as op:
            co = op.call("coeffs", series.expansion_coefficients,
                         case.m, case.n, case.theta, r=2, sample_n=3)
            j = np.arange(len(co.delta))
            # documented identity: delta[j] = -delta'[j] * theta * (j + n)
            gap = worst_gap(co.delta, -co.delta_prime * case.theta * (j + case.n), 1e-300)
            op.check(gap <= 1e-12, f"delta and delta' disagree by {gap:.3g}")
            op.check(co.xi is not None and co.d_table is not None and len(co.d_table) == 2,
                     "order-statistic tables missing")
            if is_integer_case(case):
                # finite series: the mixture weights of the survival powers sum to one
                op.check(len(co.delta) == int(case.m), f"{len(co.delta)} delta terms")
                total = -float(np.sum(co.delta_prime))
                op.check(abs(total - 1.0) <= 1e-12, f"weights sum to {total!r}")
                op.check(co.psi is not None, "integer-shape cdf table missing")

    def metrics(self, ledger: Ledger) -> dict:
        return {
            "integral_s": statistics.median(ledger.seconds("integral")),
            "functional_s": statistics.median(ledger.seconds("functional")),
        }


GROUPS = {"fit": Fit(), "distribution": Distribution(), "functionals": Functionals()}
