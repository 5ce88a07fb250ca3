import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bgmo
from bgmo.baselines import make_baseline
from bgmo.cli import DEFAULT_GALLERY, build_distribution, build_parser, main
from bgmo.datasets import builtin_dataset
from bgmo.family import BgmoDistribution, BgmoParams
from bgmo.fitting import FitConfig, ModelTemplate

REDUCTION = "exponential m=1 n=1 theta=1 alpha=1 lambda=1"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_table(text):
    lines = text.strip().splitlines()
    header = lines[0].lstrip("# ").split("\t")
    rows = [line.split("\t") for line in lines[1:]]
    return header, rows


class TestEvalQuantileSample:
    def test_pdf_outside_support_is_zero(self, capsys):
        rc, out, _ = run(capsys, "eval", "--dist", REDUCTION, "--fn", "pdf", "--t", "-1")
        assert rc == 0
        assert float(out.strip()) == 0.0

    def test_quantile_median(self, capsys):
        rc, out, _ = run(capsys, "quantile", "--dist", REDUCTION, "--u", "0.5")
        assert rc == 0
        assert float(out.strip()) == pytest.approx(math.log(2), abs=1e-9)

    def test_sample_deterministic(self, capsys):
        args = ("sample", "--dist", REDUCTION, "--count", "5", "--seed", "1")
        rc1, out1, _ = run(capsys, *args)
        rc2, out2, _ = run(capsys, *args)
        assert rc1 == rc2 == 0
        assert out1 == out2
        assert len(out1.strip().splitlines()) == 5

    def test_python_dash_m_runs_main(self, capsys):
        args = ("sample", "--dist", REDUCTION, "--count", "5", "--seed", "1")
        src = str(Path(bgmo.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-m", "bgmo", *args], capture_output=True, text=True,
                              env=env, timeout=120)
        rc, out, _ = run(capsys, *args)
        assert done.returncode == rc == 0
        assert done.stdout == out

    def test_sample_lines_are_repr_of_draws(self, capsys):
        spec = "weibull m=0.7 n=2.5 theta=0.5 alpha=2.5 lambda=1 beta=2"
        rc, out, _ = run(capsys, "sample", "--dist", spec, "--count", "2000", "--seed", "3")
        assert rc == 0
        draws = build_distribution(spec).sample(2000, 3)
        assert out == "".join(repr(float(v)) + "\n" for v in draws)

    def test_quantile_level_validation(self, capsys):
        rc, _, err = run(capsys, "quantile", "--dist", REDUCTION, "--u", "1.5")
        assert rc == 1
        assert "error" in err

    def test_incomplete_spec(self, capsys):
        rc, _, err = run(capsys, "eval", "--dist", "exponential m=1 lambda=1", "--t", "1")
        assert rc == 1

    def test_a_missing_baseline_parameter_is_named(self, capsys):
        spec = "weibull m=1 n=1 theta=1 alpha=1 lambda=1"
        rc, out, err = run(capsys, "eval", "--dist", spec, "--t", "1")
        assert rc == 1 and out == ""
        assert err.startswith("error: model spec must set ['beta']")

    def test_sample_count_is_checked_by_the_distribution(self, capsys):
        rc, out, err = run(capsys, "sample", "--dist", REDUCTION, "--count", "0")
        assert rc == 1 and out == ""
        assert err.startswith("error: count must be positive")


SHAPES = {"m": 0.7, "n": 2.5, "theta": 0.5, "alpha": 2.5}
# every baseline, every Z kind and a modified-Weibull coefficient at 0
ROUTE_CASES = [
    ("exponential", {"lambda": 1.3}),
    ("weibull", {"lambda": 0.5, "beta": 2.0}),
    ("lomax", {"beta": 2.0, "delta": 1.5}),
    ("frechet", {"lambda": 2.0, "delta": 1.2}),
    ("gompertz", {"beta": 0.4, "lambda": 1.1}),
    ("extended_weibull", {"delta": 0.8, "z": "linear"}),
    ("extended_weibull", {"delta": 0.8, "z": "square"}),
    ("extended_weibull", {"delta": 0.8, "z": "log_ratio", "k": 0.25}),
    ("extended_weibull", {"delta": 0.8, "z": "gompertz_link", "beta": 1.5}),
    ("modified_weibull", {"sigma": 0.7, "beta": 0.8, "gamma": 1.5}),
    ("modified_weibull", {"sigma": 0.0, "beta": 0.8, "gamma": 1.5}),
    ("exponentiated_pareto", {"theta_p": 0.8, "k": 0.3, "gamma": 0.5}),
]


@pytest.mark.parametrize("tag, baseline", ROUTE_CASES)
def test_spec_builds_the_distribution_it_names(tag, baseline):
    spec = " ".join([tag] + [f"{k}={v}" for k, v in {**SHAPES, **baseline}.items()])
    expected = BgmoDistribution(BgmoParams(**SHAPES), make_baseline(tag, **baseline))
    assert build_distribution(spec) == expected


class TestFit:
    def test_missing_data_file(self, capsys):
        rc, _, err = run(capsys, "fit", "--data", "missing.txt")
        assert rc == 1
        assert "missing.txt" in err

    def test_report_schema_and_determinism(self, capsys, tmp_path):
        args = (
            "fit", "--data", "builtin:turbocharger", "--dist",
            "weibull m=1 n=1 theta=1", "--starts", "4", "--seed", "7",
        )
        rc1, out1, _ = run(capsys, *args)
        rc2, out2, _ = run(capsys, *args)
        assert out1 == out2
        doc = json.loads(out1)
        assert set(doc) == {
            "estimates", "se", "ci", "logLik", "aic", "bic", "caic", "hqic",
            "converged", "n", "k",
        }
        assert doc["n"] == 40 and doc["k"] == 3
        assert rc1 == rc2 in (0, 2)
        assert rc1 == (0 if doc["converged"] else 2)

    def test_fixed_baseline_parameter_alias(self, capsys):
        # the greek CLI spelling maps onto the fittable parameter name
        rc, out, _ = run(
            capsys, "fit", "--data", "builtin:turbocharger",
            "--dist", "weibull m=1 n=1 theta=1 alpha=1 lambda=0.5",
            "--starts", "2", "--seed", "1",
        )
        doc = json.loads(out)
        assert doc["k"] == 1 and list(doc["estimates"]) == ["beta"]

    def test_extended_weibull_z_function_reaches_the_fit(self, capsys, tmp_path):
        # with the family shapes fixed at 1 the model is sf = exp(-delta*Z(t)),
        # whose MLE is n / sum Z(t); a linear Z would give n / sum t instead.
        # The data are scaled so that both MLEs lie inside the default box.
        data = builtin_dataset("turbocharger").values / 4.0
        path = tmp_path / "data.txt"
        path.write_text("\n".join(repr(float(v)) for v in data))
        fixed = "m=1 n=1 theta=1 alpha=1"
        for z_spec, z_values in (
            ("z=square", data**2),
            ("z=log_ratio k=0.25", np.log(data / 0.25)),
        ):
            rc, out, err = run(
                capsys, "fit", "--data", str(path),
                "--dist", f"extended_weibull {fixed} {z_spec}", "--starts", "2", "--seed", "1",
            )
            assert rc in (0, 2), err
            doc = json.loads(out)
            assert doc["k"] == 1
            assert doc["estimates"]["delta"] == pytest.approx(len(data) / np.sum(z_values), rel=1e-4)

    def test_hazard_rate_box_follows_the_data(self, capsys):
        # delta's default box is centred on its closed-form MLE n / sum Z(t),
        # which for Z = t^2 on the unscaled data is 0.02335, below 0.05
        data = builtin_dataset("turbocharger").values
        rc, out, err = run(
            capsys, "fit", "--data", "builtin:turbocharger",
            "--dist", "extended_weibull m=1 n=1 theta=1 alpha=1 z=square",
            "--starts", "2", "--seed", "1",
        )
        assert rc == 0, err
        delta = json.loads(out)["estimates"]["delta"]
        assert delta == pytest.approx(len(data) / np.sum(data**2), rel=1e-6)

    def test_bad_template_is_a_usage_error(self, capsys):
        for spec in ("weibull zeta=1", "extended_weibull z=cubic", "extended_weibull z=log_ratio k=-1"):
            rc, out, err = run(capsys, "fit", "--data", "builtin:turbocharger", "--dist", spec)
            assert rc == 1 and out == ""
            assert err.startswith("error:")

    @pytest.mark.parametrize(
        "spec, name",
        [("weibull lambda=-1", "lam"), ("weibull m=0", "m"), ("weibull lambda=inf", "lam")],
    )
    def test_a_fixed_value_outside_the_domain_is_a_usage_error(self, capsys, spec, name):
        rc, out, err = run(capsys, "fit", "--data", "builtin:turbocharger", "--dist", spec)
        assert rc == 1 and out == ""
        assert err.startswith(f"error: parameter {name} ")

    def test_writes_report_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        rc, out, _ = run(
            capsys, "fit", "--data", "builtin:turbocharger", "--dist",
            "weibull m=1 n=1 theta=1 alpha=1", "--starts", "3", "--seed", "1",
            "--out", str(out_path),
        )
        assert out == ""
        doc = json.loads(out_path.read_text())
        assert doc["n"] == 40


class TestCompare:
    def test_needs_two_candidates(self, capsys):
        rc, _, err = run(
            capsys, "compare", "--data", "builtin:turbocharger", "--candidate", "weibull"
        )
        assert rc == 1

    def test_rows_sorted_by_aic(self, capsys):
        rc, out, _ = run(
            capsys, "compare", "--data", "builtin:turbocharger",
            "--candidate", "weibull m=1 n=1 theta=1 alpha=1",
            "--candidate", "weibull m=1 n=1 theta=1",
            "--candidate", "exponential m=1 n=1 theta=1 alpha=1",
            "--starts", "4", "--seed", "3",
        )
        header, rows = parse_table(out)
        assert header[0] == "model" and header[1] == "aic"
        aics = [float(r[1]) for r in rows]
        assert aics == sorted(aics)
        assert len(rows) == 3

    def test_a_candidate_that_cannot_be_fitted(self, capsys):
        # Z = ln(t/50) puts every turbocharger observation below the support
        bad = "extended_weibull m=1 n=1 theta=1 alpha=1 z=log_ratio k=50"
        rc, out, _ = run(
            capsys, "compare", "--data", "builtin:turbocharger",
            "--candidate", bad, "--candidate", "exponential m=1 n=1 theta=1 alpha=1",
            "--starts", "2",
        )
        assert rc == 2
        _, rows = parse_table(out)
        assert [r[0] for r in rows] == ["exponential m=1 n=1 theta=1 alpha=1", bad]
        assert rows[0][-1] == "yes" and math.isfinite(float(rows[0][1]))
        assert rows[1][1:6] == ["inf", "inf", "nan", "nan", "nan"]
        # rejected before any restart runs
        assert rows[1][-1].startswith("failed: observations at indices [0, 1, 2,")
        assert rows[1][-1].endswith("are below the support edge 50 of extended_weibull")

    @pytest.mark.parametrize("flag, message", [
        (("--starts", "0"), "starts must be at least 1"),
        (("--max-iter", "-3"), "max_iter must be at least 1"),
        (("--level", "1.5"), "level must be in (0, 1)"),
    ])
    def test_a_bad_fit_flag_is_a_usage_error(self, capsys, flag, message):
        rc, out, err = run(
            capsys, "compare", "--data", "builtin:turbocharger",
            "--candidate", "weibull m=1 n=1 theta=1 alpha=1",
            "--candidate", "exponential m=1 n=1 theta=1 alpha=1", *flag,
        )
        assert rc == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_identical_candidates_identical_rows(self, capsys):
        rc, out, _ = run(
            capsys, "compare", "--data", "builtin:turbocharger",
            "--candidate", "weibull m=1 n=1 theta=1 alpha=1",
            "--candidate", "weibull m=1 n=1 theta=1 alpha=1",
            "--starts", "3", "--seed", "3",
        )
        _, rows = parse_table(out)
        assert rows[0][1:] == rows[1][1:]


@pytest.fixture(scope="module")
def curves_output(tmp_path_factory):
    out_path = tmp_path_factory.mktemp("curves") / "curves.tsv"
    rc = main([
        "curves", "--data", "builtin:turbocharger", "--dist",
        "weibull m=1.187 n=2.057 theta=0.017 alpha=0.047 lambda=0.009 beta=4.194",
        "--grid-points", "400", "--out", str(out_path),
    ])
    assert rc == 0
    return out_path.read_text()


class TestCurves:
    def test_grid_span(self, curves_output):
        header, rows = parse_table(curves_output)
        t = np.array([float(r[0]) for r in rows])
        assert len(t) == 400
        lo, hi, span = 1.6, 9.0, 9.0 - 1.6
        assert t[0] == pytest.approx(lo - 0.05 * span, abs=1e-12)
        assert t[-1] == pytest.approx(hi + 0.05 * span, abs=1e-12)

    def test_histogram_mass_is_one(self, curves_output):
        _, rows = parse_table(curves_output)
        mass = sum(
            (float(r[4]) - float(r[3])) * float(r[5])
            for r in rows
            if r[3] != "nan"
        )
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_pdf_column_mass(self, curves_output):
        # the reference-estimate model carries ~3% of its mass outside the
        # plotting window, so the trapezoid over the grid comes in just below 1
        _, rows = parse_table(curves_output)
        t = np.array([float(r[0]) for r in rows])
        pdf = np.array([float(r[1]) for r in rows])
        assert np.trapezoid(pdf, t) == pytest.approx(1.0, abs=0.05)

    def test_cdf_column_monotone(self, curves_output):
        _, rows = parse_table(curves_output)
        cdf = np.array([float(r[2]) for r in rows])
        assert np.all(np.diff(cdf) >= -1e-12)

    @pytest.mark.parametrize("command", [("fit",), ("curves", "--fit")])
    def test_data_outside_the_support_is_a_usage_error(self, capsys, tmp_path, command):
        path = tmp_path / "data.txt"
        path.write_text("0.5\n-1.0\n2.0\n")
        rc, out, err = run(capsys, *command, "--data", str(path), "--dist", "weibull")
        assert rc == 1 and out == ""
        assert err == "error: observations at indices [1] are outside the support\n"


class TestShapes:
    def test_reduction_column_strictly_decreasing(self, capsys):
        rc, out, _ = run(
            capsys, "shapes", "--dist", REDUCTION, "--fn", "pdf",
            "--grid-points", "80", "--t-max", "5.0",
        )
        assert rc == 0
        _, rows = parse_table(out)
        col = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(col) < 0)

    def test_hrf_equals_pdf_over_sf(self, capsys):
        spec = "weibull m=2 n=1.5 theta=0.8 alpha=2 lambda=1 beta=2"
        rc, out_h, _ = run(
            capsys, "shapes", "--dist", spec, "--fn", "hrf",
            "--grid-points", "40", "--t-max", "2.0",
        )
        from bgmo.cli import build_distribution

        d = build_distribution(spec)
        _, rows = parse_table(out_h)
        t = np.array([float(r[0]) for r in rows])
        hrf = np.array([float(r[1]) for r in rows])
        np.testing.assert_allclose(hrf, d.pdf(t) / (1.0 - d.cdf(t)), atol=1e-10, rtol=1e-9)

    def test_default_gallery_has_nonmonotone_hazard(self, capsys):
        rc, out, _ = run(capsys, "shapes", "--fn", "hrf", "--grid-points", "300")
        assert rc == 0
        _, rows = parse_table(out)
        arr = np.array([[float(x) for x in r] for r in rows])
        found = False
        for j in range(1, arr.shape[1]):
            col = arr[:, j]
            col = col[np.isfinite(col)]
            d = np.diff(col)
            d = d[np.abs(d) > 1e-12]
            if len(d) and np.any(np.diff(np.sign(d)) != 0):
                found = True
        assert found, "expected a non-monotone hazard column in the default gallery"

    def test_gallery_size(self):
        assert len(DEFAULT_GALLERY) >= 4


class TestUsageErrors:
    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_family(self, capsys):
        rc, _, err = run(capsys, "eval", "--dist", "normal m=1 n=1 theta=1 alpha=1", "--t", "1")
        assert rc == 1

    def test_an_unknown_family_has_one_message(self, capsys):
        # ``baselines.baseline_class`` is the one lookup of a tag
        messages = []
        for build in (lambda: ModelTemplate("nope"), lambda: make_baseline("nope")):
            with pytest.raises(ValueError) as info:
                build()
            messages.append(str(info.value))
        rc, out, err = run(capsys, "fit", "--data", "builtin:turbocharger", "--dist", "nope")
        assert rc == 1 and out == ""
        messages.append(err.removeprefix("error: ").removesuffix("\n"))
        assert len(set(messages)) == 1
        assert messages[0].startswith("unknown baseline family 'nope' (known: exponential, ")

    @pytest.mark.parametrize("argv", [
        ("fit", "--data", "data.csv"),
        ("compare", "--data", "data.csv"),
        ("curves", "--data", "data.csv", "--dist", "weibull", "--fit"),
    ], ids=lambda argv: argv[0])
    def test_the_fit_flag_defaults_are_fit_configs(self, argv):
        args = build_parser().parse_args(argv)
        names = ("starts", "max_iter", "seed", "level")
        assert {name: getattr(args, name) for name in names} == {
            name: getattr(FitConfig(), name) for name in names
        }

    @pytest.mark.parametrize("spec, message", [
        ("weibull m=1 n=1 theta=1 alpha=1 lambda=inf beta=2", "parameter lam must be positive and finite, got inf"),
        ("modified_weibull m=1 n=1 theta=1 alpha=1 sigma=nan beta=0.8 gamma=2", "all finite, got {'sigma': nan"),
    ])
    def test_a_value_outside_the_domain_is_a_usage_error(self, capsys, spec, message):
        for fn in ("cdf", "pdf"):
            rc, out, err = run(capsys, "eval", "--dist", spec, "--fn", fn, "--t", "1")
            assert rc == 1 and out == "" and message in err

    @pytest.mark.parametrize("spec, message", [
        ("", "error: empty model spec"),
        ("exponential m2 lambda=1", "error: expected name=value, got 'm2'"),
    ])
    def test_a_malformed_spec_is_a_usage_error(self, capsys, spec, message):
        rc, out, err = run(capsys, "eval", "--dist", spec, "--t", "1")
        assert rc == 1 and out == "" and err.startswith(message)

    def test_non_numeric_value(self, capsys):
        spec = "exponential m=1 n=1 theta=1 alpha=1 lambda=abc"
        rc, _, err = run(capsys, "eval", "--dist", spec, "--t", "1")
        assert rc == 1 and "lambda='abc' is not a number" in err

    def test_a_bad_point_after_good_ones_writes_nothing(self, capsys):
        # every value is formatted before the one write, so stdout is empty
        rc, out, err = run(capsys, "quantile", "--dist", REDUCTION, "--u", "0.5 1.5")
        assert rc == 1 and out == "" and err.startswith("error: ")

    def test_eval_writes_each_value_on_its_own_line(self, capsys):
        # the Weibull points are where a number's power once took the C library's pow, an ulp
        # off the array's: one array call writes what a call per point gives
        weibull = "weibull m=0.7 n=2.5 theta=0.5 alpha=2.5 lambda=1 beta=1.5"
        for spec, fn, text, points in (
            (REDUCTION, "cdf", "0.5, 1 2", (0.5, 1.0, 2.0)),
            (weibull, "pdf", "0.05, 0.8 1 1.75", (0.05, 0.8, 1.0, 1.75)),
        ):
            rc, out, _ = run(capsys, "eval", "--dist", spec, "--fn", fn, "--t", text)
            evaluate = getattr(build_distribution(spec), fn)
            assert rc == 0 and out == "".join(repr(evaluate(t)) + "\n" for t in points)
            assert out == "".join(repr(v) + "\n" for v in evaluate(np.array(points)).tolist())

    def test_a_directory_as_the_data_file_is_an_io_error(self, capsys, tmp_path):
        rc, out, err = run(capsys, "fit", "--data", str(tmp_path))
        assert rc == 1 and out == "" and err.startswith("error: ")

    def test_a_directory_as_the_report_path_is_an_io_error(self, capsys, tmp_path):
        rc, _, err = run(capsys, "fit", "--data", "builtin:turbocharger", "--dist", "weibull m=1 n=1 theta=1 alpha=1",
                         "--starts", "2", "--out", str(tmp_path))
        assert rc == 1 and err.startswith("error: ") and "Is a directory" in err
