"""The identity sweeps as a Tier-1 check.

``eval_sweep.sweep()`` and ``fit_sweep.sweep()`` are run in-process and
compared entry by entry with the goldens in ``tests/golden/``.  A change that
moves any output fails here, and the message names each changed entry with
its old and new value and their relative gap.  A change that means to move
outputs regenerates the goldens in the same change, from the repository root:

    PYTHONPATH=src python tests/test_sweeps.py

That rewrites both goldens and ``tests/golden/versions.json``, the numpy and
scipy versions they were recorded with.  Each golden is byte for byte what
``tests/eval_sweep.py OUT`` or ``tests/fit_sweep.py OUT`` writes.  Another
numpy or scipy may move the last bits of many values, so on a version
mismatch the check fails on the versions themselves, not on the entries.
"""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

import eval_sweep
import fit_sweep

GOLDEN = Path(__file__).resolve().parent / "golden"
VERSIONS = GOLDEN / "versions.json"
SWEEPS = {"eval_sweep": eval_sweep.sweep, "fit_sweep": fit_sweep.sweep}
# the fields that name a record rather than hold its outputs
LABELS = ("baseline", "shapes", "options", "template", "data")
REGENERATE = "PYTHONPATH=src python tests/test_sweeps.py"


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def sweep_text(sweep) -> str:
    """The sweep's output file, run under Tier-1's warning filter."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return json.dumps(sweep(), indent=1) + "\n"


def entries(records: list) -> dict:
    """Every leaf of a sweep's records by its path; a fit's ``to_json`` is read as JSON."""
    out = {}

    def walk(value, key):
        if isinstance(value, dict):
            for name, item in value.items():
                walk(json.loads(item) if name == "to_json" else item, f"{key}/{name}")
        elif isinstance(value, list):
            for i, item in enumerate(value):
                walk(item, f"{key}/{i}")
        else:
            out[key] = value

    for record in records:
        label = " ".join(str(record[name]) for name in LABELS if name in record)
        walk({name: item for name, item in record.items() if name not in LABELS}, label)
    return out


def _number(value):
    """A recorded number (a float, or a ``float.hex`` string) as a float; None for anything else."""
    if isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool)):
        return float(value)
    if isinstance(value, str) and (value.lstrip("-").startswith("0x") or value in ("inf", "-inf", "nan")):
        return float.fromhex(value)
    return None


def changes(old: dict, new: dict) -> list[str]:
    """One line per entry whose JSON differs: its key, both values and, for numbers, the relative gap."""
    lines = []
    for key in list(old) + [key for key in new if key not in old]:
        a, b = old.get(key, "<absent>"), new.get(key, "<absent>")
        if json.dumps(a) == json.dumps(b):
            continue
        line = f"{key}: {a!r} -> {b!r}"
        x, y = _number(a), _number(b)
        if x is not None and y is not None:
            gap = abs(y - x)
            line += f" (relative gap {gap / abs(x) if x else (0.0 if gap == 0 else math.inf):.3g})"
        lines.append(line)
    return lines


@pytest.mark.parametrize("name", SWEEPS)
def test_the_sweep_matches_its_golden(name):
    recorded, running = json.loads(VERSIONS.read_text()), versions()
    if recorded != running:
        pytest.fail(
            f"the goldens were recorded with numpy {recorded['numpy']} and scipy {recorded['scipy']}, "
            f"this is numpy {running['numpy']} and scipy {running['scipy']}: regenerate them with "
            f"{REGENERATE} and check the change"
        )
    golden, new = (GOLDEN / f"{name}.json").read_text(), sweep_text(SWEEPS[name])
    moved = changes(entries(json.loads(golden)), entries(json.loads(new)))
    assert not moved, f"{len(moved)} entries of {name} changed:\n" + "\n".join(moved)
    assert new == golden, f"every entry of {name} is the same, but the file's text is not"


def twin_mismatches(records: list) -> list[str]:
    """One line per scalar entry of the eval sweep that is not its array twin's element.

    Each evaluating method is recorded at each point, one call per point, and
    in one call over all points (``name[]``); ``quantile`` at the levels in
    (0, 1), ``eval_sweep.LEVELS``, and then outside, and in one call over
    the former.  A number must evaluate exactly as it does inside an array.
    """
    lines = []
    for record in records:
        label = " ".join(str(record[name]) for name in LABELS if name in record)
        evaluations = record["evaluations"]
        for name in (*eval_sweep.METHODS, "quantile"):
            scalars, array = evaluations[name], evaluations[name + "[]"]
            if name == "quantile":
                scalars = scalars[: len(eval_sweep.LEVELS)]
            if not isinstance(array, list) or len(array) != len(scalars):
                lines.append(f"{label}/{name}[]: {array!r} holds no element per point")
                continue
            lines += [
                f"{label}/{name}/{i}: {one!r} != {name}[]/{i} {element!r}"
                for i, (one, element) in enumerate(zip(scalars, array))
                if one != element
            ]
    return lines


def test_each_scalar_evaluation_is_its_array_twin():
    # checks the golden itself, so a mismatch shows without running the sweep
    mismatched = twin_mismatches(json.loads((GOLDEN / "eval_sweep.json").read_text()))
    assert not mismatched, f"{len(mismatched)} scalar entries differ from their array twin:\n" + "\n".join(mismatched)


def test_a_twin_mismatch_names_its_entry():
    methods = {name: ["0x1.0p+0"] for name in eval_sweep.METHODS}
    methods.update({name + "[]": ["0x1.0p+0"] for name in eval_sweep.METHODS})
    levels = ["0x1.0p-1"] * len(eval_sweep.LEVELS)
    record = {"baseline": "Weibull(lam=1, beta=2)", "shapes": [1.0, 2.0], "evaluations": dict(
        methods, quantile=[*levels, "ValueError: quantile requires u in (0, 1)"], **{"quantile[]": levels}
    )}
    assert twin_mismatches([record]) == []
    record["evaluations"]["pdf"] = ["0x1.8p+0"]
    record["evaluations"]["quantile[]"] = "ValueError: quantile requires u in (0, 1)"
    assert twin_mismatches([record]) == [
        "Weibull(lam=1, beta=2) [1.0, 2.0]/pdf/0: '0x1.8p+0' != pdf[]/0 '0x1.0p+0'",
        "Weibull(lam=1, beta=2) [1.0, 2.0]/quantile[]: 'ValueError: quantile requires u in (0, 1)' "
        "holds no element per point",
    ]


def test_a_change_names_its_key_both_values_and_the_gap():
    old = [{"baseline": "Weibull(lam=1, beta=2)", "shapes": [1.0, 2.0], "pdf": ["0x1.0p+0", "0x1.8p+0"], "ok": "x"}]
    new = [{"baseline": "Weibull(lam=1, beta=2)", "shapes": [1.0, 2.0], "pdf": ["0x1.0p+0", "0x1.0p+1"], "ok": "y"}]
    assert changes(entries(old), entries(new)) == [
        "Weibull(lam=1, beta=2) [1.0, 2.0]/pdf/1: '0x1.8p+0' -> '0x1.0p+1' (relative gap 0.333)",
        "Weibull(lam=1, beta=2) [1.0, 2.0]/ok: 'x' -> 'y'",
    ]
    fit = {"baseline": "weibull", "data": "nicotine", "to_json": json.dumps({"loglik": -1.0, "se": math.nan})}
    moved = dict(fit, to_json=json.dumps({"loglik": -1.5, "se": math.nan}))
    assert changes(entries([fit]), entries([moved])) == [
        "weibull nicotine/to_json/loglik: -1.0 -> -1.5 (relative gap 0.5)"
    ]
    assert changes(entries([fit]), entries([fit])) == []


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for sweep_name, run in SWEEPS.items():
        (GOLDEN / f"{sweep_name}.json").write_text(sweep_text(run))
    VERSIONS.write_text(json.dumps(versions(), indent=1) + "\n")
