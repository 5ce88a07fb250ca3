"""One pass of each benchmark workload runs clean against the package.

The benchmark calls the package by its public signatures; a change to one
would otherwise fail only the benchmark run.  Fit and distribution run at
their probe size; functionals runs at full size, since only that pass builds
the order-statistic tables and calls the series functionals.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
KNOWN_FAILURES = 6  # the functionals pass's known series faults (``KNOWN_SERIES``)


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK))  # workloads imports ``reference``
    spec = importlib.util.spec_from_file_location(
        "bgmo_benchmark_workloads", BENCHMARK / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["fit", "distribution", "functionals"])
def test_one_pass_has_no_errors(workloads, name, tmp_path):
    group = workloads.GROUPS[name]
    size = workloads.FULL if name == "functionals" else workloads.PROBE
    ledger = workloads.Ledger(workloads.Calibrator())
    group.run(ledger, group.setup(1, size), tmp_path)
    assert ledger.attempted > 0
    assert ledger.errors == []
    assert len(ledger.failed) <= KNOWN_FAILURES
