"""The benchmark's per-layer tracer wraps package names by string; each must resolve.

A renamed function would otherwise fail only the traced benchmark pass.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bgmo_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("layer", tracing.LAYERS)
def test_layer_names_resolve(layer):
    mod = importlib.import_module(f"bgmo.{layer}")
    # the tracer falls back to ``main`` for a module without ``__all__``
    names = getattr(mod, "__all__", None) or ["main"]
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, f"bgmo.{layer} lacks {missing}"


@pytest.mark.parametrize("qualname", sorted(tracing.EXTRA))
def test_extra_names_resolve(qualname):
    mod_name, name = qualname.split(".")
    obj = getattr(importlib.import_module(f"bgmo.{mod_name}"), name, None)
    assert inspect.isfunction(obj), f"bgmo.{qualname} is not a function"
