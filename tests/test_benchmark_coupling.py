"""The benchmark's tracer looks up package functions by name.

benchmark/tracing.py wraps every (module, function) in its LAYERS table,
and a traced benchmark run fails when one of them is gone.  The
benchmark's own suite is not part of this one, so this test loads the
table, without changing it, and checks every name against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("module, function", [layer[:2] for layer in _layers()])
def test_every_traced_layer_is_a_package_function(module, function):
    assert callable(getattr(importlib.import_module(f"cyclecast.{module}"), function, None))
