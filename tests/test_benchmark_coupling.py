"""The benchmark's tracer looks up package functions by name.

benchmark/tracing.py wraps every (module, function) in its LAYERS table,
and a traced benchmark run fails when one of them is gone.  The
benchmark's own suite is not part of this one, so these tests load the
table, without changing it, check every name against the package, and
apply the trace layers' work counters to real calls.
"""

import importlib
import importlib.util
import io
from pathlib import Path

import pytest

from cyclecast.core import total_cpu_cycles
from cyclecast.ingest import parse_cluster_spec, parse_trace_csv, write_trace_csv
from cyclecast.regression import CostModel
from cyclecast.synth import generate_trace

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layers():
    return _tracing().LAYERS


@pytest.mark.parametrize("module, function", [layer[:2] for layer in _layers()])
def test_every_traced_layer_is_a_package_function(module, function):
    assert callable(getattr(importlib.import_module(f"cyclecast.{module}"), function, None))


def test_trace_counters_count_rows_segments_and_machines():
    # Each trace layer's counters, applied to a real call as the tracer
    # applies them: (args, kwargs, result).
    counters = {f"{module}.{function}": counts for module, function, counts in _layers()}
    spec = io.StringIO("a 2.0e9 4\nb 3.0e9 2\nc 2.5e9 8\n")
    cluster = parse_cluster_spec(spec)
    assert counters["ingest.parse_cluster_spec"]["lines"]((spec,), {}, cluster) == 3

    args = ("run-1", 4.0e11, cluster, 7)
    traces = generate_trace(*args)
    assert counters["synth.generate_trace"]["samples"](args, {}, traces) == len(traces.samples) > 3

    buffer = io.StringIO()
    write_trace_csv(traces, buffer)
    rows = counters["ingest.write_trace_csv"]["rows"]((traces, buffer), {}, None)
    assert rows == len(traces.samples) == buffer.getvalue().count("\n") - 1

    stream = io.StringIO(buffer.getvalue())
    parsed = parse_trace_csv(stream)
    assert counters["ingest.parse_trace_csv"]["rows"]((stream,), {}, parsed) == rows

    total = total_cpu_cycles(parsed[0], cluster)
    assert counters["core.total_cpu_cycles"]["traces"]((parsed[0], cluster), {}, total) == 3
    assert len(parsed[0]) == len(cluster.machines) == 3


@pytest.mark.parametrize(
    "input_bytes, layers",
    [(2 * 2**30, ["regression.predict", "scaling.scale_prediction"]), (2**30, ["regression.predict"])],
    ids=["other-size", "reference-size"],
)
def test_a_model_prediction_calls_each_traced_layer_once(input_bytes, layers):
    # The tracer swaps the module attributes CostModel.predict calls
    # through, so its calls counters count one per layer per prediction.
    model = CostModel(
        app="sort",
        a=(1.0e12, 2.0e10, 3.0e8, 4.0e10, 5.0e8),
        condition_estimate=1.0,
        training_residual=0.0,
        ref_input_bytes=2**30,
        line=(1.0e3, 1.0e11),
    )
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        model.predict(4, 8, input_bytes)
    finally:
        tracer.uninstall()
    assert sorted(span["name"] for span in tracer.take()) == layers
