"""Spans around the library calls the cyclecast CLI makes, recorded from outside.

The tracer replaces each traced function, in every cyclecast module that
binds its name, with a wrapper that records one span (name, start, end,
parent) and, for some layers, a work count taken from the call's
arguments or result.  Nothing inside the package changes; uninstalling
puts the original functions back.

A span's self time is its duration minus the time its direct child spans
cover and minus the time the benchmark's speed probe ran inside it.  The
benchmark opens the root span of each CLI call itself, so the self times
of all spans add up to the time spent inside ``cli.main``.
"""

from __future__ import annotations

import importlib
import os
import sys
import tracemalloc
from time import perf_counter


def _samples(traces) -> int:
    return sum(len(trace.samples) for trace in traces)


def _records_in_store(args, kwargs, result) -> tuple[int, str, int]:
    path = args[0] if args else kwargs["path"]
    return len(result), path, os.stat(path).st_size


# (module, function, counters): each counter maps (args, kwargs, result) to a
# number that is summed over the function's calls in one pass.
LAYERS = (
    ("ingest", "parse_trace_csv", {"rows": lambda a, k, r: _samples(r[0])}),
    ("ingest", "parse_cluster_spec", {"lines": lambda a, k, r: len(r.machines)}),
    ("ingest", "write_trace_csv", {"rows": lambda a, k, r: _samples(a[0])}),
    ("core", "total_cpu_cycles", {"traces": lambda a, k, r: len(a[0])}),
    ("core", "aggregate_repetitions", {}),
    ("store", "load_runs", {}),
    ("store", "append_runs", {"records": lambda a, k, r: r}),
    ("store", "save_model", {}),
    ("store", "load_model", {}),
    ("synth", "generate_profiles", {"runs": lambda a, k, r: len(r)}),
    ("synth", "generate_trace", {"samples": lambda a, k, r: _samples(r)}),
    ("regression", "build_design_matrix", {}),
    ("regression", "fit_least_squares", {}),
    ("regression", "predict", {"calls": lambda a, k, r: 1}),
    ("scaling", "fit_scaling", {}),
    ("scaling", "scale_prediction", {"calls": lambda a, k, r: 1}),
    ("metrics", "evaluate", {}),
)

CLI_COMMANDS = ("ingest", "simulate", "fit", "scale-fit", "evaluate", "report", "predict")

PARSE_LAYER = "ingest.parse_trace_csv"


def is_time(metric: str) -> bool:
    return metric.endswith((".s", "_s"))


def per_layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in BENCHMARK.json order."""
    names = []
    for module, function, counters in LAYERS:
        names.append(f"{module}.{function}.s")
        names.extend(f"{module}.{function}.{counter}" for counter in counters)
        if module == "store" and function == "load_runs":
            names += ["store.load_runs.records_read", "store.load_runs.useful_ratio"]
        if f"{module}.{function}" == PARSE_LAYER:
            names.append(f"{PARSE_LAYER}.peak_alloc_mb")
    names += [f"cli.{command}.self_s" for command in CLI_COMMANDS]
    names += ["trace.pass_s", "trace.untraced_pass_s", "trace.overhead_s", "trace.accounted_share"]
    return names


class Tracer:
    """Records spans while installed; keeps them in memory until read."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.measure_parse_alloc = False
        self.parse_peak_bytes = 0

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append({"name": name, "start": perf_counter(), "end": None, "parent": parent})
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index]["end"] = perf_counter()
        self._stack.pop()

    def charge(self, seconds: float) -> None:
        """Book time the benchmark itself spent inside the innermost open span."""
        if self._stack:
            span = self.spans[self._stack[-1]]
            span["probe"] = span.get("probe", 0.0) + seconds

    def _wrap(self, name: str, function, counters: dict):
        tracer = self

        def wrapper(*args, **kwargs):
            alloc = tracer.measure_parse_alloc and name == PARSE_LAYER
            if alloc:
                tracemalloc.start()
            index = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(index)
                if alloc:
                    tracer.parse_peak_bytes = max(
                        tracer.parse_peak_bytes, tracemalloc.get_traced_memory()[1]
                    )
                    tracemalloc.stop()
            span = tracer.spans[index]
            for counter, count in counters.items():
                span[counter] = count(args, kwargs, result)
            if name == "store.load_runs":
                span["returned"], span["path"], span["size"] = _records_in_store(
                    args, kwargs, result
                )
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a cyclecast module binds it."""
        modules = [
            module
            for key, module in sys.modules.items()
            if module is not None and (key == "cyclecast" or key.startswith("cyclecast."))
        ]
        for module_name, function_name, counters in LAYERS:
            original = getattr(importlib.import_module(f"cyclecast.{module_name}"), function_name)
            wrapper = self._wrap(f"{module_name}.{function_name}", original, counters)
            for module in modules:
                if getattr(module, function_name, None) is original:
                    self._originals.append((module, function_name, original))
                    setattr(module, function_name, wrapper)

    def uninstall(self) -> None:
        for module, function_name, original in reversed(self._originals):
            setattr(module, function_name, original)
        self._originals.clear()

    def take(self) -> list[dict]:
        spans, self.spans = self.spans, []
        return spans


def _lines_up_to(path: str, size: int) -> int:
    with open(path, "rb") as handle:
        return handle.read(size).count(b"\n")


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-pass totals: self seconds and counts per layer, self seconds per CLI command."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, float] = {name: 0.0 for name in per_layer_metric_names()}
    returned = 0
    for span, children in zip(spans, child_time):
        self_s = span["end"] - span["start"] - children - span.get("probe", 0.0)
        if span["name"].startswith("cli."):
            totals[f"{span['name']}.self_s"] += self_s
            continue
        totals[f"{span['name']}.s"] += self_s
        for key, value in span.items():
            metric = f"{span['name']}.{key}"
            if key not in ("name", "start", "end", "parent") and metric in totals:
                totals[metric] += value
        if span["name"] == "store.load_runs":
            totals["store.load_runs.records_read"] += _lines_up_to(span["path"], span["size"])
            returned += span["returned"]
    read = totals["store.load_runs.records_read"]
    totals["store.load_runs.useful_ratio"] = returned / read if read else 0.0
    return totals
