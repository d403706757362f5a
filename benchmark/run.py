#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the cyclecast command line.

Runs one workload in this process, driving the program through
``cyclecast.cli.main(argv)`` as a shell script would, checks every
output, and prints one JSON object as its last line of stdout:

    python3 benchmark/run.py --workload ingest-long --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics (wall_s, setup_s,
peak_rss_mb); ``--trace 1`` reports the per-layer metrics from separate
traced passes.  Times are given at a reference host speed (probe.py):
the seconds a region took here, scaled by how much slower than on the
reference host a fixed slice of Python ran while the region ran.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One thread for any BLAS/OpenMP pool, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from probe import REF_SLICE_S, SpeedProbe, Timing
from tracing import Tracer, is_time, per_layer_metric_names, summarize
from workloads import WORKLOADS, OpResult

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

IMPORT_REPEATS = 5
GENERATE_REPEATS = 3
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

# Run in a fresh interpreter: times the package's import with its own probe.
_IMPORT_PROBE = (
    "import sys\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "from probe import SpeedProbe\n"
    "with SpeedProbe().measure() as timing:\n"
    "    import cyclecast.cli\n"
    "print(timing.raw_s, timing.scale)\n"
)


def import_seconds() -> Timing:
    """Import time of the package in a fresh interpreter, interpreter start excluded."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(BENCH_DIR), str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    timing = Timing()
    timing.raw_s, timing.scale = (float(v) for v in done.stdout.split())
    return timing


def run_commands(commands: list[list[str]], main, tracer=None) -> list[OpResult]:
    """Call main(argv) for each command line, capturing its exit code and output."""
    results = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            span = tracer.open(f"cli.{argv[0]}") if tracer else None
            try:
                code = main(argv)
            except Exception as exc:  # an escaped exception fails the operation
                code = f"{type(exc).__name__}: {exc}"
            if tracer:
                tracer.close(span)
        results.append(OpResult(argv, code, out.getvalue(), err.getvalue()))
    return results


class Harness:
    """Runs passes of one workload and tallies operations and check failures."""

    def __init__(self, workload, main) -> None:
        self.workload = workload
        self.main = main
        self.probe = SpeedProbe()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.slices: list[float] = []

    def generate(self) -> Timing:
        gc.collect()
        with self.probe.measure() as timing:
            self.workload.generate()
        return timing

    def run_pass(self, tracer=None) -> Timing:
        """One checked pass from empty outputs."""
        self.workload.reset()
        commands = self.workload.commands()
        gc.collect()
        with self.probe.measure() as timing:
            results = run_commands(commands, self.main, tracer)
        self.slices.append(timing.slice_s)
        failures = self.workload.check(results)
        self.attempted += len(results)
        self.failed += len({f.op for f in failures} | {i for i, r in enumerate(results) if r.code != 0})
        self.failures += [f for f in failures if f.check != "exit"]
        for failure in failures[:5]:
            print(f"check failed: op {failure.op} {failure.check}: {failure.detail}", file=sys.stderr)
        return timing


def _median_s(timings: list[Timing]) -> float:
    return statistics.median(t.at_reference_s for t in timings)


def untraced_run(harness: Harness, seconds: float) -> tuple[dict, dict]:
    imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
    generations = [harness.generate() for _ in range(GENERATE_REPEATS)]
    harness.run_pass()  # warm-up, checked but not timed
    passes = []
    deadline = perf_counter() + seconds
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        passes.append(harness.run_pass())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_s": {"value": _median_s(passes), "unit": "s"},
        "setup_s": {"value": _median_s(imports) + _median_s(generations), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    raw = {
        "wall_s": statistics.median(t.raw_s for t in passes),
        "import_s": statistics.median(t.raw_s for t in imports),
        "generate_s": statistics.median(t.raw_s for t in generations),
        "slice_s": statistics.median(harness.slices),
        "reference_slice_s": REF_SLICE_S,
        "passes": len(passes),
    }
    return metrics, raw


def traced_run(harness: Harness, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    tracer = Tracer()
    harness.generate()
    harness.run_pass()  # warm-up
    untraced, traced, totals, shares = [], [], [], []
    deadline = perf_counter() + seconds
    with open(spans_path, "w", encoding="utf-8") as spans_file:
        while len(traced) < MIN_TRACED_PASSES or perf_counter() < deadline:
            untraced.append(harness.run_pass())
            harness.probe.on_sample = tracer.charge
            tracer.install()
            try:
                timing = harness.run_pass(tracer)
            finally:
                tracer.uninstall()
                harness.probe.on_sample = None
            spans = tracer.take()
            traced.append(timing)
            totals.append({
                name: value * timing.scale if is_time(name) else value
                for name, value in summarize(spans).items()
            })
            inside = sum(s["end"] - s["start"] for s in spans if s["parent"] < 0)
            shares.append((inside - sum(s.get("probe", 0.0) for s in spans)) / timing.raw_s)
            for number, span in enumerate(spans):
                record = {k: v for k, v in span.items() if k != "path"}
                spans_file.write(json.dumps({"pass": len(traced), "span": number, **record}) + "\n")
    metrics = {}
    for name in per_layer_metric_names():
        value = statistics.median(t[name] for t in totals)
        unit = "s" if is_time(name) else "ratio" if name.endswith(("_ratio", "_share")) else "count"
        metrics[name] = {"value": value, "unit": unit}
    if totals[-1]["ingest.parse_trace_csv.rows"]:
        tracer.measure_parse_alloc = True
        tracer.install()
        try:
            harness.run_pass(tracer)
        finally:
            tracer.uninstall()
        tracer.take()
    metrics["ingest.parse_trace_csv.peak_alloc_mb"] = {"value": tracer.parse_peak_bytes / 2**20, "unit": "MB"}
    metrics["trace.pass_s"] = {"value": _median_s(traced), "unit": "s"}
    metrics["trace.untraced_pass_s"] = {"value": _median_s(untraced), "unit": "s"}
    metrics["trace.overhead_s"] = {"value": _median_s(traced) - _median_s(untraced), "unit": "s"}
    metrics["trace.accounted_share"] = {"value": statistics.median(shares), "unit": "ratio"}
    raw = {"slice_s": statistics.median(harness.slices), "reference_slice_s": REF_SLICE_S,
           "traced_passes": len(traced), "spans": str(spans_path.relative_to(ROOT))}
    return metrics, raw


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "cyclecast" / "__init__.py").is_file():
        print(f"error: no cyclecast sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from cyclecast import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported cyclecast from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work_dir = BENCH_DIR / "work" / f"{args.workload}-{os.getpid()}"
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    harness = Harness(WORKLOADS[args.workload](work_dir, args.seed), cli.main)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, raw = traced_run(harness, args.seconds, out_dir / f"spans-{tag}.jsonl")
        else:
            metrics, raw = untraced_run(harness, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()
    result = {
        "correct": not harness.failures,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": metrics,
    }
    (out_dir / f"result-{tag}.json").write_text(
        json.dumps({**result, "raw": raw}, indent=2) + "\n", encoding="utf-8")
    print("raw: " + " ".join(f"{k}={v}" for k, v in raw.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
