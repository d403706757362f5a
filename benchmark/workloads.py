"""Seeded inputs, command sequences and output checks of the three workloads.

Each workload writes its inputs under ``<work>/inputs`` from a seed, gives
the ``cyclecast`` command lines of one pass (all outputs go under
``<work>/outputs``, which is emptied before every pass), and checks a
pass's outputs against values this module computes itself from the
inputs it generated: ``math.fsum`` accounting, its own least squares and
metrics, and its own evaluation of the model files' coefficients.  Only
the sizes vary between the benchmark and its test; every seed gives the
same amount of work.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

GIB = 2**30
CLOCKS_HZ = (2.0e9, 2.4e9, 2.6e9, 3.0e9, 3.4e9)
CORES = (4, 8, 16)
TRACE_HEADER = "machine_id,offset_s,cpu_seconds"

# The paper's 20-node cluster with mixed clock rates and core counts.  It is
# the same for every seed, because core counts set how many samples a trace
# of a given total has.
CLUSTER20 = [
    (f"node-{i + 1:02d}", CLOCKS_HZ[i % len(CLOCKS_HZ)], CORES[i % len(CORES)]) for i in range(20)
]


@dataclass
class OpResult:
    """One ``cli.main`` call: its argv, exit code (or exception text) and output."""

    argv: list[str]
    code: int | str
    stdout: str
    stderr: str


class Failure(NamedTuple):
    op: int
    check: str
    detail: str


def _rel(value: float, expected: float) -> float:
    return abs(value - expected) / abs(expected) if expected else abs(value)


def _read_store(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _read_json(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _surface(a, mappers: float, reducers: float) -> float:
    a0, a1, a2, a3, a4 = a
    return a0 + a1 * mappers + a2 * mappers * mappers + a3 * reducers + a4 * reducers * reducers


def _grid(lo: int, hi: int, step: int) -> tuple[str, tuple[int, ...]]:
    return f"{lo}:{hi}:{step}", tuple(range(lo, hi + 1, step))


def _machine_samples(rng: np.random.Generator, cores: int, n: int) -> tuple[float, np.ndarray]:
    """CPU-seconds budget of one machine and n per-second samples summing to it.

    Samples stay strictly inside (0, cores): a zero-mean jitter around the
    budget's mean rate, shrunk to fit.
    """
    base = cores * rng.uniform(0.25, 0.65)
    jitter = rng.uniform(-1.0, 1.0, size=n)
    jitter -= jitter.mean()
    peak = float(np.max(np.abs(jitter)))
    amplitude = 0.9 * min(cores - base, base) / peak if peak > 0 else 0.0
    return base * n, base + amplitude * jitter


def _cluster_text(machines: list[tuple[str, float, int]]) -> str:
    lines = ["# machine_id clock_hz cores"]
    lines += [f"{machine_id} {clock!r} {cores}" for machine_id, clock, cores in machines]
    return "\n".join(lines) + "\n"


@dataclass
class TraceFile:
    """What one generated trace file must account to, and the run it belongs to."""

    path: Path
    mappers: int
    reducers: int
    input_bytes: int
    total: float  # fsum over machines of fsum(written column) * clock_hz
    budget: float  # fsum over machines of generated CPU-seconds * clock_hz
    run_id: str = ""


def _write_trace(
    path: Path,
    machines: list[tuple[str, float, int]],
    samples: int,
    interleave: bool,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Write one trace CSV; return (accounted total, generated budget) in cycles."""
    columns, products, budgets = [], [], []
    for machine_id, clock, cores in machines:
        budget, values = _machine_samples(rng, cores, samples)
        column = values.tolist()
        products.append(math.fsum(column) * clock)
        budgets.append(budget * clock)
        columns.append([f"{machine_id},{offset},{value!r}" for offset, value in enumerate(column)])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(TRACE_HEADER + "\n")
        if interleave:
            for rows in zip(*columns):
                handle.write("\n".join(rows) + "\n")
        else:
            for rows in columns:
                handle.write("\n".join(rows) + "\n")
    return math.fsum(products), math.fsum(budgets)


class Workload:
    """Inputs, commands and checks of one workload in one work directory."""

    name = ""

    def __init__(self, work_dir: Path, seed: int) -> None:
        self.inputs = Path(work_dir) / "inputs"
        self.outputs = Path(work_dir) / "outputs"
        self.seed = seed % 2**64

    def rng(self, stream: int = 0) -> np.random.Generator:
        tag = int.from_bytes(hashlib.sha256(self.name.encode()).digest()[:4], "big")
        return np.random.default_rng(np.random.SeedSequence([self.seed, tag, stream]))

    def generate(self) -> None:
        shutil.rmtree(self.inputs, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        self._generate()

    def reset(self) -> None:
        shutil.rmtree(self.outputs, ignore_errors=True)
        self.outputs.mkdir(parents=True)

    def _generate(self) -> None:
        raise NotImplementedError

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def check(self, results: list[OpResult]) -> list[Failure]:
        raise NotImplementedError


class _Ingest(Workload):
    """Shared by both ingest workloads: one ``ingest`` per trace file into one store."""

    app = ""

    def commands(self) -> list[list[str]]:
        return [
            [
                "ingest", "--traces", str(trace.path), "--cluster", str(self.cluster),
                "--app", self.app, "--mappers", str(trace.mappers),
                "--reducers", str(trace.reducers), "--input-bytes", str(trace.input_bytes),
                "--out", str(self.outputs / "runs.jsonl"),
            ]
            for trace in self.traces
        ]

    def check(self, results: list[OpResult]) -> list[Failure]:
        failures = []
        records = _read_store(self.outputs / "runs.jsonl")
        if len(records) != len(results):
            failures.append(Failure(len(results) - 1, "store-count",
                                    f"{len(records)} records for {len(results)} ingests"))
        for op, (result, trace) in enumerate(zip(results, self.traces)):
            if result.code != 0:
                failures.append(Failure(op, "exit", f"{result.code}: {result.stderr[-300:]}"))
                continue
            reported = re.search(r"-> (\S+) cycles as run '(\w+)'", result.stderr)
            if op >= len(records) or reported is None:
                failures.append(Failure(op, "store-record", "no record or no reported total"))
                continue
            record = records[op]
            stored = record["total_cycles"]
            if float(reported.group(1)) != stored:
                failures.append(Failure(op, "store-round-trip",
                                        f"reported {reported.group(1)}, stored {stored!r}"))
            if stored != trace.total:
                failures.append(Failure(op, "ingest-total",
                                        f"stored {stored!r}, fsum of columns {trace.total!r}"))
            if _rel(stored, trace.budget) > 1e-9:
                failures.append(Failure(op, "ingest-vs-generated",
                                        f"stored {stored!r}, generated {trace.budget!r}"))
            expected = {
                "app": self.app, "run_id": trace.run_id, "mappers": trace.mappers,
                "reducers": trace.reducers, "input_bytes": trace.input_bytes,
            }
            got = {key: record.get(key) for key in expected}
            if got != expected:
                failures.append(Failure(op, "ingest-record", f"{got} != {expected}"))
        return failures

    def _write_traces(self, machines, runs, samples: int) -> None:
        rng = self.rng(1)
        self.traces = []
        for index, (mappers, reducers, input_bytes) in enumerate(runs):
            order = [machines[i] for i in rng.permutation(len(machines))]
            path = self.inputs / f"trace-{index}.csv"
            total, budget = _write_trace(path, order, samples, index % 2 == 1, rng)
            run_id = hashlib.sha256(path.read_bytes()).hexdigest()[:12]
            self.traces.append(TraceFile(path, mappers, reducers, input_bytes, total, budget, run_id))


class IngestLong(_Ingest):
    """A few TeraSort-scale runs on the 20-node cluster, each trace long per machine.

    Odd-numbered files interleave machines by time; even ones group rows
    by machine.  Trace parsing and per-sample objects do the work.
    """

    name = "ingest-long"
    app = "terasort"
    RUNS = ((16, 8, 256 * GIB), (24, 12, 256 * GIB), (32, 16, 512 * GIB))

    def __init__(self, work_dir: Path, seed: int, samples: int = 10_800) -> None:
        super().__init__(work_dir, seed)
        self.samples = samples

    def _generate(self) -> None:
        self.cluster = self.inputs / "cluster.txt"
        self.cluster.write_text(_cluster_text(CLUSTER20), encoding="utf-8")
        self._write_traces(CLUSTER20, self.RUNS, self.samples)


class IngestWide(_Ingest):
    """Short jobs on a cluster of thousands of machines, a few samples each.

    Every ``ingest`` reads the large cluster spec and looks up every
    machine in it, so the cluster lookup and spec parsing do the work.
    """

    name = "ingest-wide"
    app = "grep"
    RUNS = ((64, 16, 8 * GIB), (96, 24, 12 * GIB), (128, 32, 16 * GIB), (256, 64, 32 * GIB))
    SAMPLES = 2

    def __init__(self, work_dir: Path, seed: int, racks: int = 100) -> None:
        super().__init__(work_dir, seed)
        self.racks = racks

    def _generate(self) -> None:
        rng = self.rng(0)
        n = self.racks * 40
        ids = [f"r{rack:03d}n{node:02d}" for rack in range(self.racks) for node in range(40)]
        clocks = rng.choice(CLOCKS_HZ, size=n).tolist()
        cores = rng.choice(CORES, size=n).tolist()
        machines = [(ids[i], clocks[i], cores[i]) for i in rng.permutation(n)]
        self.cluster = self.inputs / "cluster.txt"
        self.cluster.write_text(_cluster_text(machines), encoding="utf-8")
        self._write_traces(machines, self.RUNS, self.SAMPLES)


@dataclass
class App:
    """Ground truth of one application: a surface at ref_bytes and a size line."""

    name: str
    a: tuple[float, ...]
    ref_bytes: int
    line_offset: float  # intercept / (slope * ref_bytes) of the size line
    emit_traces: bool = False
    truth_files: dict[int, Path] = field(default_factory=dict)
    predict_points: list[tuple[int, int, int]] = field(default_factory=list)

    def ratio(self, input_bytes: int) -> float:
        return (input_bytes / self.ref_bytes + self.line_offset) / (1.0 + self.line_offset)

    def truth(self, mappers: int, reducers: int, input_bytes: int) -> float:
        return _surface(self.a, mappers, reducers) * self.ratio(input_bytes)


# WordCount-, Exim- and TeraSort-like surfaces, positive for every M, R >= 1.
# They are the same for every seed: TeraSort's totals set how many trace samples
# a pass emits.
_APPS = (
    ("wordcount", (4.0e12, -6.0e10, 2.5e9, -3.0e10, 1.5e9), 10 * GIB),
    ("exim", (1.5e12, 2.0e10, 8.0e8, -1.2e10, 9.0e8), 4 * GIB),
    ("terasort", (6.0e12, -8.0e10, 4.0e9, 5.0e10, 1.0e9), 16 * GIB),
)


class Campaign(Workload):
    """Profile three applications, fit, scale, score and tabulate them.

    Stores: ``profile.jsonl`` holds the training grid of every app at its
    reference size, ``sizes.jsonl`` a small grid at several sizes for the
    size line, ``holdout.jsonl`` a grid disjoint from the training grid.
    TeraSort's reference-size runs in ``sizes.jsonl`` also emit per-machine
    traces on the 20-node cluster: 40 files of a few hundred rows, since
    creating many small files makes a pass's kernel time vary.
    """

    name = "campaign"
    NOISE = 0.03
    SIZE_FACTORS = (1, 2, 3, 4)
    PREDICT_FACTORS = (1.5, 2.5, 5.0, 6.0)
    MAPE_LIMIT = 0.08

    def __init__(
        self,
        work_dir: Path,
        seed: int,
        reps: int = 10,
        train: tuple[int, int, int] = (4, 32, 4),
        report: tuple[int, int, int] = (2, 40, 2),
        predicts: int = 8,
    ) -> None:
        super().__init__(work_dir, seed)
        self.reps = reps
        self.train = _grid(*train)
        self.holdout = _grid(train[0] + train[2] // 2, train[1] - train[2] // 2, 2 * train[2])
        self.size_grid = _grid(train[0] + train[2], train[1] - train[2], train[1] - train[0] - 2 * train[2])
        self.report = _grid(*report)
        self.predicts = predicts

    def _generate(self) -> None:
        rng = self.rng(0)
        self.apps = []
        for name, base, ref_bytes in _APPS:
            app = App(
                name=name,
                a=base,
                ref_bytes=ref_bytes,
                line_offset=float(rng.uniform(0.05, 0.3)),
                emit_traces=name == "terasort",
            )
            for factor in self.SIZE_FACTORS:
                size = factor * ref_bytes
                path = self.inputs / f"truth-{name}-x{factor}.json"
                doc = {
                    "basis": "quad-mr-v1", "app": name,
                    "a": [v * app.ratio(size) for v in app.a],
                    "condition": 1.0, "residual": 0.0, "ref_input_bytes": size,
                }
                path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
                app.truth_files[size] = path
            grid = self.train[1]
            app.predict_points = [
                (int(rng.choice(grid)), int(rng.choice(grid)),
                 int(self.PREDICT_FACTORS[i % len(self.PREDICT_FACTORS)] * ref_bytes))
                for i in range(self.predicts)
            ]
            self.apps.append(app)
        self.simulate_seeds = rng.integers(0, 2**63, size=(len(self.apps), 2 + len(self.SIZE_FACTORS)))
        self.machines = {machine_id: (clock, cores) for machine_id, clock, cores in CLUSTER20}
        self.cluster = self.inputs / "cluster.txt"
        self.cluster.write_text(_cluster_text(CLUSTER20), encoding="utf-8")
        self.holdout_list = self.inputs / "holdout.txt"
        pairs = [f"{m} {r}" for m in self.holdout[1] for r in self.holdout[1]]
        self.holdout_list.write_text("# mappers reducers\n" + "\n".join(pairs) + "\n", encoding="utf-8")

    def _simulate(self, app: App, store: str, grid: str, size: int, seed: int) -> list[str]:
        argv = [
            "simulate", "--truth", str(app.truth_files[size]), "--grid", grid,
            "--reps", str(self.reps), "--noise", str(self.NOISE), "--seed", str(seed),
            "--app", app.name, "--input-bytes", str(size), "--out", str(self.outputs / store),
        ]
        if store == "sizes.jsonl" and size == app.ref_bytes and app.emit_traces:
            argv += ["--emit-traces", str(self.outputs / "traces"), "--cluster", str(self.cluster)]
        return argv

    def plan(self) -> list[tuple[str, App, int | None, list[str]]]:
        """(role, app, input size or None, argv) of every operation in a pass."""
        ops = []
        for app, seeds in zip(self.apps, self.simulate_seeds):
            ops.append(("profile", app, app.ref_bytes,
                        self._simulate(app, "profile.jsonl", self.train[0], app.ref_bytes, seeds[0])))
            ops.append(("holdout", app, app.ref_bytes,
                        self._simulate(app, "holdout.jsonl", self.holdout[0], app.ref_bytes, seeds[1])))
            for factor, seed in zip(self.SIZE_FACTORS, seeds[2:]):
                size = factor * app.ref_bytes
                ops.append(("sizes", app, size,
                            self._simulate(app, "sizes.jsonl", self.size_grid[0], size, seed)))
        for app in self.apps:
            model = str(self.outputs / f"model-{app.name}.json")
            ops.append(("fit", app, None, ["fit", "--runs", str(self.outputs / "profile.jsonl"),
                                           "--app", app.name, "--out", model]))
            ops.append(("scale-fit", app, None, ["scale-fit", "--runs", str(self.outputs / "sizes.jsonl"),
                                                 "--app", app.name, "--model", model]))
            ops.append(("evaluate", app, None, [
                "evaluate", "--model", model, "--runs", str(self.outputs / "holdout.jsonl"),
                "--app", app.name, "--holdout-list", str(self.holdout_list)]))
            ops.append(("report", app, None, ["report", "--model", model, "--grid", self.report[0],
                                              "--out", str(self.outputs / f"report-{app.name}")]))
            for mappers, reducers, size in app.predict_points:
                ops.append(("predict", app, size, [
                    "predict", "--model", model, "--mappers", str(mappers),
                    "--reducers", str(reducers), "--input-bytes", str(size)]))
        return ops

    def commands(self) -> list[list[str]]:
        return [argv for _, _, _, argv in self.plan()]

    def check(self, results: list[OpResult]) -> list[Failure]:
        plan = self.plan()
        failures = [
            Failure(op, "exit", f"{result.code}: {result.stderr[-300:]}")
            for op, result in enumerate(results)
            if result.code != 0
        ]
        stores = {
            name: _read_store(self.outputs / f"{name}.jsonl") for name in ("profile", "holdout", "sizes")
        }
        first_op = {}
        for op, (role, app, size, _) in enumerate(plan):
            first_op.setdefault((role, app.name, size), op)
            if role in ("profile", "holdout", "sizes"):
                failures += self._check_simulated(op, app, size, role, stores[role])
        for app in self.apps:
            op = {role: first_op[(role, app.name, None)] for role in ("fit", "scale-fit", "evaluate", "report")}
            doc = _read_json(self.outputs / f"model-{app.name}.json")
            coefficients = doc.get("a") if isinstance(doc, dict) else None
            if not isinstance(coefficients, list) or len(coefficients) != 5:
                failures.append(Failure(op["fit"], "model-file", "missing, unreadable or without 5 coefficients"))
                continue
            failures += self._check_fit(op["fit"], app, doc, stores["profile"])
            failures += self._check_scale_fit(op["scale-fit"], app, doc, stores["sizes"])
            failures += self._check_evaluate(op["evaluate"], app, doc, stores["holdout"], results)
            failures += self._check_report(op["report"], app, doc)
            predict_ops = [i for i, (role, a, _, _) in enumerate(plan) if role == "predict" and a is app]
            failures += self._check_predicts(predict_ops, app, doc, results, op["scale-fit"])
            if app.emit_traces:
                failures += self._check_traces(first_op[("sizes", app.name, app.ref_bytes)],
                                               self._runs(stores["sizes"], app, app.ref_bytes))
        return failures

    def _runs(self, store: list[dict], app: App, size: int | None = None) -> list[dict]:
        return [r for r in store if r["app"] == app.name and (size is None or r["input_bytes"] == size)]

    def _check_simulated(self, op, app, size, role, store) -> list[Failure]:
        grid = {"profile": self.train, "holdout": self.holdout, "sizes": self.size_grid}[role][1]
        runs = self._runs(store, app, size)
        configs = sorted((r["mappers"], r["reducers"]) for r in runs)
        expected = sorted((m, r) for m in grid for r in grid for _ in range(self.reps))
        if configs != expected:
            return [Failure(op, "simulate-runs", f"{len(runs)} runs, configs differ from the grid")]
        worst = max(_rel(r["total_cycles"], app.truth(r["mappers"], r["reducers"], size)) for r in runs)
        if worst > 8 * self.NOISE:
            return [Failure(op, "simulate-values", f"a run is {worst:.3f} off its truth")]
        return []

    def _check_fit(self, op, app, doc, profile) -> list[Failure]:
        means = _config_means(self._runs(profile, app))
        configs = sorted(means)
        design = np.array([[1.0, m, m * m, r, r * r] for m, r in configs], dtype=float)
        scale = np.max(np.abs(design), axis=0)
        solution = np.linalg.lstsq(design / scale, np.array([means[c] for c in configs]), rcond=None)[0]
        own = solution / scale
        failures = []
        if doc.get("ref_input_bytes") != app.ref_bytes or doc.get("app") != app.name:
            failures.append(Failure(op, "fit-model", f"app {doc.get('app')!r}, ref {doc.get('ref_input_bytes')}"))
        if max(_rel(float(got), float(want)) for got, want in zip(doc["a"], own)) > 1e-8:
            failures.append(Failure(op, "fit-coefficients", f"{doc['a']} vs own {own.tolist()}"))
        holdout = self.holdout[1]
        errors = [
            _rel(max(0.0, _surface(doc["a"], m, r)), app.truth(m, r, app.ref_bytes))
            for m in holdout for r in holdout
        ]
        holdout_mape = math.fsum(errors) / len(errors)
        if holdout_mape >= self.MAPE_LIMIT:
            failures.append(Failure(op, "holdout-mape-vs-truth", f"{holdout_mape:.4f}"))
        return failures

    def _check_scale_fit(self, op, app, doc, sizes_store) -> list[Failure]:
        points = []
        for size in (factor * app.ref_bytes for factor in self.SIZE_FACTORS):
            means = _config_means(self._runs(sizes_store, app, size))
            if means:
                points.append((size, math.fsum(means.values()) / len(means)))
        section = doc.get("scaling")
        if not isinstance(section, dict) or section.get("ref_bytes") != app.ref_bytes or len(points) < 2:
            return [Failure(op, "scale-fit-line", f"scaling section {section!r}")]
        sizes = np.array([p[0] for p in points], dtype=float)
        cycles = np.array([p[1] for p in points])
        design = np.column_stack([sizes / sizes.max(), np.ones_like(sizes)])
        (slope, intercept), *_ = np.linalg.lstsq(design, cycles, rcond=None)
        slope /= sizes.max()
        for size in (app.ref_bytes, int(sizes.max())):
            got = section["slope"] * size + section["intercept"]
            if _rel(got, slope * size + intercept) > 1e-8:
                return [Failure(op, "scale-fit-line", f"line at {size} bytes: {got!r} vs own "
                                                      f"{slope * size + intercept!r}")]
        return []

    def _check_evaluate(self, op, app, doc, holdout_store, results) -> list[Failure]:
        try:
            report = json.loads(results[op].stdout.splitlines()[0])
        except (IndexError, ValueError):
            return [Failure(op, "evaluate-json", "no JSON line on stdout")]
        keep = set((m, r) for m in self.holdout[1] for r in self.holdout[1])
        runs = [r for r in self._runs(holdout_store, app) if (r["mappers"], r["reducers"]) in keep]
        actual = [r["total_cycles"] for r in runs]
        predicted = [max(0.0, _surface(doc["a"], r["mappers"], r["reducers"])) for r in runs]
        n = len(actual)
        if n < 2:
            return [Failure(op, "evaluate-json", f"{n} holdout runs")]
        errors = [abs(a - p) / abs(a) for a, p in zip(actual, predicted)]
        own = {
            "mape": math.fsum(errors) / n,
            "pred25": sum(e < 0.25 for e in errors) / n,
            "rmse": math.sqrt(math.fsum((a - p) ** 2 for a, p in zip(actual, predicted)) / n),
        }
        if report.get("n") != n:
            return [Failure(op, "evaluate-json", f"n={report.get('n')} vs own {n}")]
        for key, value in own.items():
            got = report.get(key)
            if not isinstance(got, (int, float)) or _rel(got, value) > 1e-9:
                return [Failure(op, "evaluate-json", f"{key}={got!r} vs own {value!r}")]
        return []

    def _check_report(self, op, app, doc) -> list[Failure]:
        path = self.outputs / f"report-{app.name}" / "surface.tsv"
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError:
            return [Failure(op, "report-rows", f"cannot read {path}")]
        grid = self.report[1]
        expected = [(m, r) for m in grid for r in grid]
        if lines[:1] != ["mappers\treducers\tpredicted_cycles"] or len(lines) != len(expected) + 1:
            return [Failure(op, "report-rows", f"header or row count wrong ({len(lines)} lines)")]
        for line, (m, r) in zip(lines[1:], expected):
            fields = line.split("\t")
            want = max(0.0, _surface(doc["a"], m, r))
            if fields[:2] != [str(m), str(r)] or _rel(float(fields[2]), want) > 1e-12:
                return [Failure(op, "report-rows", f"row {line!r}, expected {m} {r} {want!r}")]
        return []

    def _check_predicts(self, ops, app, doc, results, scale_op) -> list[Failure]:
        section = doc.get("scaling") or {}
        failures, errors = [], []
        for op, (m, r, size) in zip(ops, app.predict_points):
            base = max(0.0, _surface(doc["a"], m, r))
            if section:
                ref = section["ref_bytes"]
                line = section["slope"] * size + section["intercept"]
                base *= line / (section["slope"] * ref + section["intercept"])
            try:
                value = float(results[op].stdout.strip())
            except ValueError:
                failures.append(Failure(op, "predict-value", f"stdout {results[op].stdout!r}"))
                continue
            if _rel(value, base) > 1e-12:
                failures.append(Failure(op, "predict-value", f"{value!r} vs own {base!r}"))
            errors.append(_rel(value, app.truth(m, r, size)))
        if errors and math.fsum(errors) / len(errors) >= self.MAPE_LIMIT:
            failures.append(Failure(scale_op, "predict-mape-vs-truth", f"{math.fsum(errors) / len(errors):.4f}"))
        return failures

    def _check_traces(self, op, emitted: list[dict]) -> list[Failure]:
        runs = {r["run_id"]: r["total_cycles"] for r in emitted}
        trace_dir = self.outputs / "traces"
        files = sorted(p.name for p in trace_dir.glob("*.csv")) if trace_dir.is_dir() else []
        if files != sorted(f"{run_id}.csv" for run_id in runs):
            return [Failure(op, "emitted-traces", f"{len(files)} files for {len(runs)} runs")]
        for run_id, total in runs.items():
            accounted = _account_trace(trace_dir / f"{run_id}.csv", self.machines)
            if accounted is None or _rel(accounted, total) > 1e-9:
                return [Failure(op, "emitted-traces", f"{run_id}: accounts to {accounted!r}, run {total!r}")]
        return []


def _config_means(runs: list[dict]) -> dict[tuple[int, int], float]:
    groups: dict[tuple[int, int], list[float]] = {}
    for run in runs:
        groups.setdefault((run["mappers"], run["reducers"]), []).append(run["total_cycles"])
    return {config: math.fsum(values) / len(values) for config, values in groups.items()}


def _account_trace(path: Path, machines: dict[str, tuple[float, int]]) -> float | None:
    """Total cycles of a trace file by the format's rule, or None if it breaks the format."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[:1] != [TRACE_HEADER]:
        return None
    columns: dict[str, list[float]] = {}
    for line in lines[1:]:
        machine_id, _, value = line.split(",")
        cpu_seconds = float(value)
        if machine_id not in machines or not 0 <= cpu_seconds <= machines[machine_id][1]:
            return None
        columns.setdefault(machine_id, []).append(cpu_seconds)
    return math.fsum(math.fsum(column) * machines[m][0] for m, column in columns.items())


WORKLOADS = {cls.name: cls for cls in (IngestLong, IngestWide, Campaign)}


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Write one workload's inputs to DIR/inputs.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, metavar="DIR")
    args = parser.parse_args()
    WORKLOADS[args.workload](Path(args.out), args.seed).generate()
