"""Command-line pipeline over the library: ingest traces, fit and apply
cost surfaces, evaluate them, and generate synthetic workloads.

Conventions
-----------
* exit 0: success.  exit 1: usage error (bad flags, malformed or
  out-of-range flag values).  exit 2: data or validation error
  (malformed files, rank deficiency, unknown machines, ...).
* Flag values and CYCLECAST_SEED spell numbers in the Numbers grammar of
  the ingest module (README "File formats"): no sign but '-', no space,
  underscore or non-ASCII digit.  Counts are integers in [1, 2**63), the
  seed in [0, 2**64), --noise a decimal in [0, inf) and --gap-threshold
  one in [0, 1].  --app and --run-id are non-empty.
* Diagnostics and progress go to stderr.  Data goes to stdout or to files
  named by flags; no subcommand touches a file its flags do not name.
* Library warnings go to stderr as "warning: <message>", at most one
  line per warning category per command.
* simulate's --seed falls back to the CYCLECAST_SEED environment
  variable (checked like the flag), then to 0, so batch jobs can pin
  determinism externally.
* No thread or process outlives a command.  ingest hashes the trace
  file for its default run id on a second thread while it parses, and
  joins that thread before it returns or raises.  The trace parse and
  simulate --emit-traces fork child processes and reap them all before
  they return or raise (the _forked module).
* The argument parser is built once, when this module is imported, so
  main can be called repeatedly in one process at the cost of a parse.
  CYCLECAST_SEED is read on each call, not when the parser is built.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import sys
import threading
import warnings
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .core import CyclecastError, RunTable, aggregate_repetitions, check_text, total_cpu_cycles
from .ingest import parse_cluster_spec, parse_number, parse_trace_csv, read_holdout_list
from .regression import fit_least_squares
from .store import append_runs, load_model, load_runs, save_model
from .synth import DEFAULT_INPUT_BYTES, SynthSpec, generate_profiles, write_traces

SEED_ENV_VAR = "CYCLECAST_SEED"
_GRID_LIMIT = 1024  # values per --grid axis; report writes its square


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message: str):
        raise _UsageError(message)


def _flag(rule: Callable[[str], Any]) -> Callable[[str], Any]:
    """A flag type: rule's value for a flag's text, a ValueError from it a usage error."""

    def convert(text: str) -> Any:
        try:
            return rule(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _number(integer: bool, lo: float, hi: float) -> Callable[[str], float]:
    """A flag type: a value in ingest's Numbers grammar within [lo, hi]."""

    def convert(text: str) -> float:
        value = parse_number(text, integer)
        if not lo <= value <= hi:
            raise ValueError(f"expected a value in [{lo}, {hi}], got {text}")
        return value

    return _flag(convert)


_COUNT = _number(True, 1, 2**63 - 1)  # the run store's int64 columns
_SEED = _number(True, 0, 2**64 - 1)
_SIGMA = _number(False, 0, math.inf)  # a decimal is finite
_SHARE = _number(False, 0, 1)
_APP = _flag(lambda text: check_text("app", text))  # core's rule for every text
_RUN_ID = _flag(lambda text: check_text("run_id", text))


def _grid(text: str) -> tuple[int, ...]:
    """Parse 'lo:hi:step' into the inclusive range (lo, lo+step, ..., <=hi)."""
    try:  # a ValueError too when there are not three parts to unpack
        lo, hi, step = (parse_number(part, integer=True) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers lo:hi:step, got {text!r}") from None
    if lo < 1 or step < 1 or hi < lo:
        raise argparse.ArgumentTypeError(
            f"need 1 <= lo <= hi and step >= 1, got {text!r}"
        )
    if hi >= 2**63:  # _COUNT's bound
        raise argparse.ArgumentTypeError(f"expected hi below 2**63, got {text!r}")
    values = range(lo, hi + 1, step)
    if len(values) > _GRID_LIMIT:
        raise argparse.ArgumentTypeError(
            f"expected at most {_GRID_LIMIT} values per axis, got {len(values)} from {text!r}"
        )
    return tuple(values)


def _fmt_opt(value: float | None, spec: str) -> str:
    return "n/a" if value is None else format(value, spec)


class _Digest(threading.Thread):
    """The default run id of some bytes, the first 12 hex digits of their
    SHA-256, computed on a second thread that starts at once.

    hashlib releases the GIL while it hashes more than 2 KiB, so the hash
    runs beside whatever the caller does next.  result() joins the thread
    and returns the whole digest's prefix, or raises what the hash raised.
    """

    def __init__(self, data: bytes) -> None:
        super().__init__(name="cyclecast-run-id")
        self._data = data
        self._outcome: str | BaseException | None = None
        self.start()

    def run(self) -> None:
        try:
            self._outcome = hashlib.sha256(self._data).hexdigest()[:12]
        except BaseException as exc:  # handed to the caller by result()
            self._outcome = exc
        finally:
            self._data = b""

    def result(self) -> str:
        self.join()
        if isinstance(self._outcome, BaseException):
            raise self._outcome
        assert self._outcome is not None, "a joined _Digest has an outcome"
        return self._outcome


def _cmd_ingest(args: argparse.Namespace) -> int:
    data = Path(args.traces).read_bytes()
    digest = None if args.run_id is not None else _Digest(data)
    try:  # a whole BytesIO's one read() returns data itself, so the parse copies nothing
        traces, warnings_found = parse_trace_csv(io.BytesIO(data), gap_threshold=args.gap_threshold)
    finally:  # so no thread outlives the command, whatever the parse raised
        if digest is not None:
            digest.join()
    del data
    run_id = args.run_id if digest is None else digest.result()
    for warning in warnings_found:
        scope = f" machine={warning.machine_id}" if warning.machine_id else ""
        print(f"warning: {warning.kind.value}{scope}: {warning.detail}", file=sys.stderr)
    with open(args.cluster, "rb") as handle:
        cluster = parse_cluster_spec(handle)
    cycles = total_cpu_cycles(traces, cluster)
    run = RunTable(
        apps=[args.app],
        run_ids=[run_id],
        mappers=[args.mappers],
        reducers=[args.reducers],
        input_bytes=[args.input_bytes],
        total_cycles=[cycles],
    )
    append_runs(args.out, run)
    print(
        f"ingested {len(traces)} machine trace(s) -> {cycles!r} cycles "
        f"as run {run_id!r} in {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    runs = load_runs(args.runs, app=args.app)
    profiles = aggregate_repetitions(runs)
    model = fit_least_squares(profiles)
    save_model(args.out, model)
    print(
        f"fitted {args.app!r} over {len(profiles)} profiles "
        f"({len(runs)} runs): "
        f"condition={model.condition_estimate:.3e} "
        f"residual={model.training_residual:.6e} -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    value = load_model(args.model).predict(args.mappers, args.reducers, args.input_bytes)
    print(repr(value))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    runs = load_runs(args.runs, app=args.app)
    configs = None if args.holdout_list is None else read_holdout_list(args.holdout_list)
    report = model.score(runs, configs)
    print(json.dumps(report.to_json_dict()))
    print(
        f"n={report.n} MAPE={report.mape:.2%} PRED(25)={report.pred25:.2%} "
        f"RMSE={report.rmse:.6e} RMSE/mean={_fmt_opt(report.rmse_norm, '.2%')} "
        f"r2_paper={_fmt_opt(report.r2_paper, '.4f')} "
        f"r2_standard={_fmt_opt(report.r2_standard, '.4f')}",
        file=sys.stderr,
    )
    return 0


def _cmd_scale_fit(args: argparse.Namespace) -> int:
    profiles = aggregate_repetitions(load_runs(args.runs, app=args.app))
    model = load_model(args.model).with_size_line(profiles)
    save_model(args.model, model)
    slope, intercept = model.line
    print(
        f"fitted size line over {len(set(profiles.input_bytes.tolist()))} sizes: "
        f"slope={slope!r} cycles/byte intercept={intercept!r} "
        f"ref_bytes={model.ref_input_bytes} -> {args.model}",
        file=sys.stderr,
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = SynthSpec(
        truth=load_model(args.truth),
        grid_mappers=args.grid,
        grid_reducers=args.grid,
        repetitions=args.reps,
        noise_rel_sigma=args.noise,
        seed=args.seed,
        app=args.app,
        input_bytes=args.input_bytes,
    )
    if args.emit_traces is not None:
        with open(args.cluster, "rb") as handle:
            cluster = parse_cluster_spec(handle)
    runs = generate_profiles(spec)
    # Every trace file before the append, so a bad spec or a failed trace
    # leaves the store as it was.
    if args.emit_traces is not None:
        write_traces(runs, cluster, args.seed, args.emit_traces)
        print(f"emitted {len(runs)} trace file(s) to {Path(args.emit_traces)}", file=sys.stderr)
    append_runs(args.out, runs)
    print(
        f"simulated {len(runs)} runs of {spec.app!r} "
        f"(grid {len(spec.grid_mappers)}x{len(spec.grid_reducers)}, "
        f"{spec.repetitions} rep(s), sigma={spec.noise_rel_sigma}, seed={args.seed}) "
        f"-> {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    grid = np.array(args.grid)
    mappers, reducers = np.repeat(grid, len(grid)), np.tile(grid, len(grid))
    values = model.predict(mappers, reducers)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    surface_path = out_dir / "surface.tsv"
    with open(surface_path, "w", encoding="utf-8", newline="") as handle:
        handle.write("mappers\treducers\tpredicted_cycles\n")
        handle.writelines(
            f"{m}\t{r}\t{value!r}\n"
            for m, r, value in zip(mappers.tolist(), reducers.tolist(), values.tolist())
        )
    print(
        f"wrote {len(args.grid) * len(args.grid)} predictions to {surface_path}",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cyclecast",
        description="Cycle-count profiles and quadratic cost-surface prediction.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("ingest", help="account a trace CSV into the run store")
    p.add_argument("--traces", required=True, help="trace CSV file")
    p.add_argument("--cluster", required=True, help="cluster spec file")
    p.add_argument("--app", required=True, type=_APP, help="application name")
    p.add_argument("--mappers", required=True, type=_COUNT)
    p.add_argument("--reducers", required=True, type=_COUNT)
    p.add_argument("--input-bytes", required=True, type=_COUNT)
    p.add_argument("--out", required=True, help="run store to append to")
    p.add_argument("--run-id", type=_RUN_ID, help="default: digest of the trace file")
    p.add_argument(
        "--gap-threshold",
        type=_SHARE,
        default=0.05,
        help="tolerated missing fraction of a trace span before warning (default 0.05)",
    )
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("fit", help="fit the quadratic surface for one app")
    p.add_argument("--runs", required=True, help="run store to read")
    p.add_argument("--app", required=True, type=_APP)
    p.add_argument("--out", required=True, help="model file to write")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="predict cycles at one configuration")
    p.add_argument("--model", required=True)
    p.add_argument("--mappers", required=True, type=_COUNT)
    p.add_argument("--reducers", required=True, type=_COUNT)
    p.add_argument(
        "--input-bytes",
        type=_COUNT,
        default=None,
        help="target size; scales via the model's size line when present",
    )
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score a model against stored runs")
    p.add_argument("--model", required=True)
    p.add_argument("--runs", required=True)
    p.add_argument("--app", required=True, type=_APP)
    p.add_argument(
        "--holdout-list",
        default=None,
        help="file of 'mappers reducers' lines; evaluate only those configs",
    )
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("scale-fit", help="fit the input-size line into a model file")
    p.add_argument("--runs", required=True)
    p.add_argument("--app", required=True, type=_APP)
    p.add_argument("--model", required=True, help="model file to update in place")
    p.set_defaults(func=_cmd_scale_fit)

    p = sub.add_parser("simulate", help="generate synthetic runs from a truth model")
    p.add_argument("--truth", required=True, help="model file used as ground truth")
    p.add_argument("--grid", required=True, type=_grid, help="lo:hi:step, e.g. 4:32:4")
    p.add_argument("--reps", type=_COUNT, default=10)
    p.add_argument("--noise", type=_SIGMA, default=0.02,
                   help="relative noise sigma (default 0.02)")
    # None: main reads the environment on each call.
    p.add_argument("--seed", type=_SEED, default=None,
                   help=f"default: ${SEED_ENV_VAR}, then 0")
    p.add_argument("--out", required=True, help="run store to append to")
    p.add_argument("--app", type=_APP, default="synthetic")
    p.add_argument("--input-bytes", type=_COUNT, default=DEFAULT_INPUT_BYTES)
    p.add_argument("--emit-traces", default=None, metavar="DIR",
                   help="also fabricate one trace CSV per run into DIR")
    p.add_argument("--cluster", default=None,
                   help="cluster spec for --emit-traces")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="tabulate a model's surface over a grid")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", required=True, type=_grid, help="lo:hi:step")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=_cmd_report)

    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if getattr(args, "func", None) is None:
            _PARSER.error("a subcommand is required")
        if args.command == "simulate":
            if args.seed is None:
                try:
                    args.seed = _SEED(os.environ.get(SEED_ENV_VAR, "0"))
                except argparse.ArgumentTypeError as exc:
                    _PARSER.error(f"argument --seed: {exc}")
            if args.emit_traces is not None and args.cluster is None:
                _PARSER.error("--emit-traces requires --cluster")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    shown: set[type[Warning]] = set()

    def show_warning(message, category, *_args, **_kwargs) -> None:
        if category not in shown:
            shown.add(category)
            print(f"warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show_warning
        try:
            return args.func(args)
        except CyclecastError as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
