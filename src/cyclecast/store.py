"""Persistence: an append-only run store and single-document model files.

Run store
---------
Line-delimited JSON, one run per line, append-only.  Key order is fixed:

    {"schema_version": 1, "app": ..., "run_id": ..., "mappers": ...,
     "reducers": ..., "input_bytes": ..., "total_cycles": ...}

Appends take an exclusive advisory lock (fcntl.flock) and write each
record as a single line, so concurrent appenders interleave whole lines
and a reader never sees a torn record.  total_cycles is serialized with
full repr precision; a load after append returns bit-identical floats.
A crash mid-append can still leave a last line without its newline; a
load skips it with a TornRecordWarning when it does not parse, and the
next append drops it with the same warning before writing.

Model file
----------
One JSON document:

    {"basis": "quad-mr-v1", "app": ..., "a": [a0, a1, a2, a3, a4],
     "condition": ..., "residual": ..., "ref_input_bytes": ...}

plus an optional "scaling" section {"slope": ..., "intercept": ...,
"ref_bytes": ...} added once an input-size line has been fitted.  The
scaling section's ref_bytes must equal the integer ref_input_bytes.
"""

from __future__ import annotations

import fcntl
import json
import os
import warnings
from pathlib import Path
from typing import Any, BinaryIO

from .core import CyclecastError, JobConfig, JobRun
from .regression import BASIS_TAG, N_COEFFS, ModelCoefficients
from .scaling import CostModel, NonPositiveReferenceError, ScalingModel

RUNS_SCHEMA_VERSION = 1


class IoFailureError(CyclecastError):
    """The underlying file could not be read or written."""


class CorruptRecordError(CyclecastError):
    """A stored record does not parse or violates its schema."""


class UnsupportedSchemaError(CyclecastError):
    """A stored record declares a schema_version this code does not speak."""


class TornRecordWarning(UserWarning):
    """The run store's unterminated last line does not parse and was skipped or dropped."""


def run_to_record(run: JobRun) -> dict[str, Any]:
    """Flatten a run to its wire dict, keys in canonical order."""
    return {
        "schema_version": RUNS_SCHEMA_VERSION,
        "app": run.app,
        "run_id": run.run_id,
        "mappers": run.config.mappers,
        "reducers": run.config.reducers,
        "input_bytes": run.config.input_bytes,
        "total_cycles": run.total_cycles,
    }


def _require(obj: dict[str, Any], key: str, kinds: tuple[type, ...], line_no: int) -> Any:
    if key not in obj:
        raise CorruptRecordError(f"line {line_no}: missing key {key!r}")
    value = obj[key]
    # bool is an int subclass; never acceptable where a number is expected.
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise CorruptRecordError(
            f"line {line_no}: key {key!r} has type {type(value).__name__}"
        )
    return value


def record_to_run(obj: Any, line_no: int) -> JobRun:
    if not isinstance(obj, dict):
        raise CorruptRecordError(f"line {line_no}: record is not an object")
    version = _require(obj, "schema_version", (int,), line_no)
    if version != RUNS_SCHEMA_VERSION:
        raise UnsupportedSchemaError(
            f"line {line_no}: schema_version {version} is not supported "
            f"(this code speaks {RUNS_SCHEMA_VERSION})"
        )
    try:
        return JobRun(
            app=_require(obj, "app", (str,), line_no),
            run_id=_require(obj, "run_id", (str,), line_no),
            config=JobConfig(
                mappers=_require(obj, "mappers", (int,), line_no),
                reducers=_require(obj, "reducers", (int,), line_no),
                input_bytes=_require(obj, "input_bytes", (int,), line_no),
            ),
            total_cycles=float(_require(obj, "total_cycles", (int, float), line_no)),
        )
    except ValueError as exc:
        raise CorruptRecordError(f"line {line_no}: {exc}") from None


def append_runs(path: str | Path, runs: list[JobRun]) -> int:
    """Append runs to the store at path, creating it if needed.

    Returns the number of records written.  An empty run list leaves the
    filesystem untouched.  The exclusive lock covers the whole batch, so a
    batch from one process is contiguous in the file.
    """
    if not runs:
        return 0
    lines = [json.dumps(run_to_record(r), separators=(",", ":")) for r in runs]
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    try:
        with open(path, "ab+") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                _mend_tail(handle, path)
                handle.write(data)
                handle.flush()
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
    except OSError as exc:
        raise IoFailureError(f"cannot append to {path}: {exc}") from None
    return len(runs)


def _mend_tail(handle: BinaryIO, path: str | Path) -> None:
    """Make an unterminated last line safe to append after.

    A complete record only lacks its newline, which is added.  A line
    that does not parse is the remains of an append cut off by a crash,
    the one load_runs skips; it is dropped with a TornRecordWarning, so
    the next record does not glue onto it into a corrupt line.
    """
    size = handle.seek(0, os.SEEK_END)
    if size == 0:
        return
    handle.seek(size - 1)
    if handle.read(1) == b"\n":
        return
    handle.seek(0)
    text = handle.read()
    start = text.rfind(b"\n") + 1
    try:
        json.loads(text[start:])
    except ValueError:
        handle.truncate(start)
        line_no = text.count(b"\n") + 1
        warnings.warn(
            f"{path}: dropped line {line_no}, an unterminated record cut off mid-append",
            TornRecordWarning,
            stacklevel=3,
        )
    else:
        handle.write(b"\n")


def load_runs(path: str | Path, app: str | None = None) -> list[JobRun]:
    """Load every run from the store, in file order, optionally one app's.

    An unterminated last line that is not valid JSON is the remains of an
    append cut off by a crash: it is skipped with a TornRecordWarning.  An
    invalid line anywhere else is a CorruptRecordError.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from None
    lines = text.splitlines()
    torn_tail = None if text.endswith("\n") else len(lines)
    runs: list[JobRun] = []
    for line_no, line in enumerate(lines, start=1):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            if line_no == torn_tail:
                warnings.warn(
                    f"{path}: skipped line {line_no}, an unterminated record "
                    f"cut off mid-append",
                    TornRecordWarning,
                    stacklevel=2,
                )
                break
            raise CorruptRecordError(f"line {line_no}: invalid JSON: {exc}") from None
        run = record_to_run(obj, line_no)
        if app is None or run.app == app:
            runs.append(run)
    return runs


def save_model(path: str | Path, model: CostModel) -> None:
    """Write a model document, replacing any existing file at path."""
    surface, scaling = model.surface, model.scaling
    doc: dict[str, Any] = {
        "basis": surface.basis_tag,
        "app": surface.app,
        "a": list(surface.a),
        "condition": surface.condition_estimate,
        "residual": surface.training_residual,
        "ref_input_bytes": surface.ref_input_bytes,
    }
    if scaling is not None:
        doc["scaling"] = {
            "slope": scaling.slope,
            "intercept": scaling.intercept,
            "ref_bytes": scaling.ref_bytes,
        }
    try:
        Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoFailureError(f"cannot write {path}: {exc}") from None


def load_model(path: str | Path) -> CostModel:
    """Read a model document back; floats are bit-identical to what was saved."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptRecordError(f"model file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CorruptRecordError("model file is not a JSON object")
    basis = doc.get("basis")
    if basis != BASIS_TAG:
        raise CorruptRecordError(f"unknown basis {basis!r}, expected {BASIS_TAG!r}")
    coeffs = doc.get("a")
    if (
        not isinstance(coeffs, list)
        or len(coeffs) != N_COEFFS
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in coeffs)
    ):
        raise CorruptRecordError(f"key 'a' must be a list of {N_COEFFS} numbers")
    app = doc.get("app")
    if not isinstance(app, str):
        raise CorruptRecordError("key 'app' must be a string")
    condition = doc.get("condition")
    residual = doc.get("residual")
    for name, value in (("condition", condition), ("residual", residual)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise CorruptRecordError(f"key {name!r} must be a number")
    ref_input_bytes = doc.get("ref_input_bytes")
    if isinstance(ref_input_bytes, bool) or not isinstance(ref_input_bytes, int):
        raise CorruptRecordError("key 'ref_input_bytes' must be an integer")
    try:
        surface = ModelCoefficients(
            a=tuple(float(v) for v in coeffs),
            condition_estimate=float(condition),
            training_residual=float(residual),
            app=app,
            ref_input_bytes=ref_input_bytes,
        )
    except ValueError as exc:
        raise CorruptRecordError(str(exc)) from None

    section = doc.get("scaling")
    if section is None:
        return CostModel(surface)
    if not isinstance(section, dict):
        raise CorruptRecordError("key 'scaling' must be an object")
    for key in ("slope", "intercept"):
        value = section.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise CorruptRecordError(f"scaling key {key!r} must be a number")
    ref = section.get("ref_bytes")
    if isinstance(ref, bool) or not isinstance(ref, int):
        raise CorruptRecordError("scaling key 'ref_bytes' must be an integer")
    try:
        scaling = ScalingModel(
            slope=float(section["slope"]),
            intercept=float(section["intercept"]),
            ref_bytes=int(section["ref_bytes"]),
        )
        return CostModel(surface, scaling)
    except (ValueError, NonPositiveReferenceError) as exc:
        raise CorruptRecordError(f"invalid scaling section: {exc}") from None
