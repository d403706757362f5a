"""Persistence: an append-only run store and single-document model files.

Run store
---------
Line-delimited JSON in UTF-8, one run per line, append-only.  append_runs
writes every record as one canonical line: this key order, no spaces,
strings as json.dumps writes them (ASCII, escaped), integers in decimal,
total_cycles by repr, so a load after append returns bit-identical
floats:

    {"schema_version":1,"app":...,"run_id":...,"mappers":...,
     "reducers":...,"input_bytes":...,"total_cycles":...}

Appends take an exclusive advisory lock (fcntl.flock) and write each
batch under it; loads read under a shared lock.  Concurrent appenders
thus interleave whole lines and a reader never sees a torn record.  A
crash mid-append can still leave a last line without its newline; a
load skips it with a TornRecordWarning when it does not parse, and the
next append drops it with the same warning before writing.

Loading takes one columnar pass over a body of canonical lines, each
ending in a newline.  It checks the whole body against the line's
grammar, picks out the requested app's records by its encoded name, and
turns their fields into columns in file order, unescaping only the
strings that hold a backslash.  Every other body goes through the line
loop, which json-decodes and checks one line at a time: it loads what
is valid and raises the typed error of the first bad line, naming it.
That covers other key orders, spacing and spellings of JSON, a torn
tail, and every invalid record.

Model file
----------
One JSON document:

    {"basis": "quad-mr-v1", "app": ..., "a": [a0, a1, a2, a3, a4],
     "condition": ..., "residual": ..., "ref_input_bytes": ...}

plus an optional "scaling" section, an object {"slope": ...,
"intercept": ..., "ref_bytes": ...} added once an input-size line has
been fitted.  load_model checks only the format: the basis tag, the
section being an object, and its ref_bytes being the same integer as
ref_input_bytes.  It hands every value to CostModel as JSON decoded it,
and the model's own rules check them, so a value the model refuses
makes the file a CorruptRecordError naming it.  save_model replaces the
file whole: it writes a temporary file beside it, syncs it and renames
it over the old one.
"""

from __future__ import annotations

import fcntl
import json
import math
import os
import re
import warnings
from dataclasses import replace
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, BinaryIO, Sequence

import numpy as np

from .core import CyclecastError, RunTable, _check_count, _decoded, _real, check_text
from .regression import BASIS_TAG, CostModel

RUNS_SCHEMA_VERSION = 1

# The canonical record line.  encode_basestring_ascii is the string
# encoder json.dumps uses, so the line equals json.dumps of the record,
# keys in this order, with separators=(",", ":"), plus a newline.
_RECORD_LINE = (
    '{"schema_version":%d,"app":%s,"run_id":%s,'
    '"mappers":%d,"reducers":%d,"input_bytes":%d,"total_cycles":%r}\n'
)

# The canonical line's grammar: strings as encode_basestring_ascii spells
# them, so each has one spelling; counts 1 to 2**63 - 1, whose 19 digits
# equal _LIMIT's or fall below them after a common prefix; total_cycles in
# repr's forms, signed only as -0.0, with no exponent above +308.
_PLAIN = r"[ !#-\[\]-~]*+"
_ESCAPE = r'\\(?:["\\bfnrt]|u(?:00(?:0[0-7be-f]|1[0-9a-f]|7f|[89a-f][0-9a-f])|(?!00)[0-9a-f]{4}))'
_TEXT = f'(?!"){_PLAIN}(?:{_ESCAPE}{_PLAIN})*+'  # a string's body, not empty
_LIMIT = str(2**63 - 1)
_COUNT = "|".join(["[1-9][0-9]{0,17}+", _LIMIT] + [
    f"{_LIMIT[:i]}[{int(i == 0)}-{int(d) - 1}][0-9]{{{18 - i}}}"
    for i, d in enumerate(_LIMIT) if d > "0"
])
_CYCLES = (
    r"-0\.0|(?:0|[1-9][0-9]{0,16}+)(?:\.[0-9]++)?+"
    r"|[1-9](?:\.[0-9]++)?+e(?:-[0-9]{2,3}+|\+(?:[12]?[0-9]{2}|30[0-8]))"
)


def _record(app: str, count: str, cycles: str, group: str) -> str:
    """The canonical line but its newline, each field in a group."""
    return (
        rf'\{{"schema_version":1,"app":"{group}{app})","run_id":"{group}{_TEXT})",'
        rf'"mappers":{group}{count}),"reducers":{group}{count}),'
        rf'"input_bytes":{group}{count}),"total_cycles":{group}{cycles})\}}'
    )


_BODY = f"(?:{_record(_TEXT, _COUNT, _CYCLES, '(?:')}\n)*+"  # compiled on first use, not import
_E308 = re.compile(r'"total_cycles":([0-9.]++e\+308)\}')  # the grammar's only overflows


class IoFailureError(CyclecastError):
    """The underlying file could not be read or written."""


class CorruptRecordError(CyclecastError):
    """A stored record does not parse or violates its schema."""


class UnsupportedSchemaError(CyclecastError):
    """A stored record declares a schema_version this code does not speak."""


class TornRecordWarning(UserWarning):
    """The run store's unterminated last line does not parse and was skipped or dropped."""


_COUNT_KEYS = ("mappers", "reducers", "input_bytes")
_RECORD_KEYS = ("schema_version", "app", "run_id", *_COUNT_KEYS, "total_cycles")


def _record_row(obj: Any, line_no: int) -> tuple[str, str, int, int, int, float]:
    """A decoded record's fields, in RunTable column order, once each passes
    core's rule for its kind; the first that fails is a typed error naming
    line_no."""
    if not isinstance(obj, dict):
        raise CorruptRecordError(f"line {line_no}: record is not an object")
    # The version first: a record of another schema may lack this one's keys.
    version = obj.get("schema_version", RUNS_SCHEMA_VERSION)
    if type(version) is not int or version != RUNS_SCHEMA_VERSION:
        raise UnsupportedSchemaError(
            f"line {line_no}: schema_version {version!r} is not supported "
            f"(this code speaks {RUNS_SCHEMA_VERSION})"
        )
    missing = [key for key in _RECORD_KEYS if key not in obj]
    if missing:
        raise CorruptRecordError(f"line {line_no}: missing key {missing[0]!r}")
    try:
        return (
            check_text("app", obj["app"]),
            check_text("run_id", obj["run_id"]),
            *[_check_count(key, obj[key]) for key in _COUNT_KEYS],
            _real("total_cycles", obj["total_cycles"]),
        )
    except (TypeError, ValueError) as exc:
        raise CorruptRecordError(f"line {line_no}: {exc}") from None


def append_runs(path: str | Path, table: RunTable) -> int:
    """Append the table's runs to the store at path, creating it if needed.

    Returns the number of records written.  An empty table leaves the
    filesystem untouched.  The exclusive lock covers the whole batch, so a
    batch from one process is contiguous in the file.
    """
    if not len(table):
        return 0
    rows = zip(
        map(encode_basestring_ascii, table.apps),
        map(encode_basestring_ascii, table.run_ids),
        table.mappers.tolist(),
        table.reducers.tolist(),
        table.input_bytes.tolist(),
        table.total_cycles.tolist(),
    )
    data = "".join(
        [_RECORD_LINE % (RUNS_SCHEMA_VERSION, *row) for row in rows]
    ).encode("ascii")
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
    return len(table)


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


def load_runs(path: str | Path, app: str | None = None) -> RunTable:
    """Load every run from the store, in file order, optionally one app's.

    An unterminated last line that is not valid JSON is the remains of an
    append cut off by a crash: it is skipped with a TornRecordWarning.  An
    invalid line anywhere else is a CorruptRecordError, and so are bytes
    that are not UTF-8, which no append writes.
    """
    try:
        with open(path, "rb") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_SH)
            data = handle.read()
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from None
    text = _decoded(data, lambda line_no, reason: CorruptRecordError(f"line {line_no}: {reason}"))
    del data
    columns = _fast_columns(text, app) or list(zip(*_row_runs(text, path, app))) or [()] * 6
    del text  # the columns hold all the table needs
    apps, run_ids, mappers, reducers, input_bytes, cycles = columns
    return RunTable(
        apps=apps,
        run_ids=run_ids,
        mappers=np.array(mappers, dtype=np.int64),
        reducers=np.array(reducers, dtype=np.int64),
        input_bytes=np.array(input_bytes, dtype=np.int64),
        total_cycles=np.array(cycles, dtype=np.float64),
    )


def _fast_columns(text: str, app: str | None) -> list[Sequence[str]] | None:
    """The columns of app's records as field texts, strings unescaped, if
    the body is canonical lines; else None, for the line loop to read."""
    if not re.fullmatch(_BODY, text) or "+" in text and math.inf in map(float, _E308.findall(text)):
        return None
    if app is None:
        pattern = _TEXT
    else:  # json joins a surrogate pair, so no record's app holds one unjoined
        spelling = encode_basestring_ascii(app)
        pattern = re.escape(spelling[1:-1]) if json.loads(spelling) == app else "(?!)"
    # In a body _BODY matched, a field needs only its ends found.
    picker = _record(pattern, "[0-9]++", "[^}]++", "(")
    columns: list[Sequence[str]] = list(zip(*re.findall(picker, text))) or [()] * 6
    if "\\" in text:
        columns[:2] = [[json.loads(f'"{s}"') if "\\" in s else s for s in c] for c in columns[:2]]
    return columns


def _row_runs(text: str, path: str | Path, app: str | None) -> list[tuple]:
    """Decode and check a store body one line at a time into app's rows.

    Raises the typed error of the first bad line, naming it.  Only bodies
    _fast_columns declines reach here: bad ones, torn ones, and good ones
    in another spelling of JSON.
    """
    # Split at LF only, as _mend_tail counts lines: str.splitlines also
    # breaks at U+0085, U+2028 and U+2029, which JSON strings may hold raw.
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    torn_tail = None if text.endswith("\n") else len(lines)
    rows: list[tuple] = []
    for line_no, line in enumerate(lines, start=1):
        try:
            obj = json.loads(line)
        except ValueError as exc:  # also an integer of over 4300 digits
            if line_no == torn_tail:
                warnings.warn(
                    f"{path}: skipped line {line_no}, an unterminated record "
                    f"cut off mid-append",
                    TornRecordWarning,
                    stacklevel=3,
                )
                break
            raise CorruptRecordError(f"line {line_no}: invalid JSON: {exc}") from None
        row = _record_row(obj, line_no)
        if app is None or row[0] == app:
            rows.append(row)
    return rows


def save_model(path: str | Path, model: CostModel) -> None:
    """Write a model document, replacing any existing file at path.

    The document is written to a temporary file beside path, synced, then
    renamed over path, so a reader or a crash sees the old model or the
    new one, never a part of either.
    """
    doc: dict[str, Any] = {
        "basis": BASIS_TAG,
        "app": model.app,
        "a": list(model.a),
        "condition": model.condition_estimate,
        "residual": model.training_residual,
        "ref_input_bytes": model.ref_input_bytes,
    }
    if model.line is not None:
        slope, intercept = model.line
        doc["scaling"] = {
            "slope": slope, "intercept": intercept, "ref_bytes": model.ref_input_bytes
        }
    target = Path(path)
    temp = target.with_name(f".{os.urandom(8).hex()}.tmp")
    try:
        try:
            with open(temp, "x", encoding="utf-8") as handle:
                handle.write(json.dumps(doc, indent=2) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, target)
        finally:
            temp.unlink(missing_ok=True)  # gone already after the replace
    except OSError as exc:
        raise IoFailureError(f"cannot write {path}: {exc}") from None


def load_model(path: str | Path) -> CostModel:
    """Read a model document back; floats are bit-identical to what was saved.

    A document that does not decode or breaks the format is a
    CorruptRecordError naming path.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailureError(f"cannot read {path}: {exc}") from None
    try:
        return _model_from_bytes(data)
    except CorruptRecordError as exc:
        raise CorruptRecordError(f"{path}: {exc}") from None


def _model_from_bytes(data: bytes) -> CostModel:
    text = _decoded(data, lambda _line_no, reason: CorruptRecordError(reason))
    try:
        doc = json.loads(text)
    # ValueError: also an integer of over 4300 digits; RecursionError: deep nesting.
    except (ValueError, RecursionError) as exc:
        raise CorruptRecordError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CorruptRecordError("not a JSON object")
    basis = doc.get("basis")
    if basis != BASIS_TAG:
        raise CorruptRecordError(f"unknown basis {basis!r}, expected {BASIS_TAG!r}")
    # CostModel checks every field.  A value it refuses, like a broken
    # scaling section, makes the file corrupt.
    fields = [doc.get(key) for key in ("app", "a", "condition", "residual", "ref_input_bytes")]
    try:
        model = CostModel(*fields)
        if "scaling" not in doc:
            return model
        section = doc["scaling"]
        if not isinstance(section, dict):
            raise TypeError("key 'scaling' must be an object")
        ref_bytes = section.get("ref_bytes")
        if type(ref_bytes) is not int or ref_bytes != model.ref_input_bytes:
            raise ValueError(
                f"size line is anchored at {ref_bytes!r} bytes, "
                f"not ref_input_bytes {model.ref_input_bytes}"
            )
        return replace(model, line=(section.get("slope"), section.get("intercept")))
    except (TypeError, ValueError, CyclecastError) as exc:
        raise CorruptRecordError(str(exc)) from None
