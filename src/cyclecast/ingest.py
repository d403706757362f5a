r"""On-disk formats for CPU traces, cluster inventories and holdout lists.

Trace CSV
---------
UTF-8, LF line endings, '.' decimal point.  Header row required, exactly:

    machine_id,offset_s,cpu_seconds

One data row per one-second sample.  machine_id is restricted to
``[A-Za-z0-9_-]+`` so no CSV quoting is ever needed.  offset_s is an
integer in [0, 2**63), cpu_seconds a finite non-negative decimal.  Rows
may arrive in any order and may interleave machines; parsing groups per
machine and sorts by offset.  A repeated (machine_id, offset_s) pair is
an error, not a merge.

Cluster spec
------------
Line oriented, one machine per line:

    machine_id clock_hz cores

Fields are separated by whitespace: any run of the characters
str.split() splits at, other than the LF that ends a line (so a CR
before it is whitespace too).  '#' starts a comment (whole-line or
trailing), blank lines are ignored.  clock_hz is a finite positive
decimal, cores an integer in [1, 2**63).

Holdout list
------------
Lines of 'mappers reducers': two integers in [1, 2**63), separated by
whitespace or a comma.  Comments and blank lines are as in a cluster spec.

Numbers
-------
Every format here, and every number the command line reads, spells
numbers in one ASCII grammar: an integer is ``[0-9]+`` (at most 4300
digits), a decimal ``([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?``.
Nothing else is: no leading '+', space, underscore or non-ASCII digit.
A leading '-' is read only so that a negative value is reported as
negative rather than as a malformed number.  parse_number reads one.

Parsing
-------
The trace and cluster formats each have one grammar, the one above,
written once as a regular expression over the whole body.  A body that
matches is converted in one columnar pass: a trace into one TraceSet
(an int64 offset and a float64 CPU-seconds column, converted in chunks
of lines and grouped by one stable sort on (machine, offset)), a cluster
spec into the columns of one ClusterSpec.  The pass declines a body that
does not match, or whose columns fail a check the grammar cannot make: a
value past int64 or below zero, a number that overflows to infinity, a
repeated key, a cluster with no entries.  A line loop then names the
first bad line of a declined body with its typed error; it builds no
columns.

Encoding
--------
Both parsers take a text stream, or a binary one whose bytes they decode
as UTF-8.  A byte that is not UTF-8 is a MalformedRowError or a
MalformedEntryError naming its line.  read_holdout_list takes a path,
and names the path and the line in each of its errors.

Warnings
--------
Parsing never invents data: a missing second simply contributes no
CPU-seconds.  Two conditions are reported as warnings rather than errors,
because the remaining rows are still internally consistent:

* TRUNCATED_TAIL: the file's last line has no trailing newline, so the
  final row may have been cut off mid-append.
* GAP_EXCEEDS_THRESHOLD: a machine's sample count covers less than
  (1 - gap_threshold) of its offset span, i.e. more than gap_threshold of
  the trace window is missing.
"""

from __future__ import annotations

import enum
import math
import operator
import re
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, NoReturn, Sequence, TextIO

import numpy as np

from .core import ClusterSpec, CyclecastError, TraceSet, _check_count, _real

TRACE_HEADER = "machine_id,offset_s,cpu_seconds"

# The documented grammar, written once.  Every field is followed by a
# character its class excludes (a separator, a line end or the end of the
# text), so the possessive forms accept the same text as plain ones
# without keeping backtracking state across a body.  4300 digits is the
# most that int() converts under Python's default limit.
_MACHINE_ID = r"[A-Za-z0-9_-]++"
_INTEGER = r"-?+[0-9]{1,4300}+"
_DECIMAL = r"-?+(?>[0-9]++(?:\.[0-9]*+)?+|\.[0-9]++)(?:[eE][+-]?[0-9]++)?+"
_MACHINE_ID_RE = re.compile(_MACHINE_ID)
_INTEGER_RE = re.compile(_INTEGER)
_DECIMAL_RE = re.compile(_DECIMAL)
_ROW = f"{_MACHINE_ID},{_INTEGER},{_DECIMAL}"
_BODY = re.compile(f"(?:{_ROW}\n)*+(?:{_ROW})?+")
# _SPACE is the whitespace str.split() splits at, less the line end.
_SPACE = r"[^\S\n]"
_ENTRY = f"{_MACHINE_ID}{_SPACE}++{_DECIMAL}{_SPACE}++{_INTEGER}"
_SPEC_LINE = f"{_SPACE}*+(?:{_ENTRY}{_SPACE}*+)?+(?:#[^\n]*+)?+"
_SPEC = re.compile(f"(?:{_SPEC_LINE}\n)*+{_SPEC_LINE}")
_CHUNK_CHARS = 1 << 18

_Error = Callable[[int, str], CyclecastError]  # (line number, reason) -> error


class MalformedHeaderError(CyclecastError):
    """The trace stream does not start with the exact expected header."""


class MalformedRowError(CyclecastError):
    """A trace data row does not match the format contract."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no


class NegativeCpuSecondsError(CyclecastError):
    """A trace row carries a negative cpu_seconds value."""

    def __init__(self, line_no: int, value: str):
        super().__init__(f"line {line_no}: cpu_seconds must be >= 0, got {value}")
        self.line_no = line_no


class DuplicateSampleError(CyclecastError):
    """Two rows claim the same (machine_id, offset_s) slot."""

    def __init__(self, line_no: int, machine_id: str, offset_s: int):
        super().__init__(
            f"line {line_no}: duplicate sample for machine {machine_id!r} "
            f"at offset {offset_s}"
        )
        self.line_no = line_no


class MalformedEntryError(CyclecastError):
    """A cluster spec line does not match the format contract."""


class DuplicateMachineIdError(CyclecastError):
    """The cluster spec lists the same machine_id twice."""


class NonPositiveClockError(CyclecastError):
    """A cluster spec entry has clock_hz <= 0."""


class WarningKind(enum.Enum):
    TRUNCATED_TAIL = "truncated_tail"
    GAP_EXCEEDS_THRESHOLD = "gap_exceeds_threshold"


@dataclass(frozen=True)
class IngestWarning:
    """A recoverable anomaly noticed while parsing a trace stream."""

    kind: WarningKind
    machine_id: str
    detail: str


def parse_trace_csv(
    stream: TextIO | BinaryIO, gap_threshold: float = 0.05
) -> tuple[TraceSet, list[IngestWarning]]:
    """Parse a trace CSV stream into a trace set plus warnings.

    The set has one segment per machine, sorted by machine_id, with
    samples sorted by offset; a header-only stream yields an empty set.
    gap_threshold is the tolerated missing fraction of each machine's
    offset span before a GAP_EXCEEDS_THRESHOLD warning is attached.
    """
    if not 0 <= _real("gap_threshold", gap_threshold, -math.inf) <= 1:
        raise ValueError(f"gap_threshold must be in [0, 1], got {gap_threshold}")
    text = _decoded(stream.read(), MalformedRowError)
    if not text:
        raise MalformedHeaderError(f"empty stream, expected header {TRACE_HEADER!r}")
    header_end = text.find("\n")
    header = text if header_end < 0 else text[:header_end]
    if header != TRACE_HEADER:
        raise MalformedHeaderError(f"expected header {TRACE_HEADER!r}, got {header!r}")

    traces = TraceSet(*(_columns(text) or _raise_first_bad_row(text)))
    warnings: list[IngestWarning] = []
    if header_end >= 0 and not text.endswith("\n"):
        detail = "last line has no trailing newline; the final row may be truncated"
        warnings.append(IngestWarning(WarningKind.TRUNCATED_TAIL, machine_id="", detail=detail))
    # Each segment holds rows.  A span can reach 2**63, past int64.  Below
    # 2**53 both counts convert exactly, so the share rounds as Python's
    # int division does; a longer span is left to Python.
    ends, counts = traces.ends, np.diff(traces.ends, prepend=0)
    spans = (traces.offsets[ends - 1] - traces.offsets[ends - counts]).astype(np.uint64) + 1
    missing = spans - counts.astype(np.uint64)
    for segment in np.flatnonzero((spans >= 2**53) | (missing / spans > gap_threshold)).tolist():
        lost, span = int(missing[segment]), int(spans[segment])
        if lost / span > gap_threshold:
            detail = f"{lost} of {span} seconds in span missing"
            machine_id = traces.machine_ids[segment]
            warnings.append(IngestWarning(WarningKind.GAP_EXCEEDS_THRESHOLD, machine_id, detail))
    return traces, warnings


def parse_number(text: str, integer: bool = False) -> int | float:
    """text in the Numbers grammar, as an int if integer, else as a finite
    float; any other text is a ValueError."""
    if integer:
        if _INTEGER_RE.fullmatch(text):
            return int(text)
        raise ValueError(f"expected an integer, got {text!r}")
    if _DECIMAL_RE.fullmatch(text) and not math.isinf(value := float(text)):
        return value
    raise ValueError(f"expected a finite number, got {text!r}")


def _count(name: str, text: str, error: _Error, line_no: int, least: int = 1) -> int:
    """text as an int in [least, 2**63) in the integer grammar, else error(line_no, reason)."""
    if not _INTEGER_RE.fullmatch(text):
        raise error(line_no, f"{name} must be an integer, got {text!r}")
    try:
        _check_count(name, value := int(text), least)
    except ValueError as exc:
        raise error(line_no, str(exc)) from None
    return value


def _decoded(data: str | bytes, error: _Error) -> str:
    """data as text: bytes are decoded as UTF-8, a bad one raising error(line, reason)."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise error(line_no, f"not UTF-8 ({exc.reason} at byte {exc.start})") from None


_Columns = tuple[list[str], Sequence[int], Sequence[int], Sequence[float]]


def _columns(text: str) -> _Columns | None:
    """The sorted TraceSet columns of a trace body, or None if it has a
    bad row.

    text is a whole trace stream whose header has been checked.  Rows are
    converted in chunks of about _CHUNK_CHARS characters, so the
    per-field strings never exist for the whole file at once.  The
    grammar vouches for the ids and the spelling of every number; the
    columns then decline an offset past int64, a negative offset or
    cpu_seconds, a cpu_seconds that overflows to infinity, and, once
    sorted, a repeated (machine_id, offset_s) pair.
    """
    start, end = len(TRACE_HEADER) + 1, len(text)
    if start >= end:
        return [], [], [], []
    if _BODY.fullmatch(text, start) is None:
        return None
    if text.endswith("\n"):
        end -= 1
    rows = text.count("\n", start, end) + 1
    codes = np.empty(rows, np.intp)
    offsets = np.empty(rows, np.int64)
    samples = np.empty(rows, np.float64)
    index: dict[str, int] = {}
    row = 0
    while start < end:
        stop = text.find("\n", start + _CHUNK_CHARS, end)
        if stop < 0:
            stop = end
        fields = text[start:stop].replace("\n", ",").split(",")
        start = stop + 1
        ids, n = fields[0::3], len(fields) // 3
        for machine_id in dict.fromkeys(ids):
            index.setdefault(machine_id, len(index))
        chunk = slice(row, row + n)
        codes[chunk] = np.fromiter(map(index.__getitem__, ids), np.intp, n)
        try:
            offsets[chunk] = np.fromiter(map(int, fields[1::3]), np.int64, n)
        except OverflowError:  # an offset past int64
            return None
        samples[chunk] = np.fromiter(map(float, fields[2::3]), np.float64, n)
        row += n
    if offsets.min() < 0 or samples.min() < 0 or samples.max() == math.inf:
        return None

    names = sorted(index)
    rank = np.empty(len(names), np.intp)
    rank[[index[name] for name in names]] = np.arange(len(names))
    codes = rank[codes]
    # One array at a time, so at most one extra column is alive.
    order = np.lexsort((offsets, codes))
    codes = codes[order]
    offsets = offsets[order]
    samples = samples[order]
    if np.any((codes[1:] == codes[:-1]) & (offsets[1:] == offsets[:-1])):
        return None
    return names, np.cumsum(np.bincount(codes)), offsets, samples


def _raise_first_bad_row(text: str) -> NoReturn:
    """Raise the typed error of the first bad row of a trace body that
    _columns declines, naming its line."""
    lines = text.split("\n")
    if text.endswith("\n"):
        lines.pop()
    seen: set[tuple[str, int]] = set()
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 3:
            raise MalformedRowError(line_no, f"expected 3 fields, got {len(fields)}")
        machine_id, offset_text, cpu_text = fields
        if not _MACHINE_ID_RE.fullmatch(machine_id):
            raise MalformedRowError(
                line_no, f"machine_id {machine_id!r} must match [A-Za-z0-9_-]+"
            )
        if not _INTEGER_RE.fullmatch(offset_text):
            raise MalformedRowError(
                line_no, f"offset_s must be an integer, got {offset_text!r}"
            )
        if not _DECIMAL_RE.fullmatch(cpu_text):
            raise MalformedRowError(line_no, f"cpu_seconds must be a number, got {cpu_text!r}")
        offset_s = _count("offset_s", offset_text, MalformedRowError, line_no, least=0)
        cpu_seconds = float(cpu_text)
        if cpu_seconds == math.inf:
            raise MalformedRowError(
                line_no, f"cpu_seconds must be finite, got {cpu_text!r}"
            )
        if cpu_seconds < 0:
            raise NegativeCpuSecondsError(line_no, cpu_text)
        if (machine_id, offset_s) in seen:
            raise DuplicateSampleError(line_no, machine_id, offset_s)
        seen.add((machine_id, offset_s))
    raise AssertionError("a trace body that _columns declines has a bad row")


def write_trace_csv(traces: TraceSet, stream: TextIO) -> None:
    """Write a trace set in canonical order: machines lexicographic, each
    segment's offsets ascending, a machine's segments in set order.

    Floats are written with repr, so a parse round-trip is bit-exact.
    """
    stream.write(TRACE_HEADER + "\n")
    offsets, samples, ends = traces.offsets.tolist(), traces.samples.tolist(), traces.ends.tolist()
    segments = sorted(zip(traces.machine_ids, [0, *ends], ends), key=operator.itemgetter(0))
    for machine_id, lo, hi in segments:
        rows = zip(offsets[lo:hi], samples[lo:hi])
        stream.write("".join([f"{machine_id},{o},{s!r}\n" for o, s in rows]))


def parse_cluster_spec(stream: TextIO | BinaryIO) -> ClusterSpec:
    """Parse a cluster spec stream; entries keep their file order."""
    text = _decoded(stream.read(), _entry_error)
    return _cluster(text) or _raise_first_bad_entry(text)


def _entry_error(line_no: int, reason: str) -> MalformedEntryError:
    return MalformedEntryError(f"line {line_no}: {reason}")


def _cluster(text: str) -> ClusterSpec | None:
    """The cluster of a spec, or None if it has a bad entry or none.

    The grammar vouches for the ids and the spelling of every number.
    The columns go to ClusterSpec whole, which checks clock_hz finite and
    > 0, cores in [1, 2**63) and the ids unique.
    """
    if _SPEC.fullmatch(text) is None:
        return None
    fields = re.sub("#[^\n]*", "", text).split()
    if not fields:
        return None
    rows = len(fields) // 3
    clocks = np.fromiter(map(float, fields[1::3]), np.float64, rows)
    try:  # cores past int64, or columns ClusterSpec refuses
        cores = np.fromiter(map(int, fields[2::3]), np.int64, rows)
        return ClusterSpec(fields[0::3], clocks, cores)
    except (OverflowError, ValueError):
        return None


def _entries(text: str, names: str, error: _Error, commas: bool = False) -> Iterator[tuple]:
    """(line number, line, fields) of each entry line of text.

    '#' starts a comment and blank lines are skipped.  Fields are split at
    whitespace, and at commas too if commas; a line without one field per
    word of names is error(line number, reason).
    """
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            fields = (line.replace(",", " ") if commas else line).split()
            if len(fields) != len(names.split()):
                raise error(line_no, f"expected {names!r}, got {raw!r}")
            yield line_no, raw, fields


def _raise_first_bad_entry(text: str) -> NoReturn:
    """Raise the typed error of the first bad line of a cluster spec that
    _cluster declines, naming it."""
    seen: set[str] = set()
    for line_no, _, parts in _entries(text, "machine_id clock_hz cores", _entry_error):
        machine_id, clock_text, cores_text = parts
        if not _MACHINE_ID_RE.fullmatch(machine_id):
            raise _entry_error(line_no, f"machine_id {machine_id!r} must match [A-Za-z0-9_-]+")
        if machine_id in seen:
            raise DuplicateMachineIdError(
                f"line {line_no}: duplicate machine_id {machine_id!r}"
            )
        if not _DECIMAL_RE.fullmatch(clock_text):
            raise _entry_error(line_no, f"clock_hz must be a number, got {clock_text!r}")
        clock_hz = float(clock_text)
        if not math.isfinite(clock_hz):
            raise _entry_error(line_no, "clock_hz must be finite")
        if clock_hz <= 0:
            raise NonPositiveClockError(
                f"line {line_no}: clock_hz must be > 0, got {clock_text}"
            )
        _count("cores", cores_text, _entry_error, line_no)
        seen.add(machine_id)
    if not seen:
        raise MalformedEntryError("cluster spec has no machine entries")
    raise AssertionError("a cluster spec that _cluster declines has a bad entry")


def read_holdout_list(path: str | Path) -> set[tuple[int, int]]:
    """The (mappers, reducers) pairs of the holdout list at path.  A bad
    line is a CyclecastError naming path and the line."""

    def error(line_no: int, reason: str) -> CyclecastError:
        return CyclecastError(f"{path}:{line_no}: {reason}")

    pairs: set[tuple[int, int]] = set()
    text = _decoded(Path(path).read_bytes(), error)
    entries = _entries(text, "mappers reducers", error, commas=True)
    for line_no, raw, (mappers, reducers) in entries:
        if not (_INTEGER_RE.fullmatch(mappers) and _INTEGER_RE.fullmatch(reducers)):
            raise error(line_no, f"expected integers, got {raw!r}")
        pairs.add((
            _count("mappers", mappers, error, line_no),
            _count("reducers", reducers, error, line_no),
        ))
    return pairs
