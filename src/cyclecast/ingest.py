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

Fields are whitespace separated.  '#' starts a comment (whole-line or
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

Trace parsing
-------------
A trace parses into one TraceSet, with no per-machine object: an int64
offset and a float64 CPU-seconds column, one segment per machine, ids
sorted.  One regular-expression pass checks the whole body against a
narrower grammar: no '-', offsets of at most 18 digits (they fit int64).
The body is then converted in chunks of lines into the two columns and
a machine index; one stable sort on (machine, offset) groups them.  The
row loop runs instead when this fast path cannot vouch for the body: a
row outside the narrower grammar, a cpu_seconds that overflows to
infinity, or a repeated (machine_id, offset_s) pair.  It raises the
typed error of the first bad row, naming its line, or parses the valid
rows the narrower grammar leaves out, such as offset -0.  Either way the
set's constructor checks the columns once, and the gap rule below is one
operation over them.

Cluster spec parsing
--------------------
The cluster parser takes a fast path too.  One regular-expression pass
checks the whole spec against a narrower grammar: every line is either
a whole-line '#' comment or ``machine_id SP clock_hz SP cores`` with
single spaces, and every line ends in LF.  clock_hz has no sign, and
cores is 1 to 18 digits without a leading zero.  One split then yields
the three columns, which ClusterSpec checks whole.  The line loop runs
instead for any other spec (tabs, runs of spaces, blank lines, trailing
comments, CRLF, a missing final newline, cores such as 04), and for
specs the columns fail: a clock_hz that is 0 or overflows to infinity, a
repeated machine_id, or no entries at all.  It raises the typed error of
the first bad line, naming it, or parses the valid specs the narrower
grammar leaves out.

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
import itertools
import math
import operator
import re
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence, TextIO

import numpy as np

from .core import ClusterSpec, CyclecastError, TraceSet, _check_count

TRACE_HEADER = "machine_id,offset_s,cpu_seconds"

_MACHINE_ID = r"[A-Za-z0-9_-]+"
# 4300 digits is the most that int() converts under Python's default limit.
_INTEGER = r"-?[0-9]{1,4300}"
_DECIMAL = r"-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_MACHINE_ID_RE = re.compile(_MACHINE_ID)
_INTEGER_RE = re.compile(_INTEGER)
_DECIMAL_RE = re.compile(_DECIMAL)
_ROW_RE = re.compile(f"({_MACHINE_ID}),({_INTEGER}),({_DECIMAL})")
# The fast paths' fields: no sign, integers of at most 18 digits (they
# fit int64).  Every field is followed by a character its class excludes,
# so the possessive forms accept the same text as plain ones, without
# keeping backtracking state across the body.
_FAST_DECIMAL = r"(?>[0-9]++(?:\.[0-9]*+)?+|\.[0-9]++)(?:[eE][+-]?[0-9]++)?+"
_FAST_ROW = r"[A-Za-z0-9_-]++,[0-9]{1,18}+," + _FAST_DECIMAL
_FAST_BODY = re.compile(f"(?:{_FAST_ROW}\n)*+(?:{_FAST_ROW})?")
_CHUNK_CHARS = 1 << 18
_FAST_SPEC = re.compile(
    r"(?:#[^\n]*+\n|[A-Za-z0-9_-]++ " + _FAST_DECIMAL + r" [1-9][0-9]{0,17}+\n)*+"
)
_COMMENT_LINE = re.compile(r"^#[^\n]*\n", re.MULTILINE)

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
    if not 0 <= gap_threshold <= 1:
        raise ValueError(f"gap_threshold must be in [0, 1], got {gap_threshold}")
    text = _decoded(stream.read(), MalformedRowError)
    if not text:
        raise MalformedHeaderError(f"empty stream, expected header {TRACE_HEADER!r}")
    header_end = text.find("\n")
    header = text if header_end < 0 else text[:header_end]
    if header != TRACE_HEADER:
        raise MalformedHeaderError(f"expected header {TRACE_HEADER!r}, got {header!r}")

    traces = TraceSet(*(_fast_columns(text) or _row_columns(text)))
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


def _fast_columns(text: str) -> _Columns | None:
    """The sorted TraceSet columns of a trace body in the fast grammar,
    or None to fall back.

    text is a whole trace stream whose header has been checked.  Rows are
    converted in chunks of about _CHUNK_CHARS characters, so the
    per-field strings never exist for the whole file at once.  The
    columns pass every check of the set's constructor: ids in the
    grammar, offsets >= 0 and strictly increasing per machine (no sign,
    the sort and the duplicate check), samples finite and >= 0 (no sign,
    the infinity check).
    """
    start, end = len(TRACE_HEADER) + 1, len(text)
    if start >= end:
        return [], [], [], []
    if _FAST_BODY.fullmatch(text, start) is None:
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
        offsets[chunk] = np.fromiter(map(int, fields[1::3]), np.int64, n)
        samples[chunk] = np.fromiter(map(float, fields[2::3]), np.float64, n)
        row += n
    if samples.max() == math.inf:  # a cpu_seconds such as 1e999 overflowed
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


def _row_columns(text: str) -> _Columns:
    """Check and group a trace body one row at a time.

    Raises the typed error of the first bad row, naming its line.  Only
    bodies _fast_columns declines reach here: bad ones, and good ones in
    the documented grammar but not the fast one.
    """
    lines = text.split("\n")
    if text.endswith("\n"):
        lines.pop()
    per_machine: dict[str, dict[int, float]] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        row = _ROW_RE.fullmatch(line)
        if row is None:
            raise _malformed_row(line_no, line)
        machine_id, offset_text, cpu_text = row.groups()
        offset_s = _count("offset_s", offset_text, MalformedRowError, line_no, least=0)
        cpu_seconds = float(cpu_text)
        if cpu_seconds == math.inf:
            raise MalformedRowError(
                line_no, f"cpu_seconds must be finite, got {cpu_text!r}"
            )
        if cpu_seconds < 0:
            raise NegativeCpuSecondsError(line_no, cpu_text)
        bucket = per_machine.setdefault(machine_id, {})
        if offset_s in bucket:
            raise DuplicateSampleError(line_no, machine_id, offset_s)
        bucket[offset_s] = cpu_seconds
    names = sorted(per_machine)
    rows = [sorted(per_machine[name].items()) for name in names]
    offsets, samples = zip(*itertools.chain.from_iterable(rows)) if names else ((), ())
    return names, list(itertools.accumulate(map(len, rows))), offsets, samples


def _malformed_row(line_no: int, line: str) -> MalformedRowError:
    """Name the first field of a row that does not match the trace grammar."""
    parts = line.split(",")
    if len(parts) != 3:
        return MalformedRowError(line_no, f"expected 3 fields, got {len(parts)}")
    machine_id, offset_text, cpu_text = parts
    if not _MACHINE_ID_RE.fullmatch(machine_id):
        return MalformedRowError(
            line_no, f"machine_id {machine_id!r} must match [A-Za-z0-9_-]+"
        )
    if not _INTEGER_RE.fullmatch(offset_text):
        return MalformedRowError(
            line_no, f"offset_s must be an integer, got {offset_text!r}"
        )
    return MalformedRowError(line_no, f"cpu_seconds must be a number, got {cpu_text!r}")


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
    cluster = _fast_cluster(text)
    return _line_cluster(text) if cluster is None else cluster


def _entry_error(line_no: int, reason: str) -> MalformedEntryError:
    return MalformedEntryError(f"line {line_no}: {reason}")


def _fast_cluster(text: str) -> ClusterSpec | None:
    """The cluster of a spec in the fast grammar, or None to fall back.

    The grammar proves the ids and cores in [1, 10**18).  The columns go
    to ClusterSpec whole, which checks clock_hz finite and > 0 and the ids
    unique; a spec it refuses, or one with no entries, falls back.
    """
    if _FAST_SPEC.fullmatch(text) is None:
        return None
    if "#" in text:
        text = _COMMENT_LINE.sub("", text)
    fields = text.split()
    if not fields:
        return None
    rows = len(fields) // 3
    clocks = np.fromiter(map(float, fields[1::3]), np.float64, rows)
    cores = np.fromiter(map(int, fields[2::3]), np.int64, rows)
    try:
        return ClusterSpec(fields[0::3], clocks, cores)
    except ValueError:
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


def _line_cluster(text: str) -> ClusterSpec:
    """Check a cluster spec one line at a time.

    Raises the typed error of the first bad line, naming it.  Only specs
    _fast_cluster declines reach here: bad ones, and good ones in the
    documented grammar but not the fast one.
    """
    ids: list[str] = []
    clocks: list[float] = []
    counts: list[int] = []
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
        seen.add(machine_id)
        ids.append(machine_id)
        clocks.append(clock_hz)
        counts.append(_count("cores", cores_text, _entry_error, line_no))
    if not ids:
        raise MalformedEntryError("cluster spec has no machine entries")
    return ClusterSpec(ids, clocks, counts)


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
