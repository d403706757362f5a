r"""On-disk formats for CPU traces, cluster inventories and holdout lists,
and account_trace, which turns one run's trace into its run row.

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
whitespace or by one comma, which whitespace may surround.  Comments and
blank lines are as in a cluster spec.

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
spec into the columns of one ClusterSpec.  The trace pass reads the
stream's bytes as they are, with the grammar compiled as a bytes
pattern; it decodes only the distinct machine ids.  _PART_CHARS and
_CHUNK_CHARS count bytes.

A trace body of at least two _PART_CHARS (1 MiB) is cut at line ends
into parts of at least _PART_CHARS each, and each part is checked
against the grammar and converted alone, on every core, by the protocol
of the _forked module.  A child writes its part's rows, up to its first
bad one, to a file in memory, which the parser reads straight into the
body's columns once the child has exited.  The sort and the checks on
whole columns then run once, so a key repeated across parts is found as
one repeated within a part is.  The sort codes each machine by the rank
of its id in the narrowest unsigned dtype that holds the ranks, which
numpy sorts by radix.  The pass declines a body that does not match, or
whose columns fail a check the grammar cannot make: a value past int64
or below zero, a number that overflows to infinity, a repeated key, a
cluster with no entries.  The pass that declines a body also finds its
first bad line: where the grammar's match ends, or the first row or
entry the checks on the columns find.  Only that line's fields are then
checked one by one, to raise its typed error.

Encoding
--------
Both parsers take a text stream or a binary one, read as UTF-8.  A byte
that is not UTF-8 is a MalformedRowError or a MalformedEntryError naming
its line, raised before any other error.  The trace parser encodes a
text once (a lone surrogate too, which the grammar refuses) and decodes
a trace only to name the error of one the columnar pass declines.  The
cluster parser decodes the whole spec, whose whitespace is str.split's
and so not only ASCII.
read_holdout_list takes a path, and names the path and the line in each
of its errors.

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
import hashlib
import io
import itertools
import math
import operator
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, NoReturn, TextIO

import numpy as np

from ._forked import forked, part_count
from .core import ClusterSpec, CyclecastError, RunTable, TraceSet, total_cpu_cycles
from .core import _check_count, _decoded, _Error, _real, check_text

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
# The grammar admits only ASCII, so the body pattern is compiled over
# bytes: a byte body matches exactly when its UTF-8 decoding would.
_BODY = re.compile(f"(?:{_ROW}\n)*+(?:{_ROW})?+".encode("ascii"))
# _SPACE is the whitespace str.split() splits at, less the line end.  It
# takes in non-ASCII whitespace (U+0085, U+00A0, U+2028, ...), so a
# cluster spec stays text: a bytes pattern would accept other separators.
_SPACE = r"[^\S\n]"
_ENTRY = f"{_MACHINE_ID}{_SPACE}++{_DECIMAL}{_SPACE}++{_INTEGER}"
_SPEC_LINE = f"{_SPACE}*+(?:{_ENTRY}{_SPACE}*+)?+(?:#[^\n]*+)?+"
_SPEC = re.compile(f"(?:{_SPEC_LINE}\n)*+{_SPEC_LINE}")
# A holdout pair's separator: one comma, whitespace around it allowed, or whitespace.
_PAIR_SEPARATOR = re.compile(f"{_SPACE}*+,{_SPACE}*+|{_SPACE}++")
_CHUNK_CHARS = 1 << 16
_PART_CHARS = 1 << 20


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
    _check_gap_threshold(gap_threshold)
    text = stream.read()
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    # The columnar pass reads bytes that start with the exact header line.
    # Any other stream, or one it declines, is decoded (a byte that is not
    # UTF-8 raising first) to check its header or its first bad row.
    header = TRACE_HEADER.encode("ascii")
    traces = _columns(data) if data[: len(header) + 1] in (header, header + b"\n") else 0
    if isinstance(traces, int):
        _raise_bad_row(_decoded(text, MalformedRowError), traces)

    warnings: list[IngestWarning] = []
    if len(data) > len(header) and not data.endswith(b"\n"):
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


def _check_gap_threshold(value) -> None:
    """The rule for gap_threshold: a real in [0, 1]."""
    if not 0 <= _real("gap_threshold", value, -math.inf) <= 1:
        raise ValueError(f"gap_threshold must be in [0, 1], got {value}")


def account_trace(
    data: bytes, cluster: ClusterSpec, app: str, mappers: int, reducers: int, input_bytes: int,
    run_id: str | None = None, gap_threshold: float = 0.05,
) -> tuple[TraceSet, RunTable, list[IngestWarning]]:
    """One run's trace CSV, the bytes data, accounted on cluster: its trace
    set, its one-row RunTable (total_cycles from total_cpu_cycles) and the
    warnings of its parse.  A run_id of None names the run by the first 12
    hex digits of data's SHA-256, hashed on a second thread beside the
    parse and joined before this returns or raises; an error of the parse
    is raised before one of the hash, and a bad argument before either."""
    if not isinstance(cluster, ClusterSpec):
        raise TypeError(f"cluster must be a ClusterSpec, got {type(cluster).__name__}")
    check_text("app", app)
    if run_id is not None:
        check_text("run_id", run_id)
    for name, count in [("mappers", mappers), ("reducers", reducers), ("input_bytes", input_bytes)]:
        _check_count(name, count)
    _check_gap_threshold(gap_threshold)
    digest = None if run_id is not None else _digest(data)
    try:  # a whole BytesIO's one read() returns data itself, so the parse copies nothing
        traces, warnings = parse_trace_csv(io.BytesIO(data), gap_threshold=gap_threshold)
    finally:  # so no thread outlives the call, whatever the parse raised
        outcome = run_id if digest is None else digest()
    if isinstance(outcome, BaseException):
        raise outcome
    run = RunTable(apps=[app], run_ids=[outcome], mappers=[mappers], reducers=[reducers],
                   input_bytes=[input_bytes], total_cycles=[total_cpu_cycles(traces, cluster)])
    return traces, run, warnings


def _digest(data: bytes) -> Callable[[], str | BaseException]:
    """Start hashing data on a second thread; hashlib releases the GIL
    while it hashes more than 2 KiB.  The function returned joins it and
    returns the first 12 hex digits of the SHA-256, or what the hash raised."""
    outcome: list[str | BaseException] = []

    def run() -> None:
        try:
            outcome.append(hashlib.sha256(data).hexdigest()[:12])
        except BaseException as exc:  # handed to the caller by the join
            outcome.append(exc)

    (thread := threading.Thread(target=run, name="cyclecast-run-id")).start()
    return lambda: thread.join() or outcome[0]


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


# A part's codes, offsets and samples.  A row's code is the row number its
# machine was first seen on in the part.
_Rows = tuple[np.ndarray, np.ndarray, np.ndarray]


def _columns(data: bytes) -> TraceSet | int:
    """The TraceSet of a trace body, or the number of its first bad row,
    counted from 0.

    data is a whole trace stream, as bytes, whose header has been checked.
    The body is cut into parts (_cuts), each converted into its rows of
    the columns by _convert, here or in a forked child (_send), up to
    the first row that does not match the grammar or has an offset past
    int64.  TraceSet alone checks the sorted columns, which it keeps,
    read-only, without a copy.  Only if the conversion stopped short or
    TraceSet refuses do the columns find the first negative offset or
    cpu_seconds, infinite cpu_seconds or repeated (machine_id, offset_s)
    pair, whichever parts its rows are in.  Only the distinct machine ids
    are decoded, as ASCII, which sorts them as their bytes sort.
    """
    start, end = len(TRACE_HEADER) + 1, len(data)
    if start >= end:
        return TraceSet((), [], [], [])
    cuts = _cuts(data, start, end)
    octets = np.frombuffer(data, np.uint8)

    def lines(lo: int, hi: int) -> int:
        """The LFs in data[lo:hi], counted in blocks of _CHUNK_CHARS bytes
        so that no mask of a whole part is allocated before the fork."""
        blocks = (octets[i : min(i + _CHUNK_CHARS, hi)] for i in range(lo, hi, _CHUNK_CHARS))
        return sum(np.count_nonzero(block == ord("\n")) for block in blocks)

    row_cuts = [0, *itertools.accumulate(map(lines, cuts, cuts[1:]))]
    row_cuts[-1] += not data.endswith(b"\n")
    rows = row_cuts[-1]
    parts = [(data, *bounds) for bounds in zip(cuts, cuts[1:], row_cuts, row_cuts[1:])]
    indexes = []
    with forked(_send, parts) as take:
        codes, offsets, samples = _empty(rows)  # after the fork: no page shared with a child
        for i, (_, lo, hi, first, stop) in enumerate(parts):
            view = codes[first:stop], offsets[first:stop], samples[first:stop]
            taken = take(i, lambda file: _received(file, view))
            index, converted = taken or _convert(data, lo, hi, first, view)
            indexes.append(index)
            if converted < stop - first:  # a bad row: the rows after it are not needed
                rows = first + converted
                codes, offsets, samples = codes[:rows], offsets[:rows], samples[:rows]
                break
    # A slice keeps its whole column alive: so that the sort frees each
    # unsorted column as it goes, no view of one may outlive this loop.
    del view

    # A machine seen in several parts has a code in each.  The first part
    # that sees it gives its code; a later part's code is an alias of it.
    index, *later = indexes
    aliases: dict[int, int] = {}
    for other in later:
        for name, code in other.items():
            if (first := index.setdefault(name, code)) != code:
                aliases[code] = first
    # rank maps a code, a row number, to the rank of its id, in the
    # narrowest unsigned dtype that holds the ranks: np.lexsort sorts
    # that by radix rather than by comparison.
    names = sorted(index)
    rank = np.empty(rows, np.min_scalar_type(len(names) - 1))
    rank[[index[name] for name in names]] = np.arange(len(names))
    rank[list(aliases)] = rank[list(aliases.values())]
    codes = rank[codes]
    # One array at a time, so at most one extra column is alive.
    order = np.lexsort((offsets, codes))
    codes = codes[order]
    offsets = offsets[order]
    samples = samples[order]
    if rows == row_cuts[-1]:
        ends = np.cumsum(np.bincount(codes))
        for column in (ends, offsets, samples):
            column.setflags(write=False)
        try:
            return TraceSet([name.decode("ascii") for name in names], ends, offsets, samples)
        except ValueError:
            pass
    # order maps a sorted row to its row in the body.  The sort is stable:
    # of two rows with one key, the later is second.
    repeats = order[1:][(codes[1:] == codes[:-1]) & (offsets[1:] == offsets[:-1])]
    values = order[(offsets < 0) | (samples < 0) | (samples == math.inf)]
    return int(min(repeats.min(initial=rows), values.min(initial=rows)))


def _cuts(data: bytes, start: int, end: int) -> list[int]:
    """The bounds of the parts of the body data[start:end]: start, each
    cut just after a line end, and end.  There are part_count parts, each
    but the last of at least _PART_CHARS bytes."""
    parts = part_count(end - start, _PART_CHARS)
    size = (end - start) // parts
    cuts = [start]
    while len(cuts) < parts and (cut := data.find(b"\n", cuts[-1] + size - 1, end - 1) + 1):
        cuts.append(cut)
    return [*cuts, end]


def _empty(rows: int) -> _Rows:
    """New codes, offsets and samples columns of rows rows."""
    return np.empty(rows, np.intp), np.empty(rows, np.int64), np.empty(rows, np.float64)


def _convert(
    data: bytes, start: int, end: int, first: int, columns: _Rows
) -> tuple[dict[bytes, int], int]:
    """Convert the rows of the part data[start:end] into columns, which
    have room for all its rows, up to its first bad one.

    The part starts at a line start and ends at the end of the body or
    just after a line end.  Its rows are converted up to the first that
    does not match the grammar or has an offset past int64, in chunks of
    about _CHUNK_CHARS bytes, so the per-field bytes objects never exist
    for the whole part at once.  first is the row number of the part's
    first row in the body.  Returns the code of each machine in the rows
    converted, keyed by the bytes of its id, and how many rows those are.
    """
    matched = _BODY.match(data, start, end).end()
    if matched < end:  # convert the rows before the line the match ends in
        end = data.rfind(b"\n", start, matched) + 1 or start
    if data.endswith(b"\n", start, end):
        end -= 1
    codes, offsets, samples = columns
    index: dict[bytes, int] = {}
    row = 0
    while start < end:
        stop = data.find(b"\n", start + _CHUNK_CHARS, end)
        if stop < 0:
            stop = end
        fields = data[start:stop].replace(b"\n", b",").split(b",")
        start = stop + 1
        n = len(fields) // 3
        # np.array converts each field with int() or float(), which read
        # ASCII bytes as they read the same text, as parse_number does.
        try:
            offsets[row : row + n] = np.array(fields[1::3], dtype=np.int64)
        except OverflowError:  # the rows end before the first offset past int64
            n = next(i for i, text in enumerate(fields[1::3]) if not -2**63 <= int(text) < 2**63)
            del fields[3 * n :]
            offsets[row : row + n] = np.array(fields[1::3], dtype=np.int64)
            start = end
        chunk = slice(row, row + n)
        firsts = map(index.setdefault, fields[0::3], range(first + row, first + row + n))
        codes[chunk] = np.fromiter(firsts, np.intp, n)
        samples[chunk] = np.array(fields[2::3], dtype=np.float64)
        row += n
    return index, row


def _send(file: BinaryIO, data: bytes, start: int, end: int, first: int, stop: int) -> None:
    """Convert a part, rows first to stop, in a child and write the
    result: the machine count, the size of their ids and the count of
    rows converted, as three int64; the ids, joined by LF; their codes;
    then the converted rows of the three columns, each as its raw bytes."""
    columns = _empty(stop - first)
    index, converted = _convert(data, start, end, first, columns)
    ids = b"\n".join(index)
    file.write(np.array([len(index), len(ids), converted], np.int64))
    file.write(ids)
    file.write(np.fromiter(index.values(), np.intp, len(index)))
    for column in columns:
        file.write(column[:converted])


def _received(file: BinaryIO, columns: _Rows) -> tuple[dict[bytes, int], int]:
    """What _send wrote to file, whole, its rows read straight into
    columns: the part's machine codes and rows converted."""
    machines, size, converted = np.frombuffer(file.read(3 * 8), np.int64).tolist()
    ids = file.read(size)
    codes = np.empty(machines, np.intp)
    for buffer in (codes, *(column[:converted] for column in columns)):
        file.readinto(buffer)
    return dict(zip(ids.split(b"\n"), codes.tolist())), converted


def _raise_bad_row(text: str, row: int) -> NoReturn:
    """Raise the typed error, naming its line, of a trace stream's bad
    header, or else of its first bad row, row (from 0) of its body.  A row
    with several faults is reported by the first check it fails; a row
    that passes them all repeats the key of an earlier row."""
    if not text:
        raise MalformedHeaderError(f"empty stream, expected header {TRACE_HEADER!r}")
    header_end = text.find("\n")
    header = text if header_end < 0 else text[:header_end]
    if header != TRACE_HEADER:
        raise MalformedHeaderError(f"expected header {TRACE_HEADER!r}, got {header!r}")
    ends = text.count("\n")  # split the row's line off the nearer end of the text
    line = (text.split("\n", row + 2)[row + 1] if 2 * row < ends
            else text.rsplit("\n", ends - row)[1])
    line_no = row + 2
    fields = line.split(",")
    if len(fields) != 3:
        raise MalformedRowError(line_no, f"expected 3 fields, got {len(fields)}")
    machine_id, offset_text, cpu_text = fields
    if not _MACHINE_ID_RE.fullmatch(machine_id):
        raise MalformedRowError(line_no, f"machine_id {machine_id!r} must match [A-Za-z0-9_-]+")
    # An offset's spelling is checked before cpu_seconds', its range after.
    if _INTEGER_RE.fullmatch(offset_text) and not _DECIMAL_RE.fullmatch(cpu_text):
        raise MalformedRowError(line_no, f"cpu_seconds must be a number, got {cpu_text!r}")
    offset_s = _count("offset_s", offset_text, MalformedRowError, line_no, least=0)
    cpu_seconds = float(cpu_text)
    if cpu_seconds == math.inf:
        raise MalformedRowError(line_no, f"cpu_seconds must be finite, got {cpu_text!r}")
    if cpu_seconds < 0:
        raise NegativeCpuSecondsError(line_no, cpu_text)
    raise DuplicateSampleError(line_no, machine_id, offset_s)


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
    cluster = _cluster(text)
    return cluster if isinstance(cluster, ClusterSpec) else _raise_bad_entry(text, *cluster)


def _entry_error(line_no: int, reason: str) -> MalformedEntryError:
    return MalformedEntryError(f"line {line_no}: {reason}")


def _cluster(text: str) -> ClusterSpec | tuple[int, list[str]]:
    """The cluster of a spec, or else the number of its first bad line,
    from 1 (0 if it has no entries), and the ids of the entries before it.

    The grammar vouches for the ids and the spelling of every number.
    The columns go to ClusterSpec whole, which checks clock_hz finite and
    > 0, cores in [1, 2**63) and the ids unique.  Only if the match stops
    short or ClusterSpec refuses are the entries before the line the
    match ends in put to those checks as columns: the first bad line is
    the first entry that fails one, or else the line the match ends in.
    """
    matched = _SPEC.match(text).end()
    body = text if matched == len(text) else text[: text.rfind("\n", 0, matched) + 1]
    body = re.sub("#[^\n]*", "", body)
    fields = body.split()
    ids, clocks = fields[0::3], np.array(fields[1::3], dtype=np.float64)
    if fields and matched == len(text):
        try:  # cores past int64, or columns ClusterSpec refuses
            return ClusterSpec(ids, clocks, np.array(fields[2::3], dtype=np.int64))
        except (OverflowError, ValueError):
            pass
    cores = np.array(fields[2::3], dtype=np.float64)
    # float() rounds a count just below 2**63 up to it: int() tells those apart.
    edge = np.flatnonzero(cores == 2**63).tolist()
    cores[edge] = [1 if int(fields[3 * i + 2]) < 2**63 else 2**63 for i in edge]
    # An entry is bad if ClusterSpec refuses a value of it, or if its id is an earlier entry's.
    firsts = np.fromiter(map({}.setdefault, ids, itertools.count()), np.intp, len(ids))
    bad = (clocks <= 0) | (clocks == math.inf) | (cores < 1) | (cores >= 2**63)
    entry = int(np.flatnonzero(bad | (firsts != np.arange(len(ids)))).min(initial=len(ids)))
    lines = [line_no for line_no, line in enumerate(body.split("\n"), 1) if line.strip()]
    lines.append(body.count("\n") + 1 if matched < len(text) else 0)
    return lines[entry], ids[:entry]


def _raise_bad_entry(text: str, line_no: int, earlier_ids: list[str]) -> NoReturn:
    """Raise the typed error of line line_no of a cluster spec, which
    _cluster found to be its first bad line, after the entries with ids
    earlier_ids; a line_no of 0 means the spec has no entries.  A line
    with several faults is reported by the first check it fails."""
    if not line_no:
        raise MalformedEntryError("cluster spec has no machine entries")
    line = text.split("\n", line_no)[line_no - 1]
    fields = line.split("#", 1)[0].split()
    if len(fields) != 3:
        raise _entry_error(line_no, f"expected 'machine_id clock_hz cores', got {line!r}")
    machine_id, clock_text, cores_text = fields
    if not _MACHINE_ID_RE.fullmatch(machine_id):
        raise _entry_error(line_no, f"machine_id {machine_id!r} must match [A-Za-z0-9_-]+")
    if machine_id in earlier_ids:
        raise DuplicateMachineIdError(f"line {line_no}: duplicate machine_id {machine_id!r}")
    if not _DECIMAL_RE.fullmatch(clock_text):
        raise _entry_error(line_no, f"clock_hz must be a number, got {clock_text!r}")
    clock_hz = float(clock_text)
    if not math.isfinite(clock_hz):
        raise _entry_error(line_no, "clock_hz must be finite")
    if clock_hz <= 0:
        raise NonPositiveClockError(f"line {line_no}: clock_hz must be > 0, got {clock_text}")
    _count("cores", cores_text, _entry_error, line_no)
    raise AssertionError(f"line {line_no} of a declined cluster spec passes every check")


def read_holdout_list(path: str | Path) -> set[tuple[int, int]]:
    """The (mappers, reducers) pairs of the holdout list at path.  A bad
    line is a CyclecastError naming path and the line."""

    def error(line_no: int, reason: str) -> CyclecastError:
        return CyclecastError(f"{path}:{line_no}: {reason}")

    pairs: set[tuple[int, int]] = set()
    text = _decoded(Path(path).read_bytes(), error)
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = _PAIR_SEPARATOR.split(line)
        if len(fields) != 2:
            raise error(line_no, f"expected 'mappers reducers', got {raw!r}")
        mappers, reducers = fields
        if not (_INTEGER_RE.fullmatch(mappers) and _INTEGER_RE.fullmatch(reducers)):
            raise error(line_no, f"expected integers, got {raw!r}")
        pairs.add((
            _count("mappers", mappers, error, line_no),
            _count("reducers", reducers, error, line_no),
        ))
    return pairs
