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
against the grammar and converted alone, on every core, by the
protocol of the _forked module.  A child writes its part's rows down a
pipe, which the parser reads straight into the body's columns.  The
sort and the checks on whole columns then run once, so a key repeated
across parts is found as one repeated within a part is.  The sort codes
each machine by the rank of its id in the narrowest unsigned dtype that
holds the ranks, which numpy sorts by radix.  The pass declines a body that
does not match, or whose columns fail a check the grammar cannot make: a
value past int64 or below zero, a number that overflows to infinity, a
repeated key, a cluster with no entries.  A line loop then names the
first bad line of a declined body with its typed error; it builds no
columns.

Encoding
--------
Both parsers take a text stream or a binary one, read as UTF-8.  A byte
that is not UTF-8 is a MalformedRowError or a MalformedEntryError naming
its line, raised before any other error.  The trace parser encodes an
all-ASCII text once and parses its bytes; it decodes a trace only to
name the error of one that the columnar pass declines, which a text
that is not ASCII always is.  The cluster parser decodes the whole spec,
whose whitespace is str.split's and so not only ASCII.
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
import itertools
import math
import operator
import re
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, NoReturn, Sequence, TextIO

import numpy as np

from ._forked import forked, part_count
from .core import ClusterSpec, CyclecastError, TraceSet, _check_count, _decoded, _Error, _real

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
    if not 0 <= _real("gap_threshold", gap_threshold, -math.inf) <= 1:
        raise ValueError(f"gap_threshold must be in [0, 1], got {gap_threshold}")
    data = stream.read()
    if isinstance(data, str) and data.isascii():
        data = data.encode("ascii")
    # The columnar pass reads bytes that start with the exact header line.
    # Any other stream, or one it declines, is decoded (a byte that is not
    # UTF-8 raising first) for the line loop, which names the first error.
    header = TRACE_HEADER.encode("ascii")
    columns = None
    if isinstance(data, bytes) and data[: len(header) + 1] in (header, header + b"\n"):
        columns = _columns(data)
    if columns is None:
        _raise_first_bad_row(_decoded(data, MalformedRowError))

    traces = TraceSet(*columns)
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


_Columns = tuple[list[str], Sequence[int], Sequence[int], Sequence[float]]
# A part's codes, offsets and samples.  A row's code is the row number its
# machine was first seen on in the part.
_Rows = tuple[np.ndarray, np.ndarray, np.ndarray]


def _columns(data: bytes) -> _Columns | None:
    """The sorted TraceSet columns of a trace body, or None if it has a
    bad row.

    data is a whole trace stream, as bytes, whose header has been checked.
    The body is cut into parts (_cuts), each converted into its rows of
    the columns by _convert, here or in a forked child (_send).  The
    grammar vouches for the ids and the spelling of every number; the
    columns then decline an offset past int64, a negative offset or
    cpu_seconds, a cpu_seconds that overflows to infinity, and, once
    sorted, a repeated (machine_id, offset_s) pair, whichever parts its
    rows are in.  Only the distinct machine ids are decoded, as ASCII,
    which sorts them as their bytes sort.  The columns come back
    read-only, so that TraceSet keeps them without a copy.
    """
    start, end = len(TRACE_HEADER) + 1, len(data)
    if start >= end:
        return [], [], [], []
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
            index = take(i, lambda pipe: _received(pipe, view))
            if index is None and (index := _convert(data, lo, hi, first, view)) is None:
                return None
            indexes.append(index)
    # A slice keeps its whole column alive: so that the sort frees each
    # unsorted column as it goes, no view of one may outlive this loop.
    del view
    if offsets.min() < 0 or samples.min() < 0 or samples.max() == math.inf:
        return None

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
    if np.any((codes[1:] == codes[:-1]) & (offsets[1:] == offsets[:-1])):
        return None
    ends = np.cumsum(np.bincount(codes))
    for column in (ends, offsets, samples):
        column.setflags(write=False)
    return [name.decode("ascii") for name in names], ends, offsets, samples


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
) -> dict[bytes, int] | None:
    """Convert the rows of the part data[start:end] into columns, which
    hold exactly its rows, or decline the part.

    The part starts at a line start and ends at the end of the body or
    just after a line end; it must match the body grammar.  Rows are
    converted in chunks of about _CHUNK_CHARS bytes, so the per-field
    bytes objects never exist for the whole part at once.  first is the
    row number of the part's first row in the body.  Returns the code of
    each machine in the part, keyed by the bytes of its id, or None if
    the part does not match or holds an offset past int64.
    """
    if _BODY.fullmatch(data, start, end) is None:
        return None
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
        chunk = slice(row, row + n)
        firsts = map(index.setdefault, fields[0::3], range(first + row, first + row + n))
        codes[chunk] = np.fromiter(firsts, np.intp, n)
        # np.array converts each field with int() or float(), which read
        # ASCII bytes as they read the same text, as parse_number does.
        try:
            offsets[chunk] = np.array(fields[1::3], dtype=np.int64)
        except OverflowError:  # an offset past int64
            return None
        samples[chunk] = np.array(fields[2::3], dtype=np.float64)
        row += n
    return index


def _send(pipe: BinaryIO, data: bytes, start: int, end: int, first: int, stop: int) -> None:
    """Convert a part, rows first to stop, in a child and write the
    result: the machine count and the size of their ids, as two int64;
    the ids, joined by LF; their codes; then the part's rows of the three
    columns, each as its raw bytes.  Raises ValueError, so that the child
    exits 1, if the part declines."""
    columns = _empty(stop - first)
    index = _convert(data, start, end, first, columns)
    if index is None:
        raise ValueError("the part does not convert")
    ids = b"\n".join(index)
    pipe.write(np.array([len(index), len(ids)], np.int64))
    pipe.write(ids)
    for buffer in (np.fromiter(index.values(), np.intp, len(index)), *columns):
        pipe.write(buffer)


def _received(pipe: BinaryIO, columns: _Rows) -> dict[bytes, int] | None:
    """What _send wrote to pipe, its rows read straight into columns: the
    part's machine codes, or None if the result is short."""
    head = np.empty(2, np.int64)
    if pipe.readinto(head) != head.nbytes:
        return None
    machines, size = head.tolist()
    ids = pipe.read(size)
    codes = np.empty(machines, np.intp)
    for buffer in (codes, *columns):
        if pipe.readinto(buffer) != buffer.nbytes:
            return None
    if len(ids) != size:
        return None
    return dict(zip(ids.split(b"\n"), codes.tolist()))


def _raise_first_bad_row(text: str) -> NoReturn:
    """Raise the typed error of a trace stream that _columns declines or
    cannot read: its header's, else that of its first bad row, naming
    its line."""
    if not text:
        raise MalformedHeaderError(f"empty stream, expected header {TRACE_HEADER!r}")
    header_end = text.find("\n")
    header = text if header_end < 0 else text[:header_end]
    if header != TRACE_HEADER:
        raise MalformedHeaderError(f"expected header {TRACE_HEADER!r}, got {header!r}")
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
        try:  # the grammar matched above, so only the range is left
            offset_s = _check_count("offset_s", int(offset_text), least=0)
        except ValueError as exc:
            raise MalformedRowError(line_no, str(exc)) from None
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
    clocks = np.array(fields[1::3], dtype=np.float64)
    try:  # cores past int64, or columns ClusterSpec refuses
        cores = np.array(fields[2::3], dtype=np.int64)
        return ClusterSpec(fields[0::3], clocks, cores)
    except (OverflowError, ValueError):
        return None


def _entries(text: str, names: str, error: _Error, commas: bool = False) -> Iterator[tuple]:
    """(line number, line, fields) of each entry line of text.

    '#' starts a comment and blank lines are skipped.  Fields are split at
    whitespace, or at _PAIR_SEPARATOR if commas; a line without one field
    per word of names is error(line number, reason).
    """
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            fields = _PAIR_SEPARATOR.split(line) if commas else line.split()
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
