import hashlib
import io
import math
import operator
import os
import re
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
import oracle
from conftest import split
from oracle import segments, trace_set

from cyclecast import cli, ingest
from cyclecast.core import ClusterSpec, CyclecastError, TraceSet, total_cpu_cycles
from cyclecast.store import append_runs, load_runs
from cyclecast.ingest import (
    DuplicateMachineIdError,
    DuplicateSampleError,
    MalformedEntryError,
    MalformedHeaderError,
    MalformedRowError,
    NegativeCpuSecondsError,
    NonPositiveClockError,
    IngestWarning,
    WarningKind,
    parse_cluster_spec,
    parse_number,
    parse_trace_csv,
    read_holdout_list,
    write_trace_csv,
)

GOOD_CSV = (
    "machine_id,offset_s,cpu_seconds\n"
    "node-b,0,1.0\n"
    "node-a,1,1.5\n"
    "node-a,0,0.5\n"
)


def test_parse_groups_and_sorts():
    traces, warnings = parse_trace_csv(io.StringIO(GOOD_CSV))
    assert warnings == []
    assert [t.machine_id for t in traces] == ["node-a", "node-b"]
    assert segments(traces)[0][1] == [0, 1]
    assert segments(traces)[0][2] == [0.5, 1.5]
    assert segments(traces)[1] == ("node-b", [0], [1.0])


def test_header_only_stream():
    traces, warnings = parse_trace_csv(io.StringIO("machine_id,offset_s,cpu_seconds\n"))
    assert (segments(traces), warnings) == ([], [])


def test_empty_stream_is_a_header_error():
    with pytest.raises(MalformedHeaderError):
        parse_trace_csv(io.StringIO(""))


def test_wrong_header():
    with pytest.raises(MalformedHeaderError):
        parse_trace_csv(io.StringIO("machine,offset,cpu\nm,0,1\n"))


@pytest.mark.parametrize(
    "row",
    [
        "node-a,0",
        "node-a,0,1.0,extra",
        "bad id,0,1.0",
        "nöde,0,1.0",
        "node-a,x,1.0",
        "node-a,-1,1.0",
        "node-a,0,abc",
        "node-a,0,nan",
        "node-a,0,inf",
        "node-a,0,1e999",
        "node-a,1.5,1.0",
        "node-a,1_0,1.0",
        "node-a,+5,1.0",
        "node-a, 5,1.0",
        "node-a,\u0665,1.0",
        "node-a,0,1_0.5",
        pytest.param("node-a," + "1" * 4301 + ",1.0", id="node-a,<4301 digits>,1.0"),
        # A str with a lone surrogate has no UTF-8 encoding.
        pytest.param("node-\ud800,0,1.0", id="node-<lone surrogate>,0,1.0"),
    ],
)
def test_malformed_rows(row):
    text = f"machine_id,offset_s,cpu_seconds\n{row}\n"
    with pytest.raises(MalformedRowError) as exc_info:
        parse_trace_csv(io.StringIO(text))
    assert exc_info.value.line_no == 2


def test_negative_cpu_seconds_row():
    text = "machine_id,offset_s,cpu_seconds\nnode-a,0,-0.5\n"
    with pytest.raises(NegativeCpuSecondsError):
        parse_trace_csv(io.StringIO(text))


def test_duplicate_sample():
    text = "machine_id,offset_s,cpu_seconds\nnode-a,3,0.5\nnode-a,3,0.6\n"
    with pytest.raises(DuplicateSampleError):
        parse_trace_csv(io.StringIO(text))


def test_truncated_tail_warning():
    text = "machine_id,offset_s,cpu_seconds\nnode-a,0,0.5\nnode-a,1,0.5"
    traces, warnings = parse_trace_csv(io.StringIO(text))
    assert len(traces) == 1
    assert [w.kind for w in warnings] == [WarningKind.TRUNCATED_TAIL]


def test_gap_warning_above_threshold():
    # Offsets 0 and 19: 18 of 20 seconds missing, way over the default 5%.
    text = "machine_id,offset_s,cpu_seconds\nnode-a,0,0.5\nnode-a,19,0.5\n"
    traces, warnings = parse_trace_csv(io.StringIO(text))
    assert [w.kind for w in warnings] == [WarningKind.GAP_EXCEEDS_THRESHOLD]
    assert warnings[0].machine_id == "node-a"


def test_gap_at_threshold_does_not_warn():
    # 1 missing of span 20 is exactly 5%: not strictly above the default.
    rows = "".join(f"node-a,{o},0.5\n" for o in range(20) if o != 10)
    text = "machine_id,offset_s,cpu_seconds\n" + rows
    _, warnings = parse_trace_csv(io.StringIO(text))
    assert warnings == []


def test_gap_threshold_is_tunable():
    rows = "".join(f"node-a,{o},0.5\n" for o in range(20) if o != 10)
    text = "machine_id,offset_s,cpu_seconds\n" + rows
    _, warnings = parse_trace_csv(io.StringIO(text), gap_threshold=0.04)
    assert [w.kind for w in warnings] == [WarningKind.GAP_EXCEEDS_THRESHOLD]


@pytest.mark.parametrize(
    "threshold, error, message",
    [
        (True, TypeError, "gap_threshold must be a number, got bool"),
        ("0.5", TypeError, "gap_threshold must be a number, got str"),
        (math.nan, ValueError, "gap_threshold must be finite, got nan"),
        (-0.1, ValueError, "gap_threshold must be in [0, 1], got -0.1"),
        (1.5, ValueError, "gap_threshold must be in [0, 1], got 1.5"),
    ],
    ids=["bool", "str", "nan", "negative", "above-one"],
)
def test_gap_threshold_is_a_real_in_0_1(threshold, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        parse_trace_csv(io.StringIO(GOOD_CSV), gap_threshold=threshold)


@given(
    st.lists(
        st.floats(0.0, 16.0).map(lambda v: float(v)),
        min_size=1,
        max_size=30,
    ),
    st.lists(st.integers(0, 100), min_size=1, max_size=30, unique=True),
)
def test_write_parse_round_trip_is_bit_exact(values, offsets):
    n = min(len(values), len(offsets))
    original = trace_set([("m-0", sorted(offsets[:n]), values[:n])])
    buffer = io.StringIO()
    write_trace_csv(original, buffer)
    parsed, warnings = parse_trace_csv(io.StringIO(buffer.getvalue()))
    assert warnings == [] or all(
        w.kind is WarningKind.GAP_EXCEEDS_THRESHOLD for w in warnings
    )
    assert segments(parsed) == segments(original)


HEADER = "machine_id,offset_s,cpu_seconds\n"
TRUNCATED = "last line has no trailing newline; the final row may be truncated"


def _outcome(text):
    """What parse_trace_csv makes of text: segments and warnings, or its error.

    The segments are compared by repr, which tells -0.0 from 0.0.
    """
    try:
        traces, warnings = parse_trace_csv(io.StringIO(text))
    except CyclecastError as exc:
        return type(exc), str(exc)
    return repr(segments(traces)), warnings


def _parsed(rows, terminated=True):
    """The outcome a valid body of (machine_id, offset_s, cpu_seconds) rows
    parses to: segments grouped and sorted, and the default warnings."""
    per_machine: dict[str, tuple[list, list]] = {}
    for machine_id, offset, cpu in sorted(rows, key=lambda row: row[:2]):
        per_machine.setdefault(machine_id, ([], []))
        per_machine[machine_id][0].append(offset)
        per_machine[machine_id][1].append(cpu)
    expected = [(machine_id, *columns) for machine_id, columns in per_machine.items()]
    warnings = [] if terminated else [IngestWarning(WarningKind.TRUNCATED_TAIL, "", TRUNCATED)]
    warnings += [
        IngestWarning(WarningKind.GAP_EXCEEDS_THRESHOLD, machine_id, detail)
        for machine_id, detail in oracle.gap_warnings(expected, 0.05)
    ]
    return repr(expected), warnings


def _decimals(value):
    """Spellings of a float in the decimal grammar, each read back as value exactly."""
    text = repr(value)
    spellings = [text, f"{value:.17e}", f"{value:.17E}"]
    if text.startswith("0."):
        spellings.append(text[1:])
    if text.endswith(".0"):
        spellings.append(text[:-1])
    if not text.startswith("-"):
        spellings.append("00" + text)
    return spellings


def _integers(value):
    """Spellings of an int >= 0 in the integer grammar."""
    return [str(value), f"00{value}"] + (["-0", "-00"] if value == 0 else [])


_MACHINES = st.sampled_from(["node-a", "node-b", "b_1"])
_OFFSETS = st.integers(0, 30) | st.integers(0, 2**63 - 1)
_CPUS = st.floats(0.0, 16.0) | st.sampled_from([-0.0, 5e-324, 1e-300])
# One bad row of each kind, and the reason its error gives.
_BAD_ROWS = [
    ("node-a,0", MalformedRowError, "expected 3 fields, got 2"),
    ("node-a,0,1.0,extra", MalformedRowError, "expected 3 fields, got 4"),
    ("", MalformedRowError, "expected 3 fields, got 1"),
    ("bad id,0,1.0", MalformedRowError, "machine_id 'bad id' must match [A-Za-z0-9_-]+"),
    ("node-a,+5,1.0", MalformedRowError, "offset_s must be an integer, got '+5'"),
    ("node-a,1.5,1.0", MalformedRowError, "offset_s must be an integer, got '1.5'"),
    ("node-a,-1,1.0", MalformedRowError, "offset_s must be >= 0, got -1"),
    (f"node-a,{2**63},1.0", MalformedRowError, f"offset_s must be < 2**63, got {2**63}"),
    (f"node-a,-{2**63 + 1},1.0", MalformedRowError, f"offset_s must be >= 0, got -{2**63 + 1}"),
    ("node-a,0,1_0.5", MalformedRowError, "cpu_seconds must be a number, got '1_0.5'"),
    ("node-a,0,1.0\r", MalformedRowError, "cpu_seconds must be a number, got '1.0\\r'"),
    ("node-a,0,1e999", MalformedRowError, "cpu_seconds must be finite, got '1e999'"),
    ("node-a,0,-0.5", NegativeCpuSecondsError, "cpu_seconds must be >= 0, got -0.5"),
]


@st.composite
def _bodies(draw, bad=True):
    """A trace body and the outcome it must parse to.

    Rows are drawn as values first, one per (machine_id, offset_s), in any
    order, then each number is spelled in any way the grammar allows: an
    offset with leading zeros, as -0 or of 19 digits, a cpu_seconds as
    -0.0, with an exponent or leading zeros.  The last row may lack its
    line end.  If bad, up to three bad rows go in at known lines, each of
    a drawn kind, a row repeating an earlier key, or one that both
    repeats an earlier key and is negative.  The outcome names the first:
    a row's own fault comes before its being a repeat.
    """
    keys = draw(st.lists(st.tuples(_MACHINES, _OFFSETS), unique=True, max_size=10))
    rows = [(machine_id, offset, draw(_CPUS)) for machine_id, offset in keys]
    # Each line with its key, and its own fault or None.
    lines = [
        (f"{machine_id},{draw(st.sampled_from(_integers(offset)))},"
         f"{draw(st.sampled_from(_decimals(cpu)))}", (machine_id, offset), None)
        for machine_id, offset, cpu in rows
    ]
    for _ in range(draw(st.integers(0, 3)) if bad else 0):
        at = draw(st.integers(0, len(lines)))
        earlier = [key for _, key, _ in lines[:at] if key is not None]
        kind = draw(st.sampled_from(["repeat", "negative-repeat", "own"]))
        if earlier and kind != "own":
            key = machine_id, offset = draw(st.sampled_from(earlier))
            cpu, fault = f"{draw(_CPUS)!r}", None
            if kind == "negative-repeat":
                cpu, fault = "-0.5", (NegativeCpuSecondsError, "cpu_seconds must be >= 0, got -0.5")
            line = f"{machine_id},{draw(st.sampled_from(_integers(offset)))},{cpu}", key, fault
        else:
            text, error, reason = draw(st.sampled_from(_BAD_ROWS))
            line = text, None, (error, reason)
        lines.insert(at, line)
    outcome, seen = None, set()
    for line_no, (_, key, fault) in enumerate(lines, start=2):
        if fault is None and key in seen:
            machine_id, offset = key
            reason = f"duplicate sample for machine {machine_id!r} at offset {offset}"
            fault = DuplicateSampleError, reason
        if fault is not None:
            outcome = fault[0], f"line {line_no}: {fault[1]}"
            break
        seen.add(key)
    texts = [text for text, _, _ in lines]
    terminated = not (texts and texts[-1] and draw(st.booleans()))
    body = "\n".join(texts) + ("\n" if texts and terminated else "")
    return body, outcome or _parsed(rows, terminated)


@given(_bodies(), st.integers(1, 64))
def test_the_columnar_pass_names_the_first_bad_row(body_and_outcome, chunk_chars):
    # The parse gives the drawn rows or names the first bad line, which
    # is the row the columnar pass returns.  A small chunk size puts chunk
    # boundaries inside these bodies.
    body, outcome = body_and_outcome
    with mock.patch.object(ingest, "_CHUNK_CHARS", chunk_chars):
        assert _outcome(HEADER + body) == outcome
        found = ingest._columns((HEADER + body).encode())
    assert isinstance(found, int) == isinstance(outcome[0], type)
    assert not isinstance(found, int) or outcome[1].startswith(f"line {found + 2}: ")


@pytest.mark.parametrize(
    "body, error, message",
    [
        ("node-a,x,1.0\n", MalformedRowError, "line 2: offset_s must be an integer, got 'x'"),
        ("node-a,0,1e999\n", MalformedRowError, "line 2: cpu_seconds must be finite, got '1e999'"),
        ("node-a,3,0.5\nnode-b,3,0.5\nnode-a,3,0.6\n", DuplicateSampleError,
         "line 4: duplicate sample for machine 'node-a' at offset 3"),
        ("node-a,0,1.0\r\n", MalformedRowError,
         "line 2: cpu_seconds must be a number, got '1.0\\r'"),
        ("node-a,0,1.0\n\n", MalformedRowError, "line 3: expected 3 fields, got 1"),
        # The grammar takes up to 4300 digits; the int64 column refuses it.
        (f"node-a,0,1.0\nnode-a,{'9' * 4300},1.0\n", MalformedRowError,
         f"line 3: offset_s must be < 2**63, got {'9' * 4300}"),
    ],
    ids=["malformed", "infinite-cpu", "duplicate", "crlf", "empty-line", "4300-digit-offset"],
)
def test_each_decline_trigger_names_its_line(body, error, message):
    assert message.startswith(f"line {ingest._columns((HEADER + body).encode()) + 2}: ")
    assert _outcome(HEADER + body) == (error, message)


@pytest.mark.parametrize(
    "body, expected, warnings",
    [
        ("", [], []),
        (GOOD_CSV[len(HEADER):], [("node-a", [0, 1], [0.5, 1.5]), ("node-b", [0], [1.0])], []),
        ("node-a,999999999999999999,1e-3", [("node-a", [999999999999999999], [0.001])],
         [IngestWarning(WarningKind.TRUNCATED_TAIL, "", TRUNCATED)]),
        ("n,2,.5\nn,0,2.\nm,1,1E3\n", [("m", [1], [1000.0]), ("n", [0, 2], [2.0, 0.5])],
         [IngestWarning(WarningKind.GAP_EXCEEDS_THRESHOLD, "n", "1 of 3 seconds in span missing")]),
        ("node-a,-0,1.0\n", [("node-a", [0], [1.0])], []),
        ("node-a,0,-0.0\n", [("node-a", [0], [-0.0])], []),
        ("node-a,1000000000000000000,1.0\n", [("node-a", [10**18], [1.0])], []),
    ],
    ids=["header-only", "good", "18-digit-offset-unterminated", "exponents",
         "negative-zero-offset", "negative-zero-cpu", "19-digit-offset"],
)
def test_good_bodies_take_the_fast_path(body, expected, warnings):
    assert not isinstance(ingest._columns((HEADER + body).encode()), int)
    assert _outcome(HEADER + body) == (repr(expected), warnings)


# 1 + 2**-53, halfway between 1.0 and the next float, written out in full
# and followed by a 1 in the 800th significant digit: rounded correctly it
# goes up, while its first 17 digits alone would round down to 1.0.
_LONG_MANTISSA = "1.00000000000000011102230246251565404236316680908203125".ljust(800, "0") + "1"


def test_a_long_mantissa_parses_as_float_reads_it():
    value = float(_LONG_MANTISSA)
    assert value == math.nextafter(1.0, 2.0) and float(_LONG_MANTISSA[:18]) == 1.0
    assert _outcome(f"{HEADER}node-a,0,{_LONG_MANTISSA}\n") == (repr([("node-a", [0], [value])]), [])


@given(_bodies(bad=False))
def test_fast_traces_equal_their_checked_rebuilds(body_and_outcome):
    # The columnar pass hands the set columns that pass its checks as they
    # are: one segment per machine, ids sorted and unique, and a set
    # rebuilt from its own columns holds the same segments.  The set keeps
    # the parsed arrays, which are read-only, without a copy.
    body, (expected, _) = body_and_outcome
    handed = []

    def capture(*columns):
        handed.append(columns)
        return TraceSet(*columns)

    with mock.patch.object(ingest, "TraceSet", capture):
        traces = ingest._columns((HEADER + body).encode())
    (columns,) = handed
    arrays = traces.ends, traces.offsets, traces.samples
    assert not len(traces) or all(map(operator.is_, arrays, columns[1:]))
    assert list(traces.machine_ids) == sorted(set(traces.machine_ids))
    assert all(len(segment.samples) for segment in traces)
    rebuilt = TraceSet(traces.machine_ids, traces.ends, traces.offsets, traces.samples)
    assert repr(segments(rebuilt)) == repr(segments(traces)) == expected


@st.composite
def _interleaved_rows(draw):
    """(machine_id, offset_s, cpu_seconds) rows of up to four machines in
    any order, one per (machine_id, offset_s)."""
    offsets = st.integers(0, 30) | st.integers(0, 10**18 - 1)
    keys = draw(st.lists(st.tuples(st.sampled_from("abcd"), offsets), max_size=24, unique=True))
    return [(machine_id, offset, draw(st.floats(0.0, 4.0))) for machine_id, offset in keys]


def _accounted(account, traces, cluster):
    """account's total by repr, which is bit-exact for floats, or its error."""
    try:
        return repr(account(traces, cluster))
    except CyclecastError as exc:
        return type(exc), str(exc)


@given(
    _interleaved_rows(),
    st.floats(0.0, 1.0),
    st.dictionaries(st.sampled_from("abcd"), st.tuples(st.floats(1e9, 4e9), st.integers(1, 4))),
)
def test_columnar_parse_and_accounting_follow_the_per_trace_rules(rows, threshold, machines):
    body = "".join(f"{machine_id},{offset},{cpu!r}\n" for machine_id, offset, cpu in rows)
    traces, warnings = parse_trace_csv(io.StringIO(HEADER + body), gap_threshold=threshold)
    per_machine: dict[str, tuple[list, list]] = {}
    for machine_id, offset, cpu in sorted(rows):
        per_machine.setdefault(machine_id, ([], []))
        per_machine[machine_id][0].append(offset)
        per_machine[machine_id][1].append(cpu)
    per_trace = [(machine_id, *columns) for machine_id, columns in per_machine.items()]
    assert segments(traces) == per_trace
    assert all(w.kind is WarningKind.GAP_EXCEEDS_THRESHOLD for w in warnings)
    assert [(w.machine_id, w.detail) for w in warnings] == oracle.gap_warnings(per_trace, threshold)
    specs = machines.values()
    cluster = ClusterSpec(tuple(machines), [clock for clock, _ in specs], [n for _, n in specs])
    assert _accounted(total_cpu_cycles, traces, cluster) == _accounted(
        oracle.total_cpu_cycles, per_trace, cluster
    )


def test_gap_rule_divides_long_spans_as_python_ints():
    # Offsets 0, 1 and 2**53 leave 2**53 - 2 of 2**53 + 1 seconds missing.
    # In float64 the span rounds to 2**53, and the share would come out one
    # step above Python's int division, which the threshold sits at.
    body = f"n,0,0.5\nn,1,0.5\nn,{2**53},0.5\n"
    share = (2**53 - 2) / (2**53 + 1)
    assert share < (2**53 - 2) / float(2**53 + 1)
    _, warnings = parse_trace_csv(io.StringIO(HEADER + body), gap_threshold=share)
    assert warnings == []
    _, warnings = parse_trace_csv(io.StringIO(HEADER + body), gap_threshold=math.nextafter(share, 0))
    assert [w.detail for w in warnings] == [f"{2**53 - 2} of {2**53 + 1} seconds in span missing"]


def test_offsets_come_out_sorted_per_machine():
    body = "m,2,0.5\nm,3,0.5\nn,0,1.0\nn,2,1.0\nm,4,0.5\n"
    traces, _ = parse_trace_csv(io.StringIO(HEADER + body))
    assert [t.offsets.tolist() for t in traces] == [[2, 3, 4], [0, 2]]


def test_many_chunks_give_the_drawn_rows():
    rows = [(f"m{i % 7}", i // 7, i * 0.37 % 4) for i in range(40_000)]
    text = HEADER + "".join(f"{m},{o},{c!r}\n" for m, o, c in reversed(rows))
    assert len(text) > 3 * ingest._CHUNK_CHARS
    assert _outcome(text) == _parsed(rows)


@pytest.mark.parametrize("machines", [255, 256, 257, 65_535, 65_536, 65_537])
@pytest.mark.parametrize("shuffled", [False, True], ids=["grouped", "shuffled"])
def test_machine_codes_at_the_dtype_edges(machines, shuffled):
    # The sort codes machines in uint8 up to 256 of them and in uint16 up
    # to 65,536.  Ids seen in the order n0, n1, ... sort as n0, n1, n10,
    # n100, ..., so ranks differ from the order of first sight.
    rows = [(f"n{i}", offset, (i + offset) % 8 / 2) for i in range(machines) for offset in (1, 0)]
    if shuffled:
        np.random.default_rng(machines).shuffle(rows)
    text = HEADER + "".join(f"{m},{o},{c!r}\n" for m, o, c in rows)
    traces, warnings = parse_trace_csv(io.StringIO(text))
    ordered = sorted(rows)
    assert list(traces.machine_ids) == sorted({machine_id for machine_id, _, _ in rows})
    assert traces.ends.tolist() == list(range(2, 2 * machines + 1, 2))
    assert traces.offsets.tolist() == [offset for _, offset, _ in ordered]
    assert traces.samples.tolist() == [cpu for _, _, cpu in ordered]
    assert warnings == []
    # A repeat of the highest-ranked of the first 500 rows, right after
    # it, is named by its line.
    at = max(range(500), key=rows.__getitem__)
    machine_id, offset, _ = rows[at]
    lines = text.split("\n")
    lines.insert(at + 2, f"{machine_id},{offset},0.5")
    with pytest.raises(DuplicateSampleError, match=(
        f"^line {at + 3}: duplicate sample for machine {machine_id!r} at offset {offset}$"
    )):
        parse_trace_csv(io.StringIO("\n".join(lines)))


# The split path: a body of at least two _PART_CHARS is cut into parts,
# and each part after the first is converted in a forked child (conftest
# pins the part size and the core count).


def _split(part_chars, cores=2):
    """_PART_CHARS at part_chars, on an affinity of cores cores."""
    return split(ingest, "_PART_CHARS", part_chars, cores)


def _split_outcome(data, part_chars, cores=2):
    """parse_trace_csv's outcome on a binary stream of data, or a text
    stream if data is a str, with _PART_CHARS at part_chars on cores
    cores: the machine ids and the raw bytes of each column (float bits,
    so -0.0 and 0.0 differ) and the warnings, or the error's type and
    message."""
    stream = io.BytesIO(data) if isinstance(data, bytes) else io.StringIO(data)
    with _split(part_chars, cores):
        try:
            traces, found = parse_trace_csv(stream)
        except CyclecastError as exc:
            return type(exc), str(exc)
    columns = (traces.ends, traces.offsets, traces.samples)
    return traces.machine_ids, [column.tobytes() for column in columns], found


def _serial_outcome(data):
    return _split_outcome(data, len(data) + 1)


def _forks(data, part_chars, cores=2):
    """How many children parsing data, as _split_outcome does, forks with
    _PART_CHARS at part_chars on cores cores."""
    with mock.patch.object(os, "fork", side_effect=os.fork) as fork:
        _split_outcome(data, part_chars, cores)
    return fork.call_count


def _parts(data, part_chars, cores):
    """The parts the body of the trace stream bytes data is cut into."""
    with _split(part_chars, cores):
        cuts = ingest._cuts(data, len(HEADER), len(data))
    return [data[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


@given(_bodies(), st.integers(1, 64), st.integers(1, 64), st.integers(2, 4))
def test_split_bodies_parse_as_the_serial_path_does(
    body_and_outcome, part_chars, chunk_chars, cores
):
    body, _ = body_and_outcome
    data = (HEADER + body).encode()
    with mock.patch.object(ingest, "_CHUNK_CHARS", chunk_chars):
        assert _split_outcome(data, part_chars, cores) == _serial_outcome(data)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_part_count_is_at_most_the_core_count():
    data = _long_body()
    assert [len(_parts(data, 1024, cores)) for cores in (1, 2, 3, 4)] == [1, 2, 3, 4]
    assert len(_parts(data, len(data) // 4, 4)) == 3  # each but the last holds _PART_CHARS
    assert b"".join(_parts(data, 1024, 4)) == data[len(HEADER):]
    assert all(part.endswith(b"\n") for part in _parts(data, 1024, 4))


_GOOD_ROW = "g{},{:06d},0.5\n"  # every row the same width


def _placed(trigger, where):
    """The bytes of a trace whose body of good rows holds trigger's lines
    in its first part, in its last, or just before or just after the cut
    between its two parts, with the _PART_CHARS that cuts it so on two
    cores."""
    rows = [_GOOD_ROW.format(i % 3, i).encode() for i in range(1000)]
    trigger = trigger.encode()
    # More good rows than the trigger has bytes, so that a part can hold
    # it whole.
    good = rows[:20 + len(trigger) // len(rows[0])]
    if where in ("first-part", "later-part"):
        lines = [good[0], trigger, *good[1:]] if where == "first-part" else [*good, trigger]
        data = HEADER.encode() + b"".join(lines)
        first, _ = _parts(data, 64, 2)
        assert (trigger in first) == (where == "first-part")
        return data, 64
    # Add rows after the trigger until the cut falls at its edge.
    before = b"".join(good) + (trigger if where == "before-the-cut" else b"")
    after = trigger if where == "after-the-cut" else b""
    for row in rows[len(good):]:
        after += row
        data = HEADER.encode() + before + after
        if _parts(data, 16, 2) == [before, after]:
            return data, 16
    raise AssertionError(f"no body is cut {where}")


_TRIGGERS = [
    "node-a,x,1.0\n",
    "node-a,0,1e999\n",
    "node-a,3,0.5\nnode-b,3,0.5\nnode-a,3,0.6\n",
    "node-a,0,1.0\r\n",
    "node-a,0,1.0\n\n",
    f"node-a,0,1.0\nnode-a,{'9' * 4300},1.0\n",
    "node-a,0,-0.5\n",
    f"node-a,{2**63},1.0\n",
]
_TRIGGER_IDS = ["malformed", "infinite-cpu", "duplicate", "crlf", "empty-line",
                "4300-digit-offset", "negative-cpu", "offset-past-int64"]


@pytest.mark.parametrize("where", ["first-part", "later-part", "before-the-cut", "after-the-cut"])
@pytest.mark.parametrize("trigger", _TRIGGERS, ids=_TRIGGER_IDS)
def test_each_fallback_trigger_in_each_part_names_its_line(trigger, where, no_child_left):
    data, part_chars = _placed(trigger, where)
    outcome = _split_outcome(data, part_chars)
    assert outcome == _serial_outcome(data) == _split_outcome(data.decode(), part_chars)
    assert isinstance(outcome[0], type) and issubclass(outcome[0], CyclecastError)
    # The columnar pass runs once, from either stream, and finds the line.
    assert _forks(data, part_chars) == _forks(data.decode(), part_chars) == 1


def test_a_pair_repeated_across_parts_is_a_duplicate(no_child_left):
    rows = "".join(_GOOD_ROW.format(i % 3, i) for i in range(40))
    data = f"{HEADER}a,5,1.0\n{rows}a,5,2.0\n".encode()
    assert _forks(data, 64) == 1
    assert _split_outcome(data, 64) == (
        DuplicateSampleError, "line 43: duplicate sample for machine 'a' at offset 5"
    )


@pytest.mark.parametrize("cores", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "bad, error, message",
    [
        # A repeat in the first part, and a grammar error in the last.
        ({5: "g0,000000,0.7", 38: "g1,x,0.5"}, DuplicateSampleError,
         "line 7: duplicate sample for machine 'g0' at offset 0"),
        # A row that repeats a key and is negative is named as negative,
        # before a later repeat and a row of four fields.
        ({20: "g0,000003,-0.5", 30: "g0,000003,0.7", 38: "g0,0,0.5,1"}, NegativeCpuSecondsError,
         "line 22: cpu_seconds must be >= 0, got -0.5"),
        # A grammar error, on a line whose offset is also negative, before
        # a repeat in a later part.
        ({24: "g1,000001,0.5", 12: "g1,-1,abc"}, MalformedRowError,
         "line 14: cpu_seconds must be a number, got 'abc'"),
    ],
    ids=["repeat-then-malformed", "negative-repeat-then-more", "malformed-before-a-repeat"],
)
def test_the_first_of_several_bad_rows_is_named(bad, error, message, cores, no_child_left):
    lines = [_GOOD_ROW.format(i % 3, i) for i in range(40)]
    for at, line in sorted(bad.items()):
        lines.insert(at, line + "\n")
    data = (HEADER + "".join(lines)).encode()
    assert len(_parts(data, 64, cores)) == cores
    assert _split_outcome(data, 64, cores) == (error, message)
    assert _split_outcome(data.decode(), 64, cores) == (error, message)


class _Counted:
    """A compiled pattern that counts the uses of its methods."""

    def __init__(self, pattern):
        self.pattern, self.uses = pattern, 0

    def __getattr__(self, name):
        self.uses += 1
        return getattr(self.pattern, name)


@pytest.mark.parametrize(
    "last", ["m3,1428,0.5", "m3,99999,-0.5", "m3,99999,0.5,1"],
    ids=["duplicate", "negative", "four-fields"],
)
def test_a_declined_trace_checks_one_row_by_itself(last):
    # The columnar pass finds the bad row; only that row's fields are
    # then checked one by one, not every row before it.
    data = _long_body(10_000) + last.encode() + b"\n"
    with mock.patch.object(ingest, "_MACHINE_ID_RE", _Counted(ingest._MACHINE_ID_RE)) as ids:
        with pytest.raises(CyclecastError, match="^line 10002: "):
            parse_trace_csv(io.BytesIO(data))
    assert ids.uses <= 1


@pytest.mark.parametrize("cores", [2, 4])
@pytest.mark.parametrize("machines", [3, 300])
def test_machines_seen_in_every_part_group_as_one(machines, cores, no_child_left):
    # Blocks of one row per machine, each in its own shuffled order, so
    # that every part holds rows of every machine and a machine's first
    # row differs between parts; 300 machines rank in uint16.
    rng = np.random.default_rng(machines)
    rows = [
        (f"n{m}", block, (block + m) % 8 / 2)
        for block in range(4 * cores) for m in rng.permutation(machines).tolist()
    ]
    data = (HEADER + "".join(f"{m},{o},{c!r}\n" for m, o, c in rows)).encode()
    part_chars = len(data) // (cores + 1)
    parts = _parts(data, part_chars, cores)
    assert len(parts) == cores
    assert all({line.split(b",")[0].decode() for line in part.splitlines()}
               == {m for m, _, _ in rows} for part in parts)
    assert _forks(data, part_chars, cores) == cores - 1
    assert _split_outcome(data, part_chars, cores) == _serial_outcome(data)
    with _split(part_chars, cores):
        traces, _ = parse_trace_csv(io.BytesIO(data))
    assert repr(segments(traces)) == _parsed(rows)[0]


def _long_body(rows=2000):
    """The bytes of a trace of rows rows on seven machines."""
    lines = "".join(f"m{i % 7},{i // 7},{i * 0.37 % 4!r}\n" for i in range(rows))
    return (HEADER + lines).encode()


@pytest.mark.parametrize("failing", [[1], [2], [1, 2, 3]], ids=str)
def test_a_part_whose_fork_fails_is_converted_here(failing, no_child_left):
    # The forks for parts 1, 2 and 3 of 4, of which those in failing fail.
    forks = iter(range(1, 4))
    real_fork = os.fork

    def fork():
        if next(forks) in failing:
            raise OSError("no more processes")
        return real_fork()

    text = _long_body()
    with mock.patch.object(os, "fork", side_effect=fork) as forked:
        assert _split_outcome(text, 1024, 4) == _serial_outcome(text)
    assert forked.call_count == 3


def test_a_part_whose_pipe_fails_is_converted_here(no_child_left):
    # The handover files for parts 1, 2 and 3 of 4, of which that for
    # part 2 cannot be made.
    files = iter(range(1, 4))
    real_memfd_create = os.memfd_create

    def memfd_create(*args):
        if next(files) == 2:
            raise OSError("too many open files")
        return real_memfd_create(*args)

    text = _long_body()
    with (
        mock.patch.object(os, "memfd_create", side_effect=memfd_create) as made,
        mock.patch.object(os, "fork", side_effect=os.fork) as forked,
    ):
        assert _split_outcome(text, 1024, 4) == _serial_outcome(text)
    assert (made.call_count, forked.call_count) == (3, 2)


def test_a_host_without_memfd_create_parses_in_one_process(no_child_left):
    text = _long_body()
    with pytest.MonkeyPatch.context() as patch:
        patch.delattr(os, "memfd_create")
        assert _forks(text, 1024, 4) == 0
        assert _split_outcome(text, 1024, 4) == _serial_outcome(text)


def test_a_child_exits_while_the_parent_converts_its_own_part(no_child_left):
    # Part 2 of 2 holds 4,000 rows, 96,000 bytes of columns: more than a
    # 64 KiB pipe holds.  Its child must not wait on the parent, so it has
    # exited, though not yet been reaped, while part 1 is still converting.
    text = _long_body(8000)
    parent, convert, exited = os.getpid(), ingest._convert, []

    def waiting(data, start, *args):
        if os.getpid() == parent and start == len(HEADER):
            deadline = time.monotonic() + 10
            flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
            while not (child := os.waitid(os.P_ALL, 0, flags)) and time.monotonic() < deadline:
                time.sleep(0.01)
            exited.append(child and (child.si_code, child.si_status))
        return convert(data, start, *args)

    with mock.patch.object(ingest, "_convert", waiting):
        outcome = _split_outcome(text, 1024, 2)
    assert exited == [(os.CLD_EXITED, 0)]
    assert outcome == _serial_outcome(text)


def test_a_host_without_sched_getaffinity_parses_in_one_part(no_child_left):
    text = _long_body()
    assert len(_parts(text, 1024, None)) == 1
    assert _forks(text, 1024, None) == 0
    assert _split_outcome(text, 1024, None) == _serial_outcome(text)


@pytest.mark.parametrize("cores", [2, 4])
@pytest.mark.parametrize(
    "send", [mock.Mock(side_effect=RuntimeError("the child fails before it writes"))],
    ids=["exits-1"],
)
def test_a_part_whose_child_fails_is_converted_here(send, cores, no_child_left):
    text = _long_body()
    with mock.patch.object(ingest, "_send", send):
        assert _split_outcome(text, 1024, cores) == _serial_outcome(text)
        assert _forks(text, 1024, cores) == cores - 1


@pytest.mark.parametrize(
    "trigger", [_TRIGGERS[i] for i in (0, 3, 4, 5, 7)],
    ids=[_TRIGGER_IDS[i] for i in (0, 3, 4, 5, 7)],
)
def test_a_part_that_declines_kills_the_later_children(trigger, no_child_left):
    # Part 1 of 4 holds a trigger that its conversion declines; the
    # children of parts 2 and 3 would sleep for a minute, so the parse
    # ends at once only if it kills them.
    parts = _parts(_long_body(), 1024, 4)
    mid = parts[1].index(b"\n", len(parts[1]) // 2) + 1
    trigger = trigger.encode()
    body = [parts[0], parts[1][:mid], trigger, parts[1][mid:], *parts[2:]]
    data = HEADER.encode() + b"".join(body)
    with _split(1024, 4):
        cuts = ingest._cuts(data, len(HEADER), len(data))
    assert len(cuts) == 5 and trigger in data[cuts[1]:cuts[2]]
    send = ingest._send

    def sleepy_send(data, start, *args):
        if start in cuts[2:4]:
            time.sleep(60)
        return send(data, start, *args)

    began = time.monotonic()
    with mock.patch.object(ingest, "_send", sleepy_send):
        outcome = _split_outcome(data, 1024, 4)
    assert time.monotonic() - began < 30
    assert outcome == _serial_outcome(data)
    assert isinstance(outcome[0], type) and issubclass(outcome[0], CyclecastError)


@pytest.mark.parametrize("share", [0.75, 1.0], ids=["three-quarters-in", "last-line"])
@pytest.mark.parametrize("bad", ["m3,99999,0.5,1", "m3,x,0.5", f"m3,{2**63},0.5"],
                         ids=["four-fields", "malformed-offset", "offset-past-int64"])
def test_a_bad_row_in_a_childs_part_is_converted_once(bad, share, no_child_left):
    # The child of part 2 of 2 sends the rows before the bad one and
    # their count; the parent converts only part 1 and names the row as
    # the 1-core parse does.
    lines = _long_body().splitlines(keepends=True)
    lines.insert(int(share * len(lines)), bad.encode() + b"\n")
    data = b"".join(lines)
    assert bad.encode() in _parts(data, 1024, 2)[1]
    convert, starts = ingest._convert, []

    def counted(data, start, *args):
        starts.append(start)
        return convert(data, start, *args)

    with mock.patch.object(ingest, "_convert", counted):
        outcome = _split_outcome(data, 1024, 2)
    assert starts == [len(HEADER)]
    assert outcome == _split_outcome(data, 1024, 1)
    assert isinstance(outcome[0], type) and issubclass(outcome[0], CyclecastError)


_PRINT_THEN_PARSE = """
import io, os, sys
from cyclecast import ingest
ingest._PART_CHARS = 1024
os.sched_getaffinity = lambda pid: {0, 1, 2}
print("printed before the parse", end="")
text = "machine_id,offset_s,cpu_seconds\\n" + "".join(f"m,{i},0.5\\n" for i in range(2000))
traces, _ = ingest.parse_trace_csv(io.StringIO(text))
print("", len(traces.offsets))
"""


def test_unflushed_stdout_appears_once():
    src = str(Path(ingest.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)  # so that stdout, a pipe, holds the text in its buffer
    done = subprocess.run(
        [sys.executable, "-c", _PRINT_THEN_PARSE],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "printed before the parse 2000\n"


def test_the_fork_warning_of_python_3_12_stays_off_stderr(tmp_path, capsys, no_child_left):
    # From 3.12, os.fork warns when the process has more than one thread,
    # as ingest does while it hashes the trace for its run id.
    real_fork = os.fork

    def fork():
        warnings.warn(
            f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead "
            "to deadlocks in the child.", DeprecationWarning, stacklevel=2,
        )
        return real_fork()

    (tmp_path / "trace.csv").write_bytes(_long_body())
    (tmp_path / "cluster.txt").write_text("".join(f"m{i} 2e9 4\n" for i in range(7)))
    argv = ["ingest", "--traces", str(tmp_path / "trace.csv"), "--cluster",
            str(tmp_path / "cluster.txt"), "--app", "a", "--mappers", "2", "--reducers", "2",
            "--input-bytes", "1000", "--out", str(tmp_path / "runs.jsonl")]
    with _split(2**30):
        assert cli.main(argv) == 0
    serial = capsys.readouterr(), (tmp_path / "runs.jsonl").read_bytes()
    (tmp_path / "runs.jsonl").unlink()
    with _split(1024, cores=3), mock.patch.object(os, "fork", side_effect=fork) as forked:
        assert cli.main(argv) == 0
    assert forked.call_count == 2
    assert (capsys.readouterr(), (tmp_path / "runs.jsonl").read_bytes()) == serial


# A trace of about 4 KiB, past the 2 KiB above which hashlib releases the
# GIL, whose last row has no line end, and its cluster.
_ACCOUNTED_CSV = GOOD_CSV + "".join(f"node-a,{i},{i % 7 / 8!r}\n" for i in range(2, 600, 2))[:-1]
_ACCOUNTED_CLUSTER = "node-a 3.0e9 4\nnode-b 2.0e9 2\n"


@pytest.mark.parametrize("run_id", [None, "exp-007"])
def test_account_trace_gives_the_row_cyclecast_ingest_appends(tmp_path, run_id):
    (tmp_path / "trace.csv").write_text(_ACCOUNTED_CSV)
    (tmp_path / "cluster.txt").write_text(_ACCOUNTED_CLUSTER)
    argv = ["ingest", "--traces", str(tmp_path / "trace.csv"), "--cluster",
            str(tmp_path / "cluster.txt"), "--app", "sort", "--mappers", "4", "--reducers", "2",
            "--input-bytes", str(2**30), "--out", str(tmp_path / "cli.jsonl")]
    assert cli.main(argv + ([] if run_id is None else ["--run-id", run_id])) == 0

    data = (tmp_path / "trace.csv").read_bytes()
    assert len(data) > 2048
    cluster = parse_cluster_spec(io.StringIO(_ACCOUNTED_CLUSTER))
    traces, run, warnings_found = ingest.account_trace(
        data, cluster, "sort", 4, 2, 2**30, run_id=run_id
    )
    assert (traces.machine_ids, [w.kind for w in warnings_found]) == (
        ("node-a", "node-b"), [WarningKind.TRUNCATED_TAIL, WarningKind.GAP_EXCEEDS_THRESHOLD]
    )
    expected_id = hashlib.sha256(data).hexdigest()[:12] if run_id is None else run_id
    assert oracle.rows(run) == [
        ("sort", expected_id, 4, 2, 2**30, total_cpu_cycles(traces, cluster))
    ]
    assert oracle.rows(run) == oracle.rows(load_runs(tmp_path / "cli.jsonl"))
    append_runs(tmp_path / "library.jsonl", run)
    assert (tmp_path / "library.jsonl").read_bytes() == (tmp_path / "cli.jsonl").read_bytes()


def test_no_thread_outlives_a_refused_account_trace(monkeypatch):
    cluster = parse_cluster_spec(io.StringIO(_ACCOUNTED_CLUSTER))
    # A bad header fails the parse at once, well before a megabyte is hashed.
    bad_header = b"wrong,header,here\n" + b"0" * 2**20
    good = _ACCOUNTED_CSV.encode()
    threads = threading.active_count()

    def account(data):
        return ingest.account_trace(data, cluster, "sort", 4, 2, 2**30)

    with pytest.raises(MalformedHeaderError):
        account(bad_header)
    assert threading.active_count() == threads

    def broken(data):
        raise ValueError("digest failed")

    monkeypatch.setattr(hashlib, "sha256", broken)
    with pytest.raises(ValueError, match="^digest failed$"):
        account(good)
    assert threading.active_count() == threads
    # The parse's error is raised before the hash's.
    with pytest.raises(MalformedHeaderError):
        account(bad_header)
    assert threading.active_count() == threads
    # A given run id starts no hash.
    _, run, _ = ingest.account_trace(good, cluster, "sort", 4, 2, 2**30, run_id="exp-007")
    assert run.run_ids == ("exp-007",)


@pytest.mark.parametrize("name, value, error", [
    ("app", 5, TypeError),
    ("app", "", ValueError),
    ("mappers", 0, ValueError),
    ("reducers", True, TypeError),
    ("input_bytes", 2**63, ValueError),
    ("input_bytes", 1.5, TypeError),
    ("run_id", "", ValueError),
    ("run_id", b"exp", TypeError),
    ("cluster", None, TypeError),
    ("cluster", "cluster.txt", TypeError),
    ("gap_threshold", 2.0, ValueError),
    ("gap_threshold", math.nan, ValueError),
    ("gap_threshold", "0.1", TypeError),
])
def test_account_trace_checks_its_arguments_before_it_hashes_or_parses(
    monkeypatch, name, value, error
):
    def refuse(*args, **kwargs):
        raise AssertionError("hashed or parsed before the arguments were checked")

    monkeypatch.setattr(ingest, "parse_trace_csv", refuse)
    monkeypatch.setattr(ingest, "_digest", refuse)
    cluster = parse_cluster_spec(io.StringIO(_ACCOUNTED_CLUSTER))
    arguments = dict(cluster=cluster, app="sort", mappers=4, reducers=2, input_bytes=2**30,
                     run_id=None, gap_threshold=0.05)
    arguments[name] = value
    with pytest.raises(error, match=f"^{name} must be"):
        ingest.account_trace(_ACCOUNTED_CSV.encode(), **arguments)


def test_write_orders_machines_lexicographically():
    traces = trace_set([
        ("zz", (0,), (1.0,)),
        ("aa", (0,), (2.0,)),
    ])
    buffer = io.StringIO()
    write_trace_csv(traces, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[1].startswith("aa,") and lines[2].startswith("zz,")


CLUSTER_TEXT = """\
# lab cluster, summer inventory
node-a 3.0e9 4
node-b 2000000000 2   # older box

node-c 2.5e9 8
"""


def test_parse_cluster_spec():
    cluster = parse_cluster_spec(io.StringIO(CLUSTER_TEXT))
    assert _columns(cluster) == (("node-a", "node-b", "node-c"), [3.0e9, 2.0e9, 2.5e9], [4, 2, 8])


def _readme_example(heading):
    """The first code block after heading in the project's README."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return re.search(r"```\n(.*?)```", readme[readme.index(heading):], re.DOTALL).group(1)


def test_the_readme_examples_parse():
    traces, warnings = parse_trace_csv(io.StringIO(_readme_example("**Trace CSV**")))
    assert (segments(traces), warnings) == (
        [("node-a", [0, 1], [3.84, 3.97]), ("node-b", [0], [1.02])], []
    )
    cluster = parse_cluster_spec(io.StringIO(_readme_example("**Cluster file**")))
    assert _columns(cluster) == (("node-a", "node-b"), [3.0e9, 2.0e9], [4, 2])


def test_binary_streams_parse_like_text():
    for parse, text in [(_parse_cluster_columns, CLUSTER_TEXT), (_parse_trace_segments, GOOD_CSV)]:
        assert parse(io.BytesIO(text.encode())) == parse(io.StringIO(text))


def _columns(cluster):
    """A ClusterSpec's columns as Python values, which compare exactly."""
    return cluster.machines, cluster.clock_hz.tolist(), cluster.cores.tolist()


def _parse_cluster_columns(stream):
    return _columns(parse_cluster_spec(stream))


def _parse_trace_segments(stream):
    traces, warnings = parse_trace_csv(stream)
    return segments(traces), warnings


@pytest.mark.parametrize(
    "parse, data, error, line",
    [
        (parse_trace_csv, GOOD_CSV.encode() + b"node-\xe9,9,1.0\n", MalformedRowError, 5),
        (parse_trace_csv, b"machine_id,offset_s,cpu_seconds\xff\n", MalformedRowError, 1),
        (parse_trace_csv, b"machine_id,offset_s\nnode-a,0,1.0\n\xff\n", MalformedRowError, 3),
        (parse_cluster_spec, b"# caf\xe9\nnode-a 3e9 4\n", MalformedEntryError, 1),
        (parse_cluster_spec, CLUSTER_TEXT.encode() + b"\x80", MalformedEntryError, 6),
    ],
    ids=["trace-row", "trace-header", "trace-after-a-bad-header", "cluster-comment",
         "cluster-tail"],
)
def test_invalid_utf8_is_a_typed_error_naming_its_line(parse, data, error, line):
    with pytest.raises(error, match=f"^line {line}: not UTF-8 "):
        parse(io.BytesIO(data))


_HEADERS = st.sampled_from([
    HEADER, HEADER[:-1], "\ufeff" + HEADER, HEADER[:-1] + "\r\n", HEADER[:-2] + "\u015b\n",
    "machine_id,offset_s\n", "",
])
# Text that is not ASCII, and bytes that are not UTF-8 or cut a character short.
_INSERTS = st.sampled_from(["\xe9", "\ufeff", "\r", "\u2028", "\x00"]).map(str.encode) | (
    st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"])
)


@st.composite
def _byte_traces(draw):
    """The bytes of a trace stream: a drawn header and body, UTF-8 encoded,
    with up to two drawn inserts anywhere, and maybe cut short."""
    body, _ = draw(_bodies())
    data = bytearray((draw(_HEADERS) + body).encode())
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(data)))
        data[at:at] = draw(_INSERTS)
    if draw(st.booleans()):
        del data[draw(st.integers(0, len(data))):]
    return bytes(data)


@example(HEADER[:-1].encode(), 16)
@example(b"machine_id,offset_s\nnode-a,0,1.0\n\xff\n", 16)
@example((HEADER + "node-a,0,1.0\nnode-\xe9,1,1.0\n" * 3).encode(), 16)
@given(_byte_traces(), st.sampled_from([16, 2**30]))
def test_a_binary_stream_parses_as_its_text_does(data, part_chars):
    # The trace is read as bytes and decoded only if its body declines.
    # A byte that is not UTF-8 is named before the header or any row is
    # checked; any other stream parses as its text does from a text
    # stream, on one part or on two.
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        expected = MalformedRowError, f"line {line}: not UTF-8 ({exc.reason} at byte {exc.start})"
    else:
        expected = _split_outcome(text, part_chars)
    assert _split_outcome(data, part_chars) == expected
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cluster_outcome(text):
    """What parse_cluster_spec makes of text: the spec's columns, or its error."""
    try:
        return _parse_cluster_columns(io.StringIO(text))
    except CyclecastError as exc:
        return type(exc), str(exc)


_SPEC_IDS = st.from_regex(r"[A-Za-z0-9_-]{1,8}", fullmatch=True).filter(lambda i: i != "bad")
_CLOCKS = st.floats(1e-3, 1e12) | st.sampled_from([5e-324, 1.7976931348623157e308])
_CORES = st.integers(1, 64) | st.integers(1, 2**63 - 1)
# Runs of the whitespace str.split() splits at, other than LF; a "\r" last
# on a line makes its end a CRLF.  Comments hold any character but LF.
_SPACES = st.sampled_from(
    [" ", "\t", "  ", " \t", "\xa0", "\u3000", "\x1c", "\x0b", "\x0c", "\x85", "\u2028", "\r"]
)
_EDGES = st.just("") | _SPACES
_COMMENTS = st.sampled_from(["# inventory", "#", "#  a\tb # c", "# \x85\r"])
_ODD_LINES = _EDGES | st.tuples(_EDGES, _COMMENTS).map("".join)
_BAD_ENTRIES = [
    ("bad 3e9", MalformedEntryError, "expected 'machine_id clock_hz cores', got 'bad 3e9'"),
    ("bad 3e9 4 junk", MalformedEntryError,
     "expected 'machine_id clock_hz cores', got 'bad 3e9 4 junk'"),
    ("b@d 3e9 4", MalformedEntryError, "machine_id 'b@d' must match [A-Za-z0-9_-]+"),
    ("bad hz 4", MalformedEntryError, "clock_hz must be a number, got 'hz'"),
    ("bad +3e9 4", MalformedEntryError, "clock_hz must be a number, got '+3e9'"),
    ("bad 1e999 4", MalformedEntryError, "clock_hz must be finite"),
    ("bad 0 4", NonPositiveClockError, "clock_hz must be > 0, got 0"),
    ("bad -3e9 4", NonPositiveClockError, "clock_hz must be > 0, got -3e9"),
    ("bad 1e-400 4", NonPositiveClockError, "clock_hz must be > 0, got 1e-400"),
    ("bad 3e9 0", MalformedEntryError, "cores must be >= 1, got 0"),
    ("bad 3e9 -4", MalformedEntryError, "cores must be >= 1, got -4"),
    (f"bad 3e9 {2**63}", MalformedEntryError, f"cores must be < 2**63, got {2**63}"),
    ("bad 3e9 1_6", MalformedEntryError, "cores must be an integer, got '1_6'"),
]


@st.composite
def _specs(draw, bad=True):
    """A cluster spec and the outcome it must parse to.

    Entries are drawn as values first, with unique ids, then spelled in
    any way the grammar allows: any whitespace between and around the
    fields, trailing comments, comment and blank lines between entries,
    CR before LF, no final newline, numbers with leading zeros or
    exponents.  If bad, up to three bad lines go in at drawn lines, each
    of a drawn kind or repeating an earlier id, its clock maybe
    misspelled too; the first of them names the outcome.
    """
    ids = draw(st.lists(_SPEC_IDS, max_size=6, unique=True))
    entries = [(machine_id, draw(_CLOCKS), draw(_CORES)) for machine_id in ids]
    lines = []  # (line, the id of its entry or None, its error and reason or None)
    for machine_id, clock, cores in entries:
        lines += [(odd, None, None) for odd in draw(st.lists(_ODD_LINES, max_size=2))]
        fields = [machine_id, draw(st.sampled_from(_decimals(clock))),
                  draw(st.sampled_from([str(cores), f"0{cores}"]))]
        spaces = [draw(_EDGES), draw(_SPACES), draw(_SPACES)]
        line = "".join(s + f for s, f in zip(spaces, fields))
        lines.append((line + draw(_EDGES) + draw(_COMMENTS | _EDGES), machine_id, None))
    lines += [(odd, None, None) for odd in draw(st.lists(_ODD_LINES, max_size=2))]
    for _ in range(draw(st.integers(0, 3)) if bad else 0):
        at = draw(st.integers(0, len(lines)))
        earlier = [machine_id for _, machine_id, _ in lines[:at] if machine_id]
        if earlier and draw(st.booleans()):
            machine_id = draw(st.sampled_from(earlier))
            clock = draw(st.sampled_from(["1e9", "hz"]))
            fault = DuplicateMachineIdError, f"duplicate machine_id {machine_id!r}"
            lines.insert(at, (f"{machine_id} {clock} 1", None, fault))
        else:
            line, *fault = draw(st.sampled_from(_BAD_ENTRIES))
            lines.insert(at, (line, None, fault))
    faults = [(at, fault) for at, (_, _, fault) in enumerate(lines) if fault]
    if faults:
        at, (error, reason) = faults[0]
        outcome = error, f"line {at + 1}: {reason}"
    else:
        outcome = _columns_of(entries) if entries else (
            MalformedEntryError, "cluster spec has no machine entries"
        )
    text = "\n".join(line for line, _, _ in lines) + draw(st.sampled_from(["\n", ""]))
    return text, outcome


def _columns_of(entries):
    """The columns of (machine_id, clock_hz, cores) entries, as _columns reads a ClusterSpec."""
    ids, clocks, cores = zip(*entries)
    return ids, list(clocks), list(cores)


@given(_specs())
@settings(max_examples=200)
def test_cluster_specs_parse_to_their_entries_or_first_bad_line(spec):
    # The parse gives the drawn entries or names the first bad line.  The
    # columnar pass builds the cluster of exactly the specs with no bad
    # line and some entries.
    text, outcome = spec
    assert _cluster_outcome(text) == outcome
    assert isinstance(ingest._cluster(text), ClusterSpec) == (not isinstance(outcome[0], type))


def test_large_specs_parse_whole_or_name_their_bad_line():
    # Past 1,000 rows numpy elides an array's repr; the columns compare whole.
    entries = [(f"m{i}", 1e9 + i * 0.5, i % 64 + 1) for i in range(3000)]
    lines = [f"{machine_id} {clock!r} {cores}\n" for machine_id, clock, cores in entries]
    assert _cluster_outcome("".join(lines)) == _columns_of(entries)
    lines[2000] = "m1500 2e9 4\n"
    outcome = _cluster_outcome("".join(lines))
    assert outcome == (DuplicateMachineIdError, "line 2001: duplicate machine_id 'm1500'")


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("node-a 0 4\n", NonPositiveClockError, "line 1: clock_hz must be > 0, got 0"),
        ("node-a 1e-400 4\n", NonPositiveClockError, "line 1: clock_hz must be > 0, got 1e-400"),
        ("node-a 1e999 4\n", MalformedEntryError, "line 1: clock_hz must be finite"),
        ("node-a -3e9 4\n", NonPositiveClockError, "line 1: clock_hz must be > 0, got -3e9"),
        ("m 1e9 1\nm 2e9 1\n", DuplicateMachineIdError, "line 2: duplicate machine_id 'm'"),
        ("", MalformedEntryError, "cluster spec has no machine entries"),
        ("# only comments\n", MalformedEntryError, "cluster spec has no machine entries"),
        ("node-a 3e9\n", MalformedEntryError,
         "line 1: expected 'machine_id clock_hz cores', got 'node-a 3e9'"),
        ("node-é 3e9 4\n", MalformedEntryError,
         "line 1: machine_id 'node-é' must match [A-Za-z0-9_-]+"),
        (f"node-a 3e9 4\nnode-b 3e9 {'9' * 4300}\n", MalformedEntryError,
         f"line 2: cores must be < 2**63, got {'9' * 4300}"),
        (f"node-a 3e9 {2**63 - 1}\nnode-b 3e9 {2**63}\n", MalformedEntryError,
         f"line 2: cores must be < 2**63, got {2**63}"),
        ("m 1e9 1\nm hz 1\n", DuplicateMachineIdError, "line 2: duplicate machine_id 'm'"),
        ("a 0 4\nb 3e9\n", NonPositiveClockError, "line 1: clock_hz must be > 0, got 0"),
        ("a 3e9 4\nb 3e9 0", MalformedEntryError, "line 2: cores must be >= 1, got 0"),
    ],
    ids=["zero-clock", "clock-underflows-to-zero", "infinite-clock", "negative-clock",
         "duplicate-id", "empty", "no-entries", "two-fields", "non-ascii-id", "4300-digit-cores",
         "cores-at-2**63-after-2**63-1", "duplicate-id-with-a-bad-clock",
         "zero-clock-before-a-grammar-error", "bad-last-line-with-no-final-newline"],
)
def test_each_cluster_decline_trigger_reaches_the_line_loop(text, error, message):
    # The columnar pass declines each and names the line whose fields
    # _raise_bad_entry then checks.
    assert not isinstance(ingest._cluster(text), ClusterSpec)
    assert _cluster_outcome(text) == (error, message)


@pytest.mark.parametrize(
    "last", ["m17 1e9 1", "m4999 1e9 1 junk", "m4999 0 1", f"m4999 1e9 {2**63}"],
    ids=["duplicate", "four-fields", "zero-clock", "cores-past-int64"],
)
def test_a_declined_spec_checks_one_line_by_itself(last):
    # The columnar pass finds the bad line; only that line's fields are
    # then checked one by one, not every line before it.
    text = "".join(f"m{i} 2e9 4\n" for i in range(4999)) + last + "\n"
    with mock.patch.object(ingest, "_MACHINE_ID_RE", _Counted(ingest._MACHINE_ID_RE)) as ids:
        with pytest.raises(CyclecastError, match="^line 5000: "):
            parse_cluster_spec(io.StringIO(text))
    assert ids.uses <= 1


@pytest.mark.parametrize(
    "text, cores",
    [
        ("node-a\t3e9 4\n", 4),
        ("node-a  3e9 4\n", 4),
        ("node-a 3e9 4 # spare\n", 4),
        ("node-a 3e9 4\r\n", 4),
        ("node-a 3e9 4", 4),
        ("node-a 3e9 04\n", 4),
        ("node-a 3e9 1000000000000000000\n", 10**18),
        ("node-a 3e9 4\n\n", 4),
        (" # indented\nnode-a 3e9 4\n", 4),
    ],
    ids=["tab", "two-spaces", "trailing-comment", "crlf", "no-final-newline",
         "leading-zero-cores", "19-digit-cores", "blank-line", "indented-comment"],
)
def test_spec_spellings_take_the_cluster_fast_path(text, cores):
    assert isinstance(ingest._cluster(text), ClusterSpec)
    assert _cluster_outcome(text) == (("node-a",), [3e9], [cores])


@pytest.mark.parametrize(
    "text, expected",
    [
        ("node-a 3.0e9 4\nnode-b 2000000000 2\n", (("node-a", "node-b"), [3e9, 2e9], [4, 2])),
        ("# machine_id clock_hz cores\nnode-01 2000000000.0 4\nnode-02 2400000000.0 8\n",
         (("node-01", "node-02"), [2e9, 2.4e9], [4, 8])),
        ("#\na .5 1\n# between\nb 2. 999999999999999999\n#last\n",
         (("a", "b"), [0.5, 2.0], [1, 999999999999999999])),
        ("n_1 2.4E9 16\nn-2 1e-3 3\nN3 3e+9 1\n",
         (("n_1", "n-2", "N3"), [2.4e9, 1e-3, 3e9], [16, 3, 1])),
    ],
    ids=["plain", "header-comment", "comments-between", "exponents"],
)
def test_canonical_specs_take_the_cluster_fast_path(text, expected):
    cluster = ingest._cluster(text)
    assert _columns(cluster) == expected
    assert cluster.clock_hz.dtype == np.float64 and cluster.cores.dtype == np.int64
    assert not (cluster.clock_hz.flags.writeable or cluster.cores.flags.writeable)


@given(st.lists(_SPEC_IDS, min_size=1, max_size=8, unique=True), st.data())
def test_fast_machines_equal_their_checked_rebuilds(ids, data):
    entries = [(i, data.draw(_CLOCKS), data.draw(_CORES)) for i in ids]
    cluster = ingest._cluster("".join(f"{i} {clock!r} {cores}\n" for i, clock, cores in entries))
    rebuilt = ClusterSpec(*_columns(cluster))
    assert _columns(rebuilt) == _columns(cluster) == _columns_of(entries)
    assert cluster.machines == tuple(ids)


@pytest.mark.parametrize(
    "line",
    ["node-a 3e9", "node-a 3e9 4 junk", "bad id 3e9 4", "node-a hz 4", "node-a 3e9 x", "node-a 3e9 0", "node-a inf 4",
     "node-a 1e999 4", "node-a 3e9 1_6", "node-a 3_0e9 4", "node-a \u0663e9 4", "node-a 3e9 +4",
     f"node-a 3e9 {2**63}", pytest.param("node-a 3e9 " + "1" * 4301, id="node-a 3e9 <4301 digits>")],
)
def test_malformed_cluster_entries(line):
    with pytest.raises(MalformedEntryError):
        parse_cluster_spec(io.StringIO(line + "\n"))


def test_cluster_duplicate_id():
    with pytest.raises(DuplicateMachineIdError):
        parse_cluster_spec(io.StringIO("m 1e9 1\nm 2e9 1\n"))


def test_cluster_non_positive_clock():
    with pytest.raises(NonPositiveClockError):
        parse_cluster_spec(io.StringIO("m 0 1\n"))
    with pytest.raises(NonPositiveClockError):
        parse_cluster_spec(io.StringIO("m -3e9 1\n"))


def test_cluster_needs_at_least_one_machine():
    with pytest.raises(MalformedEntryError):
        parse_cluster_spec(io.StringIO("# only comments\n\n"))


# Number fields valid or not: forms the grammar refuses, a sign, an
# overflow and non-ASCII digits among them.
_NUMBERS = st.sampled_from(
    ["0", "7", "-1", ".5", "5.", "3e9", "-3e9", "1e999", "1_0", "+5", " 5", "\u0665", "nan", ""]
)


def _texts(separator):
    """Any text, or lines shaped like the format's entries, or not quite."""
    entry = st.tuples(st.sampled_from(["node-a", "b_1", "b c"]), _NUMBERS, _NUMBERS)
    line = st.one_of(entry, st.lists(_NUMBERS, max_size=4)).map(separator.join)
    return st.one_of(st.text(), st.lists(line, max_size=4).map("\n".join))


@given(_texts(","))
def test_any_trace_text_parses_or_raises_a_typed_error(body):
    try:
        parse_trace_csv(io.StringIO("machine_id,offset_s,cpu_seconds\n" + body))
    except CyclecastError:
        pass


@given(_texts(" "))
def test_any_cluster_text_parses_or_raises_a_typed_error(text):
    try:
        parse_cluster_spec(io.StringIO(text))
    except CyclecastError:
        pass


@pytest.mark.parametrize(
    "text, integer, value",
    [("10", True, 10), ("0", True, 0), ("-3", True, -3), (str(2**64), True, 2**64),
     ("10", False, 10.0), ("1.5e-2", False, 0.015), (".5", False, 0.5), ("5.", False, 5.0),
     ("-0.5", False, -0.5)],
)
def test_parse_number_reads_the_numbers_grammar(text, integer, value):
    got = parse_number(text, integer)
    assert got == value and type(got) is type(value)


@pytest.mark.parametrize("integer", [True, False])
@pytest.mark.parametrize(
    "text",
    ["", "1_0", "+10", " 10", "10 ", "10\n", "\u0661\u0660", "inf", "nan", "0x10", "1e999"],
)
def test_parse_number_refuses_every_other_spelling(text, integer):
    with pytest.raises(ValueError, match="^expected an? (integer|finite number), got "):
        parse_number(text, integer)


def test_parse_number_refuses_decimals_where_an_integer_is_expected():
    for text in ("1.0", "1e3", "9" * 4301):
        with pytest.raises(ValueError, match="^expected an integer, got "):
            parse_number(text, integer=True)


def test_holdout_list_reads_pairs_with_comments_and_commas(tmp_path):
    path = tmp_path / "holdout.txt"
    path.write_bytes(b"# cells\n4 8\n\n12,16  # trailing\r\n4\t8\n4 , 8\n2 ,3\n5,\t6\n")
    assert read_holdout_list(path) == {(4, 8), (12, 16), (2, 3), (5, 6)}
    for line in ("4 8 12", "4,,8", ",4 8", "4 8,", "4 , , 8", "4,8,", "4, ,8"):
        path.write_text(f"# cells\n4 8\n{line}\n")
        with pytest.raises(CyclecastError, match=f"^{re.escape(str(path))}:3: expected 'mappers "):
            read_holdout_list(path)
