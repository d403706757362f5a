import io
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import oracle
from oracle import segments, trace_set

from cyclecast import ingest
from cyclecast.core import ClusterSpec, CyclecastError, TraceSet, total_cpu_cycles
from cyclecast.ingest import (
    DuplicateMachineIdError,
    DuplicateSampleError,
    MalformedEntryError,
    MalformedHeaderError,
    MalformedRowError,
    NegativeCpuSecondsError,
    NonPositiveClockError,
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


def _outcome(text):
    """What parse_trace_csv makes of text: segments and warnings, or its error.

    The segments are compared by repr, which tells -0.0 from 0.0.
    """
    try:
        traces, warnings = parse_trace_csv(io.StringIO(text))
    except CyclecastError as exc:
        return type(exc), str(exc)
    return repr(segments(traces)), warnings


def _row_loop_outcome(text):
    with mock.patch.object(ingest, "_fast_columns", return_value=None):
        return _outcome(text)


# Fields in the fast grammar; valid fields outside it, which the row loop
# still parses; and bad fields of every kind.
_FAST_OFFSETS = st.integers(0, 30).map(str) | st.sampled_from(["007", "9" * 18])
_SLOW_OFFSETS = st.just("-0") | st.integers(19, 4300).map(lambda n: "1" + "0" * (n - 1))
_BAD_OFFSETS = st.sampled_from(["-1", "\u0665", "1_0", "+5", " 5", "", "1" * 4301])
_FAST_CPUS = st.floats(0.0, 16.0).map(repr) | st.sampled_from([".5", "2.", "1E3", "3e-2"])
_SLOW_CPUS = st.just("-0.0")
_BAD_CPUS = st.sampled_from(["1e999", "-0.5", "nan", "inf", "1_0.5", "\u0665", ""])
_MACHINES = st.sampled_from(["node-a", "node-b", "b_1"])


@st.composite
def _bodies(draw, modes=("fast", "documented", "any")):
    """Rows that interleave machines and repeat or misorder offsets.

    A body keeps to the fast grammar, or to the documented one, or mixes
    in bad fields, stray text and CRLF line ends.  The last line may lack
    its end; no rows at all is a header-only body.
    """
    mode = draw(st.sampled_from(modes))
    offsets, cpus, end = _FAST_OFFSETS, _FAST_CPUS, st.just("\n")
    if mode != "fast":
        offsets = st.one_of(offsets, offsets, _SLOW_OFFSETS)
        cpus = st.one_of(cpus, cpus, _SLOW_CPUS)
    if mode == "any":
        offsets = st.one_of(offsets, offsets, _BAD_OFFSETS)
        cpus = st.one_of(cpus, cpus, _BAD_CPUS)
        end = st.sampled_from(["\n", "\n", "\n", "\r\n"])
    row = st.tuples(_MACHINES, offsets, cpus).map(",".join)
    if mode == "any":
        row = st.one_of(row, row, st.text(max_size=6), st.just("bad id,0,1.0"))
    rows = draw(st.lists(row, max_size=10))
    ends = [draw(end) for _ in rows]
    if rows and draw(st.booleans()):
        ends[-1] = ""
    return "".join(row + end for row, end in zip(rows, ends))


@given(_bodies(), st.integers(1, 64))
def test_fast_path_agrees_with_the_row_loop(body, chunk_chars):
    # A small chunk size puts chunk boundaries inside these short bodies.
    with mock.patch.object(ingest, "_CHUNK_CHARS", chunk_chars):
        assert _outcome(HEADER + body) == _row_loop_outcome(HEADER + body)


@pytest.mark.parametrize(
    "body",
    [
        "node-a,-0,1.0\n",
        "node-a,0,-0.0\n",
        "node-a,1000000000000000000,1.0\n",
        "node-a,x,1.0\n",
        "node-a,0,1e999\n",
        "node-a,3,0.5\nnode-b,3,0.5\nnode-a,3,0.6\n",
        "node-a,0,1.0\r\n",
        "node-a,0,1.0\n\n",
    ],
    ids=["negative-zero-offset", "negative-zero-cpu", "19-digit-offset", "malformed",
         "infinite-cpu", "duplicate", "crlf", "empty-line"],
)
def test_each_fallback_trigger_reaches_the_row_loop(body):
    assert ingest._fast_columns(HEADER + body) is None
    assert _outcome(HEADER + body) == _row_loop_outcome(HEADER + body)


@pytest.mark.parametrize(
    "body",
    ["", GOOD_CSV[len(HEADER):], "node-a,999999999999999999,1e-3", "n,2,.5\nn,0,2.\nm,1,1E3\n"],
    ids=["header-only", "good", "18-digit-offset-unterminated", "exponents"],
)
def test_good_bodies_take_the_fast_path(body):
    assert ingest._fast_columns(HEADER + body) is not None
    assert _outcome(HEADER + body) == _row_loop_outcome(HEADER + body)


@given(_bodies(modes=("fast",)))
def test_fast_traces_equal_their_checked_rebuilds(body):
    # The fast path's columns pass the set's checks as they are: one
    # segment per machine, ids sorted and unique, and a set rebuilt from
    # its own columns holds the same segments.
    columns = ingest._fast_columns(HEADER + body)
    if columns is None:
        return  # declined: the row loop's columns are checked the same way
    traces = TraceSet(*columns)
    assert list(traces.machine_ids) == sorted(set(traces.machine_ids))
    assert all(len(segment.samples) for segment in traces)
    rebuilt = TraceSet(traces.machine_ids, traces.ends, traces.offsets, traces.samples)
    assert repr(segments(rebuilt)) == repr(segments(traces))
    assert repr(segments(traces)) == repr(segments(parse_trace_csv(io.StringIO(HEADER + body))[0]))


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
    assert _outcome(HEADER + body) == _row_loop_outcome(HEADER + body)
    traces, _ = parse_trace_csv(io.StringIO(HEADER + body))
    assert [t.offsets.tolist() for t in traces] == [[2, 3, 4], [0, 2]]


def test_many_chunks_agree_with_the_row_loop():
    rows = [f"m{i % 7},{i // 7},{i * 0.37 % 4!r}" for i in range(40_000)]
    text = HEADER + "\n".join(reversed(rows)) + "\n"
    assert len(text) > 3 * ingest._CHUNK_CHARS
    assert ingest._fast_columns(text) is not None
    assert _outcome(text) == _row_loop_outcome(text)


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
        (parse_cluster_spec, b"# caf\xe9\nnode-a 3e9 4\n", MalformedEntryError, 1),
        (parse_cluster_spec, CLUSTER_TEXT.encode() + b"\x80", MalformedEntryError, 6),
    ],
    ids=["trace-row", "trace-header", "cluster-comment", "cluster-tail"],
)
def test_invalid_utf8_is_a_typed_error_naming_its_line(parse, data, error, line):
    with pytest.raises(error, match=f"^line {line}: not UTF-8 "):
        parse(io.BytesIO(data))


def _cluster_outcome(text):
    """What parse_cluster_spec makes of text: the spec's columns, or its error."""
    try:
        return _parse_cluster_columns(io.StringIO(text))
    except CyclecastError as exc:
        return type(exc), str(exc)


def _line_loop_cluster_outcome(text):
    with mock.patch.object(ingest, "_fast_cluster", return_value=None):
        return _cluster_outcome(text)


_SPEC_IDS = st.sampled_from(["node-a", "node-b", "b_1", "N9", "-"])
_FAST_CLOCKS = st.floats(1e-3, 1e12).map(repr) | st.sampled_from(["3e9", "2.", ".5", "2.4E9", "1e-3"])
_FAST_CORES = st.integers(1, 10**18 - 1).map(str)
# Clocks and cores the fast path declines, valid or not.
_ODD_CLOCKS = ["0", "0.0", "1e-400", "1e999", "-3e9", "-0", "inf", "nan", "3_0e9", "+3e9",
               "\u0663e9", "x"]
_ODD_CORES = ["04", "0", "00", "-1", "1" + "0" * 18, "1_6", "+4", "\u0664", "1.0", "1" * 4301]
_COMMENTS = st.sampled_from(["# inventory", "#", "#  a\tb # c", "#\u2028\x85\r"])


@st.composite
def _specs(draw):
    """Cluster specs in the fast grammar, or with its decline triggers mixed in.

    Ids repeat now and then, and a spec may have no entries at all.
    """
    fast = draw(st.booleans())
    clocks, cores, space, end = _FAST_CLOCKS, _FAST_CORES, st.just(" "), st.just("\n")
    if not fast:
        clocks = st.one_of(clocks, clocks, st.sampled_from(_ODD_CLOCKS))
        cores = st.one_of(cores, cores, st.sampled_from(_ODD_CORES))
        space = st.sampled_from([" ", " ", " ", "\t", "  ", " \t"])
        end = st.sampled_from(["\n", "\n", "\n", "\r\n", " # note\n", "#\n", " \n"])
    entry = st.tuples(_SPEC_IDS, space, clocks, space, cores).map("".join)
    line = st.one_of(entry, entry, entry, _COMMENTS)
    if not fast:
        line = st.one_of(
            line, st.sampled_from(["", "   ", " # indented", "node-a 3e9", "bad id 3e9 4"]),
            st.text(max_size=6),
        )
    lines = draw(st.lists(line, max_size=8))
    ends = [draw(end) for _ in lines]
    if lines and not fast and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


@given(_specs())
@settings(max_examples=200)
def test_cluster_fast_path_agrees_with_the_line_loop(text):
    assert _cluster_outcome(text) == _line_loop_cluster_outcome(text)


def test_large_specs_agree_with_the_line_loop():
    # Past 1,000 rows numpy elides an array's repr; the columns compare whole.
    lines = [f"m{i} {1e9 + i * 0.5!r} {i % 64 + 1}\n" for i in range(3000)]
    text = "".join(lines)
    assert ingest._fast_cluster(text) is not None
    assert _cluster_outcome(text) == _line_loop_cluster_outcome(text)
    lines[2000] = "m1500 2e9 4\n"
    outcome = _cluster_outcome("".join(lines))
    assert outcome == (DuplicateMachineIdError, "line 2001: duplicate machine_id 'm1500'")


@pytest.mark.parametrize(
    "text",
    [
        "node-a\t3e9 4\n",
        "node-a  3e9 4\n",
        "node-a 3e9 4 # spare\n",
        "node-a 3e9 4\r\n",
        "node-a 3e9 4",
        "node-a 3e9 04\n",
        "node-a 3e9 1000000000000000000\n",
        "node-a 0 4\n",
        "node-a 1e-400 4\n",
        "node-a 1e999 4\n",
        "node-a -3e9 4\n",
        "m 1e9 1\nm 2e9 1\n",
        "",
        "# only comments\n",
        "node-a 3e9 4\n\n",
        " # indented\nnode-a 3e9 4\n",
        "node-a 3e9\n",
        "node-\u00e9 3e9 4\n",
    ],
    ids=["tab", "two-spaces", "trailing-comment", "crlf", "no-final-newline", "leading-zero-cores",
         "19-digit-cores", "zero-clock", "clock-underflows-to-zero", "infinite-clock",
         "negative-clock", "duplicate-id", "empty", "no-entries", "blank-line",
         "indented-comment", "two-fields", "non-ascii-id"],
)
def test_each_cluster_decline_trigger_reaches_the_line_loop(text):
    assert ingest._fast_cluster(text) is None
    assert _cluster_outcome(text) == _line_loop_cluster_outcome(text)


@pytest.mark.parametrize(
    "text",
    [
        "node-a 3.0e9 4\nnode-b 2000000000 2\n",
        "# machine_id clock_hz cores\nnode-01 2000000000.0 4\nnode-02 2400000000.0 8\n",
        "#\na .5 1\n# between\nb 2. 999999999999999999\n#last\n",
        "n_1 2.4E9 16\nn-2 1e-3 3\nN3 3e+9 1\n",
    ],
    ids=["plain", "header-comment", "comments-between", "exponents"],
)
def test_canonical_specs_take_the_cluster_fast_path(text):
    cluster = ingest._fast_cluster(text)
    assert cluster is not None
    assert _cluster_outcome(text) == _line_loop_cluster_outcome(text)
    assert cluster.clock_hz.dtype == np.float64 and cluster.cores.dtype == np.int64
    assert not (cluster.clock_hz.flags.writeable or cluster.cores.flags.writeable)


@given(
    st.lists(st.from_regex(r"[A-Za-z0-9_-]{1,8}", fullmatch=True), min_size=1, max_size=8, unique=True),
    st.data(),
)
def test_fast_machines_equal_their_checked_rebuilds(ids, data):
    lines = [f"{i} {data.draw(_FAST_CLOCKS)} {data.draw(_FAST_CORES)}\n" for i in ids]
    cluster = ingest._fast_cluster("".join(lines))
    assert cluster is not None
    rebuilt = ClusterSpec(*_columns(cluster))
    assert _columns(rebuilt) == _columns(cluster) == _line_loop_cluster_outcome("".join(lines))
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
    path.write_bytes(b"# cells\n4 8\n\n12,16  # trailing\r\n4\t8\n")
    assert read_holdout_list(path) == {(4, 8), (12, 16)}
    path.write_text("4 8 12\n")
    with pytest.raises(CyclecastError, match=f"^{re.escape(str(path))}:1: expected 'mappers "):
        read_holdout_list(path)
