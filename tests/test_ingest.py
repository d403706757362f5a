import io

import pytest
from hypothesis import given, strategies as st

from cyclecast.core import CyclecastError, MachineTrace
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
    parse_trace_csv,
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
    assert traces[0].offsets == (0, 1)
    assert traces[0].samples == (0.5, 1.5)
    assert traces[1] == MachineTrace("node-b", (0,), (1.0,))


def test_header_only_stream():
    assert parse_trace_csv(io.StringIO("machine_id,offset_s,cpu_seconds\n")) == ([], [])


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
    original = [MachineTrace("m-0", sorted(offsets[:n]), values[:n])]
    buffer = io.StringIO()
    write_trace_csv(original, buffer)
    parsed, warnings = parse_trace_csv(io.StringIO(buffer.getvalue()))
    assert warnings == [] or all(
        w.kind is WarningKind.GAP_EXCEEDS_THRESHOLD for w in warnings
    )
    assert parsed == original


def test_write_orders_machines_lexicographically():
    traces = [
        MachineTrace("zz", (0,), (1.0,)),
        MachineTrace("aa", (0,), (2.0,)),
    ]
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
    assert [m.machine_id for m in cluster.machines] == ["node-a", "node-b", "node-c"]
    assert cluster.machine("node-a").clock_hz == 3.0e9
    assert cluster.machine("node-b").clock_hz == 2.0e9
    assert cluster.machine("node-c").cores == 8


@pytest.mark.parametrize(
    "line",
    ["node-a 3e9", "node-a 3e9 4 junk", "bad id 3e9 4", "node-a hz 4", "node-a 3e9 x", "node-a 3e9 0", "node-a inf 4",
     "node-a 1e999 4", "node-a 3e9 1_6", "node-a 3_0e9 4", "node-a \u0663e9 4", "node-a 3e9 +4",
     pytest.param("node-a 3e9 " + "1" * 4301, id="node-a 3e9 <4301 digits>")],
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
