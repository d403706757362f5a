"""Every reader of a user's file is total over bytes.

Each either parses what it is given or raises a CyclecastError, whatever
the bytes: never a bare ValueError, OverflowError or other crash.  A body
is arbitrary bytes, or a valid input of the reader's format with up to
three stretches replaced by awkward bytes.  Model documents are drawn
field by field, with numbers of every awkward size.  Run-store bodies
are canonical lines, so that the columnar fast path is reached, and each
is read again through the line loop.
"""

import io
import json
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from oracle import record

from cyclecast import store
from cyclecast.core import CyclecastError
from cyclecast.ingest import TRACE_HEADER, parse_cluster_spec, parse_trace_csv, read_holdout_list

# Bytes that sit near the edges of the grammars: separators, signs,
# bytes that are not UTF-8, the line breaks str.splitlines knows, and
# integers past int64 and past int()'s 4300-digit limit.
_SPLICES = st.binary(max_size=4) | st.sampled_from([
    b"\n", b"\r\n", b",", b" ", b"\t", b"#", b'"', b"\\", b"{", b"}", b"[", b"-", b".",
    b"e", b"E+", b"0", b"\xff", b"\xc3", b"\xc2\x85", b"\xe2\x80\xa8", b"1e999",
    b"9" * 19, b"9" * 400, b"9" * 4301,
])


@st.composite
def _spliced(draw, bodies):
    """A body with up to three short stretches replaced by splices."""
    body = bytearray(draw(bodies))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(body)))
        body[at : at + draw(st.integers(0, 4))] = draw(_SPLICES)
    return bytes(body)


def _joined(lines):
    return lines.map(lambda parts: "".join(parts).encode("utf-8"))


_NAMES = st.sampled_from(["node-a", "node-b", "n_1", "x"])
_DECIMALS = st.from_regex(r"-?[0-9]{1,3}(\.[0-9]{0,3})?([eE][+-]?[0-9]{1,3})?", fullmatch=True)
_INTS = st.integers(-2, 30).map(str)

_TRACES = _joined(st.tuples(
    st.just(TRACE_HEADER + "\n"),
    st.lists(st.builds("{},{},{}\n".format, _NAMES, _INTS, _DECIMALS), max_size=12)
    .map("".join),
))
_CLUSTERS = _joined(st.lists(st.builds("{} {} {}\n".format, _NAMES, _DECIMALS, _INTS), max_size=6))
_HOLDOUTS = _joined(st.lists(
    st.builds("{}{}{}\n".format, _INTS, st.sampled_from([" ", ",", ", ", "\t"]), _INTS)
    | st.sampled_from(["# a comment\n", "\n", "4 8 # trailing\n"]),
    max_size=6,
))

_COUNTS = st.integers(1, 10**18 - 1) | st.integers(1, 2**63 - 1)
_RUNS = st.tuples(
    st.sampled_from(["sort", "grep", "ré", 'a"b']),
    st.from_regex(r"[a-z0-9-]{1,8}", fullmatch=True),
    _COUNTS,
    _COUNTS,
    _COUNTS,
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)
# Canonical store lines, as append_runs writes them.
_STORES = st.lists(_RUNS, max_size=8).map(lambda runs: "".join(
    json.dumps(record(*run), separators=(",", ":")) + "\n" for run in runs
).encode("ascii"))

# The texts of JSON numbers a model's fields may hold: in the float
# range, integers past int64 and past the float range, and the NaN and
# Infinity that json.loads takes.  _VALUES adds other types, and an
# integer past int()'s 4300-digit limit.
_NUMBERS = st.one_of(
    st.floats(min_value=1.0, max_value=1e12).map(repr),
    st.integers(1, 2**64).map(str),
    st.just("9" * 400),
    st.floats().map(json.dumps),
)
_VALUES = _NUMBERS | st.sampled_from(["-1", "0", "true", "null", '"1"', "[]", "9" * 4301])


@st.composite
def _models(draw):
    """A model document whose number fields are drawn from _NUMBERS and _VALUES."""
    coeffs = draw(st.lists(_NUMBERS, min_size=5, max_size=5) | st.lists(_VALUES, max_size=6))
    fields = {
        "basis": '"quad-mr-v1"',
        "app": '"sort"',
        "a": "[" + ",".join(coeffs) + "]",
        "condition": draw(_VALUES),
        "residual": draw(_VALUES),
        "ref_input_bytes": draw(_VALUES),
    }
    if draw(st.booleans()):
        section = {key: draw(_VALUES) for key in ("slope", "intercept")}
        section["ref_bytes"] = draw(st.just(fields["ref_input_bytes"]) | _VALUES)
        fields["scaling"] = "{" + ",".join(f'"{k}":{v}' for k, v in section.items()) + "}"
    return ("{" + ",".join(f'"{k}":{v}' for k, v in fields.items()) + "}").encode("utf-8")


def _load_runs_both_ways(path):
    store.load_runs(path, app="sort")
    with mock.patch.object(store, "_fast_columns", return_value=None):
        store.load_runs(path, app="sort")


READERS = {
    "parse_trace_csv": (lambda path: parse_trace_csv(io.BytesIO(path.read_bytes())), _TRACES),
    "parse_cluster_spec": (
        lambda path: parse_cluster_spec(io.BytesIO(path.read_bytes())), _CLUSTERS
    ),
    "load_runs": (_load_runs_both_ways, _STORES),
    "load_model": (store.load_model, _models()),
    "read_holdout_list": (read_holdout_list, _HOLDOUTS),
}


@pytest.mark.parametrize("name", sorted(READERS))
@given(st.data())
@settings(max_examples=200, deadline=None)
def test_reader_parses_or_raises_a_typed_error(name, data):
    read, valid = READERS[name]
    body = data.draw(st.binary(max_size=64) | _spliced(valid), label="body")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(body)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                read(path)
            except CyclecastError:
                pass
