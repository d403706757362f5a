import dataclasses
import fcntl
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracle import record, rows, table

from cyclecast import store
from cyclecast.core import CyclecastError, RunTable, check_text
from cyclecast.regression import CostModel
from cyclecast.store import (
    CorruptRecordError,
    IoFailureError,
    TornRecordWarning,
    UnsupportedSchemaError,
    append_runs,
    load_model,
    load_runs,
    save_model,
)

_COUNT_FIELDS = ("mappers", "reducers", "input_bytes")


def _rows(n=3, app="sort"):
    """n run rows of app: (app, run_id, mappers, reducers, input_bytes, total_cycles)."""
    return [
        # Awkward float on purpose: round-tripping must not lose bits.
        (app, f"{app}-{i}", 4 * (i + 1), 2, 2**30, 1.1e12 / 3.0 * (i + 1))
        for i in range(n)
    ]


def _runs(n=3, app="sort"):
    return table(RunTable, _rows(n, app))


def test_append_and_load_round_trip(tmp_path):
    path = tmp_path / "runs.jsonl"
    assert append_runs(path, _runs()) == 3
    assert rows(load_runs(path)) == _rows()


def test_appends_accumulate_in_order(tmp_path):
    path = tmp_path / "runs.jsonl"
    append_runs(path, _runs(2))
    append_runs(path, _runs(2, app="grep"))
    assert load_runs(path).apps == ("sort", "sort", "grep", "grep")


def test_app_filter(tmp_path):
    path = tmp_path / "runs.jsonl"
    append_runs(path, table(RunTable, _rows(2) + _rows(3, app="grep")))
    assert len(load_runs(path, app="grep")) == 3
    assert rows(load_runs(path, app="nope")) == []


def test_append_nothing_touches_nothing(tmp_path):
    path = tmp_path / "runs.jsonl"
    assert append_runs(path, _runs(0)) == 0
    assert not path.exists()


def test_record_key_order_is_canonical(tmp_path):
    path = tmp_path / "runs.jsonl"
    append_runs(path, _runs(1))
    line = path.read_text().splitlines()[0]
    assert list(json.loads(line)) == [
        "schema_version",
        "app",
        "run_id",
        "mappers",
        "reducers",
        "input_bytes",
        "total_cycles",
    ]
    assert line.startswith('{"schema_version":1,')


def test_total_cycles_round_trip_is_bit_exact(tmp_path):
    path = tmp_path / "runs.jsonl"
    append_runs(path, _runs(5))
    assert load_runs(path).total_cycles.tolist() == [row[5] for row in _rows(5)]


def test_load_missing_file(tmp_path):
    with pytest.raises(IoFailureError):
        load_runs(tmp_path / "absent.jsonl")


def test_corrupt_line_reports_its_number(tmp_path):
    path = tmp_path / "runs.jsonl"
    append_runs(path, _runs(2))
    with open(path, "a") as handle:
        handle.write("{not json\n")
    with pytest.raises(CorruptRecordError, match="line 3"):
        load_runs(path)


def test_torn_last_line_is_skipped_with_a_warning(tmp_path):
    path = tmp_path / "runs.jsonl"
    append_runs(path, _runs(2))
    with open(path, "a") as handle:
        handle.write('{"schema_version":1,"app":"a","run_')
    with pytest.warns(TornRecordWarning, match="line 3"):
        assert rows(load_runs(path)) == _rows(2)


def test_append_drops_a_torn_last_line_with_a_warning(tmp_path):
    path = tmp_path / "runs.jsonl"
    append_runs(path, _runs(2))
    with open(path, "a") as handle:
        handle.write('{"schema_version":1,"app":"a","run_')
    with pytest.warns(TornRecordWarning, match="dropped line 3"):
        append_runs(path, _runs(1, app="grep"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rows(load_runs(path)) == _rows(2) + _rows(1, app="grep")


def test_append_terminates_a_complete_last_record(tmp_path):
    path = tmp_path / "runs.jsonl"
    path.write_text(json.dumps(record(*_rows(1)[0])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        append_runs(path, _runs(1, app="grep"))
        assert rows(load_runs(path)) == _rows(1) + _rows(1, app="grep")


def test_corrupt_line_before_the_tail_stays_an_error(tmp_path):
    path = tmp_path / "runs.jsonl"
    path.write_text("{not json\n")
    append_runs(path, _runs(1))
    with open(path, "a") as handle:
        handle.write('{"schema_version":1,"app":"a","run_')
    with pytest.raises(CorruptRecordError, match="line 1"):
        load_runs(path)


_LINE_SEPARATORS = pytest.mark.parametrize(
    "separator", ["\x85", "\u2028", "\u2029"], ids=["U+0085", "U+2028", "U+2029"]
)


@_LINE_SEPARATORS
@pytest.mark.parametrize("field", ["app", "run_id"])
def test_unicode_line_separators_inside_strings_load(tmp_path, separator, field):
    # JSON allows these raw inside strings; only LF ends a store line.
    value = f"a{separator}b"
    path = tmp_path / "runs.jsonl"
    path.write_text(_line(_rows(1)[0], ensure_ascii=False, **{field: value}), encoding="utf-8")
    assert getattr(load_runs(path), f"{field}s") == (value,)


@_LINE_SEPARATORS
def test_a_bad_line_after_a_unicode_separator_is_named_at_its_line(tmp_path, separator):
    path = tmp_path / "runs.jsonl"
    first = _line(_rows(1)[0], ensure_ascii=False, app=f"a{separator}b")
    path.write_text(first + _line(_rows(1)[0]) + "{not json\n", encoding="utf-8")
    with pytest.raises(CorruptRecordError, match="^line 3: invalid JSON"):
        load_runs(path)


def test_missing_key_is_corrupt(tmp_path):
    path = tmp_path / "runs.jsonl"
    obj = record(*_rows(1)[0])
    del obj["mappers"]
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(CorruptRecordError, match="mappers"):
        load_runs(path)


def test_wrong_type_is_corrupt(tmp_path):
    path = tmp_path / "runs.jsonl"
    path.write_text(json.dumps({**record(*_rows(1)[0]), "mappers": "four"}) + "\n")
    with pytest.raises(CorruptRecordError):
        load_runs(path)


def test_future_schema_version_is_refused(tmp_path):
    path = tmp_path / "runs.jsonl"
    path.write_text(json.dumps({**record(*_rows(1)[0]), "schema_version": 999}) + "\n")
    with pytest.raises(UnsupportedSchemaError):
        load_runs(path)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"app": 5}, "app must be a str, got int"),
        ({"run_id": ""}, "run_id must be non-empty"),
        ({"mappers": True}, "mappers must be an int, got bool"),
        ({"total_cycles": "1"}, "total_cycles must be a number, got str"),
        ({"total_cycles": 10**400}, "total_cycles is too large for a float"),
    ],
)
def test_a_record_field_is_held_to_the_rule_of_its_kind(tmp_path, change, message):
    path = tmp_path / "runs.jsonl"
    path.write_text(json.dumps({**record(*_rows(1)[0]), **change}) + "\n")
    with pytest.raises(CorruptRecordError, match=f"^line 1: {message}$"):
        load_runs(path)


MODEL = CostModel(
    app="sort",
    a=(1.0e12 / 3.0, 2.0e10, 3.0e8 / 7.0, 4.0e10, 5.0e8),
    condition_estimate=31.0919,
    training_residual=1.5e7 / 3.0,
    ref_input_bytes=12 * 2**30,
)
SIZED = dataclasses.replace(MODEL, line=(1.0e3 / 7.0, 1.0e11))


def test_model_round_trip_without_scaling(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, MODEL)
    loaded = load_model(path)
    assert loaded == MODEL
    assert loaded.line is None


def test_model_round_trip_with_scaling(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, SIZED)
    assert load_model(path) == SIZED


def test_a_model_name_of_251_bytes_saves_and_loads_back(tmp_path):
    # The name of a temporary does not grow with the model's: a temporary
    # named after it would pass the 255 bytes a file name may take.
    path = tmp_path / ("m" * 246 + ".json")
    save_model(path, SIZED)
    assert load_model(path) == SIZED
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_model_document_shape(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, MODEL)
    doc = json.loads(path.read_text())
    assert set(doc) == {"basis", "app", "a", "condition", "residual", "ref_input_bytes"}
    assert doc["basis"] == "quad-mr-v1"
    assert len(doc["a"]) == 5


def test_model_with_wrong_coefficient_count_is_corrupt(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, MODEL)
    doc = json.loads(path.read_text())
    doc["a"] = doc["a"][:4]
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptRecordError):
        load_model(path)


def test_model_with_unknown_basis_is_corrupt(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, MODEL)
    doc = json.loads(path.read_text())
    doc["basis"] = "cubic-mr-v2"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptRecordError):
        load_model(path)


def test_model_with_invalid_scaling_section_is_corrupt(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, MODEL)
    doc = json.loads(path.read_text())
    # The section is optional, but when present it is an object.
    for section, message in [
        ({"slope": -1.0, "intercept": 0.0, "ref_bytes": 100}, "size line is anchored at 100"),
        ({"slope": -1.0, "intercept": 0.0, "ref_bytes": 12 * 2**30}, "size line evaluates to"),
        (None, "key 'scaling' must be an object"),
    ]:
        doc["scaling"] = section
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptRecordError, match=f"^{_named(path)}: {message}"):
            load_model(path)


@pytest.mark.parametrize("document", ["[]", "null", "5", '"model"'])
def test_a_model_file_that_is_not_a_json_object_is_corrupt(tmp_path, document):
    path = tmp_path / "model.json"
    path.write_text(document)
    with pytest.raises(CorruptRecordError, match=f"^{_named(path)}: not a JSON object$"):
        load_model(path)

def test_model_with_an_empty_app_is_corrupt(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, MODEL)
    doc = json.loads(path.read_text())
    doc["app"] = ""
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptRecordError, match=f"^{_named(path)}: app must be non-empty$"):
        load_model(path)


def test_model_not_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("}{")
    with pytest.raises(CorruptRecordError):
        load_model(path)


def test_model_missing_file(tmp_path):
    with pytest.raises(IoFailureError):
        load_model(tmp_path / "absent.json")


@pytest.mark.parametrize(
    "change",
    [
        {"ref_input_bytes": None},
        {"scaling": {"slope": 1.0e3, "intercept": 1.0e11, "ref_bytes": 6 * 2**30}},
    ],
    ids=["null-reference", "scaling-elsewhere"],
)
def test_model_without_one_reference_size_is_corrupt(tmp_path, change):
    path = tmp_path / "model.json"
    save_model(path, MODEL)
    doc = json.loads(path.read_text())
    doc.update(change)
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptRecordError):
        load_model(path)


def test_invalid_utf8_in_the_store_names_its_line(tmp_path):
    path = tmp_path / "runs.jsonl"
    append_runs(path, _runs(2))
    with open(path, "ab") as handle:
        handle.write(b'{"schema_version":1,"app":"\xff"}\n')
    with pytest.raises(CorruptRecordError, match="line 3: not UTF-8"):
        load_runs(path)


def test_invalid_utf8_in_a_model_names_its_file(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, MODEL)
    path.write_bytes(path.read_bytes().replace(b'"sort"', b'"s\xffrt"'))
    with pytest.raises(CorruptRecordError, match=f"{path}: not UTF-8"):
        load_model(path)


def _model_with(path, field, text):
    """Save SIZED at path, then spell field's number as text.

    field is a top-level key or "scaling.<key>"; for "a" the middle
    coefficient is replaced.
    """
    save_model(path, SIZED)
    doc = json.loads(path.read_text())
    section, _, key = field.rpartition(".")
    holder = doc[section] if section else doc
    if key == "a":
        holder, key = holder["a"], 2
    holder[key] = "@"
    path.write_text(json.dumps(doc).replace('"@"', text))


def _named(path):
    return re.escape(str(path))


_FLOAT_FIELDS = ["a", "condition", "residual", "scaling.slope", "scaling.intercept"]
_SIZE_FIELDS = ["ref_input_bytes", "scaling.ref_bytes"]


@pytest.mark.parametrize("field", _FLOAT_FIELDS)
def test_an_integer_beyond_the_float_range_is_corrupt(tmp_path, field):
    path = tmp_path / "model.json"
    _model_with(path, field, "1" + "0" * 400)
    with pytest.raises(CorruptRecordError, match=f"^{_named(path)}: .* is too large for a float$"):
        load_model(path)


@pytest.mark.parametrize("text", ["Infinity", "1e999", "NaN"])
def test_a_condition_that_is_not_finite_is_corrupt(tmp_path, text):
    path = tmp_path / "model.json"
    _model_with(path, "condition", text)
    with pytest.raises(
        CorruptRecordError, match=f"^{_named(path)}: condition_estimate must be finite and > 0"
    ):
        load_model(path)


@pytest.mark.parametrize("field", _FLOAT_FIELDS + _SIZE_FIELDS)
def test_an_integer_beyond_int_s_digit_limit_is_corrupt(tmp_path, field):
    path = tmp_path / "model.json"
    _model_with(path, field, "9" * 4301)
    with pytest.raises(CorruptRecordError, match=f"^{_named(path)}: not valid JSON: "):
        load_model(path)


@pytest.mark.parametrize("field", _SIZE_FIELDS)
@pytest.mark.parametrize("size", [2**63, 10**400], ids=["2**63", "10**400"])
def test_a_reference_size_of_2_63_or_more_is_corrupt(tmp_path, field, size):
    path = tmp_path / "model.json"
    _model_with(path, field, str(size))
    # The model's own size breaks the count rule; the section's breaks its anchor.
    if field == "ref_input_bytes":
        message = r"ref_input_bytes must be < 2\*\*63, got "
    else:
        message = f"size line is anchored at {size} bytes, not ref_input_bytes "
    with pytest.raises(CorruptRecordError, match=f"^{_named(path)}: {message}"):
        load_model(path)


def test_the_largest_reference_size_loads(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, SIZED)
    path.write_text(path.read_text().replace(str(SIZED.ref_input_bytes), str(2**63 - 1)))
    assert json.loads(path.read_text())["scaling"]["ref_bytes"] == 2**63 - 1
    model = load_model(path)
    assert model.ref_input_bytes == 2**63 - 1
    assert model.line == SIZED.line


# Each CostModel field in the forms a caller may hand it: Python and
# numpy ints and floats.  _REFUSED adds what a number field refuses.
def _forms(values, *casts):
    return st.tuples(values, st.sampled_from(casts)).map(lambda pair: pair[1](pair[0]))


def _reals_from(least, exclude_min=False):
    """Finite numbers >= least (> least if exclude_min), least 0 or -inf."""
    f32 = float(np.finfo(np.float32).max)
    lowest = -(2**64) if least < 0 else int(exclude_min)
    return (
        _forms(st.floats(max(least, -1e300), 1e300, exclude_min=exclude_min), float, np.float64)
        | st.floats(max(least, -f32), f32, width=32, exclude_min=exclude_min).map(np.float32)
        | _forms(st.integers(lowest, 2**64), int, np.float64)
        | st.integers(max(lowest, -(2**63)), 2**63 - 1).map(np.int64)
    )


_REFUSED = st.sampled_from(
    [True, np.bool_(False), "1.0", b"1", None, math.nan, math.inf, -math.inf, np.float64("nan"),
     10**400]
)
_COEFFS = st.lists(_reals_from(-math.inf), min_size=5, max_size=5)
_SIZES = _forms(st.integers(1, 2**63 - 1), int, np.int64, np.uint64)
# Per field: (valid values, refused values, the start of a refusal's message).
_MODEL_FIELDS = {
    "app": (st.text(min_size=1), st.sampled_from(["", b"sort", 5, None, True]), "app "),
    "a": (
        st.one_of(_COEFFS.map(tuple), _COEFFS, _COEFFS.map(lambda a: np.array(a, dtype=float))),
        st.tuples(_COEFFS, st.integers(0, 4), _REFUSED).map(
            lambda d: tuple(d[0][: d[1]] + [d[2]] + d[0][d[1] + 1 :])
        ),
        "a ",
    ),
    "condition_estimate": (
        _reals_from(0.0, exclude_min=True),
        _REFUSED | st.sampled_from([0, 0.0, -1.0, np.float32(-2)]),
        "condition_estimate ",
    ),
    "training_residual": (
        _reals_from(0.0),
        _REFUSED | st.sampled_from([-1, -1e-300, np.int64(-3)]),
        "training_residual ",
    ),
    "ref_input_bytes": (
        _SIZES,
        _REFUSED | st.sampled_from([0, -1, 2**63, 2**64, 1.5e9, float(2**30), np.float64(3)]),
        "ref_input_bytes ",
    ),
    # A non-negative slope and positive intercept keep the line positive
    # at every reference size.
    "line": (
        st.none() | st.tuples(_reals_from(0.0), _reals_from(0.0, exclude_min=True)),
        st.tuples(_reals_from(0.0), _REFUSED) | st.tuples(_REFUSED, _reals_from(0.0, exclude_min=True)),
        "size line ",
    ),
}


@st.composite
def _model_fields(draw):
    """Every field valid in one of its forms, and at most one, named, refused."""
    fields = {name: draw(valid) for name, (valid, _, _) in _MODEL_FIELDS.items()}
    refused = draw(st.none() | st.sampled_from(sorted(_MODEL_FIELDS)))
    if refused is not None:
        fields[refused] = draw(_MODEL_FIELDS[refused][1])
    return fields, refused


def _motivating(**change):
    return {**dataclasses.asdict(SIZED), **change}


@given(_model_fields())
@example(({**_motivating(ref_input_bytes=1.5e9), "line": None}, "ref_input_bytes"))
@example((_motivating(ref_input_bytes=True), "ref_input_bytes"))
@example((_motivating(condition_estimate=True), "condition_estimate"))
@example((_motivating(ref_input_bytes=np.int64(2**30)), None))
@example((_motivating(training_residual=np.float32(0)), None))
@example((_motivating(training_residual=2**53 + 1), None))
@settings(deadline=None)
def test_a_model_that_constructs_saves_and_loads_back(drawn):
    fields, refused = drawn
    if refused is not None:
        with pytest.raises((TypeError, ValueError), match=f"^{_MODEL_FIELDS[refused][2]}"):
            CostModel(**fields)
        return
    model = CostModel(**fields)
    # One canonical Python form per field, equal to the value given in
    # that form: an int past 2**53 is a real rounded as float() rounds it.
    assert type(model.a) is tuple and all(type(v) is float for v in model.a)
    assert list(model.a) == [float(v) for v in fields["a"]]
    for name, kind in [("condition_estimate", float), ("training_residual", float),
                       ("ref_input_bytes", int)]:
        assert type(getattr(model, name)) is kind and getattr(model, name) == kind(fields[name])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(path, model)
        loaded = load_model(path)
    assert dataclasses.astuple(loaded) == dataclasses.astuple(model)


def _fail_writing_halfway(file, *args, **kwargs):
    handle = open(file, *args, **kwargs)
    write = handle.write

    def half_then_fail(text):
        write(text[: len(text) // 2])
        raise OSError(28, "No space left on device")

    handle.write = half_then_fail
    return handle


def _fail(*args):
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize(
    "target, failure",
    [("open", _fail_writing_halfway), ("os.fsync", _fail), ("os.replace", _fail)],
    ids=["write", "fsync", "replace"],
)
def test_a_failed_save_leaves_the_old_model_and_no_temp_file(tmp_path, monkeypatch, target, failure):
    path = tmp_path / "model.json"
    save_model(path, MODEL)
    before = path.read_bytes()
    if target == "open":
        monkeypatch.setattr(store, "open", failure, raising=False)
    else:
        monkeypatch.setattr(store.os, target.split(".")[1], failure)
    with pytest.raises(IoFailureError, match="No space left on device"):
        save_model(path, SIZED)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert load_model(path) == MODEL
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


_SAVE_LOOP = """
import sys
from cyclecast.store import load_model, save_model
path, first, second, count = sys.argv[1:]
models = [load_model(first), load_model(second)]
for i in range(int(count)):
    save_model(path, models[i % 2])
"""


def test_a_reader_never_sees_a_model_being_saved(tmp_path):
    # One process rewrites the model in a loop while this one reads it.
    models = (MODEL, SIZED)
    for name, model in zip(("first.json", "second.json", "model.json"), models + models[:1]):
        save_model(tmp_path / name, model)
    src = str(Path(store.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    writer = subprocess.Popen(
        [sys.executable, "-c", _SAVE_LOOP, str(tmp_path / "model.json"),
         str(tmp_path / "first.json"), str(tmp_path / "second.json"), "400"],
        env=env,
    )
    reads = 0
    try:
        while writer.poll() is None:
            assert load_model(tmp_path / "model.json") in models
            reads += 1
    finally:
        writer.kill()
        writer.wait()
    assert writer.returncode == 0
    assert reads > 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first.json", "model.json", "second.json"]


def test_load_waits_for_an_appender_s_lock(tmp_path):
    path = tmp_path / "runs.jsonl"
    append_runs(path, _runs(2))
    loaded = []
    with open(path, "ab") as writer:
        fcntl.flock(writer.fileno(), fcntl.LOCK_EX)
        reader = threading.Thread(target=lambda: loaded.append(load_runs(path)))
        reader.start()
        reader.join(timeout=0.2)
        assert reader.is_alive(), "load_runs read while an append held the lock"
        writer.write(b"".join(_line(row).encode() for row in _rows(1, app="grep")))
        writer.flush()
        fcntl.flock(writer.fileno(), fcntl.LOCK_UN)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert rows(loaded[0]) == _rows(2) + _rows(1, app="grep")


# --- The canonical line and the columnar fast path ---------------------------


def _line(row, ensure_ascii=True, **fields):
    """json.dumps of a run row's record with fields replaced, as one store line."""
    obj = {**record(*row), **fields}
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=ensure_ascii) + "\n"


def _outcome(path, app=None):
    """What load_runs does on path: the rows it loads or the error, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            loaded = load_runs(path, app=app)
        except CyclecastError as exc:
            result = (type(exc), str(exc))
        else:
            # repr tells -0.0 from 0.0.
            result = [(*row[:5], repr(row[5])) for row in rows(loaded)]
    return result, [(w.category, str(w.message)) for w in caught]


def _row_loop_outcome(path, app=None):
    with mock.patch.object(store, "_fast_columns", return_value=None):
        return _outcome(path, app)


def _takes_fast_path(path, app=None):
    return store._fast_columns(path.read_text(), app) is not None


_PLAIN_TEXT = st.from_regex(r"[A-Za-z0-9_.:-]{1,12}", fullmatch=True)
# Non-ASCII, astral characters, lone surrogates, a high surrogate right
# before a low one (a text JSON reads back as another), quotes,
# backslashes, control characters and separators that str.splitlines
# breaks lines at.
_AWKWARD_TEXT = st.lists(
    st.sampled_from([*'"\\\x00\x08\x1f\x7f\x85\u2028é☃\U0001f600\ud800\udc80 ~{}', "\ud83d\ude00"])
    | st.characters(),
    min_size=1,
    max_size=8,
).map("".join)
_COUNTS = st.integers(1, 2**63 - 1)
_CYCLES = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False) | st.just(-0.0)
_TEXTS = _PLAIN_TEXT | _AWKWARD_TEXT
_ANY_RUNS = st.tuples(_TEXTS, _TEXTS, _COUNTS, _COUNTS, _COUNTS, _CYCLES)

# Each maps a run row to a line append_runs writes that a narrower grammar
# once sent to the line loop; the columnar pass must read it as the loop does.
_CANONICAL = {
    "escaped-quote": lambda run: _line(run, app='say "hi"'),
    "escaped-non-ascii": lambda run: _line(run, run_id="ré"),
    "escaped-delete": lambda run: _line(run, app="a\x7f"),
    "short-escapes": lambda run: _line(run, run_id="\b\f\n\r\t"),
    "surrogate-pair": lambda run: _line(run, app="\U0001f600"),
    "lone-surrogate": lambda run: _line(run, run_id="a\udc80"),
    "19-digit-int": lambda run: _line(run, input_bytes=10**18),
    "largest-count": lambda run: _line(run, mappers=2**63 - 1),
    "negative-zero-cycles": lambda run: _line(run, total_cycles=-0.0),
    "cycles-over-1e300": lambda run: _line(run, total_cycles=1.5e300),
    "largest-cycles": lambda run: _line(run, total_cycles=1.7976931348623157e308),
    "smallest-cycles": lambda run: _line(run, total_cycles=5e-324),
}

# Each maps a run row to a line the fast path must decline; the comment
# says what the line loop makes of it.
_DECLINED = {
    # loads
    "key-order": lambda run: json.dumps(dict(reversed(record(*run).items()))) + "\n",
    "spaces": lambda run: json.dumps(record(*run)) + "\n",
    "raw-non-ascii": lambda run: _line(run, ensure_ascii=False, app="ré"),
    "unicode-escape-of-ascii": lambda run: _line(run).replace('"app":"', '"app":"\\u0061', 1),
    "uppercase-unicode-escape": lambda run: _line(run, run_id="ré").replace("\\u00e9", "\\u00E9"),
    "uppercase-unicode-escape-above-ff": (
        lambda run: _line(run, app="☺").replace("\\u263a", "\\u263A")
    ),
    "escaped-solidus": lambda run: _line(run, run_id="a/b").replace("/", "\\/"),
    "integer-minus-zero-cycles": lambda run: _line(run).replace(f":{run[5]!r}}}", ":-0}"),
    # raises
    "bool-count": lambda run: _line(run, mappers=True),
    "float-count": lambda run: _line(run, reducers=4.0),
    "schema-version-2": lambda run: _line(run, schema_version=2),
    "schema-version-0": lambda run: _line(run, schema_version=0),
    "zero-count": lambda run: _line(run, mappers=0),
    "negative-count": lambda run: _line(run, input_bytes=-5),
    "leading-zero": lambda run: _line(run).replace('"mappers":', '"mappers":0', 1),
    "negative-cycles": lambda run: _line(run, total_cycles=-1.5),
    "cycles-1e999": lambda run: _line(run).replace(f":{run[5]!r}}}", ":1e999}"),
    "cycles-overflow-at-e308": lambda run: _line(run).replace(f":{run[5]!r}}}", ":1.8e+308}"),
    "cycles-400-digit-int": lambda run: _line(run, total_cycles=10**400),
    "count-over-int64": lambda run: _line(run, mappers=2**63),
    "count-4301-digits": lambda run: _line(run).replace('"mappers":', '"mappers":' + "9" * 4300, 1),
    "empty-app": lambda run: _line(run, app=""),
    "raw-line-separator": lambda run: _line(run, ensure_ascii=False, run_id="a\u2028b"),
    "missing-key": lambda run: _line(run).replace('"reducers"', '"reducer"'),
    "not-json": lambda run: "{not json\n",
    "blank-line": lambda run: "\n",
}


def _reads_back(run):
    """Whether JSON reads the run's app and run id back as themselves."""
    return all(json.loads(json.dumps(text)) == text for text in run[:2])


def _appended(path, runs):
    """Append a table of runs to path, or see the table refused, with path
    left as it was, if an app or run id is a text that JSON would read
    back as another: whether the runs were appended."""
    before = path.read_bytes() if path.exists() else None
    if all(map(_reads_back, runs)):
        assert append_runs(path, table(RunTable, runs)) == len(runs)
        return True
    refusal = "^every item of (apps|run_ids) must not hold a high surrogate"
    with pytest.raises(ValueError, match=refusal):
        append_runs(path, table(RunTable, runs))
    assert (path.read_bytes() if path.exists() else None) == before
    return False


@given(st.lists(_ANY_RUNS, max_size=30), st.data())
@settings(max_examples=60, deadline=None)
def test_canonical_bodies_take_the_fast_path(runs, data):
    app = data.draw(st.none() | st.sampled_from([r[0] for r in runs] + ["nope", 'a"b']))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "runs.jsonl"
        path.touch()
        if not _appended(path, runs):
            runs = list(filter(_reads_back, runs))
            assert _appended(path, runs)
        assert _takes_fast_path(path, app)
        assert _outcome(path, app) == _row_loop_outcome(path, app)
        want = [run for run in runs if app is None or run[0] == app]
        assert rows(load_runs(path, app=app)) == want


@pytest.mark.parametrize("kind", sorted(_CANONICAL))
def test_canonical_line_takes_the_fast_path(tmp_path, kind):
    runs = _rows(2)
    line = _CANONICAL[kind](runs[1])
    written = tmp_path / "written.jsonl"
    append_runs(written, table(RunTable, [tuple(json.loads(line).values())[1:]]))
    assert written.read_text() == line
    path = tmp_path / "runs.jsonl"
    path.write_text(_line(runs[0]) + line + _line(runs[0]))
    for app in (None, "sort", json.loads(line)["app"]):
        assert _takes_fast_path(path, app)
        assert _outcome(path, app) == _row_loop_outcome(path, app)


@pytest.mark.parametrize("trigger", sorted(_DECLINED))
def test_declined_line_goes_to_the_line_loop(tmp_path, trigger):
    runs = _rows(2)
    path = tmp_path / "runs.jsonl"
    path.write_text(_line(runs[0]) + _DECLINED[trigger](runs[1]) + _line(runs[0]))
    assert not _takes_fast_path(path)
    assert _outcome(path) == _row_loop_outcome(path)
    assert _outcome(path, app="grep") == _row_loop_outcome(path, app="grep")


@pytest.mark.parametrize("field", ["app", "run_id"])
def test_a_text_json_reads_back_as_another_is_refused(tmp_path, field):
    # json.dumps escapes the high surrogate U+D83D and the low U+DE00 that
    # follows it, and json.loads joins the escapes into U+1F600.
    pair = "\ud83d\ude00"
    assert json.loads(json.dumps(pair)) == "\U0001f600"
    path = tmp_path / "runs.jsonl"
    append_runs(path, _runs(1))
    before = path.read_bytes()
    run = dict(zip(["app", "run_id"], _rows(1)[0]), **{field: f"a{pair}b"})
    with pytest.raises(ValueError, match=(
        f"^every item of {field}s must not hold a high surrogate followed by a low one, "
        "which JSON reads back as one character, got 'a\\\\ud83d\\\\ude00b'$"
    )):
        append_runs(path, table(RunTable, [(run["app"], run["run_id"], *_rows(1)[0][2:])]))
    assert path.read_bytes() == before
    with pytest.raises(ValueError, match=f"^{field} must not hold a high surrogate"):
        check_text(field, pair)
    # Lone surrogates, such as the CLI's surrogateescape arguments hold, a
    # low one before a high one and the joined character stay texts.
    for text in ("\udc80", "\ud83d", "\ude00\ud83d", "\U0001f600"):
        assert check_text(field, text) == text
        assert json.loads(json.dumps(text)) == text


def test_an_app_holding_an_unjoined_surrogate_pair_matches_no_record(tmp_path):
    # Both spell "\ud83d\ude00"; only the astral character decodes from it.
    path = tmp_path / "runs.jsonl"
    append_runs(path, table(RunTable, _rows(2, app="\U0001f600")))
    unjoined = "\ud83d\ude00"
    assert _takes_fast_path(path, unjoined)
    assert _outcome(path, unjoined) == _row_loop_outcome(path, unjoined) == ([], [])
    assert len(load_runs(path, app="\U0001f600")) == 2


@pytest.mark.parametrize("cycles", ["12345", "0", "1.50", "5e-324", "9.99e+299"])
def test_other_number_forms_of_cycles_take_the_fast_path(tmp_path, cycles):
    path = tmp_path / "runs.jsonl"
    path.write_text(_line(_rows(1)[0]).replace("366666666666.6667", cycles))
    assert _takes_fast_path(path)
    assert _outcome(path) == _row_loop_outcome(path)
    assert load_runs(path).total_cycles.tolist() == [float(cycles)]


@pytest.mark.parametrize("tail", ["", '{"schema_version":1,"app":"a","run_', "whole"])
def test_unterminated_tail_goes_to_the_line_loop(tmp_path, tail):
    path = tmp_path / "runs.jsonl"
    runs = _rows(2)
    text = "".join(_line(run) for run in runs)
    path.write_text(text + (_line(runs[0])[:-1] if tail == "whole" else tail))
    assert _takes_fast_path(path) == (tail == "")
    assert _outcome(path) == _row_loop_outcome(path)


@st.composite
def _bodies(draw):
    """Store bodies of canonical and declined lines, the last one maybe torn."""
    runs = draw(st.lists(_ANY_RUNS, max_size=12))
    triggers = [draw(st.none() | st.sampled_from(sorted(_DECLINED))) for _ in runs]
    body = "".join(
        _line(run) if trigger is None else _DECLINED[trigger](run)
        for run, trigger in zip(runs, triggers)
    )
    if body and draw(st.booleans()):
        last = body.rfind("\n", 0, len(body) - 1) + 1
        body = body[: draw(st.integers(last, len(body) - 1))]
    apps = [run[0] for run in runs] + ["nope", "\ud83d\ude00"]
    return body, draw(st.none() | st.sampled_from(apps))


@given(_bodies())
@settings(max_examples=100, deadline=None)
def test_fast_path_and_line_loop_agree(body_and_app):
    body, app = body_and_app
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "runs.jsonl"
        # A raw lone surrogate, from a line written without escapes, is
        # kept as bytes that are not UTF-8, which both paths must refuse.
        path.write_bytes(body.encode("utf-8", "surrogatepass"))
        assert _outcome(path, app) == _row_loop_outcome(path, app)


@given(_ANY_RUNS)
@settings(deadline=None)
def test_record_line_equals_json_dumps(run):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "runs.jsonl"
        if _appended(path, [run]):
            assert path.read_bytes() == _line(run).encode("ascii")
            assert rows(load_runs(path)) == [run]


@given(st.lists(_ANY_RUNS, max_size=6))
@settings(deadline=None)
def test_a_table_and_its_runs_append_the_same_bytes(runs):
    with tempfile.TemporaryDirectory() as tmp:
        whole, one_by_one = Path(tmp) / "table.jsonl", Path(tmp) / "rows.jsonl"
        appended = _appended(whole, runs)
        kept = [run for run in runs if _appended(one_by_one, [run])]
        # A table with a run it refuses is refused whole.
        assert appended == (kept == runs)
        if kept:
            assert one_by_one.read_bytes() == "".join(map(_line, kept)).encode("ascii")
        if appended and runs:
            assert whole.read_bytes() == one_by_one.read_bytes()
        else:
            assert not whole.exists()
        assert one_by_one.exists() == bool(kept)


@given(
    st.sampled_from(_COUNT_FIELDS),
    st.integers(19, 4300).flatmap(lambda n: st.integers(10 ** (n - 1), 10**n - 1)),
)
@settings(deadline=None)
def test_long_integers_load_exactly_or_cannot_be_written(field, value):
    run = list(_rows(1)[0])
    run[2 + _COUNT_FIELDS.index(field)] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "runs.jsonl"
        path.write_text(_line(tuple(run)))
        if value < 2**63:
            assert rows(load_runs(path)) == [tuple(run)]
        else:
            with pytest.raises(CorruptRecordError, match=rf"line 1: {field} must be < 2\*\*63"):
                load_runs(path)
            with pytest.raises(ValueError, match=rf"^{field} must be < 2\*\*63"):
                table(RunTable, [tuple(run)])
