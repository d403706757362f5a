import json
import warnings

import pytest

from cyclecast.core import JobConfig, JobRun
from cyclecast.regression import ModelCoefficients
from cyclecast.scaling import CostModel, ScalingModel
from cyclecast.store import (
    CorruptRecordError,
    IoFailureError,
    TornRecordWarning,
    UnsupportedSchemaError,
    append_runs,
    load_model,
    load_runs,
    run_to_record,
    save_model,
)


def _runs(n=3, app="sort"):
    return [
        JobRun(
            app=app,
            run_id=f"{app}-{i}",
            config=JobConfig(4 * (i + 1), 2, 2**30),
            # Awkward float on purpose: round-tripping must not lose bits.
            total_cycles=1.1e12 / 3.0 * (i + 1),
        )
        for i in range(n)
    ]


def test_append_and_load_round_trip(tmp_path):
    path = tmp_path / "runs.jsonl"
    runs = _runs()
    assert append_runs(path, runs) == 3
    assert load_runs(path) == runs


def test_appends_accumulate_in_order(tmp_path):
    path = tmp_path / "runs.jsonl"
    append_runs(path, _runs(2))
    append_runs(path, _runs(2, app="grep"))
    loaded = load_runs(path)
    assert [r.app for r in loaded] == ["sort", "sort", "grep", "grep"]


def test_app_filter(tmp_path):
    path = tmp_path / "runs.jsonl"
    append_runs(path, _runs(2) + _runs(3, app="grep"))
    assert len(load_runs(path, app="grep")) == 3
    assert load_runs(path, app="nope") == []


def test_append_nothing_touches_nothing(tmp_path):
    path = tmp_path / "runs.jsonl"
    assert append_runs(path, []) == 0
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
    original = _runs(5)
    append_runs(path, original)
    for loaded, want in zip(load_runs(path), original):
        assert loaded.total_cycles == want.total_cycles


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
        assert load_runs(path) == _runs(2)


def test_append_drops_a_torn_last_line_with_a_warning(tmp_path):
    path = tmp_path / "runs.jsonl"
    append_runs(path, _runs(2))
    with open(path, "a") as handle:
        handle.write('{"schema_version":1,"app":"a","run_')
    with pytest.warns(TornRecordWarning, match="dropped line 3"):
        append_runs(path, _runs(1, app="grep"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert load_runs(path) == _runs(2) + _runs(1, app="grep")


def test_append_terminates_a_complete_last_record(tmp_path):
    path = tmp_path / "runs.jsonl"
    path.write_text(json.dumps(run_to_record(_runs(1)[0])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        append_runs(path, _runs(1, app="grep"))
        assert load_runs(path) == _runs(1) + _runs(1, app="grep")


def test_corrupt_line_before_the_tail_stays_an_error(tmp_path):
    path = tmp_path / "runs.jsonl"
    path.write_text("{not json\n")
    append_runs(path, _runs(1))
    with open(path, "a") as handle:
        handle.write('{"schema_version":1,"app":"a","run_')
    with pytest.raises(CorruptRecordError, match="line 1"):
        load_runs(path)


def test_missing_key_is_corrupt(tmp_path):
    path = tmp_path / "runs.jsonl"
    record = run_to_record(_runs(1)[0])
    del record["mappers"]
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(CorruptRecordError, match="mappers"):
        load_runs(path)


def test_wrong_type_is_corrupt(tmp_path):
    path = tmp_path / "runs.jsonl"
    record = run_to_record(_runs(1)[0])
    record["mappers"] = "four"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(CorruptRecordError):
        load_runs(path)


def test_future_schema_version_is_refused(tmp_path):
    path = tmp_path / "runs.jsonl"
    record = run_to_record(_runs(1)[0])
    record["schema_version"] = 999
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(UnsupportedSchemaError):
        load_runs(path)


MODEL = ModelCoefficients(
    a=(1.0e12 / 3.0, 2.0e10, 3.0e8 / 7.0, 4.0e10, 5.0e8),
    condition_estimate=31.0919,
    training_residual=1.5e7 / 3.0,
    app="sort",
    ref_input_bytes=12 * 2**30,
)


def test_model_round_trip_without_scaling(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, CostModel(MODEL))
    loaded = load_model(path)
    assert loaded.surface == MODEL
    assert loaded.scaling is None


def test_model_round_trip_with_scaling(tmp_path):
    path = tmp_path / "model.json"
    line = ScalingModel(slope=1.0e3 / 7.0, intercept=1.0e11, ref_bytes=12 * 2**30)
    save_model(path, CostModel(MODEL, line))
    assert load_model(path) == CostModel(MODEL, line)


def test_model_document_shape(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, CostModel(MODEL))
    doc = json.loads(path.read_text())
    assert set(doc) == {"basis", "app", "a", "condition", "residual", "ref_input_bytes"}
    assert doc["basis"] == "quad-mr-v1"
    assert len(doc["a"]) == 5


def test_model_with_wrong_coefficient_count_is_corrupt(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, CostModel(MODEL))
    doc = json.loads(path.read_text())
    doc["a"] = doc["a"][:4]
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptRecordError):
        load_model(path)


def test_model_with_unknown_basis_is_corrupt(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, CostModel(MODEL))
    doc = json.loads(path.read_text())
    doc["basis"] = "cubic-mr-v2"
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptRecordError):
        load_model(path)


def test_model_with_invalid_scaling_section_is_corrupt(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, CostModel(MODEL))
    doc = json.loads(path.read_text())
    doc["scaling"] = {"slope": -1.0, "intercept": 0.0, "ref_bytes": 100}
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptRecordError):
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
    save_model(path, CostModel(MODEL))
    doc = json.loads(path.read_text())
    doc.update(change)
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptRecordError):
        load_model(path)
