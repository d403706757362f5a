import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path
from unittest import mock

import pytest
from conftest import split
from oracle import rows, table

from cyclecast import cli, store, synth
from cyclecast.cli import main
from cyclecast.core import RunTable, aggregate_repetitions
from cyclecast.regression import CostModel, fit_least_squares, predict
from cyclecast.store import load_model, load_runs, save_model
from cyclecast.synth import generate_trace

TRUTH = CostModel(
    app="synthetic",
    a=(1.0e12, 2.0e10, 3.0e8, 4.0e10, 5.0e8),
    condition_estimate=1.0,
    training_residual=0.0,
    ref_input_bytes=12 * 2**30,
)

TRACE_CSV = (
    "machine_id,offset_s,cpu_seconds\n"
    "node-a,0,0.5\n"
    "node-a,1,1.5\n"
    "node-b,0,1.0\n"
)

CLUSTER_TXT = "node-a 3.0e9 4\nnode-b 2.0e9 2\n"


def _long_trace_csv(salt: int) -> str:
    """A valid trace of about 4 KiB, past the 2 KiB above which hashlib
    releases the GIL, whose bytes differ with salt."""
    rows = (f"node-{'ab'[offset % 2]},{offset},{(offset + salt) % 9 / 4!r}\n" for offset in range(300))
    return "machine_id,offset_s,cpu_seconds\n" + "".join(rows)


@pytest.fixture
def truth_file(tmp_path):
    path = tmp_path / "truth.json"
    save_model(path, TRUTH)
    return path


def _ingest_args(tmp_path, **over):
    args = {
        "--traces": tmp_path / "trace.csv",
        "--cluster": tmp_path / "cluster.txt",
        "--app": "sort",
        "--mappers": "4",
        "--reducers": "2",
        "--input-bytes": str(2**30),
        "--out": tmp_path / "runs.jsonl",
    }
    args.update(over)
    return [x for k, v in args.items() for x in (k, str(v))]


class TestIngest:
    def test_golden_ingest(self, tmp_path, capsys):
        (tmp_path / "trace.csv").write_text(TRACE_CSV)
        (tmp_path / "cluster.txt").write_text(CLUSTER_TXT)
        assert main(["ingest"] + _ingest_args(tmp_path)) == 0
        err = capsys.readouterr().err
        assert "ingested 2 machine trace(s)" in err
        (run,) = rows(load_runs(tmp_path / "runs.jsonl"))
        assert run[0] == "sort"
        assert run[2:] == (4, 2, 2**30, 8.0e9)

    def test_run_id_defaults_to_content_digest(self, tmp_path):
        (tmp_path / "cluster.txt").write_text(CLUSTER_TXT)
        expected = []
        for text in (TRACE_CSV, _long_trace_csv(0)):
            (tmp_path / "trace.csv").write_text(text)
            data = (tmp_path / "trace.csv").read_bytes()
            assert main(["ingest"] + _ingest_args(tmp_path)) == 0
            assert main(["ingest"] + _ingest_args(tmp_path)) == 0
            expected += [hashlib.sha256(data).hexdigest()[:12]] * 2
        assert len(data) > 2048
        assert list(load_runs(tmp_path / "runs.jsonl").run_ids) == expected

    def test_run_ids_hold_under_rapid_thread_switching(self, tmp_path):
        # The hash runs on a second thread beside the parse.  With the GIL
        # handed over every microsecond, each id must still be the whole
        # digest's prefix, and no thread may outlive its command, whether
        # the parse succeeds or fails.
        (tmp_path / "cluster.txt").write_text(CLUSTER_TXT)
        threads, interval = threading.active_count(), sys.getswitchinterval()
        deadline = time.monotonic() + 20
        expected = []
        sys.setswitchinterval(1e-6)
        try:
            for salt in range(50):
                # A bad header fails the parse at once, well before a
                # megabyte is hashed.
                bad = salt % 5 == 4
                text = f"bad header\n{salt:0{2**20}}\n" if bad else _long_trace_csv(salt)
                (tmp_path / "trace.csv").write_text(text)
                code = main(["ingest"] + _ingest_args(tmp_path))
                assert code == (2 if bad else 0)
                assert threading.active_count() == threads
                if not bad:
                    data = (tmp_path / "trace.csv").read_bytes()
                    expected.append(hashlib.sha256(data).hexdigest()[:12])
                if time.monotonic() > deadline:
                    break
        finally:
            sys.setswitchinterval(interval)
        assert len(expected) >= 4
        assert list(load_runs(tmp_path / "runs.jsonl").run_ids) == expected

    def test_a_failed_hash_reaches_the_caller(self, tmp_path, monkeypatch, capsys):
        def broken(data):
            raise ValueError("digest failed")

        (tmp_path / "trace.csv").write_text(_long_trace_csv(0))
        (tmp_path / "cluster.txt").write_text(CLUSTER_TXT)
        threads = threading.active_count()
        monkeypatch.setattr(hashlib, "sha256", broken)
        assert main(["ingest"] + _ingest_args(tmp_path)) == 2
        assert capsys.readouterr().err == "error: digest failed\n"
        assert threading.active_count() == threads
        assert not (tmp_path / "runs.jsonl").exists()
        # An explicit run id starts no hash.
        assert main(["ingest"] + _ingest_args(tmp_path) + ["--run-id", "exp-007"]) == 0
        assert load_runs(tmp_path / "runs.jsonl").run_ids == ("exp-007",)

    def test_the_parser_reads_the_very_bytes_read_from_the_trace_file(
        self, tmp_path, monkeypatch
    ):
        # No copy of the trace is made between reading the file and the parse.
        (tmp_path / "trace.csv").write_text(_long_trace_csv(0))
        (tmp_path / "cluster.txt").write_text(CLUSTER_TXT)
        read_bytes, parse, loaded, handed = Path.read_bytes, cli.parse_trace_csv, [], []

        def recorded_read_bytes(path):
            loaded.append(read_bytes(path))
            return loaded[-1]

        class Recorded:
            def __init__(self, stream):
                self.stream = stream

            def read(self):
                handed.append(self.stream.read())
                return handed[-1]

        monkeypatch.setattr(Path, "read_bytes", recorded_read_bytes)
        monkeypatch.setattr(cli, "parse_trace_csv", lambda stream, **kw: parse(Recorded(stream), **kw))
        assert main(["ingest"] + _ingest_args(tmp_path)) == 0
        assert len(loaded) == len(handed) == 1 and handed[0] is loaded[0]

    def test_explicit_run_id(self, tmp_path):
        (tmp_path / "trace.csv").write_text(TRACE_CSV)
        (tmp_path / "cluster.txt").write_text(CLUSTER_TXT)
        main(["ingest"] + _ingest_args(tmp_path) + ["--run-id", "exp-007"])
        assert load_runs(tmp_path / "runs.jsonl").run_ids == ("exp-007",)

    def test_warnings_surface_on_stderr(self, tmp_path, capsys):
        (tmp_path / "trace.csv").write_text(TRACE_CSV.rstrip("\n"))
        (tmp_path / "cluster.txt").write_text(CLUSTER_TXT)
        assert main(["ingest"] + _ingest_args(tmp_path)) == 0
        assert "truncated_tail" in capsys.readouterr().err

    def test_unknown_machine_is_a_data_error(self, tmp_path, capsys):
        (tmp_path / "trace.csv").write_text(
            "machine_id,offset_s,cpu_seconds\nghost,0,1.0\n"
        )
        (tmp_path / "cluster.txt").write_text(CLUSTER_TXT)
        assert main(["ingest"] + _ingest_args(tmp_path)) == 2
        assert "UnknownMachine" in capsys.readouterr().err

    def test_malformed_trace_is_a_data_error(self, tmp_path):
        (tmp_path / "trace.csv").write_text("wrong,header,here\n")
        (tmp_path / "cluster.txt").write_text(CLUSTER_TXT)
        assert main(["ingest"] + _ingest_args(tmp_path)) == 2

    def test_missing_trace_file_is_a_data_error(self, tmp_path):
        (tmp_path / "cluster.txt").write_text(CLUSTER_TXT)
        assert main(["ingest"] + _ingest_args(tmp_path)) == 2

    def test_invalid_utf8_in_the_traces_names_its_line(self, tmp_path, capsys):
        (tmp_path / "trace.csv").write_bytes(TRACE_CSV.encode() + b"node-\xff,2,0.5\n")
        (tmp_path / "cluster.txt").write_text(CLUSTER_TXT)
        assert main(["ingest"] + _ingest_args(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "error: MalformedRowError: line 5: not UTF-8 (invalid start byte at byte" in err
        assert not (tmp_path / "runs.jsonl").exists()

    def test_invalid_utf8_in_the_cluster_names_its_line(self, tmp_path, capsys):
        (tmp_path / "trace.csv").write_text(TRACE_CSV)
        (tmp_path / "cluster.txt").write_bytes(CLUSTER_TXT.encode() + b"# \xff\n")
        assert main(["ingest"] + _ingest_args(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "error: MalformedEntryError: line 3: not UTF-8 (invalid start byte at byte" in err
        assert not (tmp_path / "runs.jsonl").exists()


def _simulate(tmp_path, out="runs.jsonl", extra=(), seed="7"):
    argv = [
        "simulate",
        "--truth", str(tmp_path / "truth.json"),
        "--grid", "4:32:4",
        "--reps", "1",
        "--noise", "0",
        "--out", str(tmp_path / out),
    ]
    if seed is not None:
        argv += ["--seed", seed]
    return argv + list(extra)


class TestPipeline:
    def test_simulate_fit_predict_evaluate(self, tmp_path, truth_file, capsys):
        assert main(_simulate(tmp_path)) == 0
        runs = load_runs(tmp_path / "runs.jsonl")
        assert len(runs) == 64

        model_path = tmp_path / "model.json"
        assert main([
            "fit", "--runs", str(tmp_path / "runs.jsonl"),
            "--app", "synthetic", "--out", str(model_path),
        ]) == 0
        model = load_model(model_path)
        assert model.line is None
        for got, want in zip(model.a, TRUTH.a):
            assert got == pytest.approx(want, rel=1e-8)
        assert model.ref_input_bytes == 12 * 2**30
        capsys.readouterr()

        assert main([
            "predict", "--model", str(model_path),
            "--mappers", "4", "--reducers", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert float(out) == pytest.approx(1.4368e12, rel=1e-8)

        assert main([
            "evaluate", "--model", str(model_path),
            "--runs", str(tmp_path / "runs.jsonl"), "--app", "synthetic",
        ]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert set(report) == {
            "n", "mape", "pred25", "rmse", "rmse_norm", "r2_paper", "r2_standard"
        }
        assert report["n"] == 64
        assert report["mape"] <= 1e-8
        assert report["pred25"] == 1.0
        assert "MAPE" in captured.err

    def test_simulate_is_reproducible_byte_for_byte(self, tmp_path, truth_file):
        assert main(_simulate(tmp_path, out="a.jsonl")) == 0
        assert main(_simulate(tmp_path, out="b.jsonl")) == 0
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_seed_env_fallback(self, tmp_path, truth_file, monkeypatch):
        monkeypatch.setenv("CYCLECAST_SEED", "7")
        assert main(_simulate(tmp_path, out="env.jsonl", seed=None)) == 0
        assert main(_simulate(tmp_path, out="flag.jsonl", seed="7")) == 0
        assert (tmp_path / "env.jsonl").read_bytes() == (tmp_path / "flag.jsonl").read_bytes()

    @pytest.mark.parametrize(
        "value", ["abc", str(2**64), " +7", "1_0", "+10", " 10", "10 ", "\u0661\u0660"]
    )
    def test_bad_seed_env_is_usage(self, tmp_path, truth_file, monkeypatch, capsys, value):
        monkeypatch.setenv("CYCLECAST_SEED", value)
        assert main(_simulate(tmp_path, seed=None)) == 1
        assert "usage error: argument --seed" in capsys.readouterr().err
        assert not (tmp_path / "runs.jsonl").exists()

    def test_fit_writes_a_model_name_of_251_bytes(self, tmp_path, truth_file, capsys):
        assert main(_simulate(tmp_path)) == 0
        model = tmp_path / ("m" * 246 + ".json")
        assert main([
            "fit", "--runs", str(tmp_path / "runs.jsonl"), "--app", "synthetic", "--out", str(model),
        ]) == 0
        runs = load_runs(tmp_path / "runs.jsonl")
        assert load_model(model) == fit_least_squares(aggregate_repetitions(runs))

    def test_holdout_list_filters_evaluation(self, tmp_path, truth_file, capsys):
        main(_simulate(tmp_path))
        model_path = tmp_path / "model.json"
        main(["fit", "--runs", str(tmp_path / "runs.jsonl"),
              "--app", "synthetic", "--out", str(model_path)])
        holdout = tmp_path / "holdout.txt"
        holdout.write_text("# the two cells we care about\n4 8\n12,16\n")
        capsys.readouterr()
        assert main([
            "evaluate", "--model", str(model_path),
            "--runs", str(tmp_path / "runs.jsonl"), "--app", "synthetic",
            "--holdout-list", str(holdout),
        ]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 2

    @pytest.mark.parametrize("line", ["1_2 +8", "\u0665 4"])
    def test_holdout_list_numbers_follow_the_integer_grammar(
        self, tmp_path, truth_file, capsys, line
    ):
        main(_simulate(tmp_path))
        model_path = tmp_path / "model.json"
        main(["fit", "--runs", str(tmp_path / "runs.jsonl"),
              "--app", "synthetic", "--out", str(model_path)])
        holdout = tmp_path / "holdout.txt"
        holdout.write_text(f"4 8\n{line}\n", encoding="utf-8")
        capsys.readouterr()
        assert main([
            "evaluate", "--model", str(model_path),
            "--runs", str(tmp_path / "runs.jsonl"), "--app", "synthetic",
            "--holdout-list", str(holdout),
        ]) == 2
        assert f"{holdout}:2: expected integers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, reason",
        [("99999999999999999999 4", "mappers must be < 2**63, got 99999999999999999999"),
         ("4, 0", "reducers must be >= 1, got 0"),
         ("-4 8", "mappers must be >= 1, got -4")],
        ids=["beyond-int64", "zero", "negative"],
    )
    def test_holdout_list_values_follow_the_count_rule(
        self, tmp_path, truth_file, capsys, line, reason
    ):
        main(_simulate(tmp_path))
        model_path = tmp_path / "model.json"
        main(["fit", "--runs", str(tmp_path / "runs.jsonl"),
              "--app", "synthetic", "--out", str(model_path)])
        holdout = tmp_path / "holdout.txt"
        holdout.write_text(f"4 8\n{line}\n", encoding="utf-8")
        capsys.readouterr()
        assert main([
            "evaluate", "--model", str(model_path),
            "--runs", str(tmp_path / "runs.jsonl"), "--app", "synthetic",
            "--holdout-list", str(holdout),
        ]) == 2
        assert capsys.readouterr().err == f"error: CyclecastError: {holdout}:2: {reason}\n"

    def test_invalid_utf8_in_the_holdout_list_names_its_line(self, tmp_path, truth_file, capsys):
        main(_simulate(tmp_path))
        model_path = tmp_path / "model.json"
        main(["fit", "--runs", str(tmp_path / "runs.jsonl"),
              "--app", "synthetic", "--out", str(model_path)])
        holdout = tmp_path / "holdout.txt"
        holdout.write_bytes(b"4 4\n8 \xff8\n")
        capsys.readouterr()
        assert main([
            "evaluate", "--model", str(model_path),
            "--runs", str(tmp_path / "runs.jsonl"), "--app", "synthetic",
            "--holdout-list", str(holdout),
        ]) == 2
        assert f"error: CyclecastError: {holdout}:2: not UTF-8" in capsys.readouterr().err

    def test_report_surface(self, tmp_path, truth_file, capsys):
        out_dir = tmp_path / "report"
        assert main([
            "report", "--model", str(tmp_path / "truth.json"),
            "--grid", "4:8:4", "--out", str(out_dir),
        ]) == 0
        lines = (out_dir / "surface.tsv").read_text().splitlines()
        assert lines[0] == "mappers\treducers\tpredicted_cycles"
        assert len(lines) == 5
        mappers, reducers, value = lines[2].split("\t")
        assert (int(mappers), int(reducers)) == (4, 8)
        assert float(value) == predict(TRUTH, 4, 8)

    def test_emit_traces_round_trips_through_ingest(self, tmp_path, truth_file, capsys):
        (tmp_path / "cluster.txt").write_text(CLUSTER_TXT)
        trace_dir = tmp_path / "traces"
        assert main(_simulate(
            tmp_path,
            extra=["--emit-traces", str(trace_dir), "--cluster", str(tmp_path / "cluster.txt")],
        )) == 0
        runs = load_runs(tmp_path / "runs.jsonl")
        emitted = sorted(trace_dir.glob("*.csv"))
        assert len(emitted) == len(runs)

        assert main(["ingest"] + _ingest_args(
            tmp_path,
            **{
                "--traces": trace_dir / f"{runs.run_ids[0]}.csv",
                "--app": "reingest",
                "--out": tmp_path / "reingested.jsonl",
            },
        )) == 0
        (reingested,) = load_runs(tmp_path / "reingested.jsonl").total_cycles.tolist()
        assert reingested == pytest.approx(runs.total_cycles[0], rel=1e-9)

    def test_invalid_utf8_in_the_emit_cluster_names_its_line(self, tmp_path, truth_file, capsys):
        (tmp_path / "cluster.txt").write_bytes(b"node-a 3.0e9 4\nnode-\xc3 2.0e9 2\n")
        argv = _simulate(
            tmp_path,
            extra=["--emit-traces", str(tmp_path / "traces"), "--cluster", str(tmp_path / "cluster.txt")],
        )
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: MalformedEntryError: line 2: not UTF-8 (invalid continuation byte at byte" in err
        # The spec is read first, so a bad one leaves no runs behind.
        assert not (tmp_path / "runs.jsonl").exists()

    def test_a_clock_too_slow_for_a_run_is_a_data_error(self, tmp_path, truth_file, capsys):
        (tmp_path / "cluster.txt").write_text("a 1e-300 4\n")
        argv = _simulate(
            tmp_path,
            extra=["--emit-traces", str(tmp_path / "traces"), "--cluster", str(tmp_path / "cluster.txt")],
        )
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            line for line in err.splitlines() if line.strip()
        ]
        assert err.startswith("error: machine 'a' at 1e-300 Hz would need inf CPU-seconds")
        assert "Traceback" not in err

    def test_a_share_of_2_63_or_more_samples_is_a_data_error(self, tmp_path, truth_file, capsys):
        # About 1e21 CPU-seconds at 1e-9 Hz, past 2**63 samples: nothing is allocated.
        (tmp_path / "cluster.txt").write_text("a 1e-9 4\n")
        argv = _simulate(
            tmp_path,
            extra=["--emit-traces", str(tmp_path / "traces"), "--cluster", str(tmp_path / "cluster.txt")],
        )
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: machine 'a' with 4 cores would need ")
        assert "Traceback" not in err
        assert not (tmp_path / "runs.jsonl").exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["new-store", "existing-store"])
    def test_a_failed_trace_leaves_the_store_as_it_was(self, tmp_path, truth_file, capsys, existing):
        store = tmp_path / "runs.jsonl"
        if existing:
            assert main(_simulate(tmp_path)) == 0
        before = store.read_bytes() if existing else None
        (tmp_path / "cluster.txt").write_text("a 1e-300 4\n")
        argv = _simulate(
            tmp_path,
            extra=["--emit-traces", str(tmp_path / "traces"), "--cluster", str(tmp_path / "cluster.txt")],
        )
        argv[argv.index("4:32:4")] = "4:8:4"
        assert main(argv) == 2
        assert "error: machine 'a' at 1e-300 Hz" in capsys.readouterr().err
        assert (store.read_bytes() if store.exists() else None) == before
        assert list((tmp_path / "traces").iterdir()) == []

    def test_trace_files_written_before_a_failure_remain(self, tmp_path, truth_file, monkeypatch):
        made = []

        def third_fails(run_id, *args):
            if len(made) == 2:
                raise ValueError(f"cannot trace {run_id}")
            made.append(run_id)
            return generate_trace(run_id, *args)

        monkeypatch.setattr(synth, "generate_trace", third_fails)
        (tmp_path / "cluster.txt").write_text(CLUSTER_TXT)
        argv = _simulate(
            tmp_path,
            extra=["--emit-traces", str(tmp_path / "traces"), "--cluster", str(tmp_path / "cluster.txt")],
        )
        assert main(argv) == 2
        assert not (tmp_path / "runs.jsonl").exists()
        assert sorted(p.name for p in (tmp_path / "traces").iterdir()) == [
            f"{run_id}.csv" for run_id in made
        ]

    def test_cores_past_int64_name_their_line(self, tmp_path, truth_file, capsys):
        (tmp_path / "cluster.txt").write_text(f"a 3e9 {2**63}\n")
        argv = _simulate(
            tmp_path,
            extra=["--emit-traces", str(tmp_path / "traces"), "--cluster", str(tmp_path / "cluster.txt")],
        )
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: MalformedEntryError: line 1: cores must be < 2**63, got {2**63}\n"
        assert not (tmp_path / "runs.jsonl").exists()

    @pytest.mark.parametrize("app", ["../escaped", "a/b", "a\0b"], ids=["dotdot", "slash", "nul"])
    def test_a_run_id_that_cannot_name_a_file_is_refused(self, tmp_path, truth_file, capsys, app):
        (tmp_path / "cluster.txt").write_text(CLUSTER_TXT)
        (tmp_path / "out").mkdir()
        before = sorted(tmp_path.rglob("*"))
        argv = _simulate(tmp_path, extra=[
            "--app", app, "--emit-traces", str(tmp_path / "out" / "traces"),
            "--cluster", str(tmp_path / "cluster.txt"),
        ])
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: UnsafeRunIdError: run id {app + '-m004-r004-rep00'!r} holds a path "
            "separator or NUL, so it cannot name a trace file\n"
        )
        assert sorted(tmp_path.rglob("*")) == before  # DIR, its parent and the store
        # The app names no file unless traces are emitted.
        assert main(_simulate(tmp_path, extra=["--app", app])) == 0
        assert set(load_runs(tmp_path / "runs.jsonl").apps) == {app}


# The emission split path: write_traces cuts the runs into parts and a
# forked child writes each part after the first (conftest pins the part
# size and the core count).  These tests take one run a part, and the
# default grid's 64 runs, in this order.
_RUN_IDS = [f"synthetic-m{m:03d}-r{r:03d}-rep00" for m in range(4, 33, 4) for r in range(4, 33, 4)]


def _emitted(tmp_path, capsys, cores, fork=None, extra=()):
    """simulate --emit-traces's outcome, with extra flags, one run a part
    on cores cores (None: on a host without sched_getaffinity), in a work
    directory of its own: the exit code, stderr (the directory spelled
    WORK), the store's bytes or None and each file in the trace directory
    with its bytes; and the number of forks, made through fork if given."""
    work = tmp_path / f"cores-{cores}"
    work.mkdir()
    save_model(work / "truth.json", TRUTH)
    (work / "cluster.txt").write_text(CLUSTER_TXT)
    argv = _simulate(work, extra=[
        "--emit-traces", str(work / "traces"), "--cluster", str(work / "cluster.txt"), *extra,
    ])
    capsys.readouterr()
    with split(synth, "_RUNS_PER_PART", 1, cores), mock.patch.object(
        os, "fork", side_effect=fork or os.fork
    ) as forked:
        code = main(argv)
    run_store = work / "runs.jsonl"
    traces = {path.name: path.read_bytes() for path in sorted((work / "traces").iterdir())}
    err = capsys.readouterr().err.replace(str(work), "WORK")
    stored = run_store.read_bytes() if run_store.exists() else None
    return (code, err, stored, traces), forked.call_count


class TestEmitSplit:
    @pytest.mark.parametrize("cores", [2, 3])
    def test_the_split_writes_the_serial_files(self, tmp_path, capsys, cores, no_child_left):
        serial, _ = _emitted(tmp_path, capsys, 1)
        assert _emitted(tmp_path, capsys, cores) == (serial, cores - 1)
        code, _, store, traces = serial
        assert code == 0 and store is not None
        assert list(traces) == sorted(f"{run_id}.csv" for run_id in _RUN_IDS)

    @pytest.mark.parametrize("cores", [2, 3])
    def test_a_failure_in_a_childs_part_is_the_serial_failure(
        self, tmp_path, capsys, monkeypatch, cores, no_child_left
    ):
        def fails_late(run_id, *args):
            if run_id == _RUN_IDS[50]:
                raise ValueError(f"cannot trace {run_id}")
            return generate_trace(run_id, *args)

        monkeypatch.setattr(synth, "generate_trace", fails_late)
        serial, _ = _emitted(tmp_path, capsys, 1)
        assert _emitted(tmp_path, capsys, cores) == (serial, cores - 1)
        code, err, store, traces = serial
        assert (code, err, store) == (2, f"error: cannot trace {_RUN_IDS[50]}\n", None)
        assert list(traces) == sorted(f"{run_id}.csv" for run_id in _RUN_IDS[:50])

    @pytest.mark.parametrize("cores", [2, 3])
    def test_a_failure_in_the_parents_part_kills_the_children(
        self, tmp_path, capsys, monkeypatch, cores, no_child_left
    ):
        # Each child writes its part's first file, then sleeps for a
        # minute on its second, so the command ends at once only if it
        # kills them.  The parent's part fails at its fourth run, once
        # every child has begun a file.
        firsts = [len(_RUN_IDS) * part // cores for part in range(1, cores)]
        trace_dir = tmp_path / f"cores-{cores}" / "traces"

        def fails_early(run_id, *args):
            run = _RUN_IDS.index(run_id)
            if run == 3:
                deadline = time.monotonic() + 20
                while len(list(trace_dir.glob(".*.tmp"))) < len(firsts):
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                raise ValueError(f"cannot trace {run_id}")
            if run - 1 in firsts:
                time.sleep(60)
            return generate_trace(run_id, *args)

        monkeypatch.setattr(synth, "generate_trace", fails_early)
        began = time.monotonic()
        outcome, forks = _emitted(tmp_path, capsys, cores)
        assert time.monotonic() - began < 30
        assert forks == cores - 1
        code, err, store, traces = outcome
        assert (code, err, store) == (2, f"error: cannot trace {_RUN_IDS[3]}\n", None)
        assert list(traces) == sorted(f"{run_id}.csv" for run_id in _RUN_IDS[:3])

    @pytest.mark.parametrize("failing", [[1], [2], [1, 2, 3]], ids=str)
    def test_a_part_whose_fork_fails_is_written_here(
        self, tmp_path, capsys, failing, no_child_left
    ):
        # The forks for parts 1, 2 and 3 of 4, of which those in failing fail.
        forks = iter(range(1, 4))
        real_fork = os.fork

        def fork():
            if next(forks) in failing:
                raise OSError("no more processes")
            return real_fork()

        serial, _ = _emitted(tmp_path, capsys, 1)
        assert _emitted(tmp_path, capsys, 4, fork) == (serial, 3)

    def test_a_part_whose_pipe_fails_is_written_here(self, tmp_path, capsys, no_child_left):
        # The pipes for parts 1, 2 and 3 of 4, of which that for part 2 fails.
        pipes = iter(range(1, 4))
        real_pipe = os.pipe

        def pipe():
            if next(pipes) == 2:
                raise OSError("too many open files")
            return real_pipe()

        serial, _ = _emitted(tmp_path, capsys, 1)
        with mock.patch.object(os, "pipe", side_effect=pipe) as piped:
            assert _emitted(tmp_path, capsys, 4) == (serial, 2)
        assert piped.call_count == 3

    def test_a_host_without_sched_getaffinity_writes_in_one_part(
        self, tmp_path, capsys, no_child_left
    ):
        serial, _ = _emitted(tmp_path, capsys, 1)
        assert _emitted(tmp_path, capsys, None) == (serial, 0)

    def test_a_run_id_of_251_bytes_names_its_file(self, tmp_path, capsys, no_child_left):
        # Its file's name, <run_id>.csv, is then 255 bytes, the longest
        # that common file systems take, so no temporary name may be longer.
        extra = ["--app", "x" * 235, "--grid", "4:8:4"]
        serial, _ = _emitted(tmp_path, capsys, 1, extra=extra)
        assert _emitted(tmp_path, capsys, 2, extra=extra) == (serial, 1)
        code, _, _, traces = serial
        assert code == 0
        assert [len(name.encode()) for name in traces] == [255] * 4

    @pytest.mark.parametrize(
        "send", [mock.Mock(side_effect=RuntimeError("the child fails before it writes"))],
        ids=["exits-1"],
    )
    def test_a_part_whose_child_fails_is_written_here(self, tmp_path, capsys, send, no_child_left):
        serial, _ = _emitted(tmp_path, capsys, 1)
        with mock.patch.object(synth, "_send_part", send):
            assert _emitted(tmp_path, capsys, 3) == (serial, 2)

    def test_a_childs_warning_is_printed_once(self, tmp_path, capsys, monkeypatch, no_child_left):
        # On 3 cores, runs 30 and 60 are in the two children's parts.
        def warns(run_id, *args):
            if run_id in (_RUN_IDS[30], _RUN_IDS[60]):
                warnings.warn(f"odd run {run_id}", RuntimeWarning)
            return generate_trace(run_id, *args)

        monkeypatch.setattr(synth, "generate_trace", warns)
        serial, _ = _emitted(tmp_path, capsys, 1)
        assert _emitted(tmp_path, capsys, 3) == (serial, 2)
        code, err, _, _ = serial
        assert code == 0
        assert [line for line in err.splitlines() if line.startswith("warning:")] == [
            f"warning: odd run {_RUN_IDS[30]}"
        ]


class TestParserReuse:
    """main parses with one parser built at import, and reads the
    environment on each call, not when that parser was built."""

    def test_seed_env_is_read_on_each_call(self, tmp_path, truth_file, monkeypatch):
        noisy = ("--noise", "0.05")
        monkeypatch.delenv("CYCLECAST_SEED", raising=False)
        assert main(_simulate(tmp_path, out="env-0.jsonl", extra=noisy, seed=None)) == 0
        for seed in ("7", "8"):
            monkeypatch.setenv("CYCLECAST_SEED", seed)
            assert main(_simulate(tmp_path, out=f"env-{seed}.jsonl", extra=noisy, seed=None)) == 0
        for seed in ("0", "7", "8"):
            assert main(_simulate(tmp_path, out=f"flag-{seed}.jsonl", extra=noisy, seed=seed)) == 0
        stores = {
            seed: (tmp_path / f"env-{seed}.jsonl").read_bytes() for seed in ("0", "7", "8")
        }
        for seed, body in stores.items():
            assert body == (tmp_path / f"flag-{seed}.jsonl").read_bytes()
        assert len(set(stores.values())) == 3

    def test_bad_seed_env_after_a_good_one_is_still_usage(
        self, tmp_path, truth_file, monkeypatch, capsys
    ):
        monkeypatch.setenv("CYCLECAST_SEED", "7")
        assert main(_simulate(tmp_path, seed=None)) == 0
        monkeypatch.setenv("CYCLECAST_SEED", "abc")
        capsys.readouterr()
        for _ in range(2):
            assert main(_simulate(tmp_path, out="bad.jsonl", seed=None)) == 1
            assert capsys.readouterr().err == (
                "usage error: argument --seed: expected an integer, got 'abc'\n"
            )
        assert not (tmp_path / "bad.jsonl").exists()

    def test_seed_flag_overrides_a_bad_env(self, tmp_path, truth_file, monkeypatch):
        monkeypatch.setenv("CYCLECAST_SEED", "abc")
        assert main(_simulate(tmp_path, out="a.jsonl", seed="7")) == 0
        monkeypatch.delenv("CYCLECAST_SEED")
        assert main(_simulate(tmp_path, out="b.jsonl", seed="7")) == 0
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_main_builds_no_parser(self, tmp_path, truth_file, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli._Parser, "__init__", refuse)
        model = str(tmp_path / "model.json")
        assert main(_simulate(tmp_path)) == 0
        assert main(["fit", "--runs", str(tmp_path / "runs.jsonl"), "--app", "synthetic",
                     "--out", model]) == 0
        assert main(["predict", "--model", model, "--mappers", "4", "--reducers", "8"]) == 0
        assert main(["predict", "--model", model, "--mappers", "0", "--reducers", "8"]) == 1
        assert main([]) == 1


class TestScaleFit:
    def _sized_store(self, tmp_path):
        # Runs whose cycles grow exactly proportionally with input size:
        # line through the origin, factor 2 from 12 GiB to 24 GiB.
        from cyclecast.store import append_runs

        ref = 12 * 2**30
        base_cycles = predict(TRUTH, 4, 4)
        runs = table(RunTable, [
            ("synthetic", f"sized-{gib}", 4, 4, gib * 2**30, base_cycles * (gib * 2**30) / ref)
            for gib in (6, 12, 24)
        ])
        path = tmp_path / "sized.jsonl"
        append_runs(path, runs)
        return path

    def test_scale_fit_then_sized_predict(self, tmp_path, truth_file, capsys):
        single_runs = tmp_path / "runs-12.jsonl"
        assert main(_simulate(tmp_path, out="runs-12.jsonl")) == 0
        model_path = tmp_path / "model.json"
        assert main([
            "fit", "--runs", str(single_runs), "--app", "synthetic",
            "--out", str(model_path),
        ]) == 0
        sized = self._sized_store(tmp_path)
        assert main([
            "scale-fit", "--runs", str(sized), "--app", "synthetic",
            "--model", str(model_path),
        ]) == 0
        sized_model = load_model(model_path)
        assert sized_model.line is not None
        assert sized_model.ref_input_bytes == 12 * 2**30
        assert json.loads(model_path.read_text())["scaling"]["ref_bytes"] == 12 * 2**30
        capsys.readouterr()

        assert main([
            "predict", "--model", str(model_path),
            "--mappers", "4", "--reducers", "8",
        ]) == 0
        base = float(capsys.readouterr().out)
        assert main([
            "predict", "--model", str(model_path),
            "--mappers", "4", "--reducers", "8",
            "--input-bytes", str(24 * 2**30),
        ]) == 0
        scaled = float(capsys.readouterr().out)
        # The sized store doubles from 12 GiB to 24 GiB.
        assert scaled == pytest.approx(2.0 * base, rel=1e-9)

    def test_scale_fit_refuses_another_app_s_runs(self, tmp_path, truth_file, capsys):
        runs, model_path = tmp_path / "runs.jsonl", tmp_path / "model.json"
        assert main(_simulate(tmp_path, extra=["--app", "aaa"])) == 0
        assert main(["fit", "--runs", str(runs), "--app", "aaa", "--out", str(model_path)]) == 0
        for gib in (6, 24):
            size = str(gib * 2**30)
            assert main(_simulate(tmp_path, extra=["--app", "bbb", "--input-bytes", size])) == 0
        before = model_path.read_bytes()
        capsys.readouterr()
        assert main([
            "scale-fit", "--runs", str(runs), "--app", "bbb", "--model", str(model_path),
        ]) == 2
        assert capsys.readouterr().err == (
            "error: MixedApplicationsError: profiles of ['bbb'] cannot size the model of 'aaa'\n"
        )
        assert model_path.read_bytes() == before

    def test_scale_fit_refuses_sizes_a_float_cannot_tell_apart(self, tmp_path, capsys):
        # 2**62 and 2**62 + 1 are one float64: the line's slope would be
        # noise, so the model file is left as it was.
        from cyclecast.store import append_runs

        ref = 2**62
        model_path, runs = tmp_path / "model.json", tmp_path / "runs.jsonl"
        save_model(model_path, dataclasses.replace(TRUTH, ref_input_bytes=ref))
        append_runs(runs, table(RunTable, [
            ("synthetic", "near-0", 4, 4, ref, 1.0e12),
            ("synthetic", "near-1", 4, 4, ref + 1, 2.0e12),
        ]))
        before = model_path.read_bytes()
        assert main([
            "scale-fit", "--runs", str(runs), "--app", "synthetic", "--model", str(model_path),
        ]) == 2
        assert capsys.readouterr().err == (
            "error: DegenerateInputError: need >= 2 input sizes that float64 tells apart, "
            f"got [{ref}, {ref + 1}]\n"
        )
        assert model_path.read_bytes() == before

    def test_scale_fit_needs_a_reference_size(self, tmp_path, truth_file, capsys):
        # fit refuses runs of mixed sizes, so it never writes a surface
        # without a reference; a hand-written one does not load.
        mixed = tmp_path / "mixed.jsonl"
        for gib in (6, 12):
            assert main([
                "simulate", "--truth", str(tmp_path / "truth.json"),
                "--grid", "4:32:4", "--reps", "1", "--noise", "0",
                "--seed", "7", "--out", str(mixed),
                "--input-bytes", str(gib * 2**30),
            ]) == 0
        model_path = tmp_path / "mixed-model.json"
        capsys.readouterr()
        assert main([
            "fit", "--runs", str(mixed), "--app", "synthetic",
            "--out", str(model_path),
        ]) == 2
        assert "MixedInputSizesError" in capsys.readouterr().err
        assert not model_path.exists()

        doc = json.loads((tmp_path / "truth.json").read_text())
        doc["ref_input_bytes"] = None
        model_path.write_text(json.dumps(doc))
        assert main([
            "scale-fit", "--runs", str(mixed), "--app", "synthetic",
            "--model", str(model_path),
        ]) == 2
        assert "CorruptRecordError" in capsys.readouterr().err

    def test_sized_predict_without_scaling_warns(self, tmp_path, truth_file, capsys):
        assert main([
            "predict", "--model", str(tmp_path / "truth.json"),
            "--mappers", "4", "--reducers", "8",
            "--input-bytes", str(24 * 2**30),
        ]) == 0
        captured = capsys.readouterr()
        assert "no scaling section" in captured.err
        assert float(captured.out) == pytest.approx(1.4368e12, rel=1e-12)

    def test_simulate_follows_the_truth_size_line(self, tmp_path, capsys):
        truth_path = tmp_path / "truth.json"
        save_model(truth_path, dataclasses.replace(TRUTH, line=(150.0, 5.0e11)))
        size = str(24 * 2**30)
        assert main(_simulate(tmp_path, extra=["--input-bytes", size])) == 0
        capsys.readouterr()
        assert main(["predict", "--model", str(truth_path), "--mappers", "4",
                     "--reducers", "8", "--input-bytes", size]) == 0
        expected = float(capsys.readouterr().out)
        (cycles,) = [run[5] for run in rows(load_runs(tmp_path / "runs.jsonl"))
                     if run[2:4] == (4, 8)]
        assert cycles == expected
        assert expected != predict(TRUTH, 4, 8)

    def test_unscaled_evaluate_warns_once(self, tmp_path, truth_file, capsys):
        store = tmp_path / "runs-24.jsonl"
        assert main(_simulate(tmp_path, out="runs-24.jsonl",
                              extra=["--input-bytes", str(24 * 2**30)])) == 0
        capsys.readouterr()
        assert main([
            "evaluate", "--model", str(tmp_path / "truth.json"),
            "--runs", str(store), "--app", "synthetic",
        ]) == 0
        err = capsys.readouterr().err
        assert err.count("warning: model has no scaling section") == 1
        assert err.count("warning:") == 1


class TestExitCodes:
    def test_no_subcommand_is_usage(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_is_usage(self, tmp_path):
        assert main(["fit", "--bogus", "x"]) == 1

    def test_bad_grid_is_usage(self, tmp_path, truth_file):
        argv = _simulate(tmp_path)
        argv[argv.index("4:32:4")] = "32:4:-1"
        assert main(argv) == 1

    @pytest.mark.parametrize("command", ["simulate", "report"])
    def test_grid_beyond_int64_is_usage(self, tmp_path, truth_file, capsys, command):
        argv = {
            "simulate": _simulate(tmp_path),
            "report": ["report", "--model", str(truth_file), "--grid", "4:32:4",
                       "--out", str(tmp_path / "report")],
        }[command]
        argv[argv.index("4:32:4")] = f"{2**63 - 1}:{2**63}:1"
        assert main(argv) == 1
        assert "usage error: argument --grid: expected hi below 2**63" in capsys.readouterr().err
        assert not (tmp_path / "runs.jsonl").exists() and not (tmp_path / "report").exists()

    @pytest.mark.parametrize("command", ["simulate", "report"])
    @pytest.mark.parametrize("grid", ["1:1025:1", "2:2050:2", "1:1000000000000:1"])
    def test_grid_of_over_1024_values_is_usage(self, tmp_path, truth_file, capsys, command, grid):
        argv = {
            "simulate": _simulate(tmp_path),
            "report": ["report", "--model", str(truth_file), "--grid", "4:32:4",
                       "--out", str(tmp_path / "report")],
        }[command]
        argv[argv.index("4:32:4")] = grid
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(
            "usage error: argument --grid: expected at most 1024 values per axis, got "
        )
        assert not (tmp_path / "runs.jsonl").exists() and not (tmp_path / "report").exists()

    def test_grid_of_1024_values_parses(self):
        assert cli._grid("1:1024:1") == tuple(range(1, 1025))
        assert cli._grid("3:2049:2") == tuple(range(3, 2050, 2))

    @pytest.mark.parametrize("value", ["1_0", "+10", " 10", "10 ", "\u0661\u0660"])
    @pytest.mark.parametrize(
        "flag", ["--mappers", "--reducers", "--input-bytes", "--reps", "--seed"]
    )
    def test_a_count_outside_the_number_grammar_is_usage(
        self, tmp_path, truth_file, capsys, flag, value
    ):
        (tmp_path / "trace.csv").write_text(TRACE_CSV)
        (tmp_path / "cluster.txt").write_text(CLUSTER_TXT)
        if flag in ("--mappers", "--reducers"):
            argv = ["ingest"] + _ingest_args(tmp_path, **{flag: value})
        else:
            argv = _simulate(tmp_path, extra=[flag, value])
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"usage error: argument {flag}: expected an integer, got {value!r}\n"
        )
        assert not (tmp_path / "runs.jsonl").exists()

    @pytest.mark.parametrize(
        "flag, value, reason",
        [("--grid", "4:1_6:4", "expected integers lo:hi:step, got '4:1_6:4'"),
         ("--noise", "1_0e-2", "expected a finite number, got '1_0e-2'"),
         ("--noise", "inf", "expected a finite number, got 'inf'"),
         ("--noise", "1e999", "expected a finite number, got '1e999'"),
         ("--noise", "-0.5", "expected a value in [0, inf], got -0.5"),
         ("--gap-threshold", "2", "expected a value in [0, 1], got 2"),
         ("--gap-threshold", "1.5e0", "expected a value in [0, 1], got 1.5e0")],
        ids=["grid-separator", "noise-separator", "noise-inf", "noise-overflow",
             "noise-negative", "gap-threshold-2", "gap-threshold-exponent"],
    )
    def test_a_flag_value_outside_its_grammar_or_range_is_usage(
        self, tmp_path, truth_file, capsys, flag, value, reason
    ):
        (tmp_path / "trace.csv").write_text(TRACE_CSV)
        (tmp_path / "cluster.txt").write_text(CLUSTER_TXT)
        if flag == "--gap-threshold":
            argv = ["ingest"] + _ingest_args(tmp_path, **{flag: value})
        else:
            argv = _simulate(tmp_path, extra=[flag, value])
        assert main(argv) == 1
        assert capsys.readouterr().err == f"usage error: argument {flag}: {reason}\n"
        assert not (tmp_path / "runs.jsonl").exists()

    def test_nonpositive_mappers_is_usage(self, tmp_path):
        assert main([
            "predict", "--model", "x.json", "--mappers", "0", "--reducers", "1",
        ]) == 1

    def test_count_beyond_int64_is_usage(self, tmp_path, truth_file, capsys):
        assert main([
            "predict", "--model", str(truth_file), "--mappers", "4", "--reducers", "4",
            "--input-bytes", str(2**63),
        ]) == 1
        assert "usage error: argument --input-bytes" in capsys.readouterr().err

    def test_emit_traces_requires_cluster(self, tmp_path, truth_file):
        assert main(_simulate(tmp_path, extra=["--emit-traces", str(tmp_path / "t")])) == 1

    def test_missing_model_is_data_error(self, tmp_path):
        assert main([
            "predict", "--model", str(tmp_path / "none.json"),
            "--mappers", "4", "--reducers", "8",
        ]) == 2

    def test_underdetermined_fit_is_data_error(self, tmp_path, truth_file, capsys):
        argv = _simulate(tmp_path)
        argv[argv.index("4:32:4")] = "4:8:4"  # only 4 distinct configs
        assert main(argv) == 0
        assert main([
            "fit", "--runs", str(tmp_path / "runs.jsonl"),
            "--app", "synthetic", "--out", str(tmp_path / "m.json"),
        ]) == 2
        assert "RankDeficient" in capsys.readouterr().err

    def test_evaluate_with_too_few_runs_is_data_error(self, tmp_path, truth_file, capsys):
        main(_simulate(tmp_path))
        model_path = tmp_path / "model.json"
        main(["fit", "--runs", str(tmp_path / "runs.jsonl"),
              "--app", "synthetic", "--out", str(model_path)])
        capsys.readouterr()
        assert main([
            "evaluate", "--model", str(model_path),
            "--runs", str(tmp_path / "runs.jsonl"), "--app", "absent",
        ]) == 2
        assert capsys.readouterr() == (
            "", "error: DegenerateInputError: need >= 2 runs to evaluate, got 0 after filtering\n"
        )

    def test_evaluate_refuses_runs_of_another_app(self, tmp_path, truth_file, capsys):
        assert main(_simulate(tmp_path, extra=["--app", "grep"])) == 0
        capsys.readouterr()
        assert main([
            "evaluate", "--model", str(truth_file),
            "--runs", str(tmp_path / "runs.jsonl"), "--app", "grep",
        ]) == 2
        assert capsys.readouterr() == (
            "", "error: MixedApplicationsError: runs of ['grep'] cannot score the model of "
            "'synthetic'\n"
        )

    @pytest.mark.parametrize("command", ["predict", "evaluate", "report"])
    @pytest.mark.parametrize(
        "change",
        [
            {"ref_input_bytes": 1000,
             "scaling": {"slope": 1.0e9, "intercept": 0.0, "ref_bytes": 500}},
            {"ref_input_bytes": None},
        ],
        ids=["scaling-elsewhere", "null-reference"],
    )
    def test_model_without_one_reference_size_is_data_error(
        self, tmp_path, truth_file, capsys, command, change
    ):
        main(_simulate(tmp_path))
        doc = json.loads(truth_file.read_text())
        doc.update(change)
        model_path = tmp_path / "bad-model.json"
        model_path.write_text(json.dumps(doc))
        argv = {
            "predict": ["--mappers", "4", "--reducers", "8", "--input-bytes", "1000"],
            "evaluate": ["--runs", str(tmp_path / "runs.jsonl"), "--app", "synthetic"],
            "report": ["--grid", "4:8:4", "--out", str(tmp_path / "report")],
        }[command]
        capsys.readouterr()
        assert main([command, "--model", str(model_path)] + argv) == 2
        captured = capsys.readouterr()
        assert "CorruptRecordError" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "field, text",
        [("condition", "1" + "0" * 400), ("residual", "9" * 4301),
         ("ref_input_bytes", str(2**63))],
        ids=["beyond-float", "beyond-int-digits", "size-beyond-int64"],
    )
    def test_model_with_a_huge_number_is_data_error(
        self, tmp_path, truth_file, capsys, field, text
    ):
        doc = json.loads(truth_file.read_text())
        doc[field] = "@"
        model_path = tmp_path / "huge-model.json"
        model_path.write_text(json.dumps(doc).replace('"@"', text))
        assert main(["predict", "--model", str(model_path), "--mappers", "4",
                     "--reducers", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: CorruptRecordError: {model_path}: ")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["simulate", "predict"])
    def test_model_with_an_empty_app_is_data_error(self, tmp_path, truth_file, capsys, command):
        model_path = tmp_path / "truth.json"
        model_path.write_text(truth_file.read_text().replace('"app": "synthetic"', '"app": ""'))
        argv = {
            "simulate": _simulate(tmp_path),
            "predict": ["predict", "--model", str(model_path), "--mappers", "4", "--reducers", "8"],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: CorruptRecordError: {model_path}: app must be non-empty"
        )
        assert captured.out == ""
        assert not (tmp_path / "runs.jsonl").exists()

    @pytest.mark.parametrize("text", ["Infinity", "1e999", "NaN"])
    def test_model_with_a_condition_that_is_not_finite_is_data_error(
        self, tmp_path, truth_file, capsys, text
    ):
        model_path = tmp_path / "model.json"
        model_path.write_text(truth_file.read_text().replace('"condition": 1.0', f'"condition": {text}'))
        assert main(["predict", "--model", str(model_path), "--mappers", "4",
                     "--reducers", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: CorruptRecordError: {model_path}: condition_estimate must be finite and > 0"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "a, command, point",
        [
            # inf - inf at (2**62, 2**62) is nan; at (2**62, 1) the sum is inf.
            ([0.0, 1e300, 0.0, 0.0, -1e300], "predict", ("nan", 2**62, 2**62)),
            ([0.0, 1e300, 0.0, 0.0, -1e300], "predict", ("inf", 2**62, 1)),
            ([0.0, 1e300, 0.0, 0.0, -1e300], "report", ("nan", 2**62, 2**62)),
            ([0.0, 1e307, 1e307, 0.0, 0.0], "evaluate", ("inf", 4, 4)),
            ([0.0, 1e307, 1e307, 0.0, 0.0], "simulate", ("inf", 4, 4)),
        ],
        ids=["predict-nan", "predict-inf", "report-nan", "evaluate-inf", "simulate-inf"],
    )
    def test_a_prediction_that_is_not_finite_is_data_error(
        self, tmp_path, truth_file, capsys, a, command, point
    ):
        assert main(_simulate(tmp_path, out="truth-runs.jsonl")) == 0
        doc = json.loads(truth_file.read_text())
        doc["a"] = a
        truth_file.write_text(json.dumps(doc))
        value, mappers, reducers = point
        model = ["--model", str(truth_file)]
        argv = {
            "predict": ["predict", *model, "--mappers", str(mappers), "--reducers", str(reducers)],
            "report": ["report", *model, "--grid", f"{2**62}:{2**62}:1",
                       "--out", str(tmp_path / "r")],
            "evaluate": ["evaluate", *model, "--runs", str(tmp_path / "truth-runs.jsonl"),
                         "--app", "synthetic"],
            "simulate": _simulate(tmp_path),
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        where = f"surface predicts {value} cycles at (mappers={mappers}, reducers={reducers})"
        # The typed error is the only line: numpy's overflow warning is not
        # printed above it.
        assert captured.err == f"error: CyclecastError: {where}; a cycle count must be finite\n"
        assert captured.out == ""
        assert not (tmp_path / "r" / "surface.tsv").exists()
        assert not (tmp_path / "runs.jsonl").exists()

    def test_a_scaled_prediction_that_is_not_finite_is_data_error(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        save_model(model_path, dataclasses.replace(TRUTH, ref_input_bytes=1, line=(1e300, 1.0)))
        assert main(["predict", "--model", str(model_path), "--mappers", "4",
                     "--reducers", "8", "--input-bytes", str(2**62)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: CyclecastError: scaling to {2**62} bytes gives inf cycles; "
            "a cycle count must be finite\n"
        )
        assert captured.out == ""

    def test_torn_store_tail_is_skipped_with_one_warning(self, tmp_path, truth_file, capsys):
        assert main(_simulate(tmp_path)) == 0
        with open(tmp_path / "runs.jsonl", "a") as handle:
            handle.write('{"schema_version":1,"app":"a","run_')
        capsys.readouterr()
        assert main([
            "fit", "--runs", str(tmp_path / "runs.jsonl"), "--app", "synthetic",
            "--out", str(tmp_path / "m.json"),
        ]) == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == 1
        assert "line 65" in err

    def test_append_after_a_torn_tail_drops_it(self, tmp_path, truth_file, capsys):
        assert main(_simulate(tmp_path)) == 0
        with open(tmp_path / "runs.jsonl", "a") as handle:
            handle.write('{"schema_version":1,"app":"a","run_')
        argv = _simulate(tmp_path, seed="8")
        argv[argv.index("4:32:4")] = "4:8:4"  # 4 more runs
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().err.count("warning:") == 1
        assert main([
            "fit", "--runs", str(tmp_path / "runs.jsonl"), "--app", "synthetic",
            "--out", str(tmp_path / "m.json"),
        ]) == 0
        assert "warning:" not in capsys.readouterr().err
        assert len(load_runs(tmp_path / "runs.jsonl")) == 64 + 4

    def test_corrupt_store_is_data_error(self, tmp_path, truth_file, capsys):
        path = tmp_path / "runs.jsonl"
        path.write_text("garbage\n")
        assert main([
            "fit", "--runs", str(path), "--app", "x", "--out", str(tmp_path / "m.json"),
        ]) == 2
        assert "CorruptRecord" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [("ingest", "--app"), ("ingest", "--run-id"), ("fit", "--app"),
         ("scale-fit", "--app"), ("evaluate", "--app"), ("simulate", "--app")],
    )
    def test_an_empty_text_flag_is_usage(self, tmp_path, truth_file, capsys, command, flag):
        (tmp_path / "trace.csv").write_text(TRACE_CSV)
        (tmp_path / "cluster.txt").write_text(CLUSTER_TXT)
        assert main(_simulate(tmp_path)) == 0
        runs, model, out = (str(tmp_path / f) for f in ("runs.jsonl", "model.json", "new.jsonl"))
        assert main(["fit", "--runs", runs, "--app", "synthetic", "--out", model]) == 0
        before = Path(model).read_bytes()
        capsys.readouterr()
        argv = {
            "ingest": ["ingest"] + _ingest_args(tmp_path, **{"--out": out, flag: ""}),
            "fit": ["fit", "--runs", runs, "--app", "", "--out", model],
            "scale-fit": ["scale-fit", "--runs", runs, "--app", "", "--model", model],
            "evaluate": ["evaluate", "--model", model, "--runs", runs, "--app", ""],
            "simulate": _simulate(tmp_path, out="new.jsonl", extra=["--app", ""]),
        }[command]
        assert main(argv) == 1
        name = flag.removeprefix("--").replace("-", "_")
        err = f"usage error: argument {flag}: {name} must be non-empty\n"
        assert capsys.readouterr() == ("", err)
        assert Path(model).read_bytes() == before
        assert not Path(out).exists()


_AWKWARD_APP = 'say "hi"'


class TestAwkwardNames:
    """Names the run store escapes load through the columnar pass."""

    def _stores(self, tmp_path):
        (tmp_path / "trace.csv").write_text(TRACE_CSV)
        (tmp_path / "cluster.txt").write_text(CLUSTER_TXT)
        size = str(12 * 2**30)
        assert main(_simulate(tmp_path, extra=["--app", _AWKWARD_APP, "--input-bytes", size])) == 0
        assert main(["ingest"] + _ingest_args(
            tmp_path, **{"--app": _AWKWARD_APP, "--run-id": "run-é", "--input-bytes": size}
        )) == 0
        for gib in (6, 24):
            extra = ["--app", _AWKWARD_APP, "--input-bytes", str(gib * 2**30)]
            assert main(_simulate(tmp_path, out="sized.jsonl", extra=extra)) == 0
        return tmp_path / "runs.jsonl", tmp_path / "sized.jsonl"

    def _fit_scale_evaluate(self, tmp_path, runs, sized, capsys):
        """Each command's exit code, stdout, stderr and model file bytes."""
        model = tmp_path / "model.json"
        outcomes = []
        for argv in (
            ["fit", "--runs", str(runs), "--app", _AWKWARD_APP, "--out", str(model)],
            ["scale-fit", "--runs", str(sized), "--app", _AWKWARD_APP, "--model", str(model)],
            ["evaluate", "--model", str(model), "--runs", str(runs), "--app", _AWKWARD_APP],
        ):
            code = main(argv)
            outcomes.append((code, *capsys.readouterr(), model.read_bytes()))
        model.unlink()
        return outcomes

    def test_escaped_names_take_the_columnar_pass_end_to_end(self, tmp_path, truth_file, capsys):
        runs, sized = self._stores(tmp_path)
        assert '"run_id":"run-\\u00e9"' in runs.read_text()
        assert '"app":"say \\"hi\\""' in sized.read_text()
        capsys.readouterr()
        with mock.patch.object(store, "_row_runs", side_effect=AssertionError("line loop")):
            columnar = self._fit_scale_evaluate(tmp_path, runs, sized, capsys)
        with mock.patch.object(store, "_fast_columns", return_value=None):
            line_loop = self._fit_scale_evaluate(tmp_path, runs, sized, capsys)
        assert [outcome[0] for outcome in columnar] == [0, 0, 0]
        assert columnar == line_loop


# The benchmark's campaign pipeline through main, in a fresh process.
_PIPELINE = """
import sys
from cyclecast.cli import main

work, truth, cluster = sys.argv[1:]
runs, sizes, model = f"{work}/runs.jsonl", f"{work}/sizes.jsonl", f"{work}/model.json"
simulate = ["simulate", "--truth", truth, "--grid", "4:32:4", "--reps", "2", "--seed", "7"]
commands = [
    simulate + ["--out", runs, "--emit-traces", f"{work}/traces", "--cluster", cluster],
    *(simulate + ["--out", sizes, "--input-bytes", str(gib * 2**30)] for gib in (6, 12, 24)),
    ["ingest", "--traces", f"{work}/traces/synthetic-m004-r008-rep00.csv", "--cluster", cluster,
     "--app", "synthetic", "--mappers", "4", "--reducers", "8", "--input-bytes", str(12 * 2**30),
     "--out", runs],
    ["fit", "--runs", runs, "--app", "synthetic", "--out", model],
    ["scale-fit", "--runs", sizes, "--app", "synthetic", "--model", model],
    ["evaluate", "--model", model, "--runs", runs, "--app", "synthetic",
     "--holdout-list", f"{work}/holdout.txt"],
    ["report", "--model", model, "--grid", "2:40:2", "--out", f"{work}/report"],
    ["predict", "--model", model, "--mappers", "6", "--reducers", "10",
     "--input-bytes", str(30 * 2**30)],
]
for argv in commands:
    assert main(argv) == 0, argv
print("numpy.ma" in sys.modules)
"""


def test_the_pipeline_never_imports_numpy_ma(tmp_path, truth_file):
    # numpy.ma, which np.unique imports on first use, costs about a
    # megabyte of peak memory in a short-lived CLI process.
    (tmp_path / "cluster.txt").write_text(CLUSTER_TXT)
    (tmp_path / "holdout.txt").write_text("4 8\n12 16\n28 32\n")
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _PIPELINE, str(tmp_path), str(truth_file),
         str(tmp_path / "cluster.txt")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
