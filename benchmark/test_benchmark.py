"""Tests of the benchmark itself: every workload passes its checks at a small
size, each check fails when the output it checks is perturbed, tracing
accounts for a pass, and the runner refuses to run without the sources.

    python3 -m pytest benchmark/test_benchmark.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from cyclecast import cli  # noqa: E402
from workloads import Campaign, IngestLong, IngestWide  # noqa: E402

SMALL = {
    "ingest-long": lambda work: IngestLong(work, seed=7, samples=300),
    "ingest-wide": lambda work: IngestWide(work, seed=7, racks=3),
    "campaign": lambda work: Campaign(work, seed=7, reps=2, train=(4, 16, 4), report=(2, 10, 2), predicts=4),
}


def _pass(workload):
    workload.reset()
    return run.run_commands(workload.commands(), cli.main)


@pytest.fixture(params=sorted(SMALL))
def checked(request, tmp_path):
    workload = SMALL[request.param](tmp_path)
    workload.generate()
    return workload, _pass(workload)


@pytest.fixture
def campaign(tmp_path):
    workload = SMALL["campaign"](tmp_path)
    workload.generate()
    return workload, _pass(workload)


def _failed_checks(workload, results) -> set[str]:
    return {failure.check for failure in workload.check(results)}


def test_every_workload_passes_its_checks(checked):
    workload, results = checked
    assert [r.code for r in results] == [0] * len(results)
    assert workload.check(results) == []


def test_the_same_seed_gives_the_same_inputs(tmp_path):
    digests = []
    for name in ("a", "b"):
        workload = SMALL["campaign"](tmp_path / name)
        workload.generate()
        digests.append([p.read_bytes() for p in sorted(workload.inputs.iterdir())])
    assert digests[0] == digests[1]


def test_a_non_zero_exit_fails_the_operation(checked):
    workload, results = checked
    results[0].code = 2
    assert "exit" in _failed_checks(workload, results)


@pytest.mark.parametrize("workload_name", ["ingest-long", "ingest-wide"])
def test_ingested_total_off_by_1e9_relative_fails(workload_name, tmp_path):
    workload = SMALL[workload_name](tmp_path)
    workload.generate()
    results = _pass(workload)
    store = workload.outputs / "runs.jsonl"
    records = [json.loads(line) for line in store.read_text().splitlines()]
    records[1]["total_cycles"] *= 1 + 1e-9
    store.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert {"ingest-total", "store-round-trip"} <= _failed_checks(workload, results)


def test_reported_total_that_differs_from_the_store_fails(tmp_path):
    workload = SMALL["ingest-long"](tmp_path)
    workload.generate()
    results = _pass(workload)
    stored = json.loads((workload.outputs / "runs.jsonl").read_text().splitlines()[0])["total_cycles"]
    results[0].stderr = results[0].stderr.replace(repr(stored), repr(stored * (1 + 1e-12)))
    assert _failed_checks(workload, results) == {"store-round-trip"}


def _rewrite_model(workload, app, edit):
    path = workload.outputs / f"model-{app}.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def test_changed_report_row_fails(campaign):
    workload, results = campaign
    path = workload.outputs / "report-exim" / "surface.tsv"
    lines = path.read_text().splitlines()
    m, r, value = lines[5].split("\t")
    lines[5] = f"{m}\t{r}\t{float(value) * (1 + 1e-9)!r}"
    path.write_text("\n".join(lines) + "\n")
    assert _failed_checks(workload, results) == {"report-rows"}


def test_changed_predict_output_fails(campaign):
    workload, results = campaign
    op = next(i for i, r in enumerate(results) if r.argv[0] == "predict")
    results[op].stdout = repr(float(results[op].stdout) * (1 + 1e-9)) + "\n"
    assert _failed_checks(workload, results) == {"predict-value"}


@pytest.mark.parametrize("key", ["mape", "pred25", "rmse"])
def test_changed_evaluate_metric_fails(campaign, key):
    workload, results = campaign
    op = next(i for i, r in enumerate(results) if r.argv[0] == "evaluate")
    report = json.loads(results[op].stdout.splitlines()[0])
    report[key] = report[key] * (1 + 1e-6) + 1e-6
    results[op].stdout = json.dumps(report) + "\n"
    assert _failed_checks(workload, results) == {"evaluate-json"}


def test_perturbed_coefficient_fails_the_fit_check(campaign):
    workload, results = campaign

    def edit(doc):
        doc["a"][2] *= 1 + 1e-6

    _rewrite_model(workload, "wordcount", edit)
    assert "fit-coefficients" in _failed_checks(workload, results)


def test_perturbed_size_line_fails_the_scale_fit_check(campaign):
    workload, results = campaign

    def edit(doc):
        doc["scaling"]["slope"] *= 1 + 1e-6

    _rewrite_model(workload, "terasort", edit)
    assert "scale-fit-line" in _failed_checks(workload, results)


def test_model_far_from_the_truth_fails_the_8_percent_property(campaign):
    workload, results = campaign

    def edit(doc):
        doc["a"] = [v * 1.2 for v in doc["a"]]

    _rewrite_model(workload, "exim", edit)
    assert "holdout-mape-vs-truth" in _failed_checks(workload, results)


def test_emitted_trace_that_does_not_account_back_fails(campaign):
    workload, results = campaign
    path = sorted((workload.outputs / "traces").glob("*.csv"))[0]
    lines = path.read_text().splitlines()
    machine, offset, value = lines[1].split(",")
    lines[1] = f"{machine},{offset},{float(value) * 1.001!r}"
    path.write_text("\n".join(lines) + "\n")
    assert _failed_checks(workload, results) == {"emitted-traces"}


def test_simulated_run_off_its_truth_fails(campaign):
    workload, results = campaign
    store = workload.outputs / "sizes.jsonl"
    records = [json.loads(line) for line in store.read_text().splitlines()]
    records[3]["total_cycles"] *= 1.5
    store.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert "simulate-values" in _failed_checks(workload, results)


def test_traced_pass_accounts_for_its_time(campaign):
    workload, _ = campaign
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.reset()
        results = run.run_commands(workload.commands(), cli.main, tracer)
    finally:
        tracer.uninstall()
    assert workload.check(results) == []
    spans = tracer.take()
    totals = tracing.summarize(spans)
    assert set(totals) == set(tracing.per_layer_metric_names())
    assert totals["synth.generate_trace.samples"] == totals["ingest.write_trace_csv.rows"] > 0
    assert totals["regression.predict.calls"] > 0
    assert 0 < totals["store.load_runs.useful_ratio"] < 1
    self_total = sum(v for k, v in totals.items() if tracing.is_time(k))
    inside = sum(s["end"] - s["start"] for s in spans if s["parent"] < 0)
    assert self_total == pytest.approx(inside, rel=1e-9)
    assert not hasattr(cli.parse_trace_csv, "__wrapped__")  # uninstall restored the originals


def test_benchmark_json_names_every_metric_the_runner_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == tracing.per_layer_metric_names()
    assert [m["name"] for m in doc["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_runner_refuses_a_tree_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark", ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "campaign", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
