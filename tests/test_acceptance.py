"""End-to-end acceptance checks pinning the package's accuracy contracts.

Each test prints one PASS/FAIL line so a run of this module doubles as a
checklist.  Tolerances are part of the contract: loosening one here is a
behavior change, not a test fix.
"""

import dataclasses
import json
import time

import numpy as np
import pytest
from oracle import solve_normal_equations, trace_set

from cyclecast.cli import main
from cyclecast.core import (
    ClusterSpec,
    ProfileTable,
    aggregate_repetitions,
    total_cpu_cycles,
)
from cyclecast.metrics import mape, pred25, r2_paper, r2_standard, rmse
from cyclecast.regression import (
    CostModel,
    build_design_matrix,
    fit_least_squares,
    predict,
)
from cyclecast.scaling import fit_scaling, scale_prediction
from cyclecast.store import save_model
from cyclecast.synth import SynthSpec, generate_profiles

TRUTH_A = (1.0e12, 2.0e10, 3.0e8, 4.0e10, 5.0e8)

TRUTH_MODEL = CostModel(
    app="synthetic",
    a=TRUTH_A,
    condition_estimate=1.0,
    training_residual=0.0,
    ref_input_bytes=12 * 2**30,
)


def _report(capsys, label, passed, detail):
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"[acceptance] {label}: {status} ({detail})", flush=True)
    assert passed, f"{label}: {detail}"


def _rel(a, b):
    denom = max(abs(a), abs(b))
    return abs(a - b) / denom if denom > 0 else 0.0


def test_01_noiseless_grid_recovery(capsys):
    # Fitting 64 noise-free grid profiles must reproduce the generating
    # coefficients to 1e-8 relative, in under a second.
    started = time.perf_counter()
    spec = SynthSpec(
        truth=TRUTH_MODEL, repetitions=1, noise_rel_sigma=0.0, seed=0
    )
    profiles = aggregate_repetitions(generate_profiles(spec))
    fitted = fit_least_squares(profiles)
    # Independent closed-form check: solve (H^T H) a = H^T y from scratch.
    rows = build_design_matrix(profiles.mappers, profiles.reducers)
    oracle = solve_normal_equations(rows, profiles.mean_cycles)
    elapsed = time.perf_counter() - started

    worst_truth = max(_rel(got, want) for got, want in zip(fitted.a, TRUTH_A))
    worst_oracle = max(_rel(got, want) for got, want in zip(fitted.a, oracle))
    passed = worst_truth <= 1e-8 and worst_oracle <= 1e-8 and elapsed < 1.0
    _report(
        capsys,
        "1 noiseless-grid-recovery",
        passed,
        f"rel-vs-truth {worst_truth:.2e}, rel-vs-closed-form {worst_oracle:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_02_noisy_holdout_accuracy_across_seeds(capsys):
    # 2% multiplicative noise, 10 repetitions per grid cell, 30 random
    # holdout configs per seed: MAPE <= 8% and PRED(25) == 1.0 must hold
    # for at least 95 of 100 seeds, all within 10 seconds.
    started = time.perf_counter()
    passes = 0
    worst_mape = 0.0
    for seed in range(100):
        spec = SynthSpec(
            truth=TRUTH_MODEL, repetitions=10, noise_rel_sigma=0.02, seed=seed
        )
        profiles = aggregate_repetitions(generate_profiles(spec))
        model = fit_least_squares(profiles)

        holdout_rng = np.random.default_rng(np.random.SeedSequence([seed, 777]))
        draws = [
            (
                int(holdout_rng.integers(4, 33)),
                int(holdout_rng.integers(4, 33)),
                holdout_rng.normal(0.0, 0.02),
            )
            for _ in range(30)
        ]
        ms, rs, eps = (np.array(column) for column in zip(*draws))
        actual = predict(TRUTH_MODEL, ms, rs) * np.maximum(0.0, 1.0 + eps)
        predicted = predict(model, ms, rs)
        seed_mape = mape(actual, predicted)
        worst_mape = max(worst_mape, seed_mape)
        if seed_mape <= 0.08 and pred25(actual, predicted) == 1.0:
            passes += 1
    elapsed = time.perf_counter() - started
    passed = passes >= 95 and elapsed < 10.0
    _report(
        capsys,
        "2 noisy-holdout-accuracy",
        passed,
        f"{passes}/100 seeds pass, worst MAPE {worst_mape:.3%}, {elapsed:.2f}s",
    )


def test_03_solver_cross_check_equivalence(capsys):
    # Across 1000 random full-rank datasets, the scaled SVD fit and the
    # direct normal-equations solve must agree coefficient-wise to 1e-8
    # relative whenever the condition estimate is below 1e8.
    rng = np.random.default_rng(0)
    worst = 0.0
    compared = 0
    for _ in range(1000):
        while True:
            k = int(rng.integers(5, 65))
            ms = rng.integers(1, 65, size=k)
            rs = rng.integers(1, 65, size=k)
            rows = build_design_matrix(ms, rs)
            scaled = rows / np.max(np.abs(rows), axis=0)
            singular_values = np.linalg.svd(scaled, compute_uv=False)
            if (
                singular_values[-1] > 1e-12 * singular_values[0]
                and len(set(zip(ms.tolist(), rs.tolist()))) >= 5
            ):
                break
        truth = rng.uniform(1e8, 1e12, size=5)
        y = (rows @ truth) * (1.0 + 0.02 * rng.standard_normal(k))
        ones = np.ones(k, dtype=np.int64)
        profiles = ProfileTable(("synthetic",) * k, ms, rs, ones, y, ones)
        production = fit_least_squares(profiles)
        literal = solve_normal_equations(rows, y)
        if production.condition_estimate >= 1e8:
            continue
        compared += 1
        worst = max(
            worst, max(_rel(a, b) for a, b in zip(production.a, literal))
        )
    passed = compared > 0 and worst <= 1e-8
    _report(
        capsys,
        "3 solver-cross-check",
        passed,
        f"{compared}/1000 datasets compared, worst rel diff {worst:.2e}",
    )


def test_04_metric_hand_values_and_invariants(capsys):
    # Frozen hand-computed values, exact to 1e-12, plus scale-equivariance
    # and permutation invariance over 1000 random vector pairs.
    hand_ok = (
        abs(mape([100.0, 200.0, 400.0], [110.0, 190.0, 440.0]) - 1.0 / 12.0) <= 1e-12
        and pred25([100.0, 100.0, 100.0, 100.0], [110.0, 130.0, 120.0, 126.0]) == 0.5
        and abs(rmse([1.0, 1.0], [1.0, 3.0]) - np.sqrt(2.0)) <= 1e-12
        and abs(r2_paper([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) - 0.8) <= 1e-12
        and r2_standard([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == 0.0
        and r2_paper([1.0, 3.0], [2.0, 2.0]) is None
        and r2_standard([2.0, 2.0], [1.0, 3.0]) is None
    )

    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        actual = rng.uniform(1.0, 1e6, size=n)
        predicted = rng.uniform(0.0, 1e6, size=n)
        c = float(rng.uniform(1e-3, 1e3))
        worst = max(worst, _rel(mape(c * actual, c * predicted), mape(actual, predicted)))
        worst = max(worst, _rel(rmse(c * actual, c * predicted), c * rmse(actual, predicted)))
        if pred25(c * actual, c * predicted) != pred25(actual, predicted):
            worst = max(worst, 1.0)
        order = rng.permutation(n)
        worst = max(worst, _rel(mape(actual[order], predicted[order]), mape(actual, predicted)))
        worst = max(worst, _rel(rmse(actual[order], predicted[order]), rmse(actual, predicted)))
        if pred25(actual[order], predicted[order]) != pred25(actual, predicted):
            worst = max(worst, 1.0)
    passed = hand_ok and worst <= 1e-12
    _report(
        capsys,
        "4 metric-hand-values-and-invariants",
        passed,
        f"hand values {'ok' if hand_ok else 'WRONG'}, worst invariant dev {worst:.2e}",
    )


def test_05_accounting_invariances(capsys):
    # 500 random clusters and traces: splitting samples across trace
    # records and scaling every clock by c must behave exactly (to 1e-12).
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(500):
        n_machines = int(rng.integers(1, 6))
        # Per machine, its clock is drawn before its cores.
        draws = [(float(rng.uniform(1e9, 4e9)), int(rng.integers(1, 17))) for _ in range(n_machines)]
        ids = [f"m{i}" for i in range(n_machines)]
        clocks, cores = zip(*draws)
        cluster = ClusterSpec(ids, clocks, cores)
        traces = []
        for machine_id, count in zip(ids, cores):
            n = int(rng.integers(1, 41))
            values = rng.uniform(0.0, count, size=n)
            traces.append((machine_id, range(n), values.tolist()))
        total = total_cpu_cycles(trace_set(traces), cluster)

        parts = []
        for machine_id, offsets, samples in traces:
            cut = int(rng.integers(0, len(samples) + 1))
            for part in (slice(None, cut), slice(cut, None)):
                parts.append((machine_id, offsets[part], samples[part]))
        split_total = total_cpu_cycles(trace_set(parts), cluster)
        worst = max(worst, _rel(split_total, total))

        factor = float(rng.uniform(0.25, 4.0))
        scaled_cluster = ClusterSpec(ids, [clock * factor for clock in clocks], cores)
        scaled_total = total_cpu_cycles(trace_set(traces), scaled_cluster)
        worst = max(worst, _rel(scaled_total, factor * total))
    passed = worst <= 1e-12
    _report(
        capsys,
        "5 accounting-invariances",
        passed,
        f"500 instances, worst rel dev {worst:.2e}",
    )


def test_06_size_scaling_recovery_and_transitivity(capsys):
    # Exactly linear synthetic points must refit their line to 1e-10, and
    # chained size transfers must agree with direct ones to 1e-12.
    rng = np.random.default_rng(6)
    gib = 2**30
    worst_fit = 0.0
    for _ in range(200):
        slope = float(rng.uniform(1e2, 1e4))
        intercept = float(rng.uniform(0.0, 1e12)) if rng.integers(2) else 0.0
        sizes = sorted(rng.choice(np.arange(1, 65), size=4, replace=False))
        points = [(int(s) * gib, slope * int(s) * gib + intercept) for s in sizes]
        fitted_slope, fitted_intercept = fit_scaling(points)
        scale = max(abs(c) for _, c in points)
        worst_fit = max(
            worst_fit,
            abs(fitted_slope - slope) / max(abs(slope), scale / (64 * gib)),
            abs(fitted_intercept - intercept) / max(abs(intercept), scale),
        )

    worst_chain = 0.0
    for _ in range(200):
        slope = float(rng.uniform(1e2, 1e4))
        intercept = float(rng.uniform(0.0, 1e12))
        ref, mid, target = (int(v) * gib for v in rng.integers(1, 65, size=3))
        base = float(rng.uniform(1e10, 1e14))
        model = dataclasses.replace(TRUTH_MODEL, ref_input_bytes=ref, line=(slope, intercept))
        via = dataclasses.replace(model, ref_input_bytes=mid)
        direct = scale_prediction(base, model, target)
        chained = scale_prediction(scale_prediction(base, model, mid), via, target)
        worst_chain = max(worst_chain, _rel(chained, direct))
    passed = worst_fit <= 1e-10 and worst_chain <= 1e-12
    _report(
        capsys,
        "6 size-scaling",
        passed,
        f"worst line-recovery dev {worst_fit:.2e}, worst transitivity dev "
        f"{worst_chain:.2e}",
    )


def _run_cli_pipeline(root, capsys):
    root.mkdir()
    truth_path = root / "truth.json"
    save_model(truth_path, TRUTH_MODEL)
    runs_path = root / "runs.jsonl"
    model_path = root / "model.json"
    codes = [
        main([
            "simulate", "--truth", str(truth_path), "--grid", "4:32:4",
            "--reps", "1", "--noise", "0", "--seed", "7", "--out", str(runs_path),
        ])
    ]
    capsys.readouterr()
    codes.append(main([
        "fit", "--runs", str(runs_path), "--app", "synthetic",
        "--out", str(model_path),
    ]))
    capsys.readouterr()
    codes.append(main([
        "predict", "--model", str(model_path), "--mappers", "6", "--reducers", "10",
    ]))
    prediction = capsys.readouterr().out
    codes.append(main([
        "evaluate", "--model", str(model_path), "--runs", str(runs_path),
        "--app", "synthetic",
    ]))
    evaluation = capsys.readouterr().out
    return {
        "codes": codes,
        "runs": runs_path.read_bytes(),
        "model": model_path.read_bytes(),
        "prediction": prediction,
        "evaluation": evaluation,
    }


def test_07_cli_pipeline_determinism(capsys, tmp_path):
    # The seeded noiseless CLI pipeline must be byte-reproducible and
    # self-consistent: evaluating the fit on its own training runs gives
    # MAPE 0 within 1e-8 and PRED(25) of exactly 1.
    first = _run_cli_pipeline(tmp_path / "a", capsys)
    second = _run_cli_pipeline(tmp_path / "b", capsys)
    report = json.loads(first["evaluation"])
    identical = (
        first["runs"] == second["runs"]
        and first["model"] == second["model"]
        and first["prediction"] == second["prediction"]
        and first["evaluation"] == second["evaluation"]
    )
    codes_ok = first["codes"] == [0, 0, 0, 0] and second["codes"] == [0, 0, 0, 0]
    accurate = report["mape"] <= 1e-8 and report["pred25"] == 1.0
    passed = identical and codes_ok and accurate
    _report(
        capsys,
        "7 cli-pipeline-determinism",
        passed,
        f"byte-identical={identical}, exit codes ok={codes_ok}, "
        f"mape={report['mape']:.2e}, pred25={report['pred25']}",
    )
