#!/usr/bin/env python3
"""Grid-profiling experiment: how noise and repetition count move holdout error.

For each (noise, repetitions) pair the experiment simulates a seeded grid
workload, fits the quadratic surface, scores it on random holdout
configurations, and repeats over many seeds.  One summary row per pair:

    noise  reps  mean_mape  worst_mape  pred25_all_frac

where pred25_all_frac is the fraction of seeds whose every holdout point
landed within 25% relative error.

Example:
    python3 scripts/run_grid_experiment.py --seeds 20 --out results.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from cyclecast.core import aggregate_repetitions
from cyclecast.metrics import mape, pred25
from cyclecast.regression import CostModel, fit_least_squares, predict
from cyclecast.synth import SynthSpec, generate_profiles

TRUTH = CostModel(
    app="synthetic",
    a=(1.0e12, 2.0e10, 3.0e8, 4.0e10, 5.0e8),
    condition_estimate=1.0,
    training_residual=0.0,
    ref_input_bytes=12 * 2**30,
)

HOLDOUT_STREAM_KEY = 777


def holdout_error(model, seed: int, n_holdout: int, noise: float):
    rng = np.random.default_rng(np.random.SeedSequence([seed, HOLDOUT_STREAM_KEY]))
    # Each holdout point draws its mappers, reducers and noise in turn.
    draws = [
        (int(rng.integers(4, 33)), int(rng.integers(4, 33)), rng.normal(0.0, noise))
        for _ in range(n_holdout)
    ]
    mappers, reducers, eps = (np.array(column) for column in zip(*draws))
    actual = predict(TRUTH, mappers, reducers) * np.maximum(0.0, 1.0 + eps)
    predicted = predict(model, mappers, reducers)
    return mape(actual, predicted), pred25(actual, predicted)


def run_cell(noise: float, reps: int, seeds: int, n_holdout: int) -> dict:
    mapes = []
    all_within = 0
    for seed in range(seeds):
        spec = SynthSpec(truth=TRUTH, repetitions=reps, noise_rel_sigma=noise, seed=seed)
        profiles = aggregate_repetitions(generate_profiles(spec))
        model = fit_least_squares(profiles)
        m, p = holdout_error(model, seed, n_holdout, noise)
        mapes.append(m)
        if p == 1.0:
            all_within += 1
    return {
        "noise": noise,
        "repetitions": reps,
        "seeds": seeds,
        "mean_mape": float(np.mean(mapes)),
        "worst_mape": float(np.max(mapes)),
        "pred25_all_frac": all_within / seeds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20, help="seeds per cell")
    parser.add_argument("--holdout", type=int, default=30, help="holdout configs per seed")
    parser.add_argument(
        "--noise", type=float, nargs="+", default=[0.0, 0.01, 0.02, 0.05, 0.10]
    )
    parser.add_argument("--reps", type=int, nargs="+", default=[1, 5, 10])
    parser.add_argument("--out", default=None, help="write rows as JSON here")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    rows = []
    print(f"{'noise':>6} {'reps':>5} {'mean_mape':>10} {'worst_mape':>11} {'pred25_all':>11}")
    for noise in args.noise:
        for reps in args.reps:
            row = run_cell(noise, reps, args.seeds, args.holdout)
            rows.append(row)
            print(
                f"{row['noise']:>6.2f} {row['repetitions']:>5d} "
                f"{row['mean_mape']:>10.4%} {row['worst_mape']:>11.4%} "
                f"{row['pred25_all_frac']:>11.2f}"
            )
    elapsed = time.perf_counter() - started
    print(f"# {len(rows)} cells x {args.seeds} seeds in {elapsed:.1f}s", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(rows, handle, indent=2)
        print(f"# wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
