#!/usr/bin/env python3
"""Input-size transfer study: fit at one size, predict at others.

Ground truth here makes cycles grow linearly with input bytes on top of
the quadratic (mappers, reducers) surface.  The study fits the surface at
the reference size only, fits the size line from per-size mean cycles,
then transfers reference-size predictions to each held-out size.  One row
per target size:

    gib  transfer_mape  pred25

A small transfer_mape at 2x and 4x the reference size is the point of the
multiplicative size model.

Example:
    python3 scripts/input_scaling_study.py --noise 0.02 --seed 3
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from cyclecast.core import RunTable, aggregate_repetitions
from cyclecast.metrics import mape, pred25
from cyclecast.regression import CostModel, fit_least_squares
from cyclecast.synth import DEFAULT_GRID

GIB = 2**30

SURFACE = CostModel(
    app="study",
    a=(1.0e12, 2.0e10, 3.0e8, 4.0e10, 5.0e8),
    condition_estimate=1.0,
    training_residual=0.0,
    ref_input_bytes=12 * GIB,
)

# True size behavior: cycles(M, R, bytes) = surface(M, R) * line(bytes)/line(ref).
LINE_SLOPE = 60.0  # cycles per byte, before the surface factor
LINE_INTERCEPT = 2.0e11


def true_cycles(input_bytes: int, ref_bytes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid's mappers and reducers columns, mappers varying slowest,
    and the true cycles over it at input_bytes."""
    line = LINE_SLOPE * input_bytes + LINE_INTERCEPT
    line_ref = LINE_SLOPE * ref_bytes + LINE_INTERCEPT
    mappers, reducers, surface = SURFACE.tabulate(DEFAULT_GRID, DEFAULT_GRID)
    return mappers, reducers, surface * line / line_ref


def simulate_runs(sizes_gib, reps, noise, seed, ref_bytes) -> RunTable:
    """Noisy runs over the grid at each size.  Each run draws from its own
    stream, keyed by (seed, gib, mappers, reducers, rep)."""
    run_ids, mappers, reducers, sizes, cycles = [], [], [], [], []
    for gib in sizes_gib:
        grid_mappers, grid_reducers, truth = true_cycles(gib * GIB, ref_bytes)
        for m, r, expected in zip(grid_mappers.tolist(), grid_reducers.tolist(), truth.tolist()):
            for rep in range(reps):
                rng = np.random.default_rng(np.random.SeedSequence([seed, gib, m, r, rep]))
                eps = rng.normal(0.0, noise)
                run_ids.append(f"study-g{gib:02d}-m{m:03d}-r{r:03d}-x{rep:02d}")
                mappers.append(m)
                reducers.append(r)
                sizes.append(gib * GIB)
                cycles.append(expected * max(0.0, 1.0 + eps))
    return RunTable(
        apps=["study"] * len(run_ids),
        run_ids=run_ids,
        mappers=np.array(mappers),
        reducers=np.array(reducers),
        input_bytes=np.array(sizes),
        total_cycles=cycles,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref-gib", type=int, default=12)
    parser.add_argument(
        "--train-gib", type=int, nargs="+", default=[6, 12, 18],
        help="sizes the size line is fitted from",
    )
    parser.add_argument(
        "--target-gib", type=int, nargs="+", default=[24, 48],
        help="held-out sizes the transfer is scored at",
    )
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--noise", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    ref_bytes = args.ref_gib * GIB
    if args.ref_gib not in args.train_gib:
        parser.error("--ref-gib must be one of --train-gib")

    train_runs = simulate_runs(args.train_gib, args.reps, args.noise, args.seed, ref_bytes)
    # The reference size's runs again: the same draws, as each run's stream
    # is keyed by its own size.
    ref_runs = simulate_runs([args.ref_gib], args.reps, args.noise, args.seed, ref_bytes)
    surface = fit_least_squares(aggregate_repetitions(ref_runs))
    model = surface.with_size_line(aggregate_repetitions(train_runs))
    slope, intercept = model.line
    print(
        f"# surface condition {model.condition_estimate:.2e}, "
        f"size line slope {slope:.4e} cycles/byte intercept {intercept:.4e}",
        file=sys.stderr,
    )

    print(f"{'gib':>4} {'transfer_mape':>14} {'pred25':>7}")
    for gib in args.target_gib:
        target_bytes = gib * GIB
        actual = true_cycles(target_bytes, ref_bytes)[2]
        predicted = model.tabulate(DEFAULT_GRID, DEFAULT_GRID, target_bytes)[2]
        print(
            f"{gib:>4d} {mape(actual, predicted):>14.4%} "
            f"{pred25(actual, predicted):>7.2f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
