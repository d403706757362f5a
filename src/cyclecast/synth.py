"""Seeded synthetic workloads for end-to-end validation.

A ground-truth cost model plays the role of a real application:
each simulated run draws one multiplicative noise factor and reports
cycles = truth(config) * max(0, 1 + eps) with eps ~ Normal(0, sigma).

Randomness contract: every (config, repetition) cell gets its own PCG64
substream keyed by SeedSequence([seed, mappers, reducers, repetition]),
so the order the grid is enumerated in can never change a draw, and any
cell can be regenerated in isolation.  The key is passed as the uint32
words SeedSequence derives from that int list: each int's little-endian
32-bit words, [0] for 0.  Trace synthesis keys its stream by
[seed, digest(run_id)].

Trace synthesis works backwards from a run's total: the total is split
across machines by random weights, converted to per-machine CPU-seconds
through each clock rate, and spread over enough one-second samples that
no sample exceeds its machine's core count.  Re-accounting the emitted
traces reproduces the run's total to ~1e-12 relative.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .core import ClusterSpec, EmptyInputError, RunTable, TraceSet
from .regression import CostModel

DEFAULT_GRID = tuple(range(4, 33, 4))
DEFAULT_INPUT_BYTES = 12 * 2**30

# Target mean utilization when spreading CPU-seconds over samples; leaves
# headroom so jitter never pushes a sample past the core count.
_TARGET_UTILIZATION = 0.6
_JITTER_SAFETY = 0.9


@dataclass(frozen=True)
class SynthSpec:
    """Everything that determines a synthetic workload, including the seed."""

    truth: CostModel
    grid_mappers: tuple[int, ...] = DEFAULT_GRID
    grid_reducers: tuple[int, ...] = DEFAULT_GRID
    repetitions: int = 10
    noise_rel_sigma: float = 0.02
    seed: int = 0
    app: str = "synthetic"
    input_bytes: int = DEFAULT_INPUT_BYTES

    def __post_init__(self) -> None:
        for name in ("grid_mappers", "grid_reducers"):
            grid = tuple(getattr(self, name))
            if not grid:
                raise ValueError(f"{name} must be non-empty")
            if any(v < 1 for v in grid):
                raise ValueError(f"{name} values must be >= 1, got {grid}")
            object.__setattr__(self, name, grid)
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        if not math.isfinite(self.noise_rel_sigma) or self.noise_rel_sigma < 0:
            raise ValueError(
                f"noise_rel_sigma must be finite and >= 0, got {self.noise_rel_sigma}"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a uint64, got {self.seed}")
        if not self.app:
            raise ValueError("app must be non-empty")
        if self.input_bytes < 1:
            raise ValueError(f"input_bytes must be >= 1, got {self.input_bytes}")


def _words(value: int) -> list[int]:
    """value's little-endian 32-bit words, [0] for 0: the uint32 words
    SeedSequence derives from a non-negative int in its entropy list."""
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


def generate_profiles(spec: SynthSpec) -> RunTable:
    """Simulate every grid cell, repetitions times, in deterministic order.

    With noise_rel_sigma == 0 every run's cycles equals the truth's
    prediction at its config and input size exactly.  Rows come out
    ordered by (mappers, reducers, repetition).
    """
    cells = [(m, r) for m in spec.grid_mappers for r in spec.grid_reducers]
    mappers, reducers = zip(*cells)
    truth = spec.truth.predict(mappers, reducers, spec.input_bytes).tolist()
    reps = range(spec.repetitions)
    seed, rep_words = _words(spec.seed), [_words(rep) for rep in reps]
    cycles = []
    for (m, r), true_cycles in zip(cells, truth):
        cell = seed + _words(m) + _words(r)
        for words in rep_words:
            entropy = np.random.SeedSequence(np.array(cell + words, dtype=np.uint32))
            eps = np.random.Generator(np.random.PCG64(entropy)).normal(0.0, spec.noise_rel_sigma)
            cycles.append(true_cycles * max(0.0, 1.0 + eps))
    return RunTable(
        apps=(spec.app,) * len(cycles),
        run_ids=[f"{spec.app}-m{m:03d}-r{r:03d}-rep{rep:02d}" for m, r in cells for rep in reps],
        mappers=np.repeat(mappers, spec.repetitions),
        reducers=np.repeat(reducers, spec.repetitions),
        input_bytes=np.full(len(cycles), spec.input_bytes),
        total_cycles=cycles,
    )


def generate_trace(
    run_id: str, total_cycles: float, cluster: ClusterSpec, seed: int
) -> TraceSet:
    """Fabricate a trace set, one segment per machine from offset 0, that
    accounts back to total_cycles.

    The split across machines and the per-second jitter are drawn from a
    stream keyed by (seed, run_id), so regenerating any single run's traces
    is deterministic and independent of other runs.  A zero-cycle run
    yields an empty set.  Every sample satisfies 0 <= cpu_seconds <= cores.
    A machine whose share would take infinitely many CPU-seconds, a clock
    too slow for the total, is a ValueError.
    """
    if not cluster.machines:
        raise EmptyInputError("cluster has no machines")
    if total_cycles == 0:
        return TraceSet((), [], [], [])
    digest = int.from_bytes(
        hashlib.sha256(run_id.encode("utf-8")).digest()[:8], "big"
    )
    rng = np.random.default_rng(np.random.SeedSequence([seed, digest]))
    weights = rng.uniform(0.5, 1.5, size=len(cluster.machines))
    weights /= weights.sum()

    columns: list[np.ndarray] = []
    machines = zip(cluster.machines, cluster.clock_hz.tolist(), cluster.cores.tolist())
    for (machine_id, clock_hz, cores), weight in zip(machines, weights.tolist()):
        cpu_seconds = total_cycles * weight / clock_hz
        if not math.isfinite(cpu_seconds):
            raise ValueError(
                f"machine {machine_id!r} at {clock_hz!r} Hz would need {cpu_seconds} "
                f"CPU-seconds for {total_cycles!r} cycles"
            )
        target_rate = _TARGET_UTILIZATION * cores
        n_samples = max(1, math.ceil(cpu_seconds / target_rate))
        base = cpu_seconds / n_samples  # <= target_rate by choice of n_samples
        jitter = rng.uniform(-1.0, 1.0, size=n_samples)
        jitter -= jitter.mean()
        peak = float(np.max(jitter))
        trough = float(-np.min(jitter))
        if n_samples > 1 and peak > 0 and trough > 0:
            # Largest zero-sum wiggle keeping every sample in (0, cores).
            amplitude = _JITTER_SAFETY * min((cores - base) / peak, base / trough)
            values = base + amplitude * jitter
        else:
            values = np.full(n_samples, base)
        columns.append(values)
    offsets = np.concatenate([np.arange(len(values)) for values in columns])
    return TraceSet(
        cluster.machines, np.cumsum(list(map(len, columns))), offsets, np.concatenate(columns)
    )
