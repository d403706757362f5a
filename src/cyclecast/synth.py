"""Seeded synthetic workloads for end-to-end validation.

A ground-truth cost model plays the role of a real application:
each simulated run draws one multiplicative noise factor and reports
cycles = truth(config) * max(0, 1 + eps) with eps ~ Normal(0, sigma).

Randomness contract: every (config, repetition) cell gets its own PCG64
substream keyed by SeedSequence([seed, mappers, reducers, repetition]),
so the order the grid is enumerated in can never change a draw, and any
cell can be regenerated in isolation.  The key is the uint32 words
SeedSequence derives from that int list: each int's little-endian 32-bit
words, [0] for 0.  Trace synthesis keys its stream by
[seed, digest(run_id)].

The draws are made in bulk, bit for bit the same as seeding one
Generator per cell: _pcg64_states derives every cell's PCG64 state from
its key in one array pass (SeedSequence's entropy pool and
generate_state, then PCG64's seeding step), and one reused Generator
takes each state in turn through the public state dict and draws that
cell's noise.  A trace's jitter for all machines is one uniform draw,
cut into per-machine segments.

Trace synthesis works backwards from a run's total: the total is split
across machines by random weights, converted to per-machine CPU-seconds
through each clock rate, and spread over enough one-second samples that
no sample exceeds its machine's core count.  Re-accounting the emitted
traces reproduces the run's total to ~1e-12 relative.  A machine whose
share would need 2**63 or more samples is a ValueError naming it.

write_traces writes one trace file per run, on every core this process
may run on.  The runs are cut into contiguous parts of equal run count,
one per core in its CPU affinity, or fewer so that each part holds at
least _RUNS_PER_PART runs.  Forked children (ingest's _spawn) generate
and write every part after the first while this process does the first.
Every file is written under a temporary name in the directory and
renamed into place in run order, each only once every earlier run's file
is in place.  A part whose child could not be forked, exited non-zero
(as a warning makes it do) or sent a short result is redone here, so a
failure, or a warning, is reported as the serial loop would report it:
the files before the failing run stay, no later file and no temporary
file remains, and no child outlives the call.  Each trace is seeded by
(seed, run_id) alone, so the bytes do not depend on the split.
"""

from __future__ import annotations

import hashlib
import math
import os
import secrets
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .core import (
    ClusterSpec, CyclecastError, EmptyInputError, RunTable, TraceSet, _check_count, _real,
    check_text,
)
from .ingest import _part_count, _reaped, _spawn, write_trace_csv
from .regression import CostModel

DEFAULT_GRID = tuple(range(4, 33, 4))
DEFAULT_INPUT_BYTES = 12 * 2**30

# Target mean utilization when spreading CPU-seconds over samples; leaves
# headroom so jitter never pushes a sample past the core count.
_TARGET_UTILIZATION = 0.6
_JITTER_SAFETY = 0.9

# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and
# PCG64's default 128-bit multiplier (pcg64.h), as numpy publishes them.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1

# The fewest runs a part of write_traces holds.  Forking a child and
# reaping it costs this process about 3-5 ms; a campaign run's trace takes
# about 0.9 ms to generate and write.
_RUNS_PER_PART = 8
# What a run id may not hold, so that it names a file in the trace directory.
_NOT_IN_RUN_ID = frozenset({"/", os.sep, os.altsep or os.sep, "\0"})


class UnsafeRunIdError(CyclecastError):
    """A run id that cannot name a trace file: it holds a path separator or NUL."""


@dataclass(frozen=True)
class SynthSpec:
    """Everything that determines a synthetic workload, including the seed.

    Checked once, here, by core's rules, and each field stored as a plain
    Python value: the grids non-empty tuples of counts, repetitions and
    input_bytes counts, seed an int in [0, 2**64), noise_rel_sigma a
    real >= 0 and app a non-empty str.
    """

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
            grid = tuple([_check_count(name, value) for value in getattr(self, name)])
            if not grid:
                raise ValueError(f"{name} must be non-empty")
            object.__setattr__(self, name, grid)
        for name, value in [
            ("repetitions", _check_count("repetitions", self.repetitions)),
            ("noise_rel_sigma", _real("noise_rel_sigma", self.noise_rel_sigma)),
            ("seed", _check_count("seed", self.seed, 0, 2**64)),
            ("app", check_text("app", self.app)),
            ("input_bytes", _check_count("input_bytes", self.input_bytes)),
        ]:
            object.__setattr__(self, name, value)


def _words(value: int) -> list[int]:
    """value's little-endian 32-bit words, [0] for 0: the uint32 words
    SeedSequence derives from a non-negative int in its entropy list."""
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


def _hasher(init: int, multiplier: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's hash of uint32 columns: each call mixes in the
    current hash constant, then steps it by multiplier."""
    hash_const = init

    def hash_words(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * multiplier & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    return hash_words


def _pcg64_block(keys: np.ndarray) -> list[tuple[int, int]]:
    """(state, inc) of PCG64(SeedSequence(row)) for each row of keys, an
    (n, w) uint32 array with w >= 4, so no row needs zero padding."""

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> 16

    # SeedSequence.mix_entropy with its pool of 4 words.
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(keys[:, i]) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(4, keys.shape[1]):
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(keys[:, i_src]))
    # generate_state(4, uint64): 8 words from the cycled pool, paired
    # little-endian into 4 uint64s.
    hash_state = _hasher(_INIT_B, _MULT_B)
    words = [hash_state(pool[i % 4]).astype(np.uint64) for i in range(8)]
    seed_high, seed_low, seq_high, seq_low = (
        (words[i] | words[i + 1] << 32).tolist() for i in range(0, 8, 2)
    )
    # pcg64_set_seed then pcg_setseq_128_srandom_r: state 0, one step, add
    # the seed, one more step.
    states = []
    for high, low, inc_high, inc_low in zip(seed_high, seed_low, seq_high, seq_low):
        inc = (inc_high << 65 | inc_low << 1 | 1) & _MASK128
        states.append((((inc + (high << 64 | low)) * _PCG64_MULTIPLIER + inc) & _MASK128, inc))
    return states


def _pcg64_states(keys: list[list[int]]) -> list[tuple[int, int]]:
    """(state, inc) of PCG64(SeedSequence(key)) for each key, a list of
    at least 4 uint32 words, in order; keys of one width share one pass."""
    widths = np.fromiter(map(len, keys), np.intp, len(keys))
    states: list[tuple[int, int]] = [(0, 0)] * len(keys)
    for width in set(widths.tolist()):
        rows = np.flatnonzero(widths == width).tolist()
        block = np.array([keys[row] for row in rows], dtype=np.uint32)
        for row, state in zip(rows, _pcg64_block(block)):
            states[row] = state
    return states


def generate_profiles(spec: SynthSpec) -> RunTable:
    """Simulate every grid cell, repetitions times, in deterministic order.

    With noise_rel_sigma == 0 every run's cycles equals the truth's
    prediction at its config and input size exactly.  Rows come out
    ordered by (mappers, reducers, repetition).
    """
    cells = [(m, r) for m in spec.grid_mappers for r in spec.grid_reducers]
    mappers, reducers = zip(*cells)
    truth = spec.truth.predict(mappers, reducers, spec.input_bytes)
    reps = range(spec.repetitions)
    seed, rep_words = _words(spec.seed), [_words(rep) for rep in reps]
    cell_words = [seed + _words(m) + _words(r) for m, r in cells]
    keys = [cell + words for cell in cell_words for words in rep_words]
    # One bit generator and Generator take every run's state in turn; the
    # seed they are built with is overwritten before the first draw.
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    eps = []
    for state, inc in _pcg64_states(keys):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        eps.append(generator.normal(0.0, spec.noise_rel_sigma))
    prefixes = [f"{spec.app}-m{m:03d}-r{r:03d}-rep" for m, r in cells]
    suffixes = [f"{rep:02d}" for rep in reps]
    return RunTable(
        apps=(spec.app,) * len(keys),
        run_ids=[prefix + suffix for prefix in prefixes for suffix in suffixes],
        mappers=np.repeat(mappers, spec.repetitions),
        reducers=np.repeat(reducers, spec.repetitions),
        input_bytes=np.full(len(keys), spec.input_bytes),
        total_cycles=np.repeat(truth, spec.repetitions) * np.maximum(0.0, 1.0 + np.array(eps)),
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
    too slow for the total, or 2**63 or more samples is a ValueError, and
    so is a trace of 2**63 or more samples in all; each is raised before
    any jitter is drawn.  The arguments follow core's rules (seed a count
    in [0, 2**64)).
    """
    run_id, total_cycles = check_text("run_id", run_id), _real("total_cycles", total_cycles)
    seed = _check_count("seed", seed, 0, 2**64)
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

    # A clock too slow for the total overflows to inf, reported below.
    with np.errstate(over="ignore"):
        cpu_seconds = total_cycles * weights / cluster.clock_hz
        needed = np.maximum(1.0, np.ceil(cpu_seconds / (_TARGET_UTILIZATION * cluster.cores)))
    bad = ~np.isfinite(cpu_seconds) | (needed >= 2**63)
    if bad.any():
        i = int(bad.argmax())
        machine_id, share = cluster.machines[i], float(cpu_seconds[i])
        if not math.isfinite(share):
            raise ValueError(
                f"machine {machine_id!r} at {float(cluster.clock_hz[i])!r} Hz would need "
                f"{share} CPU-seconds for {total_cycles!r} cycles"
            )
        raise ValueError(
            f"machine {machine_id!r} with {int(cluster.cores[i])} cores would need "
            f"{needed[i]:.6g} samples for {share!r} CPU-seconds; at most 2**63 - 1"
        )
    counts = needed.astype(np.int64)
    rows = sum(counts.tolist())  # exact, where an int64 cumsum could wrap
    if rows >= 2**63:
        raise ValueError(f"the trace would need {rows} samples in all; at most 2**63 - 1")
    base = cpu_seconds / needed  # <= target rate by choice of the count
    ends = np.cumsum(counts)
    starts = ends - counts
    jitter = rng.uniform(-1.0, 1.0, size=rows)
    # Each segment's mean as ndarray.mean takes it: a pairwise sum per
    # segment (np.add.reduceat sums in another order), then one division.
    sums = [np.add.reduce(jitter[lo:hi]) for lo, hi in zip(starts.tolist(), ends.tolist())]
    jitter -= np.repeat(np.divide(sums, counts), counts)
    peaks = np.maximum.reduceat(jitter, starts)
    troughs = -np.minimum.reduceat(jitter, starts)
    wiggles = (counts > 1) & (peaks > 0) & (troughs > 0)
    # Largest zero-sum wiggle keeping every sample in (0, cores).
    amplitude = np.zeros(len(counts))
    amplitude[wiggles] = _JITTER_SAFETY * np.minimum(
        (cluster.cores[wiggles] - base[wiggles]) / peaks[wiggles],
        base[wiggles] / troughs[wiggles],
    )
    bases = np.repeat(base, counts)
    samples = np.where(
        np.repeat(wiggles, counts), bases + np.repeat(amplitude, counts) * jitter, bases
    )
    return TraceSet(cluster.machines, ends, np.arange(rows) - np.repeat(starts, counts), samples)


def write_traces(runs: RunTable, cluster: ClusterSpec, seed: int, out_dir: str | Path) -> None:
    """Write each run's trace, generate_trace(run_id, total_cycles,
    cluster, seed), to out_dir/<run_id>.csv, creating out_dir as needed.

    A run id holding a path separator or NUL is an UnsafeRunIdError,
    raised before out_dir is touched.  The files are written on every core
    this process may run on (see the module docstring); the outcome,
    success or the first failing run's error, is that of writing them one
    by one in run order.
    """
    run_ids, cycles = runs.run_ids, runs.total_cycles.tolist()
    for run_id in run_ids:
        if not _NOT_IN_RUN_ID.isdisjoint(run_id):
            raise UnsafeRunIdError(
                f"run id {run_id!r} holds a path separator or NUL, so it cannot name a trace file"
            )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    token = secrets.token_hex(8)
    temps = [out_dir / f".{run_id}.csv.{token}.tmp" for run_id in run_ids]
    parts = _part_count(len(run_ids), _RUNS_PER_PART)
    bounds = [len(run_ids) * part // parts for part in range(parts + 1)]
    work = (run_ids, cycles, cluster, seed, temps)
    children: dict[int, tuple[int, BinaryIO]] = {}  # part -> pid, read end of its pipe
    placed = 0  # runs whose file is in place
    try:
        for part in range(1, parts):
            child = _spawn(_send_part, *work, bounds[part], bounds[part + 1])
            if child is not None:
                children[part] = child
        for part in range(parts):
            lo, hi = bounds[part], bounds[part + 1]
            written = False  # by a child, whole
            if part in children:
                pid, pipe = children.pop(part)
                sent = pipe.read(8)
                written = _reaped(pid, pipe) == 0 and sent == (hi - lo).to_bytes(8, "little")
            for run in range(lo, hi):
                if not written:
                    _write_part(*work, run, run + 1)
                os.replace(temps[run], out_dir / f"{run_ids[run]}.csv")
                placed = run + 1
    finally:
        for pid, pipe in children.values():
            _reaped(pid, pipe, kill=True)
        for temp in temps[placed:]:
            temp.unlink(missing_ok=True)


def _write_part(
    run_ids: Sequence[str], cycles: list[float], cluster: ClusterSpec, seed: int,
    temps: list[Path], lo: int, hi: int,
) -> None:
    """Write the traces of runs lo to hi, each to its temporary name."""
    for run in range(lo, hi):
        traces = generate_trace(run_ids[run], cycles[run], cluster, seed)
        with open(temps[run], "w", encoding="utf-8", newline="") as handle:
            write_trace_csv(traces, handle)


def _send_part(
    pipe: BinaryIO, run_ids: Sequence[str], cycles: list[float], cluster: ClusterSpec,
    seed: int, temps: list[Path], lo: int, hi: int,
) -> None:
    """_write_part in a child, then the part's run count to pipe, as an
    8-byte little-endian int, once every file is closed."""
    _write_part(run_ids, cycles, cluster, seed, temps, lo, hi)
    pipe.write((hi - lo).to_bytes(8, "little"))
