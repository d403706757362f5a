"""Domain types for profiled jobs and the cycle-accounting rule.

The ground unit of cost is one CPU clock cycle.  Per-machine traces record
CPU-seconds consumed per wall-clock second; multiplying each machine's
summed CPU-seconds by that machine's clock rate and adding across machines
yields a single total-cycle figure that is comparable across clusters with
heterogeneous clocks.

All types are frozen dataclasses validated at construction, and every
operation here is pure.  Sums use math.fsum, so totals do not depend on
the order traces or samples are presented in.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence, TypeVar

import numpy as np


class CyclecastError(Exception):
    """Base class for every error this package raises deliberately."""


class EmptyInputError(CyclecastError):
    """An operation that needs at least one element received none."""


class ShapeMismatchError(CyclecastError):
    """Paired vectors or matrices have incompatible shapes."""


class UnknownMachineError(CyclecastError):
    """A trace names a machine that is absent from the cluster spec."""


class SampleExceedsCoresError(CyclecastError):
    """A one-second sample claims more CPU-seconds than the machine has cores."""


class NegativePredictionWarning(UserWarning):
    """A model produced a negative cycle count that was clamped to zero."""


_T = TypeVar("_T")


def _unchecked(cls: type[_T], **columns: Sequence) -> list[_T]:
    """Instances of the frozen, slotted dataclass cls, one per row of the
    columns, built without __post_init__.

    Only for the parsers' fast paths, which call it after proving on
    whole columns every rule cls checks, with each field already in the
    form __post_init__ would store.  The first column sets the row count.
    Fields are set one column at a time, which suits slots; on instances
    with a __dict__ it would stop them sharing their dict keys.
    """
    rows = len(next(iter(columns.values())))
    instances = list(map(object.__new__, itertools.repeat(cls, rows)))
    for name, column in columns.items():
        # Consume the map: it sets the field on every instance.
        collections.deque(
            map(object.__setattr__, instances, itertools.repeat(name), column), maxlen=0
        )
    return instances


@dataclass(frozen=True, slots=True)
class MachineTrace:
    """All CPU-seconds recorded on one machine, as two parallel columns.

    samples[i] is the CPU time consumed during the one-second interval
    starting at offsets[i].  Offsets are integers, non-negative and
    strictly increasing; samples are finite and >= 0.  A sample can
    exceed 1.0 on multi-core machines but never the core count; that
    bound is checked against the cluster spec at accounting time, not
    here, because the trace alone does not know its machine's cores.

    Offsets are kept in one canonical form, whatever was passed: a
    range(first, last + 1) when they are contiguous, otherwise a tuple
    of ints (so () when empty).  Traces built from equal columns thus
    compare equal and print alike, whoever built them.  Samples are
    stored as a tuple.
    """

    machine_id: str
    offsets: range | tuple[int, ...]
    samples: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.machine_id:
            raise ValueError("machine_id must be non-empty")
        offsets, samples = self.offsets, tuple(self.samples)
        if not isinstance(offsets, range):
            offsets = tuple(map(operator.index, offsets))  # ints only
        object.__setattr__(self, "samples", samples)
        if len(offsets) != len(samples):
            raise ValueError(f"offsets and samples of {self.machine_id!r} differ in length")
        if offsets and offsets[0] < 0:
            raise ValueError(f"offsets must be >= 0, got {offsets[0]}")
        if not all(map(operator.lt, offsets, offsets[1:])):
            raise ValueError(
                f"sample offsets must be strictly increasing on {self.machine_id!r}"
            )
        # min and max skip NaN, so the sum carries the NaN test: a NaN or an
        # infinity makes it NaN or infinite.  Only a failed screen (or finite
        # samples whose sum overflows) walks the samples to name the culprit.
        if samples and not (min(samples) >= 0.0 and sum(samples) < math.inf):
            bad = next((s for s in samples if not 0.0 <= s < math.inf), None)
            if bad is not None:
                raise ValueError(f"samples must be finite and >= 0, got {bad}")
        if offsets and offsets[-1] - offsets[0] == len(offsets) - 1:
            offsets = range(offsets[0], offsets[-1] + 1)
        else:
            offsets = tuple(offsets)
        object.__setattr__(self, "offsets", offsets)


@dataclass(frozen=True, slots=True)
class Machine:
    machine_id: str
    clock_hz: float
    cores: int

    def __post_init__(self) -> None:
        if not self.machine_id:
            raise ValueError("machine_id must be non-empty")
        if not math.isfinite(self.clock_hz) or self.clock_hz <= 0:
            raise ValueError(f"clock_hz must be finite and > 0, got {self.clock_hz}")
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")


@dataclass(frozen=True, slots=True)
class ClusterSpec:
    """Inventory of machines, unique by machine_id."""

    machines: tuple[Machine, ...]
    _by_id: dict[str, Machine] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "machines", tuple(self.machines))
        by_id: dict[str, Machine] = {}
        for m in self.machines:
            if m.machine_id in by_id:
                raise ValueError(f"duplicate machine_id {m.machine_id!r}")
            by_id[m.machine_id] = m
        object.__setattr__(self, "_by_id", by_id)

    def machine(self, machine_id: str) -> Machine:
        machine = self._by_id.get(machine_id)
        if machine is None:
            raise UnknownMachineError(f"machine {machine_id!r} is not in the cluster spec")
        return machine


def _check_count(name: str, value) -> None:
    """The rule for every count in a table: an int in [1, 2**63)."""
    # bool is an int subclass, but True is not a degree of parallelism.
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    # Table count columns are int64.
    if value >= 2**63:
        raise ValueError(f"{name} must be < 2**63, got {value}")


def _config_ints(name: str, value) -> np.ndarray:
    """An int, or an integer array or sequence of ints, as int64 (0-d
    for a scalar), each value held to _check_count's rule.  An integer
    array is checked whole; anything else one item at a time."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iu":
        bad = value[(value < 1) | (value >= 2**63)]
        if bad.size:
            _check_count(name, int(bad[0]))
        return value.astype(np.int64, copy=False)
    items = np.array(value, dtype=object)
    for item in items.flat:
        _check_count(name, item)
    return items.astype(np.int64)


def _set_columns(
    table: object, texts: tuple[str, ...], counts: tuple[str, ...], real: str
) -> None:
    """Check a frozen table's columns and store each in its one form.

    Each text column becomes a tuple of non-empty strings, each count
    column a read-only int64 array under _check_count's rule, and the
    real column a read-only float64 array of finite values >= 0.  Every
    column has as many rows as the first text column.
    """
    strings = {name: tuple(getattr(table, name)) for name in texts}
    rows = len(strings[texts[0]])
    for name, column in strings.items():
        if len(column) != rows:
            raise ShapeMismatchError(f"column {name} has {len(column)} rows, not {rows}")
        if not all(column):
            raise ValueError(f"every item of {name} must be non-empty")
        object.__setattr__(table, name, column)
    arrays = {name: _config_ints(name, getattr(table, name)) for name in counts}
    arrays[real] = getattr(table, real)
    for name, value in arrays.items():
        # A copy, so the caller's array stays writable and the table's own.
        column = np.array(value, dtype=np.float64 if name == real else np.int64)
        if column.shape != (rows,):
            raise ShapeMismatchError(f"column {name} has shape {column.shape}, not ({rows},)")
        if name == real and rows and not (column.min() >= 0.0 and column.max() < math.inf):
            raise ValueError(f"{real} must be finite and >= 0")
        column.setflags(write=False)
        object.__setattr__(table, name, column)


@dataclass(frozen=True, eq=False)
class RunTable:
    """Measured runs as parallel columns, one row per run, in the order given.

    apps and run_ids are tuples of non-empty strings.  mappers, reducers
    and input_bytes are read-only int64 arrays of ints in [1, 2**63), and
    total_cycles a read-only float64 array of finite values >= 0.  A
    float, a bool or a string in a count column is a TypeError.
    """

    apps: tuple[str, ...]
    run_ids: tuple[str, ...]
    mappers: np.ndarray
    reducers: np.ndarray
    input_bytes: np.ndarray
    total_cycles: np.ndarray

    def __post_init__(self) -> None:
        _set_columns(
            self, ("apps", "run_ids"), ("mappers", "reducers", "input_bytes"), "total_cycles"
        )

    def __len__(self) -> int:
        return len(self.apps)


@dataclass(frozen=True, eq=False)
class ProfileTable:
    """Repetition-averaged runs as parallel columns, one row per
    (app, mappers, reducers, input_bytes).

    The columns follow RunTable's rules; mean_cycles is the real column
    and repetitions one more count column.
    """

    apps: tuple[str, ...]
    mappers: np.ndarray
    reducers: np.ndarray
    input_bytes: np.ndarray
    mean_cycles: np.ndarray
    repetitions: np.ndarray

    def __post_init__(self) -> None:
        _set_columns(
            self, ("apps",), ("mappers", "reducers", "input_bytes", "repetitions"), "mean_cycles"
        )

    def __len__(self) -> int:
        return len(self.apps)


def total_cpu_cycles(traces: Iterable[MachineTrace], cluster: ClusterSpec) -> float:
    """Convert per-machine CPU-second traces into one total cycle count.

    Each trace's CPU-seconds are summed and multiplied by its machine's
    clock rate; the per-machine products are then summed.  There is no
    normalization of any kind.  Both sums use math.fsum, so the result is
    independent of trace order and, for a fixed set of samples, of how the
    samples are partitioned into traces (several traces may name the same
    machine; their samples just accumulate).
    """
    per_trace: list[float] = []
    for trace in traces:
        machine = cluster.machine(trace.machine_id)
        if trace.samples and max(trace.samples) > machine.cores:
            offset, cpu_seconds = next(
                (o, s) for o, s in zip(trace.offsets, trace.samples) if s > machine.cores
            )
            raise SampleExceedsCoresError(
                f"machine {machine.machine_id!r} has {machine.cores} cores but a "
                f"sample at offset {offset} claims {cpu_seconds} CPU-seconds"
            )
        per_trace.append(math.fsum(trace.samples) * machine.clock_hz)
    return math.fsum(per_trace)


def aggregate_repetitions(table: RunTable) -> ProfileTable:
    """Average repeated runs into one profile row per (app, config).

    The mean uses math.fsum, so permuting the input runs changes nothing,
    bit for bit.  Rows are sorted by (app, mappers, reducers, input_bytes).
    """
    rows = len(table)
    if not rows:
        raise EmptyInputError("no runs to aggregate")
    names = sorted(set(table.apps))
    code = {name: i for i, name in enumerate(names)}
    apps = np.fromiter(map(code.__getitem__, table.apps), np.int64, rows)
    # One sort by (app, mappers, reducers, input_bytes) makes equal keys
    # adjacent (lexsort's last key is its primary one); a group starts at
    # row 0 and wherever a key differs from the row before.
    columns = (apps, table.mappers, table.reducers, table.input_bytes)
    order = np.lexsort(columns[::-1])
    keys = [column[order] for column in columns]
    starts = np.flatnonzero(np.any([key[1:] != key[:-1] for key in keys], axis=0)) + 1
    bounds = [0, *starts.tolist(), rows]
    cycles = table.total_cycles[order].tolist()
    firsts = bounds[:-1]
    return ProfileTable(
        apps=[names[app] for app in keys[0][firsts].tolist()],
        mappers=keys[1][firsts],
        reducers=keys[2][firsts],
        input_bytes=keys[3][firsts],
        mean_cycles=[math.fsum(cycles[lo:hi]) / (hi - lo) for lo, hi in zip(bounds, bounds[1:])],
        repetitions=np.diff(bounds),
    )
