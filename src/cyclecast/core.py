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

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence


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


@dataclass(frozen=True)
class MachineTrace:
    """All CPU-seconds recorded on one machine, as two parallel columns.

    samples[i] is the CPU time consumed during the one-second interval
    starting at offsets[i].  Offsets are non-negative and strictly
    increasing; samples are finite and >= 0.  A sample can exceed 1.0 on
    multi-core machines but never the core count; that bound is checked
    against the cluster spec at accounting time, not here, because the
    trace alone does not know its machine's cores.
    """

    machine_id: str
    offsets: tuple[int, ...]
    samples: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.machine_id:
            raise ValueError("machine_id must be non-empty")
        offsets, samples = tuple(self.offsets), tuple(self.samples)
        object.__setattr__(self, "offsets", offsets)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class JobConfig:
    """One point in configuration space: parallelism degrees plus input size."""

    mappers: int
    reducers: int
    input_bytes: int

    def __post_init__(self) -> None:
        if self.mappers < 1:
            raise ValueError(f"mappers must be >= 1, got {self.mappers}")
        if self.reducers < 1:
            raise ValueError(f"reducers must be >= 1, got {self.reducers}")
        if self.input_bytes < 1:
            raise ValueError(f"input_bytes must be >= 1, got {self.input_bytes}")


@dataclass(frozen=True)
class JobRun:
    """One measured execution of one application at one configuration."""

    app: str
    run_id: str
    config: JobConfig
    total_cycles: float

    def __post_init__(self) -> None:
        if not self.app:
            raise ValueError("app must be non-empty")
        if not self.run_id:
            raise ValueError("run_id must be non-empty")
        if not math.isfinite(self.total_cycles) or self.total_cycles < 0:
            raise ValueError(
                f"total_cycles must be finite and >= 0, got {self.total_cycles}"
            )


@dataclass(frozen=True)
class JobProfile:
    """Repetition-averaged cost of one application at one configuration."""

    app: str
    config: JobConfig
    mean_cycles: float
    repetitions: int

    def __post_init__(self) -> None:
        if not self.app:
            raise ValueError("app must be non-empty")
        if not math.isfinite(self.mean_cycles) or self.mean_cycles < 0:
            raise ValueError(
                f"mean_cycles must be finite and >= 0, got {self.mean_cycles}"
            )
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")


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


def aggregate_repetitions(runs: Sequence[JobRun]) -> list[JobProfile]:
    """Average repeated runs into one profile per (app, config).

    The mean uses math.fsum, so permuting the input runs changes nothing,
    bit for bit.  Output is sorted by (app, mappers, reducers, input_bytes).
    """
    if not runs:
        raise EmptyInputError("no runs to aggregate")
    groups: dict[tuple[str, JobConfig], list[float]] = {}
    for run in runs:
        groups.setdefault((run.app, run.config), []).append(run.total_cycles)
    profiles = [
        JobProfile(
            app=app,
            config=config,
            mean_cycles=math.fsum(cycles) / len(cycles),
            repetitions=len(cycles),
        )
        for (app, config), cycles in groups.items()
    ]
    profiles.sort(
        key=lambda p: (p.app, p.config.mappers, p.config.reducers, p.config.input_bytes)
    )
    return profiles
