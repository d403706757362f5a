"""References the tests compare the package against.

solve_normal_equations forms H^T H and solves it directly: the textbook
closed form, kept unscaled and unpolished so that it shares nothing with
cyclecast.regression.fit_least_squares (column scaling, then SVD) but
the data.  rows and table turn the package's columnar tables into rows
and back, and record spells a run row as the store's wire dict.
trace_set and segments do the same for a TraceSet, and gap_warnings and
total_cpu_cycles are the per-trace rules the columnar parser and
accounting replace, one Python loop over the traces each.
generate_trace is trace synthesis as one jitter draw per machine, the
formula the package's single draw for all machines must reproduce.
"""

import dataclasses
import hashlib
import itertools
import math

import numpy as np

from cyclecast.core import SampleExceedsCoresError, TraceSet, UnknownMachineError


def solve_normal_equations(rows, targets) -> np.ndarray:
    """The coefficients a solving (H^T H) a = H^T y for H = rows, y = targets.

    Raises numpy.linalg.LinAlgError when H^T H is singular.
    """
    rows = np.asarray(rows, dtype=float)
    targets = np.asarray(targets, dtype=float)
    return np.linalg.solve(rows.T @ rows, rows.T @ targets)


def rows(table) -> list[tuple]:
    """A RunTable's or ProfileTable's rows as tuples of Python values, in
    column order, so tables compare by value and row order."""
    columns = [getattr(table, field.name) for field in dataclasses.fields(table)]
    return list(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))


def table(cls, rows) -> object:
    """A cls, RunTable or ProfileTable, of the given rows, each a tuple in
    column order."""
    names = [field.name for field in dataclasses.fields(cls)]
    rows = list(rows)
    columns = list(zip(*rows)) if rows else [()] * len(names)
    return cls(**dict(zip(names, columns)))


def record(app, run_id, mappers, reducers, input_bytes, total_cycles) -> dict:
    """A run row's store record: its fields under the store's keys, in the
    store's canonical order."""
    return {
        "schema_version": 1,
        "app": app,
        "run_id": run_id,
        "mappers": mappers,
        "reducers": reducers,
        "input_bytes": input_bytes,
        "total_cycles": total_cycles,
    }


def trace_set(traces) -> TraceSet:
    """A TraceSet with one segment per (machine_id, offsets, samples)
    trace, in order."""
    traces = [(machine_id, list(offsets), list(samples)) for machine_id, offsets, samples in traces]
    return TraceSet(
        machine_ids=[machine_id for machine_id, _, _ in traces],
        ends=list(itertools.accumulate(len(offsets) for _, offsets, _ in traces)),
        offsets=[offset for _, offsets, _ in traces for offset in offsets],
        samples=[sample for _, _, samples in traces for sample in samples],
    )


def segments(traces: TraceSet) -> list[tuple]:
    """A TraceSet's segments as (machine_id, offsets, samples) tuples of
    Python values, so sets compare by value and repr tells -0.0 from 0.0."""
    return [(machine_id, offsets.tolist(), samples.tolist()) for machine_id, offsets, samples in traces]


def gap_warnings(traces, gap_threshold) -> list[tuple[str, str]]:
    """(machine_id, detail) of each (machine_id, offsets, samples) trace
    whose missing share of its offset span, as Python's int division
    gives it, is above gap_threshold."""
    found = []
    for machine_id, offsets, _ in traces:
        span = offsets[-1] - offsets[0] + 1
        missing = span - len(offsets)
        if missing / span > gap_threshold:
            found.append((machine_id, f"{missing} of {span} seconds in span missing"))
    return found


def total_cpu_cycles(traces, cluster) -> float:
    """The fsum over (machine_id, offsets, samples) traces of each one's
    fsum times its machine's clock.  The first trace whose machine is
    unknown, or that has a sample above its machine's cores, raises."""
    columns = zip(cluster.machines, cluster.clock_hz.tolist(), cluster.cores.tolist())
    machines = {machine_id: (clock_hz, cores) for machine_id, clock_hz, cores in columns}
    per_trace = []
    for machine_id, offsets, samples in traces:
        if machine_id not in machines:
            raise UnknownMachineError(f"machine {machine_id!r} is not in the cluster spec")
        clock_hz, cores = machines[machine_id]
        if samples and max(samples) > cores:
            offset, cpu_seconds = next((o, s) for o, s in zip(offsets, samples) if s > cores)
            raise SampleExceedsCoresError(
                f"machine {machine_id!r} has {cores} cores but a "
                f"sample at offset {offset} claims {cpu_seconds} CPU-seconds"
            )
        per_trace.append(math.fsum(samples) * clock_hz)
    return math.fsum(per_trace)


def generate_trace(run_id, total_cycles, cluster, seed) -> TraceSet:
    """cyclecast.synth.generate_trace's set, machine by machine: the same
    stream and weights, then each machine's count, its own uniform draw of
    that many jitter values, centred by its mean, and its amplitude."""
    if total_cycles == 0:
        return TraceSet((), [], [], [])
    digest = int.from_bytes(hashlib.sha256(run_id.encode("utf-8")).digest()[:8], "big")
    rng = np.random.default_rng(np.random.SeedSequence([seed, digest]))
    weights = rng.uniform(0.5, 1.5, size=len(cluster.machines))
    weights /= weights.sum()
    traces = []
    machines = zip(cluster.machines, cluster.clock_hz.tolist(), cluster.cores.tolist())
    for (machine_id, clock_hz, cores), weight in zip(machines, weights.tolist()):
        cpu_seconds = total_cycles * weight / clock_hz
        n_samples = max(1, math.ceil(cpu_seconds / (0.6 * cores)))
        base = cpu_seconds / n_samples
        jitter = rng.uniform(-1.0, 1.0, size=n_samples)
        jitter -= jitter.mean()
        peak = float(np.max(jitter))
        trough = float(-np.min(jitter))
        if n_samples > 1 and peak > 0 and trough > 0:
            amplitude = 0.9 * min((cores - base) / peak, base / trough)
            values = base + amplitude * jitter
        else:
            values = np.full(n_samples, base)
        traces.append((machine_id, range(n_samples), values.tolist()))
    return trace_set(traces)
