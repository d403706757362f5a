"""Domain types for profiled jobs and the cycle-accounting rule.

The ground unit of cost is one CPU clock cycle.  A trace records the
CPU-seconds each machine consumed per wall-clock second; multiplying each
machine's summed CPU-seconds by that machine's clock rate and adding
across machines yields a single total-cycle figure that is comparable
across clusters with heterogeneous clocks.

Everything is columnar: a TraceSet has one row per sample, cut into
per-machine segments, RunTable and ProfileTable one row per run or
profile, and ClusterSpec one row per machine.  Each checks its whole
columns once, when built.  Every operation here is pure.  Sums are
exactly rounded, as math.fsum gives them, so totals do not depend on the
order of segments or samples.  Accounting sums a segment of one or two
samples in one IEEE addition, which rounds exactly already, and a longer
one with math.fsum.  A total can still change in its last bits when the
same samples are cut into other segments: each segment's sum is rounded
before it is scaled by its machine's clock.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import re
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

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


def _clamp_negative(value: np.ndarray, where: Callable[[int], str]) -> float | np.ndarray:
    """value with negatives set to 0.0, a float when 0-d.  A clamp warns
    once; where(i) describes the first clamped element, at flat index i.
    A value that is not finite is a CyclecastError naming the first."""
    bad = ~np.isfinite(value)
    if bad.any():
        raise CyclecastError(f"{where(np.flatnonzero(bad)[0])}; a cycle count must be finite")
    negative = value < 0
    if negative.any():
        warnings.warn(
            f"{where(np.flatnonzero(negative)[0])}; clamping to 0",
            NegativePredictionWarning,
            stacklevel=3,
        )
        value = np.where(negative, 0.0, value)
    return float(value) if np.ndim(value) == 0 else value


_NUMBERS = (int, float, np.integer, np.floating)
# json.dumps escapes each of the two, and json.loads joins the escapes
# into the one character they encode.
_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


def _check_count(name: str, value, least: int = 1, below: int = 2**63) -> int:
    """The rule for every count: an int in [least, below), returned as a
    Python int.  below is a power of two; the default is the bound of a
    table's int64 column."""
    # bool is an int subclass, but True is not a degree of parallelism.
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    if value >= below:
        raise ValueError(f"{name} must be < 2**{below.bit_length() - 1}, got {value}")
    return int(value)


def _handed_over(value, dtype: type) -> bool:
    """Whether value is a read-only, C-contiguous dtype array that owns its
    data, which a column keeps as it is: its caller, having marked it
    read-only, hands it over (as the trace parser does).  Any other value
    is copied, so that the caller's array stays writable and its own."""
    return (
        isinstance(value, np.ndarray) and value.dtype == dtype and value.base is None
        and value.flags.c_contiguous and not value.flags.writeable
    )


def _ints(name: str, value, least: int = 1) -> np.ndarray:
    """An int, or an integer array or sequence of ints, as a read-only
    int64 array (0-d for a scalar), each value held to _check_count's
    rule.  An integer array is checked whole; anything else one item at a
    time.  The array is new unless value is _handed_over."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iu":
        bad = value[(value < least) | (value >= 2**63)]
        if bad.size:
            _check_count(name, int(bad[0]), least)
    else:
        value = np.array(value, dtype=object)
        for item in value.flat:
            _check_count(name, item, least)
    column = value if _handed_over(value, np.int64) else value.astype(np.int64)
    column.setflags(write=False)
    return column


def _real(name: str, value, least: float = 0.0, strict: bool = False) -> float:
    """The rule for every real: a number, not a bool, str or bytes (nor
    numpy's), that is finite and >= least (> least if strict), returned
    as a Python float.  An int too large for a float is a ValueError."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, _NUMBERS):
            raise TypeError(f"{name} must be a number, got {type(value).__name__}")
        try:
            value = float(value)
        except OverflowError:
            raise ValueError(f"{name} is too large for a float") from None
    if not (math.isfinite(value) and (value > least if strict else value >= least)):
        bound = "" if least == -math.inf else f" and {'>' if strict else '>='} {least:g}"
        raise ValueError(f"{name} must be finite{bound}, got {value}")
    return value


def _reals(name: str, value, least: float = 0.0) -> np.ndarray:
    """A number, or a numeric array or sequence of numbers, as a read-only
    float64 array (0-d for a scalar), each value held to _real's rule.  A
    numeric array is checked whole; anything else has the types of its
    items checked first.  The array is new unless value is _handed_over."""
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "iuf"):
        value = np.array(value, dtype=object)
        for kind in set(map(type, value.flat)):
            if issubclass(kind, bool) or not issubclass(kind, _NUMBERS):
                raise TypeError(f"{name} must hold numbers, got {kind.__name__}")
    try:
        column = value if _handed_over(value, np.float64) else np.array(value, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None
    bad = column[~(np.isfinite(column) & (column >= least))]
    if bad.size:
        _real(name, bad[0].item(), least)
    column.setflags(write=False)
    return column


def check_text(name: str, value) -> str:
    """The rule for every text: a non-empty str that JSON, the format of
    the run store and the model file, reads back as itself."""
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a str, got {type(value).__name__}")
    if not value:
        raise ValueError(f"{name} must be non-empty")
    if not value.isascii() and _SURROGATE_PAIR.search(value):
        raise ValueError(
            f"{name} must not hold a high surrogate followed by a low one, which JSON "
            f"reads back as one character, got {value!r}"
        )
    return value


def _texts(name: str, value) -> tuple[str, ...]:
    """value as a tuple, each item held to check_text's rule under name.  The
    item types, emptiness and surrogates are checked whole; a failure is
    then found one item at a time."""
    column = tuple(value)
    if all(issubclass(kind, str) for kind in set(map(type, column))) and all(column):
        joined = "\n".join(column)
        if joined.isascii() or not _SURROGATE_PAIR.search(joined):
            return column
    for item in column:
        check_text(name, item)
    return column


_Error = Callable[[int, str], CyclecastError]  # (line number, reason) -> error


def _decoded(data: str | bytes, error: _Error) -> str:
    """data as text: bytes are decoded as UTF-8, a bad one raising error(line, reason)."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise error(line_no, f"not UTF-8 ({exc.reason} at byte {exc.start})") from None


def _set_columns(
    table: object, texts: tuple[str, ...], counts: tuple[str, ...], real: str
) -> None:
    """Check a frozen table's columns and store each in its one form.

    Each text column becomes a tuple under _texts' rule, each count
    column a read-only int64 array under _check_count's rule, and the
    real column a read-only float64 array under _reals' rule.  Every
    column has as many rows as the first text column.
    """
    strings = {name: _texts(f"every item of {name}", getattr(table, name)) for name in texts}
    rows = len(strings[texts[0]])
    for name, column in strings.items():
        if len(column) != rows:
            raise ShapeMismatchError(f"column {name} has {len(column)} rows, not {rows}")
        object.__setattr__(table, name, column)
    arrays = {name: _ints(name, getattr(table, name)) for name in counts}
    arrays[real] = _reals(real, getattr(table, real))
    for name, column in arrays.items():
        if column.shape != (rows,):
            raise ShapeMismatchError(f"column {name} has shape {column.shape}, not ({rows},)")
        object.__setattr__(table, name, column)


@dataclass(frozen=True, eq=False)
class RunTable:
    """Measured runs as parallel columns, one row per run, in the order given.

    apps and run_ids are tuples of non-empty strings.  mappers, reducers
    and input_bytes are read-only int64 arrays of ints in [1, 2**63), and
    total_cycles a read-only float64 array of finite values >= 0.  A
    float, a bool or a string in a count column is a TypeError, and so is
    an item of a text column that is not a str.
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


@dataclass(frozen=True, eq=False)
class ClusterSpec:
    """Inventory of machines as parallel columns, one row per machine, in
    the order given.

    machines is a tuple of unique, non-empty ids, clock_hz a read-only
    float64 array of finite values > 0, and cores a read-only int64 array
    of ints in [1, 2**63), under RunTable's count rule.
    """

    machines: tuple[str, ...]
    clock_hz: np.ndarray
    cores: np.ndarray
    _rows: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _set_columns(self, ("machines",), ("cores",), "clock_hz")
        if not self.clock_hz.all():  # _reals has ruled out < 0, NaN and inf
            raise ValueError(f"clock_hz must be > 0, got {self.clock_hz.min()}")
        rows = dict(zip(self.machines, itertools.count()))
        if len(rows) != len(self.machines):
            # A repeated id keeps its last row: the first mismatch names it.
            first = next(m for row, m in enumerate(self.machines) if rows[m] != row)
            raise ValueError(f"duplicate machine_id {first!r}")
        object.__setattr__(self, "_rows", rows)


class TraceSegment(NamedTuple):
    """One segment of a TraceSet: its machine and read-only views of its rows."""

    machine_id: str
    offsets: np.ndarray
    samples: np.ndarray


@dataclass(frozen=True, eq=False)
class TraceSet:
    """A trace as columns, one row per sample, cut into per-machine segments.

    samples[k] is the CPU time used in the second starting at offsets[k].
    Segment i is rows ends[i - 1] (0 for i = 0) to ends[i], on machine
    machine_ids[i]; a machine's several segments just accumulate.  len()
    counts segments, and iterating yields a TraceSegment for each.

    machine_ids is a tuple of non-empty strings; ends and offsets are
    read-only int64 arrays in [0, 2**63), ends non-decreasing to the row
    count, offsets strictly increasing within a segment; samples is a
    read-only float64 array of finite values >= 0.  The core-count bound
    on samples is checked by total_cpu_cycles, which knows the cluster.
    """

    machine_ids: tuple[str, ...]
    ends: np.ndarray
    offsets: np.ndarray
    samples: np.ndarray

    def __post_init__(self) -> None:
        ids = _texts("machine_id", self.machine_ids)
        ends, offsets = _ints("ends", self.ends, 0), _ints("offsets", self.offsets, 0)
        samples = _reals("samples", self.samples)
        if ends.shape != (len(ids),) or (ends[1:] < ends[:-1]).any():
            raise ValueError(f"ends must be {len(ids)} non-decreasing row ends")
        rows = int(ends[-1]) if ids else 0
        if offsets.shape != (rows,) or samples.shape != (rows,):
            raise ValueError(f"offsets and samples must have {rows} rows")
        # Only the first row of a segment may start lower than the row before.
        falls = offsets[1:] <= offsets[:-1]
        falls[ends[(ends > 0) & (ends < rows)] - 1] = False
        if falls.any():
            segment = bisect.bisect_right(ends.tolist(), int(falls.argmax()) + 1)
            raise ValueError(f"sample offsets must be strictly increasing on {ids[segment]!r}")
        columns = {"machine_ids": ids, "ends": ends, "offsets": offsets, "samples": samples}
        for name, column in columns.items():
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.machine_ids)

    def __iter__(self) -> Iterator[TraceSegment]:
        rows = list(map(slice, [0, *self.ends.tolist()], self.ends.tolist()))
        offsets, samples = map(self.offsets.__getitem__, rows), map(self.samples.__getitem__, rows)
        return map(TraceSegment, self.machine_ids, offsets, samples)


def total_cpu_cycles(traces: TraceSet, cluster: ClusterSpec) -> float:
    """Convert a trace set into one total cycle count.

    Each segment's CPU-seconds are summed and multiplied by its machine's
    clock rate; the per-segment products are then summed.  There is no
    normalization of any kind.  Both sums are exactly rounded, as
    math.fsum gives them: a segment of one or two samples is summed in one
    IEEE addition, which already rounds exactly, and a longer one by
    math.fsum.  So the result is independent of segment order.  It is not,
    bit for bit, independent of how samples are cut into segments, since
    each segment's sum is rounded before it is scaled by its clock.  The
    first segment, in set order, whose machine is not in the cluster or
    that has a sample above its machine's core count raises.
    """
    ids = traces.machine_ids
    # The cluster rows of the segments before the first unknown machine:
    # checked first.
    known = functools.partial(operator.is_not, None)
    rows = np.fromiter(itertools.takewhile(known, map(cluster._rows.get, ids)), np.intp)
    ends = traces.ends[: len(rows)]
    counts = np.diff(ends, prepend=0)
    cores = cluster.cores[rows]
    # float64 holds cores up to 2**53 exactly; larger ones are screened as
    # 2**53, and a sample the screen flags is then held to the int itself.
    limits = np.repeat(np.minimum(cores, 2**53).astype(np.float64), counts)
    samples, values = traces.samples, memoryview(traces.samples)
    flagged = np.flatnonzero(samples[: len(limits)] > limits)
    for row, segment in zip(flagged.tolist(), np.searchsorted(ends, flagged, "right").tolist()):
        if values[row] > (count := int(cores[segment])):
            raise SampleExceedsCoresError(
                f"machine {ids[segment]!r} has {count} cores but a "
                f"sample at offset {traces.offsets[row]} claims {values[row]} CPU-seconds"
            )
    if len(rows) < len(ids):
        raise UnknownMachineError(f"machine {ids[len(rows)]!r} is not in the cluster spec")
    starts = ends - counts
    sums = np.zeros(len(rows))
    if samples.size:  # else every segment is empty
        # Each segment's first and last sample; the last counts only in a
        # segment of two.  Two -0.0s add to -0.0, where fsum gives 0.0, but
        # the sum over the products gives 0.0 for zeros of either sign.
        first, last = np.take(samples, (starts, ends - 1), mode="clip")
        sums = np.where(counts > 0, first, 0.0) + np.where(counts > 1, last, 0.0)
    long = np.flatnonzero(counts > 2)
    lows, highs = starts[long].tolist(), ends[long].tolist()
    sums[long] = list(map(math.fsum, map(values.__getitem__, map(slice, lows, highs))))
    return math.fsum((sums * cluster.clock_hz[rows]).tolist())


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
