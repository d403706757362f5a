"""Host-speed probe: times a fixed reference slice while a region runs.

Other tenants of a shared host slow this process down in phases that last
from under a second to minutes, and the slowdown reaches the program and
the slice alike.  So while a region runs, a SIGALRM handler runs one slice
every PERIOD_S, between the program's own bytecodes, and the region's time
is scaled by the mean speed the slices saw during it.  Seconds so scaled
are seconds at the reference speed, where one slice takes REF_SLICE_S.

Only the standard library is imported here, so that a fresh interpreter
can time the import of the package with it.
"""

from __future__ import annotations

import contextlib
import signal
from time import perf_counter

# 10th percentile of 100k back-to-back reference_slice() timings over 60 s
# on the reference host (README.md): its speed with nothing sharing its cores.
REF_SLICE_S = 0.000_360
PERIOD_S = 0.015
_SLICE_ROWS = 250


def reference_slice() -> None:
    """A fixed pure-Python format, parse and group loop: the unit of host speed."""
    table: dict[str, dict[int, float]] = {}
    for i in range(_SLICE_ROWS):
        row = "m%d,%d,%r" % (i % 61, i, i * 0.001953125 + 0.1)
        machine, offset, value = row.split(",")
        table.setdefault(machine, {})[int(offset)] = float(value)
    if sum(len(v) for v in table.values()) != _SLICE_ROWS:
        raise RuntimeError("reference slice lost rows")


class Timing:
    """A timed region: seconds spent in it and the host speed while it ran.

    ``raw_s`` excludes the probe's own slices; ``scale`` converts this
    host's seconds during the region into seconds at the reference speed.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scale = 1.0
        self.slice_s = 0.0

    @property
    def at_reference_s(self) -> float:
        return self.raw_s * self.scale


class SpeedProbe:
    """Samples host speed with reference slices while a region runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self.on_sample = None  # called with the seconds each in-region slice took

    def _sample(self) -> None:
        start = perf_counter()
        reference_slice()
        self.samples.append(perf_counter() - start)

    def _handler(self, signum, frame) -> None:
        start = perf_counter()
        self._sample()
        spent = perf_counter() - start
        self.spent += spent
        if self.on_sample is not None:
            self.on_sample(spent)

    @contextlib.contextmanager
    def measure(self):
        """Time the body; the Timing yielded is filled in when the body ends."""
        timing = Timing()
        self.samples, self.spent = [], 0.0
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = perf_counter()
        try:
            yield timing
        finally:
            wall = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()
            timing.raw_s = wall - self.spent
            timing.scale = REF_SLICE_S * sum(1 / s for s in self.samples) / len(self.samples)
            timing.slice_s = sorted(self.samples)[len(self.samples) // 2]
