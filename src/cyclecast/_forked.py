"""Work cut into parts and done on every core, in forked child processes.

The trace parser (ingest) and the trace emitter (synth.write_traces, the
second step of synth.simulate) share one protocol:

* Cut: part_count parts, one per core in this process's CPU affinity,
  or fewer so that each holds at least a least size the caller sets.  A
  host without sched_getaffinity makes one part.
* Fork: forked() forks a child for each part after the first, which does
  the caller's task on its part, writes the buffers the task returns to
  a file in memory of its own, then exits.  A child runs with warnings
  as errors: a warning makes it exit 1.
* Take or redo: the caller goes through the parts in order.  It reaps
  each child and reads its file, whole if the child exited 0, or does
  the part itself: the first part, and any part whose file or fork
  failed or whose child exited non-zero.  So a failure or a warning is
  reported as the serial path reports it, once.
* No child left: forked() kills and reaps every child whose result was
  not taken, and closes every file, whatever the caller returns or raises.
"""

from __future__ import annotations

import contextlib
import os
import warnings
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any, BinaryIO


def part_count(size: int, least: int) -> int:
    """How many parts to cut work of size into, each of at least least,
    and at least one (see the module docstring)."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cores, size // least))


@contextlib.contextmanager
def forked(
    task: Callable[..., Iterable[Any] | None], parts: Sequence[tuple]
) -> Iterator[Callable[[int, Callable[[BinaryIO], Any]], Any]]:
    """Fork a child that runs task(*parts[i]) for each part i after the
    first, and yield take(i, read).

    take reaps part i's child and, if it exited 0, returns read(file), file
    the buffers the task returned, in order, from the start.  It returns
    None for part 0 and for a part whose file, fork or exit failed.
    """
    children: dict[int, tuple[int, BinaryIO]] = {}  # part -> pid, its child's file
    try:
        for i in range(1, len(parts)):
            if (child := _spawn(task, *parts[i])) is not None:
                children[i] = child

        def take(i: int, read: Callable[[BinaryIO], Any]) -> Any:
            if i not in children:
                return None
            pid, file = children.pop(i)
            with file:
                if _reaped(pid) != 0:
                    return None
                file.seek(0)
                return read(file)

        yield take
    finally:
        for pid, file in children.values():
            file.close()
            _reaped(pid, kill=True)


def _spawn(task: Callable[..., Any], *args: object) -> tuple[int, BinaryIO] | None:
    """Fork a child that runs task(*args) and writes the buffers it returns,
    if any, to a new file in memory: the child's pid and the file, or None
    if no child was started.

    The child then closes the file and exits 0, or 1 if any of it raises
    or warns.  It leaves through os._exit, so it never returns into the
    caller, flushes stdio or runs exit handlers.  Forking a process that
    has threads (cli's run-id hash, a BLAS pool) is safe here: the child
    takes no lock but the GIL and malloc's, and the interpreter and the C
    library set both up afresh in a child.
    """
    try:
        file = open(os.memfd_create("part"), "w+b")
    except (AttributeError, OSError):  # AttributeError: a host without memfd_create
        return None
    try:
        with warnings.catch_warnings():
            # From Python 3.12, fork warns whenever another thread is alive.
            warnings.filterwarnings(
                "ignore", r"This process \(pid=[0-9]+\) is multi-threaded", DeprecationWarning
            )
            pid = os.fork()
    except OSError:
        file.close()
        return None
    if pid == 0:
        status = 1
        try:
            warnings.simplefilter("error")
            with file:
                file.writelines(task(*args) or ())
            status = 0
        finally:
            os._exit(status)
    return pid, file


def _reaped(pid: int, kill: bool = False) -> int:
    """Kill a child if kill, and wait for it to end: its exit code,
    negative if a signal ended it."""
    if kill:
        import signal  # here, so that importing this module imports nothing new

        os.kill(pid, signal.SIGKILL)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
