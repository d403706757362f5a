"""Work cut into parts and done on every core, in forked child processes.

The trace parser (ingest) and the trace emitter (synth.write_traces, the
second step of synth.simulate) share one protocol:

* Cut: part_count parts, one per core in this process's CPU affinity,
  or fewer so that each holds at least a least size the caller sets.  A
  host without sched_getaffinity makes one part.
* Fork: forked() forks a child for each part after the first, which does
  the caller's task on its part and writes the result down a pipe.  A
  child runs with warnings as errors, so a warning makes it exit 1.
* Take or redo: the caller goes through the parts in order.  It takes
  each child's result, or does the part itself: the first part, and any
  part whose child could not be forked, exited non-zero or sent a short
  result.  So a failure or a warning is reported as the serial path
  reports it, once.
* No child left: forked() kills and reaps every child whose result was
  not taken, whatever the caller returns or raises.
"""

from __future__ import annotations

import contextlib
import os
import warnings
from collections.abc import Callable, Iterator, Sequence
from typing import Any, BinaryIO


def part_count(size: int, least: int) -> int:
    """How many parts to cut work of size into, each of at least least,
    and at least one (see the module docstring)."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cores, size // least))


@contextlib.contextmanager
def forked(
    task: Callable[..., None], parts: Sequence[tuple]
) -> Iterator[Callable[[int, Callable[[BinaryIO], Any]], Any]]:
    """Fork a child that runs task(pipe, *parts[i]) for each part i after
    the first, and yield take(i, read).

    take returns read(pipe), pipe the read end of part i's pipe, if the
    child then exits 0; read returns None if the result is short.  It
    returns None for part 0 and for a part whose fork, result or exit
    failed: the caller's to do.
    """
    children: dict[int, tuple[int, BinaryIO]] = {}  # part -> pid, read end of its pipe
    try:
        for i in range(1, len(parts)):
            child = _spawn(task, *parts[i])
            if child is not None:
                children[i] = child

        def take(i: int, read: Callable[[BinaryIO], Any]) -> Any:
            if i not in children:
                return None
            result = read(children[i][1])
            return result if _reaped(*children.pop(i)) == 0 else None

        yield take
    finally:
        for pid, pipe in children.values():
            _reaped(pid, pipe, kill=True)


def _spawn(task: Callable[..., None], *args: object) -> tuple[int, BinaryIO] | None:
    """Fork a child that runs task(pipe, *args), pipe the write end of a
    new pipe: the child's pid and the pipe's read end, or None if no child
    could be started.

    The child exits 0 if task returns and 1 if it raises or warns.  It
    leaves through os._exit, so it never returns into the caller, flushes
    stdio or runs exit handlers.  Forking a process that has threads (cli's
    run-id hash, a BLAS pool) is safe here: the child takes no lock but the
    GIL and malloc's, and the interpreter and the C library set both up
    afresh in a child.
    """
    try:
        read_end, write_end = os.pipe()
    except OSError:
        return None
    try:
        with warnings.catch_warnings():
            # From Python 3.12, fork warns whenever another thread is alive.
            warnings.filterwarnings(
                "ignore", r"This process \(pid=[0-9]+\) is multi-threaded", DeprecationWarning
            )
            pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            warnings.simplefilter("error")
            with open(write_end, "wb") as pipe:
                task(pipe, *args)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _reaped(pid: int, pipe: BinaryIO, kill: bool = False) -> int:
    """Close a child's pipe, kill the child if kill, and wait for it to
    end: its exit code, negative if a signal ended it."""
    pipe.close()
    if kill:
        import signal  # here, so that importing this module imports nothing new

        os.kill(pid, signal.SIGKILL)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
