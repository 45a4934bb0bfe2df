"""The schedules ``check`` and ``cost`` run a program under, spread over
the usable CPUs when that pays.

A program is run under the ``priority`` schedule and under ``seeds``
seeded ``random`` ones (``schedules``).  Every run starts from one
normalized ``Config`` and shares nothing mutable with another, so the
seeded runs may go to forked processes.  ``run_schedules`` runs the
priority schedule here and times it.  It forks only where that is safe
(``os.fork`` exists, no other thread runs, two or more CPUs are usable)
and only when it pays: the schedules left, each priced at the priority
run's time, must take more than ``FORK_FACTOR`` times this process's
round trip of a bare fork (fork, the child's ``os._exit(0)``,
``waitpid``).  That round trip grows with the process's memory, so it is
measured when first needed and again once ``ru_maxrss`` has doubled.

When it forks, it starts one child per extra CPU, never more than there
are schedules left.  The schedules left are cut into contiguous chunks,
one per process.  Each child runs its chunk, pickles the results into a
pipe and exits with ``os._exit``: 0 once all is written, 1 on any
exception.  The parent runs the first and largest chunk itself, reads
every pipe to its end, reaps every child, and then runs here again any
chunk whose child failed or sent short data, so an exception a run
raises (a ``RecursionError`` on a program too deep for the stack)
reaches the caller as it would without forking.  If the parent's own
chunk raises, it kills and reaps its children first.  Results come back
in schedule order: a report is the same byte for byte however many
processes made it.
"""

from __future__ import annotations

import gc
import os
import threading
from collections.abc import Callable
from time import perf_counter
from typing import NoReturn, TypeVar

T = TypeVar("T")
Schedule = tuple[str, str, int]  # (label, policy, seed)

# fork when the schedules left would take more than this many fork round
# trips.  A fork costs the parent more than its round trip: each page it
# writes afterwards faults once.  On a 2-CPU host, forking changed a call's
# wall time by +19% to -4% at 4.5 round trips, -6% at 6.8, -16% at 8.8 and
# -21% to -39% from 12 on
FORK_FACTOR = 6

# this process's fork round trip in seconds, and its ru_maxrss (KiB) when
# measured; 0 before the first measurement
_fork_s = 0.0
_fork_rss = 0


def schedules(seeds: int) -> list[Schedule]:
    """The priority schedule, then ``seeds`` seeded random ones."""
    return [("priority", "priority", 0)] + [
        (f"seed{k}", "random", k) for k in range(seeds)]


def run_schedules(one: Callable[[str, int], T], seeds: int) -> list[tuple[str, T]]:
    """``(label, one(policy, seed))`` for every schedule, in schedule order.

    ``one`` must return a picklable result and change nothing a later call
    reads, as the seeded schedules may run in forked processes.
    """
    plan = schedules(seeds)
    started = perf_counter()
    first = one("priority", 0)
    rest = plan[1:]
    processes = _processes(len(rest), perf_counter() - started)
    if processes > 1:
        results = _spread(one, rest, processes)
    else:
        results = [one(policy, seed) for _label, policy, seed in rest]
    return list(zip([label for label, _policy, _seed in plan], [first, *results]))


def _processes(left: int, first_s: float) -> int:
    """How many processes should run the ``left`` seeded schedules, the
    priority run having taken ``first_s`` seconds; 1 runs them here."""
    if left < 2 or not hasattr(os, "fork") or threading.active_count() != 1:
        return 1
    cpus = _usable_cpus()
    if cpus < 2 or left * first_s <= FORK_FACTOR * _fork_round_trip():
        return 1
    return min(cpus, left)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_round_trip() -> float:
    """Seconds a bare fork takes here, from ``fork`` to ``waitpid``; inf
    if this process cannot fork."""
    global _fork_s, _fork_rss
    import resource

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if _fork_rss and rss < 2 * _fork_rss:
        return _fork_s
    started = perf_counter()
    try:
        pid = os.fork()
    except OSError:
        return float("inf")
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    _fork_s, _fork_rss = perf_counter() - started, rss
    return _fork_s


def _chunks(items: list[Schedule], n: int) -> list[list[Schedule]]:
    """``items`` cut into ``n`` contiguous chunks, larger ones first."""
    size, extra = divmod(len(items), n)
    chunks, start = [], 0
    for i in range(n):
        end = start + size + (i < extra)
        chunks.append(items[start:end])
        start = end
    return chunks


def _spread(one: Callable[[str, int], T], rest: list[Schedule],
            processes: int) -> list[T]:
    """``one`` over ``rest``, the first chunk here and each other chunk in
    a forked child."""
    import pickle  # only a call that forks needs it

    chunks = _chunks(rest, min(processes, len(rest)))
    children: list[tuple[int, int] | None] = []  # (pid, read end) until reaped
    try:
        for chunk in chunks[1:]:
            children.append(_fork(one, chunk))
        results = [one(policy, seed) for _label, policy, seed in chunks[0]]
        sent = []
        for i, child in enumerate(children):
            children[i] = None  # _receive reaps it, whatever happens
            sent.append(None if child is None else _receive(*child))
    finally:
        for child in children:  # left only when something raised
            if child is not None:
                _kill(*child)
    for chunk, data in zip(chunks[1:], sent):
        got = None
        if data is not None:
            try:
                got = pickle.loads(data)
            except (pickle.UnpicklingError, EOFError):  # short data
                pass
        if type(got) is not list or len(got) != len(chunk):
            got = [one(policy, seed) for _label, policy, seed in chunk]
        results += got
    return results


def _fork(one: Callable[[str, int], T], chunk: list[Schedule]) -> tuple[int, int] | None:
    """A child running ``chunk``, as (pid, read end of its pipe); None if
    the fork failed, which leaves the chunk to the parent."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        os.close(read)
        _child(one, chunk, write)
    os.close(write)
    return pid, read


def _child(one: Callable[[str, int], T], chunk: list[Schedule], fd: int) -> NoReturn:
    """Run ``chunk``, write the pickled results to ``fd`` and exit, 0 once
    all is written and 1 on any exception; never returns."""
    status = 1
    try:  # whatever happens, the child must not return into its caller
        # collections here need not walk the heap the parent built
        gc.freeze()
        import pickle

        data = memoryview(pickle.dumps(
            [one(policy, seed) for _label, policy, seed in chunk],
            pickle.HIGHEST_PROTOCOL))
        while data:
            data = data[os.write(fd, data):]
        status = 0
    finally:
        os._exit(status)


def _receive(pid: int, fd: int) -> bytes | None:
    """What the child ``pid`` wrote to ``fd``, read to its end, once the
    child is reaped; None unless it exited 0."""
    parts = []
    try:
        while part := os.read(fd, 1 << 16):
            parts.append(part)
    finally:
        os.close(fd)
        _pid, status = os.waitpid(pid, 0)
    return b"".join(parts) if status == 0 else None


def _kill(pid: int, fd: int) -> None:
    import signal

    os.close(fd)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
