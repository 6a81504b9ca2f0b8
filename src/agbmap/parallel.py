"""The one worker pool. `map_runs` cuts a job into contiguous runs, runs the
first in the calling process and forks a child for each other run, which
sends its result back pickled through a pipe; `workers` is the one rule for
their count. Processes, not threads: the forest's split search holds the
interpreter lock through many small numpy calls, and kriging ran no slower
forked than on a thread pool on the same cores.

A pool never nests: while map_runs has runs out on more than one process,
workers gives one, in the caller's own run and in every child, so a job
that runs on the pool (a grid's map, say) keeps its forest and kriging on
the process it was given.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading

_pool_out = False  # map_runs has runs out on more than one process


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the platform
    reports one, else every core, and at least one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def workers(items: int, units: int, per_worker: int) -> int:
    """Processes for `items` items holding `units` units of work: one per
    usable core, but no more than the items, nor than give each per_worker
    units, and at least one. Without os.fork, or with another thread alive,
    it is one: a forked child holds only the forking thread, and any lock
    another thread held stays locked in it. Inside a pool's runs it is one
    too: a pool never nests."""
    if _pool_out or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(usable_cores(), items, units // per_worker))


def map_runs(fn, items: int, units: int, per_worker: int) -> list:
    """[fn(run) for run in runs], where runs cut range(items) into
    workers(items, units, per_worker) contiguous ranges, in run order. The
    first run runs here and each other one in a forked child, which sends
    back its result, or the exception it raised, pickled through a pipe and
    always ends in os._exit. Every child is killed and reaped before this
    returns or raises. While the runs are out on more than one process,
    workers gives one, here and in each child."""
    global _pool_out
    n = workers(items, units, per_worker)
    if n == 1:
        return [fn(range(items))]
    edges = [items * i // n for i in range(n + 1)]
    runs = [range(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    children = []  # (pid, read end) per forked run, in run order
    _pool_out = True
    try:
        for run in runs[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                try:
                    os.close(r)
                    try:
                        result = fn(run)
                    except BaseException as e:  # the parent raises it again
                        result = e
                    with os.fdopen(w, "wb") as out:
                        out.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
                finally:
                    os._exit(0)  # the parent reads the pipe, not the exit status
            os.close(w)
            children.append((pid, r))
        results = [fn(runs[0])]
        for pid, r in children:
            with os.fdopen(r, "rb", closefd=False) as f:
                try:  # unpickled as it is read, with no copy of its bytes
                    result = pickle.load(f)
                except EOFError:
                    raise ChildProcessError(f"worker {pid} ended without a result") from None
            if isinstance(result, BaseException):
                raise result
            results.append(result)
        return results
    finally:
        _pool_out = False
        # a child whose result was read has only its exit left; any other
        # one is stopped where it is
        for pid, r in children:
            os.kill(pid, signal.SIGKILL)
            os.close(r)
            os.waitpid(pid, 0)
