"""Order-preserving map over independent tasks in forked worker processes.

One worker per CPU this process may run on (Linux; elsewhere one), never
more than there are tasks.  With fewer than two workers the map runs in
this process.  Workers are forked, so they inherit the function and the
items and only results cross a pipe; they ignore SIGINT, which leaves an
interrupt to the parent.  Warnings raised in a worker are raised again
in the parent, in task order, at the code location that raised them.
A worker that dies (say, killed by the out-of-memory killer) fails the
map with WorkerError.
"""

from __future__ import annotations

import os
import signal
import sys
import warnings

from .errors import WorkerError

__all__ = ["parallel_map"]

# (fn, items) of the map in progress; forked workers inherit it, and a
# map started while it is set (inside a worker, or by fn itself) runs serially
_TASK = None


def parallel_map(fn, items) -> list:
    """[fn(x) for x in items], computed in forked workers when there are CPUs to spare.

    Returns or raises only after every worker has exited.  The first
    failed task, in task order, raises its exception here; tasks not yet
    handed to a worker are cancelled.
    """
    global _TASK
    items = list(items)
    # CPUs this process may run on; platforms without the call run serially
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(items))
    if workers < 2 or _TASK is not None:
        return [fn(x) for x in items]

    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    _TASK = (fn, items)
    pool = None
    try:
        # the workers are forked inside the first submit; SIGINT stays
        # blocked until each has set it to be ignored
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            pool = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"), initializer=_start_worker
            )
            futures = [pool.submit(_run_task, i) for i in range(len(items))]
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        results = []
        for fut in futures:
            value, caught = fut.result()
            for w in caught:
                _warn_again(*w)
            results.append(value)
        return results
    except BrokenProcessPool:  # a worker died: killed, perhaps for want of memory
        raise WorkerError("a worker process died before its task finished") from None
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        _TASK = None


def _start_worker() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})


def _run_task(i: int):
    """(fn(items[i]), the warnings it raised as (message, category, filename, lineno))."""
    fn, items = _TASK
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = fn(items[i])
    return value, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _warn_again(message, category, filename, lineno) -> None:
    """warnings.warn's own call, with the module and registry of the raising code."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__file__", None) == filename:
            registry = vars(mod).setdefault("__warningregistry__", {})
            warnings.warn_explicit(message, category, filename, lineno, mod.__name__,
                                   registry, vars(mod))
            return
    warnings.warn_explicit(message, category, filename, lineno)
