"""Order-preserving map over independent tasks in forked worker processes,
and a pair of calls on two threads.

One worker per CPU this process may run on (Linux; elsewhere one), never
more than there are tasks.  With fewer than two workers the map runs in
this process.  Workers are forked, so they inherit the function and the
items and only results cross a pipe; they ignore SIGINT, which leaves an
interrupt to the parent.  Warnings raised in a worker are raised again
in the parent, in task order, at the code location that raised them.
A worker that dies (say, killed by the out-of-memory killer) fails the
map with WorkerError.  run_pair, for numpy work that releases the GIL,
uses a helper thread under the same rule, and only while BLAS runs at
one thread, so that the two calls do not compete with BLAS threads; it
joins the thread before it returns, so no thread is alive when a map forks.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import warnings

from .errors import WorkerError

__all__ = ["parallel_map", "run_pair"]

# (fn, items) of the map in progress; forked workers inherit it, and a
# map started while it is set (inside a worker, or by fn itself) runs serially
_TASK = None


def _cpus() -> int:
    """CPUs this process may run on; 1 inside a map, and on platforms without the call."""
    if _TASK is not None or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def parallel_map(fn, items) -> list:
    """[fn(x) for x in items], computed in forked workers when there are CPUs to spare.

    Returns or raises only after every worker has exited.  The first
    failed task, in task order, raises its exception here; tasks not yet
    handed to a worker are cancelled.
    """
    global _TASK
    items = list(items)
    workers = min(_cpus(), len(items))
    if workers < 2:
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


def run_pair(f, g) -> tuple:
    """(f(), g()), with g on a helper thread when two CPUs are usable and
    OPENBLAS_NUM_THREADS (OMP_NUM_THREADS when that is unset) is "1".

    Returns or raises only after the thread has ended.  f's exception
    comes first; g's is raised here.
    """
    blas = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS"))
    if _cpus() < 2 or blas != "1":
        return f(), g()
    out = []

    def call_g():
        try:
            out.append((g(), None))
        except BaseException as exc:
            out.append((None, exc))

    thread = threading.Thread(target=call_g)
    thread.start()
    try:
        a = f()
    finally:
        thread.join()
    b, exc = out[0]
    if exc is not None:
        raise exc
    return a, b


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
