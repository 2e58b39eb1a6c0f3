"""Order-preserving map over independent tasks in forked worker processes,
and a pair of calls in two processes.

One worker per CPU this process may run on (Linux; elsewhere one), never
more than there are tasks.  With fewer than two workers the map runs in
this process.  Workers are forked, so they inherit the function and the
items and only results cross a pipe; they ignore SIGINT, which leaves an
interrupt to the parent.  Warnings raised in a worker are raised again
in the parent, in task order, at the code location that raised them.
A worker that dies (say, killed by the out-of-memory killer) fails the
map with WorkerError.  partner forks one process under the same rules
when an OpenBLAS is loaded; the two share arrays on shared_array's
mappings.  The partner exits at its pipe's EOF: it outlives neither the
block nor a parent killed outright.  OpenBLAS is held at one thread from
fork to join, and for partner's whole block: the forked processes inherit
that count, so no BLAS threads compete with them for the CPUs.  Then the
caller's count is put back.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import signal
import sys
import warnings

import numpy as np

from .errors import WorkerError

__all__ = ["parallel_map", "partner", "shared_array"]

# OpenBLAS's thread-count calls in numpy >= 2 wheels, numpy 1.x wheels and OpenBLAS's own build
_BLAS_CALLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
               "openblas_{}_num_threads")

# (fn, items) of the map in progress; forked workers inherit it, and a
# map started while it is set (inside a worker, or by fn itself) runs serially
_TASK = None


def _cpus() -> int:
    """CPUs this process may run on; 1 inside a map, and on platforms without the call."""
    if _TASK is not None or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


@functools.cache
def _blas():
    """(get, set) of the thread count of the OpenBLAS this process has mapped, or None."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(None, 5)[5].strip() for line in maps if "openblas" in line})
    except OSError:  # no /proc: not Linux
        return None
    for path in paths:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        for name in _BLAS_CALLS:
            if hasattr(lib, name.format("set")):
                get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold the loaded OpenBLAS, if any, at one thread until the block ends."""
    get, set_ = _blas() or (lambda: None, lambda threads: None)
    threads = get()
    set_(1)
    try:
        yield
    finally:
        set_(threads)


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

    with _one_blas_thread():
        _TASK = (fn, items)
        pool = None
        try:
            # the workers are forked inside the first submit; SIGINT stays
            # blocked until each has set it to be ignored
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                           initializer=_start_worker)
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


@contextlib.contextmanager
def partner(g):
    """Yield pair, where pair(f, *args) is (f(), g(*args)); g runs in one
    partner process forked on entry when two CPUs are usable and an
    OpenBLAS is loaded (another BLAS's threads could compete with it).
    The block holds OpenBLAS at one thread, forked or not, since results
    can differ in the last bits at another count.

    g's writes reach the caller only through shared memory (shared_array).
    f's exception comes first, then g's, with its type; a partner that dies
    raises WorkerError.  The block ends only after the partner has exited.
    """
    with _one_blas_thread():
        if _cpus() < 2 or _blas() is None:
            yield lambda f, *args: (f(), g(*args))
            return

        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        here, there = ctx.Pipe()
        proc = ctx.Process(target=_serve, args=(g, there, here))
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            proc.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            there.close()

        def pair(f, *args):
            with contextlib.suppress(ConnectionError):  # a dead partner shows at recv
                here.send(args)
            try:
                a = f()
            finally:  # read even when f fails, so that the next call gets its own reply
                try:
                    b, exc = here.recv()
                except (EOFError, ConnectionError):
                    b, exc = None, WorkerError("the partner process died before its half finished")
            if exc is not None:
                raise exc
            return a, b

        try:
            yield pair
        finally:
            here.close()  # the partner's EOF
            proc.join()


def shared_array(shape) -> np.ndarray:
    """A zeroed float64 array on an anonymous shared mapping: a process forked
    after this call and its parent see each other's writes to it."""
    import mmap

    return np.ndarray(shape, buffer=mmap.mmap(-1, 8 * math.prod(shape)))  # MAP_SHARED


def _start_worker() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})


def _serve(g, conn, other) -> None:
    """The partner: send back (g(*args), None) or (None, g's error) for each
    args received, until the pipe reaches EOF or the caller is gone."""
    _start_worker()
    other.close()
    with contextlib.suppress(EOFError, ConnectionError):
        while True:
            args = conn.recv()
            try:
                reply = g(*args), None
            except Exception as exc:
                reply = None, exc
            conn.send(reply)


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
