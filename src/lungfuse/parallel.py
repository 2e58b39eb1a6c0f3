"""Order-preserving map over independent tasks in forked worker processes,
and a pair of calls in two processes.

Both fork one way (_forked): the child runs _serve, which answers the calls
on its pipe until the pipe's EOF, so it outlives neither its block nor a
parent killed outright.  Children inherit the function and its data, so
only arguments and replies cross the pipes.  They ignore SIGINT, which
leaves an interrupt to the parent; one that dies (say, killed by the
out-of-memory killer) shows as EOF on its pipe and raises WorkerError.
parallel_map forks one worker per CPU this process may run on (Linux;
elsewhere one), never more than there are tasks, and hands the next task
to whichever worker is idle; with fewer than two workers, or in a forked
child, it runs in this process.  Warnings raised in a worker are raised
again in the parent, in task order, at the code location that raised them.
partner forks one process when an OpenBLAS is loaded; the two share arrays
on shared_array's mappings.  OpenBLAS is held at one thread from fork to
join, and for partner's whole block: the forked processes inherit that
count, so no BLAS threads compete with them for the CPUs.  Then the
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

# set in a forked child (_serve): a map started there runs serially
_IN_CHILD = False


def _cpus() -> int:
    """CPUs this process may run on; 1 in a forked child, and on platforms without the call."""
    if _IN_CHILD or not hasattr(os, "sched_getaffinity"):
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


@contextlib.contextmanager
def _forked(g):
    """Yield our end of a pipe to a forked process running _serve(g, ...); the
    block ends after closing the pipe (the child's EOF) and joining the child.
    Nest blocks LIFO: a child forked later holds copies of earlier pipes' ends."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    here, there = ctx.Pipe()
    proc = ctx.Process(target=_serve, args=(g, there, here))
    # SIGINT stays blocked until the child has set it to be ignored
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        proc.start()
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        there.close()
    try:
        yield here
    finally:
        here.close()
        proc.join()


def parallel_map(fn, items) -> list:
    """[fn(x) for x in items], computed in forked workers when there are CPUs to spare.

    Returns or raises only after every worker has exited.  The first
    failed task, in task order, raises its exception here; no task is
    handed to a worker after any task has failed.
    """
    items = list(items)
    workers = min(_cpus(), len(items))
    if workers < 2:
        return [fn(x) for x in items]

    from multiprocessing.connection import wait

    def task(i):
        """(fn(items[i]), the warnings it raised as (message, category, filename, lineno))."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = fn(items[i])
        return value, [(w.message, w.category, w.filename, w.lineno) for w in caught]

    todo, busy, replies = iter(range(len(items))), {}, {}
    with _one_blas_thread(), contextlib.ExitStack() as stack:
        ready = [stack.enter_context(_forked(task)) for _ in range(workers)]
        while ready:  # each worker that has replied, or has not yet had a task
            for conn in ready:
                try:
                    if conn in busy:
                        i = busy.pop(conn)
                        replies[i] = conn.recv()
                        if replies[i][1] is not None:  # no task is handed out after a failure
                            todo = iter(())
                    if (j := next(todo, None)) is not None:
                        conn.send((j,))
                        busy[conn] = j
                except (EOFError, ConnectionError):  # killed, perhaps for want of memory
                    raise WorkerError("a worker process died before its task finished") from None
            ready = wait(list(busy)) if busy else []
    results = []
    for i in range(len(items)):  # each task before the first failure has replied
        reply, exc = replies[i]
        if exc is not None:
            raise exc
        for w in reply[1]:
            _warn_again(*w)
        results.append(reply[0])
    return results


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

        with _forked(g) as here:
            def pair(f, *args):
                with contextlib.suppress(ConnectionError):  # a dead partner shows at recv
                    here.send(args)
                try:
                    a = f()
                finally:  # read even when f fails, so that the next call gets its own reply
                    try:
                        b, exc = here.recv()
                    except (EOFError, ConnectionError):
                        b, exc = None, WorkerError(
                            "the partner process died before its half finished")
                if exc is not None:
                    raise exc
                return a, b

            yield pair


def shared_array(shape) -> np.ndarray:
    """A zeroed float64 array on an anonymous shared mapping: a process forked
    after this call and its parent see each other's writes to it."""
    import mmap

    return np.ndarray(shape, buffer=mmap.mmap(-1, 8 * math.prod(shape)))  # MAP_SHARED


def _serve(g, conn, other) -> None:
    """A forked child: send back (g(*args), None) or (None, g's error) for
    each args received, until the pipe reaches EOF or the caller is gone."""
    global _IN_CHILD
    _IN_CHILD = True
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    other.close()
    with contextlib.suppress(EOFError, ConnectionError):
        while True:
            args = conn.recv()
            try:
                reply = g(*args), None
            except Exception as exc:
                reply = None, exc
            conn.send(reply)


def _warn_again(message, category, filename, lineno) -> None:
    """warnings.warn's own call, with the module and registry of the raising code."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__file__", None) == filename:
            registry = vars(mod).setdefault("__warningregistry__", {})
            warnings.warn_explicit(message, category, filename, lineno, mod.__name__,
                                   registry, vars(mod))
            return
    warnings.warn_explicit(message, category, filename, lineno)
