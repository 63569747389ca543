"""One fork pool for per-chart work: training (with each chart's Isomap),
sampling and log-density.

Each chart's pass depends on no other chart's, but neither Dijkstra, the
eigen solve nor the flow passes' many small NumPy calls release the GIL for
long.  So per-chart jobs run in forked worker processes when their summed
cost reaches the caller's threshold, and in-process otherwise.

The pool has ``min($ATLASFLOW_THREADS, usable CPUs // BLAS threads, jobs)``
workers and is used only when that is at least 2.  BLAS threads are counted
as OpenBLAS counts them: ``$OPENBLAS_NUM_THREADS``, else
``$OMP_NUM_THREADS``, else one per usable CPU.  So on a 2-CPU machine with
BLAS at its default everything runs in-process.

:class:`Pool` forks its workers once, and each inherits the parent's memory,
jobs included.  A round of :meth:`Pool.run` calls every job with that
round's arguments, while the parent waits: a job's first call goes, largest
cost first, to whichever worker frees up, and its later calls go back to
that worker, so what a job leaves in its worker's memory (a chart's
geodesics and training state) is there for its next call and never crosses
a pipe.  :func:`run_jobs` is a pool's one round.

A worker gets a job index and the pickled arguments over its own pipe.
Only the arguments and the results are pickled, with pickle protocol 5:
NumPy arrays in a result travel out of band and the parent reads each one
straight into a buffer of its exact size, which then backs the array, so a
result takes its own size in the parent and no more.  The parent reads in
its own thread, one whole result at a time, so its peak memory does not
depend on how the workers' results interleave.  Forked workers keep the
parent's BLAS thread count and each job call runs whole in one process, so
a pooled run returns the bytes a serial run returns.  In a round, the first
failing job in job order raises the error a serial loop would, and no job
starts after it.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import selectors
import signal
import struct
from collections.abc import Callable, Sequence
from typing import TypeVar

from . import env

T = TypeVar("T")

# a task, parent to worker: job index and pickled-arguments length
_TASK = struct.Struct("<IQ")
# a result's header, worker to parent: pickle length and out-of-band buffer
# count, then one length per buffer
_HEADER = struct.Struct("<QI")
_LENGTH = struct.Struct("<Q")
# glibc keeps what a process frees in its heap, and after a free of a few MB
# it serves allocations up to that size from the heap too.  A worker lives
# for a whole training run, and a chart's Isomap frees two m x m float arrays,
# so the worker hands the free pages back after each job; a C library without
# malloc_trim keeps them.
_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
if _malloc_trim is not None:
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int


def _blas_threads(cpus: int) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            value = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if value > 0:
            return min(value, cpus)
    return cpus


def workers(n_jobs: int) -> int:
    """Worker processes for ``n_jobs`` jobs; see the module docstring."""
    cpus = env.usable_cpus()
    return min(env.threads(), cpus // _blas_threads(cpus), n_jobs)


def _write_all(fd: int, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _read_exact(fd: int, n: int) -> bytearray:
    buffer = bytearray(n)
    view = memoryview(buffer)
    while view:
        got = os.readv(fd, [view])
        if got == 0:
            raise EOFError
        view = view[got:]
    return buffer


def _send(fd: int, i: int, outcome: tuple[bool, object]) -> None:
    buffers = []
    try:
        data = pickle.dumps(outcome, protocol=5, buffer_callback=buffers.append)
    except Exception as exc:                # noqa: BLE001 - reported to the parent
        buffers = []
        error = RuntimeError(f"pool job {i}: its result cannot be pickled: {exc!r}")
        data = pickle.dumps((False, error), protocol=5)
    raws = [b.raw() for b in buffers]
    _write_all(fd, _HEADER.pack(len(data), len(raws)) + b"".join(_LENGTH.pack(r.nbytes) for r in raws))
    _write_all(fd, data)
    for raw in raws:
        _write_all(fd, raw)


def _receive(fd: int) -> tuple[bool, object]:
    n_data, n_buffers = _HEADER.unpack(_read_exact(fd, _HEADER.size))
    lengths = struct.unpack(f"<{n_buffers}Q", _read_exact(fd, n_buffers * _LENGTH.size))
    data = _read_exact(fd, n_data)
    return pickle.loads(data, buffers=[_read_exact(fd, n) for n in lengths])


def _outcome(job: Callable[..., object], args: tuple) -> tuple[bool, object]:
    try:
        return True, job(*args)
    except Exception as exc:                # noqa: BLE001 - re-raised in the parent, in job order
        return False, exc


def _serve(jobs: Sequence[Callable[..., object]], tasks: int, results: int) -> None:
    """A worker's loop: for each task read from ``tasks`` until EOF, run
    ``jobs[i](*args)`` and send back ``(True, result)`` or ``(False, exception)``."""
    while True:
        try:
            i, n_args = _TASK.unpack(_read_exact(tasks, _TASK.size))
        except EOFError:
            return
        _send(results, i, _outcome(jobs[i], pickle.loads(_read_exact(tasks, n_args))))
        if _malloc_trim is not None:
            _malloc_trim(0)


class _Worker:
    def __init__(self, jobs: Sequence[Callable[..., object]], inherited: list[int]):
        tasks_r, self.tasks = os.pipe()
        self.results, results_w = os.pipe()
        self.job: int | None = None         # the job it is running
        self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:
                for fd in (*inherited, self.tasks, self.results):
                    os.close(fd)
                _serve(jobs, tasks_r, results_w)
                code = 0
            finally:
                # skip the parent's atexit handlers and its buffered output
                os._exit(code)
        os.close(tasks_r)
        os.close(results_w)

    def start(self, i: int, args: bytes) -> None:
        """Run job ``i`` on ``args``, the pickled argument tuple."""
        self.job = i
        try:
            _write_all(self.tasks, _TASK.pack(i, len(args)) + args)
        except BrokenPipeError:
            raise self.died() from None

    def died(self) -> RuntimeError:
        return RuntimeError(f"pool worker {self.pid} exited while running job {self.job}")


class Pool:
    """``n_workers`` forked workers that run ``jobs`` for as many rounds as
    the caller asks (see the module docstring); close it, or use it in a
    ``with`` block, to end them."""

    def __init__(self, jobs: Sequence[Callable[..., T]], costs: Sequence[float], n_workers: int):
        # fork, not spawn: a spawned worker re-imports NumPy and SciPy (~0.4 s
        # each) and would need the jobs pickled.  The parent runs no threads of
        # its own here; OpenBLAS quiesces its pool at fork.
        self._order = sorted(range(len(jobs)), key=lambda i: -costs[i])
        self._owner: list[_Worker | None] = [None] * len(jobs)
        self._workers: list[_Worker] = []
        try:
            for _ in range(n_workers):
                self._workers.append(_Worker(jobs, [fd for w in self._workers for fd in (w.tasks, w.results)]))
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "Pool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _next(self, w: _Worker, queue: list[int]) -> int | None:
        """The first job in ``queue`` that ``w`` ran before or no worker has."""
        for pos, i in enumerate(queue):
            if self._owner[i] in (None, w):
                self._owner[i] = w
                return queue.pop(pos)
        return None

    def run(self, *args) -> list[T]:
        """One round: ``[job(*args) for job in jobs]``, in job order."""
        args = pickle.dumps(args, protocol=5)
        queue = list(self._order)
        outcomes: dict[int, tuple[bool, object]] = {}
        first_failure = len(queue)
        with selectors.DefaultSelector() as selector:
            for w in self._workers:
                if (i := self._next(w, queue)) is not None:
                    w.start(i, args)
                    selector.register(w.results, selectors.EVENT_READ, w)
            while selector.get_map():
                for key, _ in selector.select():
                    w = key.data
                    try:
                        outcome = _receive(w.results)
                    except EOFError:
                        raise w.died() from None
                    outcomes[w.job] = outcome
                    if not outcome[0]:
                        first_failure = min(first_failure, w.job)
                        queue[:] = [i for i in queue if i < first_failure]
                    w.job = None
                    if (i := self._next(w, queue)) is not None:
                        w.start(i, args)
                    else:
                        selector.unregister(w.results)
        results = []
        for i in range(len(self._owner)):
            ok, value = outcomes[i]
            if not ok:
                raise value
            results.append(value)
        return results

    def close(self) -> None:
        for w in self._workers:
            os.close(w.tasks)               # an idle worker exits at EOF
            os.close(w.results)
        for w in self._workers:
            if w.job is not None:           # still running: the parent raised
                os.kill(w.pid, signal.SIGKILL)
            os.waitpid(w.pid, 0)
        self._workers = []


def pooled_workers(costs: Sequence[float], min_cost: float) -> int:
    """Workers a pool of jobs of these ``costs`` gets under this
    ``min_cost``; 1 means the jobs run in-process."""
    n_workers = workers(len(costs))
    return n_workers if n_workers >= 2 and sum(costs) >= min_cost else 1


def run_jobs(jobs: Sequence[Callable[[], T]], costs: Sequence[float], min_cost: float) -> list[T]:
    """``[job() for job in jobs]``: one round of a :class:`Pool` when at least
    two workers are available and the summed ``costs`` reach ``min_cost``,
    else in-process."""
    n_workers = pooled_workers(costs, min_cost)
    if n_workers == 1:
        return [job() for job in jobs]
    with Pool(jobs, costs, n_workers) as workers:
        return workers.run()
