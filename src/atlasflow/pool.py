"""One fork pool for per-chart work: Isomap, training, sampling and log-density.

Each chart's pass depends on no other chart's, but neither Dijkstra, the
eigen solve nor the flow passes' many small NumPy calls release the GIL for
long.  So :func:`run_jobs` runs per-chart jobs in forked worker processes
when their summed cost reaches the caller's threshold, and in-process
otherwise.  Pooled, it hands the jobs, largest first, to the workers as they
free up, while the parent waits.

The pool has ``min($ATLASFLOW_THREADS, usable CPUs // BLAS threads, jobs)``
workers and is used only when that is at least 2.  BLAS threads are counted
as OpenBLAS counts them: ``$OPENBLAS_NUM_THREADS``, else
``$OMP_NUM_THREADS``, else one per usable CPU.  So on a 2-CPU machine with
BLAS at its default everything runs in-process.

The jobs reach the workers through the fork, not by pickling: each worker
inherits the parent's memory, jobs and models included, and gets only job
indices over its own pipe.  Once every worker has forked, the parent may
drop the state that the jobs' results will replace.  Only the results are
pickled back, with pickle protocol 5: NumPy arrays travel out of band and
the parent reads each one straight into a buffer of its exact size, which
then backs the array, so a result takes its own size in the parent and no
more.  The parent reads in its own thread, one whole result at a time, so
its peak memory does not depend on how the workers' results interleave.
Forked workers keep the parent's BLAS thread count and each job runs whole
in one process, so a pooled run returns the bytes a serial run returns.  The
first failing job in job order raises the error a serial loop would, and no
job starts after it.
"""

from __future__ import annotations

import os
import pickle
import selectors
import signal
import struct
from collections.abc import Callable, Sequence
from typing import TypeVar

from . import env

T = TypeVar("T")

# a job index, parent to worker
_INDEX = struct.Struct("<I")
# a result's header, worker to parent: pickle length and out-of-band buffer
# count, then one length per buffer
_HEADER = struct.Struct("<QI")
_LENGTH = struct.Struct("<Q")


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


def _outcome(job: Callable[[], object]) -> tuple[bool, object]:
    try:
        return True, job()
    except Exception as exc:                # noqa: BLE001 - re-raised in the parent, in job order
        return False, exc


def _serve(jobs: Sequence[Callable[[], object]], tasks: int, results: int) -> None:
    """A worker's loop: run each job index read from ``tasks`` until EOF and
    send back ``(True, result)`` or ``(False, exception)``."""
    while raw := os.read(tasks, _INDEX.size):
        (i,) = _INDEX.unpack(raw)
        _send(results, i, _outcome(jobs[i]))


class _Worker:
    def __init__(self, jobs: Sequence[Callable[[], object]], inherited: list[int]):
        tasks_r, self.tasks = os.pipe()
        self.results, results_w = os.pipe()
        self.job: int | None = None
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

    def start(self, i: int) -> None:
        self.job = i
        _write_all(self.tasks, _INDEX.pack(i))


def _collect(pool: list[_Worker], queue: list[int], outcomes: dict[int, tuple[bool, object]]) -> None:
    """Hand out ``queue`` in order to whichever worker is free and store each
    job's outcome; a job after the first failing one is not started."""
    first_failure = len(queue) + len(pool)
    with selectors.DefaultSelector() as selector:
        for w in pool:
            w.start(queue.pop(0))
            selector.register(w.results, selectors.EVENT_READ, w)
        while selector.get_map():
            for key, _ in selector.select():
                w = key.data
                try:
                    outcomes[w.job] = _receive(w.results)
                except EOFError:
                    raise RuntimeError(f"pool worker {w.pid} exited while running job {w.job}") from None
                if not outcomes[w.job][0]:
                    first_failure = min(first_failure, w.job)
                    queue[:] = [i for i in queue if i < first_failure]
                if queue:
                    w.start(queue.pop(0))
                else:
                    selector.unregister(w.results)


def pooled_workers(costs: Sequence[float], min_cost: float) -> int:
    """Workers :func:`run_jobs` uses for jobs of these ``costs`` with this
    ``min_cost``; 1 means in-process."""
    n_workers = workers(len(costs))
    return n_workers if n_workers >= 2 and sum(costs) >= min_cost else 1


def _in_job_order(outcomes: dict[int, tuple[bool, object]], n_jobs: int) -> list:
    results = []
    for i in range(n_jobs):
        ok, value = outcomes[i]
        if not ok:
            raise value
        results.append(value)
    return results


def run_jobs(
    jobs: Sequence[Callable[[], T]],
    costs: Sequence[float],
    min_cost: float,
    release: Callable[[int], None] | None = None,
) -> list[T]:
    """``[job() for job in jobs]``, in forked workers when at least two are
    available and the summed ``costs`` reach ``min_cost``.  Pooled, once
    every worker has forked, ``release(i)`` is called for every job, so the
    caller can drop the state that the job's result will replace."""
    n_workers = pooled_workers(costs, min_cost)
    if n_workers == 1:
        return [job() for job in jobs]
    # fork, not spawn: a spawned worker re-imports NumPy and SciPy (~0.4 s
    # each) and would need the jobs pickled.  The parent runs no threads of
    # its own here; OpenBLAS quiesces its pool at fork.
    outcomes: dict[int, tuple[bool, object]] = {}
    pool: list[_Worker] = []
    try:
        for _ in range(n_workers):
            pool.append(_Worker(jobs, [fd for w in pool for fd in (w.tasks, w.results)]))
        if release is not None:
            for i in range(len(jobs)):
                release(i)
        _collect(pool, sorted(range(len(jobs)), key=lambda i: -costs[i]), outcomes)
    finally:
        for w in pool:
            os.close(w.tasks)               # an idle worker exits at EOF
            os.close(w.results)
        for w in pool:
            if w.job not in outcomes:       # still running: the parent raised
                os.kill(w.pid, signal.SIGKILL)
            os.waitpid(w.pid, 0)
    return _in_job_order(outcomes, len(jobs))

