import os
import tracemalloc
from functools import partial

import numpy as np
import pytest

from atlasflow import pool


def _array(m: int, k: int):
    return np.full((m, m), float(k)), os.getpid()


def _fail(message: str):
    raise ValueError(message)


def _die():
    os._exit(3)


def _unpicklable():
    return lambda: None


@pytest.fixture
def two_workers(monkeypatch, pool_pids):
    """The fork pool with two workers (``pool_pids`` skips below 2 CPUs and
    pins BLAS to one thread)."""
    monkeypatch.setenv("ATLASFLOW_THREADS", "2")
    assert pool.workers(4) == 2


class TestWorkers:
    @pytest.mark.parametrize("cpus, env, n_charts, workers", [
        (2, {}, 4, 1),
        (2, {"OPENBLAS_NUM_THREADS": "1"}, 4, 2),
        (2, {"OMP_NUM_THREADS": "1"}, 4, 2),
        (4, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 2),
        (4, {"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "2"}, 4, 2),
        (2, {"OPENBLAS_NUM_THREADS": "8"}, 4, 1),
        (2, {"OPENBLAS_NUM_THREADS": "1", "ATLASFLOW_THREADS": "1"}, 4, 1),
        (8, {"OPENBLAS_NUM_THREADS": "1", "ATLASFLOW_THREADS": "3"}, 4, 3),
        (8, {"OPENBLAS_NUM_THREADS": "1"}, 3, 3),
    ], ids=["blas-unset", "openblas-1", "omp-1", "openblas-before-omp", "malformed-openblas-ignored",
            "blas-capped-at-cpus", "threads-1", "threads-cap", "chart-cap"])
    def test_worker_count_rule(self, monkeypatch, cpus, env, n_charts, workers):
        monkeypatch.setattr(pool.env, "usable_cpus", lambda: cpus)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "ATLASFLOW_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert pool.workers(n_charts) == workers


class TestRunJobs:
    def test_results_in_job_order_from_workers(self, two_workers):
        jobs = [partial(_array, 30 + k, k) for k in range(5)]
        pooled = pool.run_jobs(jobs, [1, 5, 2, 4, 3], 0)
        for k, (a, pid) in enumerate(pooled):
            assert pid != os.getpid()
            assert a.shape == (30 + k, 30 + k) and np.all(a == k)
            a += 1.0                            # results are writable arrays
        assert len({pid for _, pid in pooled}) == 2

    def test_a_result_costs_its_own_size_in_the_parent(self, two_workers):
        # the arrays are read straight into the buffers that back them: no
        # pickled copy of a result is ever held next to the result
        tracemalloc.start()
        try:
            pooled = pool.run_jobs([partial(_array, 1000, k) for k in range(2)], [1, 1], 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(pid != os.getpid() for _, pid in pooled)
        size = sum(a.nbytes for a, _ in pooled)
        assert size <= peak < 1.1 * size

    def test_first_failure_in_job_order_raises(self, two_workers):
        # job 2 is the largest, so it runs first; job 1's error is raised
        jobs = [partial(_array, 5, 0), partial(_fail, "job 1"), partial(_fail, "job 2")]
        with pytest.raises(ValueError, match="job 1"):
            pool.run_jobs(jobs, [1, 2, 3], 0)

    def test_dead_worker_raises(self, two_workers):
        with pytest.raises(RuntimeError, match="exited while running job 1"):
            pool.run_jobs([partial(_array, 5, 0), _die], [1, 2], 0)

    def test_unpicklable_result_raises(self, two_workers):
        with pytest.raises(RuntimeError, match="job 0: its result cannot be pickled"):
            pool.run_jobs([_unpicklable, partial(_array, 5, 0)], [1, 1], 0)

    def test_below_threshold_runs_in_process(self, two_workers):
        (_, pid), = pool.run_jobs([partial(_array, 5, 0)], [1], 2)
        assert pid == os.getpid()


def _count_calls(calls: dict, k: int):
    calls[k] = calls.get(k, 0) + 1
    return k, calls[k], os.getpid()


def _die_on_second_call(calls: dict, k: int):
    calls[k] = calls.get(k, 0) + 1
    if k == 1 and calls[k] == 2:
        os._exit(3)
    return os.getpid()


class TestPool:
    def test_later_rounds_return_to_the_first_worker(self, two_workers):
        # each worker counts the calls of its jobs in its own copy of calls:
        # a job's count reaches 3 only if all three rounds ran in one worker
        calls = {}
        jobs = [partial(_count_calls, calls, k) for k in range(4)]
        with pool.Pool(jobs, [1, 4, 2, 3], 2) as workers:
            rounds = [workers.run() for _ in range(3)]
        assert calls == {}
        for r, results in enumerate(rounds, start=1):
            assert [(k, n) for k, n, _ in results] == [(k, r) for k in range(4)]
            assert [pid for _, _, pid in results] == [pid for _, _, pid in rounds[0]]
        pids = {pid for _, _, pid in rounds[0]}
        assert len(pids) == 2 and os.getpid() not in pids

    def test_worker_killed_in_a_later_round_raises(self, two_workers):
        jobs = [partial(_die_on_second_call, {}, k) for k in range(2)]
        with pool.Pool(jobs, [1, 2], 2) as workers:
            first = workers.run()
            with pytest.raises(RuntimeError, match=f"pool worker {first[1]} exited while running job 1"):
                workers.run()
