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


def _pid():
    return os.getpid()


@pytest.fixture
def two_workers(monkeypatch, pool_pids):
    """The fork pool with two workers (``pool_pids`` skips below 2 CPUs and
    pins BLAS to one thread)."""
    monkeypatch.setenv("ATLASFLOW_THREADS", "2")
    assert pool.workers(4) == 2


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


class TestRunShares:
    def test_shares_take_the_largest_job_first(self, two_workers):
        # 5 (job 1) and 4 (job 3) open the shares, 3 joins the lighter one,
        # then 2 and 1 the lighter or, on a tie, the first
        assert pool.shares([1, 5, 2, 4, 3], 0) == [[0, 1, 2], [3, 4]]
        assert pool.shares([1, 5, 2, 4, 3], 16) == [[0, 1, 2, 3, 4]]

    def test_share_0_runs_in_the_parent(self, two_workers):
        released = []
        pids = pool.run_shares([_pid] * 5, [[0, 2], [1, 3, 4]], release=released.append)
        assert pids[0] == pids[2] == os.getpid()
        assert pids[1] == pids[3] == pids[4] != os.getpid()
        assert released == [1, 3, 4]

    def test_results_in_job_order(self, two_workers):
        jobs = [partial(_array, 30 + k, k) for k in range(5)]
        pooled = pool.run_shares(jobs, [[1, 4], [0, 2, 3]])
        for k, (a, _) in enumerate(pooled):
            assert a.shape == (30 + k, 30 + k) and np.all(a == k)
            a += 1.0                            # results are writable arrays

    def test_a_result_costs_its_own_size_in_the_parent(self, two_workers):
        tracemalloc.start()
        try:
            pooled = pool.run_shares([partial(_array, 5, 0)] + [partial(_array, 1000, k) for k in (1, 2)],
                                     [[0], [1, 2]])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [pid == os.getpid() for _, pid in pooled] == [True, False, False]
        size = sum(a.nbytes for a, _ in pooled)
        assert size <= peak < 1.1 * size

    def test_first_failure_in_job_order_raises(self, two_workers):
        # the parent's job 2 fails first in time; the child's job 1 is raised
        jobs = [partial(_array, 5, 0), partial(_fail, "job 1"), partial(_fail, "job 2")]
        with pytest.raises(ValueError, match="job 1"):
            pool.run_shares(jobs, [[0, 2], [1]])

    def test_dead_child_raises_naming_its_jobs(self, two_workers):
        with pytest.raises(RuntimeError, match=r"exited while running jobs \[1, 2\]"):
            pool.run_shares([partial(_array, 5, 0), partial(_array, 5, 1), _die], [[0], [1, 2]])
