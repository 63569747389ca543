import os

import pytest

from atlasflow import geo


@pytest.fixture
def isomap_pids(monkeypatch, tmp_path):
    """Reader of the set of PIDs that built a kNN graph since the last read.

    The environment allows the Isomap pool (one BLAS thread); a test sets
    ``ATLASFLOW_THREADS`` and compares the PIDs against its own, so a pool
    that silently ran in-process fails it.
    """
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the Isomap pool needs 2 usable CPUs")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    log = tmp_path / "isomap_pids.txt"
    knn_graph = geo.knn_graph

    def recording(points, k):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return knn_graph(points, k)

    monkeypatch.setattr(geo, "knn_graph", recording)

    def read() -> set[int]:
        pids = {int(line) for line in log.read_text().split()} if log.exists() else set()
        log.unlink(missing_ok=True)
        return pids

    return read
