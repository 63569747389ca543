import os
from collections import defaultdict

import pytest

from atlasflow import atlas, geo
from atlasflow import flow as fl


@pytest.fixture
def pool_pids(monkeypatch, tmp_path):
    """Reader of the PIDs that did pool-able work since the last read: a dict
    from ``"isomap"`` (built a kNN graph), ``"train"`` (ran a chart's epoch)
    and ``"flow"`` (ran a flow pass through ``fl.stack_forward``/
    ``fl.stack_inverse``) to sets of PIDs.

    The environment allows the fork pool (one BLAS thread); a test sets
    ``ATLASFLOW_THREADS`` and compares the PIDs against its own, so a pool
    that silently ran in-process fails it.
    """
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the fork pool needs 2 usable CPUs")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    log = tmp_path / "pool_pids.txt"

    def recording(kind, fn):
        def record(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{kind} {os.getpid()}\n")
            return fn(*args, **kwargs)
        return record

    monkeypatch.setattr(geo, "knn_graph", recording("isomap", geo.knn_graph))
    monkeypatch.setattr(atlas, "_chart_epoch", recording("train", atlas._chart_epoch))
    for name in ("stack_forward_cached", "stack_inverse_cached"):
        monkeypatch.setattr(fl, name, recording("flow", getattr(fl, name)))

    def read() -> dict[str, set[int]]:
        pids = defaultdict(set)
        for line in log.read_text().splitlines() if log.exists() else []:
            kind, pid = line.split()
            pids[kind].add(int(pid))
        log.unlink(missing_ok=True)
        return pids

    return read
