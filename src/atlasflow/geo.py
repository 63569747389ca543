"""Isomap pieces: knn graphs, all-pairs geodesics, classical MDS.

Per-chart Isomap supplies both the pretraining targets for coordinate maps
and the reference geodesic matrix for the pairwise-distance loss.  Shortest
paths run through scipy's compiled Dijkstra; the test suite checks them
against a Floyd-Warshall oracle.

:func:`isomap_charts` runs one Isomap per chart.  When the charts hold at
least ``POOL_MIN_PAIRS`` point pairs it hands them to :func:`pool.run_jobs`,
the fork pool that also serves sampling and log-density, which may run them
in worker processes, largest chart first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path
from scipy.spatial import cKDTree

from . import env, pool
from .errors import ConnectivityError, NumericError

DEFAULT_K = 10
# Summed squared chart sizes below which the charts' Isomaps run in-process.
# On a 2-vCPU x86-64 VM at one BLAS thread, a fork-pool round trip costs
# ~30 ms and Isomap ~0.4 us per pair, so two workers break even near
# 1.5e5 pairs; the margin covers uneven chart sizes and the pickled results.
POOL_MIN_PAIRS = 1_000_000


@dataclass
class NeighborGraph:
    """Symmetric Euclidean-weighted knn graph; no self loops."""

    n: int
    k: int
    adjacency: sp.csr_matrix


def knn_graph(points: np.ndarray, k: int) -> NeighborGraph:
    """Connect each point to its k nearest neighbors, then symmetrize.

    Zero-weight edges (exact duplicates) are dropped; the points stay and
    connect through their other neighbors.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k={k} must satisfy 1 <= k < {n}")
    tree = cKDTree(points)
    dist, idx = tree.query(points, k=k + 1, workers=env.threads())
    rows = np.repeat(np.arange(n), k + 1)
    cols = idx.ravel()
    data = dist.ravel()
    keep = (rows != cols) & (data > 0)
    adj = sp.coo_matrix((data[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()
    adj = adj.maximum(adj.T)
    return NeighborGraph(n=n, k=k, adjacency=adj)


def geodesic_matrix(graph: NeighborGraph) -> np.ndarray:
    """All-pairs shortest-path distances (repeated Dijkstra)."""
    # knn_graph stores every edge in both directions already, so a directed
    # search finds the same paths; directed=False would make SciPy scan each
    # edge twice
    d = shortest_path(graph.adjacency, method="D", directed=True)
    if np.any(np.isinf(d)):
        i, j = np.argwhere(np.isinf(d))[0]
        raise ConnectivityError(f"graph disconnected: node {j} unreachable from node {i}")
    # per-source runs accumulate the same path in different orders; take the
    # directionwise min so the matrix is exactly symmetric
    return np.minimum(d, d.T)


def classical_mds(d_matrix: np.ndarray, n: int) -> np.ndarray:
    """Embed a distance matrix by double centering and a top-n eigen solve.

    Column signs follow the same convention as the PCA lens (largest-
    magnitude loading positive) so results are reproducible.
    """
    d_matrix = np.asarray(d_matrix, dtype=float)
    m = d_matrix.shape[0]
    if not 1 <= n < m:
        raise ValueError(f"target dim {n} must satisfy 1 <= n < {m}")
    sq = d_matrix * d_matrix
    row_mean = sq.mean(axis=1, keepdims=True)
    col_mean = sq.mean(axis=0, keepdims=True)
    b = -0.5 * (sq - row_mean - col_mean + sq.mean())
    vals, vecs = scipy.linalg.eigh(b, subset_by_index=[m - n, m - 1])
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    if np.any(vals <= 1e-12 * max(abs(vals).max(), 1.0)):
        raise NumericError(f"top-{n} eigenvalue not positive: {vals.min():.3e}; embedding rank too low")
    coords = vecs * np.sqrt(vals)
    for j in range(n):
        pivot = np.argmax(np.abs(coords[:, j]))
        if coords[pivot, j] < 0:
            coords[:, j] = -coords[:, j]
    return coords


def isomap(points: np.ndarray, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """knn graph -> geodesics -> classical MDS.

    If the graph is disconnected the neighbor count doubles (capped at N-1)
    until the geodesics are finite: the pairwise-distance loss needs a full
    matrix, and small chart subsets can be sparse.
    """
    points = np.asarray(points, dtype=float)
    m = points.shape[0]
    k = min(k, m - 1)
    while True:
        graph = knn_graph(points, k)
        try:
            d = geodesic_matrix(graph)
            break
        except ConnectivityError:
            if k >= m - 1:
                raise
            k = min(2 * k, m - 1)
    return classical_mds(d, n), d


def isomap_charts(charts: list[np.ndarray], k: int, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """:func:`isomap` of every chart's points, in chart order; a chart's
    failure raises the same error a serial loop would."""
    jobs = [partial(isomap, points, k, n) for points in charts]
    return pool.run_jobs(jobs, [len(points) ** 2 for points in charts], POOL_MIN_PAIRS)
