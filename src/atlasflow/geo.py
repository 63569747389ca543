"""Isomap pieces: knn graphs, all-pairs geodesics, classical MDS.

Per-chart Isomap supplies both the pretraining targets for coordinate maps
and the reference geodesics for the pairwise-distance loss.  Shortest
paths run through scipy's compiled Dijkstra; the test suite checks them
against a Floyd-Warshall oracle.

:func:`isomap` keeps a chart's geodesics as the condensed upper triangle,
the m(m-1)/2 floats of ``scipy.spatial.distance.squareform``, and
:func:`condensed_block` reads a batch's ``(b, b)`` block out of it.  The
full m x m matrix exists once, in :func:`geodesic_matrix`, which makes it
symmetric in place; :func:`classical_mds` adds the one m x m buffer it
squares, centres and hands to LAPACK.

:func:`atlas.train` runs each chart's Isomap where it trains the chart,
which may be a pool worker that keeps the geodesics for the whole schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path
from scipy.spatial import cKDTree

from . import env
from .errors import ConnectivityError, NumericError

DEFAULT_K = 10


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
    if d.max() == np.inf:
        i = int(np.argmax(d.max(axis=1) == np.inf))
        j = int(np.argmax(d[i] == np.inf))
        raise ConnectivityError(f"graph disconnected: node {j} unreachable from node {i}")
    # per-source runs accumulate the same path in different orders; take the
    # directionwise min so the matrix is exactly symmetric, one block pair at
    # a time so no second m x m array is made
    m = d.shape[0]
    step = 256
    for r in range(0, m, step):
        rows = slice(r, r + step)
        for c in range(r, m, step):
            cols = slice(c, c + step)
            low = np.minimum(d[rows, cols], d[cols, rows].T)
            d[rows, cols] = low
            d[cols, rows] = low.T
    return d


def classical_mds(d_matrix: np.ndarray, n: int) -> np.ndarray:
    """Embed a distance matrix by double centering and a top-n eigen solve.

    ``d_matrix`` must be exactly symmetric, as :func:`geodesic_matrix`
    returns it.  Column signs follow the same convention as the PCA lens
    (largest-magnitude loading positive) so results are reproducible.
    """
    d_matrix = np.asarray(d_matrix, dtype=float)
    m = d_matrix.shape[0]
    if not 1 <= n < m:
        raise ValueError(f"target dim {n} must satisfy 1 <= n < {m}")
    sq = d_matrix * d_matrix
    row_mean = sq.mean(axis=1, keepdims=True)
    col_mean = sq.mean(axis=0, keepdims=True)
    mean = sq.mean()
    # b = -0.5 * (sq - row_mean - col_mean + mean), built in place in sq's
    # F-ordered transpose: sq is exactly symmetric, so b[i, j] lands at
    # b_f[i, j] bit for bit, and LAPACK takes b_f without copying it
    b_f = sq.T
    b_f -= row_mean
    b_f -= col_mean
    b_f += mean
    b_f *= -0.5
    vals, vecs = scipy.linalg.eigh(b_f, subset_by_index=[m - n, m - 1], overwrite_a=True)
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


def _upper_triangle(d: np.ndarray) -> np.ndarray:
    """``squareform(d)``: the rows of d's strict upper triangle, end to end."""
    m = d.shape[0]
    out = np.empty(m * (m - 1) // 2)
    start = 0
    for i in range(m - 1):
        out[start:start + m - 1 - i] = d[i, i + 1:]
        start += m - 1 - i
    return out


def condensed_block(condensed: np.ndarray, m: int, positions: np.ndarray) -> np.ndarray:
    """``squareform(condensed)[np.ix_(positions, positions)]`` for an m-point
    condensed matrix, read without the m x m square."""
    p = np.asarray(positions, dtype=np.intp)
    lo = np.minimum.outer(p, p)
    # row lo of the triangle starts at lo * (2m - lo - 1) / 2 and holds
    # columns lo + 1 .. m - 1, so (lo, hi) sits at lo * (2m - lo - 3) / 2 + hi - 1
    block = condensed.take((2 * m - 3 - lo) * lo // 2 + np.maximum.outer(p, p) - 1)
    block[p[:, None] == p] = 0.0
    return block


def isomap(points: np.ndarray, k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """knn graph -> geodesics -> classical MDS.

    Returns the embedding and the condensed geodesics.  If the graph is
    disconnected the neighbor count doubles (capped at N-1) until the
    geodesics are finite: the pairwise-distance loss needs every pair, and
    small chart subsets can be sparse.
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
    geodesics = _upper_triangle(d)
    return classical_mds(d, n), geodesics

