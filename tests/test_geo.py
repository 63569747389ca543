import os
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.csgraph import shortest_path
from scipy.spatial.distance import squareform

from atlasflow import geo
from atlasflow.errors import ConnectivityError, NumericError


def _floyd_warshall(adj_dense):
    """Reference all-pairs shortest paths; O(N^3) triple loop."""
    n = adj_dense.shape[0]
    d = np.where(adj_dense > 0, adj_dense, np.inf)
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


class TestKnnGraph:
    def test_colinear_path(self):
        pts = np.arange(4.0)[:, None]
        g = geo.knn_graph(pts, 1)
        dense = g.adjacency.toarray()
        expected = np.zeros((4, 4))
        for i in range(3):
            expected[i, i + 1] = expected[i + 1, i] = 1.0
        np.testing.assert_array_equal(dense, expected)

    def test_unit_square_cycle(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        g = geo.knn_graph(pts, 2)
        dense = g.adjacency.toarray()
        assert np.count_nonzero(dense) == 8  # 4 undirected unit edges
        assert dense[0, 2] == 0 and dense[1, 3] == 0  # no diagonals
        assert np.all(dense[dense > 0] == 1.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(50, 3))
        g = geo.knn_graph(pts, 4)
        diff = (g.adjacency - g.adjacency.T)
        assert abs(diff).max() == 0

    def test_duplicates_tolerated(self):
        pts = np.array([[0.0], [0.0], [1.0], [2.0]])
        g = geo.knn_graph(pts, 2)
        assert g.adjacency.diagonal().sum() == 0
        assert np.all(g.adjacency.data > 0)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            geo.knn_graph(np.zeros((3, 1)), 3)


class TestGeodesics:
    def test_path_graph(self):
        pts = np.arange(4.0)[:, None]
        d = geo.geodesic_matrix(geo.knn_graph(pts, 1))
        assert d[0, 3] == 3.0

    def test_square_cycle(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        d = geo.geodesic_matrix(geo.knn_graph(pts, 2))
        assert d[0, 2] == 2.0 and d[1, 3] == 2.0

    def test_matches_floyd_warshall(self):
        # Weights are snapped to a dyadic grid so path sums are exact in
        # both algorithms; equality is then bit-exact, not tolerance-based.
        rng = np.random.default_rng(3)
        for n, k in ((40, 3), (120, 5), (200, 4)):
            pts = rng.normal(size=(n, 3))
            g = geo.knn_graph(pts, k)
            g.adjacency.data = np.ceil(g.adjacency.data * 1024.0) / 1024.0
            try:
                got = geo.geodesic_matrix(g)
            except ConnectivityError:
                continue
            expected = _floyd_warshall(g.adjacency.toarray())
            np.testing.assert_array_equal(got, expected)

    def test_disconnected_raises_with_node(self):
        pts = np.array([[0.0], [0.1], [100.0], [100.1]])
        g = geo.knn_graph(pts, 1)
        with pytest.raises(ConnectivityError, match="node"):
            geo.geodesic_matrix(g)

    def test_disconnected_names_first_unreachable_pair(self):
        rng = np.random.default_rng(8)
        pts = np.concatenate([rng.normal(size=(300, 2)), 50.0 + rng.normal(size=(40, 2))])[rng.permutation(340)]
        g = geo.knn_graph(pts, 4)
        i, j = np.argwhere(np.isinf(shortest_path(g.adjacency, method="D")))[0]
        with pytest.raises(ConnectivityError, match=f"node {j} unreachable from node {i}$"):
            geo.geodesic_matrix(g)

    def test_symmetric_zero_diagonal_dominates_euclidean(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(80, 2))
        d = geo.geodesic_matrix(geo.knn_graph(pts, 6))
        np.testing.assert_array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)
        euclid = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        assert np.all(d >= euclid - 1e-9)

    def test_one_way_search_matches_undirected(self):
        # lattices give many tied paths whose lengths round differently by
        # summation order; duplicates give points reached only through others
        rng = np.random.default_rng(5)
        grid2 = np.stack(np.meshgrid(np.arange(14.0), np.arange(11.0)), axis=-1).reshape(-1, 2)
        grid3 = np.stack(np.meshgrid(*[np.arange(6.0)] * 3), axis=-1).reshape(-1, 3)
        cloud = rng.normal(size=(150, 3))
        dup = np.concatenate([cloud, cloud[rng.choice(150, size=30)]])
        for pts, k in ((grid2, 4), (grid2, 8), (0.1 * grid3, 6), (dup, 5), (rng.normal(size=(300, 2)), 7)):
            g = geo.knn_graph(pts, k)
            d = shortest_path(g.adjacency, method="D", directed=False)
            np.testing.assert_array_equal(geo.geodesic_matrix(g), np.minimum(d, d.T))


class TestClassicalMds:
    def test_three_colinear_points(self):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        emb = geo.classical_mds(d, 1)
        np.testing.assert_allclose(np.abs(emb[:, 0]), [1.0, 0.0, 1.0], atol=1e-10)
        assert emb[0, 0] * emb[2, 0] < 0

    def test_embedding_centered(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(30, 2))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        emb = geo.classical_mds(d, 2)
        np.testing.assert_allclose(emb.mean(axis=0), [0.0, 0.0], atol=1e-10)

    def test_euclidean_distances_reproduced(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(25, 2))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        emb = geo.classical_mds(d, 2)
        d2 = np.linalg.norm(emb[:, None] - emb[None, :], axis=2)
        np.testing.assert_allclose(d2, d, atol=1e-8)

    def test_rank_error(self):
        # distances from 3 colinear points cannot support 2 positive eigenvalues
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        with pytest.raises(NumericError):
            geo.classical_mds(d, 2)


class TestIsomap:
    def test_composition_on_plane(self):
        rng = np.random.default_rng(7)
        pts = np.column_stack([rng.uniform(0, 3, 120), rng.uniform(0, 1, 120), np.zeros(120)])
        emb, d = geo.isomap(pts, 8, 2)
        d = squareform(d)
        assert emb.shape == (120, 2)
        np.testing.assert_array_equal(d, d.T)
        # flat data: geodesics approximately Euclidean, embedding preserves them
        d_emb = np.linalg.norm(emb[:, None] - emb[None, :], axis=2)
        mask = d > 0
        rel = np.abs(d_emb[mask] - d[mask]) / d[mask]
        assert np.median(rel) < 0.05

    def test_disconnection_recovers_by_doubling(self):
        pts = np.vstack([np.arange(5.0)[:, None], 100.0 + np.arange(5.0)[:, None]])
        emb, d = geo.isomap(pts, 1, 1)
        assert np.all(np.isfinite(d))
        assert emb.shape == (10, 1)

    def test_bit_identical_to_full_matrix_algebra(self):
        # 610 points: the symmetrising blocks of geodesic_matrix do not tile it
        pts = _circle_charts([610], seed=9)[0]
        emb, condensed = geo.isomap(pts, 10, 2)
        full = geo.geodesic_matrix(geo.knn_graph(pts, 10))
        assert squareform(condensed).tobytes() == full.tobytes()
        sq = full * full
        b = -0.5 * (sq - sq.mean(axis=1, keepdims=True) - sq.mean(axis=0, keepdims=True) + sq.mean())
        vals, vecs = scipy.linalg.eigh(b.copy(), subset_by_index=[608, 609])
        coords = vecs[:, ::-1] * np.sqrt(vals[::-1])
        for j in range(2):
            if coords[np.argmax(np.abs(coords[:, j])), j] < 0:
                coords[:, j] = -coords[:, j]
        assert emb.tobytes() == coords.tobytes()

    def test_memory_stays_under_three_square_matrices(self):
        m = 1200
        pts = _circle_charts([m], seed=10)[0]
        square = 8 * m * m
        tracemalloc.start()
        try:
            _, condensed = geo.isomap(pts, 10, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert condensed.nbytes == 8 * (m * (m - 1) // 2) < 0.5 * square
        assert peak < 3 * square


class TestCondensedBlock:
    @pytest.mark.parametrize("kind", ["random", "ends", "whole"])
    def test_matches_square_submatrix(self, kind):
        m = 301
        rng = np.random.default_rng(11)
        full = squareform(rng.uniform(0.5, 2.0, m * (m - 1) // 2))
        positions = {
            "random": rng.choice(m, size=64, replace=False),
            "ends": rng.permutation(np.concatenate([[0, m - 1], rng.choice(np.arange(1, m - 1), 30, replace=False)])),
            "whole": rng.permutation(m),
        }[kind]
        block = geo.condensed_block(squareform(full), m, positions)
        assert block.tobytes() == full[np.ix_(positions, positions)].tobytes()


def _circle_charts(sizes, seed=0):
    rng = np.random.default_rng(seed)
    charts = []
    for m in sizes:
        t = rng.uniform(0.0, 2.0 * np.pi, m)
        charts.append(np.column_stack([np.cos(t), np.sin(t), 0.05 * rng.normal(size=m)]))
    return charts


class TestIsomapCharts:
    def test_pool_matches_serial_bit_for_bit(self, monkeypatch, pool_pids):
        charts = _circle_charts([520, 700, 610])
        assert sum(len(c) ** 2 for c in charts) >= geo.POOL_MIN_PAIRS
        runs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("ATLASFLOW_THREADS", threads)
            runs[threads] = (geo.isomap_charts(charts, 10, 1), pool_pids()["isomap"])
        (serial, serial_pids), (pooled, pooled_pids) = runs["1"], runs["2"]
        assert serial_pids == {os.getpid()}
        assert pooled_pids and os.getpid() not in pooled_pids
        for (emb_s, d_s), (emb_p, d_p) in zip(serial, pooled, strict=True):
            assert emb_s.tobytes() == emb_p.tobytes()
            assert d_s.tobytes() == d_p.tobytes()

    def test_small_charts_stay_in_process(self, monkeypatch, pool_pids):
        monkeypatch.setenv("ATLASFLOW_THREADS", "2")
        geo.isomap_charts(_circle_charts([50, 60]), 10, 1)
        assert pool_pids()["isomap"] == {os.getpid()}
