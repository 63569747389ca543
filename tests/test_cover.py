import math
import tracemalloc

import numpy as np
import pytest

from atlasflow import cover as cov
from atlasflow import synth
from atlasflow.errors import CoverError, DegenerateLensError


class TestPcaLens:
    def test_colinear_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        lens = cov.pca_lens(pts)
        # oracle: eigendecomposition of the covariance gives direction
        # (1,1)/sqrt(2); centered projections are -sqrt(2), 0, sqrt(2)
        np.testing.assert_allclose(lens, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12)

    def test_one_dimensional_input(self):
        pts = np.array([[3.0], [5.0], [10.0]])
        lens = cov.pca_lens(pts)
        np.testing.assert_allclose(lens, pts[:, 0] - pts[:, 0].mean(), atol=1e-12)

    def test_translation_invariant(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(40, 3))
        a = cov.pca_lens(pts)
        b = cov.pca_lens(pts + np.array([5.0, -3.0, 11.0]))
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_degenerate(self):
        with pytest.raises(DegenerateLensError):
            cov.pca_lens(np.ones((5, 3)))


class TestIntervals:
    def test_stated_endpoints(self):
        lens = np.array([0.0, 10.0])
        ivals = cov.build_intervals(lens, 2, 0.2)
        np.testing.assert_allclose(ivals[0], (-0.5, 5.5), atol=1e-12)
        np.testing.assert_allclose(ivals[1], (4.5, 10.5), atol=1e-12)

    def test_zero_overlap_touching(self):
        ivals = cov.build_intervals(np.array([0.0, 10.0]), 2, 0.0)
        np.testing.assert_allclose(ivals[0], (0.0, 5.0), atol=1e-12)
        np.testing.assert_allclose(ivals[1], (5.0, 10.0), atol=1e-12)

    def test_union_covers_range(self):
        rng = np.random.default_rng(1)
        lens = rng.normal(size=200) * 4
        ivals = cov.build_intervals(lens, 7, 0.35)
        assert ivals[0][0] <= lens.min()
        assert ivals[-1][1] >= lens.max()
        for (la, ha), (lb, hb) in zip(ivals[:-1], ivals[1:]):
            assert lb < ha  # adjacent intervals overlap

    def test_adjacent_overlap_is_exact(self):
        lens = np.array([0.0, 10.0])
        s = 10.0 / 4
        ivals = cov.build_intervals(lens, 4, 0.3)
        for (la, ha), (lb, hb) in zip(ivals[:-1], ivals[1:]):
            np.testing.assert_allclose(ha - lb, 0.3 * s, atol=1e-12)

    def test_degenerate_lens(self):
        with pytest.raises(DegenerateLensError):
            cov.build_intervals(np.zeros(10), 3, 0.2)


def _brute_force_components(points, threshold):
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(points[i] - points[j]) <= threshold:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted([sorted(v) for v in groups.values()])


class TestSingleLinkage:
    def test_basic_split(self):
        pts = np.array([[0.0], [0.5], [3.0]])
        clusters = cov.single_linkage(pts, 1.0)
        assert [c.tolist() for c in clusters] == [[0, 1], [2]]

    def test_threshold_above_diameter(self):
        pts = np.random.default_rng(0).normal(size=(20, 2))
        clusters = cov.single_linkage(pts, 100.0)
        assert len(clusters) == 1 and clusters[0].size == 20

    def test_matches_union_find_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            pts = rng.uniform(0, 4, size=(60, 2))
            thr = rng.uniform(0.3, 1.0)
            clusters = cov.single_linkage(pts, thr)
            # already in oracle order: by smallest member, members sorted
            assert [c.tolist() for c in clusters] == _brute_force_components(pts, thr)
            assert all(c.dtype == np.int64 for c in clusters)

    def test_empty_and_single_point(self):
        assert cov.single_linkage(np.empty((0, 3)), 1.0) == []
        clusters = cov.single_linkage(np.array([[1.0, 2.0, 3.0]]), 1.0)
        assert [c.tolist() for c in clusters] == [[0]]

    def test_duplicate_points(self):
        pts = np.array([[5.0, 5.0], [0.0, 0.0], [5.0, 5.0], [0.0, 0.0], [9.0, 9.0]])
        clusters = cov.single_linkage(pts, 0.1)
        assert [c.tolist() for c in clusters] == [[0, 2], [1, 3], [4]]

    @pytest.mark.parametrize("budget", [1, 40, 1 << 17])
    def test_blocks_match_union_find_oracle(self, monkeypatch, budget):
        # a budget of 1 cuts a block per point
        monkeypatch.setattr(cov, "_LINKAGE_PAIRS", budget)
        rng = np.random.default_rng(6)
        clouds = [(rng.uniform(0, 3, size=(160, 2)), rng.uniform(0.1, 0.5)) for _ in range(3)]
        # a grid whose neighbours sit exactly at the threshold
        clouds.append((0.5 * rng.integers(0, 8, size=(120, 3)).astype(float), 0.5))
        for pts, thr in clouds:
            assert [c.tolist() for c in cov.single_linkage(pts, thr)] == _brute_force_components(pts, thr)

    @pytest.mark.parametrize("budget", [1, 7])
    @pytest.mark.parametrize("bridged", [True, False])
    def test_arms_joined_in_the_last_block(self, monkeypatch, budget, bridged):
        # two rows along x, 3 apart, met at x = 10 by a column: sorted along
        # x, the column's points come last, so the rows join only there
        monkeypatch.setattr(cov, "_LINKAGE_PAIRS", budget)
        x = np.arange(0.0, 10.0, 0.5)
        pts = [np.column_stack([x, np.zeros_like(x)]), np.column_stack([x, np.full_like(x, 3.0)])]
        if bridged:
            y = np.arange(0.0, 3.5, 0.5)
            pts.append(np.column_stack([np.full_like(y, 10.0), y]))
        pts = np.random.default_rng(8).permutation(np.vstack(pts))
        clusters = [c.tolist() for c in cov.single_linkage(pts, 0.6)]
        assert clusters == _brute_force_components(pts, 0.6)
        assert len(clusters) == (1 if bridged else 2)

    @pytest.mark.parametrize("a, b, expected", [
        # root 6 is the larger root of five pairs in one pass: one hook wins,
        # the other pairs go round again
        ([6, 6, 6, 6, 5], [1, 2, 3, 0, 6], [0, 0, 0, 0, 4, 0, 0]),
        # one pass hooks 4 -> 3 -> 2 -> 1 -> 0, a chain that takes two jumps
        ([4, 3, 2, 1], [3, 2, 1, 0], [0, 0, 0, 0, 0, 5, 6]),
        ([], [], [0, 1, 2, 3, 4, 5, 6]),
    ], ids=["hub", "chain", "no-pairs"])
    def test_join(self, a, b, expected):
        root = np.arange(7)
        cov._join(root, np.array(a, dtype=int), np.array(b, dtype=int))
        assert root.tolist() == expected

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("budget", [1, 7, 1 << 17])
    def test_random_clouds_match_union_find_oracle(self, monkeypatch, dim, budget):
        monkeypatch.setattr(cov, "_LINKAGE_PAIRS", budget)
        rng = np.random.default_rng(10 + dim)
        for _ in range(3):
            pts = rng.uniform(0, 3, size=(int(rng.integers(2, 150)), dim))
            thr = rng.uniform(0.05, 0.6) * dim
            assert [c.tolist() for c in cov.single_linkage(pts, thr)] == _brute_force_components(pts, thr)

    def test_memory_is_bounded_by_the_pair_budget(self, monkeypatch):
        # 2,000 points in a unit cube hold 1.8 M pairs within distance 1: 29 MB
        # as an int64 pair list, which the whole-list search traced twice over
        monkeypatch.setattr(cov, "_LINKAGE_PAIRS", 1 << 14)
        pts = np.random.default_rng(0).uniform(0, 1, size=(2000, 3))
        tracemalloc.start()
        try:
            clusters = cov.single_linkage(pts, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(clusters) == 1
        assert peak < 200 * cov._LINKAGE_PAIRS

    def test_pair_at_exact_threshold_links(self):
        # 0.5 is exact in binary, so the distance equals the threshold exactly
        pts = np.array([[0.0], [0.5], [1.0], [2.0]])
        clusters = cov.single_linkage(pts, 0.5)
        assert [c.tolist() for c in clusters] == [[0, 1, 2], [3]]
        assert [c.tolist() for c in cov.single_linkage(pts, np.nextafter(0.5, 0))] == [[0], [1], [2], [3]]


# Per-point loop versions of the cover functions, kept as references for the
# membership-mask implementations in atlasflow.cover.
def _oracle_membership(charts, n):
    membership = [[] for _ in range(n)]
    for k, chart in enumerate(charts):
        for i in chart:
            membership[i].append(k)
    return membership


def _oracle_refine_partition(charts, n):
    signatures = {}
    for i, owners in enumerate(_oracle_membership(charts, n)):
        signatures.setdefault(tuple(owners), []).append(i)
    return [(signatures[sig], sig, len(signatures[sig]) / n) for sig in sorted(signatures)]


def _oracle_partition_from_cover(charts, points):
    centroids = np.stack([points[c].mean(axis=0) for c in charts])
    labels = []
    for i, owners in enumerate(_oracle_membership(charts, len(points))):
        d = np.linalg.norm(centroids[owners] - points[i], axis=1)
        labels.append(owners[int(np.argmin(d))])
    return labels


def _oracle_nerve_edges(charts):
    sets = [set(c.tolist()) for c in charts]
    return {(i, j) for i in range(len(sets)) for j in range(i + 1, len(sets)) if sets[i] & sets[j]}


def _oracle_merge_small_charts(charts, points, min_size):
    charts = [np.array(sorted(set(c.tolist())), dtype=int) for c in charts]
    while len(charts) > 1:
        sizes = [c.size for c in charts]
        small = [k for k, sz in enumerate(sizes) if sz < min_size]
        if not small:
            break
        k = min(small, key=lambda i: (sizes[i], i))
        centroid = points[charts[k]].mean(axis=0)
        members = set(charts[k].tolist())
        neighbors = [j for j in range(len(charts)) if j != k and members & set(charts[j].tolist())]
        candidates = neighbors if neighbors else [j for j in range(len(charts)) if j != k]
        target = min(
            candidates,
            key=lambda j: (float(np.linalg.norm(points[charts[j]].mean(axis=0) - centroid)), j),
        )
        charts[target] = np.array(sorted(members | set(charts[target].tolist())), dtype=int)
        del charts[k]
    return charts


def _random_cover(rng, n=60, n_charts=7):
    """A cover of n grid points (many duplicates and centroid ties) by random
    charts of very uneven size, some below any useful min_size."""
    points = rng.integers(0, 3, size=(n, 2)).astype(float)
    owner = rng.integers(0, n_charts, size=n)
    charts = []
    for k in range(n_charts):
        extra = rng.choice(n, size=rng.integers(0, 4), replace=False)
        charts.append(np.union1d(np.flatnonzero(owner == k), extra))
    charts = [c for c in charts if c.size]
    return points, cov.ChartCover(n_points=n, charts=charts)


def _merged(charts, points, min_size):
    mask = cov._merge_small_charts(cov.ChartCover(len(points), charts).mask, points, min_size)
    return [np.flatnonzero(row).tolist() for row in mask]


class TestMaskFunctionsMatchLoopOracles:
    def test_random_covers(self):
        rng = np.random.default_rng(11)
        for trial in range(40):
            points, cover = _random_cover(rng, n=int(rng.integers(5, 80)), n_charts=int(rng.integers(1, 9)))
            want = _oracle_refine_partition(cover.charts, cover.n_points)
            got = cov.refine_partition(cover)
            assert [(idx.tolist(), sig, nu) for idx, sig, nu in got] == want
            labels = cov.partition_from_cover(cover, points)
            assert labels.tolist() == _oracle_partition_from_cover(cover.charts, points)
            assert cover.nerve_edges == _oracle_nerve_edges(cover.charts)
            owners = _oracle_membership(cover.charts, cover.n_points)
            assert cover.multiplicity.tolist() == [len(o) for o in owners]
            for min_size in (1, 4, 12):
                want = [c.tolist() for c in _oracle_merge_small_charts(cover.charts, points, min_size)]
                assert _merged(cover.charts, points, min_size) == want

    def test_centroid_distance_tie_goes_to_lowest_id(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
        for charts in ([np.array([0, 2]), np.array([1, 2])], [np.array([1, 2]), np.array([0, 2])]):
            cover = cov.ChartCover(n_points=3, charts=charts)
            # point 2 sits exactly halfway between the two centroids
            assert _oracle_partition_from_cover(charts, pts)[2] == 0
            assert cov.partition_from_cover(cover, pts)[2] == 0

    def test_merge_ties_by_size_then_distance(self):
        # charts 1 and 2 tie on size, and chart 1's neighbours 0 and 3 tie on
        # centroid distance; breaking either tie the other way changes the result
        pts = np.array([[3.0], [1.0], [4.0], [3.0], [3.0]])
        charts = [np.array([1, 2, 4]), np.array([2, 3]), np.array([0, 1]), np.array([1, 2, 4])]
        want = [c.tolist() for c in _oracle_merge_small_charts(charts, pts, 3)]
        assert want == [[1, 2, 3, 4], [0, 1, 2, 4]]
        assert _merged(charts, pts, 3) == want

    def test_small_chart_without_neighbour_falls_back_to_nearest(self):
        pts = np.array([[0.0], [1.0], [2.0], [5.0], [6.0], [7.0], [7.5]])
        charts = [np.array([0, 1, 2]), np.array([3, 4, 5]), np.array([6])]
        assert _oracle_nerve_edges(charts) == set()
        want = [c.tolist() for c in _oracle_merge_small_charts(charts, pts, 2)]
        assert want == [[0, 1, 2], [3, 4, 5, 6]]
        assert _merged(charts, pts, 2) == want


class TestMapperCover:
    def test_circle_nerve_is_single_cycle(self):
        rng = np.random.default_rng(2)
        theta = rng.uniform(0, 2 * math.pi, 1000)
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        cover = cov.mapper_cover(pts, cov.MapperConfig(4, 0.3, 0.3), n_latent=1)
        cover.validate()
        assert np.all(cover.multiplicity >= 1)
        edges = len(cover.nerve_edges)
        nodes = cover.n_charts
        # connected graph with cycle rank 1
        assert edges - nodes + 1 == 1

    def test_torus_chart_count(self):
        cloud = synth.gen_torus(synth.ManifoldSpec("torus", 10_000, 0.1, seed=0))
        cover = cov.mapper_cover(cloud.points, cov.MapperConfig(5, 0.45, 1.0), n_latent=2)
        assert cover.n_charts == 6

    def test_trefoil_chart_count(self):
        cloud = synth.gen_trefoil(synth.ManifoldSpec("trefoil", 10_000, 0.1, seed=0))
        cover = cov.mapper_cover(cloud.points, cov.MapperConfig(2, 0.2, 1.0), n_latent=1)
        assert cover.n_charts == 4

    def test_multiplicity_consistency(self):
        cloud = synth.gen_torus(synth.ManifoldSpec("torus", 3000, 0.1, seed=1))
        cover = cov.mapper_cover(cloud.points, cov.MapperConfig(5, 0.45, 1.0))
        assert cover.multiplicity.sum() == sum(c.size for c in cover.charts)

    def test_nerve_matches_brute_force(self):
        cloud = synth.gen_torus(synth.ManifoldSpec("torus", 2000, 0.1, seed=2))
        cover = cov.mapper_cover(cloud.points, cov.MapperConfig(5, 0.45, 1.0))
        sets = [set(c.tolist()) for c in cover.charts]
        expected = {
            (i, j)
            for i in range(len(sets))
            for j in range(i + 1, len(sets))
            if sets[i] & sets[j]
        }
        assert cover.nerve_edges == expected


class TestChartCover:
    def test_overlapping_charts_derive_nerve_and_multiplicity(self):
        cover = cov.ChartCover(4, [[0, 1, 2], [1, 2, 3]])
        assert cover.nerve_edges == {(0, 1)}
        assert cover.multiplicity.tolist() == [1, 2, 2, 1]
        assert cover.mask.tolist() == [[True, True, True, False], [False, True, True, True]]

    def test_index_outside_points_rejected(self):
        with pytest.raises(CoverError, match="chart 1 indexes a point outside 0..3"):
            cov.ChartCover(4, [[0, 1, 2], [3, 4]])


class TestRefinedPartition:
    def test_two_chart_example(self):
        cover = cov.ChartCover(n_points=4, charts=[np.array([0, 1, 2]), np.array([1, 2, 3])])
        cells = {sig: (idx.tolist(), nu) for idx, sig, nu in cov.refine_partition(cover)}
        assert cells[(0,)] == ([0], 0.25)
        assert cells[(1,)] == ([3], 0.25)
        assert cells[(0, 1)] == ([1, 2], 0.5)

    def test_disjoint_charts(self):
        cover = cov.ChartCover(n_points=5, charts=[np.array([0, 1]), np.array([2, 3, 4])])
        cells = cov.refine_partition(cover)
        assert len(cells) == 2
        assert all(len(sig) == 1 for _, sig, _ in cells)

    def test_nu_sums_to_one(self):
        cloud = synth.gen_torus(synth.ManifoldSpec("torus", 2000, 0.1, seed=3))
        cover = cov.mapper_cover(cloud.points, cov.MapperConfig(5, 0.45, 1.0))
        assert abs(sum(nu for *_, nu in cov.refine_partition(cover)) - 1.0) < 1e-12

    def test_uncovered_point_rejected(self):
        cover = cov.ChartCover(n_points=3, charts=[np.array([0, 1])])
        with pytest.raises(CoverError, match="point 2 is not covered"):
            cov.refine_partition(cover)


class TestPartitionFromCover:
    def test_unique_membership(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        cover = cov.ChartCover(n_points=3, charts=[np.array([0, 1]), np.array([2])])
        labels = cov.partition_from_cover(cover, pts)
        np.testing.assert_array_equal(labels, [0, 0, 1])

    def test_overlap_resolved_by_centroid(self):
        pts = np.array([[0.0], [1.0], [10.0], [4.0]])
        cover = cov.ChartCover(n_points=4, charts=[np.array([0, 1, 3]), np.array([2, 3])])
        labels = cov.partition_from_cover(cover, pts)
        # chart 0 centroid ~1.67, chart 1 centroid 7; point 3 at 4.0 is nearer chart 0
        assert labels[3] == 0

    def test_labels_partition_everything(self):
        cloud = synth.gen_torus(synth.ManifoldSpec("torus", 2000, 0.1, seed=4))
        cover = cov.mapper_cover(cloud.points, cov.MapperConfig(5, 0.45, 1.0))
        labels = cov.partition_from_cover(cover, cloud.points)
        assert labels.min() >= 0 and labels.max() < cover.n_charts
        sizes = np.bincount(labels, minlength=cover.n_charts)
        assert sizes.sum() == cover.n_points
        part_cover = cov.partition_cover(cover, cloud.points)
        assert part_cover.nerve_edges == set()
        assert np.all(part_cover.multiplicity == 1)


class TestCoverIO:
    def test_round_trip(self, tmp_path):
        cloud = synth.gen_torus(synth.ManifoldSpec("torus", 1500, 0.1, seed=5))
        cover = cov.mapper_cover(cloud.points, cov.MapperConfig(5, 0.45, 1.0))
        path = tmp_path / "cover.json"
        cov.save_cover(cover, path)
        back = cov.load_cover(path)
        assert back.n_charts == cover.n_charts
        for a, b in zip(back.charts, cover.charts):
            np.testing.assert_array_equal(a, b)
        assert back.nerve_edges == cover.nerve_edges
        np.testing.assert_array_equal(back.multiplicity, cover.multiplicity)

    def test_version_mismatch(self, tmp_path):
        import json

        path = tmp_path / "cover.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(CoverError, match="format_version"):
            cov.load_cover(path)
