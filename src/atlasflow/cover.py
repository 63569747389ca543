"""Overlapping chart covers via Mapper.

The pipeline: a 1-D PCA lens, an overlapping interval cover of the lens
range, single-linkage clustering of each interval preimage, and the nerve of
the resulting clusters.  Each cluster is one chart.  The refined partition
(group points by their exact chart-membership signature) carries the cell
probabilities used by the disintegration weights, and a hard-partition
baseline is derived from the same cover for comparison experiments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import CoverError, DegenerateLensError

COVER_FORMAT_VERSION = 1


@dataclass
class MapperConfig:
    n_cubes: int = 5
    perc_overlap: float = 0.45
    linkage_threshold: float = 1.0
    lens: str = "pca1"

    def __post_init__(self):
        if self.n_cubes < 1:
            raise ValueError("n_cubes must be >= 1")
        if not 0.0 <= self.perc_overlap < 1.0:
            raise ValueError("perc_overlap must lie in [0, 1)")
        if self.linkage_threshold <= 0:
            raise ValueError("linkage_threshold must be positive")
        if self.lens != "pca1":
            raise ValueError(f"unknown lens {self.lens!r}")


@dataclass
class ChartCover:
    """Charts as member index sets, plus nerve edges and per-point multiplicity."""

    n_points: int
    charts: list[np.ndarray]
    nerve_edges: set[tuple[int, int]] = field(default_factory=set)
    multiplicity: np.ndarray | None = None

    def __post_init__(self):
        self.charts = [np.asarray(c, dtype=int) for c in self.charts]
        if self.multiplicity is None:
            self.multiplicity = self._compute_multiplicity()
        else:
            self.multiplicity = np.asarray(self.multiplicity, dtype=int)

    def _compute_multiplicity(self) -> np.ndarray:
        m = np.zeros(self.n_points, dtype=int)
        for chart in self.charts:
            m[chart] += 1
        return m

    @property
    def n_charts(self) -> int:
        return len(self.charts)

    def membership_mask(self) -> np.ndarray:
        """(L, N) boolean membership matrix."""
        mask = np.zeros((self.n_charts, self.n_points), dtype=bool)
        for k, chart in enumerate(self.charts):
            mask[k, chart] = True
        return mask

    def validate(self) -> None:
        if self.n_charts == 0:
            raise CoverError("cover has no charts")
        for k, chart in enumerate(self.charts):
            if chart.size and (chart.min() < 0 or chart.max() >= self.n_points):
                raise CoverError(f"chart {k} indexes a point outside 0..{self.n_points - 1}")
        m = self._compute_multiplicity()
        if np.any(m < 1):
            missing = int(np.flatnonzero(m < 1)[0])
            raise CoverError(f"point {missing} is not covered by any chart")
        if not np.array_equal(m, self.multiplicity):
            raise CoverError("stored multiplicity disagrees with charts")


@dataclass
class RefinedPartition:
    """Cells of the signature partition with their counts and probabilities.

    Each cell is the set of points lying in exactly one chart-membership
    signature; ``owners`` is that signature, ``n_owner = len(owners)`` and
    ``nu = |cell| / N``.
    """

    cells: list[tuple[np.ndarray, tuple[int, ...], int, float]]

    @property
    def n_cells(self) -> int:
        return len(self.cells)


def pca_lens(points: np.ndarray) -> np.ndarray:
    """Projection of centered points onto the top principal direction.

    The direction's sign is fixed so its largest-magnitude loading is
    positive, which keeps runs reproducible.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 2:
        raise ValueError("need at least two points for a PCA lens")
    centered = points - points.mean(axis=0)
    if not np.any(centered):
        raise DegenerateLensError("all points identical; PCA lens undefined")
    # top right-singular vector == top covariance eigenvector
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    direction = vt[0]
    pivot = np.argmax(np.abs(direction))
    if direction[pivot] < 0:
        direction = -direction
    return centered @ direction


def build_intervals(lens: np.ndarray, n_cubes: int, perc_overlap: float) -> list[tuple[float, float]]:
    """Overlapping intervals covering [min(lens), max(lens)].

    With step s = range / n_cubes, interval j is centered at lo + (j + 1/2) s
    with width s (1 + perc_overlap), so adjacent intervals overlap by exactly
    perc_overlap * s.
    """
    lens = np.asarray(lens, dtype=float)
    lo, hi = float(lens.min()), float(lens.max())
    if hi <= lo:
        raise DegenerateLensError("lens range is empty")
    s = (hi - lo) / n_cubes
    half = 0.5 * perc_overlap * s
    # one shared edge sequence, so at zero overlap adjacent intervals touch
    # exactly (no floating-point crack) and every lens value stays covered
    edges = [lo + j * s for j in range(n_cubes + 1)]
    edges[0] = lo
    edges[-1] = hi
    return [(edges[j] - half, edges[j + 1] + half) for j in range(n_cubes)]


def single_linkage(points: np.ndarray, threshold: float) -> list[np.ndarray]:
    """Connected components of the <=threshold pair graph (single-linkage cut).

    Clusters come back ordered by smallest member index, members sorted.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    if n == 0:
        return []
    pairs = cKDTree(points).query_pairs(r=threshold, output_type="ndarray")
    graph = coo_matrix((np.ones(len(pairs), dtype=bool), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    n_clusters, labels = connected_components(graph, directed=False)
    first = np.full(n_clusters, n)
    np.minimum.at(first, labels, np.arange(n))
    rank = np.empty(n_clusters, dtype=int)
    rank[np.argsort(first)] = np.arange(n_clusters)
    labels = rank[labels]
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels))[:-1])


def _nerve_edges(mask: np.ndarray) -> set[tuple[int, int]]:
    """Pairs i < j of charts (rows of an (L, N) membership mask) sharing a point."""
    shared = np.triu(mask.astype(float) @ mask.T > 0, k=1)  # float: the product runs in BLAS
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(shared))}


def mapper_cover(points: np.ndarray, config: MapperConfig, n_latent: int = 2) -> ChartCover:
    """Run the full Mapper pipeline and return an overlapping chart cover.

    Charts smaller than ``n_latent + 2`` points cannot support a coordinate
    map and are merged into their nearest (by centroid) nerve-neighbor chart.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    lens = pca_lens(points)
    intervals = build_intervals(lens, config.n_cubes, config.perc_overlap)

    charts: list[np.ndarray] = []
    for lo, hi in intervals:
        members = np.flatnonzero((lens >= lo) & (lens <= hi))
        if members.size == 0:
            continue
        for cluster in single_linkage(points[members], config.linkage_threshold):
            charts.append(members[cluster])
    if not charts:
        raise CoverError("Mapper produced no charts")

    mask = _merge_small_charts(ChartCover(n, charts).membership_mask(), points, min_size=n_latent + 2)
    cover = ChartCover(n_points=n, charts=[np.flatnonzero(row) for row in mask], nerve_edges=_nerve_edges(mask))
    cover.validate()
    return cover


def _merge_small_charts(mask: np.ndarray, points: np.ndarray, min_size: int) -> np.ndarray:
    """Fold each chart below ``min_size`` into its nearest-centroid neighbour.

    ``mask`` is the (L, N) membership matrix.  The smallest chart goes first
    (ties to the lowest id); its target is the nerve neighbour, or failing
    any, the other chart, with the nearest centroid (ties to the lowest id).
    """
    while mask.shape[0] > 1:
        sizes = mask.sum(axis=1)
        small = np.flatnonzero(sizes < min_size)
        if small.size == 0:
            break
        k = small[np.argmin(sizes[small])]
        others = np.delete(np.arange(mask.shape[0]), k)
        neighbors = others[(mask[others] & mask[k]).any(axis=1)]
        candidates = neighbors if neighbors.size else others
        centroid = points[mask[k]].mean(axis=0)
        dist = [np.linalg.norm(points[mask[j]].mean(axis=0) - centroid) for j in candidates]
        mask[candidates[np.argmin(dist)]] |= mask[k]
        mask = np.delete(mask, k, axis=0)
    return mask


def _covering_mask(cover: ChartCover, n_points: int | None = None) -> np.ndarray:
    """The cover's (L, N) membership mask; every point must be in some chart."""
    if n_points is not None and n_points != cover.n_points:
        raise CoverError(f"cover indexes {cover.n_points} points, not {n_points}")
    mask = cover.membership_mask()
    uncovered = np.flatnonzero(~mask.any(axis=0))
    if uncovered.size:
        raise CoverError(f"point {uncovered[0]} is not covered by any chart")
    return mask


def refine_partition(cover: ChartCover, n_points: int | None = None) -> RefinedPartition:
    """Group points by exact chart-membership signature.

    Each signature is one cell with nu = |cell| / N and n_owner the number
    of charts in the signature.  ``n_points``, when given, must equal N.
    """
    mask = _covering_mask(cover, n_points)
    n = mask.shape[1]
    # a stable sort of the columns puts equal signatures in runs of ascending index
    order = np.lexsort(mask)
    breaks = np.flatnonzero((mask[:, order[1:]] != mask[:, order[:-1]]).any(axis=0)) + 1
    cells = []
    for idx in np.split(order, breaks):
        sig = tuple(np.flatnonzero(mask[:, idx[0]]).tolist())
        cells.append((idx, sig, len(sig), idx.size / n))
    return RefinedPartition(cells=sorted(cells, key=lambda cell: cell[1]))


def partition_from_cover(cover: ChartCover, points: np.ndarray) -> np.ndarray:
    """Hard chart assignment: unique membership wins, else nearest chart centroid.

    Ties break toward the lowest chart id.  ``points`` are the N points the
    cover indexes; the result partitions {0..N-1}.
    """
    points = np.asarray(points, dtype=float)
    mask = _covering_mask(cover, points.shape[0])
    centroids = np.stack([points[c].mean(axis=0) for c in cover.charts])
    dist = np.linalg.norm(centroids[None, :, :] - points[:, None, :], axis=2)
    return np.argmin(np.where(mask.T, dist, np.inf), axis=1)


def partition_cover(cover: ChartCover, points: np.ndarray) -> ChartCover:
    """Disjoint cover induced by :func:`partition_from_cover` labels.

    Chart ids are preserved; charts whose points were all reassigned
    elsewhere keep an empty slot only if truly empty, which ``validate``
    rejects -- in practice every chart retains its exclusive points.
    """
    labels = partition_from_cover(cover, points)
    charts = [np.flatnonzero(labels == k) for k in range(cover.n_charts)]
    if any(c.size == 0 for c in charts):
        raise CoverError("partition baseline produced an empty chart")
    return ChartCover(n_points=cover.n_points, charts=charts, nerve_edges=set())


def save_cover(cover: ChartCover, path) -> None:
    partition = refine_partition(cover)
    payload = {
        "format_version": COVER_FORMAT_VERSION,
        "n_points": cover.n_points,
        "charts": [c.tolist() for c in cover.charts],
        "nerve_edges": sorted(list(e) for e in cover.nerve_edges),
        "multiplicity": cover.multiplicity.tolist(),
        "cells": [
            {"signature": list(sig), "indices": idx.tolist(), "nu": nu}
            for idx, sig, _, nu in partition.cells
        ],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(payload))


def load_cover(path) -> ChartCover:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise CoverError(f"{path}: cannot read cover: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise CoverError(f"{path}: parse error at byte {exc.pos}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise CoverError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    if not isinstance(payload, dict):
        raise CoverError(f"{path}: not a cover file")
    version = payload.get("format_version")
    if version != COVER_FORMAT_VERSION:
        raise CoverError(f"{path}: unsupported cover format_version {version!r}")
    try:
        cover = ChartCover(
            n_points=int(payload["n_points"]),
            charts=[np.asarray(c, dtype=int) for c in payload["charts"]],
            nerve_edges={tuple(e) for e in payload["nerve_edges"]},
            multiplicity=np.asarray(payload["multiplicity"], dtype=int),
        )
        cover.validate()
    except KeyError as exc:
        raise CoverError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError, IndexError) as exc:
        raise CoverError(f"{path}: malformed cover: {exc}") from exc
    except CoverError as exc:
        raise CoverError(f"{path}: {exc}") from exc
    return cover
