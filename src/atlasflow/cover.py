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
# Pairs single_linkage holds at a time.  On the 3,900-point lens intervals of
# a 7,000-point trefoil (threshold 1, ~1.1 M pairs), the whole pair list took
# 0.20 s and 53 MB; in blocks of this many it takes 0.13 s and ~15 MB.  Smaller
# intervals fit in one block, as the whole list did.
_LINKAGE_PAIRS = 1 << 17


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
    """Charts as member index sets over points ``0..n_points-1``.

    The charts are the cover's one membership record.  Everything else is
    derived from them once, at construction: ``mask``, the (L, N) boolean
    membership matrix; ``multiplicity``, the number of charts holding each
    point; and ``nerve_edges``, the pairs i < j of charts sharing a point.
    """

    n_points: int
    charts: list[np.ndarray]
    mask: np.ndarray = field(init=False, repr=False)
    multiplicity: np.ndarray = field(init=False, repr=False)
    nerve_edges: set[tuple[int, int]] = field(init=False)

    def __post_init__(self):
        self.charts = [np.asarray(c, dtype=int) for c in self.charts]
        self.mask = np.zeros((len(self.charts), self.n_points), dtype=bool)
        for k, chart in enumerate(self.charts):
            if chart.size and (chart.min() < 0 or chart.max() >= self.n_points):
                raise CoverError(f"chart {k} indexes a point outside 0..{self.n_points - 1}")
            self.mask[k, chart] = True
        self.multiplicity = self.mask.sum(axis=0)
        shared = np.triu(self.mask.astype(float) @ self.mask.T > 0, k=1)  # float: the product runs in BLAS
        self.nerve_edges = {(int(i), int(j)) for i, j in zip(*np.nonzero(shared))}

    @property
    def n_charts(self) -> int:
        return len(self.charts)

    def validate(self) -> None:
        """Reject a cover with no charts or with a point no chart holds."""
        if self.n_charts == 0:
            raise CoverError("cover has no charts")
        uncovered = np.flatnonzero(self.multiplicity == 0)
        if uncovered.size:
            raise CoverError(f"point {uncovered[0]} is not covered by any chart")


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


def _components(n: int, a: np.ndarray, b: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of the n-node graph with edges (a[i], b[i])."""
    return connected_components(coo_matrix((np.ones(len(a), dtype=bool), (a, b)), shape=(n, n)), directed=False)


def _spanning_forest(n: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edges with the components of :func:`_components`, at most one per
    node: each node to one node of its component."""
    n_components, labels = _components(n, a, b)
    root = np.empty(n_components, dtype=np.intp)
    root[labels] = np.arange(n)
    to = root[labels]
    linked = np.flatnonzero(to != np.arange(n))
    return linked, to[linked]


def single_linkage(points: np.ndarray, threshold: float) -> list[np.ndarray]:
    """Connected components of the <=threshold pair graph (single-linkage cut).

    Clusters come back ordered by smallest member index, members sorted.

    The pair graph is never held whole.  The points are sorted along their
    widest axis and taken in blocks; a block's pairs are those among its
    points and those with the later points within ``threshold`` along that
    axis.  A point has no more pairs with later points than there are later
    points within ``threshold`` along the axis, so each block is cut to hold
    at most ``_LINKAGE_PAIRS`` pairs by that count, and once more than
    ``_LINKAGE_PAIRS`` pairs are held they are replaced by a spanning forest
    of the graph so far.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    if n == 0:
        return []
    axis = int(np.argmax(np.ptp(points, axis=0)))
    order = np.argsort(points[:, axis], kind="stable")
    points = points[order]
    coord = points[:, axis]
    # reach[i]: one past the last point within threshold of point i along the
    # axis; the margin covers the rounding of the sum and of the tree's distances
    limit = coord + threshold
    reach = np.searchsorted(coord, limit + 1e-9 * (threshold + np.abs(limit)), side="right")
    bound = np.cumsum(reach - np.arange(1, n + 1))
    sources, targets, held = [], [], 0
    start = 0
    while start < n:
        before = bound[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(bound, before + _LINKAGE_PAIRS, side="right")))
        end = reach[stop - 1]
        tree = cKDTree(points[start:stop])
        pairs = tree.query_pairs(r=threshold, output_type="ndarray") + start
        sources.append(pairs[:, 0])
        targets.append(pairs[:, 1])
        held += len(pairs)
        if end > stop:
            later = tree.sparse_distance_matrix(cKDTree(points[stop:end]), threshold, output_type="ndarray")
            sources.append(later["i"] + start)
            targets.append(later["j"] + stop)
            held += len(later)
        if held > _LINKAGE_PAIRS:
            a, b = _spanning_forest(n, np.concatenate(sources), np.concatenate(targets))
            sources, targets, held = [a], [b], len(a)
        start = stop
    n_clusters, sorted_labels = _components(n, np.concatenate(sources), np.concatenate(targets))
    labels = np.empty(n, dtype=int)
    labels[order] = sorted_labels
    first = np.full(n_clusters, n)
    np.minimum.at(first, labels, np.arange(n))
    rank = np.empty(n_clusters, dtype=int)
    rank[np.argsort(first)] = np.arange(n_clusters)
    labels = rank[labels]
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels))[:-1])


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

    mask = _merge_small_charts(ChartCover(n, charts).mask, points, min_size=n_latent + 2)
    cover = ChartCover(n_points=n, charts=[np.flatnonzero(row) for row in mask])
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


def refine_partition(cover: ChartCover) -> list[tuple[np.ndarray, tuple[int, ...], float]]:
    """Group points by exact chart-membership signature.

    Each signature is one cell ``(indices, signature, nu)`` with
    nu = |cell| / N; cells come sorted by signature.
    """
    cover.validate()
    mask = cover.mask
    n = mask.shape[1]
    # a stable sort of the columns puts equal signatures in runs of ascending index
    order = np.lexsort(mask)
    breaks = np.flatnonzero((mask[:, order[1:]] != mask[:, order[:-1]]).any(axis=0)) + 1
    cells = []
    for idx in np.split(order, breaks):
        sig = tuple(np.flatnonzero(mask[:, idx[0]]).tolist())
        cells.append((idx, sig, idx.size / n))
    return sorted(cells, key=lambda cell: cell[1])


def partition_from_cover(cover: ChartCover, points: np.ndarray) -> np.ndarray:
    """Hard chart assignment: unique membership wins, else nearest chart centroid.

    Ties break toward the lowest chart id.  ``points`` are the N points the
    cover indexes; the result partitions {0..N-1}.
    """
    points = np.asarray(points, dtype=float)
    if points.shape[0] != cover.n_points:
        raise CoverError(f"cover indexes {cover.n_points} points, not {points.shape[0]}")
    cover.validate()
    centroids = np.stack([points[c].mean(axis=0) for c in cover.charts])
    dist = np.linalg.norm(centroids[None, :, :] - points[:, None, :], axis=2)
    return np.argmin(np.where(cover.mask.T, dist, np.inf), axis=1)


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
    return ChartCover(n_points=cover.n_points, charts=charts)


class _Malformed(ValueError):
    """A JSON entry that cannot be decoded, with the key path leading to it."""

    def __init__(self, keys: list, reason: str):
        super().__init__(reason)
        self.keys = keys

    def __str__(self) -> str:
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in self.keys).lstrip(".")
        return f"{where}: {self.args[0]}" if where else self.args[0]


def _decode(obj, key, fn):
    """``fn(obj[key])``; any failure becomes :class:`_Malformed` naming the key path."""
    try:
        value = obj[key]
    except (KeyError, IndexError):
        raise _Malformed([], f"missing key {key!r}") from None
    except TypeError:
        raise _Malformed([], f"{type(obj).__name__} has no key {key!r}") from None
    try:
        return fn(value)
    except _Malformed as exc:
        exc.keys.insert(0, key)
        raise
    except (LookupError, TypeError, ValueError, CoverError) as exc:
        raise _Malformed([key], str(exc)) from exc


def _each(fn):
    """Decoder of a list whose items all decode with ``fn``."""
    return lambda items: [_decode(items, i, fn) for i in range(len(items))]


def _indices(v) -> np.ndarray:
    a = np.asarray(v)
    if a.ndim != 1:
        raise ValueError(f"expected a flat list of indices, got {a.ndim}-D")
    if a.size and a.dtype.kind != "i":
        raise ValueError(f"expected integer indices, got {a.dtype} values")
    return a.astype(int)


def cover_to_dict(cover: ChartCover) -> dict:
    """The cover's JSON fields; the nerve and multiplicity are written for
    readers, and :func:`cover_from_dict` checks them against the charts."""
    return {
        "n_points": cover.n_points,
        "charts": [c.tolist() for c in cover.charts],
        "nerve_edges": sorted(list(e) for e in cover.nerve_edges),
        "multiplicity": cover.multiplicity.tolist(),
    }


def cover_from_dict(payload) -> ChartCover:
    """Inverse of :func:`cover_to_dict`.  Raises :class:`_Malformed` naming
    the key path, or :class:`CoverError` for charts that index outside the
    points or leave a point uncovered."""
    cover = ChartCover(
        n_points=_decode(payload, "n_points", int),
        charts=_decode(payload, "charts", _each(_indices)),
    )
    cover.validate()
    if _decode(payload, "nerve_edges", lambda edges: {tuple(e) for e in edges}) != cover.nerve_edges:
        raise _Malformed(["nerve_edges"], "disagrees with the charts")
    if not np.array_equal(_decode(payload, "multiplicity", _indices), cover.multiplicity):
        raise _Malformed(["multiplicity"], "disagrees with the charts")
    return cover


def save_cover(cover: ChartCover, path) -> None:
    payload = {
        "format_version": COVER_FORMAT_VERSION,
        **cover_to_dict(cover),
        "cells": [
            {"signature": list(sig), "indices": idx.tolist(), "nu": nu}
            for idx, sig, nu in refine_partition(cover)
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
        return cover_from_dict(payload)
    except (ValueError, CoverError) as exc:
        raise CoverError(f"{path}: {exc}") from exc
