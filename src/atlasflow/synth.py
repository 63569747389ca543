"""Synthetic manifold datasets and a KDE reference density.

Two families are provided: a trefoil knot (1-manifold in R^3) and a torus
(2-manifold in R^3).  Curve/surface parameters are drawn from a Gaussian
mixture, wrapped into [0, 2pi), and isotropic Gaussian noise is added in
ambient space.  ``kde_density`` gives a model-free density estimate used to
score generated samples against training samples.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

TWO_PI = 2.0 * math.pi

# Parameter-space mixtures from the experimental setup: the knot uses two
# components at 0 and pi (std pi/6); the torus uses four components per
# parameter with means drawn uniformly on [-pi, pi] (std pi/3).
TREFOIL_GMM = ((0.0, math.pi / 6.0, 0.5), (math.pi, math.pi / 6.0, 0.5))
TORUS_GMM_COMPONENTS = 4
TORUS_GMM_STD = math.pi / 3.0
DEFAULT_NOISE_SIGMA = 0.1


@dataclass
class ManifoldSpec:
    """Recipe for one synthetic dataset.

    ``gmm`` is a list of ``(mean, std, weight)`` components for the
    generating parameter(s); ``None`` selects the per-manifold default.
    Weights are normalized to sum to 1.
    """

    kind: str
    n_points: int
    noise_sigma: float = DEFAULT_NOISE_SIGMA
    gmm: list[tuple[float, float, float]] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("trefoil", "torus"):
            raise ConfigError(f"unknown manifold kind {self.kind!r}; valid: trefoil, torus")
        if self.n_points < 1:
            raise ConfigError("n_points must be >= 1")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")
        if self.gmm is not None:
            for mean, std, weight in self.gmm:
                if std <= 0:
                    raise ConfigError(f"GMM component std must be positive, got {std}")
                if weight <= 0:
                    raise ConfigError(f"GMM component weight must be positive, got {weight}")


@dataclass
class PointCloud:
    """N points in R^d, optionally with the parameters that generated them."""

    points: np.ndarray
    params: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2:
            raise ValueError("points must be an (N, d) array")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points contain non-finite entries")
        if self.params is not None:
            self.params = np.asarray(self.params, dtype=float)
            if self.params.shape[0] != self.points.shape[0]:
                raise ValueError("params row count differs from points")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _sample_gmm(rng: np.random.Generator, gmm, size: int) -> np.ndarray:
    """Draw from a 1-D Gaussian mixture and wrap into [0, 2pi)."""
    means = np.array([c[0] for c in gmm])
    stds = np.array([c[1] for c in gmm])
    weights = np.array([c[2] for c in gmm], dtype=float)
    weights = weights / weights.sum()
    comp = rng.choice(len(gmm), size=size, p=weights)
    draws = rng.normal(means[comp], stds[comp])
    return np.mod(draws, TWO_PI)


def trefoil_curve(t: np.ndarray) -> np.ndarray:
    """Noiseless trefoil knot: (sin t + 3 sin 2t, cos t - 3 cos 2t, -sin 3t)."""
    t = np.asarray(t, dtype=float)
    return np.stack(
        [
            np.sin(t) + 3.0 * np.sin(2.0 * t),
            np.cos(t) - 3.0 * np.cos(2.0 * t),
            -np.sin(3.0 * t),
        ],
        axis=-1,
    )


def torus_surface(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Noiseless torus: ((cos t + 3) cos s, (cos t + 3) sin s, sin t)."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    r = np.cos(t) + 3.0
    return np.stack([r * np.cos(s), r * np.sin(s), np.sin(t)], axis=-1)


def torus_surface_distance(points: np.ndarray) -> np.ndarray:
    """Distance from each point to the ideal torus, via the implicit equation.

    The torus is the zero set of (sqrt(x^2+y^2) - 3)^2 + z^2 = 1; the distance
    from a point to the surface is |sqrt((rho-3)^2 + z^2) - 1| with
    rho = sqrt(x^2+y^2).
    """
    points = np.asarray(points, dtype=float)
    rho = np.hypot(points[..., 0], points[..., 1])
    return np.abs(np.hypot(rho - 3.0, points[..., 2]) - 1.0)


def trefoil_curve_distance(points: np.ndarray, resolution: int = 20000) -> np.ndarray:
    """Distance from each point to the ideal trefoil via dense curve sampling."""
    ts = np.linspace(0.0, TWO_PI, resolution, endpoint=False)
    curve = trefoil_curve(ts)
    points = np.asarray(points, dtype=float)
    out = np.empty(points.shape[0])
    # chunked to keep the (chunk, resolution) distance matrix small
    step = 256
    for lo in range(0, points.shape[0], step):
        chunk = points[lo : lo + step]
        d2 = ((chunk[:, None, :] - curve[None, :, :]) ** 2).sum(axis=2)
        out[lo : lo + step] = np.sqrt(d2.min(axis=1))
    return out


def gen_trefoil(spec: ManifoldSpec) -> PointCloud:
    """Sample a noisy trefoil knot; params column stores the curve parameter t."""
    if spec.kind != "trefoil":
        raise ConfigError(f"gen_trefoil called with kind {spec.kind!r}")
    rng = np.random.default_rng(spec.seed)
    gmm = spec.gmm if spec.gmm is not None else list(TREFOIL_GMM)
    t = _sample_gmm(rng, gmm, spec.n_points)
    pts = trefoil_curve(t)
    if spec.noise_sigma > 0:
        pts = pts + rng.normal(0.0, spec.noise_sigma, size=pts.shape)
    return PointCloud(points=pts, params=t[:, None])


def gen_torus(spec: ManifoldSpec) -> PointCloud:
    """Sample a noisy torus; params columns store (t, s).

    With ``gmm=None`` each parameter gets its own four-component mixture whose
    means are drawn uniformly on [-pi, pi] from the dataset seed.  A supplied
    ``gmm`` is used for both parameters.
    """
    if spec.kind != "torus":
        raise ConfigError(f"gen_torus called with kind {spec.kind!r}")
    rng = np.random.default_rng(spec.seed)
    if spec.gmm is not None:
        gmm_t = gmm_s = spec.gmm
    else:
        means_t = rng.uniform(-math.pi, math.pi, TORUS_GMM_COMPONENTS)
        means_s = rng.uniform(-math.pi, math.pi, TORUS_GMM_COMPONENTS)
        w = 1.0 / TORUS_GMM_COMPONENTS
        gmm_t = [(m, TORUS_GMM_STD, w) for m in means_t]
        gmm_s = [(m, TORUS_GMM_STD, w) for m in means_s]
    t = _sample_gmm(rng, gmm_t, spec.n_points)
    s = _sample_gmm(rng, gmm_s, spec.n_points)
    pts = torus_surface(t, s)
    if spec.noise_sigma > 0:
        pts = pts + rng.normal(0.0, spec.noise_sigma, size=pts.shape)
    return PointCloud(points=pts, params=np.stack([t, s], axis=1))


def generate(spec: ManifoldSpec) -> PointCloud:
    """Dispatch on ``spec.kind``."""
    if spec.kind == "trefoil":
        return gen_trefoil(spec)
    return gen_torus(spec)


def scott_bandwidth(reference: np.ndarray) -> np.ndarray:
    """Scott's rule per dimension: n^(-1/(d+4)) times the per-axis std."""
    reference = np.asarray(reference, dtype=float)
    n, d = reference.shape
    factor = n ** (-1.0 / (d + 4))
    std = reference.std(axis=0, ddof=1) if n > 1 else np.ones(d)
    std = np.where(std > 0, std, 1.0)
    return factor * std


def kde_density(
    reference: PointCloud | np.ndarray,
    queries: np.ndarray,
    bandwidth: float | np.ndarray | None = None,
) -> np.ndarray:
    """Gaussian-kernel density estimate at each query point.

    Each kernel is a (possibly per-axis) Gaussian normalized to integrate
    to 1, so the estimate itself integrates to 1.  ``bandwidth`` may be a
    scalar, a per-axis vector, or ``None`` for Scott's rule.
    """
    ref = reference.points if isinstance(reference, PointCloud) else np.asarray(reference, dtype=float)
    if ref.ndim != 2 or ref.shape[0] == 0:
        raise ValueError("reference cloud must contain at least one point")
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if queries.shape[1] != ref.shape[1]:
        raise ValueError(f"query dim {queries.shape[1]} != reference dim {ref.shape[1]}")
    n, d = ref.shape
    if bandwidth is None:
        h = scott_bandwidth(ref)
    else:
        h = np.broadcast_to(np.asarray(bandwidth, dtype=float), (d,)).copy()
    if np.any(h <= 0):
        raise ValueError("bandwidth must be positive")
    log_norm = -0.5 * d * math.log(TWO_PI) - np.log(h).sum()
    out = np.empty(queries.shape[0])
    # chunks of about 2**18 floats per (chunk, N, d) temporary; each query
    # row is computed on its own, so the chunk size does not change the result
    step = max(1, 2**18 // (n * d))
    for lo in range(0, queries.shape[0], step):
        q = queries[lo : lo + step]
        z = (q[:, None, :] - ref[None, :, :]) / h
        logk = log_norm - 0.5 * (z * z).sum(axis=2)
        # mean over kernels, computed in log space for far-field stability
        m = logk.max(axis=1)
        out[lo : lo + step] = np.exp(m) * np.exp(logk - m[:, None]).sum(axis=1) / n
    return out


def write_table(path, header: list[str], values: np.ndarray, labels: np.ndarray | None = None) -> None:
    """Write ``header`` and one row per row of the float array ``values``,
    then its integer ``labels`` entry when given, with \\n endings.  Floats
    are written as the ``repr`` of their float64 value, so they read back
    bit for bit."""
    rows = np.asarray(values, dtype=float).tolist()
    if labels is not None:
        for row, label in zip(rows, np.asarray(labels).tolist()):
            row.append(label)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def save_csv(cloud: PointCloud, path) -> None:
    """Write ``x0,...,x{d-1}[,t0,t1]`` rows with '.' decimals and \\n endings."""
    header = [f"x{i}" for i in range(cloud.dim)]
    cols = [cloud.points]
    if cloud.params is not None:
        header += [f"t{i}" for i in range(cloud.params.shape[1])]
        cols.append(cloud.params)
    write_table(path, header, np.hstack(cols))


def load_csv(path) -> PointCloud:
    """Read a point-cloud CSV written by :func:`save_csv` (or any x*-column CSV).

    An unusable file raises :class:`DataError` naming the path and, for a bad
    row, its 1-based line.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, [])
                rows = [list(map(float, row)) for row in reader if row]
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: not UTF-8 text") from exc
            except (ValueError, csv.Error) as exc:
                raise DataError(f"{path}: line {reader.line_num}: {exc}") from exc
    except OSError as exc:
        raise DataError(f"{path}: cannot read point CSV: {exc.strerror}") from exc
    x_cols = [i for i, name in enumerate(header) if name.startswith("x")]
    t_cols = [i for i, name in enumerate(header) if name.startswith("t")]
    if not x_cols:
        raise DataError(f"{path}: no coordinate columns (expected header x0,x1,...)")
    if not rows:
        raise DataError(f"{path}: no data rows")
    try:
        data = np.asarray(rows, dtype=float)
    except ValueError:
        data = None
    if data is None or data.shape[1] != len(header):
        raise DataError(
            f"{path}: line {_first_ragged_line(path, len(header))}: row width differs from "
            f"the header's {len(header)} columns"
        )
    points = data[:, x_cols]
    params = data[:, t_cols] if t_cols else None
    return PointCloud(points=points, params=params)


def _first_ragged_line(path, width: int) -> int | None:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        return next((reader.line_num for row in reader if row and len(row) != width), None)
