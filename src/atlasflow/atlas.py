"""Atlas training and inference: the full multi-chart pipeline.

Training runs five phases per the staged schedule: (1) pretrain each
coordinate map against its chart's Isomap embedding, (2) pretrain each
density map, (3) joint manifold+density training with the distance-loss
weight annealed linearly, (4) a compatibility phase where expected points
are recomputed every ``c_s`` epochs and the compatibility weight ramps up,
(5) a final density-only phase.  Adam with decoupled weight decay, cosine-
annealed learning rate (restarted per phase), and global-norm clipping apply
to every update.

Mixture weights over charts come from the disintegration of the data measure
over the refined partition: c_k = sum of nu(cell)/n(cell) over the cells
inside chart k.  Density minibatches are bootstrapped with probability
proportional to 1/multiplicity so overlap regions are down-weighted to their
disintegrated share.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import flow as fl
from . import geo
from .cover import ChartCover, MapperConfig, RefinedPartition, refine_partition
from .errors import CheckpointError, CoverError, DivergenceError, NumericError
from .losses import (
    Batch,
    ExpectedPoints,
    LOG_TWO_PI,
    compatibility_loss,
    density_nll,
    expected_points,
    manifold_loss_parts,
    pretraining_loss,
)
from .nnopt import AdamState, LrSchedule, adam_step, clip_global_norm, init_adam, lr_at
from .synth import PointCloud

CHECKPOINT_FORMAT_VERSION = 2


@dataclass
class TrainConfig:
    """Hyperparameters for the five-phase schedule.

    Defaults follow the torus experiment; :func:`trefoil_defaults` switches
    the handful that differ for the knot.
    """

    latent_dim: int = 2
    n_layers: int = 13
    n_bins: int = 8
    hidden: tuple[int, ...] = (64, 64)
    learning_rate: float = 0.0015
    batch_size: int = 256
    epochs: tuple[int, int, int, int, int] = (60, 30, 60, 60, 60)
    lambda_m: float = 100.0
    lambda_p: float = 0.1
    lambda_o: float = 25.0
    lambda_d: float = 0.01
    c_s: int = 2
    clip_norm: float = 5.0
    weight_decay: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    isomap_k: int = geo.DEFAULT_K
    membership_threshold: float = 0.3
    mapper: MapperConfig = field(default_factory=MapperConfig)

    def __post_init__(self):
        if isinstance(self.mapper, dict):
            self.mapper = MapperConfig(**self.mapper)
        self.epochs = tuple(int(e) for e in self.epochs)
        self.hidden = tuple(int(h) for h in self.hidden)
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if len(self.epochs) != 5 or any(e < 0 for e in self.epochs):
            raise ValueError("epochs must be five nonnegative integers")
        if not 0.0 < self.lambda_p <= 1.0:
            raise ValueError("lambda_p must lie in (0, 1]")
        if self.c_s < 1:
            raise ValueError("c_s must be >= 1")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")


def torus_defaults(**overrides) -> TrainConfig:
    cfg = TrainConfig(
        latent_dim=2,
        n_layers=13,
        epochs=(60, 30, 60, 60, 60),
        lambda_m=100.0,
        lambda_p=0.1,
        lambda_o=25.0,
        lambda_d=0.01,
        mapper=MapperConfig(n_cubes=5, perc_overlap=0.45, linkage_threshold=1.0),
    )
    return replace(cfg, **overrides) if overrides else cfg


def trefoil_defaults(**overrides) -> TrainConfig:
    cfg = TrainConfig(
        latent_dim=1,
        n_layers=11,
        epochs=(15, 30, 60, 60, 60),
        lambda_m=100.0,
        lambda_p=0.01,
        lambda_o=100.0,
        lambda_d=0.1,
        mapper=MapperConfig(n_cubes=2, perc_overlap=0.2, linkage_threshold=1.0),
    )
    return replace(cfg, **overrides) if overrides else cfg


@dataclass
class ChartModel:
    """Trained pieces for one chart: coordinate map, density map, weight."""

    chart_id: int
    members: np.ndarray
    phi: fl.FlowStack
    gamma: fl.FlowStack
    c_k: float


@dataclass
class AtlasModel:
    """The trained artifact: per-chart models plus the cover they live on."""

    dim: int
    latent_dim: int
    charts: list[ChartModel]
    cover: ChartCover
    config: TrainConfig

    def __post_init__(self):
        if len(self.charts) != self.cover.n_charts:
            raise ValueError("chart model count != cover chart count")
        total = sum(c.c_k for c in self.charts)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"chart weights c_k sum to {total!r}, expected 1")

    @property
    def c(self) -> np.ndarray:
        return np.array([c.c_k for c in self.charts])


def disintegration_weights(partition: RefinedPartition, n_charts: int):
    """Chart masses c_k and, per chart, each cell's conditional weight.

    c_k sums nu(cell)/n(cell) over the cells whose owner set contains k; the
    conditional weight of a cell inside its chart is (nu/n)/c_k.
    """
    c = np.zeros(n_charts)
    for _, owners, n_owner, nu in partition.cells:
        share = nu / n_owner
        for k in owners:
            c[k] += share
    if np.any(c <= 0):
        k = int(np.flatnonzero(c <= 0)[0])
        raise CoverError(f"chart {k} carries no probability mass")
    per_chart: list[list[tuple[int, float]]] = [[] for _ in range(n_charts)]
    for idx, (_, owners, n_owner, nu) in enumerate(partition.cells):
        share = nu / n_owner
        for k in owners:
            per_chart[k].append((idx, share / c[k]))
    return c, per_chart


def bootstrap_batch(
    members: np.ndarray,
    cover: ChartCover,
    points: np.ndarray,
    b: int,
    rng: np.random.Generator,
) -> Batch:
    """Sample b member indices with replacement, probability ~ 1/multiplicity.

    Overlap points are under-sampled inversely to the number of charts
    containing them, which lowers each chart's density on overlaps to its
    disintegrated share.
    """
    members = np.asarray(members, dtype=int)
    if members.size == 0:
        raise ValueError("chart has no members")
    inv = 1.0 / cover.multiplicity[members]
    probs = inv / inv.sum()
    idx = rng.choice(members, size=b, replace=True, p=probs)
    return Batch(
        indices=idx,
        x=points[idx],
        multiplicity=cover.multiplicity[idx],
    )


def _epoch_batches(rng: np.random.Generator, n_members: int, b: int) -> list[np.ndarray]:
    """Shuffle-and-split positions into batches; a trailing singleton is
    merged into the previous batch so pairwise losses stay defined."""
    perm = rng.permutation(n_members)
    if n_members <= b:
        return [perm]
    chunks = [perm[i : i + b] for i in range(0, n_members, b)]
    if chunks[-1].size == 1 and len(chunks) > 1:
        chunks[-2] = np.concatenate([chunks[-2], chunks[-1]])
        chunks.pop()
    return chunks


@dataclass
class _ChartState:
    chart_id: int
    members: np.ndarray
    x: np.ndarray                      # member coordinates
    rng: np.random.Generator
    phi: fl.FlowStack
    gamma: fl.FlowStack | None = None
    opt_phi: AdamState | None = None
    opt_gamma: AdamState | None = None
    embedding: np.ndarray | None = None
    geodesics: np.ndarray | None = None


def _lambda_t(j: int, e2: int, lambda_p: float) -> float:
    """Linear interpolation from 1 at epoch 1 to lambda_p at epoch e2."""
    if e2 <= 1 or j > e2:
        return lambda_p
    return 1.0 + (lambda_p - 1.0) * (j - 1) / (e2 - 1)


def _check_finite(value: float, phase: int, epoch: int, chart: int) -> None:
    if not math.isfinite(value):
        raise DivergenceError(
            f"loss diverged (phase {phase}, epoch {epoch}, chart {chart})",
            phase=phase,
            epoch=epoch,
            chart=chart,
        )


def train(
    points: PointCloud | np.ndarray,
    cover: ChartCover,
    cfg: TrainConfig,
    log_rows: list | None = None,
) -> AtlasModel:
    """Run the five-phase schedule and return the trained atlas.

    ``log_rows``, when given, receives one dict per (phase, epoch, chart)
    with epoch-averaged loss components.
    """
    x_all = points.points if isinstance(points, PointCloud) else np.asarray(points, dtype=float)
    n_points, dim = x_all.shape
    if cover.n_points != n_points:
        raise CoverError(f"cover indexes {cover.n_points} points, data has {n_points}")
    cover.validate()
    n = cfg.latent_dim
    e1, e2, e3, e4, e5 = cfg.epochs

    partition = refine_partition(cover)
    c, _ = disintegration_weights(partition, cover.n_charts)

    seeds = np.random.SeedSequence(cfg.seed).spawn(2 * cover.n_charts)
    needs_isomap = e1 > 0 or (e2 + e3 + e4) > 0
    states: list[_ChartState] = []
    for k, members in enumerate(cover.charts):
        init_rng = np.random.default_rng(seeds[2 * k])
        batch_rng = np.random.default_rng(seeds[2 * k + 1])
        xk = x_all[members]
        embedding = geodesics = None
        if needs_isomap:
            embedding, geodesics = geo.isomap(xk, cfg.isomap_k, n)
        phi_bound = fl.DEFAULT_BOUND
        phi_bound = max(phi_bound, 1.1 * float(np.abs(xk).max()))
        if embedding is not None:
            phi_bound = max(phi_bound, 1.2 * float(np.abs(embedding).max()))
        phi = fl.make_flow(dim, cfg.n_layers, init_rng, n_bins=cfg.n_bins, bound=phi_bound, hidden=cfg.hidden)
        state = _ChartState(
            chart_id=k, members=np.asarray(members, dtype=int), x=xk, rng=batch_rng, phi=phi,
            embedding=embedding, geodesics=geodesics,
        )
        state.opt_phi = init_adam(
            phi.parameters(), cfg.beta1, cfg.beta2, cfg.adam_eps, cfg.weight_decay
        )
        # density map construction is deferred until after phi pretraining so
        # its spline bound can cover the actual latent range
        state._init_rng = init_rng  # type: ignore[attr-defined]
        states.append(state)

    def _update(flow_obj, opt, grads, scale, lr, phase, epoch, chart):
        grads = [scale * g for g in grads]
        grads = clip_global_norm(grads, cfg.clip_norm)
        try:
            _, new_params = adam_step(opt, flow_obj.parameters(), grads, lr)
        except NumericError as exc:
            raise DivergenceError(
                f"non-finite gradient (phase {phase}, epoch {epoch}, chart {chart}): {exc}",
                phase=phase, epoch=epoch, chart=chart,
            ) from exc
        flow_obj.set_parameters(new_params)

    def _log(phase, epoch, chart, lr, **losses):
        if log_rows is not None:
            row = {"phase": phase, "epoch": epoch, "chart": chart, "lr": lr}
            row.update(losses)
            log_rows.append(row)

    def _frozen_latents(st: _ChartState, v: np.ndarray | None = None) -> np.ndarray:
        """Latent codes of the chart's members under its current ``phi``
        (``v`` when the caller has them), indexed by global point index.
        The forward pass treats rows independently, so a row read from here
        equals the one a batch forward would give."""
        out = np.empty((n_points, n))
        out[st.members] = fl.latent_codes(st.phi, n, st.x) if v is None else v
        return out

    def _build_gamma(st: _ChartState) -> np.ndarray:
        """Create chart st's density map; returns its frozen latents."""
        v = fl.latent_codes(st.phi, n, st.x)
        g_bound = max(fl.DEFAULT_BOUND, 1.2 * float(np.abs(v).max()))
        st.gamma = fl.make_flow(
            n, cfg.n_layers, st._init_rng, n_bins=cfg.n_bins, bound=g_bound, hidden=cfg.hidden
        )
        st.opt_gamma = init_adam(
            st.gamma.parameters(), cfg.beta1, cfg.beta2, cfg.adam_eps, cfg.weight_decay
        )
        return _frozen_latents(st, v)

    def _density_step(st: _ChartState, lr, phase, epoch, latents=None):
        """One gamma update on a bootstrap batch.  ``latents`` come from
        :func:`_frozen_latents` while ``phi`` does not move (phases 2 and 5);
        otherwise the batch goes through ``phi``."""
        boot = bootstrap_batch(st.members, cover, x_all, cfg.batch_size, st.rng)
        v = fl.latent_codes(st.phi, n, boot.x) if latents is None else latents[boot.indices]
        loss, grads = density_nll(st.gamma, v)
        _check_finite(loss, phase, epoch, st.chart_id)
        _update(st.gamma, st.opt_gamma, grads, cfg.lambda_d, lr, phase, epoch, st.chart_id)
        return loss

    def _chart_batch(st: _ChartState, positions: np.ndarray, with_dref: bool) -> Batch:
        gidx = st.members[positions]
        return Batch(
            indices=gidx,
            x=st.x[positions],
            r=None if st.embedding is None else st.embedding[positions],
            d_ref=None if (not with_dref or st.geodesics is None) else st.geodesics[np.ix_(positions, positions)],
            multiplicity=cover.multiplicity[gidx],
        )

    # phases 1-3 run chart by chart
    for st in states:
        k = st.chart_id
        if e1 > 0:
            sched = LrSchedule(cfg.learning_rate, e1)
            for j in range(1, e1 + 1):
                lr = lr_at(sched, j - 1)
                total = 0.0
                batches = _epoch_batches(st.rng, st.members.size, cfg.batch_size)
                for pos in batches:
                    batch = _chart_batch(st, pos, with_dref=False)
                    loss, grads = pretraining_loss(st.phi, batch)
                    _check_finite(loss, 1, j, k)
                    _update(st.phi, st.opt_phi, grads, cfg.lambda_m, lr, 1, j, k)
                    total += loss
                _log(1, j, k, lr, pre=total / len(batches))

        latents = _build_gamma(st)

        if e1 > 0:
            sched = LrSchedule(cfg.learning_rate, e1)
            for j in range(1, e1 + 1):
                lr = lr_at(sched, j - 1)
                n_batches = max(1, math.ceil(st.members.size / cfg.batch_size))
                total = 0.0
                for _ in range(n_batches):
                    total += _density_step(st, lr, 2, j, latents)
                _log(2, j, k, lr, density=total / n_batches)
        latents = None

        if e2 + e3 > 0:
            sched = LrSchedule(cfg.learning_rate, e2 + e3)
            for j in range(1, e2 + e3 + 1):
                lam = _lambda_t(j, e2, cfg.lambda_p)
                lr = lr_at(sched, j - 1)
                tot = {"mfd": 0.0, "recon": 0.0, "dist": 0.0, "density": 0.0}
                batches = _epoch_batches(st.rng, st.members.size, cfg.batch_size)
                for pos in batches:
                    batch = _chart_batch(st, pos, with_dref=True)
                    loss, grads, parts = manifold_loss_parts(st.phi, n, batch, lam, all_parts=True)
                    _check_finite(loss, 3, j, k)
                    _update(st.phi, st.opt_phi, grads, cfg.lambda_m, lr, 3, j, k)
                    tot["mfd"] += loss
                    tot["recon"] += parts["recon"]
                    tot["dist"] += parts["dist"]
                    tot["density"] += _density_step(st, lr, 3, j)
                nb = len(batches)
                _log(3, j, k, lr, lambda_t=lam, **{key: val / nb for key, val in tot.items()})

    # phase 4: compatibility across charts, expected points refreshed every c_s
    if e4 > 0:
        sched = LrSchedule(cfg.learning_rate, e4)
        xhat: ExpectedPoints | None = None
        for j in range(1, e4 + 1):
            if (j - 1) % cfg.c_s == 0:
                xhat = expected_points([st.phi for st in states], n, cover, x_all, epoch=j)
            lr = lr_at(sched, j - 1)
            ramp = (j / e4) * cfg.lambda_o
            for st in states:
                k = st.chart_id
                tot = {"mfd": 0.0, "recon": 0.0, "dist": 0.0, "comp": 0.0, "density": 0.0}
                batches = _epoch_batches(st.rng, st.members.size, cfg.batch_size)
                for pos in batches:
                    batch = _chart_batch(st, pos, with_dref=True)
                    m_loss, m_grads, parts, passes = manifold_loss_parts(
                        st.phi, n, batch, cfg.lambda_p, keep_passes=True
                    )
                    c_loss, c_grads = compatibility_loss(
                        st.phi, n, batch, xhat, epoch=j, max_age=cfg.c_s, passes=passes
                    )
                    # the pass caches are large; free them before the density step
                    passes = None
                    loss = m_loss + ramp * c_loss
                    _check_finite(loss, 4, j, k)
                    grads = [mg + ramp * cg for mg, cg in zip(m_grads, c_grads)]
                    _update(st.phi, st.opt_phi, grads, cfg.lambda_m, lr, 4, j, k)
                    tot["mfd"] += m_loss
                    tot["recon"] += parts["recon"]
                    tot["dist"] += parts["dist"]
                    tot["comp"] += c_loss
                    tot["density"] += _density_step(st, lr, 4, j)
                nb = len(batches)
                _log(4, j, k, lr, lambda_t=cfg.lambda_p, **{key: val / nb for key, val in tot.items()})

    # phase 5: density only
    if e5 > 0:
        for st in states:
            sched = LrSchedule(cfg.learning_rate, e5)
            latents = _frozen_latents(st)
            for j in range(1, e5 + 1):
                lr = lr_at(sched, j - 1)
                n_batches = max(1, math.ceil(st.members.size / cfg.batch_size))
                total = 0.0
                for _ in range(n_batches):
                    total += _density_step(st, lr, 5, j, latents)
                _log(5, j, st.chart_id, lr, density=total / n_batches)

    charts = [
        ChartModel(chart_id=st.chart_id, members=st.members, phi=st.phi, gamma=st.gamma, c_k=float(c[st.chart_id]))
        for st in states
    ]
    return AtlasModel(dim=dim, latent_dim=n, charts=charts, cover=cover, config=cfg)


def sample(model: AtlasModel, count: int, rng: np.random.Generator):
    """Draw points from the atlas: chart ~ c_k, w ~ N(0, I), then map back.

    Returns (PointCloud, chart labels).
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    labels = rng.choice(model.cover.n_charts, size=count, p=model.c)
    out = np.zeros((count, model.dim))
    for k, chart in enumerate(model.charts):
        rows = np.flatnonzero(labels == k)
        if rows.size == 0:
            continue
        w = rng.normal(size=(rows.size, model.latent_dim))
        v, _, _ = fl.stack_inverse_cached(chart.gamma, w)
        out[rows] = fl.embed_latent(chart.phi, v)
    return PointCloud(points=out), labels


def chart_log_density(model: AtlasModel, x: np.ndarray, k: int, latents=None) -> np.ndarray:
    """log p of chart k at points x, including the embedding volume term.

    ``latents`` are chart k's latent codes of x when the caller already has
    them; the ``phi`` forward pass is then skipped.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    chart = model.charts[k]
    n = model.latent_dim
    v = fl.latent_codes(chart.phi, n, x) if latents is None else latents
    w, ld = fl.stack_forward(chart.gamma, np.atleast_2d(v))
    log_normal = -0.5 * n * LOG_TWO_PI - 0.5 * (w * w).sum(axis=1)
    gram = fl.embedding_gram_logdet(chart.phi, n, np.atleast_2d(v))
    return log_normal + ld - gram


def log_density(
    model: AtlasModel,
    x: np.ndarray,
    chart: int | None = None,
    membership_threshold: float | None = None,
) -> np.ndarray:
    """Manifold log-density log sum_k c_k p_k(x).

    A chart participates when its reconstruction of x lands within the
    membership threshold; the nearest chart always participates so the
    result stays finite.
    """
    x_arr = np.atleast_2d(np.asarray(x, dtype=float))
    if chart is not None:
        out = chart_log_density(model, x_arr, chart)
        return out if np.asarray(x).ndim > 1 else out[0]
    thresh = model.config.membership_threshold if membership_threshold is None else membership_threshold
    n_charts = model.cover.n_charts
    n = model.latent_dim
    recon_err = np.empty((n_charts, x_arr.shape[0]))
    latents = []
    for k, cm in enumerate(model.charts):
        # fl.reconstruct, keeping the latent codes for the density terms below
        z, _, _ = fl.stack_forward_cached(cm.phi, x_arr)
        xr, _, _ = fl.stack_inverse_cached(cm.phi, fl.project(z, n))
        recon_err[k] = np.linalg.norm(xr - x_arr, axis=1)
        latents.append(z[:, :n])
    include = recon_err <= thresh
    include[recon_err.argmin(axis=0), np.arange(x_arr.shape[0])] = True
    log_terms = np.full((n_charts, x_arr.shape[0]), -np.inf)
    for k, cm in enumerate(model.charts):
        rows = np.flatnonzero(include[k])
        if rows.size == 0:
            continue
        log_p = chart_log_density(model, x_arr[rows], k, latents=latents[k][rows])
        log_terms[k, rows] = math.log(cm.c_k) + log_p
    m = log_terms.max(axis=0)
    out = m + np.log(np.exp(log_terms - m).sum(axis=0))
    return out if np.asarray(x).ndim > 1 else out[0]


class _Malformed(ValueError):
    """A checkpoint entry that cannot be decoded, with the key path leading to it."""

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
    if a.size and a.dtype.kind != "i":
        raise ValueError(f"expected integer indices, got {a.dtype} values")
    return a.astype(int)


def _pack(a: np.ndarray) -> dict:
    """A float array as its shape and the base64 of its little-endian float64 bytes."""
    a = np.asarray(a, dtype="<f8")
    return {"shape": list(a.shape), "f8": base64.b64encode(a.tobytes()).decode("ascii")}


def _unpack(entry) -> np.ndarray:
    """Inverse of :func:`_pack`; a plain list (format_version 1) is read as
    decimal floats.  Non-finite values are rejected."""
    if isinstance(entry, list):
        a = np.asarray(entry, dtype=float)
    else:
        shape = _decode(entry, "shape", lambda s: [int(d) for d in s])
        try:
            data = base64.b64decode(_decode(entry, "f8", str), validate=True)
        except binascii.Error as exc:
            raise _Malformed([], f"'f8' is not base64: {exc}") from exc
        if len(data) != math.prod(shape) * 8:
            raise _Malformed([], f"'f8' holds {len(data)} bytes, shape {shape} needs {math.prod(shape) * 8}")
        a = np.frombuffer(data, dtype="<f8").reshape(shape).astype(float)
    if not np.all(np.isfinite(a)):
        bad = np.argwhere(~np.isfinite(np.atleast_1d(a)))[0]
        raise _Malformed([], f"non-finite value at index {tuple(int(i) for i in bad)}")
    return a


def _flow_to_dict(f: fl.FlowStack) -> dict:
    layers = []
    for layer in f.layers:
        entry = {
            "id_idx": layer.id_idx.tolist(),
            "tr_idx": layer.tr_idx.tolist(),
            "n_bins": layer.n_bins,
            "bound": layer.bound,
        }
        if layer.conditioner is not None:
            entry["conditioner"] = {
                "activation": layer.conditioner.activation,
                "weights": [_pack(w) for w in layer.conditioner.weights],
                "biases": [_pack(b) for b in layer.conditioner.biases],
            }
        else:
            entry["raw"] = [_pack(a) for a in layer.raw]
        layers.append(entry)
    return {"dim": f.dim, "layers": layers}


def _flow_from_dict(payload: dict) -> fl.FlowStack:
    dim = _decode(payload, "dim", int)

    def layer(entry: dict) -> fl.CouplingLayer:
        cond = raw = None
        if "conditioner" in entry:
            cond = _decode(entry, "conditioner", lambda c: fl.MlpParams(
                weights=_decode(c, "weights", _each(_unpack)),
                biases=_decode(c, "biases", _each(_unpack)),
                activation=_decode(c, "activation", str),
            ))
        else:
            raw = _decode(entry, "raw", _each(_unpack))
        return fl.CouplingLayer(
            dim=dim,
            id_idx=_decode(entry, "id_idx", _indices),
            tr_idx=_decode(entry, "tr_idx", _indices),
            n_bins=_decode(entry, "n_bins", int),
            bound=_decode(entry, "bound", float),
            conditioner=cond,
            raw=raw,
        )

    return fl.FlowStack(dim=dim, layers=_decode(payload, "layers", _each(layer)))


def _cover_from_dict(c: dict) -> ChartCover:
    cover = ChartCover(
        n_points=_decode(c, "n_points", int),
        charts=_decode(c, "charts", _each(_indices)),
        nerve_edges=_decode(c, "nerve_edges", lambda edges: {tuple(e) for e in edges}),
        multiplicity=_decode(c, "multiplicity", _indices),
    )
    cover.validate()
    return cover


def _chart_from_dict(entry: dict) -> ChartModel:
    return ChartModel(
        chart_id=_decode(entry, "chart_id", int),
        members=_decode(entry, "members", _indices),
        phi=_decode(entry, "phi", _flow_from_dict),
        gamma=_decode(entry, "gamma", _flow_from_dict),
        c_k=_decode(entry, "c_k", float),
    )


def save(model: AtlasModel, path) -> None:
    """Write the model as one JSON object.

    Float parameter arrays are ``{"shape": [...], "f8": <base64>}`` blocks of
    little-endian float64 bytes, so they round-trip bit for bit; the cover,
    config and index lists are plain JSON.
    """
    cfg = asdict(model.config)
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "dim": model.dim,
        "latent_dim": model.latent_dim,
        "config": cfg,
        "cover": {
            "n_points": model.cover.n_points,
            "charts": [chart.tolist() for chart in model.cover.charts],
            "nerve_edges": sorted(list(e) for e in model.cover.nerve_edges),
            "multiplicity": model.cover.multiplicity.tolist(),
        },
        "charts": [
            {
                "chart_id": cm.chart_id,
                "members": cm.members.tolist(),
                "c_k": cm.c_k,
                "phi": _flow_to_dict(cm.phi),
                "gamma": _flow_to_dict(cm.gamma),
            }
            for cm in model.charts
        ],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(payload))


def load(path) -> AtlasModel:
    """Read a checkpoint written by :func:`save`, or by the format_version 1
    writer that stored parameters as nested decimal lists.

    Anything unreadable or malformed raises :class:`CheckpointError` naming
    the path and the offending key.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: parse error at byte {exc.pos}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise CheckpointError(f"{path}: not an atlas checkpoint")
    version = payload["format_version"]
    if version not in (1, CHECKPOINT_FORMAT_VERSION):
        raise CheckpointError(
            f"{path}: format_version {version!r} unsupported (expected 1 or {CHECKPOINT_FORMAT_VERSION})"
        )
    try:
        fields = dict(
            dim=_decode(payload, "dim", int),
            latent_dim=_decode(payload, "latent_dim", int),
            charts=_decode(payload, "charts", _each(_chart_from_dict)),
            cover=_decode(payload, "cover", _cover_from_dict),
            config=_decode(payload, "config", lambda c: TrainConfig(**c)),
        )
        for i, (cm, members) in enumerate(zip(fields["charts"], fields["cover"].charts)):
            if not np.array_equal(cm.members, members):
                raise _Malformed(["charts", i, "members"], f"differ from cover.charts[{i}]")
        return AtlasModel(**fields)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
