"""Atlas training and inference: the full multi-chart pipeline.

Training runs five phases per the staged schedule: (1) pretrain each
coordinate map against its chart's Isomap embedding, (2) pretrain each
density map, (3) joint manifold+density training with the distance-loss
weight annealed linearly, (4) a compatibility phase where expected points
are recomputed every ``c_s`` epochs and the compatibility weight ramps up,
(5) a final density-only phase.  Adam with decoupled weight decay, cosine-
annealed learning rate (restarted per phase), and global-norm clipping apply
to every update.

:func:`train` runs the schedule in rounds: round 1 holds phases 1-3 whole,
then phase 4 runs in windows of ``c_s`` epochs, and the last window also runs
phase 5 (with no phase-4 epochs, round 1 runs everything).  Each round but the
last ends with every chart's reconstruction of its members, and the expected
points of the next window are their average.  One helper runs a chart's
epoch of any phase.  Charts meet only in the expected points, and each chart
owns its RNG streams, flows and optimiser states, so within a round any order
of the charts draws the same numbers.  With one worker, every chart's Isomap
runs first and then each round loops over its phases, their epochs, then the
charts, in-process.  Above ``POOL_MIN_ROW_LAYERS`` each chart lives for all
of training in one worker of a :class:`pool.Pool`: its Isomap, geodesics,
flows, optimiser states, RNGs and latents stay there, and each round sends
back only the chart's log rows and reconstruction, the last round its flows.
Either way log rows arrive in (phase, epoch, chart) order and a failure
raises what the in-process loop would.

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
import numbers
from dataclasses import asdict, dataclass, field, fields
from functools import partial

import numpy as np

from . import flow as fl
from . import geo, pool
from .cover import (
    ChartCover,
    MapperConfig,
    _decode,
    _each,
    _indices,
    _Malformed,
    cover_from_dict,
    cover_to_dict,
    refine_partition,
)
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
# Summed rows x flow layers of per-chart jobs below which sample, log_density
# and a whole training run stay in-process.  On a 2-vCPU x86-64 VM at one BLAS
# thread, a fork-pool round trip costs ~15 ms and a row through one 13-layer
# torus-preset flow layer ~2.7 us after a ~26 ms per-call floor, so two
# workers break even near 3,000 row-layers for inference (600 samples: 82 ms
# serial, 75 ms pooled).  Training counts member rows x all the schedule's
# epochs x (phi + gamma layers), and forks once per run.  On two charts it
# broke even between 7,800 and 13,000 (220 against 264 ms, 237 against
# 187 ms) at the torus preset with epochs 1/1/0/1/1, and between 16,000 and
# 24,000 (204 against 250 ms, 300 against 227 ms) at 2 layers of 8 units with
# epochs 2/1/1/3/1.
POOL_MIN_ROW_LAYERS = 20_000
# annotation of a scalar TrainConfig field -> (accepted type, what to call it)
_NUMERIC_TYPES = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number")}


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
        for f in fields(self):
            if f.type in _NUMERIC_TYPES:
                kind, noun = _NUMERIC_TYPES[f.type]
                value = getattr(self, f.name)
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ValueError(f"{f.name} must be {noun}, got {value!r}")
        for name in ("epochs", "hidden"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)) or not all(
                isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in value
            ):
                raise ValueError(f"{name} must be a list of integers, got {value!r}")
            setattr(self, name, tuple(int(v) for v in value))
        if isinstance(self.mapper, dict):
            self.mapper = MapperConfig(**self.mapper)
        elif not isinstance(self.mapper, MapperConfig):
            raise ValueError(f"mapper must be an object of MapperConfig fields, got {self.mapper!r}")
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


def trefoil_defaults() -> TrainConfig:
    return TrainConfig(
        latent_dim=1,
        n_layers=11,
        epochs=(15, 30, 60, 60, 60),
        lambda_m=100.0,
        lambda_p=0.01,
        lambda_o=100.0,
        lambda_d=0.1,
        mapper=MapperConfig(n_cubes=2, perc_overlap=0.2, linkage_threshold=1.0),
    )


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
        """Check that the parts agree; a failure names the checkpoint key."""
        if len(self.charts) != self.cover.n_charts:
            raise _Malformed(["charts"], f"{len(self.charts)} chart models for the cover's {self.cover.n_charts} charts")
        if self.latent_dim != self.config.latent_dim:
            raise _Malformed(["latent_dim"], f"{self.latent_dim} != config.latent_dim {self.config.latent_dim}")
        for i, cm in enumerate(self.charts):
            if cm.chart_id != i:
                raise _Malformed(["charts", i, "chart_id"], f"{cm.chart_id} is not the chart's position {i}")
            if cm.phi.dim != self.dim:
                raise _Malformed(["dim"], f"{self.dim} != charts[{i}].phi.dim {cm.phi.dim}")
            if cm.gamma.dim != self.latent_dim:
                raise _Malformed(["charts", i, "gamma", "dim"], f"{cm.gamma.dim} != latent_dim {self.latent_dim}")
            for name, f in (("phi", cm.phi), ("gamma", cm.gamma)):
                if len(f.layers) != self.config.n_layers:
                    raise _Malformed(["config", "n_layers"],
                                     f"{self.config.n_layers} != the {len(f.layers)} layers of charts[{i}].{name}")
        total = sum(c.c_k for c in self.charts)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"chart weights c_k sum to {total!r}, expected 1")

    @property
    def c(self) -> np.ndarray:
        return np.array([c.c_k for c in self.charts])


def disintegration_weights(cover: ChartCover) -> np.ndarray:
    """Chart masses: c_k sums nu(cell)/n(cell) over the refined-partition
    cells whose owner set contains k, n(cell) being the number of owners."""
    c = np.zeros(cover.n_charts)
    for _, owners, nu in refine_partition(cover):
        share = nu / len(owners)
        for k in owners:
            c[k] += share
    if np.any(c <= 0):
        k = int(np.flatnonzero(c <= 0)[0])
        raise CoverError(f"chart {k} carries no probability mass")
    return c


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
    """One chart's training state.  Every chart owns its RNG streams, flows
    and optimiser states; charts meet only in phase 4's expected points."""

    chart_id: int
    members: np.ndarray
    x: np.ndarray                      # member coordinates
    init_rng: np.random.Generator      # initialises phi, then gamma
    rng: np.random.Generator           # batch shuffles and bootstraps
    phi: fl.FlowStack | None = None    # built by _start_chart
    opt_phi: AdamState | None = None
    embedding: np.ndarray | None = None
    geodesics: np.ndarray | None = None  # condensed, as geo.isomap returns them
    gamma: fl.FlowStack | None = None  # built as phase 2 starts
    opt_gamma: AdamState | None = None
    latents: np.ndarray | None = None  # frozen phi latent codes, by global point index


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


def _init_adam(flow_obj: fl.FlowStack, cfg: TrainConfig) -> AdamState:
    return init_adam(flow_obj.parameters(), cfg.beta1, cfg.beta2, cfg.adam_eps, cfg.weight_decay)


def _start_chart(st: _ChartState, embed: bool, cfg: TrainConfig) -> None:
    """Step (0, 0, chart): the chart's Isomap when ``embed``, then its ``phi``,
    whose spline bound covers the members and their embedding, and the
    optimiser state."""
    if embed:
        st.embedding, st.geodesics = geo.isomap(st.x, cfg.isomap_k, cfg.latent_dim)
    bound = max(fl.DEFAULT_BOUND, 1.1 * float(np.abs(st.x).max()))
    if st.embedding is not None:
        bound = max(bound, 1.2 * float(np.abs(st.embedding).max()))
    st.phi = fl.make_flow(st.x.shape[1], cfg.n_layers, st.init_rng, n_bins=cfg.n_bins, bound=bound, hidden=cfg.hidden)
    st.opt_phi = _init_adam(st.phi, cfg)


def _frozen_latents(st: _ChartState, n_points: int, n: int) -> np.ndarray:
    """Latent codes of the chart's members under its current ``phi``, indexed
    by global point index.  The forward pass treats rows independently, so a
    row read from here equals the one a batch forward would give."""
    out = np.empty((n_points, n))
    out[st.members] = fl.latent_codes(st.phi, n, st.x)
    return out


def _build_gamma(st: _ChartState, cfg: TrainConfig, n_points: int) -> None:
    """Create the chart's density map, its optimiser state and the frozen
    latents phase 2 trains it on.  Its spline bound covers the latent range
    ``phi`` has after pretraining."""
    n = cfg.latent_dim
    st.latents = _frozen_latents(st, n_points, n)
    g_bound = max(fl.DEFAULT_BOUND, 1.2 * float(np.abs(st.latents[st.members]).max()))
    st.gamma = fl.make_flow(n, cfg.n_layers, st.init_rng, n_bins=cfg.n_bins, bound=g_bound, hidden=cfg.hidden)
    st.opt_gamma = _init_adam(st.gamma, cfg)


def _update(flow_obj, opt, grads, scale, lr, cfg, phase, epoch, chart) -> None:
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


def _density_step(st: _ChartState, phase, epoch, lr, cover, x_all, cfg) -> float:
    """One gamma update on a bootstrap batch.  Its latents come from
    ``st.latents`` while ``phi`` does not move (phases 2 and 5); otherwise
    the batch goes through ``phi``."""
    boot = bootstrap_batch(st.members, cover, x_all, cfg.batch_size, st.rng)
    if phase in (2, 5):
        v = st.latents[boot.indices]
    else:
        v = fl.latent_codes(st.phi, cfg.latent_dim, boot.x)
    loss, grads = density_nll(st.gamma, v)
    _check_finite(loss, phase, epoch, st.chart_id)
    _update(st.gamma, st.opt_gamma, grads, cfg.lambda_d, lr, cfg, phase, epoch, st.chart_id)
    return loss


def _chart_batch(st: _ChartState, positions: np.ndarray, cover: ChartCover, with_dref: bool) -> Batch:
    gidx = st.members[positions]
    return Batch(
        indices=gidx,
        x=st.x[positions],
        r=None if st.embedding is None else st.embedding[positions],
        d_ref=None if (not with_dref or st.geodesics is None)
        else geo.condensed_block(st.geodesics, len(st.members), positions),
        multiplicity=cover.multiplicity[gidx],
    )


def _chart_epoch(st: _ChartState, phase, epoch, lr, xhat, cover, x_all, cfg) -> dict:
    """One epoch of ``phase`` on chart ``st``; returns the log row's
    epoch-averaged entries after ``lr``.

    Phases 2 and 5 step ``gamma`` alone, on the frozen latents.  Phases 1, 3
    and 4 step ``phi`` on each batch of a shuffled pass over the chart: on the
    pretraining loss (phase 1), on the manifold loss with its distance weight
    annealed (phase 3), or on the manifold loss plus the ramped compatibility
    loss (phase 4).  In phases 3 and 4 a ``gamma`` step on live latents
    follows every ``phi`` step.
    """
    if phase in (2, 5):
        n_batches = max(1, math.ceil(st.members.size / cfg.batch_size))
        total = 0.0
        for _ in range(n_batches):
            total += _density_step(st, phase, epoch, lr, cover, x_all, cfg)
        return {"density": total / n_batches}
    lam = _lambda_t(epoch, cfg.epochs[1], cfg.lambda_p) if phase == 3 else cfg.lambda_p
    tot: dict[str, float] = {}
    batches = _epoch_batches(st.rng, st.members.size, cfg.batch_size)
    for pos in batches:
        batch = _chart_batch(st, pos, cover, with_dref=phase > 1)
        if phase == 1:
            loss, grads = pretraining_loss(st.phi, batch)
            parts = {"pre": loss}
        else:
            loss, grads, parts, passes = manifold_loss_parts(st.phi, cfg.latent_dim, batch, lam)
            parts = {"mfd": loss, **parts}
            if phase == 4:
                c_loss, c_grads = compatibility_loss(
                    st.phi, cfg.latent_dim, batch, xhat, epoch=epoch, max_age=cfg.c_s, passes=passes
                )
                ramp = (epoch / cfg.epochs[3]) * cfg.lambda_o
                loss = loss + ramp * c_loss
                grads = [mg + ramp * cg for mg, cg in zip(grads, c_grads)]
                parts["comp"] = c_loss
            # the pass caches are large; free them before the density step
            passes = None
        _check_finite(loss, phase, epoch, st.chart_id)
        _update(st.phi, st.opt_phi, grads, cfg.lambda_m, lr, cfg, phase, epoch, st.chart_id)
        if phase > 1:
            parts["density"] = _density_step(st, phase, epoch, lr, cover, x_all, cfg)
        for key, val in parts.items():
            tot[key] = tot.get(key, 0.0) + val
    means = {key: val / len(batches) for key, val in tot.items()}
    return means if phase == 1 else {"lambda_t": lam, **means}


def _rounds(cfg: TrainConfig) -> list[list[tuple[int, int, int, int]]]:
    """The schedule as rounds of ``(phase, n_epochs, first, last)`` segments,
    each running epochs ``first..last`` of a phase of ``n_epochs`` epochs; a
    segment with ``first == 1`` begins its phase.  Round 1 holds phases 1-3
    (and 4-5 when phase 4 has no epochs).  Then phase 4 runs in windows of
    ``c_s`` epochs, the expected points being refreshed before each, and the
    last window also runs phase 5."""
    e1, e2, e3, e4, e5 = cfg.epochs
    rounds = [[(1, e1, 1, e1), (2, e1, 1, e1), (3, e2 + e3, 1, e2 + e3)]]
    if e4 == 0:
        rounds[0].append((4, 0, 1, 0))
    for first in range(1, e4 + 1, cfg.c_s):
        rounds.append([(4, e4, first, min(first + cfg.c_s - 1, e4))])
    rounds[-1].append((5, e5, 1, e5))
    return rounds


def _begin_phase(st: _ChartState, phase: int, n_epochs: int, cfg: TrainConfig, n_points: int) -> None:
    if phase == 2:
        _build_gamma(st, cfg, n_points)
    else:
        # gamma steps on frozen latents only while phi does not move
        st.latents = _frozen_latents(st, n_points, cfg.latent_dim) if phase == 5 and n_epochs else None


def _chart_step(st: _ChartState, phase, n_epochs, epoch, xhat, cover, x_all, cfg) -> dict:
    """Epoch ``epoch`` of ``phase`` on chart ``st``, as its log row."""
    lr = lr_at(LrSchedule(cfg.learning_rate, n_epochs), epoch - 1)
    row = {"phase": phase, "epoch": epoch, "chart": st.chart_id, "lr": lr}
    row.update(_chart_epoch(st, phase, epoch, lr, xhat, cover, x_all, cfg))
    return row


def _round_output(st: _ChartState, segments, cfg: TrainConfig):
    """What a chart's round hands on: after the last round its flows, else its
    reconstruction of its members, from which the next phase-4 window's
    expected points are averaged."""
    if segments[-1][0] == 5:
        return st.phi, st.gamma
    return fl.reconstruct(st.phi, cfg.latent_dim, st.x)


def _chart_steps(st: _ChartState, embed, cover, x_all, cfg, segments, xhat):
    """A chart's round as ``((phase, epoch, chart), step)`` pairs, in order:
    ``step()`` runs the step and returns its log row, or None for step
    (0, 0, chart), the chart's start, and for a phase's start, its epoch 0."""
    if st.phi is None:
        yield (0, 0, st.chart_id), partial(_start_chart, st, embed, cfg)
    for phase, n_epochs, first, last in segments:
        if first == 1:
            yield (phase, 0, st.chart_id), partial(_begin_phase, st, phase, n_epochs, cfg, x_all.shape[0])
        for j in range(first, last + 1):
            yield (phase, j, st.chart_id), partial(_chart_step, st, phase, n_epochs, j, xhat, cover, x_all, cfg)


def _round_in_process(states, embed, cover, x_all, cfg, log_rows, segments, xhat) -> list:
    """One round over every chart in this process, step by step, each step
    over the charts in chart order, so every chart starts (with its Isomap)
    before any trains and each row is appended as its step finishes.
    Returns each chart's :func:`_round_output`."""
    for steps in zip(*(_chart_steps(st, embed, cover, x_all, cfg, segments, xhat) for st in states)):
        for _, step in steps:
            row = step()
            if row is not None and log_rows is not None:
                log_rows.append(row)
    return [_round_output(st, segments, cfg) for st in states]


def _chart_job(st: _ChartState, embed, cover, x_all, cfg, segments, xhat):
    """A chart's round in its pool worker, which keeps ``st`` from round to
    round.  Returns ``(rows, failure, output)``: ``failure`` is None or
    ``((phase, epoch, chart), exception)`` for the step that raised, and
    ``output`` the chart's :func:`_round_output`, or None after a failure."""
    rows = []
    for key, step in _chart_steps(st, embed, cover, x_all, cfg, segments, xhat):
        try:
            row = step()
        except Exception as exc:            # noqa: BLE001 - raised after the round, in step order
            return rows, (key, exc), None
        if row is not None:
            rows.append(row)
    return rows, None, _round_output(st, segments, cfg)


def _round_pooled(workers: pool.Pool, log_rows, segments, xhat) -> list:
    """One round of every chart's :func:`_chart_job` in ``workers``.  The rows
    are appended in (phase, epoch, chart) order once the round is done, and of
    the failures the one with the smallest (phase, epoch, chart) is raised
    after the rows before it, as the in-process loop would."""
    rows, failures, outputs = {}, [], []
    for chart_rows, failure, output in workers.run(segments, xhat):
        rows.update(((row["phase"], row["epoch"], row["chart"]), row) for row in chart_rows)
        if failure is not None:
            failures.append(failure)
        outputs.append(output)
    stop, error = min(failures, key=lambda f: f[0], default=(None, None))
    if log_rows is not None:
        for key in sorted(k for k in rows if stop is None or k < stop):
            log_rows.append(rows[key])
    if error is not None:
        raise error
    return outputs


def _schedule(rounds, cover: ChartCover, run_round) -> list:
    """Run ``rounds`` through ``run_round(segments, xhat)``, averaging the
    expected points before each phase-4 window from the previous round's
    reconstructions; returns the last round's outputs, every chart's flows."""
    xhat: ExpectedPoints | None = None
    for segments in rounds:
        phase, _, first, _ = segments[0]
        if phase == 4:
            xhat = expected_points(outputs, cover, epoch=first)
        outputs = run_round(segments, xhat)
    return outputs


def train(
    points: PointCloud | np.ndarray,
    cover: ChartCover,
    cfg: TrainConfig,
    log_rows: list | None = None,
) -> AtlasModel:
    """Run the five-phase schedule and return the trained atlas.

    The schedule runs in the rounds of :func:`_rounds`, the expected points
    being averaged from every chart's reconstruction of its members before
    each phase-4 window.  When the whole schedule's member rows x epochs x
    flow layers reach ``POOL_MIN_ROW_LAYERS`` (and two workers are free),
    each chart lives in one :class:`pool.Pool` worker for all of training:
    its Isomap, its flows and optimiser states never leave that worker, and
    each round returns only its rows and reconstruction, and the last its
    flows.  Otherwise every chart's Isomap runs first, then the rounds loop
    in-process.  ``log_rows``, when given, receives one dict per (phase,
    epoch, chart) with epoch-averaged loss components, in (phase, epoch,
    chart) order, through ``append`` only; either way a failure raises what
    the in-process loop would, after the rows before it.
    """
    x_all = points.points if isinstance(points, PointCloud) else np.asarray(points, dtype=float)
    n_points, dim = x_all.shape
    if cover.n_points != n_points:
        raise CoverError(f"cover indexes {cover.n_points} points, data has {n_points}")
    n = cfg.latent_dim
    e1, e2, e3, e4, _ = cfg.epochs

    c = disintegration_weights(cover)

    seeds = np.random.SeedSequence(cfg.seed).spawn(2 * cover.n_charts)
    states = [
        _ChartState(
            chart_id=k, members=np.asarray(members, dtype=int), x=x_all[members],
            init_rng=np.random.default_rng(seeds[2 * k]), rng=np.random.default_rng(seeds[2 * k + 1]),
        )
        for k, members in enumerate(cover.charts)
    ]
    embed = e1 > 0 or (e2 + e3 + e4) > 0
    rounds = _rounds(cfg)
    n_epochs = sum(last - first + 1 for segments in rounds for _, _, first, last in segments)
    costs = [st.members.size * n_epochs * 2 * cfg.n_layers for st in states]
    n_workers = pool.pooled_workers(costs, POOL_MIN_ROW_LAYERS)
    if n_workers == 1:
        flows = _schedule(rounds, cover, partial(_round_in_process, states, embed, cover, x_all, cfg, log_rows))
    else:
        jobs = [partial(_chart_job, st, embed, cover, x_all, cfg) for st in states]
        with pool.Pool(jobs, costs, n_workers) as workers:
            flows = _schedule(rounds, cover, partial(_round_pooled, workers, log_rows))

    charts = [
        ChartModel(chart_id=st.chart_id, members=st.members, phi=phi, gamma=gamma, c_k=float(c[st.chart_id]))
        for st, (phi, gamma) in zip(states, flows)
    ]
    return AtlasModel(dim=dim, latent_dim=n, charts=charts, cover=cover, config=cfg)


def _sample_chart(chart: ChartModel, w: np.ndarray) -> np.ndarray:
    v, _ = fl.stack_inverse(chart.gamma, w)
    return fl.embed_latent(chart.phi, v)


def sample(model: AtlasModel, count: int, rng: np.random.Generator):
    """Draw points from the atlas: chart ~ c_k, w ~ N(0, I), then map back.

    All labels, then every chart's ``w`` in chart order, are drawn here; the
    charts' flow passes then run through :func:`pool.run_jobs`.

    Returns (PointCloud, chart labels).
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    labels = rng.choice(model.cover.n_charts, size=count, p=model.c)
    jobs, costs, chart_rows = [], [], []
    for k, chart in enumerate(model.charts):
        rows = np.flatnonzero(labels == k)
        if rows.size:
            w = rng.normal(size=(rows.size, model.latent_dim))
            jobs.append(partial(_sample_chart, chart, w))
            costs.append(rows.size * (len(chart.gamma.layers) + len(chart.phi.layers)))
            chart_rows.append(rows)
    out = np.zeros((count, model.dim))
    for rows, points in zip(chart_rows, pool.run_jobs(jobs, costs, POOL_MIN_ROW_LAYERS)):
        out[rows] = points
    return PointCloud(points=out), labels


def chart_log_density(model: AtlasModel, v: np.ndarray, k: int, xr: np.ndarray) -> np.ndarray:
    """log p of chart k at the points whose chart-k latent codes are ``v``,
    including the embedding volume term.  ``xr`` holds chart k's embedding
    of ``v``, ``fl.embed_latent(phi_k, v)``."""
    chart = model.charts[k]
    n = model.latent_dim
    w, ld = fl.stack_forward(chart.gamma, v)
    log_normal = -0.5 * n * LOG_TWO_PI - 0.5 * (w * w).sum(axis=1)
    gram = fl.embedding_gram_logdet(chart.phi, n, v, xr)
    return log_normal + ld - gram


def _chart_reconstruction(phi: fl.FlowStack, n: int, x: np.ndarray):
    """fl.reconstruct, keeping the latent codes: (z[:, :n], xr, |xr - x|)."""
    z, _ = fl.stack_forward(phi, x)
    xr, _ = fl.stack_inverse(phi, fl.project(z, n))
    return z[:, :n], xr, np.linalg.norm(xr - x, axis=1)


def log_density(model: AtlasModel, x: np.ndarray) -> np.ndarray:
    """Manifold log-density log sum_k c_k p_k(x) of a (rows, dim) batch.

    A chart participates when its reconstruction of x lands within
    ``model.config.membership_threshold``; the nearest chart always
    participates so the result stays finite.  Two rounds of per-chart jobs
    run through :func:`pool.run_jobs`: every chart's reconstruction of every
    row, then each chart's density on the rows it includes.
    """
    n = model.latent_dim
    recon = pool.run_jobs(
        [partial(_chart_reconstruction, cm.phi, n, x) for cm in model.charts],
        [x.shape[0] * 2 * len(cm.phi.layers) for cm in model.charts],
        POOL_MIN_ROW_LAYERS,
    )
    recon_err = np.stack([err for _, _, err in recon])
    include = recon_err <= model.config.membership_threshold
    include[recon_err.argmin(axis=0), np.arange(x.shape[0])] = True
    jobs, costs, included = [], [], []
    for k, (cm, (v, xr, _)) in enumerate(zip(model.charts, recon)):
        rows = np.flatnonzero(include[k])
        if rows.size:
            jobs.append(partial(chart_log_density, model, v[rows], k, xr[rows]))
            costs.append(rows.size * (len(cm.gamma.layers) + n * len(cm.phi.layers)))
            included.append((k, rows))
    log_terms = np.full((model.cover.n_charts, x.shape[0]), -np.inf)
    for (k, rows), terms in zip(included, pool.run_jobs(jobs, costs, POOL_MIN_ROW_LAYERS)):
        log_terms[k, rows] = math.log(model.charts[k].c_k) + terms
    m = log_terms.max(axis=0)
    return m + np.log(np.exp(log_terms - m).sum(axis=0))


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
                "activation": "tanh",
                "weights": [_pack(w) for w in layer.conditioner.weights],
                "biases": [_pack(b) for b in layer.conditioner.biases],
            }
        else:
            entry["raw"] = [_pack(a) for a in layer.raw]
        layers.append(entry)
    return {"dim": f.dim, "layers": layers}


def _conditioner_from_dict(entry: dict) -> fl.MlpParams:
    params = fl.MlpParams(
        weights=_decode(entry, "weights", _each(_unpack)),
        biases=_decode(entry, "biases", _each(_unpack)),
    )
    activation = _decode(entry, "activation", str)
    if activation != "tanh":
        raise _Malformed(["activation"], f"{activation!r} unsupported: hidden layers are tanh")
    return params


def _flow_from_dict(payload: dict) -> fl.FlowStack:
    dim = _decode(payload, "dim", int)

    def layer(entry: dict) -> fl.CouplingLayer:
        cond = raw = None
        if "conditioner" in entry:
            cond = _decode(entry, "conditioner", _conditioner_from_dict)
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
        "cover": cover_to_dict(model.cover),
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
            cover=_decode(payload, "cover", cover_from_dict),
            config=_decode(payload, "config", lambda c: TrainConfig(**c)),
        )
        for i, (cm, members) in enumerate(zip(fields["charts"], fields["cover"].charts)):
            if not np.array_equal(cm.members, members):
                raise _Malformed(["charts", i, "members"], f"differ from cover.charts[{i}]")
        return AtlasModel(**fields)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
