"""Training objectives for coordinate maps and density maps.

Each loss returns ``(value, grads)`` with gradients in the flow's
``parameters()`` order, produced by the hand-written VJPs in :mod:`flow`.
Squared Euclidean norms are used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cover import ChartCover
from .errors import CoverError, StaleExpectedPointsError
from .flow import (
    FlowStack,
    add_grads,
    project,
    stack_forward_cached,
    stack_forward_vjp,
    stack_inverse_cached,
    stack_inverse_vjp,
)

LOG_TWO_PI = math.log(2.0 * math.pi)


@dataclass
class Batch:
    """A minibatch drawn from one chart's member list.

    ``indices`` are global point indices; ``r`` are dimension-reduction
    targets, ``d_ref`` the geodesic distance submatrix and ``multiplicity``
    the per-point chart counts, each present only when the loss needs them.
    """

    indices: np.ndarray
    x: np.ndarray
    r: np.ndarray | None = None
    d_ref: np.ndarray | None = None
    multiplicity: np.ndarray | None = None

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=int)
        self.x = np.asarray(self.x, dtype=float)
        if self.x.shape[0] != self.indices.shape[0]:
            raise ValueError("x rows != number of indices")
        if self.d_ref is not None:
            self.d_ref = np.asarray(self.d_ref, dtype=float)
            b = self.x.shape[0]
            if self.d_ref.shape != (b, b):
                raise ValueError("d_ref must be (b, b)")

    @property
    def size(self) -> int:
        return self.x.shape[0]


class Passes(NamedTuple):
    """A flow's forward pass on a batch and the inverse pass of its
    projection, with the caches their VJPs read."""

    z: np.ndarray
    fwd_caches: list
    xr: np.ndarray
    inv_caches: list


@dataclass
class ExpectedPoints:
    """Per-point average of chart reconstructions, stamped with the epoch it
    was computed in so consumers can detect staleness."""

    xhat: np.ndarray
    epoch: int = 0


def pretraining_loss(flow: FlowStack, batch: Batch):
    """Mean squared gap between latent codes and reference embedding rows."""
    if batch.r is None:
        raise ValueError("pretraining requires reference rows in the batch")
    b = batch.size
    n = batch.r.shape[1]
    z, _, caches = stack_forward_cached(flow, batch.x)
    diff = z[:, :n] - batch.r
    loss = float((diff * diff).sum() / b)
    gz = np.zeros_like(z)
    gz[:, :n] = 2.0 * diff / b
    _, grads = stack_forward_vjp(flow, caches, gz)
    return loss, grads


def reconstruction_loss(flow: FlowStack, n: int, batch: Batch):
    """Mean squared distance between points and their chart projections."""
    loss, grads, _, _ = _manifold_terms(flow, n, batch, want_recon=True, want_dist=False)
    return loss, grads


def pairwise_distance_loss(flow: FlowStack, n: int, batch: Batch):
    """Mean squared mismatch between latent distances and reference geodesics."""
    loss, grads, _, _ = _manifold_terms(flow, n, batch, want_recon=False, want_dist=True)
    return loss, grads


def manifold_loss(flow: FlowStack, n: int, batch: Batch, lam: float):
    """lam * distance loss + (1 - lam) * reconstruction loss, one shared pass."""
    loss, grads, _ = manifold_loss_parts(flow, n, batch, lam)
    return loss, grads


def manifold_loss_parts(
    flow: FlowStack, n: int, batch: Batch, lam: float, all_parts: bool = False, keep_passes: bool = False
):
    """Like :func:`manifold_loss` but also reports the two components.

    ``all_parts`` forces both component values to be evaluated even when one
    carries zero weight (its gradient is still skipped); the trainer uses
    this so loss curves are complete.  ``keep_passes`` appends the batch's
    :class:`Passes` (None when no reconstruction was computed) to the
    result, for :func:`compatibility_loss` on the same batch.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"loss weight {lam} outside [0, 1]")
    want_recon = lam < 1.0
    want_dist = lam > 0.0
    if want_recon and want_dist:
        total, grads, parts, passes = _manifold_terms(flow, n, batch, True, True, lam)
    elif want_dist:
        dist, grads, _, passes = _manifold_terms(flow, n, batch, False, True)
        recon = _reconstruction_value(flow, n, batch) if all_parts else 0.0
        total, parts = dist, {"recon": recon, "dist": dist}
    else:
        recon, grads, _, passes = _manifold_terms(flow, n, batch, True, False)
        total, parts = recon, {"recon": recon, "dist": 0.0}
    if keep_passes:
        return total, grads, parts, passes
    return total, grads, parts


def _reconstruction_value(flow: FlowStack, n: int, batch: Batch) -> float:
    z, _, _ = stack_forward_cached(flow, batch.x)
    xr, _, _ = stack_inverse_cached(flow, project(z, n))
    diff = xr - batch.x
    return float((diff * diff).sum() / batch.size)


def _manifold_terms(flow, n, batch, want_recon, want_dist, lam=None):
    """Shared forward pass for the reconstruction and distance terms.

    When ``lam`` is given the returned loss/grads are the lam-weighted
    combination; otherwise they belong to whichever single term was asked
    for.  The last result is the batch's :class:`Passes`, or None when the
    reconstruction term was not asked for.
    """
    b = batch.size
    x = batch.x
    z, _, fwd_caches = stack_forward_cached(flow, x)
    gz = np.zeros_like(z)
    grads = passes = None
    recon_val = dist_val = 0.0

    w_recon = (1.0 - lam) if lam is not None else 1.0
    w_dist = lam if lam is not None else 1.0

    if want_recon:
        xr, _, inv_caches = stack_inverse_cached(flow, project(z, n))
        diff = xr - x
        recon_val = float((diff * diff).sum() / b)
        gxr = (2.0 * w_recon / b) * diff
        gzp, inv_grads = stack_inverse_vjp(flow, inv_caches, gxr)
        gz[:, :n] += gzp[:, :n]
        grads = inv_grads
        passes = Passes(z, fwd_caches, xr, inv_caches)

    if want_dist:
        if batch.d_ref is None:
            raise ValueError("pairwise distance loss requires d_ref in the batch")
        if b < 2:
            raise ValueError("pairwise distance loss needs batch size >= 2")
        v = z[:, :n]
        diffs = v[:, None, :] - v[None, :, :]
        dist = np.sqrt((diffs * diffs).sum(axis=-1))
        err = batch.d_ref - dist
        denom = b * (b - 1)
        dist_val = float((err * err).sum() / denom)
        safe = dist > 0
        w = np.where(safe, -2.0 * err / np.where(safe, dist, 1.0), 0.0) / denom
        gv = 2.0 * w_dist * np.einsum("ij,ijk->ik", w, diffs)
        gz[:, :n] += gv

    _, fwd_grads = stack_forward_vjp(flow, fwd_caches, gz)
    grads = fwd_grads if grads is None else add_grads(grads, fwd_grads)

    if lam is not None:
        total = lam * dist_val + (1.0 - lam) * recon_val
    elif want_dist:
        total = dist_val
    else:
        total = recon_val
    return total, grads, {"recon": recon_val, "dist": dist_val}, passes


def expected_points(
    flows: list[FlowStack], n: int, cover: ChartCover, points: np.ndarray, epoch: int = 0
) -> ExpectedPoints:
    """Average of per-chart reconstructions for every covered point."""
    if len(flows) != cover.n_charts:
        raise ValueError("one flow per chart required")
    points = np.asarray(points, dtype=float)
    if np.any(cover.multiplicity < 1):
        missing = int(np.flatnonzero(cover.multiplicity < 1)[0])
        raise CoverError(f"point {missing} not covered; cannot form expected points")
    sums = np.zeros_like(points)
    for flow, members in zip(flows, cover.charts):
        xk = points[members]
        z, _, _ = stack_forward_cached(flow, xk)
        xr, _, _ = stack_inverse_cached(flow, project(z, n))
        sums[members] += xr
    xhat = sums / cover.multiplicity[:, None]
    return ExpectedPoints(xhat=xhat, epoch=epoch)


def compatibility_loss(
    flow: FlowStack,
    n: int,
    batch: Batch,
    expected: ExpectedPoints,
    epoch: int | None = None,
    max_age: int | None = None,
    passes: Passes | None = None,
):
    """Mean squared gap between this chart's reconstruction and the expected
    point, over the overlap points (multiplicity >= 2) of the batch.

    The expected points are constants: no gradient flows through them.
    ``passes`` are the forward and reconstruction passes of ``flow`` on
    ``batch.x`` when the caller already ran them; they are then reused.
    """
    if epoch is not None and max_age is not None and epoch - expected.epoch >= max_age:
        raise StaleExpectedPointsError(
            f"expected points from epoch {expected.epoch} are stale at epoch {epoch} (C_s={max_age})"
        )
    if batch.multiplicity is None:
        raise ValueError("compatibility loss requires multiplicities in the batch")
    overlap = batch.multiplicity >= 2
    count = int(overlap.sum())
    if count == 0:
        return 0.0, [np.zeros_like(p) for p in flow.parameters()]
    if passes is None:
        z, _, fwd_caches = stack_forward_cached(flow, batch.x)
        xr, _, inv_caches = stack_inverse_cached(flow, project(z, n))
    else:
        z, fwd_caches, xr, inv_caches = passes
    diff = (xr - expected.xhat[batch.indices]) * overlap[:, None]
    loss = float((diff * diff).sum() / count)
    gxr = 2.0 * diff / count
    gzp, inv_grads = stack_inverse_vjp(flow, inv_caches, gxr)
    gz = np.zeros_like(z)
    gz[:, :n] = gzp[:, :n]
    _, fwd_grads = stack_forward_vjp(flow, fwd_caches, gz)
    return loss, add_grads(inv_grads, fwd_grads)


def density_nll(flow: FlowStack, latents: np.ndarray):
    """Negative log-likelihood of latents under the flow-pushed standard normal.

    The embedding volume term is intentionally omitted here; it is applied
    at evaluation time only.
    """
    v = np.atleast_2d(np.asarray(latents, dtype=float))
    if not np.all(np.isfinite(v)):
        raise ValueError("latents contain non-finite entries")
    b, n = v.shape
    w, ld, caches = stack_forward_cached(flow, v)
    log_normal = -0.5 * n * LOG_TWO_PI - 0.5 * (w * w).sum(axis=1)
    loss = float(-(log_normal + ld).mean())
    gw = w / b
    glogdet = np.full(b, -1.0 / b)
    _, grads = stack_forward_vjp(flow, caches, gw, glogdet)
    return loss, grads
