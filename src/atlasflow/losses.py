"""Training objectives for coordinate maps and density maps.

Each loss returns ``(value, grads)`` with gradients in the flow's
``parameters()`` order, produced by the hand-written VJPs in :mod:`flow`;
:func:`manifold_loss_parts` also returns its two components and its passes.
Squared Euclidean norms are used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cover import ChartCover
from .errors import StaleExpectedPointsError
from .flow import (
    FlowStack,
    add_grads,
    project,
    stack_forward,
    stack_forward_cached,
    stack_forward_vjp,
    stack_inverse,
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


def manifold_loss_parts(flow: FlowStack, n: int, batch: Batch, lam: float):
    """lam * distance loss + (1 - lam) * reconstruction loss, one shared pass.

    Returns ``(loss, grads, parts, passes)``: ``parts`` holds both component
    values, ``recon`` (mean squared distance between points and their chart
    projections) and ``dist`` (mean squared mismatch between latent distances
    and the reference geodesics ``batch.d_ref``), even when one carries zero
    weight; a zero-weight term gets no gradient.  ``passes`` are the batch's
    :class:`Passes`, for :func:`compatibility_loss` on the same batch.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"loss weight {lam} outside [0, 1]")
    if batch.d_ref is None:
        raise ValueError("pairwise distance loss requires d_ref in the batch")
    b = batch.size
    if b < 2:
        raise ValueError("pairwise distance loss needs batch size >= 2")
    x = batch.x
    z, _, fwd_caches = stack_forward_cached(flow, x)
    xr, _, inv_caches = stack_inverse_cached(flow, project(z, n))
    gz = np.zeros_like(z)
    grads = None

    diff = xr - x
    recon_val = float((diff * diff).sum() / b)
    if lam < 1.0:
        gxr = (2.0 * (1.0 - lam) / b) * diff
        gzp, grads = stack_inverse_vjp(flow, inv_caches, gxr)
        gz[:, :n] += gzp[:, :n]

    v = z[:, :n]
    diffs = v[:, None, :] - v[None, :, :]
    dist = np.sqrt((diffs * diffs).sum(axis=-1))
    err = batch.d_ref - dist
    denom = b * (b - 1)
    dist_val = float((err * err).sum() / denom)
    if lam > 0.0:
        safe = dist > 0
        w = np.where(safe, -2.0 * err / np.where(safe, dist, 1.0), 0.0) / denom
        gz[:, :n] += 2.0 * lam * np.einsum("ij,ijk->ik", w, diffs)

    _, fwd_grads = stack_forward_vjp(flow, fwd_caches, gz)
    grads = fwd_grads if grads is None else add_grads(grads, fwd_grads)
    total = lam * dist_val + (1.0 - lam) * recon_val
    return total, grads, {"recon": recon_val, "dist": dist_val}, Passes(z, fwd_caches, xr, inv_caches)


def expected_points(
    flows: list[FlowStack], n: int, cover: ChartCover, points: np.ndarray, epoch: int = 0
) -> ExpectedPoints:
    """Average of per-chart reconstructions for every covered point."""
    if len(flows) != cover.n_charts:
        raise ValueError("one flow per chart required")
    points = np.asarray(points, dtype=float)
    cover.validate()
    sums = np.zeros_like(points)
    for flow, members in zip(flows, cover.charts):
        xk = points[members]
        z, _ = stack_forward(flow, xk)
        xr, _ = stack_inverse(flow, project(z, n))
        sums[members] += xr
    xhat = sums / cover.multiplicity[:, None]
    return ExpectedPoints(xhat=xhat, epoch=epoch)


def compatibility_loss(
    flow: FlowStack,
    n: int,
    batch: Batch,
    expected: ExpectedPoints,
    passes: Passes,
    epoch: int | None = None,
    max_age: int | None = None,
):
    """Mean squared gap between this chart's reconstruction and the expected
    point, over the overlap points (multiplicity >= 2) of the batch.

    The expected points are constants: no gradient flows through them.
    ``passes`` are the forward and reconstruction passes of ``flow`` on
    ``batch.x``, as :func:`manifold_loss_parts` returns them.
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
    """Negative log-likelihood of a (rows, n) batch of latents under the
    flow-pushed standard normal.

    The embedding volume term is intentionally omitted here; it is applied
    at evaluation time only.
    """
    if not np.all(np.isfinite(latents)):
        raise ValueError("latents contain non-finite entries")
    b, n = latents.shape
    w, ld, caches = stack_forward_cached(flow, latents)
    log_normal = -0.5 * n * LOG_TWO_PI - 0.5 * (w * w).sum(axis=1)
    loss = float(-(log_normal + ld).mean())
    gw = w / b
    glogdet = np.full(b, -1.0 / b)
    _, grads = stack_forward_vjp(flow, caches, gw, glogdet)
    return loss, grads
