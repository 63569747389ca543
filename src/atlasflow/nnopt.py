"""Training machinery: small MLPs with hand-written reverse-mode gradients,
Adam with decoupled weight decay, cosine-annealed learning rates, and global
gradient clipping.

There is deliberately no general autodiff graph here.  The package only ever
differentiates a handful of fixed compositions (MLP conditioners inside
spline coupling layers), so each of those gets an explicit VJP, checked
against finite differences in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError


@dataclass
class MlpParams:
    """Fully-connected net: affine layers with tanh hidden activations and a
    linear output layer.

    ``weights[i]`` has shape (fan_in, fan_out); inputs are row vectors.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("weights/biases length mismatch")
        for w, b in zip(self.weights, self.biases):
            if w.shape[1] != b.shape[0]:
                raise ValueError(f"bias shape {b.shape} does not match weight {w.shape}")
        for wa, wb in zip(self.weights[:-1], self.weights[1:]):
            if wa.shape[1] != wb.shape[0]:
                raise ValueError("adjacent layer dims inconsistent")

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]

    def arrays(self) -> list[np.ndarray]:
        """Parameter arrays in a fixed order (W0, b0, W1, b1, ...)."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def replace_arrays(self, arrays: list[np.ndarray]) -> None:
        """Install arrays produced in :meth:`arrays` order."""
        it = iter(arrays)
        for i in range(len(self.weights)):
            self.weights[i] = next(it)
            self.biases[i] = next(it)


def init_mlp(
    sizes: list[int],
    rng: np.random.Generator,
    zero_last: bool = False,
) -> MlpParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases.

    ``zero_last`` zeroes the output layer, which makes any head that encodes
    "identity transform at zero" start exactly at the identity.
    """
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    if zero_last:
        weights[-1] = np.zeros_like(weights[-1])
    return MlpParams(weights=weights, biases=biases)


def mlp_forward_cached(params: MlpParams, x: np.ndarray):
    """Evaluate the net on a batch of row vectors; returns (output, cache)
    with the cache :func:`mlp_vjp_cached` reads."""
    h = np.asarray(x, dtype=float)
    if h.shape[-1] != params.in_dim:
        raise ValueError(f"input dim {h.shape[-1]} != expected {params.in_dim}")
    acts = [h]  # post-activation values per layer, starting with the input
    n_layers = len(params.weights)
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w
        z += b
        h = z if i == n_layers - 1 else np.tanh(z)
        acts.append(h)
    return h, acts


def mlp_vjp_cached(params: MlpParams, cache, cotangent: np.ndarray):
    """Gradients of cotangent^T . output w.r.t. parameters and input.

    Returns (grads, grad_x) with ``grads`` in :meth:`MlpParams.arrays` order.
    """
    acts = cache
    g = np.asarray(cotangent, dtype=float)
    if g.shape[-1] != params.out_dim:
        raise ValueError(f"cotangent dim {g.shape[-1]} != output dim {params.out_dim}")
    n_layers = len(params.weights)
    grad_w: list = [None] * n_layers
    grad_b: list = [None] * n_layers
    for i in range(n_layers - 1, -1, -1):
        if i != n_layers - 1:
            g = g * (1.0 - acts[i + 1] * acts[i + 1])
        grad_w[i] = acts[i].T @ g
        grad_b[i] = g.sum(axis=0)
        g = g @ params.weights[i].T
    ordered: list[np.ndarray] = []
    for w, b in zip(grad_w, grad_b):
        ordered.append(w)
        ordered.append(b)
    return ordered, g


@dataclass
class AdamState:
    """Bias-corrected Adam moments plus decoupled weight decay.

    ``m`` and ``v`` are flat vectors over the parameter arrays concatenated
    in order.
    """

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0


def init_adam(
    params: list[np.ndarray],
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> AdamState:
    size = sum(np.size(p) for p in params)
    return AdamState(
        m=np.zeros(size),
        v=np.zeros(size),
        beta1=beta1,
        beta2=beta2,
        eps=eps,
        weight_decay=weight_decay,
    )


def adam_step(
    state: AdamState,
    params: list[np.ndarray],
    grads: list[np.ndarray],
    lr: float,
) -> tuple[AdamState, list[np.ndarray]]:
    """One Adam update.  Weight decay is decoupled: applied to the parameters
    directly, before the moment-based update.

    The update runs once over all arrays concatenated; every element sees
    the same operations in the same order as a per-array update would, and
    the new parameters come back as views in the input shapes.
    """
    if len(params) != len(grads):
        raise ValueError("params/grads length mismatch")
    g = np.concatenate([np.ravel(a) for a in grads], dtype=float)
    if not np.isfinite(g).all():
        for i, a in enumerate(grads):
            if not np.all(np.isfinite(a)):
                bad = np.argwhere(~np.isfinite(np.atleast_1d(a)))[0]
                raise NumericError(f"non-finite gradient in array {i} at index {tuple(int(j) for j in bad)}")
    p = np.concatenate([np.ravel(a) for a in params], dtype=float)
    t = state.step + 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    if state.weight_decay:
        p *= 1.0 - lr * state.weight_decay
    state.m *= b1
    state.m += (1.0 - b1) * g
    g *= g
    g *= 1.0 - b2
    state.v *= b2
    state.v += g
    # p - lr * (m / c1) / (sqrt(v / c2) + eps)
    step = state.m / c1
    step *= lr
    denom = state.v / c2
    np.sqrt(denom, out=denom)
    denom += state.eps
    step /= denom
    p -= step
    new_params = []
    pos = 0
    for a in params:
        new_params.append(p[pos : pos + np.size(a)].reshape(np.shape(a)))
        pos += np.size(a)
    state.step = t
    return state, new_params


def clip_global_norm(grads: list[np.ndarray], max_norm: float) -> list[np.ndarray]:
    """Scale all gradients by max_norm/norm when the global L2 norm exceeds max_norm."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if norm <= max_norm:
        return grads
    scale = max_norm / norm
    return [g * scale for g in grads]


@dataclass
class LrSchedule:
    """Cosine annealing from ``initial`` at step 0 to 0 at ``total_steps``."""

    initial: float
    total_steps: int

    def __post_init__(self):
        if self.initial <= 0:
            raise ValueError("initial rate must be positive")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")


def lr_at(schedule: LrSchedule, step: int) -> float:
    if step < 0 or step > schedule.total_steps:
        raise ValueError(f"step {step} outside [0, {schedule.total_steps}]")
    return schedule.initial * 0.5 * (1.0 + math.cos(math.pi * step / schedule.total_steps))
