"""A frozen copy of the row-major spline kernel, the oracle for ``flow``'s
bins-major one.

Here each layer's spline parameters are laid out ``(rows, m, K)``: every
per-bin reduction (softmax max and sum, cumsum, bin search) runs along the
short last axis, and knots are gathered by flat ``row * (K + 1) + bin``
offsets.  ``tests/test_spline_layout.py`` checks that ``flow`` gives the same
bytes for every value, log-determinant and gradient.  Do not edit the
arithmetic below: it is the reference.
"""

import numpy as np

from atlasflow.flow import _DERIV_NORM, _DERIV_OFFSET, MIN_BIN_FRACTION, MIN_DERIVATIVE, RAW_CAP, CouplingLayer
from atlasflow.nnopt import mlp_forward_cached, mlp_vjp_cached


def _softmax(u: np.ndarray) -> np.ndarray:
    z = u - u.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _normalize_spline(uw, uh, ud, bound):
    """Raw parameters -> bin widths/heights, knot edges, knot derivatives.

    Bin fractions are a softmax with a small floor and the K-1 interior knot
    derivatives a shifted softplus, so zero raw parameters give the identity;
    the boundary derivatives are pinned to 1 so the map is C^1 at the bound.
    """
    k = uw.shape[-1]
    scale = 2.0 * bound * (1.0 - MIN_BIN_FRACTION * k)
    pw = _softmax(uw)
    ph = _softmax(uh)
    w = 2.0 * bound * MIN_BIN_FRACTION + scale * pw
    h = 2.0 * bound * MIN_BIN_FRACTION + scale * ph
    ew = np.empty(uw.shape[:-1] + (k + 1,))
    eh = np.empty(ew.shape)
    for edges, widths in ((ew, w), (eh, h)):
        np.cumsum(widths, axis=-1, out=edges[..., 1:])
        edges[..., 1:] -= bound
        edges[..., 0] = -bound
        edges[..., -1] = bound
    u = ud + _DERIV_OFFSET
    sig = 1.0 / (1.0 + np.exp(-u))
    d = np.ones(ew.shape)
    d[..., 1:-1] = (MIN_DERIVATIVE + np.logaddexp(0.0, u)) / _DERIV_NORM
    return pw, ph, w, h, ew, eh, d, sig


def _bin_eval(xi, s, coef, dk, dk1, hk, yk):
    """In-bin value, derivative, and intermediates at normalized position xi."""
    a = xi * (1.0 - xi)
    dd = s + coef * a
    nsum = s * xi * xi + dk * a
    bigN = hk * nsum
    y = yk + bigN / dd
    p = dk1 * xi * xi + 2.0 * s * a + dk * (1.0 - xi) ** 2
    r = s * s * p / (dd * dd)
    return y, r, a, dd, nsum, bigN, p


def _spline_apply(uw, uh, ud, bound, t, inverse=False):
    """Evaluate the spline (or its inverse) on a flat element array ``t``.

    Returns (out, dlogdet, cache).  dlogdet is log f'(x) for the forward map
    and -log f'(x) at the preimage for the inverse.
    """
    pw, ph, w, h, ew, eh, d, sig = _normalize_spline(uw, uh, ud, bound)
    k = uw.shape[-1]
    inside = np.abs(t) <= bound
    tc = np.clip(t, -bound, bound)
    if inverse:
        binno = (tc[..., None] >= eh[..., 1:-1]).sum(axis=-1)
    else:
        binno = (tc[..., None] >= ew[..., 1:-1]).sum(axis=-1)
    # flat positions of each element's bin in the (..., K+1) edge/derivative
    # arrays and in the (..., K) width/height arrays
    row = np.arange(binno.size)
    bin_flat = binno.reshape(-1)
    at_edge = row * (k + 1) + bin_flat
    at_bin = row * k + bin_flat
    xk = ew.reshape(-1)[at_edge].reshape(binno.shape)
    yk = eh.reshape(-1)[at_edge].reshape(binno.shape)
    dk = d.reshape(-1)[at_edge].reshape(binno.shape)
    dk1 = d.reshape(-1)[at_edge + 1].reshape(binno.shape)
    wk = w.reshape(-1)[at_bin].reshape(binno.shape)
    hk = h.reshape(-1)[at_bin].reshape(binno.shape)
    s = hk / wk
    coef_num = dk1 + dk - 2.0 * s
    if inverse:
        rel = tc - yk
        qa = rel * coef_num + hk * (s - dk)
        qb = hk * dk - rel * coef_num
        qc = -s * rel
        disc = np.maximum(qb * qb - 4.0 * qa * qc, 0.0)
        xi = 2.0 * qc / (-qb - np.sqrt(disc))
        xi = np.clip(xi, 0.0, 1.0)
        # Newton polish: the closed form loses digits in very flat or very
        # steep bins, which matters once layers are composed.
        for _ in range(2):
            y_cur, r_cur, *_ = _bin_eval(xi, s, coef_num, dk, dk1, hk, yk)
            xi = np.clip(xi - (y_cur - tc) / (r_cur * wk), 0.0, 1.0)
    else:
        xi = (tc - xk) / wk
    y, r, a, dd, nsum, bigN, p = _bin_eval(xi, s, coef_num, dk, dk1, hk, yk)
    logr = 2.0 * np.log(s) + np.log(p) - 2.0 * np.log(dd)
    if inverse:
        out = np.where(inside, xk + xi * wk, t)
        dlogdet = np.where(inside, -logr, 0.0)
    else:
        out = np.where(inside, y, t)
        dlogdet = np.where(inside, logr, 0.0)
    cache = {
        "uw": uw, "uh": uh, "ud": ud, "bound": bound,
        "pw": pw, "ph": ph, "sig": sig,
        "inside": inside, "bin": binno,
        "xi": xi, "s": s, "a": a, "coef": coef_num,
        "dd": dd, "nsum": nsum, "bigN": bigN, "p": p,
        "wk": wk, "hk": hk, "dk": dk, "dk1": dk1,
        "r": r,
    }
    return out, dlogdet, cache


def _core_backward(cache, gy, gl):
    """Partials of (y, log f'(x)) w.r.t. x and the normalized parameter
    blocks, scattered back to the raw parameter arrays."""
    xi, s, a = cache["xi"], cache["s"], cache["a"]
    dd, nsum, bigN, p = cache["dd"], cache["nsum"], cache["bigN"], cache["p"]
    wk, hk, dk, dk1 = cache["wk"], cache["hk"], cache["dk"], cache["dk1"]
    coef = cache["coef"]
    binno = cache["bin"]
    k = cache["uw"].shape[-1]

    g_n = gy / dd
    g_dd = -gy * bigN / (dd * dd) - 2.0 * gl / dd
    g_p = gl / p
    g_s = g_n * hk * xi * xi + g_dd * (1.0 - 2.0 * a) + g_p * 2.0 * a + gl * 2.0 / s
    g_xi = (
        g_n * hk * (2.0 * s * xi + dk * (1.0 - 2.0 * xi))
        + g_dd * coef * (1.0 - 2.0 * xi)
        + g_p * (2.0 * dk1 * xi + 2.0 * s * (1.0 - 2.0 * xi) - 2.0 * dk * (1.0 - xi))
    )
    g_dk = g_n * hk * a + g_dd * a + g_p * (1.0 - xi) ** 2
    g_dk1 = g_dd * a + g_p * xi * xi
    g_hk = g_n * nsum + g_s / wk
    g_yk = gy
    g_wk = -g_s * s / wk - g_xi * xi / wk
    g_xk = -g_xi / wk
    g_x = g_xi / wk

    idx = np.arange(k)
    before = idx < binno[..., None]  # contributes through the left edge
    at = idx == binno[..., None]
    g_w = g_xk[..., None] * before + g_wk[..., None] * at
    g_h = g_yk[..., None] * before + g_hk[..., None] * at
    g_d = np.zeros(binno.shape + (k + 1,))
    at_edge = np.arange(binno.size) * (k + 1) + binno.reshape(-1)
    g_d.reshape(-1)[at_edge] += g_dk.reshape(-1)
    g_d.reshape(-1)[at_edge + 1] += g_dk1.reshape(-1)
    return g_x, g_w, g_h, g_d


def _raw_gradients(cache, g_w, g_h, g_d):
    """Chain normalized-parameter gradients through softmax / softplus."""
    k = cache["uw"].shape[-1]
    scale = 2.0 * cache["bound"] * (1.0 - MIN_BIN_FRACTION * k)
    pw, ph, sig = cache["pw"], cache["ph"], cache["sig"]
    gw = scale * g_w
    gh = scale * g_h
    g_uw = pw * (gw - (gw * pw).sum(axis=-1, keepdims=True))
    g_uh = ph * (gh - (gh * ph).sum(axis=-1, keepdims=True))
    g_ud = g_d[..., 1:-1] * sig / _DERIV_NORM
    return g_uw, g_uh, g_ud


def _spline_vjp(cache, gy, gl):
    """VJP of the forward map: cotangents on (y, dlogdet) -> (x, raw params)."""
    inside = cache["inside"]
    gy_in = np.where(inside, gy, 0.0)
    gl_in = np.where(inside, gl, 0.0)
    g_x, g_w, g_h, g_d = _core_backward(cache, gy_in, gl_in)
    g_x = np.where(inside, g_x, gy)
    keep = inside[..., None]
    g_uw, g_uh, g_ud = _raw_gradients(cache, g_w * keep, g_h * keep, g_d * keep)
    return g_x, g_uw, g_uh, g_ud


def _spline_inverse_vjp(cache, gx):
    """VJP of the inverse map via the implicit function theorem."""
    inside = cache["inside"]
    r = cache["r"]
    gx_in = np.where(inside, gx, 0.0)
    g_y = np.where(inside, gx / r, gx)
    # dx/dtheta = -f_theta(x)/f'(x): reuse the forward partials at the preimage
    _, g_w, g_h, g_d = _core_backward(cache, -gx_in / r, np.zeros_like(gx_in))
    keep = inside[..., None]
    g_uw, g_uh, g_ud = _raw_gradients(cache, g_w * keep, g_h * keep, g_d * keep)
    return g_y, g_uw, g_uh, g_ud


def _soft_cap(u: np.ndarray) -> np.ndarray:
    return RAW_CAP * np.tanh(u / RAW_CAP)


def _soft_cap_grad(capped: np.ndarray) -> np.ndarray:
    return 1.0 - (capped / RAW_CAP) ** 2


def _layer_raw(layer: CouplingLayer, x_id: np.ndarray):
    """Soft-capped raw spline parameter blocks (b, m, K / K / K-1) plus the
    conditioner's cache: its MLP cache and the capped output ``theta``, of
    which the three blocks are views (None for an unconditional layer)."""
    b = x_id.shape[0]
    m = layer.tr_idx.size
    k = layer.n_bins
    if layer.conditioner is None:
        uw = np.broadcast_to(layer.raw[0], (b, m, k))
        uh = np.broadcast_to(layer.raw[1], (b, m, k))
        ud = np.broadcast_to(layer.raw[2], (b, m, k - 1))
        return _soft_cap(uw), _soft_cap(uh), _soft_cap(ud), None
    out, mlp_cache = mlp_forward_cached(layer.conditioner, x_id / layer.bound)
    theta = _soft_cap(out.reshape(b, m, 3 * k - 1))
    return theta[..., :k], theta[..., k : 2 * k], theta[..., 2 * k :], (mlp_cache, theta)


def _coupling_pass(layer: CouplingLayer, x: np.ndarray, inverse: bool):
    """The layer's map (its inverse if ``inverse``) on a batch: (out, logdet, cache)."""
    if x.shape[-1] != layer.dim:
        raise ValueError(f"input dim {x.shape[-1]} != layer dim {layer.dim}")
    uw, uh, ud, cond_cache = _layer_raw(layer, x[:, layer.id_idx])
    t, ld_elem, sp_cache = _spline_apply(uw, uh, ud, layer.bound, x[:, layer.tr_idx], inverse=inverse)
    out = x.copy()
    if not (uw.any() or uh.any() or ud.any()):
        return out, np.zeros(x.shape[0]), (cond_cache, sp_cache)
    out[:, layer.tr_idx] = t
    return out, ld_elem.sum(axis=-1), (cond_cache, sp_cache)


def coupling_forward_vjp(layer: CouplingLayer, cache, gy: np.ndarray, glogdet):
    """Cotangents on (y, logdet) -> (grad params, grad x)."""
    sp_cache = cache[1]
    gl = np.zeros(sp_cache["xi"].shape) if glogdet is None else np.broadcast_to(
        np.asarray(glogdet, dtype=float)[:, None], sp_cache["xi"].shape
    )
    g_t, g_uw, g_uh, g_ud = _spline_vjp(sp_cache, gy[:, layer.tr_idx], gl)
    gx = gy.copy()
    gx[:, layer.tr_idx] = g_t
    return _assemble_param_grads(layer, cache, g_uw, g_uh, g_ud, gx)


def coupling_inverse_vjp(layer: CouplingLayer, cache, gx: np.ndarray):
    """Cotangent on x (values only) -> (grad params, grad y)."""
    sp_cache = cache[1]
    g_t, g_uw, g_uh, g_ud = _spline_inverse_vjp(sp_cache, gx[:, layer.tr_idx])
    gy = gx.copy()
    gy[:, layer.tr_idx] = g_t
    return _assemble_param_grads(layer, cache, g_uw, g_uh, g_ud, gy)


def _assemble_param_grads(layer, cache, g_uw, g_uh, g_ud, g_full):
    cond_cache, sp_cache = cache
    # chain through the soft cap on the raw parameters
    if layer.conditioner is None:
        grads = [
            (g * _soft_cap_grad(sp_cache[key])).sum(axis=0)
            for g, key in ((g_uw, "uw"), (g_uh, "uh"), (g_ud, "ud"))
        ]
        return grads, g_full
    mlp_cache, theta = cond_cache
    theta_cot = np.concatenate([g_uw, g_uh, g_ud], axis=-1)
    theta_cot *= _soft_cap_grad(theta)
    grads, g_in = mlp_vjp_cached(layer.conditioner, mlp_cache, theta_cot.reshape(theta.shape[0], -1))
    g_full[:, layer.id_idx] += g_in / layer.bound
    return grads, g_full
