"""The bins-major spline kernel against a frozen row-major copy of it.

``rowmajor_spline`` holds the kernel as it was when spline parameters were
laid out (rows, m, K).  The bins-major kernel in ``flow`` reorders the per-bin
work, not the arithmetic, so every value, log-determinant and gradient must
come out bit for bit the same."""

import numpy as np
import pytest

import rowmajor_spline as old
from atlasflow import flow as fl
from atlasflow.nnopt import init_mlp


def _same(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape and new.tobytes() == ref.tobytes()


def _bins_major(a):
    return np.ascontiguousarray(np.moveaxis(a, -1, 0))


def test_pairwise_sum_matches_np_sum():
    # fewer than 8 items, the 8-way unroll with every remainder, and the
    # split in halves above 128 items
    rng = np.random.default_rng(0)
    for k in range(1, 301):
        signed = rng.normal(size=(16, 2, k)) * np.exp(4.0 * rng.normal(size=(16, 2, k)))
        for a in (signed, np.abs(signed), np.full((1, 2, k), -0.0)):
            _same(fl.pairwise_sum(_bins_major(a)), a.sum(axis=-1))


def _inputs(rng, rows, m, bound):
    """Values inside and outside [-bound, bound], with the bound itself."""
    t = rng.normal(size=(rows, m)) * 0.7 * bound
    t.reshape(-1)[::7] = bound
    t.reshape(-1)[3::11] = -bound
    return t


@pytest.mark.parametrize("rows", [1, 256, 5000])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("k", [2, 3, 7, 8, 9, 17, 130])
def test_spline_matches_row_major(k, m, rows):
    rng = np.random.default_rng(1000 * k + 10 * m + rows)
    bound = 3.0
    raw = [rng.normal(size=(rows, m, k)) * 2.0, rng.normal(size=(rows, m, k)) * 2.0,
           rng.normal(size=(rows, m, k - 1)) * 2.0]
    t = _inputs(rng, rows, m, bound)
    gy, gl = rng.normal(size=(2, rows, m))
    for inverse in (False, True):
        out, ld, cache = old._spline_apply(*raw, bound, t, inverse=inverse)
        new_out, new_ld, new_cache = fl._spline_apply(*map(_bins_major, raw), bound, t, inverse=inverse)
        _same(new_out, out)
        _same(new_ld, ld)
        if inverse:
            grads = old._spline_inverse_vjp(cache, gy)
            new_grads = fl._spline_inverse_vjp(new_cache, gy)
        else:
            grads = old._spline_vjp(cache, gy, gl)
            new_grads = fl._spline_vjp(new_cache, gy, gl)
        _same(new_grads[0], grads[0])
        for g_new, g in zip(new_grads[1:], grads[1:]):
            _same(np.moveaxis(g_new, 0, -1), g)


def _layer(k, m, conditioned, rng, scale):
    """A coupling layer transforming the first m of m+1 coordinates, random
    at ``scale`` (0 is the identity)."""
    dim = m + 1
    tr, ident = np.arange(m), np.array([m])
    if conditioned:
        cond = init_mlp([1, 8, m * (3 * k - 1)], rng)
        layer = fl.CouplingLayer(dim=dim, id_idx=ident, tr_idx=tr, n_bins=k, bound=3.0, conditioner=cond)
    else:
        layer = fl.CouplingLayer(dim=dim, id_idx=ident, tr_idx=tr, n_bins=k, bound=3.0)
    layer.set_parameters([scale * rng.normal(size=p.shape) for p in layer.parameters()])
    return layer


@pytest.mark.parametrize("rows", [1, 256, 5000])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("k", [2, 3, 7, 8, 9, 17, 130])
@pytest.mark.parametrize("conditioned", [True, False], ids=["conditioned", "unconditional"])
def test_layer_matches_row_major(conditioned, k, m, rows):
    rng = np.random.default_rng(7 * k + 3 * m + rows)
    for scale in (1.5, 0.0):
        layer = _layer(k, m, conditioned, rng, scale)
        x = np.column_stack([_inputs(rng, rows, m, layer.bound), rng.normal(size=rows)])
        gy, glogdet = rng.normal(size=x.shape), rng.normal(size=rows)
        for inverse in (False, True):
            out, ld, cache = old._coupling_pass(layer, x, inverse)
            new_out, new_ld, new_cache = fl._coupling_pass(layer, x, inverse)
            _same(new_out, out)
            _same(new_ld, ld)
            if inverse:
                (grads, g), (new_grads, new_g) = (vjp(layer, c, gy) for vjp, c in (
                    (old.coupling_inverse_vjp, cache), (fl.coupling_inverse_vjp, new_cache)))
            else:
                (grads, g), (new_grads, new_g) = (vjp(layer, c, gy, glogdet) for vjp, c in (
                    (old.coupling_forward_vjp, cache), (fl.coupling_forward_vjp, new_cache)))
            _same(new_g, g)
            assert len(new_grads) == len(grads)
            for g_new, g_ref in zip(new_grads, grads):
                _same(g_new, g_ref)
