import math

import numpy as np
import pytest

from atlasflow import nnopt
from atlasflow.errors import NumericError


def _forward_then_vjp(params, x, cotangent):
    _, cache = nnopt.mlp_forward_cached(params, x)
    return nnopt.mlp_vjp_cached(params, cache, cotangent)


def test_mlp_zero_weights_gives_zero():
    params = nnopt.MlpParams(
        weights=[np.zeros((3, 4)), np.zeros((4, 2))],
        biases=[np.zeros(4), np.zeros(2)],
    )
    out, _ = nnopt.mlp_forward_cached(params, np.array([[1.0, -2.0, 3.0]]))
    np.testing.assert_array_equal(out, np.zeros((1, 2)))


def test_mlp_single_linear_identity():
    params = nnopt.MlpParams(weights=[np.eye(3)], biases=[np.zeros(3)])
    x = np.array([[0.3, -1.2, 2.0]])
    np.testing.assert_array_equal(nnopt.mlp_forward_cached(params, x)[0], x)


def test_mlp_tanh_net_at_zero():
    params = nnopt.MlpParams(
        weights=[np.ones((1, 2)), np.ones((2, 1))],
        biases=[np.zeros(2), np.zeros(1)],
    )
    out, _ = nnopt.mlp_forward_cached(params, np.array([[0.0]]))
    np.testing.assert_array_equal(out, np.zeros((1, 1)))


def test_mlp_dim_mismatch():
    params = nnopt.MlpParams(weights=[np.eye(3)], biases=[np.zeros(3)])
    with pytest.raises(ValueError):
        nnopt.mlp_forward_cached(params, np.zeros((1, 4)))
    with pytest.raises(ValueError):
        _forward_then_vjp(params, np.zeros((1, 3)), np.zeros((1, 4)))


def test_mlp_vjp_linear_layer_closed_form():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(3, 2))
    b = rng.normal(size=2)
    params = nnopt.MlpParams(weights=[w], biases=[b])
    x = rng.normal(size=3)
    u = rng.normal(size=2)
    grads, gx = _forward_then_vjp(params, x[None, :], u[None, :])
    np.testing.assert_allclose(grads[0], np.outer(x, u), atol=1e-14)
    np.testing.assert_allclose(grads[1], u, atol=1e-14)
    np.testing.assert_allclose(gx[0], w @ u, atol=1e-14)


def test_mlp_vjp_zero_cotangent():
    rng = np.random.default_rng(1)
    params = nnopt.init_mlp([3, 5, 2], rng)
    grads, gx = _forward_then_vjp(params, rng.normal(size=(1, 3)), np.zeros((1, 2)))
    assert all(np.all(g == 0) for g in grads)
    np.testing.assert_array_equal(gx, np.zeros((1, 3)))


def test_mlp_vjp_matches_finite_differences():
    rng = np.random.default_rng(7)
    params = nnopt.init_mlp([4, 8, 8, 3], rng)
    x = rng.normal(size=(5, 4)) * 0.7
    cot = rng.normal(size=(5, 3))
    grads, gx = _forward_then_vjp(params, x, cot)

    def objective():
        return float((nnopt.mlp_forward_cached(params, x)[0] * cot).sum())

    h = 1e-5
    arrays = params.arrays()
    worst = 0.0
    for pi, arr in enumerate(arrays):
        flat = arr.ravel()
        for j in rng.choice(flat.size, size=min(6, flat.size), replace=False):
            orig = flat[j]
            flat[j] = orig + h
            lp = objective()
            flat[j] = orig - h
            lm = objective()
            flat[j] = orig
            fd = (lp - lm) / (2 * h)
            an = grads[pi].ravel()[j]
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-6))
    assert worst < 1e-5


def test_adam_first_step_magnitude():
    params = [np.array([0.0])]
    state = nnopt.init_adam(params)
    state, new = nnopt.adam_step(state, params, [np.array([1.0])], lr=0.1)
    np.testing.assert_allclose(new[0], [-0.1], rtol=1e-7)


def test_adam_zero_grad_identity():
    params = [np.array([1.0, -2.0]), np.array([[0.5]])]
    state = nnopt.init_adam(params)
    state, new = nnopt.adam_step(state, params, [np.zeros(2), np.zeros((1, 1))], lr=0.1)
    assert state.step == 1
    for p, q in zip(params, new):
        np.testing.assert_array_equal(p, q)


def test_adam_decoupled_weight_decay_only():
    params = [np.array([1.0])]
    state = nnopt.init_adam(params, weight_decay=1e-4)
    _, new = nnopt.adam_step(state, params, [np.zeros(1)], lr=0.1)
    np.testing.assert_allclose(new[0], [1.0 - 1e-5], rtol=1e-12)


def test_adam_nonfinite_gradient_reports_index():
    params = [np.zeros(3)]
    state = nnopt.init_adam(params)
    bad = [np.array([0.0, np.nan, 0.0])]
    with pytest.raises(NumericError, match="index"):
        nnopt.adam_step(state, params, bad, lr=0.1)
    params = [np.zeros(2), np.zeros((2, 3))]
    state = nnopt.init_adam(params)
    bad = [np.zeros(2), np.array([[0.0, 0.0, 0.0], [0.0, np.inf, 0.0]])]
    with pytest.raises(NumericError, match=r"array 1 at index \(1, 1\)"):
        nnopt.adam_step(state, params, bad, lr=0.1)
    assert state.step == 0 and not state.m.any()


def test_adam_deterministic():
    rng = np.random.default_rng(3)
    params = [rng.normal(size=(4, 4))]
    grads = [rng.normal(size=(4, 4))]
    s1 = nnopt.init_adam(params)
    s2 = nnopt.init_adam(params)
    _, a = nnopt.adam_step(s1, params, grads, 0.01)
    _, b = nnopt.adam_step(s2, params, grads, 0.01)
    np.testing.assert_array_equal(a[0], b[0])


def _adam_reference(m, v, t, params, grads, lr, b1=0.9, b2=0.999, eps=1e-8, weight_decay=0.0):
    """Per-array Adam update, the loop the flat update must reproduce bit for bit."""
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    new_params = []
    for i, (p, g) in enumerate(zip(params, grads)):
        if weight_decay:
            p = p * (1.0 - lr * weight_decay)
        m[i] = b1 * m[i] + (1.0 - b1) * g
        v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
        m_hat = m[i] / c1
        v_hat = v[i] / c2
        new_params.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
    return new_params


def test_adam_flat_update_matches_per_array_loop():
    rng = np.random.default_rng(7)
    shapes = [(5, 4), (4,), (4, 3), (3,), (1, 1)]
    params = [rng.normal(size=s) for s in shapes]
    state = nnopt.init_adam(params, weight_decay=1e-4)
    ref_params = [p.copy() for p in params]
    ref_m = [np.zeros(s) for s in shapes]
    ref_v = [np.zeros(s) for s in shapes]
    for t in range(1, 6):
        grads = [rng.normal(size=s) * 10.0**rng.integers(-6, 2) for s in shapes]
        lr = 0.0015 * (1.0 + math.cos(math.pi * t / 6))
        state, params = nnopt.adam_step(state, params, grads, lr)
        ref_params = _adam_reference(ref_m, ref_v, t, ref_params, grads, lr, weight_decay=1e-4)
        assert [p.shape for p in params] == shapes
        for got, want in zip(params, ref_params):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(state.m, np.concatenate([a.ravel() for a in ref_m]))
        np.testing.assert_array_equal(state.v, np.concatenate([a.ravel() for a in ref_v]))
    assert state.step == 5


def test_clip_scales_when_over():
    grads = [np.array([6.0, 8.0])]  # norm 10
    out = nnopt.clip_global_norm(grads, 5.0)
    np.testing.assert_allclose(out[0], [3.0, 4.0], rtol=1e-12)


def test_clip_unchanged_when_under():
    grads = [np.array([3.0])]
    out = nnopt.clip_global_norm(grads, 5.0)
    assert out[0] is grads[0]
    zeros = [np.zeros(4)]
    assert nnopt.clip_global_norm(zeros, 5.0)[0] is zeros[0]


def test_clip_norm_bound_and_direction():
    rng = np.random.default_rng(5)
    grads = [rng.normal(size=7) * 10, rng.normal(size=(3, 3)) * 10]
    out = nnopt.clip_global_norm(grads, 2.5)
    assert math.sqrt(sum(float(np.sum(g * g)) for g in out)) <= 2.5 + 1e-12
    ratio = out[0] / grads[0]
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)


def test_lr_schedule_endpoints():
    sched = nnopt.LrSchedule(0.0015, 100)
    assert nnopt.lr_at(sched, 0) == 0.0015
    assert abs(nnopt.lr_at(sched, 100)) < 1e-19
    np.testing.assert_allclose(nnopt.lr_at(sched, 50), 0.00075, rtol=1e-12)
    assert nnopt.lr_at(sched, 30) > nnopt.lr_at(sched, 31)


def test_lr_schedule_out_of_range():
    sched = nnopt.LrSchedule(1.0, 10)
    with pytest.raises(ValueError):
        nnopt.lr_at(sched, 11)
    with pytest.raises(ValueError):
        nnopt.LrSchedule(-1.0, 10)
