import math

import numpy as np
import pytest

from atlasflow import flow as fl
from atlasflow.errors import NumericError


def _perturbed(stack, scale, seed):
    rng = np.random.default_rng(seed)
    stack.set_parameters([p + scale * rng.normal(size=p.shape) for p in stack.parameters()])
    return stack


def _random_spline(seed, n_bins=8, bound=5.0, scale=0.5):
    rng = np.random.default_rng(seed)
    return fl.RqSplineParams(
        widths=scale * rng.normal(size=n_bins),
        heights=scale * rng.normal(size=n_bins),
        derivs=scale * rng.normal(size=n_bins - 1),
        bound=bound,
    )


class TestSpline:
    def test_identity_params(self):
        p = fl.identity_spline_params()
        y, ld = fl.spline_forward(p, 0.7)
        assert y == 0.7 and ld == 0.0
        x, ldi = fl.spline_inverse(p, -0.2)
        assert x == -0.2 and ldi == 0.0

    def test_tail_identity(self):
        p = _random_spline(0, bound=3.0)
        y, ld = fl.spline_forward(p, 5.0)
        assert y == 5.0 and ld == 0.0
        x, ldi = fl.spline_inverse(p, -4.2)
        assert x == -4.2 and ldi == 0.0

    def test_round_trip_random_params(self):
        rng = np.random.default_rng(1)
        p = _random_spline(2)
        x = rng.uniform(-6, 6, size=1000)
        y, ld = fl.spline_forward(p, x)
        xb, ldi = fl.spline_inverse(p, y)
        assert np.abs(xb - x).max() < 1e-9
        assert np.abs(ld + ldi).max() < 1e-9

    def test_monotone(self):
        p = _random_spline(3)
        y, _ = fl.spline_forward(p, np.linspace(-5, 5, 500))
        assert np.all(np.diff(y) > 0)

    def test_derivative_matches_logdet(self):
        p = _random_spline(4)
        x = np.linspace(-4.9, 4.9, 101)
        y, ld = fl.spline_forward(p, x)
        h = 1e-7
        y2, _ = fl.spline_forward(p, x + h)
        fd = (y2 - y) / h
        np.testing.assert_allclose(np.exp(ld), fd, rtol=1e-5)

    def test_nonfinite_params_rejected(self):
        p = fl.identity_spline_params()
        p.widths = p.widths.copy()
        p.widths[0] = np.nan
        with pytest.raises(NumericError):
            fl.spline_forward(p, 0.5)


class TestCoupling:
    def test_fresh_layer_is_identity(self):
        f = fl.make_flow(2, 1, np.random.default_rng(0))
        x = np.array([0.4, -1.1])
        y, ld = fl.coupling_forward(f.layers[0], x)
        np.testing.assert_array_equal(y, x)
        assert ld == 0.0

    def test_mask_semantics(self):
        f = fl.make_flow(2, 1, np.random.default_rng(0))
        _perturbed(f, 0.3, 1)
        x = np.random.default_rng(2).normal(size=(40, 2))
        y, _ = fl.coupling_forward(f.layers[0], x)
        np.testing.assert_array_equal(y[:, 0], x[:, 0])  # identity part copied
        assert np.abs(y[:, 1] - x[:, 1]).max() > 1e-6

    def test_logdet_matches_fd_jacobian(self):
        for dim in (2, 3):
            f = fl.make_flow(dim, 1, np.random.default_rng(dim))
            _perturbed(f, 0.2, dim + 10)
            layer = f.layers[0]
            rng = np.random.default_rng(5)
            for x in rng.normal(size=(5, dim)):
                _, ld = fl.coupling_forward(layer, x)
                h = 1e-6
                jac = np.zeros((dim, dim))
                for i in range(dim):
                    e = np.zeros(dim)
                    e[i] = h
                    yp, _ = fl.coupling_forward(layer, x + e)
                    ym, _ = fl.coupling_forward(layer, x - e)
                    jac[:, i] = (yp - ym) / (2 * h)
                _, fd_ld = np.linalg.slogdet(jac)
                assert abs(ld - fd_ld) / max(abs(fd_ld), 1e-4) < 1e-4

    def test_inverse_round_trip(self):
        f = fl.make_flow(3, 1, np.random.default_rng(9))
        _perturbed(f, 0.3, 3)
        layer = f.layers[0]
        x = np.random.default_rng(4).normal(size=(200, 3)) * 2
        y, ld = fl.coupling_forward(layer, x)
        xb, ldi = fl.coupling_inverse(layer, y)
        assert np.abs(xb - x).max() < 1e-9
        assert np.abs(ld + ldi).max() < 1e-9


class TestStack:
    def test_identity_init_exact(self):
        f = fl.make_flow(3, 13, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(100, 3)) * 3
        z, ld = fl.stack_forward(f, x)
        assert np.array_equal(z, x)
        assert np.all(ld == 0.0)

    def test_round_trip_13_layers(self):
        f = _perturbed(fl.make_flow(3, 13, np.random.default_rng(2)), 0.12, 7)
        x = np.random.default_rng(3).normal(size=(1000, 3)) * 2
        z, ld = fl.stack_forward(f, x)
        xb, ldi = fl.stack_inverse(f, z)
        assert np.abs(xb - x).max() < 1e-8
        assert np.abs(ld + ldi).max() < 1e-8

    def test_logdet_additivity(self):
        f = _perturbed(fl.make_flow(2, 4, np.random.default_rng(4)), 0.15, 8)
        x = np.random.default_rng(5).normal(size=(20, 2))
        h = x
        total = np.zeros(20)
        for layer in f.layers:
            h, ld, _ = fl.coupling_forward_cached(layer, h)
            total += ld
        z, ld_stack = fl.stack_forward(f, x)
        np.testing.assert_allclose(ld_stack, total, atol=1e-12)
        np.testing.assert_allclose(z, h, atol=1e-12)

    def test_stack_logdet_vs_fd_jacobian_d3(self):
        f = _perturbed(fl.make_flow(3, 5, np.random.default_rng(6)), 0.15, 9)
        rng = np.random.default_rng(7)
        for x in rng.normal(size=(4, 3)):
            _, ld = fl.stack_forward(f, x)
            h = 1e-6
            jac = np.zeros((3, 3))
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                zp, _ = fl.stack_forward(f, x + e)
                zm, _ = fl.stack_forward(f, x - e)
                jac[:, i] = (zp - zm) / (2 * h)
            _, fd_ld = np.linalg.slogdet(jac)
            assert abs(ld - fd_ld) < 1e-4 * max(1.0, abs(fd_ld))

    def test_parameter_gradients_match_fd(self):
        f = _perturbed(fl.make_flow(3, 3, np.random.default_rng(8)), 0.15, 10)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 3))
        gy = rng.normal(size=(6, 3))
        gl = rng.normal(size=6)

        def objective():
            z, ld = fl.stack_forward(f, x)
            return float((z * gy).sum() + (ld * gl).sum())

        z, ld, caches = fl.stack_forward_cached(f, x)
        _, grads = fl.stack_forward_vjp(f, caches, gy, gl)
        params = f.parameters()
        h = 1e-5
        worst = 0.0
        for pi in rng.choice(len(params), size=6, replace=False):
            flat = params[pi].ravel()
            for j in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                orig = flat[j]
                flat[j] = orig + h
                lp = objective()
                flat[j] = orig - h
                lm = objective()
                flat[j] = orig
                fd = (lp - lm) / (2 * h)
                an = grads[pi].ravel()[j]
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-5))
        assert worst < 1e-3

    def test_inverse_value_gradients_match_fd(self):
        f = _perturbed(fl.make_flow(2, 3, np.random.default_rng(12)), 0.15, 13)
        rng = np.random.default_rng(14)
        z = rng.normal(size=(6, 2))
        gx = rng.normal(size=(6, 2))

        def objective():
            x, _ = fl.stack_inverse(f, z)
            return float((x * gx).sum())

        x, _, caches = fl.stack_inverse_cached(f, z)
        _, grads = fl.stack_inverse_vjp(f, caches, gx)
        params = f.parameters()
        h = 1e-5
        worst = 0.0
        for pi in rng.choice(len(params), size=6, replace=False):
            flat = params[pi].ravel()
            for j in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                orig = flat[j]
                flat[j] = orig + h
                lp = objective()
                flat[j] = orig - h
                lm = objective()
                flat[j] = orig
                fd = (lp - lm) / (2 * h)
                an = grads[pi].ravel()[j]
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-5))
        assert worst < 1e-3


class TestProjectReconstruct:
    def test_project_examples(self):
        np.testing.assert_array_equal(fl.project(np.array([1.0, 2.0, 3.0]), 2), [1.0, 2.0, 0.0])
        np.testing.assert_array_equal(fl.project(np.array([1.0, 2.0, 3.0]), 3), [1.0, 2.0, 3.0])

    def test_project_idempotent(self):
        v = np.random.default_rng(0).normal(size=(10, 4))
        once = fl.project(v, 2)
        np.testing.assert_array_equal(fl.project(once, 2), once)

    def test_project_out_of_range(self):
        with pytest.raises(ValueError):
            fl.project(np.zeros(3), 0)
        with pytest.raises(ValueError):
            fl.project(np.zeros(3), 4)

    def test_reconstruct_identity_stack(self):
        f = fl.make_flow(3, 2, np.random.default_rng(0))
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(fl.reconstruct(f, 3, x), x)
        np.testing.assert_array_equal(fl.reconstruct(f, 2, x), [1.0, 2.0, 0.0])

    def test_reconstruct_idempotent(self):
        f = _perturbed(fl.make_flow(3, 4, np.random.default_rng(3)), 0.15, 4)
        x = np.random.default_rng(5).normal(size=(50, 3))
        once = fl.reconstruct(f, 2, x)
        twice = fl.reconstruct(f, 2, once)
        assert np.abs(twice - once).max() < 1e-8

    def test_latent_codes_rows_independent(self):
        # the trainer reads density-step latents from one pass over a chart
        f = _perturbed(fl.make_flow(3, 13, np.random.default_rng(6)), 0.3, 7)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1500, 3)) * 2.0
        idx = rng.choice(1500, size=256, replace=True)
        assert np.unique(idx).size < idx.size
        np.testing.assert_array_equal(fl.latent_codes(f, 2, x)[idx], fl.latent_codes(f, 2, x[idx]))


class TestEmbeddingGram:
    def test_identity_stack_zero(self):
        f = fl.make_flow(3, 2, np.random.default_rng(0))
        v = np.random.default_rng(1).normal(size=(5, 2))
        np.testing.assert_allclose(fl.embedding_gram_logdet(f, 2, v), np.zeros(5), atol=1e-9)

    def test_scaling_embedding(self):
        # two-bin spline with interior derivative 1/c at the middle knot:
        # the inverse map then stretches by c at 0, so the 2->3... here d=2,
        # n=1 embedding has J = (c, 0)^T and gram logdet = log c.
        c = 1.7
        target = (1.0 / c) * fl._DERIV_NORM - fl.MIN_DERIVATIVE
        ud_raw = math.log(math.expm1(target)) - fl._DERIV_OFFSET
        # invert the soft cap so the effective raw value is ud_raw
        ud_param = fl.RAW_CAP * math.atanh(ud_raw / fl.RAW_CAP)
        layer = fl.CouplingLayer(
            dim=2,
            id_idx=np.array([], dtype=int),
            tr_idx=np.array([0, 1]),
            n_bins=2,
            bound=5.0,
            raw=[np.zeros((2, 2)), np.zeros((2, 2)), np.array([[ud_param], [0.0]])],
        )
        f = fl.FlowStack(dim=2, layers=[layer])
        got = fl.embedding_gram_logdet(f, 1, np.array([0.0]))
        assert abs(got - math.log(c)) < 1e-3

    def test_matches_brute_force_fd(self):
        f = _perturbed(fl.make_flow(3, 4, np.random.default_rng(7)), 0.15, 2)
        rng = np.random.default_rng(8)
        v = rng.normal(size=(4, 2))
        got = fl.embedding_gram_logdet(f, 2, v)
        h = 1e-6
        for row, g in zip(v, got):
            base = fl.embed_latent(f, row)
            jac = np.zeros((3, 2))
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                jac[:, i] = (fl.embed_latent(f, row + e) - base) / h
            expected = 0.5 * np.linalg.slogdet(jac.T @ jac)[1]
            assert abs(g - expected) < 1e-3
