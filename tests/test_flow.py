import math
import tracemalloc

import numpy as np
import pytest

from atlasflow import flow as fl


def _perturbed(stack, scale, seed):
    rng = np.random.default_rng(seed)
    stack.set_parameters([p + scale * rng.normal(size=p.shape) for p in stack.parameters()])
    return stack


def _spline_stack(seed, n_bins=8, bound=5.0, scale=0.5):
    """A one-layer 1-D stack: a single unconditional spline with random raw parameters."""
    rng = np.random.default_rng(seed)
    raw = [
        scale * rng.normal(size=(1, n_bins)),
        scale * rng.normal(size=(1, n_bins)),
        scale * rng.normal(size=(1, n_bins - 1)),
    ]
    layer = fl.CouplingLayer(
        dim=1, id_idx=np.array([], dtype=int), tr_idx=np.array([0]), n_bins=n_bins, bound=bound, raw=raw
    )
    return fl.FlowStack(dim=1, layers=[layer])


class TestSpline:
    def test_identity_params(self):
        f = _spline_stack(0, scale=0.0)
        y, ld = fl.stack_forward(f, np.array([[0.7]]))
        np.testing.assert_array_equal(y, [[0.7]])
        np.testing.assert_array_equal(ld, [0.0])
        x, ldi = fl.stack_inverse(f, np.array([[-0.2]]))
        np.testing.assert_array_equal(x, [[-0.2]])
        np.testing.assert_array_equal(ldi, [0.0])

    def test_tail_identity(self):
        f = _spline_stack(0, bound=3.0)
        y, ld = fl.stack_forward(f, np.array([[5.0]]))
        np.testing.assert_array_equal(y, [[5.0]])
        np.testing.assert_array_equal(ld, [0.0])
        x, ldi = fl.stack_inverse(f, np.array([[-4.2]]))
        np.testing.assert_array_equal(x, [[-4.2]])
        np.testing.assert_array_equal(ldi, [0.0])

    def test_round_trip_random_params(self):
        rng = np.random.default_rng(1)
        f = _spline_stack(2)
        x = rng.uniform(-6, 6, size=(1000, 1))
        y, ld = fl.stack_forward(f, x)
        xb, ldi = fl.stack_inverse(f, y)
        assert np.abs(xb - x).max() < 1e-9
        assert np.abs(ld + ldi).max() < 1e-9

    def test_monotone(self):
        f = _spline_stack(3)
        y, _ = fl.stack_forward(f, np.linspace(-5, 5, 500)[:, None])
        assert np.all(np.diff(y[:, 0]) > 0)

    def test_derivative_matches_logdet(self):
        f = _spline_stack(4)
        x = np.linspace(-4.9, 4.9, 101)[:, None]
        y, ld = fl.stack_forward(f, x)
        h = 1e-7
        y2, _ = fl.stack_forward(f, x + h)
        fd = (y2 - y)[:, 0] / h
        np.testing.assert_allclose(np.exp(ld), fd, rtol=1e-5)


class TestCoupling:
    """One conditioned coupling layer, as a one-layer stack."""

    def test_fresh_layer_is_identity(self):
        f = fl.make_flow(2, 1, np.random.default_rng(0))
        x = np.array([[0.4, -1.1]])
        y, ld = fl.stack_forward(f, x)
        np.testing.assert_array_equal(y, x)
        np.testing.assert_array_equal(ld, [0.0])

    def test_mask_semantics(self):
        f = fl.make_flow(2, 1, np.random.default_rng(0))
        _perturbed(f, 0.3, 1)
        x = np.random.default_rng(2).normal(size=(40, 2))
        y, _ = fl.stack_forward(f, x)
        np.testing.assert_array_equal(y[:, 0], x[:, 0])  # identity part copied
        assert np.abs(y[:, 1] - x[:, 1]).max() > 1e-6

    def test_logdet_matches_fd_jacobian(self):
        for dim in (2, 3):
            f = fl.make_flow(dim, 1, np.random.default_rng(dim))
            _perturbed(f, 0.2, dim + 10)
            rng = np.random.default_rng(5)
            for x in rng.normal(size=(5, dim)):
                _, ld = fl.stack_forward(f, x[None, :])
                h = 1e-6
                # row i of the batch is x shifted by h along axis i
                yp, _ = fl.stack_forward(f, x + h * np.eye(dim))
                ym, _ = fl.stack_forward(f, x - h * np.eye(dim))
                jac = ((yp - ym) / (2 * h)).T
                _, fd_ld = np.linalg.slogdet(jac)
                assert abs(ld[0] - fd_ld) / max(abs(fd_ld), 1e-4) < 1e-4

    def test_inverse_round_trip(self):
        f = fl.make_flow(3, 1, np.random.default_rng(9))
        _perturbed(f, 0.3, 3)
        x = np.random.default_rng(4).normal(size=(200, 3)) * 2
        y, ld = fl.stack_forward(f, x)
        xb, ldi = fl.stack_inverse(f, y)
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
            h, ld = fl.stack_forward(fl.FlowStack(dim=2, layers=[layer]), h)
            total += ld
        z, ld_stack = fl.stack_forward(f, x)
        np.testing.assert_allclose(ld_stack, total, atol=1e-12)
        np.testing.assert_allclose(z, h, atol=1e-12)

    def test_stack_logdet_vs_fd_jacobian_d3(self):
        f = _perturbed(fl.make_flow(3, 5, np.random.default_rng(6)), 0.15, 9)
        rng = np.random.default_rng(7)
        for x in rng.normal(size=(4, 1, 3)):
            _, (ld,) = fl.stack_forward(f, x)
            h = 1e-6
            jac = np.zeros((3, 3))
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                (zp,), _ = fl.stack_forward(f, x + e)
                (zm,), _ = fl.stack_forward(f, x - e)
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


def _peak_bytes(fn) -> int:
    """Peak bytes allocated while ``fn`` runs, as seen by tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCacheFreePasses:
    @pytest.mark.parametrize("dim", [3, 1], ids=["conditioned-3d", "raw-1d"])
    def test_bit_identical_to_cached(self, dim):
        f = _perturbed(fl.make_flow(dim, 13, np.random.default_rng(15)), 0.12, 16)
        x = np.random.default_rng(17).normal(size=(500, dim)) * 2
        for run, values in ((fl.stack_forward_cached, fl.stack_forward), (fl.stack_inverse_cached, fl.stack_inverse)):
            out, ld, caches = run(f, x)
            free_out, free_ld, free_caches = run(f, x, keep_caches=False)
            assert out.tobytes() == free_out.tobytes() and ld.tobytes() == free_ld.tobytes()
            assert all(c is not None for c in caches)
            assert free_caches == [None] * 13
            val_out, val_ld = values(f, x)
            assert out.tobytes() == val_out.tobytes() and ld.tobytes() == val_ld.tobytes()

    def test_value_passes_go_through_cached_loops(self, monkeypatch):
        # the benchmark's tracer reads flow.stack_*_cached.rows and self
        # times, which cover the value passes only while they call these
        calls = []
        for name in ("stack_forward_cached", "stack_inverse_cached"):
            def counted(f, x, *args, _name=name, _run=getattr(fl, name), **kwargs):
                calls.append((_name, x.shape[0], kwargs.get("keep_caches")))
                return _run(f, x, *args, **kwargs)
            monkeypatch.setattr(fl, name, counted)
        f = _perturbed(fl.make_flow(3, 2, np.random.default_rng(21)), 0.1, 22)
        x = np.random.default_rng(23).normal(size=(7, 3))
        fl.stack_forward(f, x)
        fl.stack_inverse(f, x)
        fl.reconstruct(f, 2, x)
        fl.embed_latent(f, x[:, :2])
        assert calls == [("stack_forward_cached", 7, False), ("stack_inverse_cached", 7, False),
                         ("stack_forward_cached", 7, False), ("stack_inverse_cached", 7, False),
                         ("stack_inverse_cached", 7, False)]

    def test_inverse_peak_memory(self):
        f = _perturbed(fl.make_flow(3, 13, np.random.default_rng(18)), 0.12, 19)
        z = np.random.default_rng(20).normal(size=(4096, 3))
        cached = _peak_bytes(lambda: fl.stack_inverse_cached(f, z))
        free = _peak_bytes(lambda: fl.stack_inverse(f, z))
        assert free < cached / 3


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
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(fl.reconstruct(f, 3, x), x)
        np.testing.assert_array_equal(fl.reconstruct(f, 2, x), [[1.0, 2.0, 0.0]])

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
        np.testing.assert_allclose(fl.embedding_gram_logdet(f, 2, v, fl.embed_latent(f, v)), np.zeros(5), atol=1e-9)

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
        v = np.array([[0.0]])
        (got,) = fl.embedding_gram_logdet(f, 1, v, fl.embed_latent(f, v))
        assert abs(got - math.log(c)) < 1e-3

    def test_matches_brute_force_fd(self):
        f = _perturbed(fl.make_flow(3, 4, np.random.default_rng(7)), 0.15, 2)
        rng = np.random.default_rng(8)
        v = rng.normal(size=(4, 2))
        got = fl.embedding_gram_logdet(f, 2, v, fl.embed_latent(f, v))
        h = 1e-6
        for row, g in zip(v[:, None, :], got):
            (base,) = fl.embed_latent(f, row)
            jac = np.zeros((3, 2))
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                (shifted,) = fl.embed_latent(f, row + e)
                jac[:, i] = (shifted - base) / h
            expected = 0.5 * np.linalg.slogdet(jac.T @ jac)[1]
            assert abs(g - expected) < 1e-3
