import math

import numpy as np
import pytest

from atlasflow import flow as fl
from atlasflow import losses as lo
from atlasflow.cover import ChartCover
from atlasflow.errors import StaleExpectedPointsError


def _identity_flow(dim, layers=2, seed=0):
    return fl.make_flow(dim, layers, np.random.default_rng(seed))


def _perturbed_flow(dim, layers=3, seed=0, scale=0.15):
    f = _identity_flow(dim, layers, seed)
    rng = np.random.default_rng(seed + 100)
    f.set_parameters([p + scale * rng.normal(size=p.shape) for p in f.parameters()])
    return f


def _fd_check(flow, loss_fn, tol=1e-3, h=1e-5, n_checks=5):
    _, grads = loss_fn()
    params = flow.parameters()
    rng = np.random.default_rng(0)
    worst = 0.0
    for pi in rng.choice(len(params), size=min(6, len(params)), replace=False):
        flat = params[pi].ravel()
        for j in rng.choice(flat.size, size=min(n_checks, flat.size), replace=False):
            orig = flat[j]
            flat[j] = orig + h
            lp = loss_fn()[0]
            flat[j] = orig - h
            lm = loss_fn()[0]
            flat[j] = orig
            fd = (lp - lm) / (2 * h)
            an = grads[pi].ravel()[j]
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-5))
    assert worst < tol, f"gradient mismatch {worst:.2e}"


class TestPretraining:
    def test_identity_flow_zero_loss(self):
        f = _identity_flow(3)
        r = np.random.default_rng(0).normal(size=(6, 2))
        x = np.column_stack([r, np.zeros(6)])
        batch = lo.Batch(indices=np.arange(6), x=x, r=r)
        loss, grads = lo.pretraining_loss(f, batch)
        assert loss == 0.0

    def test_single_point_value(self):
        f = _identity_flow(2)
        batch = lo.Batch(indices=np.array([0]), x=np.array([[1.0, 0.0]]), r=np.array([[0.0, 0.0]]))
        loss, _ = lo.pretraining_loss(f, batch)
        assert loss == pytest.approx(1.0)

    def test_missing_references(self):
        f = _identity_flow(2)
        with pytest.raises(ValueError):
            lo.pretraining_loss(f, lo.Batch(indices=np.arange(2), x=np.zeros((2, 2))))

    def test_gradient_fd(self):
        f = _perturbed_flow(3)
        rng = np.random.default_rng(1)
        batch = lo.Batch(indices=np.arange(5), x=rng.normal(size=(5, 3)), r=rng.normal(size=(5, 2)))
        _fd_check(f, lambda: lo.pretraining_loss(f, batch))


def _sym_dref(rng, b):
    d_ref = np.abs(rng.normal(size=(b, b)))
    d_ref = 0.5 * (d_ref + d_ref.T)
    np.fill_diagonal(d_ref, 0.0)
    return d_ref


def _manifold(f, batch, lam):
    """(loss, grads) of the manifold loss: at lam 0 the reconstruction loss,
    at lam 1 the pairwise distance loss."""
    return lo.manifold_loss_parts(f, 2, batch, lam)[:2]


class TestReconstruction:
    def test_data_on_plane_identity_flow(self):
        f = _identity_flow(3)
        x = np.column_stack([np.random.default_rng(0).normal(size=(8, 2)), np.zeros(8)])
        batch = lo.Batch(indices=np.arange(8), x=x, d_ref=np.zeros((8, 8)))
        loss, _, parts, _ = lo.manifold_loss_parts(f, 2, batch, 0.0)
        assert loss == 0.0 and parts["recon"] == 0.0

    def test_single_point_value(self):
        # each point sits at distance 1 from the latent plane
        f = _identity_flow(3)
        x = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, -1.0]])
        batch = lo.Batch(indices=np.arange(2), x=x, d_ref=np.zeros((2, 2)))
        loss, _ = _manifold(f, batch, 0.0)
        assert loss == pytest.approx(1.0)

    def test_gradient_fd(self):
        f = _perturbed_flow(3, seed=2)
        batch = lo.Batch(indices=np.arange(5), x=np.random.default_rng(3).normal(size=(5, 3)), d_ref=np.ones((5, 5)))
        _fd_check(f, lambda: _manifold(f, batch, 0.0))


class TestPairwiseDistance:
    def test_two_point_value(self):
        f = _identity_flow(3)
        x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        d_ref = np.array([[0.0, 2.0], [2.0, 0.0]])
        batch = lo.Batch(indices=np.arange(2), x=x, d_ref=d_ref)
        loss, _ = _manifold(f, batch, 1.0)
        assert loss == pytest.approx(1.0)

    def test_matching_distances_zero(self):
        f = _identity_flow(3)
        rng = np.random.default_rng(4)
        x = np.column_stack([rng.normal(size=(6, 2)), rng.normal(size=6)])
        v = x[:, :2]
        d_ref = np.linalg.norm(v[:, None] - v[None, :], axis=2)
        loss, _ = _manifold(f, lo.Batch(indices=np.arange(6), x=x, d_ref=d_ref), 1.0)
        assert loss < 1e-24

    def test_batch_too_small(self):
        f = _identity_flow(2)
        batch = lo.Batch(indices=np.array([0]), x=np.zeros((1, 2)), d_ref=np.zeros((1, 1)))
        with pytest.raises(ValueError):
            lo.manifold_loss_parts(f, 1, batch, 1.0)

    def test_gradient_fd(self):
        f = _perturbed_flow(3, seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(6, 3))
        batch = lo.Batch(indices=np.arange(6), x=x, d_ref=_sym_dref(rng, 6))
        _fd_check(f, lambda: _manifold(f, batch, 1.0))


class TestManifoldLoss:
    def _batch(self, seed=7):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(6, 3))
        return lo.Batch(indices=np.arange(6), x=x, d_ref=_sym_dref(rng, 6))

    def test_extremes_match_components(self):
        f = _perturbed_flow(3, seed=8)
        batch = self._batch()
        l1, _, parts1, _ = lo.manifold_loss_parts(f, 2, batch, 1.0)
        l0, _, parts0, _ = lo.manifold_loss_parts(f, 2, batch, 0.0)
        # both components are reported at every weight, zero weight included
        assert parts1 == parts0 and parts0["recon"] > 0 and parts1["dist"] > 0
        assert l1 == pytest.approx(parts1["dist"], rel=1e-12)
        assert l0 == pytest.approx(parts0["recon"], rel=1e-12)

    def test_midpoint_is_mean(self):
        f = _perturbed_flow(3, seed=9)
        batch = self._batch()
        lh, _, parts, _ = lo.manifold_loss_parts(f, 2, batch, 0.5)
        assert lh == pytest.approx(0.5 * (parts["dist"] + parts["recon"]), rel=1e-12)

    def test_linear_in_lambda(self):
        f = _perturbed_flow(3, seed=10)
        batch = self._batch()
        vals = [_manifold(f, batch, lam)[0] for lam in (0.0, 0.25, 0.5, 0.75, 1.0)]
        diffs = np.diff(vals)
        np.testing.assert_allclose(diffs, diffs[0], rtol=1e-9)

    def test_lambda_out_of_range(self):
        f = _identity_flow(3)
        with pytest.raises(ValueError):
            lo.manifold_loss_parts(f, 2, self._batch(), 1.5)


class TestExpectedPoints:
    def test_single_chart_equals_reconstruction(self):
        f = _perturbed_flow(3, seed=11)
        pts = np.random.default_rng(12).normal(size=(10, 3))
        cover = ChartCover(n_points=10, charts=[np.arange(10)])
        ep = lo.expected_points([fl.reconstruct(f, 2, pts)], cover, epoch=3)
        np.testing.assert_allclose(ep.xhat, fl.reconstruct(f, 2, pts), atol=1e-12)
        assert ep.epoch == 3

    def test_average_of_two_charts(self):
        fa = _perturbed_flow(3, seed=13)
        fb = _perturbed_flow(3, seed=14)
        pts = np.random.default_rng(15).normal(size=(8, 3))
        cover = ChartCover(n_points=8, charts=[np.arange(8), np.arange(8)])
        ep = lo.expected_points([fl.reconstruct(fa, 2, pts), fl.reconstruct(fb, 2, pts)], cover)
        expected = 0.5 * (fl.reconstruct(fa, 2, pts) + fl.reconstruct(fb, 2, pts))
        np.testing.assert_allclose(ep.xhat, expected, atol=1e-12)

    def test_identical_charts(self):
        f = _perturbed_flow(3, seed=16)
        pts = np.random.default_rng(17).normal(size=(6, 3))
        cover = ChartCover(n_points=6, charts=[np.arange(6), np.arange(6), np.arange(6)])
        ep = lo.expected_points([fl.reconstruct(f, 2, pts)] * 3, cover)
        np.testing.assert_allclose(ep.xhat, fl.reconstruct(f, 2, pts), atol=1e-12)


def _passes(f, n, x):
    """The batch passes compatibility_loss reads, run directly: the
    reference that manifold_loss_parts' shared passes must match."""
    z, _, fwd_caches = fl.stack_forward_cached(f, x)
    xr, _, inv_caches = fl.stack_inverse_cached(f, fl.project(z, n))
    return lo.Passes(z, fwd_caches, xr, inv_caches)


def _compat(f, batch, xhat, **kw):
    return lo.compatibility_loss(f, 2, batch, xhat, _passes(f, 2, batch.x), **kw)


class TestCompatibility:
    def test_zero_when_reconstructions_match(self):
        f = _perturbed_flow(3, seed=18)
        pts = np.random.default_rng(19).normal(size=(6, 3))
        xhat = lo.ExpectedPoints(xhat=fl.reconstruct(f, 2, pts), epoch=1)
        batch = lo.Batch(indices=np.arange(6), x=pts, multiplicity=np.full(6, 2))
        loss, grads = _compat(f, batch, xhat)
        assert loss < 1e-20

    def test_single_overlap_point_value(self):
        f = _identity_flow(3)
        x = np.array([[1.0, 0.0, 0.0]])
        xhat = lo.ExpectedPoints(xhat=np.zeros((1, 3)), epoch=1)
        batch = lo.Batch(indices=np.array([0]), x=x, multiplicity=np.array([2]))
        loss, _ = _compat(f, batch, xhat)
        # identity reconstruction of (1,0,0) is itself; squared gap to 0 is 1
        assert loss == pytest.approx(1.0)

    def test_no_overlap_points(self):
        f = _perturbed_flow(3, seed=20)
        batch = lo.Batch(
            indices=np.arange(4),
            x=np.random.default_rng(21).normal(size=(4, 3)),
            multiplicity=np.ones(4, dtype=int),
        )
        xhat = lo.ExpectedPoints(xhat=np.zeros((4, 3)), epoch=1)
        loss, grads = _compat(f, batch, xhat)
        assert loss == 0.0
        assert all(np.all(g == 0) for g in grads)

    def test_staleness(self):
        f = _identity_flow(3)
        batch = lo.Batch(indices=np.arange(2), x=np.zeros((2, 3)), multiplicity=np.full(2, 2))
        xhat = lo.ExpectedPoints(xhat=np.zeros((2, 3)), epoch=1)
        with pytest.raises(StaleExpectedPointsError):
            _compat(f, batch, xhat, epoch=3, max_age=2)
        # age below the limit is fine
        _compat(f, batch, xhat, epoch=2, max_age=2)

    def test_gradient_fd(self):
        f = _perturbed_flow(3, seed=22)
        rng = np.random.default_rng(23)
        batch = lo.Batch(
            indices=np.arange(5),
            x=rng.normal(size=(5, 3)),
            multiplicity=np.array([2, 1, 2, 2, 1]),
        )
        xhat = lo.ExpectedPoints(xhat=rng.normal(size=(5, 3)), epoch=1)
        _fd_check(f, lambda: _compat(f, batch, xhat))

    @pytest.mark.parametrize("lam", [0.1, 0.0, 1.0])
    def test_shared_passes_bit_identical(self, lam):
        f = _perturbed_flow(3, seed=24)
        rng = np.random.default_rng(25)
        x = rng.normal(size=(9, 3))
        batch = lo.Batch(
            indices=np.arange(9),
            x=x,
            d_ref=np.linalg.norm(x[:, None] - x[None, :], axis=2),
            multiplicity=np.array([2, 1, 3, 2, 1, 1, 2, 2, 1]),
        )
        xhat = lo.ExpectedPoints(xhat=rng.normal(size=(9, 3)), epoch=1)
        _, _, parts, passes = lo.manifold_loss_parts(f, 2, batch, lam)
        shared = lo.compatibility_loss(f, 2, batch, xhat, passes)
        alone = _compat(f, batch, xhat)
        assert shared[0] == alone[0] > 0
        for got, want in zip(shared[1], alone[1]):
            np.testing.assert_array_equal(got, want)
        # the cached passes give the value-only reconstruction bit for bit
        assert passes.xr.tobytes() == fl.reconstruct(f, 2, x).tobytes()
        assert parts["recon"] == float(((passes.xr - x) ** 2).sum() / 9) > 0


class TestDensityNll:
    def test_identity_1d_at_zero(self):
        g = _identity_flow(1)
        loss, _ = lo.density_nll(g, np.zeros((1, 1)))
        assert loss == pytest.approx(0.5 * math.log(2 * math.pi))

    def test_identity_2d_at_zero(self):
        g = _identity_flow(2)
        loss, _ = lo.density_nll(g, np.zeros((1, 2)))
        assert loss == pytest.approx(math.log(2 * math.pi))

    def test_nonfinite_latents(self):
        g = _identity_flow(2)
        with pytest.raises(ValueError):
            lo.density_nll(g, np.array([[np.nan, 0.0]]))

    def test_gradient_fd(self):
        g = _perturbed_flow(2, seed=24)
        v = np.random.default_rng(25).normal(size=(6, 2))
        _fd_check(g, lambda: lo.density_nll(g, v))

    def test_gradient_fd_1d(self):
        g = _perturbed_flow(1, layers=4, seed=26, scale=0.3)
        v = np.random.default_rng(27).normal(size=(6, 1))
        _fd_check(g, lambda: lo.density_nll(g, v))


def test_losses_finite_and_nonnegative():
    rng = np.random.default_rng(28)
    f = _perturbed_flow(3, seed=28)
    x = rng.normal(size=(6, 3))
    d_ref = _sym_dref(rng, 6)
    batch = lo.Batch(indices=np.arange(6), x=x, r=rng.normal(size=(6, 2)), d_ref=d_ref,
                     multiplicity=np.array([1, 2, 1, 2, 1, 2]))
    assert lo.pretraining_loss(f, batch)[0] >= 0
    _, _, parts, _ = lo.manifold_loss_parts(f, 2, batch, 0.5)
    assert parts["recon"] >= 0 and parts["dist"] >= 0
    xhat = lo.ExpectedPoints(xhat=rng.normal(size=(6, 3)), epoch=0)
    assert _compat(f, batch, xhat)[0] >= 0
    assert math.isfinite(lo.density_nll(f, x)[0])
