import math

import numpy as np
import pytest

from atlasflow import synth
from atlasflow.errors import ConfigError


def test_trefoil_parametric_points():
    pts = synth.trefoil_curve(np.array([0.0, math.pi / 2]))
    np.testing.assert_allclose(pts[0], [0.0, -2.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(pts[1], [1.0, 3.0, 1.0], atol=1e-12)


def test_trefoil_param_histogram_bimodal():
    spec = synth.ManifoldSpec("trefoil", 10_000, noise_sigma=0.1, seed=3)
    cloud = synth.gen_trefoil(spec)
    t = cloud.params[:, 0]
    hist, edges = np.histogram(t, bins=16, range=(0, 2 * math.pi))
    centers = 0.5 * (edges[:-1] + edges[1:])
    # modes of the two mixture components sit near 0 and pi
    near_zero = hist[(centers < 0.5) | (centers > 2 * math.pi - 0.5)].max()
    near_pi = hist[np.abs(centers - math.pi) < 0.5].max()
    trough = hist[np.abs(centers - math.pi / 2) < 0.5].min()
    assert near_zero > 3 * trough
    assert near_pi > 3 * trough


def test_trefoil_noiseless_points_on_curve():
    spec = synth.ManifoldSpec("trefoil", 500, noise_sigma=0.0, seed=1)
    cloud = synth.gen_trefoil(spec)
    expected = synth.trefoil_curve(cloud.params[:, 0])
    np.testing.assert_allclose(cloud.points, expected, atol=1e-12)


def test_torus_parametric_points():
    pts = synth.torus_surface(np.array([0.0, math.pi]), np.array([0.0, 0.0]))
    np.testing.assert_allclose(pts[0], [4.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(pts[1], [2.0, 0.0, 0.0], atol=1e-12)


def test_torus_noiseless_implicit_equation():
    spec = synth.ManifoldSpec("torus", 2000, noise_sigma=0.0, seed=5)
    cloud = synth.gen_torus(spec)
    assert synth.torus_surface_distance(cloud.points).max() < 1e-12


def test_determinism_bit_identical():
    spec = synth.ManifoldSpec("torus", 1000, noise_sigma=0.1, seed=42)
    a = synth.gen_torus(spec)
    b = synth.gen_torus(spec)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.params, b.params)


def test_invalid_gmm_rejected():
    with pytest.raises(ConfigError):
        synth.ManifoldSpec("trefoil", 10, gmm=[(0.0, -1.0, 1.0)])
    with pytest.raises(ConfigError):
        synth.ManifoldSpec("klein", 10)


def test_wrapping_into_two_pi():
    spec = synth.ManifoldSpec("trefoil", 5000, noise_sigma=0.0, seed=0)
    t = synth.gen_trefoil(spec).params[:, 0]
    assert t.min() >= 0.0 and t.max() < 2 * math.pi


def test_kde_single_point():
    ref = np.array([[0.5]])
    val = synth.kde_density(ref, np.array([[0.5]]), bandwidth=1.0)
    np.testing.assert_allclose(val, 1.0 / math.sqrt(2 * math.pi), rtol=1e-12)


def test_kde_far_query_decays():
    ref = np.zeros((3, 2))
    val = synth.kde_density(ref, np.array([[50.0, 50.0]]), bandwidth=1.0)
    assert val[0] < 1e-10


def test_kde_two_point_average():
    ref = np.array([[0.0], [1.0]])
    q = np.array([[0.5]])
    got = synth.kde_density(ref, q, bandwidth=0.7)
    kernel = math.exp(-0.5 * (0.5 / 0.7) ** 2) / (0.7 * math.sqrt(2 * math.pi))
    np.testing.assert_allclose(got, kernel, rtol=1e-12)


def test_kde_nonnegative_and_normalized():
    rng = np.random.default_rng(0)
    ref = rng.normal(size=(200, 2))
    qs = rng.normal(size=(50, 2)) * 2
    vals = synth.kde_density(ref, qs, bandwidth=0.5)
    assert np.all(vals >= 0)
    # Monte-Carlo integral over a generous bounding box
    lo, hi = -6.0, 6.0
    mc = rng.uniform(lo, hi, size=(100_000, 2))
    est = synth.kde_density(ref, mc, bandwidth=0.5).mean() * (hi - lo) ** 2
    assert abs(est - 1.0) < 0.05


def test_kde_errors():
    with pytest.raises(ValueError):
        synth.kde_density(np.zeros((0, 2)), np.zeros((1, 2)), bandwidth=1.0)
    with pytest.raises(ValueError):
        synth.kde_density(np.zeros((2, 2)), np.zeros((1, 2)), bandwidth=-1.0)
    with pytest.raises(ValueError):
        synth.kde_density(np.zeros((2, 2)), np.zeros((1, 3)), bandwidth=1.0)


def test_kde_chunks_match_one_chunk():
    rng = np.random.default_rng(6)
    n, d = 3000, 3
    ref = rng.normal(size=(n, d))
    queries = rng.normal(size=(100, d)) * 1.5
    h = synth.scott_bandwidth(ref)
    # every query in one chunk, with kde_density's per-row arithmetic
    z = (queries[:, None, :] - ref[None, :, :]) / h
    logk = (-0.5 * d * math.log(synth.TWO_PI) - np.log(h).sum()) - 0.5 * (z * z).sum(axis=2)
    m = logk.max(axis=1)
    expected = np.exp(m) * np.exp(logk - m[:, None]).sum(axis=1) / n
    np.testing.assert_array_equal(synth.kde_density(ref, queries), expected)


def test_csv_round_trip(tmp_path):
    spec = synth.ManifoldSpec("torus", 50, noise_sigma=0.1, seed=9)
    cloud = synth.gen_torus(spec)
    path = tmp_path / "cloud.csv"
    synth.save_csv(cloud, path)
    header = path.read_text().splitlines()[0]
    assert header == "x0,x1,x2,t0,t1"
    back = synth.load_csv(path)
    np.testing.assert_array_equal(back.points, cloud.points)
    np.testing.assert_array_equal(back.params, cloud.params)
