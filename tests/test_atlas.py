import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from atlasflow import atlas
from atlasflow import flow as fl
from atlasflow.cover import ChartCover, MapperConfig
from atlasflow.errors import CheckpointError, CoverError, DivergenceError, NumericError
from atlasflow.synth import PointCloud

# trained by the format_version 1 writer, which stored parameters as decimal lists
_V1_MODELS = sorted((Path(__file__).parent / ".acceptance_cache").glob("*_model.json"))


def _plane_cloud(n=400, noise=0.01, seed=0):
    rng = np.random.default_rng(seed)
    pts = np.column_stack([
        rng.uniform(-2, 2, n),
        rng.uniform(-2, 2, n),
        rng.normal(0, noise, n),
    ])
    return PointCloud(points=pts)


def _tiny_config(**overrides):
    base = dict(
        latent_dim=2,
        n_layers=3,
        hidden=(24, 24),
        epochs=(4, 3, 6, 4, 3),
        batch_size=128,
        lambda_p=0.1,
        seed=0,
        mapper=MapperConfig(n_cubes=2, perc_overlap=0.3, linkage_threshold=1.0),
    )
    base.update(overrides)
    return atlas.TrainConfig(**base)


def _arc_cloud(n=240, seed=1):
    """A noisy half circle of radius 2 in the plane, ordered along the arc."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, np.pi, n))
    return PointCloud(points=2.0 * np.column_stack([np.cos(t), np.sin(t)]) + rng.normal(0, 0.02, (n, 2)))


def _two_charts(n, overlap):
    half = n // 2
    return ChartCover(n_points=n, charts=[np.arange(0, half + overlap), np.arange(half - overlap, n)])


def _row_key(row):
    return row["phase"], row["epoch"], row["chart"]


# sha256 of the checkpoint and of the JSON of the log rows sorted by
# (phase, epoch, chart).  The rows digests were recorded when the trainer
# still ran five separate phase loops with phases 1-3 chart by chart; the
# checkpoint digests since the cover's nerve is derived from its charts, which
# changed only the checkpoints' cover.nerve_edges (from [] to [[0, 1]])
_PINNED_RUNS = {
    "plane-five-phases": (
        lambda: (_plane_cloud(n=300, seed=2), _two_charts(300, 30), _tiny_config(epochs=(2, 2, 3, 2, 2))),
        "2b595753751d2fa11057281f205f2659dc619ee2adc361d5e9e556979c6d7b3a",
        "87aaf7a5c232b6c3208231e62db3079fe6ac7806fce1ce4ebf9d08f28e941ceb",
    ),
    "plane-no-pretraining": (
        lambda: (_plane_cloud(n=300, seed=2), _two_charts(300, 30), _tiny_config(epochs=(0, 3, 1, 3, 0), c_s=1)),
        "b00e16b1cbd615c5e895f04912061cc1540ae10e07659297c5219c45707947fa",
        "cdba3337a62103720e804c93586aa43764bef0b4eeaa30c4940f024ace158860",
    ),
    "arc-1d-latent": (
        lambda: (_arc_cloud(), _two_charts(240, 20), _tiny_config(
            latent_dim=1, hidden=(8, 8), batch_size=64, epochs=(2, 2, 2, 2, 2), lambda_p=0.01)),
        "02d0ee24b46617ed5719a405f970d1459069578acade263242dd328e788decba",
        "f4e258e228b2ed1ba7070cdb8f0e2147699c3fb480b9a5f81d19719f2f12842d",
    ),
}


@pytest.fixture(scope="module")
def plane_model():
    cloud = _plane_cloud()
    cover = ChartCover(n_points=cloud.n, charts=[np.arange(cloud.n)])
    cfg = _tiny_config(epochs=(25, 4, 25, 6, 6))
    log_rows = []
    model = atlas.train(cloud, cover, cfg, log_rows=log_rows)
    return cloud, model, log_rows


class TestDisintegrationWeights:
    def test_counting_example(self):
        # 100 points: 30 exclusive to each chart, 40 shared
        charts = [np.arange(0, 70), np.arange(30, 100)]
        cover = ChartCover(n_points=100, charts=charts)
        c = atlas.disintegration_weights(cover)
        # each chart: its exclusive 0.3 plus half of the shared 0.4
        np.testing.assert_allclose(c, [0.5, 0.5], atol=1e-15)

    def test_disjoint_charts(self):
        cover = ChartCover(n_points=10, charts=[np.arange(0, 3), np.arange(3, 10)])
        c = atlas.disintegration_weights(cover)
        np.testing.assert_allclose(c, [0.3, 0.7], atol=1e-15)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            n = 200
            charts = []
            for _ in range(4):
                size = rng.integers(30, 120)
                charts.append(np.sort(rng.choice(n, size=size, replace=False)))
            covered = np.unique(np.concatenate(charts))
            missing = np.setdiff1d(np.arange(n), covered)
            if missing.size:
                charts[0] = np.sort(np.concatenate([charts[0], missing]))
            cover = ChartCover(n_points=n, charts=charts)
            c = atlas.disintegration_weights(cover)
            assert abs(c.sum() - 1.0) < 1e-12


class TestBootstrap:
    def test_two_point_probabilities(self):
        cover = ChartCover(n_points=2, charts=[np.array([0, 1]), np.array([1])])
        pts = np.zeros((2, 2))
        rng = np.random.default_rng(0)
        draws = atlas.bootstrap_batch(np.array([0, 1]), cover, pts, 30_000, rng)
        freq = np.bincount(draws.indices, minlength=2) / 30_000
        # probabilities 1/m normalized: (1, 1/2) -> (2/3, 1/3)
        np.testing.assert_allclose(freq, [2 / 3, 1 / 3], atol=0.01)

    def test_uniform_when_no_overlap(self):
        cover = ChartCover(n_points=4, charts=[np.arange(4)])
        rng = np.random.default_rng(1)
        draws = atlas.bootstrap_batch(np.arange(4), cover, np.zeros((4, 2)), 40_000, rng)
        freq = np.bincount(draws.indices, minlength=4) / 40_000
        np.testing.assert_allclose(freq, 0.25, atol=0.01)

    def test_empirical_matches_multinomial_3sigma(self):
        cover = ChartCover(
            n_points=6,
            charts=[np.arange(6), np.array([0, 1, 2]), np.array([0, 1])],
        )
        members = np.arange(6)
        inv = 1.0 / cover.multiplicity[members]
        probs = inv / inv.sum()
        n_draws = 100_000
        rng = np.random.default_rng(2)
        draws = atlas.bootstrap_batch(members, cover, np.zeros((6, 2)), n_draws, rng)
        counts = np.bincount(draws.indices, minlength=6)
        for i in range(6):
            sigma = math.sqrt(n_draws * probs[i] * (1 - probs[i]))
            assert abs(counts[i] - n_draws * probs[i]) < 3 * sigma


class TestTraining:
    def test_deterministic_checkpoints(self, tmp_path):
        cloud = _plane_cloud(n=200)
        cover = ChartCover(n_points=cloud.n, charts=[np.arange(cloud.n)])
        cfg = _tiny_config(epochs=(2, 2, 3, 2, 2))
        m1 = atlas.train(cloud, cover, cfg)
        m2 = atlas.train(cloud, cover, cfg)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        atlas.save(m1, p1)
        atlas.save(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_chart_count_matches_cover(self):
        cloud = _plane_cloud(n=300, seed=2)
        half = cloud.n // 2
        cover = ChartCover(
            n_points=cloud.n,
            charts=[np.arange(0, half + 30), np.arange(half - 30, cloud.n)],
        )
        model = atlas.train(cloud, cover, _tiny_config(epochs=(2, 2, 2, 2, 2)))
        assert len(model.charts) == cover.n_charts
        assert abs(model.c.sum() - 1.0) < 1e-12

    def test_flat_plane_reconstruction(self, plane_model):
        cloud, model, _ = plane_model
        xr = fl.reconstruct(model.charts[0].phi, 2, cloud.points)
        final = float(((xr - cloud.points) ** 2).sum(axis=1).mean())
        assert final < 1e-3

    def test_mismatched_cover_rejected(self):
        cloud = _plane_cloud(n=100)
        cover = ChartCover(n_points=50, charts=[np.arange(50)])
        with pytest.raises(CoverError):
            atlas.train(cloud, cover, _tiny_config())

    def test_training_log_rows(self, plane_model):
        _, model, log_rows = plane_model
        phases = {r["phase"] for r in log_rows}
        assert phases == {1, 2, 3, 4, 5}
        e1 = model.config.epochs[0]
        assert len([r for r in log_rows if r["phase"] == 1]) == e1
        r3 = [r for r in log_rows if r["phase"] == 3]
        assert r3[0]["recon"] > 0  # recon evaluated even while lambda_t = 1
        assert all(math.isfinite(r["mfd"]) for r in r3)


    @pytest.mark.parametrize("name", sorted(_PINNED_RUNS))
    def test_matches_recorded_digests(self, tmp_path, name):
        make, checkpoint_sha, rows_sha = _PINNED_RUNS[name]
        cloud, cover, cfg = make()
        rows = []
        model = atlas.train(cloud, cover, cfg, log_rows=rows)
        assert rows == sorted(rows, key=_row_key)
        path = tmp_path / "ckpt.json"
        atlas.save(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == checkpoint_sha
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == rows_sha

    def test_phase4_logs_recon_at_unit_lambda(self):
        cloud = _plane_cloud(n=200, seed=3)
        cover = ChartCover(n_points=cloud.n, charts=[np.arange(cloud.n)])
        rows = []
        atlas.train(cloud, cover, _tiny_config(epochs=(1, 1, 1, 2, 0), lambda_p=1.0), log_rows=rows)
        r4 = [r for r in rows if r["phase"] == 4]
        assert len(r4) == 2 and all(r["lambda_t"] == 1.0 and r["recon"] > 0 for r in r4)


class _AppendOnly:
    """A log sink with ``append`` alone, as the benchmark's tracer passes."""

    def __init__(self):
        self.rows = []

    def append(self, row):
        self.rows.append(row)


def _diverging(monkeypatch, steps):
    """Make ``atlas._chart_epoch`` diverge at the given (phase, epoch, chart) steps."""
    epoch_fn = atlas._chart_epoch

    def chart_epoch(st, phase, epoch, *args):
        if (phase, epoch, st.chart_id) in steps:
            atlas._check_finite(float("nan"), phase, epoch, st.chart_id)
        return epoch_fn(st, phase, epoch, *args)

    monkeypatch.setattr(atlas, "_chart_epoch", chart_epoch)


class TestTrainingPool:
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("name", sorted(_PINNED_RUNS))
    def test_pool_matches_recorded_digests(self, tmp_path, monkeypatch, pool_pids, name, threads):
        make, checkpoint_sha, rows_sha = _PINNED_RUNS[name]
        monkeypatch.setattr(atlas, "POOL_MIN_ROW_LAYERS", 0)
        monkeypatch.setenv("ATLASFLOW_THREADS", threads)
        cloud, cover, cfg = make()
        sink = _AppendOnly()
        model = atlas.train(cloud, cover, cfg, log_rows=sink)
        path = tmp_path / "ckpt.json"
        atlas.save(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == checkpoint_sha
        assert hashlib.sha256(json.dumps(sink.rows).encode()).hexdigest() == rows_sha
        # each chart's Isomap runs in the process that trains the chart
        pids = pool_pids()
        assert pids["isomap"] == pids["train"]
        if threads == "1":
            assert pids["train"] == {os.getpid()}
        else:
            assert pids["train"] and os.getpid() not in pids["train"]

    def test_small_rounds_stay_in_process(self, monkeypatch, pool_pids):
        # the size of the benchmark's tracer self-check: 2-layer flows on 400
        # points, epochs 2/1/1/3/1, so round 1 counts ~11,000 row-layers
        monkeypatch.setenv("ATLASFLOW_THREADS", "2")
        cloud = _plane_cloud(n=400, seed=2)
        cfg = _tiny_config(n_layers=2, hidden=(8, 8), batch_size=64, epochs=(2, 1, 1, 3, 1), c_s=2)
        atlas.train(cloud, _two_charts(400, 30), cfg)
        assert pool_pids()["train"] == {os.getpid()}

    def test_first_failing_step_raises(self, monkeypatch, pool_pids):
        # chart 0 fails first in chart order, chart 1 first in step order
        _diverging(monkeypatch, {(3, 1, 0), (1, 2, 1)})
        monkeypatch.setattr(atlas, "POOL_MIN_ROW_LAYERS", 0)
        make, _, _ = _PINNED_RUNS["plane-five-phases"]
        cloud, cover, cfg = make()
        runs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("ATLASFLOW_THREADS", threads)
            rows = []
            with pytest.raises(DivergenceError) as info:
                atlas.train(cloud, cover, cfg, log_rows=rows)
            runs[threads] = ((info.value.phase, info.value.epoch, info.value.chart), rows, pool_pids()["train"])
        assert runs["1"][0] == runs["2"][0] == (1, 2, 1)
        assert [_row_key(r) for r in runs["2"][1]] == [(1, 1, 0), (1, 1, 1), (1, 2, 0)]
        assert runs["1"][1] == runs["2"][1]
        assert len(runs["2"][2]) > 1

    def test_parent_reads_less_than_the_geodesics(self, monkeypatch, pool_pids, pool_bytes):
        # every chart's geodesics, flows, optimiser states and latents stay in
        # its worker: the parent gets rows, reconstructions and the last flows
        monkeypatch.setattr(atlas, "POOL_MIN_ROW_LAYERS", 0)
        monkeypatch.setenv("ATLASFLOW_THREADS", "2")
        make, _, _ = _PINNED_RUNS["plane-five-phases"]
        cloud, cover, cfg = make()
        atlas.train(cloud, cover, cfg)
        assert len(pool_pids()["train"]) == 2
        geodesics = sum(8 * (len(c) * (len(c) - 1) // 2) for c in cover.charts)
        assert 0 < pool_bytes() < geodesics

    def test_isomap_failure_comes_before_every_step(self, monkeypatch, pool_pids):
        # chart 1 is a line, which has no 2-D embedding; chart 0 diverges in
        # phase 1, which its worker reaches before the parent hears of chart 1
        _diverging(monkeypatch, {(1, 1, 0)})
        monkeypatch.setattr(atlas, "POOL_MIN_ROW_LAYERS", 0)
        line = np.outer(np.linspace(0.0, 4.0, 60), [1.0, 2.0, -1.0])
        cloud = PointCloud(points=np.vstack([_plane_cloud(n=200, seed=2).points, line]))
        cover = ChartCover(n_points=260, charts=[np.arange(200), np.arange(200, 260)])
        runs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("ATLASFLOW_THREADS", threads)
            rows = []
            with pytest.raises(NumericError) as info:
                atlas.train(cloud, cover, _tiny_config(epochs=(2, 2, 2, 2, 2)), log_rows=rows)
            runs[threads] = (str(info.value), rows, pool_pids())
        assert runs["1"][:2] == runs["2"][:2]
        assert runs["1"][0].startswith("top-2 eigenvalue not positive") and runs["1"][1] == []
        assert runs["1"][2]["isomap"] == {os.getpid()}
        assert len(runs["2"][2]["isomap"]) == 2 and os.getpid() not in runs["2"][2]["isomap"]
        assert runs["2"][2]["train"] <= runs["2"][2]["isomap"]


class TestSampling:
    def test_count_and_dim(self, plane_model):
        _, model, _ = plane_model
        cloud, labels = atlas.sample(model, 1000, np.random.default_rng(0))
        assert cloud.points.shape == (1000, 3)
        assert labels.shape == (1000,)

    def test_degenerate_weights_pick_single_chart(self, plane_model):
        _, model, _ = plane_model
        rigged = atlas.AtlasModel(
            dim=model.dim,
            latent_dim=model.latent_dim,
            charts=[
                atlas.ChartModel(0, model.charts[0].members, model.charts[0].phi, model.charts[0].gamma, 1.0),
                atlas.ChartModel(1, model.charts[0].members, model.charts[0].phi, model.charts[0].gamma, 0.0),
            ],
            cover=ChartCover(
                n_points=model.cover.n_points,
                charts=[model.cover.charts[0], model.cover.charts[0]],
            ),
            config=model.config,
        )
        _, labels = atlas.sample(rigged, 500, np.random.default_rng(1))
        assert np.all(labels == 0)

    def test_samples_near_plane(self, plane_model):
        _, model, _ = plane_model
        cloud, _ = atlas.sample(model, 2000, np.random.default_rng(2))
        # surface z=0 with noise 0.01: samples live on the learned surface
        assert np.quantile(np.abs(cloud.points[:, 2]), 0.95) < 0.3

    def test_generation_encoding_consistency(self, plane_model):
        _, model, _ = plane_model
        cloud, labels = atlas.sample(model, 300, np.random.default_rng(3))
        for k, cm in enumerate(model.charts):
            rows = labels == k
            if rows.sum():
                xr = fl.reconstruct(cm.phi, model.latent_dim, cloud.points[rows])
                assert np.abs(xr - cloud.points[rows]).max() < 1e-6


class TestLogDensity:
    def test_identity_model_standard_normal(self):
        # identity phi embeds v -> (v, 0); identity gamma keeps the standard
        # normal; at the origin log p = -0.5 log(2 pi)
        rng = np.random.default_rng(0)
        phi = fl.make_flow(2, 2, rng)
        gamma = fl.make_flow(1, 2, rng)
        cover = ChartCover(n_points=1, charts=[np.array([0])])
        model = atlas.AtlasModel(
            dim=2, latent_dim=1,
            charts=[atlas.ChartModel(0, np.array([0]), phi, gamma, 1.0)],
            cover=cover, config=atlas.TrainConfig(latent_dim=1, n_layers=2),
        )
        (got,) = atlas.log_density(model, np.array([[0.0, 0.0]]))
        assert got == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-9)

    def test_scaling_embedding_shifts_density(self):
        # phi whose inverse stretches the latent axis by c: density drops by log c
        c = 1.6
        target = (1.0 / c) * fl._DERIV_NORM - fl.MIN_DERIVATIVE
        ud_raw = math.log(math.expm1(target)) - fl._DERIV_OFFSET
        ud_param = fl.RAW_CAP * math.atanh(ud_raw / fl.RAW_CAP)
        layer = fl.CouplingLayer(
            dim=2, id_idx=np.array([], dtype=int), tr_idx=np.array([0, 1]),
            n_bins=2, bound=5.0,
            raw=[np.zeros((2, 2)), np.zeros((2, 2)), np.array([[ud_param], [0.0]])],
        )
        phi = fl.FlowStack(dim=2, layers=[layer])
        gamma = fl.make_flow(1, 1, np.random.default_rng(0))
        cover = ChartCover(n_points=1, charts=[np.array([0])])
        model = atlas.AtlasModel(
            dim=2, latent_dim=1,
            charts=[atlas.ChartModel(0, np.array([0]), phi, gamma, 1.0)],
            cover=cover, config=atlas.TrainConfig(latent_dim=1, n_layers=1),
        )
        (got,) = atlas.log_density(model, np.array([[0.0, 0.0]]))
        assert got == pytest.approx(-0.5 * math.log(2 * math.pi) - math.log(c), abs=1e-3)

    def test_monte_carlo_normalization(self):
        # integral of the chart density over the surface == integral over the
        # latent of N(gamma(v)) |det J_gamma| sqrt(det G) / sqrt(det G) = 1
        rng = np.random.default_rng(1)
        phi = fl.make_flow(2, 3, rng)
        phi.set_parameters([p + 0.1 * rng.normal(size=p.shape) for p in phi.parameters()])
        gamma = fl.make_flow(1, 3, rng)
        gamma.set_parameters([p + 0.2 * rng.normal(size=p.shape) for p in gamma.parameters()])
        cover = ChartCover(n_points=1, charts=[np.array([0])])
        model = atlas.AtlasModel(
            dim=2, latent_dim=1,
            charts=[atlas.ChartModel(0, np.array([0]), phi, gamma, 1.0)],
            cover=cover, config=atlas.TrainConfig(latent_dim=1, n_layers=3),
        )
        n_mc = 100_000
        lim = 6.0
        v = rng.uniform(-lim, lim, size=(n_mc, 1))
        xr = fl.embed_latent(phi, v)
        log_p = atlas.chart_log_density(model, v, 0, xr)
        gram = fl.embedding_gram_logdet(phi, 1, v, xr)
        integral = float(np.exp(log_p + gram).mean() * (2 * lim))
        assert abs(integral - 1.0) < 0.05

    @pytest.mark.parametrize("cached", [p for p in _V1_MODELS if "torus_cover" in p.name], ids=lambda p: p.name)
    def test_matches_per_chart_reference(self, cached):
        # reference: fl.reconstruct per chart, then chart_log_density on the
        # latent codes of a phi forward pass over the included rows
        model = atlas.load(cached)
        cloud, _ = atlas.sample(model, 400, np.random.default_rng(3))
        x = cloud.points + np.random.default_rng(4).normal(scale=0.2, size=cloud.points.shape)
        err = np.stack([np.linalg.norm(fl.reconstruct(cm.phi, model.latent_dim, x) - x, axis=1)
                        for cm in model.charts])
        include = err <= model.config.membership_threshold
        include[err.argmin(axis=0), np.arange(len(x))] = True
        terms = np.full(include.shape, -np.inf)
        for k, cm in enumerate(model.charts):
            rows = np.flatnonzero(include[k])
            if rows.size:
                v = fl.latent_codes(cm.phi, model.latent_dim, x[rows])
                terms[k, rows] = math.log(cm.c_k) + atlas.chart_log_density(model, v, k, fl.embed_latent(cm.phi, v))
        m = terms.max(axis=0)
        expected = m + np.log(np.exp(terms - m).sum(axis=0))
        assert include.sum() > len(x)  # some points are scored by two charts
        assert np.array_equal(atlas.log_density(model, x), expected)

    @pytest.mark.parametrize("cached", [p for p in _V1_MODELS if "torus_cover" in p.name], ids=lambda p: p.name)
    def test_cache_free_passes_match_recorded_output(self, cached):
        # sha256 of the float64 bytes of this log_density output as computed
        # when every flow pass still kept its per-layer VJP caches
        model = atlas.load(cached)
        cloud, _ = atlas.sample(model, 400, np.random.default_rng(3))
        x = cloud.points + np.random.default_rng(4).normal(scale=0.2, size=cloud.points.shape)
        out = atlas.log_density(model, x)
        assert model.cover.n_charts == 6
        assert hashlib.sha256(out.tobytes()).hexdigest() == (
            "8841b2ab96b946a86e91674b1aa2f892447f4d19198a97a9a4c2523f229fe9b8")


_TORUS_MODELS = [p for p in _V1_MODELS if "torus_cover" in p.name]


class TestInferencePool:
    @pytest.mark.parametrize("cached", _TORUS_MODELS, ids=lambda p: p.name)
    def test_pool_matches_serial_bit_for_bit(self, monkeypatch, pool_pids, cached):
        model = atlas.load(cached)
        assert model.cover.n_charts >= 3
        monkeypatch.setattr(atlas, "POOL_MIN_ROW_LAYERS", 0)
        runs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("ATLASFLOW_THREADS", threads)
            cloud, labels = atlas.sample(model, 600, np.random.default_rng(5))
            x = cloud.points + np.random.default_rng(6).normal(scale=0.2, size=cloud.points.shape)
            runs[threads] = (cloud.points, labels, atlas.log_density(model, x), pool_pids()["flow"])
        serial, pooled = runs["1"], runs["2"]
        assert serial[3] == {os.getpid()}
        assert pooled[3] and os.getpid() not in pooled[3]
        for a, b in zip(serial[:3], pooled[:3]):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("cached", _TORUS_MODELS, ids=lambda p: p.name)
    def test_small_inputs_stay_in_process(self, monkeypatch, pool_pids, cached):
        # 200 samples or 100 points through six charts of 13-layer flows
        # stay below the threshold
        model = atlas.load(cached)
        monkeypatch.setenv("ATLASFLOW_THREADS", "2")
        cloud, _ = atlas.sample(model, 200, np.random.default_rng(0))
        atlas.log_density(model, cloud.points[:100])
        assert pool_pids()["flow"] == {os.getpid()}


def _perturbed_model(dim, latent_dim, seed):
    """A one-chart model whose flows carry random, non-round parameters."""
    rng = np.random.default_rng(seed)
    flows = []
    for d in (dim, latent_dim):
        f = fl.make_flow(d, 3, rng, hidden=(8, 8))
        f.set_parameters([p + rng.normal(size=p.shape) for p in f.parameters()])
        flows.append(f)
    return atlas.AtlasModel(
        dim=dim, latent_dim=latent_dim,
        charts=[atlas.ChartModel(0, np.array([0]), flows[0], flows[1], 1.0)],
        cover=ChartCover(n_points=1, charts=[np.array([0])]),
        config=atlas.TrainConfig(latent_dim=latent_dim, n_layers=3),
    )


def _flow_pairs(a, b):
    for ca, cb in zip(a.charts, b.charts, strict=True):
        assert ca.c_k == cb.c_k
        yield ca.phi, cb.phi
        yield ca.gamma, cb.gamma


class TestCheckpointIO:
    def test_round_trip_parameters(self, plane_model, tmp_path):
        _, model, _ = plane_model
        path = tmp_path / "ckpt.json"
        atlas.save(model, path)
        back = atlas.load(path)
        assert back.dim == model.dim and back.latent_dim == model.latent_dim
        for a, b in zip(model.charts, back.charts):
            assert a.c_k == b.c_k
            for pa, pb in zip(a.phi.parameters(), b.phi.parameters()):
                np.testing.assert_array_equal(pa, pb)
            for pa, pb in zip(a.gamma.parameters(), b.gamma.parameters()):
                np.testing.assert_array_equal(pa, pb)

    def test_forward_identical_after_round_trip(self, plane_model, tmp_path):
        _, model, _ = plane_model
        path = tmp_path / "ckpt.json"
        atlas.save(model, path)
        back = atlas.load(path)
        x = np.random.default_rng(4).normal(size=(100, 3))
        za, la = fl.stack_forward(model.charts[0].phi, x)
        zb, lb = fl.stack_forward(back.charts[0].phi, x)
        assert np.array_equal(za, zb) and np.array_equal(la, lb)

    def test_version_mismatch(self, plane_model, tmp_path):
        _, model, _ = plane_model
        path = tmp_path / "ckpt.json"
        atlas.save(model, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="format_version"):
            atlas.load(path)

    @pytest.mark.parametrize("dim, latent_dim", [(3, 2), (3, 1)], ids=["conditioned-3d", "raw-1d-gamma"])
    def test_v2_round_trip_bit_identical(self, tmp_path, dim, latent_dim):
        # the 1-D gamma of the second case is the trefoil's: raw spline blocks, no conditioner
        model = _perturbed_model(dim, latent_dim, seed=latent_dim)
        path = tmp_path / "ckpt.json"
        atlas.save(model, path)
        assert json.loads(path.read_text())["format_version"] == 2
        back = atlas.load(path)
        for flow_a, flow_b in _flow_pairs(model, back):
            for a, b in zip(flow_a.parameters(), flow_b.parameters(), strict=True):
                assert b.dtype == np.float64 and b.flags.writeable and b.flags.c_contiguous
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_no_decimal_float_lists(self, tmp_path):
        path = tmp_path / "ckpt.json"
        atlas.save(_perturbed_model(3, 2, seed=5), path)
        lists = []

        def walk(node):
            if isinstance(node, dict):
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                lists.append(node)
                for value in node:
                    walk(value)

        walk(json.loads(path.read_text()))
        assert lists and not any(isinstance(v, float) for lst in lists for v in lst)

    @pytest.mark.parametrize("cached", _V1_MODELS, ids=lambda p: p.name)
    def test_v1_model_reloads_as_v2(self, tmp_path, cached):
        assert json.loads(cached.read_text())["format_version"] == 1
        v1 = atlas.load(cached)
        path = tmp_path / "v2.json"
        atlas.save(v1, path)
        v2 = atlas.load(path)
        for flow_a, flow_b in _flow_pairs(v1, v2):
            for a, b in zip(flow_a.parameters(), flow_b.parameters(), strict=True):
                assert a.tobytes() == b.tobytes()
        samples_a, labels_a = atlas.sample(v1, 2000, np.random.default_rng(7))
        samples_b, labels_b = atlas.sample(v2, 2000, np.random.default_rng(7))
        assert np.array_equal(labels_a, labels_b)
        assert samples_a.points.tobytes() == samples_b.points.tobytes()

    def test_corrupt_file_reports_offset(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 1, "dim": ???')
        with pytest.raises(CheckpointError, match="byte"):
            atlas.load(path)


class TestConfigValidation:
    def test_lambda_p_range(self):
        with pytest.raises(ValueError):
            atlas.TrainConfig(lambda_p=0.0)
        with pytest.raises(ValueError):
            atlas.TrainConfig(lambda_p=1.5)

    def test_epochs_shape(self):
        with pytest.raises(ValueError):
            atlas.TrainConfig(epochs=(1, 2, 3))

    def test_presets(self):
        torus = atlas.TrainConfig()
        assert torus.epochs == (60, 30, 60, 60, 60)
        assert torus.lambda_o == 25.0 and torus.lambda_d == 0.01
        knot = atlas.trefoil_defaults()
        assert knot.epochs == (15, 30, 60, 60, 60)
        assert knot.latent_dim == 1 and knot.n_layers == 11
        assert knot.mapper.n_cubes == 2 and knot.mapper.perc_overlap == 0.2
