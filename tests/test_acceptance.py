"""Acceptance criteria, one test per criterion, each printing a PASS line.

Heavy artifacts (trained checkpoints, sample sets) are built through the CLI
and cached under tests/.acceptance_cache; delete that directory to force a
full rebuild.  The first full run trains four models and takes tens of
minutes at the reduced scale documented below (13 layers, halved epochs for
the torus per the stated runtime allowance); cached reruns take seconds.

The invariant suite (criterion 7) needs no trained model and runs in
minutes.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from atlasflow import atlas, cli
from atlasflow import cover as cov
from atlasflow import flow as fl
from atlasflow import geo, synth
from atlasflow.cover import ChartCover
from atlasflow.losses import (
    Batch,
    Passes,
    compatibility_loss,
    density_nll,
    manifold_loss_parts,
    pretraining_loss,
)

CACHE_DIR = Path(__file__).parent / ".acceptance_cache"

# torus fixture: Appendix-D settings with halved epochs (13 layers kept)
TORUS_N = 10_000
TORUS_SEED = 0
TORUS_NOISE = 0.1
TORUS_TRAIN_FLAGS = [
    "--preset", "torus",
    "--layers", "13",
    "--epochs-e1", "30", "--epochs-e2", "15", "--epochs-e3", "30",
    "--epochs-e4", "30", "--epochs-e5", "30",
    "--seed", "0",
]
# trefoil fixture: 11 layers, roughly halved epochs
TREFOIL_N = 10_000
TREFOIL_SEED = 0
TREFOIL_TRAIN_FLAGS = [
    "--preset", "trefoil",
    "--layers", "11",
    "--epochs-e1", "8", "--epochs-e2", "15", "--epochs-e3", "30",
    "--epochs-e4", "30", "--epochs-e5", "30",
    "--seed", "0",
]
TORUS_COVER_FLAGS = ["--n-cubes", "5", "--perc-overlap", "0.45", "--threshold", "1.0", "--n-latent", "2"]
TREFOIL_COVER_FLAGS = ["--n-cubes", "2", "--perc-overlap", "0.2", "--threshold", "1.0", "--n-latent", "1"]
# single-vs-multi comparison: smaller cloud, identical hyperparameters for
# both arms (a full-size single-chart Isomap would dominate the runtime)
COMPARE_N = 3000
COMPARE_FLAGS = [
    "--preset", "torus",
    "--layers", "6",
    "--epochs-e1", "20", "--epochs-e2", "10", "--epochs-e3", "20",
    "--epochs-e4", "10", "--epochs-e5", "0",
    "--seed", "0",
]

_TAG_SOURCE = json.dumps(
    [TORUS_N, TORUS_SEED, TORUS_NOISE, TORUS_TRAIN_FLAGS, TREFOIL_N, TREFOIL_SEED,
     TREFOIL_TRAIN_FLAGS, COMPARE_N, COMPARE_FLAGS]
)
_TAG = hashlib.sha256(_TAG_SOURCE.encode()).hexdigest()[:10]


def _cache(name: str) -> Path:
    CACHE_DIR.mkdir(exist_ok=True)
    return CACHE_DIR / f"{_TAG}_{name}"


def _run_cli(argv) -> None:
    rc = cli.main(argv)
    assert rc == 0, f"CLI failed ({rc}): {argv}"


def _ensure(path: Path, builder) -> Path:
    if not path.exists():
        builder(path)
    return path


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPT {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def torus_csv():
    return _ensure(_cache("torus.csv"), lambda p: _run_cli(
        ["synth", "--manifold", "torus", "--n", str(TORUS_N), "--noise", str(TORUS_NOISE),
         "--seed", str(TORUS_SEED), "-o", str(p)]))


@pytest.fixture(scope="session")
def torus_cover(torus_csv):
    return _ensure(_cache("torus_cover.json"), lambda p: _run_cli(
        ["cover", "--data", str(torus_csv), *TORUS_COVER_FLAGS, "-o", str(p)]))


@pytest.fixture(scope="session")
def torus_cover_ckpt(torus_csv, torus_cover):
    return _ensure(_cache("torus_cover_model.json"), lambda p: _run_cli(
        ["train", "--data", str(torus_csv), "--cover", str(torus_cover), *TORUS_TRAIN_FLAGS,
         "--log", str(_cache("torus_cover_log.csv")), "-o", str(p)]))


@pytest.fixture(scope="session")
def torus_part_ckpt(torus_csv, torus_cover):
    return _ensure(_cache("torus_part_model.json"), lambda p: _run_cli(
        ["train", "--data", str(torus_csv), "--cover", str(torus_cover), "--partition",
         *TORUS_TRAIN_FLAGS, "--log", str(_cache("torus_part_log.csv")), "-o", str(p)]))


@pytest.fixture(scope="session")
def boundary_table(torus_csv, torus_cover, torus_cover_ckpt, torus_part_ckpt):
    path = _ensure(_cache("boundary_table.csv"), lambda p: _run_cli(
        ["eval-boundary", "--data", str(torus_csv), "--cover", str(torus_cover),
         "--cover-checkpoint", str(torus_cover_ckpt),
         "--partition-checkpoint", str(torus_part_ckpt), "-o", str(p)]))
    with open(path) as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="session")
def trefoil_csv():
    return _ensure(_cache("trefoil.csv"), lambda p: _run_cli(
        ["synth", "--manifold", "trefoil", "--n", str(TREFOIL_N), "--noise", str(TORUS_NOISE),
         "--seed", str(TREFOIL_SEED), "-o", str(p)]))


@pytest.fixture(scope="session")
def trefoil_cover(trefoil_csv):
    return _ensure(_cache("trefoil_cover.json"), lambda p: _run_cli(
        ["cover", "--data", str(trefoil_csv), *TREFOIL_COVER_FLAGS, "-o", str(p)]))


@pytest.fixture(scope="session")
def trefoil_ckpt(trefoil_csv, trefoil_cover):
    return _ensure(_cache("trefoil_model.json"), lambda p: _run_cli(
        ["train", "--data", str(trefoil_csv), "--cover", str(trefoil_cover),
         *TREFOIL_TRAIN_FLAGS, "-o", str(p)]))


@pytest.fixture(scope="session")
def torus_samples(torus_cover_ckpt):
    path = _ensure(_cache("torus_samples.csv"), lambda p: _run_cli(
        ["sample", "--checkpoint", str(torus_cover_ckpt), "--count", "5000",
         "--seed", "1", "-o", str(p)]))
    cloud = synth.load_csv(path)
    return cloud.points


@pytest.fixture(scope="session")
def trefoil_samples(trefoil_ckpt):
    path = _ensure(_cache("trefoil_samples.csv"), lambda p: _run_cli(
        ["sample", "--checkpoint", str(trefoil_ckpt), "--count", "5000",
         "--seed", "1", "-o", str(p)]))
    cloud = synth.load_csv(path)
    return cloud.points


@pytest.fixture(scope="session")
def compare_curves():
    data = _ensure(_cache("compare_torus.csv"), lambda p: _run_cli(
        ["synth", "--manifold", "torus", "--n", str(COMPARE_N), "--noise", str(TORUS_NOISE),
         "--seed", str(TORUS_SEED), "-o", str(p)]))
    path = _ensure(_cache("compare_curves.csv"), lambda p: _run_cli(
        ["compare-single", "--data", str(data), *COMPARE_FLAGS, "-o", str(p)]))
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    multi = np.array([float(r["multi_recon"]) for r in rows])
    single = np.array([float(r["single_recon"]) for r in rows])
    return multi, single


class TestCoverVsPartition:
    def test_a1_table1_average_and_ratio(self, boundary_table):
        overall = next(r for r in boundary_table if r["data_label"] == "overall")
        cover_avg = float(overall["cover_mse"])
        part_avg = float(overall["partition_mse"])
        ratio = part_avg / cover_avg
        _report(
            "A1 cover-vs-partition",
            cover_avg <= 0.05 and ratio >= 3.0,
            f"cover {cover_avg:.4f} (<=0.05), partition {part_avg:.4f}, ratio {ratio:.2f} (>=3)",
        )

    def test_a2_per_pair_dominance(self, boundary_table):
        pair_rows = [r for r in boundary_table if r["data_label"] != "overall"]
        assert pair_rows, "no boundary pairs found"
        bad = [
            (r["data_label"], r["model_label"])
            for r in pair_rows
            if not float(r["cover_mse"]) < float(r["partition_mse"])
        ]
        _report(
            "A2 per-pair dominance",
            not bad,
            f"{len(pair_rows)} adjacent pairs, cover < partition in all"
            + (f"; violations: {bad}" if bad else ""),
        )


class TestSingleVsMulti:
    def test_a3_multi_chart_beats_single(self, compare_curves):
        multi, single = compare_curves
        ok = multi[-1] < single[-1] and multi[9] < single[9]
        _report(
            "A3 single-vs-multi",
            ok,
            f"final {multi[-1]:.4f} < {single[-1]:.4f}; epoch10 {multi[9]:.4f} < {single[9]:.4f}",
        )


class TestChartCounts:
    def test_a4_chart_counts(self, torus_cover, trefoil_cover):
        n_torus = cov.load_cover(torus_cover).n_charts
        n_knot = cov.load_cover(trefoil_cover).n_charts
        _report(
            "A4 chart counts",
            n_torus == 6 and n_knot == 4,
            f"torus {n_torus} (=6), trefoil {n_knot} (=4)",
        )


class TestCachedCover:
    """The cached covers that the trained artifacts rest on must be what the
    code under test builds from the cached point clouds."""

    @pytest.mark.parametrize("name, flags", [("torus", TORUS_COVER_FLAGS), ("trefoil", TREFOIL_COVER_FLAGS)])
    def test_cached_cover_rebuilds_byte_identical(self, tmp_path, name, flags):
        data, cached = _cache(f"{name}.csv"), _cache(f"{name}_cover.json")
        if not (data.exists() and cached.exists()):
            pytest.skip("acceptance cache not built")
        out = tmp_path / "cover.json"
        _run_cli(["cover", "--data", str(data), *flags, "-o", str(out)])
        assert out.read_bytes() == cached.read_bytes()


class TestCachedSamples:
    """The cached sample sets that A5 and A6 score must be what the code
    under test draws from the cached models."""

    @pytest.mark.parametrize("name, model", [("torus", "torus_cover_model"), ("trefoil", "trefoil_model")])
    def test_cached_samples_redraw_byte_identical(self, tmp_path, name, model):
        ckpt, cached = _cache(f"{model}.json"), _cache(f"{name}_samples.csv")
        if not (ckpt.exists() and cached.exists()):
            pytest.skip("acceptance cache not built")
        out = tmp_path / "samples.csv"
        _run_cli(["sample", "--checkpoint", str(ckpt), "--count", "5000", "--seed", "1", "-o", str(out)])
        assert out.read_bytes() == cached.read_bytes()


class TestGenerationFidelity:
    def test_a5_torus_samples_on_surface(self, torus_samples):
        d = synth.torus_surface_distance(torus_samples)
        frac = float((d <= 3 * TORUS_NOISE).mean())
        _report("A5 torus generation", frac >= 0.95, f"{frac:.3f} of 5000 within 0.3 (>=0.95)")

    def test_a5_trefoil_samples_on_curve(self, trefoil_samples):
        d = synth.trefoil_curve_distance(trefoil_samples)
        frac = float((d <= 3 * TORUS_NOISE).mean())
        _report("A5 trefoil generation", frac >= 0.95, f"{frac:.3f} of 5000 within 0.3 (>=0.95)")


class TestDensityFidelity:
    @staticmethod
    def _kde_correlation(train_pts, gen_pts, seed):
        rng = np.random.default_rng(seed)
        grid = train_pts[rng.choice(train_pts.shape[0], size=2000, replace=False)]
        bw = synth.scott_bandwidth(train_pts)
        kde_train = synth.kde_density(train_pts, grid, bandwidth=bw)
        kde_gen = synth.kde_density(gen_pts, grid, bandwidth=bw)
        return float(np.corrcoef(kde_train, kde_gen)[0, 1])

    def test_a6_torus_density_correlation(self, torus_csv, torus_samples):
        train = synth.load_csv(torus_csv).points
        r = self._kde_correlation(train, torus_samples, seed=11)
        _report("A6 torus density", r > 0.7, f"KDE Pearson r {r:.3f} (>0.7)")

    def test_a6_trefoil_density_correlation(self, trefoil_csv, trefoil_samples):
        train = synth.load_csv(trefoil_csv).points
        r = self._kde_correlation(train, trefoil_samples, seed=12)
        _report("A6 trefoil density", r > 0.7, f"KDE Pearson r {r:.3f} (>0.7)")


class TestInvariantSuite:
    """Criterion 7: runnable without any trained model, in minutes."""

    def test_a7_flow_round_trip(self):
        rng = np.random.default_rng(0)
        f = fl.make_flow(3, 13, np.random.default_rng(1))
        f.set_parameters([p + 0.12 * rng.normal(size=p.shape) for p in f.parameters()])
        x = rng.normal(size=(1000, 3)) * 2
        z, ld = fl.stack_forward(f, x)
        xb, ldi = fl.stack_inverse(f, z)
        err = max(float(np.abs(xb - x).max()), float(np.abs(ld + ldi).max()))
        _report("A7 flow round trip", err < 1e-8, f"13-layer max err {err:.2e} (<1e-8)")

    def test_a7_logdet_vs_fd_jacobian(self):
        worst = 0.0
        for dim in (2, 3):
            f = fl.make_flow(dim, 4, np.random.default_rng(dim))
            rng = np.random.default_rng(dim + 20)
            f.set_parameters([p + 0.15 * rng.normal(size=p.shape) for p in f.parameters()])
            for x in rng.normal(size=(5, 1, dim)):
                _, (ld,) = fl.stack_forward(f, x)
                h = 1e-6
                jac = np.zeros((dim, dim))
                for i in range(dim):
                    e = np.zeros(dim)
                    e[i] = h
                    (zp,), _ = fl.stack_forward(f, x + e)
                    (zm,), _ = fl.stack_forward(f, x - e)
                    jac[:, i] = (zp - zm) / (2 * h)
                _, fd = np.linalg.slogdet(jac)
                worst = max(worst, abs(ld - fd) / max(abs(fd), 1.0))
        _report("A7 logdet vs FD", worst < 1e-4, f"worst rel err {worst:.2e} (<1e-4)")

    def test_a7_loss_gradients_vs_fd(self):
        rng = np.random.default_rng(3)
        f = fl.make_flow(3, 3, np.random.default_rng(4))
        f.set_parameters([p + 0.15 * rng.normal(size=p.shape) for p in f.parameters()])
        x = rng.normal(size=(6, 3))
        d_ref = np.abs(rng.normal(size=(6, 6)))
        d_ref = 0.5 * (d_ref + d_ref.T)
        np.fill_diagonal(d_ref, 0.0)
        batch = Batch(indices=np.arange(6), x=x, r=rng.normal(size=(6, 2)), d_ref=d_ref,
                      multiplicity=np.array([2, 1, 2, 1, 2, 1]))
        from atlasflow.losses import ExpectedPoints
        xhat = ExpectedPoints(xhat=rng.normal(size=(6, 3)), epoch=0)
        gamma = fl.make_flow(2, 3, np.random.default_rng(5))
        gamma.set_parameters([p + 0.15 * rng.normal(size=p.shape) for p in gamma.parameters()])
        v = rng.normal(size=(6, 2))

        def passes(flow_obj):
            z, _, fwd_caches = fl.stack_forward_cached(flow_obj, x)
            xr, _, inv_caches = fl.stack_inverse_cached(flow_obj, fl.project(z, 2))
            return Passes(z, fwd_caches, xr, inv_caches)

        losses = {
            "pretraining": (f, lambda: pretraining_loss(f, batch)),
            "reconstruction": (f, lambda: manifold_loss_parts(f, 2, batch, 0.0)[:2]),
            "pairwise": (f, lambda: manifold_loss_parts(f, 2, batch, 1.0)[:2]),
            "manifold": (f, lambda: manifold_loss_parts(f, 2, batch, 0.6)[:2]),
            "compatibility": (f, lambda: compatibility_loss(f, 2, batch, xhat, passes(f))),
            "density": (gamma, lambda: density_nll(gamma, v)),
        }
        worst_overall = 0.0
        h = 1e-5
        for name, (flow_obj, fn) in losses.items():
            _, grads = fn()
            params = flow_obj.parameters()
            for pi in rng.choice(len(params), size=4, replace=False):
                flat = params[pi].ravel()
                for j in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                    orig = flat[j]
                    flat[j] = orig + h
                    lp = fn()[0]
                    flat[j] = orig - h
                    lm = fn()[0]
                    flat[j] = orig
                    fd = (lp - lm) / (2 * h)
                    an = grads[pi].ravel()[j]
                    worst_overall = max(worst_overall, abs(fd - an) / max(abs(fd), abs(an), 1e-5))
        _report("A7 loss gradients", worst_overall < 1e-3, f"worst rel err {worst_overall:.2e} (<1e-3)")

    def test_a7_disintegration_weights(self):
        charts = [np.arange(0, 70), np.arange(30, 100)]
        cover = ChartCover(n_points=100, charts=charts)
        c = atlas.disintegration_weights(cover)
        exact = np.allclose(c, [0.5, 0.5], atol=0) and abs(c.sum() - 1.0) < 1e-12
        rng = np.random.default_rng(6)
        sums_ok = True
        for _ in range(5):
            n = 300
            charts = []
            for _ in range(5):
                charts.append(np.sort(rng.choice(n, size=rng.integers(50, 200), replace=False)))
            missing = np.setdiff1d(np.arange(n), np.unique(np.concatenate(charts)))
            if missing.size:
                charts[0] = np.sort(np.concatenate([charts[0], missing]))
            cover = ChartCover(n_points=n, charts=charts)
            c = atlas.disintegration_weights(cover)
            sums_ok = sums_ok and abs(c.sum() - 1.0) < 1e-12
        _report("A7 disintegration", exact and sums_ok, "counting oracle exact, sums within 1e-12")

    def test_a7_geodesics_match_floyd_warshall(self):
        rng = np.random.default_rng(7)
        ok = True
        for n, k in ((60, 4), (150, 5), (200, 4)):
            pts = rng.normal(size=(n, 3))
            g = geo.knn_graph(pts, k)
            g.adjacency.data = np.ceil(g.adjacency.data * 1024.0) / 1024.0
            try:
                got = geo.geodesic_matrix(g)
            except Exception:
                continue
            d = np.where(g.adjacency.toarray() > 0, g.adjacency.toarray(), np.inf)
            np.fill_diagonal(d, 0.0)
            for mid in range(n):
                d = np.minimum(d, d[:, mid : mid + 1] + d[mid : mid + 1, :])
            ok = ok and np.array_equal(got, d)
        _report("A7 geodesics", ok, "exact match to Floyd-Warshall (N<=200)")

    def test_a7_density_normalization_monte_carlo(self):
        rng = np.random.default_rng(8)
        phi = fl.make_flow(2, 3, np.random.default_rng(9))
        phi.set_parameters([p + 0.1 * rng.normal(size=p.shape) for p in phi.parameters()])
        gamma = fl.make_flow(1, 3, np.random.default_rng(10))
        gamma.set_parameters([p + 0.2 * rng.normal(size=p.shape) for p in gamma.parameters()])
        model = atlas.AtlasModel(
            dim=2, latent_dim=1,
            charts=[atlas.ChartModel(0, np.array([0]), phi, gamma, 1.0)],
            cover=ChartCover(n_points=1, charts=[np.array([0])]),
            config=atlas.TrainConfig(latent_dim=1, n_layers=3),
        )
        lim = 6.0
        v = rng.uniform(-lim, lim, size=(100_000, 1))
        xr = fl.embed_latent(phi, v)
        log_p = atlas.chart_log_density(model, v, 0, xr)
        gram = fl.embedding_gram_logdet(phi, 1, v, xr)
        integral = float(np.exp(log_p + gram).mean() * 2 * lim)
        _report(
            "A7 density normalization",
            abs(integral - 1.0) < 0.05,
            f"MC integral {integral:.3f} (within 5% of 1)",
        )

    def test_a7_training_determinism(self, tmp_path):
        rng = np.random.default_rng(11)
        pts = np.column_stack([
            rng.uniform(-2, 2, 150), rng.uniform(-2, 2, 150), rng.normal(0, 0.01, 150)])
        cover = ChartCover(n_points=150, charts=[np.arange(100), np.arange(60, 150)])
        cfg = atlas.TrainConfig(latent_dim=2, n_layers=2, hidden=(12, 12),
                                epochs=(2, 2, 2, 2, 2), batch_size=64, seed=9)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        atlas.save(atlas.train(synth.PointCloud(points=pts), cover, cfg), a)
        atlas.save(atlas.train(synth.PointCloud(points=pts), cover, cfg), b)
        same = a.read_bytes() == b.read_bytes()
        _report("A7 determinism", same, "identical seeds give byte-identical checkpoints")
