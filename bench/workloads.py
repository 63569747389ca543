"""Workloads of the pipeline benchmark, and one pass through each.

A pass generates its inputs with ``atlasflow.synth`` in set-up, then drives
the real user path, ``atlasflow.cli.main(argv)``, in-process: ``cover``,
``train``, ``sample`` and ``density``. Every input generation and every CLI
call is one operation. It fails on an exception, a non-zero exit code, or an
output that does not pass its check (a non-finite value, a wrong row count,
a cover that does not validate, a checkpoint that does not load back).

The checks and the quality measures call atlasflow through names bound when
this module is imported, so the tracer, which replaces the package's own
bindings, never records them.
"""

from __future__ import annotations

import gc
import hashlib
import io
import resource
import signal
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from atlasflow import cli
from atlasflow.atlas import load as load_checkpoint
from atlasflow.cover import load_cover
from atlasflow.flow import make_flow, reconstruct, stack_forward_cached, stack_forward_vjp, stack_inverse_cached
from atlasflow.synth import (
    TORUS_GMM_STD,
    ManifoldSpec,
    generate,
    kde_density,
    load_csv,
    save_csv,
    scott_bandwidth,
    torus_surface_distance,
    trefoil_curve_distance,
)

NOISE = 0.1
ON_MANIFOLD_TOL = 0.3          # the A5 acceptance distance: three noise widths
KDE_GRID = 2000                # the A6 acceptance grid size
QUALITY_SAMPLES = 5000         # generated points A5 and A6 score
SETUP_REPEATS = 3              # input generation runs this often; setup_s takes the median
QUALITY_UNITS = {"recon_mse": "1", "on_manifold_frac": "frac", "kde_r": "1", "density_log_r": "1"}


@dataclass(frozen=True)
class Workload:
    name: str
    manifold: str
    n_points: int
    cover_flags: tuple[str, ...]
    n_latent: int
    train_flags: tuple[str, ...]
    sample_count: int
    density_count: int          # held-out points (data seed + 1) scored by the density stage
    model_in_setup: bool        # cover and train run in set-up instead of being timed
    gmm: tuple | None = None    # parameter mixture; None keeps synth's own (fixed for the trefoil)
    repeats: dict = field(default_factory=dict, hash=False)   # stage -> runs per pass (default 1)


def _epochs(e1, e2, e3, e4, e5) -> tuple[str, ...]:
    out: tuple[str, ...] = ()
    for i, e in enumerate((e1, e2, e3, e4, e5), start=1):
        out += (f"--epochs-e{i}", str(e))
    return out


# One epoch of every phase (e2 and e3 both run the manifold phase), so every
# per-layer time is a measured, non-zero one on every workload. torus-train
# and torus-infer train the same model from the same inputs.
TORUS = ("--preset", "torus", "--layers", "13") + _epochs(1, 1, 1, 1, 1)
# synth draws the torus mixture means from the data seed, which moves the
# cover's pair count and the chart sizes by ~20% from seed to seed. A fixed
# mixture keeps every seed a fresh sample of one input distribution.
TORUS_GMM = tuple((m, TORUS_GMM_STD, 0.25) for m in (-2.6, -1.0, 0.4, 1.9))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="torus-train", manifold="torus", n_points=3000, cover_flags=(), n_latent=2,
            train_flags=TORUS, sample_count=5000, density_count=1000,
            model_in_setup=False, gmm=TORUS_GMM, repeats={"cover": 10, "sample": 8, "density": 3},
        ),
        Workload(
            name="trefoil-geometry", manifold="trefoil", n_points=7000,
            cover_flags=("--n-cubes", "2", "--perc-overlap", "0.2"), n_latent=1,
            train_flags=("--preset", "trefoil", "--layers", "11") + _epochs(1, 1, 0, 1, 1),
            sample_count=5000, density_count=1000, model_in_setup=False,
            repeats={"sample": 6, "density": 3},
        ),
        Workload(
            name="torus-infer", manifold="torus", n_points=3000, cover_flags=(), n_latent=2,
            train_flags=TORUS, sample_count=20000, density_count=5000,
            model_in_setup=True, gmm=TORUS_GMM, repeats={"cover": 10, "sample": 2, "density": 2},
        ),
    )
}


TICK_S = 0.1            # calibration tick interval
CAL_REF_S = 0.004       # mean tick-kernel time on the reference machine (2-vCPU x86-64 VM)
MIN_TICKS = 3           # a stage with fewer ticks inside is scaled by the latest ticks


class Calibration:
    """Takes the machine's speed while the stages run.

    On a shared 2-vCPU machine the same work runs up to ~40% slower for
    stretches of a second to minutes, in user time, not steal, and the two
    vCPUs swing independently. While active, a timer signal every ``TICK_S``
    runs a fixed kernel (small NumPy array ops plus a pure-Python loop, the
    two kinds of work atlasflow does) in the benchmark's own thread and
    times it. A stage's time, less the ticks inside it, is scaled by
    ``CAL_REF_S`` over the mean tick time during the stage. The benchmark
    owns the kernel, so no change to atlasflow moves it; raw times are kept
    in the run record.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._x = rng.standard_normal((256, 64))
        self._w = rng.standard_normal((64, 64)) / 8.0
        self._knots = np.sort(rng.standard_normal(64))
        self._pairs = rng.integers(0, 5000, size=(1500, 2)).tolist()
        self.ticks: list[float] = []
        self._busy = False
        self._previous = None

    def _kernel(self) -> float:
        t0 = perf_counter()
        x = self._x
        for _ in range(10):
            h = np.tanh(x @ self._w)
            idx = np.minimum(np.searchsorted(self._knots, h[:, :8]), 63)
            x = 0.5 * h + 0.5 * x + np.take_along_axis(h, idx, axis=1).mean()
        parent = list(range(5000))
        for i, j in self._pairs:
            while parent[i] != i:
                i = parent[i]
            while parent[j] != j:
                j = parent[j]
            if i != j:
                parent[max(i, j)] = min(i, j)
        return perf_counter() - t0

    def sample(self, n: int = MIN_TICKS) -> float:
        """Mean of ``n`` kernel runs, taken now."""
        self.ticks += [self._kernel() for _ in range(n)]
        return sum(self.ticks[-n:]) / n

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            try:
                self.ticks.append(self._kernel())
            finally:
                self._busy = False

    def __enter__(self) -> "Calibration":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn):
        """Run ``fn()``; return (its result, seconds less tick time, the same calibrated)."""
        first = len(self.ticks)
        t0 = perf_counter()
        result = fn()
        elapsed = perf_counter() - t0
        inside = self.ticks[first:]
        raw = elapsed - sum(inside)
        window = inside if len(inside) >= MIN_TICKS else self.ticks[-MIN_TICKS:]
        return result, raw, raw * CAL_REF_S * len(window) / sum(window)


def _read_table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _expect_table(name: str, table: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    if table.shape != shape:
        raise RuntimeError(f"{name}: table of shape {table.shape}, expected {shape}")
    if not np.all(np.isfinite(table)):
        raise RuntimeError(f"{name}: {int((~np.isfinite(table)).sum())} non-finite values")
    return table


def _cli(argv: list[str]):
    """The user path: one ``atlasflow`` command, its printout discarded."""

    def call():
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)

    return call


class StageFailed(Exception):
    """An operation failed; the pass cannot go on without its output."""


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0   # Linux reports KiB


class Pass:
    """One pass of a workload in its own directory: operation counts, stage
    times, output digests and the facts the checks learned."""

    def __init__(self, wl: Workload, seed: int, directory: Path, calibration: Calibration | None = None):
        self.wl = wl
        self.cal = calibration
        self.seed = seed
        directory.mkdir(parents=True, exist_ok=True)
        self.data = directory / "data.csv"
        self.heldout = directory / "heldout.csv"
        self.cover = directory / "cover.json"
        self.checkpoint = directory / "model.json"
        self.samples = directory / "samples.csv"
        self.density = directory / "density.csv"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.times: dict[str, list[float]] = {}      # raw seconds per call
        self.scaled: dict[str, list[float]] = {}     # the same, calibrated (raw without a calibration)
        self.digests: dict[str, str] = {}
        self.n_charts = 0
        self.chart_sizes: list[int] = []

    # -- one operation, timed, then checked -------------------------------

    def stage(self, stage: str, call, check) -> float:
        """One operation: ``call()`` returns an exit code, then ``check()``
        inspects the output. Returns the calibrated time of the call.

        Garbage is collected first: users run each stage in a fresh process,
        so one stage's leftovers must not raise the next one's peak memory."""
        self.attempted += 1
        gc.collect()
        try:
            if self.cal is None:
                t0 = perf_counter()
                code = call()
                raw = scaled = perf_counter() - t0
            else:
                code, raw, scaled = self.cal.time(call)
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            check()
        except (Exception, SystemExit) as exc:     # argparse exits on a bad argv
            self.failed += 1
            self.errors.append(f"{stage}: {exc!r}")
            raise StageFailed(stage) from exc
        self.times.setdefault(stage, []).append(raw)
        self.scaled.setdefault(stage, []).append(scaled)
        return scaled

    def _digest(self, key: str, path: Path) -> None:
        digest = sha256_file(path)
        if self.digests.setdefault(key, digest) != digest:
            raise RuntimeError(f"{key} differs between repeats of the same stage")

    # -- checks -------------------------------------------------------------

    def _check_cloud(self, path: Path, n: int) -> None:
        _expect_table(path.name, load_csv(path).points, (n, 3))

    def _check_cover(self) -> None:
        cover = load_cover(self.cover)          # validates
        sizes = [int(c.size) for c in cover.charts]
        if cover.n_points != self.wl.n_points or min(sizes) < self.wl.n_latent + 2:
            raise RuntimeError(f"cover over {cover.n_points} points with chart sizes {sizes}")
        self.n_charts, self.chart_sizes = cover.n_charts, sizes

    def _check_checkpoint(self) -> None:
        model = load_checkpoint(self.checkpoint)
        if len(model.charts) != self.n_charts or model.cover.n_points != self.wl.n_points:
            raise RuntimeError("checkpoint does not match its cover")
        for cm in model.charts:
            for arr in cm.phi.parameters() + cm.gamma.parameters():
                if not np.all(np.isfinite(arr)):
                    raise RuntimeError(f"chart {cm.chart_id}: non-finite parameter")
        self._digest("checkpoint_sha256", self.checkpoint)

    def _check_samples(self) -> None:
        table = _expect_table("samples", _read_table(self.samples), (self.wl.sample_count, 4))
        labels = table[:, -1]
        if np.any(labels != np.round(labels)) or labels.min() < 0 or labels.max() >= self.n_charts:
            raise RuntimeError("sample chart labels out of range")
        self._digest("samples_sha256", self.samples)

    def _check_density(self) -> None:
        table = _expect_table("density", _read_table(self.density), (self.wl.density_count, 5))
        if np.any(table[:, 3] < 0):
            raise RuntimeError("negative KDE value")

    # -- the CLI stages -----------------------------------------------------

    def _synth(self, path: Path, n: int, seed: int):
        spec = ManifoldSpec(kind=self.wl.manifold, n_points=n, noise_sigma=NOISE, seed=seed, gmm=self.wl.gmm)

        def call():
            save_csv(generate(spec), path)
            return 0

        return call

    def generate(self) -> float:
        wl, s = self.wl, self.seed
        return (self.stage("synth", self._synth(self.data, wl.n_points, s),
                           lambda: self._check_cloud(self.data, wl.n_points))
                + self.stage("synth", self._synth(self.heldout, wl.density_count, s + 1),
                             lambda: self._check_cloud(self.heldout, wl.density_count)))

    def run_cover(self) -> float:
        return self.stage("cover", _cli(["cover", "--data", str(self.data), *self.wl.cover_flags,
                                         "--n-latent", str(self.wl.n_latent), "-o", str(self.cover)]),
                          self._check_cover)

    def run_train(self) -> float:
        return self.stage("train", _cli(["train", "--data", str(self.data), "--cover", str(self.cover),
                                         *self.wl.train_flags, "--seed", str(self.seed),
                                         "-o", str(self.checkpoint)]),
                          self._check_checkpoint)

    def run_sample(self) -> float:
        return self.stage("sample", _cli(["sample", "--checkpoint", str(self.checkpoint),
                                          "--count", str(self.wl.sample_count), "--seed", str(self.seed),
                                          "-o", str(self.samples)]),
                          self._check_samples)

    def run_density(self) -> float:
        return self.stage("density", _cli(["density", "--data", str(self.heldout),
                                           "--checkpoint", str(self.checkpoint),
                                           "--reference", str(self.data), "-o", str(self.density)]),
                          self._check_density)

    # -- set-up and timed stages --------------------------------------------

    def _rounds(self, stages: tuple[str, ...], once: bool) -> None:
        """Run each stage its workload's number of times, round-robin, so the
        repeats of a short stage are spread over the run instead of sharing
        one burst of machine noise. Repeats overwrite identical outputs."""
        reps = {s: 1 if once else self.wl.repeats.get(s, 1) for s in stages}
        for r in range(max(reps.values())):
            for s in stages:
                if r < reps[s]:
                    getattr(self, f"run_{s}")()

    def setup(self, repeats: int = SETUP_REPEATS, once: bool = False) -> float:
        """Input generation (median of ``repeats``), then the model when the
        workload trains it in set-up. Returns the set-up seconds, imports not
        included."""
        seconds = median(self.generate() for _ in range(repeats))
        if self.wl.model_in_setup:
            self._rounds(("cover", "train"), once)
            seconds += self.stage_s("cover") + self.stage_s("train")
        return seconds

    def timed(self, once: bool = False) -> None:
        stages = ("sample", "density") if self.wl.model_in_setup else ("cover", "train", "sample", "density")
        self._rounds(stages, once)

    def stage_s(self, stage: str) -> float:
        """Median calibrated time of a stage's calls."""
        return median(self.scaled[stage])


# -- quality, computed from the stage outputs outside the timed stages --------

def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.corrcoef(a, b)[0, 1])


def quality(p: Pass) -> dict[str, float]:
    model = load_checkpoint(p.checkpoint)
    train = load_csv(p.data).points
    sq_err = 0.0
    rows = 0
    for cm in model.charts:
        x = train[cm.members]
        sq_err += float(((reconstruct(cm.phi, model.latent_dim, x) - x) ** 2).sum())
        rows += x.shape[0]
    # sample rows are independent draws, so the first rows are a fair subset
    samples = _read_table(p.samples)[:QUALITY_SAMPLES, :3]
    dist = torus_surface_distance(samples) if p.wl.manifold == "torus" else trefoil_curve_distance(samples)
    grid = train[np.random.default_rng(p.seed).choice(train.shape[0], size=KDE_GRID, replace=False)]
    bw = scott_bandwidth(train)
    dens = _read_table(p.density)
    kde, logp = dens[:, 3], dens[:, 4]
    keep = kde > 0
    return {
        "recon_mse": sq_err / rows,
        "on_manifold_frac": float((dist <= ON_MANIFOLD_TOL).mean()),
        "kde_r": _pearson(kde_density(train, grid, bandwidth=bw), kde_density(samples, grid, bandwidth=bw)),
        "density_log_r": _pearson(logp[keep], np.log(kde[keep])),
    }


# -- kernel probes on a seeded, perturbed 13-layer 3-D flow -------------------

PROBE_MIN_SECONDS = 0.3


def _probe_flow(seed: int):
    rng = np.random.default_rng(seed)
    f = make_flow(3, 13, rng)
    # a fresh flow is the identity; perturb every parameter so the splines bend
    f.set_parameters([p + 0.1 * rng.standard_normal(p.shape) for p in f.parameters()])
    return f, rng


def _per_row_us(fn, rows: int) -> float:
    calls = []
    start = perf_counter()
    while len(calls) < 3 or perf_counter() - start < PROBE_MIN_SECONDS:
        t0 = perf_counter()
        fn()
        calls.append(perf_counter() - t0)
    return median(calls) / rows * 1e6


def probes(seed: int) -> dict[str, float]:
    f, rng = _probe_flow(seed)
    out = {}
    for b in (64, 256, 1024):
        x = rng.standard_normal((b, 3))
        gz = rng.standard_normal((b, 3))
        gl = np.ones(b)

        def fwd_vjp():
            _, _, caches = stack_forward_cached(f, x)
            stack_forward_vjp(f, caches, gz, gl)

        out[f"flow.probe.fwd_vjp_us_per_row.b{b}"] = _per_row_us(fwd_vjp, b)
    for b in (256, 4096):
        z = rng.standard_normal((b, 3))
        out[f"flow.probe.inverse_us_per_row.b{b}"] = _per_row_us(lambda: stack_inverse_cached(f, z), b)
    return out

