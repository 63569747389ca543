"""Self-checks of the benchmark's tracer.

    python3 -m pytest -q bench/test_bench.py

On a tiny schedule the traced call counts must equal the counts the
five-phase schedule implies, and tracing must not change what the program
writes.
"""

import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads as W  # noqa: E402
from tracer import Tracer  # noqa: E402

EPOCHS = (2, 1, 1, 3, 1)
BATCH = 64
C_S = 2

TINY = W.Workload(
    name="tiny", manifold="torus", n_points=400, cover_flags=(), n_latent=2,
    train_flags=("--preset", "torus", "--layers", "2", "--hidden", "8,8", "--batch", str(BATCH),
                 "--cs", str(C_S)) + W._epochs(*EPOCHS),
    sample_count=300, density_count=60, model_in_setup=False,
)


def _n_batches(m: int, b: int) -> int:
    """Batches per epoch after atlas._epoch_batches merges a trailing singleton."""
    if m <= b:
        return 1
    return math.ceil(m / b) - (1 if m % b == 1 else 0)


def _one_pass(tmp_path, name, tracer=None):
    p = W.Pass(TINY, seed=3, directory=tmp_path / name)
    if tracer is not None:
        tracer.install()
    try:
        p.setup(repeats=1, once=True)
        p.timed(once=True)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return p


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    plain = _one_pass(tmp, "plain")
    tracer = Tracer()
    traced = _one_pass(tmp, "traced", tracer)
    return plain, traced, tracer


def test_tracing_changes_no_output(passes):
    plain, traced, _ = passes
    assert plain.failed == traced.failed == 0
    assert plain.attempted == traced.attempted == 6
    assert plain.digests == traced.digests
    assert set(plain.digests) == {"checkpoint_sha256", "samples_sha256"}


def test_call_counts_match_schedule(passes):
    _, traced, tracer = passes
    e1, e2, e3, e4, e5 = EPOCHS
    sizes = traced.chart_sizes
    nb = [_n_batches(m, BATCH) for m in sizes]
    ceil_b = [math.ceil(m / BATCH) for m in sizes]
    pre = sum(n * e1 for n in nb)
    manifold = sum(n * (e2 + e3 + e4) for n in nb)
    density = sum(c * (e1 + e5) + n * (e2 + e3 + e4) for c, n in zip(ceil_b, nb))
    expected = {
        "losses.pretraining_loss": pre,
        "losses.manifold_loss_parts": manifold,
        "losses.compatibility_loss": sum(n * e4 for n in nb),
        "losses.density_nll": density,
        "losses.expected_points": math.ceil(e4 / C_S),
        "atlas.bootstrap_batch": density,
        "nnopt.adam_step": pre + manifold + density,
        "nnopt.clip_global_norm": pre + manifold + density,
        "geo.isomap": len(sizes),
        "atlas.train": 1,
        "atlas.save": 1,
        "atlas.sample": 1,
        "atlas.log_density": 1,
        "cli.main": 4,
    }
    totals = tracer.totals()
    assert {k: totals[k]["calls"] for k in expected} == expected
    assert tracer.counts["geo.isomap.pairs"] == sum(m * m for m in sizes)
    assert tracer.counts["atlas.log_density.cells"] == len(sizes) * TINY.density_count


def test_self_times_add_up_per_stage(passes):
    _, _, tracer = passes
    sums = tracer.stage_self_sums()
    assert len(sums) == 4
    for duration, self_sum in sums:
        assert self_sum == pytest.approx(duration, rel=1e-9, abs=1e-12)
    assert sum(self_sum for _, self_sum in sums) == pytest.approx(sum(tracer.self_s), rel=1e-12)


def test_phase_times_cover_every_phase(passes):
    _, _, tracer = passes
    phases = [tracer.counts[f"atlas.phase{i}_s"] for i in range(1, 6)]
    assert all(t > 0 for t in phases)
    (train,) = [i for i, n in enumerate(tracer.names) if n == "atlas.train"]
    assert sum(phases) < tracer.ends[train] - tracer.starts[train]


def test_uninstall_restores_every_binding():
    import atlasflow.flow as fl
    import atlasflow.losses as losses

    before = (fl.stack_forward_cached, losses.stack_forward_cached, fl.mlp_forward_cached)
    tracer = Tracer().install()
    assert losses.stack_forward_cached is fl.stack_forward_cached
    assert fl.stack_forward_cached is not before[0]
    tracer.uninstall()
    assert (fl.stack_forward_cached, losses.stack_forward_cached, fl.mlp_forward_cached) == before
