"""Command-line interface.

Subcommands: synth, cover, train, sample, density, eval-boundary,
compare-single.  Exit codes: 2 configuration error (incl. unknown manifold /
bad config file), 3 degenerate lens, 4 training divergence, 5 unreadable,
malformed or version-mismatched checkpoint, 6 chart-label mismatch between
checkpoints, 7 unusable cover (unreadable or malformed cover file, a
non-integer chart index, a stored nerve or multiplicity that disagrees with
the charts, a cover that leaves points uncovered, or eval-boundary on a cover
with no overlap points), 8 unusable point CSV (missing, ragged,
non-numeric, or without x* columns or data rows), 9 numerical failure (a
chart whose Isomap embedding has a non-positive top eigenvalue, a singular
embedding Gram matrix in density evaluation), 10 disconnected neighbor graph.

Config precedence: command-line flags override the --config JSON file, which
overrides $ATLASFLOW_SEED (for the seed), which overrides the preset defaults
(torus values unless --preset trefoil).  synth and sample take their seed
from --seed, else $ATLASFLOW_SEED, else 0.  $ATLASFLOW_THREADS (default: one
per usable CPU) caps the threads of the neighbor search and the worker
processes of the one fork pool, which runs each chart's Isomap and training
in one worker for all of train and the per-chart flow passes of sample and
density while the parent waits.  A malformed $ATLASFLOW_SEED or $ATLASFLOW_THREADS exits 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import atlas, cover as cov, env, synth
from . import flow as fl
from .errors import (
    CheckpointError,
    ConfigError,
    ConnectivityError,
    CoverError,
    DataError,
    DegenerateLensError,
    DivergenceError,
    LabelMismatchError,
    NumericError,
)

_EXIT_CODES = [
    (ConfigError, 2),
    (DegenerateLensError, 3),
    (DivergenceError, 4),
    (CheckpointError, 5),
    (LabelMismatchError, 6),
    (CoverError, 7),
    (DataError, 8),
    (NumericError, 9),
    (ConnectivityError, 10),
]

_CONFIG_KEYS = {f.name for f in fields(atlas.TrainConfig)}
_MAPPER_KEYS = {f.name for f in fields(cov.MapperConfig)}


def _seed(args) -> int:
    """--seed, else $ATLASFLOW_SEED, else 0."""
    if args.seed is not None:
        return args.seed
    value = env.seed()
    return 0 if value is None else value


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=["torus", "trefoil"], default="torus",
                   help="hyperparameter preset (default torus)")
    p.add_argument("--config", help="JSON config file; unknown keys are rejected")
    p.add_argument("--latent-dim", type=int, help="manifold dimension n (torus 2, trefoil 1)")
    p.add_argument("--layers", type=int, dest="n_layers", metavar="LAYERS",
                   help="coupling layers per flow (torus 13, trefoil 11)")
    p.add_argument("--bins", type=int, dest="n_bins", metavar="BINS",
                   help="spline bins per coordinate (default 8)")
    p.add_argument("--hidden", type=_int_list, help="conditioner hidden sizes, comma separated (default 64,64)")
    p.add_argument("--lr", type=float, dest="learning_rate", metavar="LR",
                   help="initial Adam rate (default 0.0015)")
    p.add_argument("--batch", type=int, dest="batch_size", metavar="BATCH",
                   help="batch size (default 256)")
    for i in range(1, 6):
        p.add_argument(f"--epochs-e{i}", type=int,
                       help=f"epochs for phase {i} (torus 60,30,60,60,60; trefoil 15,30,60,60,60)")
    p.add_argument("--lambda-m", type=float, help="manifold loss weight (default 100)")
    p.add_argument("--lambda-p", type=float, help="final distance-loss weight (torus 0.1, trefoil 0.01)")
    p.add_argument("--lambda-o", type=float, help="compatibility weight (torus 25, trefoil 100)")
    p.add_argument("--lambda-d", type=float, help="density loss weight (torus 0.01, trefoil 0.1)")
    p.add_argument("--cs", type=int, dest="c_s", metavar="CS",
                   help="expected-point refresh interval C_s (default 2)")
    p.add_argument("--clip-norm", type=float, help="global gradient clip norm (default 5)")
    p.add_argument("--weight-decay", type=float, help="decoupled weight decay (default 1e-4)")
    p.add_argument("--isomap-k", type=int, help="Isomap neighbor count (default 10)")
    p.add_argument("--seed", type=int, help="training seed (default $ATLASFLOW_SEED or 0)")


def _mapper_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-cubes", type=int, help="lens intervals (torus 5, trefoil 2)")
    p.add_argument("--perc-overlap", type=float, help="interval overlap fraction (torus 0.45, trefoil 0.2)")
    p.add_argument("--threshold", type=float, help="single-linkage distance threshold (default 1)")


def _load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    unknown = set(payload) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    mapper = payload.get("mapper")
    if isinstance(mapper, dict):
        bad = set(mapper) - _MAPPER_KEYS
        if bad:
            raise ConfigError(f"unknown mapper config keys: {sorted(bad)}")
    return payload


def _mapper_config(args, base: cov.MapperConfig) -> cov.MapperConfig:
    """``base`` with the Mapper flags that were given applied."""
    flags = {
        "n_cubes": getattr(args, "n_cubes", None),
        "perc_overlap": getattr(args, "perc_overlap", None),
        "linkage_threshold": getattr(args, "threshold", None),
    }
    return replace(base, **{key: val for key, val in flags.items() if val is not None})


def _build_config(args) -> atlas.TrainConfig:
    """Preset, then $ATLASFLOW_SEED, then the --config file (checked on its
    own), then the flags."""
    base = atlas.trefoil_defaults() if args.preset == "trefoil" else atlas.TrainConfig()
    values = asdict(base)
    seed = env.seed()
    if seed is not None:
        values["seed"] = seed
    if getattr(args, "config", None):
        values.update(_load_config_file(args.config))
    # each TrainConfig flag's dest is its field
    flags = {key: val for key, val in vars(args).items() if key in _CONFIG_KEYS and val is not None}
    try:
        cfg = atlas.TrainConfig(**values)
        epoch_flags = [getattr(args, f"epochs_e{i}") for i in range(1, 6)]
        flags["epochs"] = tuple(e if flag is None else flag for e, flag in zip(cfg.epochs, epoch_flags))
        return replace(cfg, mapper=_mapper_config(args, cfg.mapper), **flags)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _write_log_csv(rows: list[dict], path) -> None:
    fields = ["phase", "epoch", "chart", "lr", "lambda_t", "pre", "mfd", "recon", "dist", "comp", "density"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, restval="", extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def cmd_synth(args) -> int:
    seed = _seed(args)
    spec = synth.ManifoldSpec(kind=args.manifold, n_points=args.n, noise_sigma=args.noise, seed=seed)
    cloud = synth.generate(spec)
    synth.save_csv(cloud, args.output)
    print(f"wrote {cloud.n} points to {args.output}")
    return 0


def cmd_cover(args) -> int:
    cloud = synth.load_csv(args.data)
    try:
        config = _mapper_config(args, cov.MapperConfig())
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cover = cov.mapper_cover(cloud.points, config, n_latent=args.n_latent)
    cov.save_cover(cover, args.output)
    print(f"{cover.n_charts} charts, {len(cover.nerve_edges)} nerve edges -> {args.output}")
    for k, chart in enumerate(cover.charts):
        print(f"  chart {k}: {chart.size} points")
    print(f"  nerve: {sorted(cover.nerve_edges)}")
    return 0


def cmd_train(args) -> int:
    cloud = synth.load_csv(args.data)
    cover = cov.load_cover(args.cover)
    cfg = _build_config(args)
    if args.partition:
        cover = cov.partition_cover(cover, cloud.points)
    log_rows: list[dict] = []
    model = atlas.train(cloud, cover, cfg, log_rows=log_rows)
    atlas.save(model, args.output)
    if args.log:
        _write_log_csv(log_rows, args.log)
    kind = "partition" if args.partition else "cover"
    print(f"trained {len(model.charts)}-chart {kind} model -> {args.output}")
    return 0


def cmd_sample(args) -> int:
    model = atlas.load(args.checkpoint)
    seed = _seed(args)
    cloud, labels = atlas.sample(model, args.count, np.random.default_rng(seed))
    synth.write_table(args.output, [f"x{i}" for i in range(model.dim)] + ["chart"], cloud.points, labels)
    print(f"wrote {args.count} samples to {args.output}")
    return 0


def cmd_density(args) -> int:
    cloud = synth.load_csv(args.data)
    reference = synth.load_csv(args.reference) if args.reference else cloud
    # a bad checkpoint fails before the KDE is spent
    model = atlas.load(args.checkpoint) if args.checkpoint else None
    cols: dict[str, np.ndarray] = {"kde": synth.kde_density(reference, cloud.points, bandwidth=args.bandwidth)}
    if model is not None:
        cols["log_density"] = atlas.log_density(model, cloud.points)
    header = [f"x{i}" for i in range(cloud.dim)] + list(cols)
    synth.write_table(args.output, header, np.column_stack([cloud.points, *cols.values()]))
    print(f"wrote {cloud.n} density rows to {args.output}")
    return 0


def _boundary_pairs(cover, labels):
    """Ordered (data label, model label) pairs with their point sets."""
    pairs = {}
    for i, j in sorted(cover.nerve_edges):
        shared = np.flatnonzero(cover.mask[i] & cover.mask[j])
        for a, b in ((i, j), (j, i)):
            pts = shared[labels[shared] == a]
            if pts.size:
                pairs[(a, b)] = pts
    return pairs


def _recon_mse(model, chart_id, points):
    xr = fl.reconstruct(model.charts[chart_id].phi, model.latent_dim, points)
    return float(((xr - points) ** 2).sum(axis=1).mean())


def cmd_eval_boundary(args) -> int:
    cloud = synth.load_csv(args.data)
    cover = cov.load_cover(args.cover)
    if not cover.nerve_edges:
        raise CoverError(f"{args.cover}: cover has no boundary points (no point lies in two charts)")
    cover_model = atlas.load(args.cover_checkpoint)
    part_model = atlas.load(args.partition_checkpoint)
    if cover_model.cover.n_charts != cover.n_charts or part_model.cover.n_charts != cover.n_charts:
        raise LabelMismatchError(
            f"chart counts differ: cover file {cover.n_charts}, cover model "
            f"{cover_model.cover.n_charts}, partition model {part_model.cover.n_charts}"
        )
    if cover_model.cover.n_points != cloud.n or part_model.cover.n_points != cloud.n:
        raise LabelMismatchError("checkpoints were trained on a different number of points")
    labels = cov.partition_from_cover(cover, cloud.points)
    pairs = _boundary_pairs(cover, labels)
    rows = []
    tot_n = tot_cov = tot_par = 0.0
    for (i, j), idx in sorted(pairs.items()):
        mse_cov = _recon_mse(cover_model, j, cloud.points[idx])
        mse_par = _recon_mse(part_model, j, cloud.points[idx])
        rows.append((i, j, idx.size, mse_cov, mse_par))
        tot_n += idx.size
        tot_cov += mse_cov * idx.size
        tot_par += mse_par * idx.size
    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["data_label", "model_label", "n_points", "cover_mse", "partition_mse"])
        for i, j, n_pts, mc, mp in rows:
            writer.writerow([i, j, n_pts, repr(mc), repr(mp)])
        writer.writerow(["overall", "", int(tot_n), repr(tot_cov / tot_n), repr(tot_par / tot_n)])
    print(f"boundary points: {int(tot_n)}; pairs: {len(rows)}")
    print(f"cover avg mse:     {tot_cov / tot_n:.4f}")
    print(f"partition avg mse: {tot_par / tot_n:.4f}")
    return 0


def _epoch_recon_curve(log_rows, chart_sizes) -> list[float]:
    """Size-weighted mean recon per manifold epoch (phase 3 then phase 4)."""
    curve = []
    for phase in (3, 4):
        epochs = sorted({r["epoch"] for r in log_rows if r["phase"] == phase})
        for e in epochs:
            rows = [r for r in log_rows if r["phase"] == phase and r["epoch"] == e]
            w = np.array([chart_sizes[r["chart"]] for r in rows], dtype=float)
            v = np.array([r["recon"] for r in rows])
            curve.append(float((w * v).sum() / w.sum()))
    return curve


def cmd_compare_single(args) -> int:
    cloud = synth.load_csv(args.data)
    cfg = _build_config(args)
    multi_cover = cov.mapper_cover(cloud.points, cfg.mapper, n_latent=cfg.latent_dim)
    single_cover = cov.ChartCover(n_points=cloud.n, charts=[np.arange(cloud.n)])
    curves = {}
    for name, cover in (("multi", multi_cover), ("single", single_cover)):
        log_rows: list[dict] = []
        atlas.train(cloud, cover, cfg, log_rows=log_rows)
        sizes = {k: c.size for k, c in enumerate(cover.charts)}
        curves[name] = _epoch_recon_curve(log_rows, sizes)
    n_epochs = min(len(curves["multi"]), len(curves["single"]))
    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "multi_recon", "single_recon"])
        for e in range(n_epochs):
            writer.writerow([e + 1, repr(curves["multi"][e]), repr(curves["single"][e])])
    print(f"epochs: {n_epochs}")
    if n_epochs >= 10:
        print(f"epoch 10: multi {curves['multi'][9]:.4f} vs single {curves['single'][9]:.4f}")
    print(f"final:    multi {curves['multi'][n_epochs-1]:.4f} vs single {curves['single'][n_epochs-1]:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="atlasflow", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic manifold dataset CSV")
    p.add_argument("--manifold", required=True, choices=["trefoil", "torus"])
    p.add_argument("--n", type=int, default=10_000, help="number of points (default 10000)")
    p.add_argument("--noise", type=float, default=0.1, help="ambient Gaussian noise std (default 0.1)")
    p.add_argument("--seed", type=int, help="RNG seed (default $ATLASFLOW_SEED or 0)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("cover", help="build the Mapper chart cover")
    p.add_argument("--data", required=True, help="point-cloud CSV")
    _mapper_flags(p)
    p.add_argument("--n-latent", type=int, default=2, help="latent dim; charts below n+2 points merge (default 2)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("train", help="train an atlas model")
    p.add_argument("--data", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--partition", action="store_true",
                   help="train on the hard-partition baseline derived from the cover")
    _add_train_flags(p)
    p.add_argument("--log", help="training-log CSV path")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="draw samples from a trained model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--count", type=int, default=5000)
    p.add_argument("--seed", type=int, help="RNG seed (default $ATLASFLOW_SEED or 0)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("density", help="per-point model log-density and KDE columns")
    p.add_argument("--data", required=True, help="points to evaluate")
    p.add_argument("--checkpoint", help="trained model (omit for KDE only)")
    p.add_argument("--reference", help="KDE reference cloud (default: the data itself)")
    p.add_argument("--bandwidth", type=float, help="KDE bandwidth (default: Scott's rule)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("eval-boundary", help="cover-vs-partition boundary reconstruction table")
    p.add_argument("--data", required=True)
    p.add_argument("--cover", required=True, help="Mapper cover JSON used for both trainings")
    p.add_argument("--cover-checkpoint", required=True)
    p.add_argument("--partition-checkpoint", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_eval_boundary)

    p = sub.add_parser("compare-single", help="single-chart vs multi-chart loss curves")
    p.add_argument("--data", required=True)
    _add_train_flags(p)
    _mapper_flags(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_compare_single)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(exc for exc, _ in _EXIT_CODES) as exc:
        for exc_type, code in _EXIT_CODES:
            if isinstance(exc, exc_type):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
