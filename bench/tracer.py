"""In-memory span tracer over atlasflow's public functions.

Installing the tracer replaces each function named in ``TRACED`` with a
wrapper that records one span per call: its name, start, end and the span
that was open when it was called. The replacement is made in every module of
the package that bound the function, so ``losses.stack_forward_cached`` (a
``from .flow import``) is traced as well as ``flow.stack_forward_cached``.
Nothing under ``src/`` changes; ``uninstall`` puts the originals back.

Self time is a span's duration minus the durations of its child spans. The
program is single-threaded, so child spans never overlap and the self times
of a subtree add up to the duration of its root.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# Which functions get spans. The set is fixed here rather than discovered, so
# that a self time means the same thing from one commit to the next: wrapping
# flow.coupling_forward_cached as well would move the spline work out of
# flow.stack_forward_cached's self time. A name the package no longer has is
# skipped and its metrics read 0.
TRACED = {
    "cover": ("single_linkage", "mapper_cover", "refine_partition", "save_cover", "load_cover"),
    "geo": ("isomap", "knn_graph", "geodesic_matrix", "classical_mds"),
    "flow": (
        "stack_forward_cached", "stack_forward_vjp", "stack_inverse_cached", "stack_inverse_vjp",
        "latent_codes", "reconstruct", "embed_latent", "embedding_gram_logdet",
    ),
    "nnopt": ("mlp_forward_cached", "mlp_vjp_cached", "adam_step", "clip_global_norm"),
    "losses": (
        "pretraining_loss", "manifold_loss_parts", "compatibility_loss", "expected_points", "density_nll",
    ),
    "atlas": ("train", "bootstrap_batch", "save", "load", "sample", "log_density", "chart_log_density"),
    "synth": ("load_csv", "kde_density"),
    "cli": ("main",),
}

STAGE_SPAN = "cli.main"


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


def _log_density_cells(args):
    # log_density(model, x, chart=None): every chart is tried on every point
    if len(args) > 2 and args[2] is not None:
        return []
    return [("cells", args[0].cover.n_charts * _rows(args[1]))]


# Work counts taken from each call's arguments and result, as (stat, amount).
# Every caller in the package passes these arguments positionally.
COUNTERS = {
    "cover.single_linkage": lambda a, r: [("points", _rows(a[0]))],
    "cover.save_cover": lambda a, r: [("bytes", os.path.getsize(a[1]))],
    "geo.isomap": lambda a, r: [("pairs", _rows(a[0]) ** 2)],
    "flow.stack_forward_cached": lambda a, r: [("rows", _rows(a[1]))],
    "flow.stack_inverse_cached": lambda a, r: [("rows", _rows(a[1]))],
    "flow.latent_codes": lambda a, r: [("rows", _rows(a[2]))],
    "flow.reconstruct": lambda a, r: [("rows", _rows(a[2]))],
    "flow.embed_latent": lambda a, r: [("rows", _rows(a[1]))],
    "flow.embedding_gram_logdet": lambda a, r: [("rows", _rows(a[2]))],
    # clip_global_norm hands back its input list untouched when it does not clip
    "nnopt.clip_global_norm": lambda a, r: [("fired", int(r is not a[0]))],
    "losses.compatibility_loss": lambda a, r: [
        ("useful_rows", int((a[2].multiplicity >= 2).sum())), ("rows", a[2].size),
    ],
    "atlas.save": lambda a, r: [("bytes", os.path.getsize(a[1]))],
    "atlas.chart_log_density": lambda a, r: [("rows", _rows(a[1]))],
    "atlas.log_density": lambda a, r: _log_density_cells(a),
}


# Per-layer shares, as (numerator, denominator) metric names.
RATIOS = {
    "nnopt.clip_global_norm.fired_frac": ("nnopt.clip_global_norm.fired", "nnopt.clip_global_norm.calls"),
    "losses.compatibility_loss.useful_row_frac": (
        "losses.compatibility_loss.useful_rows", "losses.compatibility_loss.rows"),
    "atlas.log_density.include_frac": ("atlas.chart_log_density.rows", "atlas.log_density.cells"),
}


class _StampedRows:
    """Stands in for ``atlas.train``'s ``log_rows`` list: forwards each row
    and notes when it arrived, which marks the end of one (phase, epoch,
    chart) step."""

    def __init__(self, rows: list, stamps: list):
        self.rows = rows
        self.stamps = stamps

    def append(self, row) -> None:
        self.stamps.append((perf_counter(), int(row["phase"])))
        self.rows.append(row)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.self_s: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[list] = []          # [span index, seconds covered by children]
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, counter=None):
        names, starts, ends, parents, self_s = self.names, self.starts, self.ends, self.parents, self.self_s
        open_spans = self._open
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(open_spans[-1][0] if open_spans else -1)
            starts.append(0.0)
            ends.append(0.0)
            self_s.append(0.0)
            frame = [idx, 0.0]
            open_spans.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                open_spans.pop()
                starts[idx] = t0
                ends[idx] = t1
                self_s[idx] = (t1 - t0) - frame[1]
                if open_spans:
                    open_spans[-1][1] += t1 - t0
            if counter is not None:
                for stat, amount in counter(args, result):
                    counts[f"{name}.{stat}"] += amount
            return result

        return traced

    def _train_with_phase_stamps(self, train):
        """``atlas.train`` with a stamped ``log_rows``, so that the time
        between consecutive log rows is charged to the phase of the later
        row. Phase 1 starts where the last Isomap of this call ended."""

        def train_stamped(points, cover, cfg, log_rows=None):
            first = len(self.names)
            t_start = perf_counter()
            stamps: list = []
            rows = _StampedRows([] if log_rows is None else log_rows, stamps)
            model = train(points, cover, cfg, log_rows=rows)
            isomap_ends = [self.ends[i] for i in range(first, len(self.names)) if self.names[i] == "geo.isomap"]
            prev = max(isomap_ends, default=t_start)
            for t, phase in stamps:
                self.counts[f"atlas.phase{phase}_s"] += t - prev
                prev = t
            return model

        return train_stamped

    def install(self) -> "Tracer":
        package = [m for n, m in list(sys.modules.items()) if n == "atlasflow" or n.startswith("atlasflow.")]
        for short, fnames in TRACED.items():
            module = importlib.import_module(f"atlasflow.{short}")
            if module not in package:
                package.append(module)
            for fname in fnames:
                orig = getattr(module, fname, None)
                if orig is None:
                    continue
                name = f"{short}.{fname}"
                inner = self._train_with_phase_stamps(orig) if name == "atlas.train" else orig
                wrapper = self.wrap(name, inner, COUNTERS.get(name))
                for mod in package:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))
        return self

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per function: summed self time ``s`` and ``calls``."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "calls": 0})
        for name, s in zip(self.names, self.self_s):
            entry = out[name]
            entry["s"] += s
            entry["calls"] += 1
        return out

    def metric(self, name: str, totals: dict) -> float:
        """``<module>.<function>.s`` (self time) or ``.calls`` from ``totals``,
        a share from ``RATIOS``, else a count or phase time (0 if never seen)."""
        if name in RATIOS:
            num, den = (self.metric(k, totals) for k in RATIOS[name])
            return num / den if den else 0.0
        fn, _, stat = name.rpartition(".")
        if stat in ("s", "calls"):
            return float(totals[fn][stat]) if fn in totals else 0.0
        return float(self.counts.get(name, 0.0))

    def stage_self_sums(self) -> list[tuple[float, float]]:
        """For every stage span (one CLI call): (its duration, the sum of the
        self times of the spans under it, itself included)."""
        stage_of = [-1] * len(self.names)
        sums: dict[int, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            # a parent's index is always lower than its child's
            stage = i if name == STAGE_SPAN else (stage_of[self.parents[i]] if self.parents[i] >= 0 else -1)
            stage_of[i] = stage
            if stage >= 0:
                sums[stage] += self.self_s[i]
        return [(self.ends[i] - self.starts[i], sums[i]) for i in sorted(sums)]

    def wrapper_cost_s(self, calls: int = 20000) -> float:
        """Seconds one wrapper adds to a call: a wrapped no-op against a bare
        one, on a throwaway tracer."""
        noop = lambda: None  # noqa: E731
        wrapped = Tracer().wrap("noop", noop)
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = perf_counter()
        return ((t2 - t1) - (t1 - t0)) / calls

    def write(self, path) -> None:
        """One JSON object per span: id, name, start, end, parent (-1 at a root)."""
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i],
                }) + "\n")
