"""Pipeline benchmark for atlasflow.

    python3 bench/run.py --workload torus-train --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; it imports atlasflow from ``src/``.
With ``--trace 0`` it times the CLI stages untraced and prints the
end-to-end metrics of ``BENCHMARK.json``. With ``--trace 1`` it makes one
untraced pass and one traced pass and prints the per-layer metrics, the
tracing overhead among them. The last line of standard output is the result
object; the line before it is the run's record (environment, digests,
operation counts). Scratch files live under ``.bench_work/`` and are removed
at exit, except the span file of a traced run and the digest ledger.
"""

import os
import sys
import time

T_START = time.perf_counter()

# One BLAS thread: the checkpoint bytes depend on the BLAS thread count, and
# one thread keeps a 2-core machine's second core free of the benchmark.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import shutil
import subprocess
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
LEDGER = WORK / "digests.json"


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": [w["name"] for w in spec["workloads"]],
    }


def _tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str:
    """HEAD of the checkout when it is a git repository of its own. The
    ceiling keeps git from reading a repository that merely encloses it."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _environment(args) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(),
        "src_sha256": _tree_digest(SRC / "atlasflow"),
        "bench_sha256": _tree_digest(BENCH),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "atlasflow_threads": os.environ.get("ATLASFLOW_THREADS", "unset"),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def _check_ledger(key: str, digests: dict) -> list[str]:
    """Runs of the same source and benchmark with the same workload and seed
    must write the same files. The first run records its digests; later runs
    compare against them."""
    ledger = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    seen = ledger.setdefault(key, {})
    errors = [f"{name} {value} differs from an earlier run's {seen[name]}"
              for name, value in digests.items() if seen.setdefault(name, value) != value]
    tmp = LEDGER.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    tmp.replace(LEDGER)
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed stages repeat as whole passes until this much time is measured (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    declared = _declared()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    try:
        import atlasflow
    except ImportError as exc:
        print(f"bench: cannot import atlasflow from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(atlasflow.__file__).resolve().parent != SRC / "atlasflow":
        print(f"bench: atlasflow resolved to {atlasflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as W
    from tracer import Tracer

    if args.workload not in W.WORKLOADS or args.workload not in declared["workloads"]:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = W.WORKLOADS[args.workload]
    import_s = time.perf_counter() - T_START
    cal = W.Calibration()
    import_s *= W.CAL_REF_S / cal.sample()

    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    kind = "end_to_end" if args.trace == 0 else "per_layer"
    units = declared[kind]
    passes = []
    errors = []
    try:
        if args.trace == 0:
            measured = _untraced_run(W, wl, args, run_dir, import_s, passes, cal)
        else:
            measured = _traced_run(W, Tracer, wl, args, run_dir, passes, errors, units, cal)
    except W.StageFailed:
        measured = None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors += [e for p in passes for e in p.errors]
    digests = {}
    for p in passes:
        for name, value in p.digests.items():
            if digests.setdefault(name, value) != value:
                errors.append(f"{name} differs between passes of this run")
    if not failed:
        key = f"{_tree_digest(SRC / 'atlasflow')}/{_tree_digest(BENCH)}/{wl.name}/{args.seed}"
        errors += _check_ledger(key, digests)

    metrics = {} if measured is None else {k: measured[k] for k in units if k in measured}
    if measured is not None and set(metrics) != set(units):
        errors.append(f"BENCHMARK.json metrics {sorted(set(units) - set(metrics))} were not measured")
    if not all(math.isfinite(v) for v in metrics.values()):
        errors.append("non-finite metric")
    record = {
        "environment": _environment(args),
        "ops_total": attempted,
        "ops_failed": failed,
        "digests": digests,
        "charts": passes[0].chart_sizes if passes else [],
        "raw_stage_s": {s: median(t) for s, t in passes[0].times.items()} if passes else {},
        "stage_runs": {s: len(t) for s, t in passes[0].times.items()} if passes else {},
        "calibration_s": median(cal.ticks),
        "quality": {k: {"value": measured[k], "unit": unit}
                    for k, unit in W.QUALITY_UNITS.items() if measured and k in measured},
        "errors": errors,
    }
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": not errors and not failed and measured is not None,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _untraced_run(W, wl, args, run_dir, import_s, passes, cal) -> dict:
    first = W.Pass(wl, args.seed, run_dir / "p0", cal)
    passes.append(first)
    with cal:
        setup_s = import_s + first.setup()
        measured = 0.0
        while measured < args.seconds:
            t0 = time.perf_counter()
            first.timed()
            measured += time.perf_counter() - t0
    rss = W.peak_rss_mb()
    stage = {s: first.stage_s(s) for s in ("cover", "train", "sample", "density")}
    return {
        "setup_s": setup_s,
        "cover_s": stage["cover"],
        "train_s": stage["train"],
        "sample_s": stage["sample"],
        "density_s": stage["density"],
        "peak_rss_mb": rss,
        **W.quality(first),
    }


def _traced_run(W, Tracer, wl, args, run_dir, passes, errors, names, cal) -> dict:
    walls = []
    tracer = Tracer()
    for i, traced in enumerate((False, True)):
        p = W.Pass(wl, args.seed, run_dir / f"p{i}")
        passes.append(p)
        t0 = time.perf_counter()
        if traced:
            tracer.install()
        try:
            p.setup(repeats=1, once=True)
            p.timed(once=True)
        finally:
            tracer.uninstall()
        walls.append(time.perf_counter() - t0)
    for duration, self_sum in tracer.stage_self_sums():
        if abs(duration - self_sum) > 1e-9 * max(1.0, duration):
            errors.append(f"stage self times sum to {self_sum!r}, stage took {duration!r}")
    tracer.write(WORK / f"spans-{wl.name}-{args.seed}.jsonl")

    extra = W.probes(args.seed)
    extra["bench.trace_overhead_s"] = walls[1] - walls[0]
    extra["bench.trace_overhead_frac"] = (walls[1] - walls[0]) / walls[0]
    extra["bench.trace_spans"] = len(tracer.names)
    extra["bench.trace_overhead_est_s"] = len(tracer.names) * tracer.wrapper_cost_s()
    cal.sample()
    extra["bench.calibration_s"] = median(cal.ticks)
    totals = tracer.totals()
    return {name: extra[name] if name in extra else tracer.metric(name, totals) for name in names}


if __name__ == "__main__":
    sys.exit(main())
