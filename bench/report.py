"""Print every metric of every workload by name and unit, with the
operation counts and output digests of each run.

    python3 bench/report.py --seed 1              # end-to-end and per-layer
    python3 bench/report.py --seed 1 --trace 0    # end-to-end only

Each workload runs in its own ``bench/run.py`` process, one after another.
Exits 1 if any run fails or reports ``correct: false``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(workload: str, seed: int, seconds: int, trace: int):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(proc.stderr, file=sys.stderr)
        return None, None
    return json.loads(lines[-2].removeprefix("record ")), json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), action="append",
                        help="trace mode to run; repeat for both (default: both)")
    args = parser.parse_args(argv)
    ok = True
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in args.trace or (0, 1):
            record, result = _run(wl, args.seed, spec["run_seconds"], trace)
            if result is None:
                print(f"== {wl} trace={trace}: run failed")
                ok = False
                continue
            ok &= result["correct"]
            print(f"== {wl} trace={trace} seed={args.seed}: correct={result['correct']} "
                  f"ops_failed/ops_total={record['ops_failed']}/{record['ops_total']}")
            for name, m in result["metrics"].items():
                print(f"  {name:45s} {m['value']:>16.6g} {m['unit']}")
            for name, q in record["quality"].items():
                if name not in result["metrics"]:
                    print(f"  {name:45s} {q['value']:>16.6g} {q['unit']}   (recorded, not gated)")
            for name, value in record["digests"].items():
                print(f"  {name:45s} {value}")
            for err in record["errors"]:
                print(f"  error: {err}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
