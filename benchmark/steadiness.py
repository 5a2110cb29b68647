"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage: python3 benchmark/steadiness.py --workload W [--runs 10] [--first-seed 1]

Runs benchmark/run.py once per seed, one run at a time, and prints for
each end-to-end metric its median and the distance between the first
and third quartile as a share of the median, next to the metric's
bound from BENCHMARK.json.  A benchmark is steady when every spread but
that of setup_s stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        argv = [sys.executable, *bench["command"][1:], "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        started = time.monotonic()
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
        took = time.monotonic() - started
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}: {done.stderr.strip()[-300:]}")
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed} ({took:.0f} s): correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    for metric in bench["end_to_end"]:
        xs = values[metric["name"]]
        spread = stats.quartile_spread(xs)
        print(f"{metric['name']}: median {stats.median(xs):.4g} spread {spread:.4f} "
              f"bound {metric['bound']} ({spread / metric['bound']:.2f} of bound)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
