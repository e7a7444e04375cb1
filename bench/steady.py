#!/usr/bin/env python3
"""Run one workload once per seed and report the spread of its end-to-end metrics.

    python3 bench/steady.py --workload NAME [--seeds 0-9]

Each seed is one ``run.py --trace 0`` invocation of ``run_seconds`` from
BENCHMARK.json, as the benchmark is normally run. For every metric it prints
the median, the first and third quartiles (``statistics.quantiles(values,
n=4)``) and the spread: the distance between the quartiles as a share of the
median. The bounds in BENCHMARK.json are set from these figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> range:
    """'0-9' -> range(0, 10)."""
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi) + 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", type=seed_range, help="LO-HI")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    runs = []
    for seed in args.seeds:
        began = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"seed {seed}: run.py exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["run_s"] = time.monotonic() - began
        runs.append(result)
        print(f"seed {seed}: {result['run_s']:.1f} s, " + ", ".join(
            f"{name} {m['value']:.4g}" for name, m in result["metrics"].items()), flush=True)
    print(f"{args.workload}: {len(runs)} runs, {sum(r['run_s'] for r in runs):.0f} s, "
          f"failed {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}")
    for name in runs[0]["metrics"]:
        q1, median, q3 = statistics.quantiles(
            [r["metrics"][name]["value"] for r in runs], n=4)
        print(f"  {name:12s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {100 * (q3 - q1) / median:.2f}%")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
