#!/usr/bin/env python3
"""forkcast benchmark: one workload, measured in fresh processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; forkcast is imported from ``src/``. The
run repeats whole rounds of the workload while the next round is expected
to end within S seconds (at least one round). Each round is a ``gen``
process that writes the inputs made from the seed and a ``run`` process
that runs the CLI commands (see workload.py). The outputs are checked once
per run, after the first round: the same seed gives the same inputs, and
forkcast's outputs are deterministic.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: ``wall_s`` and ``cpu_s`` are the mean over the
rounds, ``peak_rss_mb`` and ``setup_s`` the median. With ``--trace 1``
untraced and traced rounds alternate and the object holds the per-layer
metrics of the traced rounds (medians) and the tracing overhead. The exit
code is 0 only when every operation succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_PY = BENCH / "workload.py"
WORK = ROOT / ".bench_work"
MIN_SETUPS = 3  # set-up samples per untraced run, topped up by set-up-only rounds
ROUND_TIMEOUT_S = 170


class RoundError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # one process on one core: BLAS pools would compete with the
    # interpreter and make timings depend on machine load
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_round(workload: str, seed: int, directory: Path, traced: bool = False,
              setup_only: bool = False, check: bool = False) -> dict:
    """Start the gen and run processes of one round; return run's result."""
    directory.mkdir(parents=True)
    common = ["--workload", workload, "--seed", str(seed), "--dir", str(directory)]
    log = directory / "log.txt"
    with open(log, "w", encoding="utf-8") as handle:
        t0 = time.monotonic()
        for phase, extra in (("gen", []),
                             ("run", ["--t0", repr(t0), "--trace", str(int(traced))]
                              + (["--setup-only"] if setup_only else [])
                              + (["--check"] if check else []))):
            code = subprocess.run(
                [sys.executable, str(WORKLOAD_PY), phase, *common, *extra],
                stdout=handle, stderr=subprocess.STDOUT, env=child_env(),
                cwd=ROOT, timeout=ROUND_TIMEOUT_S, check=False).returncode
            if phase == "gen" and code != 0:
                break
    result_path = directory / "result.json"
    if not result_path.exists():
        raise RoundError(f"{workload} round produced no result:\n"
                         + log.read_text(encoding="utf-8")[-4000:])
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if result.get("failed"):
        print(log.read_text(encoding="utf-8")[-4000:], *result["failures"],
              sep="\n", file=sys.stderr)
    shutil.rmtree(directory)
    return result


def measure(workload: str, seed: int, seconds: float, traced: bool,
            work: Path) -> dict:
    """Repeat rounds (or untraced/traced pairs) while the next is expected to
    end within ``seconds``; return the JSON object run.py prints."""
    untraced: list[dict] = []
    traced_rounds: list[dict] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        untraced.append(run_round(workload, seed, work / f"r{len(untraced)}",
                                  check=not untraced))
        if traced:
            traced_rounds.append(run_round(workload, seed, work / f"t{len(traced_rounds)}",
                                           traced=True))
        last = traced_rounds[-1] if traced else untraced[-1]
        print(f"{workload} seed {seed} round {len(untraced)}: "
              f"wall {untraced[-1]['wall_s']:.3f} s, setup {untraced[-1]['setup_s']:.3f} s"
              + (f", traced wall {last['wall_s']:.3f} s" if traced else ""), flush=True)
        if time.monotonic() - start + (time.monotonic() - began) > seconds:
            break
    rounds = untraced + traced_rounds
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = untraced[0]["checks_failed"] == 0
    if traced:
        names = traced_rounds[0]["layers"]
        metrics = {name: statistics.median(r["layers"][name] for r in traced_rounds)
                   for name in names}
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced_rounds)
                                       - statistics.median(r["wall_s"] for r in untraced))
        units = layer_units()
        payload = {name: {"value": value, "unit": units[name]}
                   for name, value in metrics.items()}
    else:
        setups = [r["setup_s"] for r in untraced]
        while len(setups) < MIN_SETUPS:
            setups.append(run_round(workload, seed, work / f"s{len(setups)}",
                                    setup_only=True)["setup_s"])
        # the mean, not the median: the machine's speed drifts over whole
        # rounds, and over the few rounds of a run the mean averages that
        # drift better (see "Steadiness and bounds" in README.md)
        payload = {
            "wall_s": {"value": statistics.fmean(r["wall_s"] for r in untraced), "unit": "s"},
            "cpu_s": {"value": statistics.fmean(r["cpu_s"] for r in untraced), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in untraced),
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": payload}


def layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "forkcast" / "__init__.py").is_file():
        print(f"error: no forkcast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (RoundError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
