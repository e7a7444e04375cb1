#!/usr/bin/env python3
"""One round of one benchmark workload, in two fresh processes.

    workload.py gen --workload NAME --seed N --dir DIR
        Generate the workload's inputs from the seed with
        ``planted_two_bloc_events`` and write them under DIR/in.

    workload.py run --workload NAME --seed N --dir DIR --t0 T [--trace 1] [--check]
        Import forkcast, run the workload's CLI commands in this process
        (the timed section), check the outputs if asked, and write
        DIR/result.json.

``run.py`` starts both processes and reads the result. ``--t0`` is the
``time.monotonic()`` reading taken just before the ``gen`` process was
started, so ``setup_s`` covers interpreter start, import and input
generation of both processes. The CLI only ever sees the generated files.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


@dataclass(frozen=True)
class Workload:
    dao: str
    bloc_sizes: tuple[int, int]
    proposals: int
    commands: tuple[tuple[str, ...], ...]  # CLI argv, {fixture}/{truth}/{out} filled in
    shuffles: int = 0  # shuffle iterations one round attempts


SHUFFLES = 2
WIDE_MDS_ITERATIONS = 25
# A fixed budget of Guttman steps per planted frame: with this tolerance a frame
# stops early only where its stress has stopped decreasing (a relative
# decrease of at most 1e-15).
PLANTED_MDS_ITERATIONS = 60
PLANTED_MDS_TOLERANCE = 1e-15

WORKLOADS = {
    # The ROADMAP's end-to-end number: `forkcast all` with validation on the
    # bundled 30 x 60 shape. Seed 0 reproduces data/planted byte for byte.
    # MDS runs a fixed budget per frame, as on wide-analyze, so that the cost
    # of a round does not depend on how fast MDS converges on one seed.
    "planted-validate": Workload(
        dao="planted", bloc_sizes=(20, 10), proposals=60, shuffles=SHUFFLES,
        commands=(("all", "--dao", "planted", "--fixture", "{fixture}",
                   "--ground-truth", "{truth}", "--ranges", "2-60,41-60",
                   "--iterations", str(SHUFFLES),
                   "--mds-iterations", str(PLANTED_MDS_ITERATIONS),
                   "--mds-tolerance", repr(PLANTED_MDS_TOLERANCE),
                   "--out", "{out}"),)),
    # 300 active voters per frame over a short history, with the n x n
    # dissimilarity export. MDS runs a fixed budget of iterations per frame so
    # that the cost of a frame is set by its width, not by how fast it
    # happens to converge on one seed (see README).
    "wide-analyze": Workload(
        dao="wide", bloc_sizes=(200, 100), proposals=25,
        commands=(("analyze", "--dao", "wide", "--fixture", "{fixture}",
                   "--ground-truth", "{truth}", "--export-dissim",
                   "--mds-iterations", str(WIDE_MDS_ITERATIONS),
                   "--out", "{out}"),)),
    # The friction screen over a whole paper-shape history (629 x 330).
    "paper-ingest": Workload(
        dao="paper", bloc_sizes=(419, 210), proposals=330,
        commands=(("ingest", "--dao", "paper", "--fixture", "{fixture}",
                   "--out", "{out}"),
                  ("friction", "--dao", "paper", "--out", "{out}"))),
}

FORKERS_HEADER = "# minority-bloc addresses (the planted fork cohort)\n"


def fixture_line(event) -> str:
    """The line ``json.dumps`` writes for the fixture record, built directly."""
    return (f'{{"voter": "{event.voter}", "proposal_id": {event.proposal_id}, '
            f'"support": {event.support}, "block_number": {event.block_number}, '
            f'"log_index": {event.log_index}}}\n')


def generate(workload: Workload, seed: int, directory: Path) -> None:
    from forkcast.planted import planted_two_bloc_events

    events, truth = planted_two_bloc_events(
        bloc_sizes=workload.bloc_sizes, proposals=workload.proposals, seed=seed)
    inputs = directory / "in"
    inputs.mkdir(parents=True, exist_ok=True)
    events = sorted(events, key=lambda e: (e.block_number, e.log_index))
    with open(inputs / "votes.jsonl", "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(fixture_line(event) for event in events)
    with open(inputs / "forkers.txt", "w", encoding="utf-8", newline="\n") as handle:
        handle.write(FORKERS_HEADER)
        handle.writelines(address + "\n" for address in sorted(truth.addresses))


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _argvs(workload: Workload, directory: Path) -> list[list[str]]:
    slots = {"fixture": str(directory / "in" / "votes.jsonl"),
             "truth": str(directory / "in" / "forkers.txt"),
             "out": str(directory / "out")}
    return [[part.format(**slots) for part in command]
            for command in workload.commands]


def run(name: str, seed: int, directory: Path, t0: float, traced: bool,
        setup_only: bool, check: bool) -> dict:
    from forkcast import cli

    setup_s = time.monotonic() - t0
    if setup_only:
        return {"setup_s": setup_s}
    workload = WORKLOADS[name]
    tracer = None
    if traced:
        from spans import Tracer, install, layer_metrics
        tracer = Tracer()
        install(tracer)
    attempted = failed = 0
    failures: list[str] = []
    cpu_start = _cpu_seconds()
    start = time.perf_counter()
    for argv in _argvs(workload, directory):
        attempted += 1
        span = tracer.open("cli", "main") if tracer else None
        try:
            code = cli.main(argv)
        except Exception:  # noqa: BLE001 - a crash is a failed command
            traceback.print_exc()
            code = -1
        finally:
            if span is not None:
                tracer.close(span)
        if code != 0:
            failed += 1
            failures.append(f"command {argv[0]} exited {code}")
    wall_s = time.perf_counter() - start
    cpu_s = _cpu_seconds() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    out = directory / "out" / workload.dao
    if workload.shuffles:
        attempted += workload.shuffles
        try:
            failed_seeds = json.loads(
                (out / "validation.json").read_text(encoding="utf-8"))["failed_seeds"]
        except (OSError, ValueError, KeyError) as exc:
            failed_seeds = [[None, f"no validation.json: {exc}"]] * workload.shuffles
        failed += len(failed_seeds)
        failures.extend(f"shuffle seed {s}: {why}" for s, why in failed_seeds)
    results = []
    if check:
        import checks
        results = checks.run_checks(name, seed, directory / "in", out, ROOT)
    for check_name, ok, detail in results:
        attempted += 1
        if not ok:
            failed += 1
            failures.append(f"check {check_name}: {detail}")
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "checks_failed": sum(1 for _, ok, _ in results if not ok),
        "failures": failures,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, wall_s, out)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("phase", choices=("gen", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--t0", type=float, help="time.monotonic() before gen started")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    if args.phase == "gen":
        generate(WORKLOADS[args.workload], args.seed, args.dir)
        return 0
    if args.t0 is None:
        parser.error("run needs --t0")
    result = run(args.workload, args.seed, args.dir, args.t0, bool(args.trace),
                 args.setup_only, args.check)
    (args.dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 1 if result.get("failed") else 0


if __name__ == "__main__":
    raise SystemExit(main())
