"""Randomized-baseline validation of fork-cohort clustering.

The null model shuffles each proposal's {0, 1} votes among that proposal's
actual voters, preserving participation and outcome tallies exactly, then
re-runs the full analysis chain. Shuffle permutations come from a SplitMix64
stream derived per (iteration seed, proposal id); iteration seeds are the
literal integers 0..iterations-1.

Shuffled passes are independent of each other and of the genuine pass. On
Linux with two or more usable CPUs they run in a pool of forked worker
processes, which the commands start before the genuine pass so the two
overlap; results are collected in seed order, so the report does not depend
on how many CPUs ran them.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable, Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyRange
from .ingest import ForkGroundTruth
# bench/spans.py wraps validate.build_voter_matrix by name; keep it importable
from .matrix import VoterMatrix, build_voter_matrix  # noqa: F401
from .pipeline import AnalysisSpec, PipelineResult, ProposalAnalysis, analyze_matrix
from .rng import SplitMix64, derive_seed

DEFAULT_ITERATIONS = 100


@dataclass(frozen=True)
class RangeSummary:
    """Metrics of one analysis pass over one inclusive proposal-id range."""

    range: tuple[int, int]
    avg_clusters: float
    fork_share: float | None
    proposals_counted: int


@dataclass(frozen=True)
class RangeValidation:
    """One range's genuine summary and the summary of every shuffled pass
    that succeeded, in seed order."""

    genuine: RangeSummary
    shuffled: tuple[RangeSummary, ...]


@dataclass(frozen=True)
class ValidationReport:
    ranges: tuple[RangeValidation, ...]
    iterations: int
    failed_seeds: tuple[tuple[int, str], ...]


def shuffle_votes(matrix: VoterMatrix, seed: int) -> VoterMatrix:
    """Permute each column's valid votes among its voters; -1 cells fixed."""
    cells = np.array(matrix.cells)
    for j, proposal_id in enumerate(matrix.proposal_ids):
        rows = np.flatnonzero(cells[:, j] >= 0)
        values = [int(v) for v in cells[rows, j]]
        SplitMix64(derive_seed(seed, "shuffle", proposal_id)).shuffle(values)
        cells[rows, j] = values
    return VoterMatrix(matrix.addresses, matrix.proposal_ids, cells)


def fork_labels(analysis: ProposalAnalysis, fork: ForkGroundTruth) -> list[int]:
    """The cluster label of each fork address in the frame, in frame order."""
    return [int(label) for address, label
            in zip(analysis.embedding.addresses, analysis.clustering.assignments)
            if address in fork.addresses]


def fork_cluster_share(analysis: ProposalAnalysis,
                       fork: ForkGroundTruth) -> float | None:
    """Largest fraction of clustered fork addresses sharing one cluster;
    absent when no fork address was clustered."""
    labels = fork_labels(analysis, fork)
    if not labels:
        return None
    return float(np.bincount(labels).max() / len(labels))


def check_ranges(matrix: VoterMatrix, ranges: Sequence[tuple[int, int]] | None,
                 ) -> Sequence[tuple[int, int]]:
    """The ranges, None meaning the whole history; the first with no proposal
    at the analyzable positions 2..m raises ``EmptyRange``, before any frame is
    embedded. One whose proposals are all skipped fails in ``summarize_range``."""
    if ranges is None:
        ranges = [(matrix.proposal_ids[0], matrix.proposal_ids[-1])]
    analyzable = matrix.proposal_ids[1:]
    for lo, hi in ranges:
        if not any(lo <= pid <= hi for pid in analyzable):
            raise EmptyRange(f"no analyzable proposals in {lo}..{hi}")
    return ranges


def summarize_range(analyses: Sequence[ProposalAnalysis], fork: ForkGroundTruth,
                    id_range: tuple[int, int]) -> RangeSummary:
    """Mean k* and mean defined fork share over proposals in the range."""
    lo, hi = id_range
    in_range = [a for a in analyses if lo <= a.proposal_id <= hi]
    if not in_range:
        raise EmptyRange(f"no analyzable proposals in {lo}..{hi}")
    shares = [share for a in in_range
              if (share := fork_cluster_share(a, fork)) is not None]
    return RangeSummary(
        range=id_range,
        avg_clusters=float(np.mean([a.clustering.k_star for a in in_range])),
        fork_share=float(np.mean(shares)) if shares else None,
        proposals_counted=len(in_range),
    )


def metric_summary(validation: RangeValidation, metric: str) -> dict[str, float | None]:
    """The genuine value of ``metric`` (a ``RangeSummary`` field) and the min,
    max and mean of its defined values over the shuffled passes; the
    ``rand_*`` entries are None when no shuffled pass defines it."""
    values = [value for summary in validation.shuffled
              if (value := getattr(summary, metric)) is not None]
    return {
        "value": getattr(validation.genuine, metric),
        "rand_min": min(values) if values else None,
        "rand_max": max(values) if values else None,
        "rand_avg": float(np.mean(values)) if values else None,
    }


def validation_json(report: ValidationReport) -> dict:
    """The contents of validation.json."""
    return {
        "iterations": report.iterations,
        "seeds": list(range(report.iterations)),
        "failed_seeds": [list(pair) for pair in report.failed_seeds],
        "ranges": [{
            "range": list(validation.genuine.range),
            "proposals_counted": validation.genuine.proposals_counted,
            "avg_clusters": metric_summary(validation, "avg_clusters"),
            "fork_share": metric_summary(validation, "fork_share"),
        } for validation in report.ranges],
    }


# one shuffled pass's result: a summary per range, or the EmptyRange message
PassResult = list[RangeSummary] | str

# the (matrix, spec, ground truth, ranges) that this process's passes read
_pass_inputs: tuple | None = None


def _set_pass_inputs(inputs: tuple | None) -> None:
    global _pass_inputs
    _pass_inputs = inputs


def _shuffled_pass(seed: int) -> PassResult:
    """Shuffle the matrix with ``seed``, check that participation held,
    analyze it with the genuine spec and summarize each range; the
    ``EmptyRange`` message when some range has no analyzable proposal."""
    matrix, spec, ground_truth, ranges = _pass_inputs
    try:
        shuffled = shuffle_votes(matrix, seed)
        if not np.array_equal(shuffled.cells >= 0, matrix.cells >= 0):
            raise ValueError("shuffle must preserve participation")
        run = analyze_matrix(shuffled, spec, namespace=("shuffle", seed))
        return [summarize_range(run.analyses, ground_truth, id_range) for id_range in ranges]
    except EmptyRange as exc:
        return str(exc)


def _collect(pending, workers: list) -> list[PassResult]:
    """The pool's results; a worker that died with tasks pending (killed from
    outside) raises instead of leaving the wait without an end."""
    while not pending.ready():
        if any(worker.exitcode is not None for worker in workers):
            raise RuntimeError("a shuffled-pass worker process died")
        pending.wait(0.5)
    return pending.get()


@contextmanager
def shuffled_passes(matrix: VoterMatrix, spec: AnalysisSpec, ground_truth: ForkGroundTruth,
                    ranges: Sequence[tuple[int, int]], iterations: int,
                    ) -> Iterator[Callable[[], list[PassResult]]]:
    """Start the shuffled passes of seeds 0..iterations-1 and yield a function
    that returns their results in seed order.

    With at least two usable CPUs on Linux they run in a pool of forked
    workers, one per CPU up to ``iterations``, which inherit the inputs.
    When the block ends the pool is closed and joined; when it raises, the
    workers are terminated and joined. Otherwise the passes run here, one
    after another, when the results are asked for.
    """
    inputs = (matrix, spec, ground_truth, tuple(ranges))
    seeds = range(iterations)
    workers = min(len(os.sched_getaffinity(0)), iterations) if sys.platform == "linux" else 1
    if workers < 2:
        def run_here() -> list[PassResult]:
            _set_pass_inputs(inputs)
            try:
                return list(map(_shuffled_pass, seeds))
            finally:
                _set_pass_inputs(None)
        yield run_here
        return
    import multiprocessing  # here, so that commands without validation skip it

    # fork, not spawn: a spawned worker would start a new interpreter, import
    # numpy and forkcast again (about 0.1 s) and be sent the inputs. The pool
    # forks its workers before it starts its own threads.
    before = set(multiprocessing.active_children())
    pool = multiprocessing.get_context("fork").Pool(workers, _set_pass_inputs, (inputs,))
    try:
        started = [p for p in multiprocessing.active_children() if p not in before]
        pending = pool.map_async(_shuffled_pass, seeds, chunksize=1)
        yield lambda: _collect(pending, started)
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()


def run_validation(
    matrix: VoterMatrix,
    genuine_run: PipelineResult,
    ground_truth: ForkGroundTruth,
    ranges: Sequence[tuple[int, int]] | None = None,
    iterations: int = DEFAULT_ITERATIONS,
    *,
    passes: Callable[[], list[PassResult]] | None = None,
) -> ValidationReport:
    """Summarize the genuine run and ``iterations`` shuffled reruns per range.

    ``genuine_run`` is ``analyze_matrix`` of ``matrix``; each shuffled rerun
    is analyzed with its spec. ``passes`` is what ``shuffled_passes`` yielded
    for the same inputs, started before the genuine run so the two overlap;
    None starts the passes here and waits for them. An iteration in which a
    range has no analyzable proposal (``EmptyRange``) is recorded with its
    seed and kept out of every range's ``shuffled``. Any other exception,
    such as a broken shuffle invariant, propagates.
    """
    ranges = check_ranges(matrix, ranges)
    genuine = [summarize_range(genuine_run.analyses, ground_truth, id_range)
               for id_range in ranges]
    with (nullcontext(passes) if passes is not None else
          shuffled_passes(matrix, genuine_run.spec, ground_truth, ranges, iterations)) as collect:
        results = collect()
    if len(results) != iterations:
        raise ValueError(f"{len(results)} shuffled passes for {iterations} iterations")
    outcomes = [result for result in results if not isinstance(result, str)]
    return ValidationReport(
        tuple(RangeValidation(summary, tuple(outcome[i] for outcome in outcomes))
              for i, summary in enumerate(genuine)),
        iterations,
        tuple((seed, result) for seed, result in enumerate(results) if isinstance(result, str)))
