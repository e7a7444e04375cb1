"""Randomized-baseline validation of fork-cohort clustering.

The null model shuffles each proposal's {0, 1} votes among that proposal's
actual voters, preserving participation and outcome tallies exactly, then
re-runs the full analysis chain. Shuffle permutations come from a SplitMix64
stream derived per (iteration seed, proposal id); iteration seeds are the
literal integers 0..iterations-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import ClusteringResult
from .errors import EmptyRange, ForkcastError
from .ingest import ForkGroundTruth
# bench/spans.py wraps validate.build_voter_matrix by name; keep it importable
from .matrix import VoterMatrix, build_voter_matrix  # noqa: F401
from .pipeline import PipelineResult, analyze_matrix
from .rng import SplitMix64, derive_seed

DEFAULT_ITERATIONS = 100
DEFAULT_MIN_FORK_PRESENT = 1


@dataclass(frozen=True)
class RangeSummary:
    """Genuine-data metrics over one inclusive proposal-id range."""

    range: tuple[int, int]
    avg_clusters: float
    fork_share: float | None
    proposals_counted: int
    fork_proposals_counted: int


@dataclass(frozen=True)
class RandomizedRangeStats:
    """Min/max/mean over shuffle iterations for one range."""

    range: tuple[int, int]
    avg_clusters_min: float
    avg_clusters_max: float
    avg_clusters_mean: float
    fork_share_min: float | None
    fork_share_max: float | None
    fork_share_mean: float | None
    iterations_counted: int


@dataclass(frozen=True)
class ValidationReport:
    genuine: tuple[RangeSummary, ...]
    randomized: tuple[RandomizedRangeStats, ...]
    iterations: int
    seeds: tuple[int, ...]
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


def fork_cluster_share(result: ClusteringResult, fork: ForkGroundTruth,
                       min_fork_present: int = DEFAULT_MIN_FORK_PRESENT,
                       ) -> float | None:
    """Largest fraction of clustered fork addresses sharing one cluster.

    Absent when fewer than ``min_fork_present`` fork addresses were
    clustered at all.
    """
    fork_labels = [int(result.assignments[i])
                   for i, address in enumerate(result.addresses)
                   if address in fork.addresses]
    if len(fork_labels) < min_fork_present:
        return None
    counts = np.bincount(fork_labels)
    return float(counts.max() / len(fork_labels))


def summarize_range(results: list[ClusteringResult], fork: ForkGroundTruth,
                    id_range: tuple[int, int],
                    min_fork_present: int = DEFAULT_MIN_FORK_PRESENT,
                    ) -> RangeSummary:
    """Mean k* and mean defined fork share over proposals in the range."""
    lo, hi = id_range
    in_range = [r for r in results if lo <= r.proposal_id <= hi]
    if not in_range:
        raise EmptyRange(f"no analyzable proposals in {lo}..{hi}")
    shares = [share for r in in_range
              if (share := fork_cluster_share(r, fork, min_fork_present)) is not None]
    return RangeSummary(
        range=id_range,
        avg_clusters=float(np.mean([r.k_star for r in in_range])),
        fork_share=float(np.mean(shares)) if shares else None,
        proposals_counted=len(in_range),
        fork_proposals_counted=len(shares),
    )


def _aggregate(id_range: tuple[int, int],
               summaries: list[RangeSummary]) -> RandomizedRangeStats:
    clusters = [s.avg_clusters for s in summaries]
    shares = [s.fork_share for s in summaries if s.fork_share is not None]
    return RandomizedRangeStats(
        range=id_range,
        avg_clusters_min=min(clusters),
        avg_clusters_max=max(clusters),
        avg_clusters_mean=float(np.mean(clusters)),
        fork_share_min=min(shares) if shares else None,
        fork_share_max=max(shares) if shares else None,
        fork_share_mean=float(np.mean(shares)) if shares else None,
        iterations_counted=len(summaries),
    )


def run_validation(
    matrix: VoterMatrix,
    genuine_run: PipelineResult,
    ground_truth: ForkGroundTruth,
    ranges: list[tuple[int, int]] | None = None,
    iterations: int = DEFAULT_ITERATIONS,
    min_fork_present: int = DEFAULT_MIN_FORK_PRESENT,
) -> ValidationReport:
    """Summarize the genuine run and ``iterations`` shuffled reruns per range.

    ``genuine_run`` is ``analyze_matrix`` of ``matrix``; each shuffled rerun
    is analyzed with its spec. Iterations that fail with a package error (for
    example every proposal unanalyzable) are recorded with their seed and
    excluded from aggregates. Any other exception, such as a broken shuffle
    invariant, propagates.
    """
    if ranges is None:
        ranges = [(matrix.proposal_ids[0], matrix.proposal_ids[-1])]
    genuine = tuple(summarize_range(genuine_run.clusterings, ground_truth,
                                    id_range, min_fork_present)
                    for id_range in ranges)
    valid_mask = matrix.cells >= 0
    seeds = tuple(range(iterations))
    failed: list[tuple[int, str]] = []
    per_range: dict[tuple[int, int], list[RangeSummary]] = {r: [] for r in ranges}
    for seed in seeds:
        try:
            shuffled = shuffle_votes(matrix, seed)
            assert np.array_equal(shuffled.cells >= 0, valid_mask), \
                "shuffle must preserve participation"
            run = analyze_matrix(shuffled, genuine_run.spec, namespace=("shuffle", seed))
            outcome = [summarize_range(run.clusterings, ground_truth,
                                       id_range, min_fork_present)
                       for id_range in ranges]
        except ForkcastError as exc:
            failed.append((seed, str(exc)))
            continue
        for summary in outcome:
            per_range[summary.range].append(summary)
    randomized = tuple(_aggregate(id_range, summaries)
                       for id_range, summaries in per_range.items() if summaries)
    return ValidationReport(genuine, randomized, iterations, seeds, tuple(failed))
