"""Randomized-baseline validation of fork-cohort clustering.

The null model shuffles each proposal's {0, 1} votes among that proposal's
actual voters, preserving participation and outcome tallies exactly, then
re-runs the full analysis chain. Shuffle permutations come from a SplitMix64
stream derived per (iteration seed, proposal id); iteration seeds are the
literal integers 0..iterations-1.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cluster import ClusteringResult
from .dissim import WindowSpec
from .embed import MdsConfig
from .errors import EmptyRange, ForkcastError, UnknownProposal
from .ingest import ForkGroundTruth, VoteEvent
from .matrix import VoterMatrix, build_voter_matrix
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
    genuine_analyses: PipelineResult


@dataclass(frozen=True)
class ParticipationStats:
    """Mean per-proposal voter counts before/from a split proposal id."""

    early_fork: float
    late_fork: float
    early_nonfork: float
    late_nonfork: float


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
    events: list[VoteEvent],
    ground_truth: ForkGroundTruth,
    window: WindowSpec | None = None,
    mds: MdsConfig | None = None,
    ranges: list[tuple[int, int]] | None = None,
    iterations: int = DEFAULT_ITERATIONS,
    root_seed: int = 0,
    k_min: int = 2,
    k_max: int = 5,
    min_fork_present: int = DEFAULT_MIN_FORK_PRESENT,
    workers: int = 1,
) -> ValidationReport:
    """Genuine run plus ``iterations`` shuffled reruns, aggregated per range.

    Iterations that fail with a package error (for example every proposal
    unanalyzable) are recorded with their seed and excluded from aggregates.
    Any other exception, such as a broken shuffle invariant, propagates.
    """
    window = window or WindowSpec()
    mds = mds or MdsConfig()
    matrix = build_voter_matrix(events)
    if ranges is None:
        ranges = [(matrix.proposal_ids[0], matrix.proposal_ids[-1])]
    genuine_run = analyze_matrix(matrix, window, mds, k_min, k_max, root_seed)
    genuine = tuple(summarize_range(genuine_run.clusterings, ground_truth,
                                    id_range, min_fork_present)
                    for id_range in ranges)
    valid_mask = matrix.cells >= 0

    def iterate(seed: int) -> list[RangeSummary]:
        shuffled = shuffle_votes(matrix, seed)
        assert np.array_equal(shuffled.cells >= 0, valid_mask), \
            "shuffle must preserve participation"
        run = analyze_matrix(shuffled, window, mds, k_min, k_max,
                             root_seed, namespace=("shuffle", seed))
        return [summarize_range(run.clusterings, ground_truth,
                                id_range, min_fork_present)
                for id_range in ranges]

    seeds = tuple(range(iterations))
    outcomes: list[list[RangeSummary] | ForkcastError] = []
    if workers > 1 and iterations > 0:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(iterate, seed) for seed in seeds]
            for future in futures:
                try:
                    outcomes.append(future.result())
                except ForkcastError as exc:
                    outcomes.append(exc)
    else:
        for seed in seeds:
            try:
                outcomes.append(iterate(seed))
            except ForkcastError as exc:
                outcomes.append(exc)
    failed: list[tuple[int, str]] = []
    per_range: dict[tuple[int, int], list[RangeSummary]] = {r: [] for r in ranges}
    for seed, outcome in zip(seeds, outcomes):
        if isinstance(outcome, ForkcastError):
            failed.append((seed, str(outcome)))
            continue
        for summary in outcome:
            per_range[summary.range].append(summary)
    randomized = tuple(_aggregate(id_range, summaries)
                       for id_range, summaries in per_range.items() if summaries)
    return ValidationReport(genuine, randomized, iterations, seeds,
                            tuple(failed), genuine_run)


def participation_stats(matrix: VoterMatrix, fork: ForkGroundTruth,
                        split_at: int) -> ParticipationStats:
    """Fork vs non-fork mean voters per proposal, before and from split_at."""
    if not matrix.proposal_ids[0] <= split_at <= matrix.proposal_ids[-1]:
        raise UnknownProposal(f"split {split_at} outside proposal range")
    fork_rows = np.array([a in fork.addresses for a in matrix.addresses])
    valid = matrix.cells >= 0
    fork_counts = valid[fork_rows].sum(axis=0)
    nonfork_counts = valid[~fork_rows].sum(axis=0)
    late = np.array([pid >= split_at for pid in matrix.proposal_ids])

    def mean_over(counts: np.ndarray, mask: np.ndarray) -> float:
        return float(counts[mask].mean()) if mask.any() else 0.0

    return ParticipationStats(
        early_fork=mean_over(fork_counts, ~late),
        late_fork=mean_over(fork_counts, late),
        early_nonfork=mean_over(nonfork_counts, ~late),
        late_nonfork=mean_over(nonfork_counts, late),
    )
