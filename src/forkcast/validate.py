"""Randomized-baseline validation of fork-cohort clustering.

The null model shuffles each proposal's {0, 1} votes among that proposal's
actual voters, preserving participation and outcome tallies exactly, then
re-runs the full analysis chain. Shuffle permutations come from a SplitMix64
stream derived per (iteration seed, proposal id); iteration seeds are the
literal integers 0..iterations-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyRange
from .ingest import ForkGroundTruth
# bench/spans.py wraps validate.build_voter_matrix by name; keep it importable
from .matrix import VoterMatrix, build_voter_matrix  # noqa: F401
from .pipeline import PipelineResult, ProposalAnalysis, analyze_matrix
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


def run_validation(
    matrix: VoterMatrix,
    genuine_run: PipelineResult,
    ground_truth: ForkGroundTruth,
    ranges: Sequence[tuple[int, int]] | None = None,
    iterations: int = DEFAULT_ITERATIONS,
) -> ValidationReport:
    """Summarize the genuine run and ``iterations`` shuffled reruns per range.

    ``genuine_run`` is ``analyze_matrix`` of ``matrix``; each shuffled rerun
    is analyzed with its spec. An iteration in which a range has no
    analyzable proposal (``EmptyRange``) is recorded with its seed and kept
    out of every range's ``shuffled``. Any other exception, such as a broken
    shuffle invariant, propagates.
    """
    ranges = check_ranges(matrix, ranges)
    genuine = [summarize_range(genuine_run.analyses, ground_truth, id_range)
               for id_range in ranges]
    valid_mask = matrix.cells >= 0
    failed: list[tuple[int, str]] = []
    outcomes: list[list[RangeSummary]] = []  # per successful seed, one per range
    for seed in range(iterations):
        try:
            shuffled = shuffle_votes(matrix, seed)
            if not np.array_equal(shuffled.cells >= 0, valid_mask):
                raise ValueError("shuffle must preserve participation")
            run = analyze_matrix(shuffled, genuine_run.spec, namespace=("shuffle", seed))
            outcomes.append([summarize_range(run.analyses, ground_truth, id_range)
                             for id_range in ranges])
        except EmptyRange as exc:
            failed.append((seed, str(exc)))
    return ValidationReport(
        tuple(RangeValidation(summary, tuple(outcome[i] for outcome in outcomes))
              for i, summary in enumerate(genuine)),
        iterations, tuple(failed))
