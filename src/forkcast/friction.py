"""Community friction metrics: per-proposal disagreement and its rolling mean.

Disagreement is the fraction of valid voters opposing the winning outcome,
so it lives in [0, 0.5]; a tie counts as 0.5 (the label-symmetric choice).
Category cut points: unanimous (exactly 0), low (0, 0.20), medium
[0.20, 0.40), high [0.40, 0.50]. The rolling window defaults to the
analysis window.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .dissim import DEFAULT_WINDOW_SIZE
from .errors import EmptyInput
from .matrix import VoterMatrix

CATEGORIES = ("unanimous", "low", "medium", "high")

LOW_CUT = 0.20
HIGH_CUT = 0.40
# a DAO is flagged when its medium+high share and its rolling peak exceed these
SHARE_CUTOFF = 0.20
ROLLING_CUTOFF = 0.15


@dataclass(frozen=True)
class DisagreementRecord:
    proposal_id: int
    disagreement: float
    category: str


@dataclass(frozen=True)
class FrictionReport:
    records: tuple[DisagreementRecord, ...]
    rolling: tuple[tuple[int, float], ...]
    category_shares: Mapping[str, float]
    flagged: bool


def categorize(disagreement: float) -> str:
    if not 0.0 <= disagreement <= 0.5:
        raise ValueError(f"disagreement {disagreement} outside [0, 0.5]")
    if disagreement == 0.0:
        return "unanimous"
    if disagreement < LOW_CUT:
        return "low"
    if disagreement < HIGH_CUT:
        return "medium"
    return "high"


def static_disagreement(matrix: VoterMatrix) -> tuple[DisagreementRecord, ...]:
    """Fraction of the minority side among valid votes, one record per
    proposal in column order."""
    yes = np.count_nonzero(matrix.cells == 1, axis=0).tolist()
    no = np.count_nonzero(matrix.cells == 0, axis=0).tolist()
    disagreements = [min(y, n) / (y + n) for y, n in zip(yes, no)]
    return tuple(DisagreementRecord(proposal_id, d, categorize(d))
                 for proposal_id, d in zip(matrix.proposal_ids, disagreements))


def rolling_disagreement(records: Sequence[DisagreementRecord],
                         window: int = DEFAULT_WINDOW_SIZE) -> list[tuple[int, float]]:
    """Trailing-window mean, moving forward one proposal at a time.

    Positions earlier than ``window`` average whatever history exists, so the
    output has one entry per input record.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    out: list[tuple[int, float]] = []
    for j, record in enumerate(records, start=1):
        tail = records[max(0, j - window):j]
        mean = sum(r.disagreement for r in tail) / len(tail)
        out.append((record.proposal_id, mean))
    return out


def category_shares(records: Sequence[DisagreementRecord]) -> dict[str, float]:
    if not records:
        raise EmptyInput("no disagreement records")
    counts = {category: 0 for category in CATEGORIES}
    for record in records:
        counts[record.category] += 1
    return {category: counts[category] / len(records) for category in CATEGORIES}


def flag_dao(shares: Mapping[str, float],
             rolling: Sequence[tuple[int, float]]) -> bool:
    """True iff medium+high share exceeds ``SHARE_CUTOFF`` and the rolling
    series peaks above ``ROLLING_CUTOFF``."""
    contentious = shares["medium"] + shares["high"]
    peak = max((value for _, value in rolling), default=0.0)
    return contentious > SHARE_CUTOFF and peak > ROLLING_CUTOFF


def build_friction_report(matrix: VoterMatrix,
                          window: int = DEFAULT_WINDOW_SIZE) -> FrictionReport:
    records = static_disagreement(matrix)
    rolling = tuple(rolling_disagreement(records, window))
    shares = category_shares(records)
    return FrictionReport(records, rolling, shares, flag_dao(shares, rolling))


def to_csv(report: FrictionReport, path: str | Path) -> None:
    """Records and the rolling series, one row per proposal."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["proposal_id", "disagreement", "category", "rolling_mean"])
        for record, (_, mean) in zip(report.records, report.rolling, strict=True):
            writer.writerow([record.proposal_id, repr(record.disagreement),
                             record.category, repr(mean)])
