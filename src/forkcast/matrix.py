"""Voter matrix construction: addresses x proposals over {1, 0, -1}.

Cell semantics: 1 = Yes, 0 = No, -1 = everything else (abstention, absence,
ineligibility). Proposals and addresses with no {0, 1} activity are dropped
at build time; they can never contribute to disagreement or participation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import EmptyInput
from .ingest import Address, VoteEvent
from .report import write_csv


@dataclass(frozen=True)
class VoterMatrix:
    """Dense vote matrix; rows sorted by address, columns by proposal id."""

    addresses: tuple[Address, ...]
    proposal_ids: tuple[int, ...]
    cells: np.ndarray  # (n, m) int8

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells, dtype=np.int8)
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)

    @property
    def n(self) -> int:
        return len(self.addresses)

    @property
    def m(self) -> int:
        return len(self.proposal_ids)


def collapse_support(support: int) -> int:
    """Map a raw support value onto the matrix alphabet."""
    return support if support in (0, 1) else -1


def build_voter_matrix(events: Iterable[VoteEvent]) -> VoterMatrix:
    """Build the matrix from deduplicated events.

    Each voter, proposal id and support value gets the integer code of its
    rank among the distinct ones, so the duplicate check, the live rows and
    columns, and the cell fill are numpy operations on the codes.
    """
    events = list(events)
    addresses, rows = _rank_codes([event.voter for event in events])
    proposal_ids, cols = _rank_codes([event.proposal_id for event in events])
    supports, support_codes = _rank_codes([event.support for event in events])
    _, first = np.unique(rows * len(proposal_ids) + cols, return_index=True)
    if len(first) < len(events):
        repeated = np.ones(len(events), dtype=bool)
        repeated[first] = False
        event = events[int(np.argmax(repeated))]  # the first repeat in input order
        key = (event.voter, event.proposal_id)
        raise ValueError(f"duplicate event for {key}; deduplicate first")
    values = np.array([collapse_support(s) for s in supports], dtype=np.int8)[support_codes]
    live = values >= 0
    if not live.any():
        raise EmptyInput("no events with support in {0, 1}")
    live_rows, row = np.unique(rows[live], return_inverse=True)
    live_cols, col = np.unique(cols[live], return_inverse=True)
    cells = np.full((len(live_rows), len(live_cols)), -1, dtype=np.int8)
    cells[row, col] = values[live]
    return VoterMatrix(tuple(addresses[i] for i in live_rows.tolist()),
                       tuple(proposal_ids[j] for j in live_cols.tolist()), cells)


def _rank_codes(values: list) -> tuple[list, np.ndarray]:
    """The distinct values, sorted, and each value's index among them."""
    distinct = sorted(set(values))
    rank = {value: i for i, value in enumerate(distinct)}
    return distinct, np.fromiter(map(rank.__getitem__, values), dtype=np.int64,
                                 count=len(values))


def to_csv(matrix: VoterMatrix, path: str | Path) -> None:
    """Header row of proposal ids, first column of addresses, cells as ints."""
    write_csv(path, ["address", *matrix.proposal_ids],
              ([address, *row] for address, row in zip(matrix.addresses,
                                                        matrix.cells.tolist())))
