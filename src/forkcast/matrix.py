"""Voter matrix construction: addresses x proposals over {1, 0, -1}.

Cell semantics: 1 = Yes, 0 = No, -1 = everything else (abstention, absence,
ineligibility). Proposals and addresses with no {0, 1} activity are dropped
at build time; they can never contribute to disagreement or participation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import EmptyInput, UnknownAddress, UnknownProposal
from .ingest import Address, VoteEvent


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
        object.__setattr__(self, "_row", {a: i for i, a in enumerate(self.addresses)})
        object.__setattr__(self, "_col", {p: j for j, p in enumerate(self.proposal_ids)})

    @property
    def n(self) -> int:
        return len(self.addresses)

    @property
    def m(self) -> int:
        return len(self.proposal_ids)

    def row_index(self, address: Address) -> int:
        try:
            return self._row[address]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownAddress(address) from None

    def col_index(self, proposal_id: int) -> int:
        try:
            return self._col[proposal_id]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownProposal(str(proposal_id)) from None


def collapse_support(support: int, keep_abstain: bool = False) -> int:
    """Map a raw support value onto the matrix alphabet."""
    if support in (0, 1):
        return support
    if keep_abstain and support == 2:
        return 2
    return -1


def build_voter_matrix(events: Iterable[VoteEvent], *,
                       keep_abstain: bool = False) -> VoterMatrix:
    """Build the matrix from deduplicated events.

    ``keep_abstain`` retains raw 2 cells for exploratory use; everything
    downstream assumes the default {1, 0, -1} alphabet.
    """
    votes: dict[tuple[Address, int], int] = {}
    for event in events:
        key = (event.voter, event.proposal_id)
        if key in votes:
            raise ValueError(f"duplicate event for {key}; deduplicate first")
        votes[key] = collapse_support(event.support, keep_abstain)
    live_pairs = [(a, p) for (a, p), v in votes.items() if v in (0, 1)]
    addresses = tuple(sorted({a for a, _ in live_pairs}))
    proposal_ids = tuple(sorted({p for _, p in live_pairs}))
    if not addresses or not proposal_ids:
        raise EmptyInput("no events with support in {0, 1}")
    row = {a: i for i, a in enumerate(addresses)}
    col = {p: j for j, p in enumerate(proposal_ids)}
    cells = np.full((len(addresses), len(proposal_ids)), -1, dtype=np.int8)
    for (voter, proposal_id), value in votes.items():
        if voter in row and proposal_id in col:
            cells[row[voter], col[proposal_id]] = value
    return VoterMatrix(addresses, proposal_ids, cells)


def column_votes(matrix: VoterMatrix,
                 proposal_id: int) -> tuple[int, int, list[Address]]:
    """(yes_count, no_count, voters with a valid cell) for one proposal."""
    column = matrix.cells[:, matrix.col_index(proposal_id)]
    yes = int(np.count_nonzero(column == 1))
    no = int(np.count_nonzero(column == 0))
    voters = [matrix.addresses[i] for i in np.flatnonzero(column >= 0)]
    return yes, no, voters


def to_csv(matrix: VoterMatrix, path: str | Path) -> None:
    """Header row of proposal ids, first column of addresses, cells as ints."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["address", *matrix.proposal_ids])
        for i, address in enumerate(matrix.addresses):
            writer.writerow([address, *(int(v) for v in matrix.cells[i])])
