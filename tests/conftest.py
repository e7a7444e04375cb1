"""Shared fixtures and small builders for the test suite."""

from __future__ import annotations

import contextlib
import json
import os
import threading
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from forkcast import VoteEvent, build_voter_matrix
from forkcast.errors import EmptyInput
from forkcast.matrix import VoterMatrix, collapse_support


def addr(index: int) -> str:
    """Deterministic syntactically-valid address for test data."""
    return f"0x{index:040x}"


def make_matrix(rows: list[list[int]], proposal_ids: list[int] | None = None) -> VoterMatrix:
    """Matrix from literal rows; addresses addr(1..n) are already sorted."""
    n = len(rows)
    m = len(rows[0]) if rows else 0
    pids = proposal_ids or list(range(1, m + 1))
    return VoterMatrix(tuple(addr(i) for i in range(1, n + 1)), tuple(pids),
                       np.asarray(rows, dtype=np.int8))


def events_from_rows(rows: list[list[int]],
                     proposal_ids: list[int] | None = None) -> list[VoteEvent]:
    """VoteEvents reproducing literal matrix rows (entries in {1, 0, -1})."""
    pids = proposal_ids or list(range(1, len(rows[0]) + 1))
    events = []
    for i, row in enumerate(rows, start=1):
        for j, value in enumerate(row):
            if value >= 0:
                events.append(VoteEvent(addr(i), pids[j], value, pids[j], i))
    return events


def build_voter_matrix_by_dict(events):
    """Reference: the dict loop ``build_voter_matrix`` replaced."""
    votes = {}
    for event in events:
        key = (event.voter, event.proposal_id)
        if key in votes:
            raise ValueError(f"duplicate event for {key}; deduplicate first")
        votes[key] = collapse_support(event.support)
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


def compact_copy(text: str) -> str:
    """A fixture's lines written again with compact JSON separators."""
    return "".join(json.dumps(json.loads(line), separators=(",", ":")) + "\n"
                   for line in text.splitlines())


def read_through_fifo(path: Path, data: bytes, read: Callable[[Path], object]) -> object:
    """``read(path)`` with ``data`` served through a FIFO made at ``path``.

    A FIFO can be read once: opened again, it blocks until a new writer comes.
    So the data is written from one daemon thread and the read runs in
    another, and a read that has not returned within 60 seconds fails the
    test instead of hanging the suite.
    """
    os.mkfifo(path)

    def serve() -> None:
        with contextlib.suppress(BrokenPipeError), open(path, "wb") as fifo:
            fifo.write(data)

    results: list[tuple[bool, object]] = []

    def load() -> None:
        try:
            results.append((True, read(path)))
        except BaseException as exc:  # re-raised in the test's own thread
            results.append((False, exc))

    threading.Thread(target=serve, daemon=True).start()
    loader = threading.Thread(target=load, daemon=True)
    loader.start()
    loader.join(60)
    assert results, f"reading the FIFO {path} did not finish in 60 s"
    [(returned, value)] = results
    if not returned:
        raise value
    return value


def usable_cpus(monkeypatch, count: int) -> None:
    """Make ``os.sched_getaffinity`` report ``count`` usable CPUs, which sets
    how many worker processes validation forks for its shuffled passes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


@pytest.fixture
def one_cpu(monkeypatch):
    """One usable CPU: validation runs its shuffled passes in this process,
    where a test can count and record their calls."""
    usable_cpus(monkeypatch, 1)


@pytest.fixture(scope="session")
def planted():
    """The bundled planted-partition scenario (events, ground truth)."""
    from forkcast import planted_two_bloc_events

    return planted_two_bloc_events(seed=0)


@pytest.fixture(scope="session")
def planted_matrix(planted):
    events, _ = planted
    return build_voter_matrix(events)
