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
from forkcast.matrix import VoterMatrix


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


@pytest.fixture(scope="session")
def planted():
    """The bundled planted-partition scenario (events, ground truth)."""
    from forkcast import planted_two_bloc_events

    return planted_two_bloc_events(seed=0)


@pytest.fixture(scope="session")
def planted_matrix(planted):
    events, _ = planted
    return build_voter_matrix(events)
