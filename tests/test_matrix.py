"""Voter matrix construction and export."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forkcast import VoteEvent, build_voter_matrix
from forkcast.errors import EmptyInput
from forkcast.matrix import collapse_support, to_csv

from conftest import addr, build_voter_matrix_by_dict, make_matrix


def test_singleton_event():
    matrix = build_voter_matrix([VoteEvent(addr(1), 5, 1, 0, 0)])
    assert matrix.addresses == (addr(1),)
    assert matrix.proposal_ids == (5,)
    assert matrix.cells[0, 0] == 1


def test_abstaining_voter_row_dropped():
    # voter 3 only abstains (support=2) on both proposals; voter 2's
    # abstention on proposal 6 collapses to -1
    events = [
        VoteEvent(addr(1), 5, 1, 0, 0),
        VoteEvent(addr(1), 6, 0, 1, 0),
        VoteEvent(addr(2), 5, 0, 0, 1),
        VoteEvent(addr(2), 6, 2, 1, 1),
        VoteEvent(addr(3), 5, 2, 0, 2),
        VoteEvent(addr(3), 6, 2, 1, 2),
    ]
    matrix = build_voter_matrix(events)
    assert matrix.addresses == (addr(1), addr(2))
    assert matrix.proposal_ids == (5, 6)
    assert matrix.cells.tolist() == [[1, 0], [0, -1]]


def test_proposal_with_only_abstentions_dropped():
    events = [
        VoteEvent(addr(1), 1, 1, 0, 0),
        VoteEvent(addr(1), 2, 2, 1, 0),
        VoteEvent(addr(2), 2, 99, 1, 1),
        VoteEvent(addr(2), 1, 0, 0, 1),
    ]
    matrix = build_voter_matrix(events)
    assert matrix.proposal_ids == (1,)


def test_empty_input():
    with pytest.raises(EmptyInput):
        build_voter_matrix([])
    with pytest.raises(EmptyInput):
        build_voter_matrix([VoteEvent(addr(1), 1, 2, 0, 0)])


def test_duplicates_rejected():
    events = [VoteEvent(addr(1), 1, 1, 0, 0), VoteEvent(addr(1), 1, 0, 5, 0)]
    with pytest.raises(ValueError, match="duplicate"):
        build_voter_matrix(events)


def _build_outcome(events):
    try:
        matrix = build_voter_matrix_by_dict(events)
    except (EmptyInput, ValueError) as exc:
        expected = (type(exc), str(exc))
    else:
        expected = (matrix.addresses, matrix.proposal_ids, matrix.cells.tolist())
    try:
        matrix = build_voter_matrix(iter(events))
    except (EmptyInput, ValueError) as exc:
        return (type(exc), str(exc)), expected
    assert matrix.cells.dtype == np.int8
    assert all(type(p) is int for p in matrix.proposal_ids)
    return (matrix.addresses, matrix.proposal_ids, matrix.cells.tolist()), expected


# supports outside {0, 1} (abstentions, and beyond int64) are common, so some
# voters and proposals have only abstentions; small ranges repeat keys
_supports = st.one_of(st.integers(-2, 3), st.sampled_from([2**70, -(2**64)]))
_proposals = st.one_of(st.integers(1, 6), st.just(2**70))


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(1, 6), _proposals, _supports), max_size=40),
       st.booleans())
def test_build_matches_dict_loop(rows, deduplicate):
    events = [VoteEvent(addr(v), p, s, i, 0) for i, (v, p, s) in enumerate(rows)]
    if deduplicate:
        events = list({(e.voter, e.proposal_id): e for e in events}.values())
    actual, expected = _build_outcome(events)
    assert actual == expected


def test_duplicate_named_in_input_order():
    events = [VoteEvent(addr(2), 5, 1, 0, 0), VoteEvent(addr(1), 9, 1, 0, 1),
              VoteEvent(addr(1), 9, 0, 0, 2), VoteEvent(addr(2), 5, 0, 0, 3)]
    actual, expected = _build_outcome(events)
    assert actual == expected
    assert actual[1] == f"duplicate event for {(addr(1), 9)!r}; deduplicate first"


@given(st.integers(-5, 120))
def test_collapse_totality(support):
    assert collapse_support(support) in (1, 0, -1)


@st.composite
def event_batches(draw):
    voters = draw(st.integers(1, 5))
    proposals = draw(st.integers(1, 5))
    pairs = draw(st.sets(
        st.tuples(st.integers(1, voters), st.integers(1, proposals)),
        min_size=1, max_size=15))
    events = []
    for i, (voter, proposal) in enumerate(sorted(pairs)):
        support = draw(st.integers(0, 3))
        events.append(VoteEvent(addr(voter), proposal, support, i, 0))
    return events


@given(event_batches(), st.randoms(use_true_random=False))
def test_build_is_permutation_invariant(events, rnd):
    try:
        reference = build_voter_matrix(events)
    except EmptyInput:
        reference = None
    shuffled = list(events)
    rnd.shuffle(shuffled)
    if reference is None:
        with pytest.raises(EmptyInput):
            build_voter_matrix(shuffled)
        return
    other = build_voter_matrix(shuffled)
    assert other.addresses == reference.addresses
    assert other.proposal_ids == reference.proposal_ids
    assert np.array_equal(other.cells, reference.cells)


@given(event_batches())
def test_valid_votes_round_trip(events):
    yes = sum(1 for e in events if e.support == 1)
    no = sum(1 for e in events if e.support == 0)
    try:
        matrix = build_voter_matrix(events)
    except EmptyInput:
        assert yes + no == 0
        return
    assert int(np.count_nonzero(matrix.cells == 1)) == yes
    assert int(np.count_nonzero(matrix.cells == 0)) == no
    assert int(np.count_nonzero(matrix.cells >= 0)) == yes + no


def test_csv_export(tmp_path):
    matrix = make_matrix([[1, -1], [0, 1]], proposal_ids=[2, 7])
    path = tmp_path / "matrix.csv"
    to_csv(matrix, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "address,2,7"
    assert lines[1] == f"{addr(1)},1,-1"
    assert lines[2] == f"{addr(2)},0,1"


def test_cells_are_read_only():
    matrix = make_matrix([[1, 0]])
    with pytest.raises(ValueError):
        matrix.cells[0, 0] = 0
