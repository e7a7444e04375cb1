"""The planted two-bloc generator: its draw layout, its inputs, and an
emerging bloc whose lead time the validation can measure."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forkcast import VoteEvent, build_voter_matrix, planted_two_bloc_events
from forkcast.ingest import ForkGroundTruth
from forkcast.pipeline import AnalysisSpec, analyze_matrix
from forkcast.planted import LOYALTY, PARTICIPATION, STANCE_MATCH
from forkcast.rng import SplitMix64, derive_seed
from forkcast.validate import run_validation


def reference_events(bloc_sizes, proposals, seed, onset=None):
    """The generator written as one scalar draw at a time, in layout order."""
    majority, minority = bloc_sizes
    rng = SplitMix64(derive_seed(seed, "planted"))
    events = []
    for proposal_id in range(1, proposals + 1):
        stance_a = 1 if rng.uniform() < 0.5 else 0
        stance_b = stance_a if rng.uniform() < STANCE_MATCH else 1 - stance_a
        if onset is not None and proposal_id < onset:
            stance_b = stance_a
        for voter_index in range(1, majority + minority + 1):
            stance = stance_a if voter_index <= majority else stance_b
            participates = rng.uniform() < PARTICIPATION
            loyal = rng.uniform() < LOYALTY
            if not participates:
                continue
            support = stance if loyal else 1 - stance
            events.append(VoteEvent(
                voter=f"0x{voter_index:040x}",
                proposal_id=proposal_id,
                support=support,
                block_number=proposal_id,
                log_index=voter_index,
            ))
    fork = frozenset(f"0x{i:040x}" for i in range(majority + 1, majority + minority + 1))
    return events, ForkGroundTruth(fork)


bloc_sizes = st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(lambda s: sum(s) >= 1)


@settings(max_examples=60, deadline=None)
@given(bloc_sizes, st.integers(1, 40), st.integers(0, 2**64 - 1),
       st.none() | st.integers(1, 45))
@example((0, 5), 3, 0, None)
@example((5, 0), 3, 0, None)
@example((1, 0), 1, 0, None)
@example((20, 10), 40, 2**64 - 1, 10)
def test_generator_matches_scalar_reference(sizes, proposals, seed, onset):
    events, truth = planted_two_bloc_events(sizes, proposals, seed, onset=onset)
    assert (events, truth) == reference_events(sizes, proposals, seed, onset)
    assert all(type(event) is VoteEvent for event in events)
    assert all(type(number) is int for event in events for number in event[1:])


@pytest.mark.parametrize("sizes, proposals, onset", [
    ((-1, 2), 3, None),
    ((2, -1), 3, None),
    ((0, 0), 3, None),
    ((2, 1), 0, None),
    ((2, 1), -1, None),
    ((2.0, 1), 3, None),
    ((True, 1), 3, None),
    ((2, 1), 3.0, None),
    ((2, 1), 3, 0),
    ((2, 1), 3, 1.5),
])
def test_degenerate_sizes_raise(sizes, proposals, onset):
    with pytest.raises(ValueError):
        planted_two_bloc_events(sizes, proposals, onset=onset)


def test_onset_moves_only_the_minority_stance_before_it():
    plain, _ = planted_two_bloc_events(seed=0)
    assert planted_two_bloc_events(seed=0, onset=1)[0] == plain
    emerging, _ = planted_two_bloc_events(seed=0, onset=30)
    # the same voters vote on the same proposals; only some supports differ
    assert [event[:2] for event in emerging] == [event[:2] for event in plain]
    changed = {(e.voter, e.proposal_id) for e, p in zip(emerging, plain) if e != p}
    assert changed and all(pid < 30 and int(voter, 16) > 20 for voter, pid in changed)


# (proposals, onset, trailing window, lead time): the first range to beat every
# shuffle ends this many proposals after the onset, as CHANGES.md reports. The
# second case is the paper form, trailing 44-proposal ranges.
@pytest.mark.parametrize("proposals,onset,window,lead", [(80, 40, 20, 9),
                                                         (100, 60, 44, 17)])
def test_emerging_bloc_lead_time(proposals, onset, window, lead):
    """30 voters, the minority splitting off at proposal ``onset``: a trailing
    range beats every one of 9 shuffles once it holds enough proposals after
    the onset, and every later range does too."""
    events, truth = planted_two_bloc_events((20, 10), proposals, seed=0, onset=onset)
    matrix = build_voter_matrix(events)
    ranges = [(end - window + 1, end) for end in range(window + 1, proposals - 2, 4)]
    report = run_validation(matrix, analyze_matrix(matrix, AnalysisSpec()), truth,
                            ranges, iterations=9)
    assert report.failed_seeds == ()
    beats = [all(shuffled.fork_share < validation.genuine.fork_share
                 for shuffled in validation.shuffled)
             for validation in report.ranges]
    first = beats.index(True)
    first_end = ranges[first][1]
    assert onset < first_end <= onset + window
    assert all(beats[first:])
    assert first_end - onset == lead
