"""Synthetic two-bloc DAO generator for benchmarks and recovery tests.

"Agreement" is calibrated pairwise: ``WITHIN_AGREEMENT`` (``ACROSS_AGREEMENT``)
is the probability that two members of the same (different) bloc cast equal
votes on a proposal when both vote. Members vote their bloc's stance with
probability ``LOYALTY`` = p where p^2 + (1-p)^2 = WITHIN_AGREEMENT, and the
minority bloc's stance matches the majority's with probability
``STANCE_MATCH`` chosen so the cross-bloc agreement comes out right. The
minority bloc plays the role of the fork cohort.
"""

from __future__ import annotations

import math

from .ingest import ForkGroundTruth, VoteEvent
from .rng import SplitMix64, derive_seed

DEFAULT_BLOC_SIZES = (20, 10)
DEFAULT_PROPOSALS = 60
WITHIN_AGREEMENT = 0.9
ACROSS_AGREEMENT = 0.2
PARTICIPATION = 0.8
LOYALTY = (1.0 + math.sqrt(2.0 * WITHIN_AGREEMENT - 1.0)) / 2.0
STANCE_MATCH = ((ACROSS_AGREEMENT - (1.0 - WITHIN_AGREEMENT))
                / (2.0 * WITHIN_AGREEMENT - 1.0))


def _address(index: int) -> str:
    return f"0x{index:040x}"


def planted_two_bloc_events(
    bloc_sizes: tuple[int, int] = DEFAULT_BLOC_SIZES,
    proposals: int = DEFAULT_PROPOSALS,
    seed: int = 0,
) -> tuple[list[VoteEvent], ForkGroundTruth]:
    """Deterministic planted-partition vote stream with known membership."""
    majority, minority = bloc_sizes
    rng = SplitMix64(derive_seed(seed, "planted"))
    events: list[VoteEvent] = []
    for proposal_id in range(1, proposals + 1):
        stance_a = 1 if rng.uniform() < 0.5 else 0
        stance_b = stance_a if rng.uniform() < STANCE_MATCH else 1 - stance_a
        for voter_index in range(1, majority + minority + 1):
            stance = stance_a if voter_index <= majority else stance_b
            participates = rng.uniform() < PARTICIPATION
            loyal = rng.uniform() < LOYALTY
            if not participates:
                continue
            support = stance if loyal else 1 - stance
            events.append(VoteEvent(
                voter=_address(voter_index),
                proposal_id=proposal_id,
                support=support,
                block_number=proposal_id,
                log_index=voter_index,
            ))
    fork_addresses = frozenset(_address(i)
                               for i in range(majority + 1, majority + minority + 1))
    return events, ForkGroundTruth(fork_addresses)
