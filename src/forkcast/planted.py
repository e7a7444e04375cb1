"""Synthetic two-bloc DAO generator for benchmarks and recovery tests.

"Agreement" is calibrated pairwise: ``within_agreement`` (``across_agreement``)
is the probability that two members of the same (different) bloc cast equal
votes on a proposal when both vote. Members vote their bloc's stance with
probability p where p^2 + (1-p)^2 = within_agreement, and the minority
bloc's stance matches the majority's with probability q chosen so the
cross-bloc agreement comes out right. The minority bloc plays the role of
the fork cohort.
"""

from __future__ import annotations

import math

from .ingest import ForkGroundTruth, VoteEvent
from .rng import SplitMix64, derive_seed

DEFAULT_BLOC_SIZES = (20, 10)
DEFAULT_PROPOSALS = 60
DEFAULT_WITHIN_AGREEMENT = 0.9
DEFAULT_ACROSS_AGREEMENT = 0.2
DEFAULT_PARTICIPATION = 0.8


def _address(index: int) -> str:
    return f"0x{index:040x}"


def planted_two_bloc_events(
    bloc_sizes: tuple[int, int] = DEFAULT_BLOC_SIZES,
    proposals: int = DEFAULT_PROPOSALS,
    within_agreement: float = DEFAULT_WITHIN_AGREEMENT,
    across_agreement: float = DEFAULT_ACROSS_AGREEMENT,
    participation: float = DEFAULT_PARTICIPATION,
    seed: int = 0,
) -> tuple[list[VoteEvent], ForkGroundTruth]:
    """Deterministic planted-partition vote stream with known membership.

    Requires within_agreement >= 0.5 and
    1 - within_agreement <= across_agreement <= within_agreement.
    """
    if not 0.5 <= within_agreement <= 1.0:
        raise ValueError("within_agreement must be in [0.5, 1]")
    if not (1.0 - within_agreement) <= across_agreement <= within_agreement:
        raise ValueError("across_agreement out of attainable range")
    loyalty = (1.0 + math.sqrt(2.0 * within_agreement - 1.0)) / 2.0
    if within_agreement == 0.5:
        stance_match = 0.5
    else:
        stance_match = ((across_agreement - (1.0 - within_agreement))
                        / (2.0 * within_agreement - 1.0))
    majority, minority = bloc_sizes
    rng = SplitMix64(derive_seed(seed, "planted"))
    events: list[VoteEvent] = []
    for proposal_id in range(1, proposals + 1):
        stance_a = 1 if rng.uniform() < 0.5 else 0
        stance_b = stance_a if rng.uniform() < stance_match else 1 - stance_a
        for voter_index in range(1, majority + minority + 1):
            stance = stance_a if voter_index <= majority else stance_b
            participates = rng.uniform() < participation
            loyal = rng.uniform() < loyalty
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
