"""Synthetic two-bloc DAO generator for benchmarks and recovery tests.

"Agreement" is calibrated pairwise: ``WITHIN_AGREEMENT`` (``ACROSS_AGREEMENT``)
is the probability that two members of the same (different) bloc cast equal
votes on a proposal when both vote. Members vote their bloc's stance with
probability ``LOYALTY`` = p where p^2 + (1-p)^2 = WITHIN_AGREEMENT, and the
minority bloc's stance matches the majority's with probability
``STANCE_MATCH`` chosen so the cross-bloc agreement comes out right. The
minority bloc plays the role of the fork cohort.

Draw layout: one SplitMix64 stream seeded ``derive_seed(seed, "planted")``
yields ``2 + 2V`` uniforms per proposal, V the number of voters, proposal
by proposal: ``stance_a``, ``stance_b``, then ``participates`` and
``loyal`` for each voter in index order. ``data/planted`` and the benchmark's
``bundled_fixture`` check pin this layout byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

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


def _is_count(value: object, least: int) -> bool:
    return type(value) is int and value >= least


def planted_two_bloc_events(
    bloc_sizes: tuple[int, int] = DEFAULT_BLOC_SIZES,
    proposals: int = DEFAULT_PROPOSALS,
    seed: int = 0,
    onset: int | None = None,
) -> tuple[list[VoteEvent], ForkGroundTruth]:
    """Deterministic planted-partition vote stream with known membership.

    With an ``onset``, the minority takes the majority's stance on every
    proposal before proposal ``onset``; the draws are the same either way.
    """
    majority, minority = bloc_sizes
    if not (_is_count(majority, 0) and _is_count(minority, 0)
            and majority + minority >= 1 and _is_count(proposals, 1)):
        raise ValueError(f"need non-negative integer bloc sizes with at least one "
                         f"voter and an integer proposals >= 1, got {bloc_sizes!r} "
                         f"and {proposals!r}")
    if onset is not None and not _is_count(onset, 1):
        raise ValueError(f"onset must be an integer >= 1, got {onset!r}")
    voters = majority + minority
    draws = (SplitMix64(derive_seed(seed, "planted"))
             .uniforms(proposals * (2 + 2 * voters)).reshape(proposals, -1))
    stance_a = draws[:, 0] < 0.5
    stance_b = np.where(draws[:, 1] < STANCE_MATCH, stance_a, ~stance_a)
    if onset is not None:
        stance_b[:onset - 1] = stance_a[:onset - 1]
    stances = np.where(np.arange(voters) < majority, stance_a[:, None], stance_b[:, None])
    loyal = draws[:, 3::2] < LOYALTY
    support = np.where(loyal, stances, ~stances).astype(np.int64)
    rows, columns = np.nonzero(draws[:, 2::2] < PARTICIPATION)
    addresses = [_address(index) for index in range(1, voters + 1)]
    # each event's proposal id doubles as its block number
    proposal_ids = (rows + 1).tolist()
    events = list(map(VoteEvent, [addresses[column] for column in columns.tolist()],
                      proposal_ids, support[rows, columns].tolist(), proposal_ids,
                      (columns + 1).tolist()))
    return events, ForkGroundTruth(frozenset(addresses[majority:]))
