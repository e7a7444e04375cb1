"""SplitMix64 and seed-derivation behavior."""

from __future__ import annotations

import copy
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from forkcast import rng as rng_mod
from forkcast.rng import SplitMix64, SplitMix64Batch, derive_seed

# Reference outputs of splitmix64 (Vigna's public-domain C version).
SEED0_OUTPUTS = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
SEED1234567_OUTPUTS = (6457827717110365317, 3203168211198807973, 9817491932198370423)


def test_matches_reference_stream():
    rng = SplitMix64(0)
    assert tuple(rng.next_u64() for _ in range(3)) == SEED0_OUTPUTS
    rng = SplitMix64(1234567)
    assert tuple(rng.next_u64() for _ in range(3)) == SEED1234567_OUTPUTS


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_uniform_in_unit_interval(seed):
    value = SplitMix64(seed).uniform()
    assert 0.0 <= value < 1.0


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=1, max_value=1000))
def test_below_in_range(seed, bound):
    assert 0 <= SplitMix64(seed).below(bound) < bound


def test_shuffle_is_permutation_and_deterministic():
    items = list(range(20))
    a, b = list(items), list(items)
    SplitMix64(7).shuffle(a)
    SplitMix64(7).shuffle(b)
    assert a == b
    assert sorted(a) == items
    assert a != items  # 20 elements; identity is vanishingly unlikely


def test_shuffle_two_elements_hits_both_orders():
    seen = Counter()
    for seed in range(40):
        pair = [0, 1]
        SplitMix64(seed).shuffle(pair)
        seen[tuple(pair)] += 1
    assert seen[(0, 1)] > 0 and seen[(1, 0)] > 0


def test_derive_seed_stable_and_label_sensitive():
    assert derive_seed(0, "mds", 5) == derive_seed(0, "mds", 5)
    assert derive_seed(0, "mds", 5) != derive_seed(0, "mds", 6)
    assert derive_seed(0, "mds", 5) != derive_seed(1, "mds", 5)
    assert derive_seed(0, "kmeans", 5) != derive_seed(0, "mds", 5)
    assert 0 <= derive_seed(3, "x") < 2**64


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=8))
def test_batch_draws_match_each_scalar_stream(seeds):
    seeds = [0, 2**64 - 1] + seeds
    batch, scalars = SplitMix64Batch(seeds), [SplitMix64(seed) for seed in seeds]
    for _ in range(5):
        draws = batch.next_u64()
        assert draws.dtype == np.uint64
        assert draws.tolist() == [rng.next_u64() for rng in scalars]
    assert batch.uniform().tolist() == [rng.uniform() for rng in scalars]
    for bound in (1, 7, 16, 2**64 - 1):
        assert batch.below(bound).tolist() == [rng.below(bound) for rng in scalars]


def test_batch_draws_on_picked_rows_only():
    seeds = [3, 4, 5, 6]
    batch, scalars = SplitMix64Batch(seeds), [SplitMix64(seed) for seed in seeds]
    rows = np.array([True, False, True, False])
    assert batch.uniform(rows).tolist() == [scalars[0].uniform(), scalars[2].uniform()]
    assert batch.below(9, ~rows).tolist() == [scalars[1].below(9), scalars[3].below(9)]
    assert batch.next_u64().tolist() == [rng.next_u64() for rng in scalars]


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 0x9E3779B97F4A7C15])
def test_batch_below_redraws_rejected_streams_in_the_batch(seed, monkeypatch):
    # bound 2**63 + 1 rejects every draw at or above it, about half of them
    bound = 2**63 + 1
    seeds = [seed, seed ^ 1, derive_seed(seed, "a"), derive_seed(seed, "b")]
    batch, scalars = SplitMix64Batch(seeds), [SplitMix64(seed) for seed in seeds]
    monkeypatch.setattr(rng_mod, "SplitMix64", None)  # the batch needs no scalar stream
    rejected = 0
    for _ in range(8):
        rejected += sum(copy.copy(rng).next_u64() >= bound for rng in scalars)
        assert batch.below(bound).tolist() == [rng.below(bound) for rng in scalars]
        assert batch.next_u64().tolist() == [rng.next_u64() for rng in scalars]
    assert rejected > 0


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=300))
@example(0, 0)
@example(2**64 - 1, 0)
def test_uniforms_match_scalar_draws_and_advance_the_stream(seed, count):
    batch, scalar = SplitMix64(seed), SplitMix64(seed)
    draws = batch.uniforms(count)
    assert draws.dtype == np.float64 and draws.shape == (count,)
    assert draws.tolist() == [scalar.uniform() for _ in range(count)]
    assert batch.uniform() == scalar.uniform()  # draw count + 1 of the stream


def test_uniforms_rejects_a_negative_count():
    with pytest.raises(ValueError):
        SplitMix64(0).uniforms(-1)
    for stream in (SplitMix64(0), SplitMix64Batch([0])):
        with pytest.raises(ValueError, match="^bound must be positive$"):
            stream.below(0)
