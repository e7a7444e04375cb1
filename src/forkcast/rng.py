"""Deterministic randomness for the whole pipeline.

Every random choice flows from a root seed through :func:`derive_seed`
(BLAKE2b-64 over a ``root:label:...`` path) into a :class:`SplitMix64`
stream. Both pieces are fully specified here so results are reproducible
across machines, worker counts, and unrelated code changes:

* SplitMix64 is Vigna's public-domain generator: 64-bit state advanced by
  the golden-gamma constant, then finalized with two xor-multiply mixes.
* ``derive_seed(root, *path)`` is the big-endian first 8 bytes of
  ``BLAKE2b(str(root) + ":" + ":".join(path), digest_size=8)``.

Draw t of the stream seeded s is ``mix(s + t * gamma mod 2**64)``, so
:class:`SplitMix64Batch` advances many streams at once with ``np.uint64``
array arithmetic, bit for bit as each :class:`SplitMix64` would alone.
"""

from __future__ import annotations

import hashlib
from typing import MutableSequence, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """SplitMix64 stream; deterministic given the 64-bit seed."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN_GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Float in [0, 1) built from the top 53 bits of one draw."""
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, bound: int) -> int:
        """Unbiased integer in [0, bound) via rejection sampling."""
        threshold = _below_threshold(bound)
        while True:
            value = self.next_u64()
            if value < threshold:
                return value % bound

    def shuffle(self, items: MutableSequence) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


class SplitMix64Batch:
    """SplitMix64 streams advanced in lockstep, one per seed.

    Each method draws once from every stream picked by ``rows`` (a boolean
    mask or index array; all streams by default) and returns the draws as
    an array, bit for bit what :class:`SplitMix64` returns stream by stream.
    """

    def __init__(self, seeds: Sequence[int]) -> None:
        self._state = np.array([seed & _MASK64 for seed in seeds], dtype=np.uint64)

    def next_u64(self, rows=slice(None)) -> np.ndarray:
        # uint64 arrays wrap silently; numpy scalars would warn on overflow
        state = self._state[rows] + np.uint64(_GOLDEN_GAMMA)
        self._state[rows] = state
        z = (state ^ (state >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def uniform(self, rows=slice(None)) -> np.ndarray:
        return (self.next_u64(rows) >> np.uint64(11)) * 2.0**-53

    def below(self, bound: int, rows=slice(None)) -> np.ndarray:
        """Integers in [0, bound); a stream whose draw is rejected draws
        again, as :meth:`SplitMix64.below` does, until none is rejected."""
        # the largest accepted draw: a bound that divides 2**64 rejects nothing
        limit = np.uint64(_below_threshold(bound) - 1)
        indices = np.arange(len(self._state))[rows]
        values = self.next_u64(indices)
        while (rejected := values > limit).any():
            values[rejected] = self.next_u64(indices[rejected])
        return values % np.uint64(bound)


def _below_threshold(bound: int) -> int:
    """Draws at or above this are rejected by ``below(bound)``."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    return ((_MASK64 + 1) // bound) * bound


def derive_seed(root: int, *path: object) -> int:
    """Stable 64-bit stream seed for (root, label path)."""
    text = ":".join([str(int(root))] + [str(part) for part in path])
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")
