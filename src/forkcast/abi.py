"""Minimal EVM event codec: keccak-256 topics plus vote-word decoding.

No keccak implementation ships with the standard library (hashlib's sha3 is
the NIST-padded variant), so the permutation is implemented here and pinned
to published known-answer vectors in the test suite.

Vote events are decoded by convention rather than full ABI metadata:

* the first ``address`` parameter is the voter (assumed topic-indexed when
  the signature carries no explicit ``indexed`` markers),
* the first two remaining integer-valued parameters, in declaration order,
  are the proposal id and the raw support value (``bool`` counts as an
  integer: 0 or 1),
* every other parameter is ignored.

Each signature is parsed once, when the registry is read: only
``parse_event_signature`` picks these three parameters and fixes their log
slots, and ``decode_vote`` decodes only those three words of a log.

This covers GovernorBravo-style ``VoteCast(address,uint256,uint8,...)``
layouts with the bare canonical signature, and Aragon-style layouts when
the registry spells out ``indexed`` markers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

_MASK64 = (1 << 64) - 1

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

# rho rotation offsets indexed [x][y]
_ROTATION = (
    (0, 36, 3, 41, 18),
    (1, 44, 10, 45, 2),
    (62, 6, 43, 15, 61),
    (28, 55, 25, 21, 56),
    (27, 20, 39, 8, 14),
)


def _rotl(value: int, shift: int) -> int:
    if shift == 0:
        return value
    return ((value << shift) | (value >> (64 - shift))) & _MASK64


def _keccak_f(state: list[int]) -> list[int]:
    for rc in _ROUND_CONSTANTS:
        c = [state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20]
             for x in range(5)]
        d = [c[(x - 1) % 5] ^ _rotl(c[(x + 1) % 5], 1) for x in range(5)]
        state = [state[i] ^ d[i % 5] for i in range(25)]
        b = [0] * 25
        for x in range(5):
            for y in range(5):
                b[y + 5 * ((2 * x + 3 * y) % 5)] = _rotl(state[x + 5 * y], _ROTATION[x][y])
        state = [
            b[i] ^ ((~b[(i + 1) % 5 + 5 * (i // 5)]) & b[(i + 2) % 5 + 5 * (i // 5)])
            for i in range(25)
        ]
        state[0] ^= rc
    return state


def keccak256(data: bytes) -> bytes:
    """keccak-256 digest (rate 1088, multi-rate 10*1 padding)."""
    rate = 136
    state = [0] * 25
    padded = bytearray(data)
    padded.append(0x01)
    padded.extend(b"\x00" * (-len(padded) % rate))
    padded[-1] ^= 0x80
    for start in range(0, len(padded), rate):
        block = padded[start:start + rate]
        for i in range(rate // 8):
            state[i] ^= int.from_bytes(block[8 * i:8 * i + 8], "little")
        state = _keccak_f(state)
    return b"".join(state[i].to_bytes(8, "little") for i in range(4))


_TYPE_RE = re.compile(r"^(address|bool|string|bytes|bytes\d+|uint\d*|int\d*)$")
_DYNAMIC_TYPES = ("string", "bytes")


def _canonical_type(abi_type: str) -> str:
    return abi_type + "256" if abi_type in ("uint", "int") else abi_type


def _is_integerish(abi_type: str) -> bool:
    return abi_type == "bool" or abi_type.startswith(("uint", "int"))


@dataclass(frozen=True)
class EventParam:
    type: str
    indexed: bool = False


@dataclass(frozen=True)
class EventAbi:
    """Parsed vote-event signature. A log's words are its topics after topic0
    (the indexed parameters), then its data head words (the others), each in
    declaration order; ``vote_slots`` are the voter's, proposal id's and
    support's positions in them."""

    name: str
    params: tuple[EventParam, ...]
    topic_count: int
    vote_slots: tuple[int, int, int]

    @property
    def canonical(self) -> str:
        return f"{self.name}({','.join(p.type for p in self.params)})"

    @cached_property
    def topic0(self) -> str:
        """keccak-256 of the canonical signature, hashed once per EventAbi."""
        return "0x" + keccak256(self.canonical.encode("ascii")).hex()


def parse_event_signature(signature: str) -> EventAbi:
    """Parse ``Name(type [indexed] [name], ...)`` into an EventAbi.

    Raises ValueError for signatures a vote decoder cannot use: no
    ``address`` voter parameter, or fewer than two integer-valued
    parameters for (proposal id, support).
    """
    match = re.fullmatch(r"\s*(\w+)\s*\((.*)\)\s*", signature)
    if match is None:
        raise ValueError(f"not an event signature: {signature!r}")
    name, body = match.group(1), match.group(2).strip()
    if not body:
        raise ValueError(f"vote event needs parameters: {signature!r}")
    params: list[EventParam] = []
    for raw in body.split(","):
        tokens = raw.split()
        if not tokens:
            raise ValueError(f"empty parameter in {signature!r}")
        abi_type = _canonical_type(tokens[0])
        if not _TYPE_RE.match(abi_type):
            raise ValueError(f"unsupported parameter type {tokens[0]!r}")
        indexed = len(tokens) > 1 and tokens[1] == "indexed"
        if len(tokens) > (3 if indexed else 2):  # type [indexed] [name]
            raise ValueError(f"cannot parse parameter {raw.strip()!r}")
        if indexed and abi_type in _DYNAMIC_TYPES:
            raise ValueError(f"indexed dynamic parameter unsupported in {signature!r}")
        params.append(EventParam(abi_type, indexed))
    voter = next((i for i, p in enumerate(params) if p.type == "address"), None)
    if voter is None:
        raise ValueError(f"no address (voter) parameter in {signature!r}")
    if not any(p.indexed for p in params):
        # bare canonical signature: governor convention, voter topic-indexed
        params[voter] = EventParam("address", True)
    integers = [i for i, p in enumerate(params) if i != voter and _is_integerish(p.type)]
    if len(integers) < 2:
        raise ValueError(f"need proposal and support parameters in {signature!r}")
    # parameter indices in word order: the indexed ones first (a stable sort)
    words = sorted(range(len(params)), key=lambda i: not params[i].indexed)
    return EventAbi(name, tuple(params), sum(p.indexed for p in params),
                    (words.index(voter), words.index(integers[0]), words.index(integers[1])))


def _strip_0x(value: str) -> str:
    return value[2:] if value.startswith(("0x", "0X")) else value


def decode_vote(abi: EventAbi, topics: tuple[str, ...], data: str) -> tuple[str, int, int]:
    """(voter, proposal_id, support) of one log: the voter as hex, the others
    as unsigned ints; no other word is decoded.

    Raises ValueError on a wrong topic count or short or non-hex topics/data.
    """
    if len(topics) != 1 + abi.topic_count:
        raise ValueError(f"expected {1 + abi.topic_count} topics, got {len(topics)}")
    try:
        blob = bytes.fromhex(_strip_0x(data))
    except ValueError as exc:
        raise ValueError(f"data segment is not hex: {exc}") from exc
    head_count = len(abi.params) - abi.topic_count
    if len(blob) < 32 * head_count:
        raise ValueError(
            f"data segment too short: {len(blob)} bytes for {head_count} words")
    words = []
    for position, topic in enumerate(topics[1:], start=1):
        word_hex = _strip_0x(topic)
        if len(word_hex) != 64:
            raise ValueError(f"topic {position} is not 32 bytes")
        words.append(bytes.fromhex(word_hex))
    words.extend(blob[start:start + 32] for start in range(0, 32 * head_count, 32))
    voter, proposal_id, support = (words[slot] for slot in abi.vote_slots)
    return ("0x" + voter[-20:].hex(), int.from_bytes(proposal_id, "big"),
            int.from_bytes(support, "big"))
