"""Vote-event acquisition: fixtures (canonical), live RPC (optional exporter).

The canonical pipeline input is a line-delimited JSON fixture; ``fetch_logs``
exists to export such fixtures from an EVM JSON-RPC endpoint and is the only
network-touching code in the package.

A fixture holds one event per line, and every event, whether loaded, decoded
from a log or planted, is built by the checked ``VoteEvent(...)``. Chain order
has one owner: ``collapse_duplicates`` sorts every event source into it, and
``fetch_logs`` and ``write_fixture`` keep the order they are given.

A load reads the file once, front to back, so a pipe reads as a file does.
It takes the layout ``write_fixture`` writes in 1 MiB blocks of whole lines:
numpy finds each line's newline and four commas, compares the fixed texts
between them as 8-byte words and checks the 40 lowercase hex digits and the
numbers (1 to 18 digits, no leading zero, so they fit an int64); each
block's columns then go to ``VoteEvent``. From the first block with any other
line, or with an event ``VoteEvent`` rejects, the per-line path reads the
rest, which takes every other valid line: whitespace, another key order,
extra keys, ``\\r\\n``, uppercase hex and big numbers. The JSON decoder
parses each line or raises its error, and the record's five fields go to
``VoteEvent``. That path alone raises ``ParseError``, so the first
bad line is the one named, whether its JSON is malformed or nested too deep,
a field is missing, or a value fails a check.

An address is checked with one precompiled regex and interned, so each
distinct voter is one ``str`` object however many events name it. Each
spelling is checked once: ``_CANONICAL`` maps every accepted spelling to its
address, so a fixture of 165,680 events over 629 voters runs the regex 629
times. A load builds its events with the cyclic collector paused. Events
hold only ``str`` and ``int``, so they cannot form a cycle, and a collection
during the build would free nothing; it would only rescan the events just
built. The writer formats each line with one f-string that reproduces
``json.dumps`` of the record. Text inputs must be UTF-8; a byte that is not
is a ``ParseError`` naming its line.
"""

from __future__ import annotations

import gc
import io
import json
import operator
import re
import sys
import time
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterable, NamedTuple, Protocol, Sequence

import numpy as np

from . import abi
from .errors import (
    EmptySet,
    MalformedData,
    ParseError,
    SignatureMismatch,
    TransportError,
)

if TYPE_CHECKING:  # config imports this module
    from .config import DaoRegistryEntry

Address = str

# No character outside ASCII hex lowercases into [0-9a-f], so this accepts
# exactly the strings whose lowercased body is 40 hex digits.
_is_address = re.compile(r"0[xX][0-9a-fA-F]{40}").fullmatch
# each accepted spelling -> its interned canonical address; a rejected
# spelling is never stored, so it is checked, and raises, every time.
# It lives as long as the process: one entry per spelling a run has read.
_CANONICAL: dict[str, Address] = {}


def normalize_address(value: str) -> Address:
    """Canonical lowercase 0x-prefixed 20-byte hex rendering, interned."""
    if isinstance(value, str):
        if (canonical := _CANONICAL.get(value)) is not None:
            return canonical
        if _is_address(value):
            canonical = _CANONICAL[value] = sys.intern(value.lower())
            return canonical
    if not isinstance(value, str) or not value.startswith(("0x", "0X")):
        raise ValueError(f"address must be 0x-prefixed hex: {value!r}")
    raise ValueError(f"address must encode exactly 20 bytes: {value!r}")


_INT_FIELDS = ("proposal_id", "support", "block_number", "log_index")
# chain order: (block_number, log_index, voter, proposal_id, support), at C level
_CHAIN_ORDER = operator.itemgetter(3, 4, 0, 1, 2)
_VOTER_PROPOSAL = operator.itemgetter(0, 1)


class _VoteFields(NamedTuple):
    voter: Address
    proposal_id: int
    support: int
    block_number: int
    log_index: int


class VoteEvent(_VoteFields):
    """One decoded on-chain vote; the four numbers must be exact ``int``s.

    An immutable tuple of its five fields. Every way of making one, ``_make``
    and ``_replace`` included, runs the checks in ``__new__``.
    """

    __slots__ = ()

    def __new__(cls, voter: Address, proposal_id: int, support: int,
                block_number: int, log_index: int) -> "VoteEvent":
        voter = normalize_address(voter)
        if not (type(proposal_id) is type(support) is int
                and type(block_number) is type(log_index) is int):
            numbers = (proposal_id, support, block_number, log_index)
            name, value = next((n, v) for n, v in zip(_INT_FIELDS, numbers)
                               if type(v) is not int)
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if proposal_id < 1:
            raise ValueError(f"proposal_id must be >= 1, got {proposal_id}")
        if block_number < 0 or log_index < 0:
            raise ValueError("block_number and log_index must be non-negative")
        return tuple.__new__(cls, (voter, proposal_id, support, block_number, log_index))

    @classmethod
    def _make(cls, iterable: Iterable) -> "VoteEvent":
        return cls(*iterable)


# the fields of a fixture record, in ``VoteEvent`` argument order
_RECORD_FIELDS = operator.itemgetter("voter", *_INT_FIELDS)
# what a fixture line can raise that is a ParseError naming the line
_LINE_ERRORS = (KeyError, TypeError, ValueError, RecursionError)
# text files are read with errors="surrogateescape", which turns each byte that
# is not UTF-8 into one of U+DC80..U+DCFF; decoding valid UTF-8 never yields one
_escaped_byte = re.compile("[\udc80-\udcff]").search


@dataclass(frozen=True)
class ForkGroundTruth:
    """Addresses known to have joined a fork ('forkers'); the rest stay."""

    addresses: frozenset[Address]


def _to_int(value: int | str) -> int:
    return value if type(value) is int else int(value, 16)


def decode_vote_event(raw: dict, entry: DaoRegistryEntry) -> VoteEvent:
    """The vote of one ``eth_getLogs`` entry, checked against ``entry``.

    A missing or ill-typed field, a log from another contract or a payload
    that cannot be decoded is MalformedData, and a topic0 that is none of the
    entry's signatures is SignatureMismatch; all but the first name the log
    by block and index.
    """
    try:
        topics, data = tuple(raw["topics"]), raw.get("data", "0x")
        if not all(isinstance(text, str) for text in (*topics, data)):
            raise TypeError("topics and data must be hex strings")
        address = normalize_address(raw["address"])
        block_number, log_index = _to_int(raw["blockNumber"]), _to_int(raw["logIndex"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedData(f"bad eth_getLogs entry {raw!r}: {exc!r}") from exc
    where = f"block {block_number} log {log_index}"
    if address != entry.governance_contract:
        raise MalformedData(
            f"{where}: address {address} is not {entry.governance_contract}")
    topic0 = topics[0].lower() if topics else None
    event_abi = next((a for a in entry.event_abis if a.topic0 == topic0), None)
    if event_abi is None:
        raise SignatureMismatch(f"{where}: unexpected topic0 from provider")
    try:
        return VoteEvent(*abi.decode_vote(event_abi, topics, data), block_number, log_index)
    except ValueError as exc:
        raise MalformedData(f"{where}: {exc}") from exc


def collapse_duplicates(events: Iterable[VoteEvent],
                        ) -> tuple[list[VoteEvent], tuple[tuple[Address, int], ...]]:
    """Sort events into chain order and keep the last of each (voter, proposal)
    pair; return the kept events, in chain order, and each dropped one's key."""
    ordered = sorted(events, key=_CHAIN_ORDER)
    if len(dict.fromkeys(map(_VOTER_PROPOSAL, ordered))) == len(ordered):
        return ordered, ()
    last: dict[tuple[Address, int], VoteEvent] = {}
    duplicates: list[tuple[Address, int]] = []
    for event in ordered:
        key = (event.voter, event.proposal_id)
        if key in last:
            duplicates.append(key)
        last[key] = event
    kept = [event for event in ordered if last[(event.voter, event.proposal_id)] is event]
    return kept, tuple(duplicates)


def load_fixture_with_report(path: str | Path,
                             ) -> tuple[list[VoteEvent], tuple[tuple[Address, int], ...]]:
    """Parse a JSONL fixture and collapse it with ``collapse_duplicates``: the
    kept events in chain order, and the key of each dropped duplicate. The
    cyclic collector is paused for the call and then left as it was."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(path, "rb") as handle:
            events, pending = _read_canonical_events(handle)
            if pending:  # complete its last line, so no character or "\r\n" is split
                pending += handle.readline()
                lines = chain(
                    io.StringIO(pending.decode("utf-8", "surrogateescape"), newline=None),
                    io.TextIOWrapper(handle, encoding="utf-8", errors="surrogateescape"))
                # a canonical line holds one event
                events += _read_events(lines, len(events) + 1)
        return collapse_duplicates(events)
    finally:
        if collecting:
            gc.enable()


# ``write_fixture``'s line: each fixed text is followed by a field (the
# address's 40 hex digits, then the four numbers), and the last by ``}\n``
_LINE_TEXTS = (b'{"voter": "0x', b'", "proposal_id": ', b', "support": ',
               b', "block_number": ', b', "log_index": ')
# each text as the little-endian 8-byte words that cover it, by offset
_TEXT_WORDS = tuple(
    tuple((offset, int.from_bytes(text[offset:offset + 8], "little"))
          for offset in (*range(0, len(text) - 8, 8), len(text) - 8))
    for text in _LINE_TEXTS)
_HEX_AT = len(_LINE_TEXTS[0])
_HEX_END = _HEX_AT + 40  # where the second text starts
_MAX_DIGITS = 18  # so that every number fits an int64
_POWERS = 10 ** np.arange(_MAX_DIGITS - 1, -1, -1, dtype=np.int64)
_BLOCK_BYTES = 1 << 20


def _read_canonical_events(handle: BinaryIO) -> tuple[list[VoteEvent], bytes]:
    """The events of the leading blocks of whole lines as ``write_fixture``
    writes them, and the bytes read past them, which start a line: the first
    block that is not, or whose events fail a ``VoteEvent`` check, or else a
    last line with no newline."""
    events: list[VoteEvent] = []
    rest = b""
    while chunk := handle.read(_BLOCK_BYTES):
        data = rest + chunk
        cut = data.rfind(b"\n") + 1
        columns = _canonical_columns(data[:cut]) if cut else None
        if columns is None:
            return events, data
        try:
            block = list(map(VoteEvent, *columns))
        except ValueError:
            return events, data
        events += block
        rest = data[cut:]
    return events, rest


def _canonical_columns(block: bytes) -> tuple[list, ...] | None:
    """The voters and the four numbers of a block of whole lines, each line
    as ``write_fixture`` writes it and each number 1 to 18 digits; None if
    any line is not.

    A line holds four commas, the first 54 bytes in. They place the fixed
    texts, each compared as unaligned 8-byte words, and the fields between
    them, so every byte of every line is checked.
    """
    if not block.isascii():
        return None
    data = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    commas = np.flatnonzero(data == ord(","))
    if len(commas) != 4 * len(ends):
        return None
    commas = commas.reshape(-1, 4)  # one row per line once the first ones align
    if not np.array_equal(commas[:, 0], starts + _HEX_END + 1):
        return None
    anchors = (starts, starts + _HEX_END, commas[:, 1], commas[:, 2], commas[:, 3])
    # each number runs from the end of its text to the next text, or to "}"
    spans = [(anchor + len(text), stop) for anchor, text, stop
             in zip(anchors[1:], _LINE_TEXTS[1:], (*anchors[2:], ends - 1))]
    if not all(((stop > lo) & (stop - lo <= _MAX_DIGITS)).all() for lo, stop in spans):
        return None
    # the 8 bytes from each offset of the block, unaligned; with the spans
    # checked, every word read below lies inside its line
    words = np.ndarray((len(block) - 7,), "<u8", block, 0, (1,))
    hex_digits = words[starts[:, None] + np.arange(_HEX_AT, _HEX_END, 8)].view(np.uint8)
    if not (all((words[anchor + offset] == word).all()
                for anchor, text_words in zip(anchors, _TEXT_WORDS)
                for offset, word in text_words)
            and (data[ends - 1] == ord("}")).all()
            and ((hex_digits - np.uint8(ord("0")) < 10)
                 | (hex_digits - np.uint8(ord("a")) < 6)).all()):
        return None
    numbers = []
    for lo, stop in spans:
        places = np.arange(-int((stop - lo).max()), 0)
        # each number right-aligned in one row of digits, zeros before it
        digits = data[stop[:, None] + places] - np.uint8(ord("0"))
        digits[places < (lo - stop)[:, None]] = 0
        if not ((digits < 10).all()
                and ((data[lo] != ord("0")) | (stop - lo == 1)).all()):
            return None
        numbers.append((digits @ _POWERS[places]).tolist())
    text = block.decode("ascii")
    voters = [text[at:at + 42] for at in (starts + _HEX_AT - 2).tolist()]
    return voters, *numbers


def _read_events(lines: Iterable[str], start: int) -> list[VoteEvent]:
    """The events of a fixture's lines, in file order, the first numbered
    ``start``; the first bad line is a ``ParseError`` naming it."""
    decode = json.JSONDecoder().decode
    events: list[VoteEvent] = []
    for lineno, line in enumerate(lines, start):
        if not line.isascii() and (bad := _escaped_byte(line)):
            raise ParseError(f"not UTF-8: byte 0x{ord(bad[0]) - 0xDC00:02x}", line=lineno)
        if line.isspace():
            continue
        try:
            events.append(VoteEvent(*_RECORD_FIELDS(decode(line))))
        except _LINE_ERRORS as exc:
            raise ParseError(str(exc), line=lineno) from exc
    return events


def write_fixture(events: Sequence[VoteEvent], path: str | Path) -> None:
    """Write events as the canonical JSONL fixture, one line each, in the
    order given; pass ``collapse_duplicates`` output for a chain-order file.

    Each line is the one ``json.dumps`` writes for the record: the voter is
    lowercase hex and the numbers are exact ``int``s, so nothing needs escaping.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(
            f'{{"voter": "{e.voter}", "proposal_id": {e.proposal_id}, '
            f'"support": {e.support}, "block_number": {e.block_number}, '
            f'"log_index": {e.log_index}}}\n'
            for e in events)


def load_ground_truth(path: str | Path) -> ForkGroundTruth:
    """Read one address per line; ``#`` starts a comment; blanks ignored."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        addresses = _read_addresses(handle)
    if not addresses:
        raise EmptySet(f"{path}: no addresses")
    return ForkGroundTruth(frozenset(addresses))


def _read_addresses(handle: Iterable[str]) -> set[Address]:
    addresses: set[Address] = set()
    for lineno, line in enumerate(handle, start=1):
        if not line.isascii() and (bad := _escaped_byte(line)):
            raise ParseError(f"not UTF-8: byte 0x{ord(bad[0]) - 0xDC00:02x}", line=lineno)
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            addresses.add(normalize_address(text))
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from exc
    return addresses


class Transport(Protocol):
    """JSON-RPC transport; returns the ``result`` member of the response."""

    def request(self, method: str, params: list) -> object: ...


class RpcError(Exception):
    """JSON-RPC level error; the message names the provider's code."""

    def __init__(self, code: object, message: str) -> None:
        super().__init__(f"rpc error {code}: {message}")


_HTTP_TIMEOUT_S = 30.0


class HttpTransport:
    """requests-based JSON-RPC over HTTPS."""

    def __init__(self, endpoint: str) -> None:
        self.endpoint = endpoint

    def request(self, method: str, params: list) -> object:
        import requests

        try:
            response = requests.post(
                self.endpoint,
                json={"jsonrpc": "2.0", "id": 1, "method": method, "params": params},
                timeout=_HTTP_TIMEOUT_S,
            )
            response.raise_for_status()
            payload = response.json()
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        if not isinstance(payload, dict) or not isinstance(payload.get("error", {}), dict):
            raise MalformedData(f"not a JSON-RPC response: {payload!r}")
        if "error" in payload:
            error = payload["error"]
            raise RpcError(error.get("code", -32000), str(error.get("message", "")))
        return payload.get("result")


# provider messages that mean "narrow the block range and retry"
_RANGE_HINTS = ("more than", "too large", "too many", "response size",
                "block range", "10000 results", "query timeout")


def fetch_logs(
    endpoint: str,
    entry: DaoRegistryEntry,
    block_range: tuple[int, int],
    *,
    chunk_size: int = 10_000,
    retries: int = 3,
    retry_wait: float = 1.0,
    transport: Transport | None = None,
) -> list[VoteEvent]:
    """Fetch and decode all vote events in the inclusive block range.

    Chunked to respect provider limits; ranges the provider still rejects are
    bisected. Events come in request order: chunk by chunk, each chunk's logs
    as the provider returns them. ``collapse_duplicates`` of the result is the
    same for every chunk size.
    """
    lo, hi = entry.block_range(*block_range)
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    if transport is None:
        transport = HttpTransport(endpoint)
    topics = sorted(event_abi.topic0 for event_abi in entry.event_abis)
    events: list[VoteEvent] = []
    start = lo
    while start <= hi:
        end = min(start + chunk_size - 1, hi)
        events.extend(decode_vote_event(raw, entry) for raw in _get_logs(
            transport, entry.governance_contract, topics, start, end, retries, retry_wait))
        start = end + 1
    return events


def _get_logs(transport: Transport, address: str, topics: list[str],
              lo: int, hi: int, retries: int, retry_wait: float) -> list[dict]:
    """Logs of the inclusive block range; a range the provider rejects as too
    large is split in halves, down to single blocks."""
    params = [{
        "address": address,
        "topics": [topics],
        "fromBlock": hex(lo),
        "toBlock": hex(hi),
    }]
    failures = 0
    while True:
        try:
            result = transport.request("eth_getLogs", params)
            if isinstance(result, list):
                return result
            raise MalformedData(f"eth_getLogs result {result!r} is not a list")
        except RpcError as exc:
            message = str(exc).lower()
            if not any(hint in message for hint in _RANGE_HINTS):
                raise TransportError(str(exc)) from exc
            if lo == hi:
                raise TransportError(
                    f"provider rejects single-block range at {lo}: {exc}") from exc
            break
        except TransportError:
            failures += 1
            if failures > retries:
                raise
            time.sleep(retry_wait * 2 ** (failures - 1))
    mid = (lo + hi) // 2
    return (_get_logs(transport, address, topics, lo, mid, retries, retry_wait)
            + _get_logs(transport, address, topics, mid + 1, hi, retries, retry_wait))
