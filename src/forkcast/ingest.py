"""Vote-event acquisition: fixtures (canonical), live RPC (optional exporter).

The canonical pipeline input is a line-delimited JSON fixture; ``fetch_logs``
exists to export such fixtures from an EVM JSON-RPC endpoint and is the only
network-touching code in the package.

A fixture holds one event per line, and every event, whether loaded, decoded
from a log or planted, is built by the checked ``VoteEvent(...)``. The load
walks the lines in order: the JSON decoder's C scanner takes a line whole, or
``decode`` parses it and raises the line's error, and the record's five fields
go to ``VoteEvent``. So the first bad line is the one named in the
``ParseError``, whether its JSON is malformed or nested too deep, a field is
missing, or a value fails a check.

An address is checked with one precompiled regex and interned, so each
distinct voter is one ``str`` object however many events name it. The
writer formats each line with one f-string that reproduces ``json.dumps``
of the record. Text inputs must be UTF-8; a byte that is not is a
``ParseError`` naming its line.
"""

from __future__ import annotations

import json
import operator
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Protocol, Sequence

from . import abi
from .errors import (
    EmptySet,
    MalformedData,
    ParseError,
    SignatureMismatch,
    TransportError,
)

Address = str

# No character outside ASCII hex lowercases into [0-9a-f], so this accepts
# exactly the strings whose lowercased body is 40 hex digits.
_is_address = re.compile(r"0[xX][0-9a-fA-F]{40}").fullmatch


def normalize_address(value: str) -> Address:
    """Canonical lowercase 0x-prefixed 20-byte hex rendering, interned."""
    if isinstance(value, str) and _is_address(value):
        return sys.intern(value.lower())
    if not isinstance(value, str) or not value.startswith(("0x", "0X")):
        raise ValueError(f"address must be 0x-prefixed hex: {value!r}")
    raise ValueError(f"address must encode exactly 20 bytes: {value!r}")


_INT_FIELDS = ("proposal_id", "support", "block_number", "log_index")
# chain order: (block_number, log_index, voter, proposal_id, support), at C level
_CHAIN_ORDER = operator.itemgetter(3, 4, 0, 1, 2)


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

    order_key = property(_CHAIN_ORDER, doc="(block_number, log_index, voter, "
                         "proposal_id, support): the chain-order sort key")


# the fields of a fixture record, in ``VoteEvent`` argument order
_RECORD_FIELDS = operator.itemgetter("voter", *_INT_FIELDS)
# what a fixture line can raise that is a ParseError naming the line
_LINE_ERRORS = (KeyError, TypeError, ValueError, RecursionError)
# text files are read with errors="surrogateescape", which turns each byte that
# is not UTF-8 into one of U+DC80..U+DCFF; decoding valid UTF-8 never yields one
_escaped_byte = re.compile("[\udc80-\udcff]").search


@dataclass(frozen=True)
class DaoRegistryEntry:
    """One DAO's governance contract and event configuration."""

    name: str
    chain: str
    governance_contract: Address
    deploy_block: int
    end_block: int
    event_signatures: tuple[str, ...]
    analysis_defaults: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "governance_contract",
                           normalize_address(self.governance_contract))
        if not type(self.deploy_block) is type(self.end_block) is int:
            raise ValueError(f"{self.name}: deploy_block and end_block must be integers")
        if self.deploy_block > self.end_block:
            raise ValueError(f"{self.name}: deploy_block > end_block")
        if not self.event_signatures:
            raise ValueError(f"{self.name}: event_signatures must be non-empty")


@dataclass(frozen=True)
class ForkGroundTruth:
    """Addresses known to have joined a fork ('forkers'); the rest stay."""

    addresses: frozenset[Address]


@dataclass(frozen=True)
class RawLog:
    """Undecoded EVM log entry as returned by eth_getLogs."""

    address: Address
    topics: tuple[str, ...]
    data: str
    block_number: int
    log_index: int

    @classmethod
    def from_rpc(cls, entry: dict) -> "RawLog":
        """The log of one ``eth_getLogs`` entry; a missing or ill-typed field
        is ``MalformedData``."""
        try:
            topics, data = tuple(entry["topics"]), entry.get("data", "0x")
            if not all(isinstance(text, str) for text in (*topics, data)):
                raise TypeError("topics and data must be hex strings")
            return cls(normalize_address(entry["address"]), topics, data,
                       _to_int(entry["blockNumber"]), _to_int(entry["logIndex"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedData(f"bad eth_getLogs entry {entry!r}: {exc!r}") from exc


def _to_int(value: int | str) -> int:
    return value if type(value) is int else int(value, 16)


def decode_vote_event(raw_log: RawLog, event_abi: abi.EventAbi) -> VoteEvent:
    """Decode one log against a parsed event signature.

    Raises SignatureMismatch when topic0 differs from the signature hash and
    MalformedData when the payload cannot be decoded; both identify the
    offending log by block/index.
    """
    where = f"block {raw_log.block_number} log {raw_log.log_index}"
    if not raw_log.topics or raw_log.topics[0].lower() != event_abi.topic0:
        raise SignatureMismatch(
            f"{where}: topic0 does not match {event_abi.canonical}")
    try:
        values = abi.decode_fields(event_abi, raw_log.topics, raw_log.data)
        voter, proposal_id, support = abi.vote_fields(event_abi, values)
        return VoteEvent(voter, proposal_id, support,
                         raw_log.block_number, raw_log.log_index)
    except ValueError as exc:
        raise MalformedData(f"{where}: {exc}") from exc


def collapse_duplicates(events: Iterable[VoteEvent],
                        ) -> tuple[list[VoteEvent], tuple[tuple[Address, int], ...]]:
    """Sort events into chain order and keep the last of each (voter, proposal)
    pair; return the kept events, in chain order, and each dropped one's key."""
    ordered = sorted(events, key=_CHAIN_ORDER)
    last: dict[tuple[Address, int], VoteEvent] = {}
    duplicates: list[tuple[Address, int]] = []
    for event in ordered:
        key = (event.voter, event.proposal_id)
        if key in last:
            duplicates.append(key)
        last[key] = event
    if not duplicates:
        return ordered, ()
    kept = [event for event in ordered if last[(event.voter, event.proposal_id)] is event]
    return kept, tuple(duplicates)


def load_fixture_with_report(path: str | Path,
                             ) -> tuple[list[VoteEvent], tuple[tuple[Address, int], ...]]:
    """Parse a JSONL fixture and collapse it with ``collapse_duplicates``: the
    kept events in chain order, and the key of each dropped duplicate."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        events = _read_events(handle)
    return collapse_duplicates(events)


def _read_events(handle: Iterable[str]) -> list[VoteEvent]:
    """The events of a fixture's lines, in file order; the first bad line is a
    ``ParseError`` naming it."""
    decoder = json.JSONDecoder()
    scan, decode = decoder.scan_once, decoder.decode
    events: list[VoteEvent] = []
    for lineno, line in enumerate(handle, start=1):
        if not line.isascii() and (bad := _escaped_byte(line)):
            raise ParseError(f"not UTF-8: byte 0x{ord(bad[0]) - 0xDC00:02x}", line=lineno)
        if line.isspace():
            continue
        try:
            try:
                record, end = scan(line, 0)
                whole = end == len(line) or line[end:] == "\n"
            except (StopIteration, ValueError, RecursionError):
                whole = False
            if not whole:  # ``decode`` returns the record or raises the line's error
                record = decode(line)
            events.append(VoteEvent(*_RECORD_FIELDS(record)))
        except _LINE_ERRORS as exc:
            raise ParseError(str(exc), line=lineno) from exc
    return events


def write_fixture(events: Sequence[VoteEvent], path: str | Path) -> None:
    """Write events as the canonical JSONL fixture, in chain order.

    Each line is the one ``json.dumps`` writes for the record: the voter is
    lowercase hex and the numbers are exact ``int``s, so nothing needs escaping.
    """
    ordered = sorted(events, key=_CHAIN_ORDER)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(
            f'{{"voter": "{e.voter}", "proposal_id": {e.proposal_id}, '
            f'"support": {e.support}, "block_number": {e.block_number}, '
            f'"log_index": {e.log_index}}}\n'
            for e in ordered)


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
    bisected. The result is identical regardless of chunk size.
    """
    lo, hi = block_range
    if lo > hi:
        raise ValueError(f"empty block range {lo}..{hi}")
    if lo < entry.deploy_block or hi > entry.end_block:
        raise ValueError(
            f"range {lo}..{hi} outside [{entry.deploy_block}, {entry.end_block}]")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    if transport is None:
        transport = HttpTransport(endpoint)
    by_topic = {event_abi.topic0: event_abi
                for event_abi in map(abi.parse_event_signature, entry.event_signatures)}
    events: list[VoteEvent] = []
    start = lo
    while start <= hi:
        end = min(start + chunk_size - 1, hi)
        for raw in _get_logs(transport, entry.governance_contract,
                             sorted(by_topic), start, end, retries, retry_wait):
            log = RawLog.from_rpc(raw)
            if log.address != entry.governance_contract:
                raise MalformedData(
                    f"block {log.block_number} log {log.log_index}: address "
                    f"{log.address} is not {entry.governance_contract}")
            event_abi = by_topic.get(log.topics[0].lower() if log.topics else "")
            if event_abi is None:
                raise SignatureMismatch(
                    f"block {log.block_number} log {log.log_index}: "
                    "unexpected topic0 from provider")
            events.append(decode_vote_event(log, event_abi))
        start = end + 1
    events.sort(key=_CHAIN_ORDER)
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
