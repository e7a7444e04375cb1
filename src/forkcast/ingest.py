"""Vote-event acquisition: fixtures (canonical), live RPC (optional exporter).

The canonical pipeline input is a line-delimited JSON fixture; ``fetch_logs``
exists to export such fixtures from an EVM JSON-RPC endpoint and is the only
network-touching code in the package.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Protocol, Sequence

from . import abi
from .errors import (
    DuplicateKeyWarning,
    EmptySet,
    MalformedData,
    ParseError,
    RangeTooLarge,
    SignatureMismatch,
    TransportError,
)

Address = str


def normalize_address(value: str) -> Address:
    """Canonical lowercase 0x-prefixed 20-byte hex rendering."""
    if not isinstance(value, str) or not value.startswith(("0x", "0X")):
        raise ValueError(f"address must be 0x-prefixed hex: {value!r}")
    body = value[2:].lower()
    if len(body) != 40 or any(c not in "0123456789abcdef" for c in body):
        raise ValueError(f"address must encode exactly 20 bytes: {value!r}")
    return "0x" + body


@dataclass(frozen=True)
class VoteEvent:
    """One decoded on-chain vote."""

    voter: Address
    proposal_id: int
    support: int
    block_number: int
    log_index: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "voter", normalize_address(self.voter))
        if self.proposal_id < 1:
            raise ValueError(f"proposal_id must be >= 1, got {self.proposal_id}")
        if self.block_number < 0 or self.log_index < 0:
            raise ValueError("block_number and log_index must be non-negative")

    @property
    def order_key(self) -> tuple[int, int, str, int, int]:
        return (self.block_number, self.log_index, self.voter,
                self.proposal_id, self.support)


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
        if self.deploy_block > self.end_block:
            raise ValueError(f"{self.name}: deploy_block > end_block")
        if not self.event_signatures:
            raise ValueError(f"{self.name}: event_signatures must be non-empty")


@dataclass(frozen=True)
class ForkGroundTruth:
    """Addresses known to have joined a fork ('forkers'); the rest stay."""

    fork_label: str
    addresses: frozenset[Address]

    def __contains__(self, address: Address) -> bool:
        return address in self.addresses


@dataclass(frozen=True)
class RawLog:
    """Undecoded EVM log entry as returned by eth_getLogs."""

    address: str
    topics: tuple[str, ...]
    data: str
    block_number: int
    log_index: int

    @classmethod
    def from_rpc(cls, entry: dict) -> "RawLog":
        return cls(
            address=entry["address"],
            topics=tuple(entry["topics"]),
            data=entry.get("data", "0x"),
            block_number=_to_int(entry["blockNumber"]),
            log_index=_to_int(entry["logIndex"]),
        )

    def to_rpc(self) -> dict:
        return {
            "address": self.address,
            "topics": list(self.topics),
            "data": self.data,
            "blockNumber": hex(self.block_number),
            "logIndex": hex(self.log_index),
        }


def _to_int(value: int | str) -> int:
    return value if isinstance(value, int) else int(value, 16)


def decode_vote_event(raw_log: RawLog, signature: str) -> VoteEvent:
    """Decode one log against an event signature string.

    Raises SignatureMismatch when topic0 differs from the signature hash and
    MalformedData when the payload cannot be decoded; both identify the
    offending log by block/index.
    """
    event_abi = abi.parse_event_signature(signature)
    where = f"block {raw_log.block_number} log {raw_log.log_index}"
    if not raw_log.topics or raw_log.topics[0].lower() != event_abi.topic0:
        raise SignatureMismatch(
            f"{where}: topic0 does not match {event_abi.canonical}")
    try:
        values = abi.decode_fields(event_abi, raw_log.topics, raw_log.data)
        voter, proposal_id, support = abi.vote_fields(event_abi, values)
        return VoteEvent(voter, proposal_id, support,
                         raw_log.block_number, raw_log.log_index)
    except MalformedData as exc:
        raise MalformedData(f"{where}: {exc}") from exc
    except ValueError as exc:
        raise MalformedData(f"{where}: {exc}") from exc


def encode_vote_event(event: VoteEvent, signature: str,
                      contract: Address = "0x" + "00" * 20) -> RawLog:
    """Synthesize a log that decodes back to ``event`` (round-trip inverse)."""
    event_abi = abi.parse_event_signature(signature)
    topics, data = abi.encode_vote_data(
        event_abi, event.voter, event.proposal_id, event.support)
    return RawLog(contract, topics, data, event.block_number, event.log_index)


_FIXTURE_KEYS = ("voter", "proposal_id", "support", "block_number", "log_index")


@dataclass(frozen=True)
class LoadReport:
    """What load_fixture saw: line counts and collapsed duplicates."""

    path: str
    lines: int
    events: int
    duplicates: tuple[tuple[Address, int], ...]


def collapse_duplicates(events: Iterable[VoteEvent],
                        ) -> tuple[list[VoteEvent], tuple[tuple[Address, int], ...]]:
    """Sort events into chain order and keep the last of each (voter, proposal)
    pair; return the kept events, in chain order, and each dropped one's key."""
    ordered = sorted(events, key=lambda e: e.order_key)
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


def load_fixture_with_report(path: str | Path) -> tuple[list[VoteEvent], LoadReport]:
    """Parse a JSONL fixture and collapse it with ``collapse_duplicates``."""
    events: list[VoteEvent] = []
    lines = 0
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            lines += 1
            try:
                record = json.loads(line)
                events.append(VoteEvent(**{k: record[k] for k in _FIXTURE_KEYS}))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ParseError(str(exc), line=lineno) from exc
    kept, duplicates = collapse_duplicates(events)
    return kept, LoadReport(str(path), lines, len(kept), duplicates)


def load_fixture(path: str | Path) -> list[VoteEvent]:
    """load_fixture_with_report, warning on collapsed duplicates."""
    events, report = load_fixture_with_report(path)
    if report.duplicates:
        warnings.warn(
            f"{report.path}: collapsed {len(report.duplicates)} duplicate "
            "(voter, proposal) pairs, last write wins",
            DuplicateKeyWarning,
            stacklevel=2,
        )
    return events


def write_fixture(events: Sequence[VoteEvent], path: str | Path) -> None:
    """Write events as the canonical JSONL fixture, in chain order."""
    ordered = sorted(events, key=lambda e: e.order_key)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for event in ordered:
            handle.write(json.dumps({
                "voter": event.voter,
                "proposal_id": event.proposal_id,
                "support": event.support,
                "block_number": event.block_number,
                "log_index": event.log_index,
            }) + "\n")


def load_ground_truth(path: str | Path, fork_label: str = "fork") -> ForkGroundTruth:
    """Read one address per line; ``#`` starts a comment; blanks ignored."""
    addresses: set[Address] = set()
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                addresses.add(normalize_address(text))
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from exc
    if not addresses:
        raise EmptySet(f"{path}: no addresses")
    return ForkGroundTruth(fork_label, frozenset(addresses))


class Transport(Protocol):
    """JSON-RPC transport; returns the ``result`` member of the response."""

    def request(self, method: str, params: list) -> object: ...


class RpcError(Exception):
    """JSON-RPC level error (carries the provider code and message)."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(f"rpc error {code}: {message}")
        self.code = code


class HttpTransport:
    """requests-based JSON-RPC over HTTPS."""

    def __init__(self, endpoint: str, timeout: float = 30.0) -> None:
        self.endpoint = endpoint
        self.timeout = timeout

    def request(self, method: str, params: list) -> object:
        import requests

        try:
            response = requests.post(
                self.endpoint,
                json={"jsonrpc": "2.0", "id": 1, "method": method, "params": params},
                timeout=self.timeout,
            )
            response.raise_for_status()
            payload = response.json()
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        if "error" in payload:
            error = payload["error"]
            raise RpcError(int(error.get("code", -32000)), str(error.get("message", "")))
        return payload.get("result")


class StaticLogTransport:
    """Replay transport answering eth_getLogs from a fixed log list.

    Used to replay recorded RPC traces in tests and offline runs; filtering
    mirrors provider semantics (address, inclusive block range, topic0 OR-list).
    """

    def __init__(self, logs: Sequence[RawLog]) -> None:
        self._logs = sorted(logs, key=lambda l: (l.block_number, l.log_index))

    def request(self, method: str, params: list) -> object:
        if method != "eth_getLogs":
            raise TransportError(f"unsupported method {method}")
        flt = params[0]
        lo = _to_int(flt["fromBlock"])
        hi = _to_int(flt["toBlock"])
        address = flt.get("address", "").lower()
        topic0 = flt.get("topics", [None])[0]
        accepted = {t.lower() for t in topic0} if isinstance(topic0, list) else (
            {topic0.lower()} if topic0 else None)
        out = []
        for log in self._logs:
            if not lo <= log.block_number <= hi:
                continue
            if address and log.address.lower() != address:
                continue
            if accepted is not None and (not log.topics or log.topics[0].lower() not in accepted):
                continue
            out.append(log.to_rpc())
        return out


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
    by_topic = {}
    for signature in entry.event_signatures:
        by_topic[abi.parse_event_signature(signature).topic0] = signature
    events: list[VoteEvent] = []
    start = lo
    while start <= hi:
        end = min(start + chunk_size - 1, hi)
        for raw in _get_logs_bisect(transport, entry.governance_contract,
                                    sorted(by_topic), start, end, retries, retry_wait):
            log = RawLog.from_rpc(raw)
            signature = by_topic.get(log.topics[0].lower() if log.topics else "")
            if signature is None:
                raise SignatureMismatch(
                    f"block {log.block_number} log {log.log_index}: "
                    "unexpected topic0 from provider")
            events.append(decode_vote_event(log, signature))
        start = end + 1
    events.sort(key=lambda e: e.order_key)
    return events


def _get_logs(transport: Transport, address: str, topics: list[str],
              lo: int, hi: int, retries: int, retry_wait: float) -> list[dict]:
    params = [{
        "address": address,
        "topics": [topics],
        "fromBlock": hex(lo),
        "toBlock": hex(hi),
    }]
    failures = 0
    while True:
        try:
            return list(transport.request("eth_getLogs", params))  # type: ignore[arg-type]
        except RpcError as exc:
            message = str(exc).lower()
            if any(hint in message for hint in _RANGE_HINTS):
                if lo == hi:
                    raise TransportError(
                        f"provider rejects single-block range at {lo}: {exc}") from exc
                raise RangeTooLarge(str(exc)) from exc
            raise TransportError(str(exc)) from exc
        except TransportError:
            failures += 1
            if failures > retries:
                raise
            time.sleep(retry_wait * 2 ** (failures - 1))


def _get_logs_bisect(transport: Transport, address: str, topics: list[str],
                     lo: int, hi: int, retries: int, retry_wait: float) -> list[dict]:
    try:
        return _get_logs(transport, address, topics, lo, hi, retries, retry_wait)
    except RangeTooLarge:
        mid = (lo + hi) // 2
        left = _get_logs_bisect(transport, address, topics, lo, mid, retries, retry_wait)
        right = _get_logs_bisect(transport, address, topics, mid + 1, hi, retries, retry_wait)
        return left + right
