"""Vote-event acquisition: fixtures (canonical), live RPC (optional exporter).

The canonical pipeline input is a line-delimited JSON fixture; ``fetch_logs``
exists to export such fixtures from an EVM JSON-RPC endpoint and is the only
network-touching code in the package.

A vote set travels as a ``VoteTable`` of columns. Each decoded log, per-line
fixture record and planted vote is built by the checked ``VoteEvent(...)``,
and ``VoteTable.from_events`` is the one way events become a table. Chain
order has one owner: ``collapse_duplicates`` sorts a table into it, and
``fetch_logs`` and ``write_fixture`` keep the order they are given.

A load reads the file once, front to back, so a pipe reads as a file does.
It takes the layout ``write_fixture`` writes in 1 MiB blocks of whole lines:
numpy finds each line's newline and four commas, compares the fixed texts
between them as 8-byte words and checks the 40 lowercase hex digits and the
numbers (1 to 18 digits, no leading zero, so they fit an int64). That implies
every ``VoteEvent`` check but ``proposal_id >= 1``, checked per block, so
these blocks build no event, and ``normalize_address`` runs once per voter.
From the first block with any other line, or a proposal id of 0, the
per-line path reads the rest (whitespace, key order, extra keys, ``\\r\\n``,
uppercase hex, big numbers) with the JSON decoder, and each record's five
fields go to ``VoteEvent``, with the cyclic collector paused: a collection
then would free nothing. That path alone raises ``ParseError``, so the
first bad line is the one named, whether its JSON is malformed or nested too
deep, a field is missing, or a value fails a check. The rows of both paths
are ranked together, once. Each address spelling is checked once, by one
precompiled regex (``_CANONICAL``), and interned. Text inputs must be UTF-8;
a byte that is not is a ``ParseError`` naming its line.
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
from itertools import chain, compress
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


@dataclass(frozen=True, eq=False)
class VoteTable:
    """Vote events as columns, one row per event, fields in ``VoteEvent`` order:
    each field's distinct values, sorted (interned addresses, exact ``int``s),
    and one int64 code per row, the index of the row's value among them, so
    codes sort as the values do."""

    values: tuple[tuple, ...]
    codes: np.ndarray  # (5, rows) int64, read-only

    def __post_init__(self) -> None:
        self.codes.setflags(write=False)

    @classmethod
    def from_events(cls, events: VoteTable | Iterable[VoteEvent]) -> VoteTable:
        """The table of checked events, in order; a table is returned as is."""
        if isinstance(events, VoteTable):
            return events
        events = list(events)
        rows = np.arange(len(events))
        return cls._ranked((field, rows) for field in list(zip(*events)) or [()] * 5)

    @classmethod
    def _ranked(cls, columns: Iterable[tuple[Sequence, np.ndarray]]) -> VoteTable:
        """The table whose rows hold ``values[codes]`` for each field's
        (values, codes) pair; values may repeat, go unused or come unsorted."""
        fields, ranked = [], []
        for values, codes in columns:
            used = np.bincount(codes, minlength=len(values)) > 0
            named = list(compress(values, used.tolist()))
            rank = {value: i for i, value in enumerate(sorted(set(named)))}
            ranks = np.zeros(len(values), dtype=np.int64)
            ranks[used] = np.fromiter(map(rank.__getitem__, named), np.int64, len(named))
            fields.append(tuple(rank))  # the distinct values, sorted
            ranked.append(ranks[codes])
        return cls(tuple(fields), np.array(ranked, dtype=np.int64))

    def __len__(self) -> int:
        return self.codes.shape[1]

    def __eq__(self, other: object) -> bool:  # unhashable, as it defines __eq__
        return (isinstance(other, VoteTable) and self.values == other.values
                and np.array_equal(self.codes, other.codes))

    def columns(self, values: Sequence[Sequence]) -> list[list]:
        """Each field's entry in ``values`` (indexed as ``self.values``) per row."""
        return [np.array(field, dtype=object)[codes].tolist()
                for field, codes in zip(values, self.codes)]

    def events(self) -> list[VoteEvent]:
        """The rows as checked ``VoteEvent``s, in table order."""
        return list(map(VoteEvent, *self.columns(self.values)))


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


def collapse_duplicates(events: VoteTable | Iterable[VoteEvent],
                        ) -> tuple[VoteTable, tuple[tuple[Address, int], ...]]:
    """Sort events into chain order (block number, log index, voter, proposal
    id, support) and keep the last of each (voter, proposal) pair; return the
    kept rows, in chain order, and the key of each repeat, in chain order."""
    table = VoteTable.from_events(events)
    codes = table.codes[:, np.lexsort([table.codes[f] for f in (2, 1, 0, 4, 3)])]
    pairs = codes[0] * len(table.values[1]) + codes[1]
    _, first = np.unique(pairs, return_index=True)
    if len(first) == len(pairs):
        return VoteTable(table.values, codes), ()
    _, last = np.unique(pairs[::-1], return_index=True)
    repeats = np.delete(np.arange(len(pairs)), first)
    kept = np.sort(len(pairs) - 1 - last)
    voters, proposal_ids = table.values[:2]
    return (VoteTable._ranked(zip(table.values, codes[:, kept])),
            tuple((voters[v], proposal_ids[p]) for v, p in codes[:2, repeats].T.tolist()))


def load_fixture_with_report(path: str | Path,
                             ) -> tuple[VoteTable, tuple[tuple[Address, int], ...]]:
    """Parse a JSONL fixture and collapse it with ``collapse_duplicates``: the
    kept rows in chain order, and the key of each dropped duplicate. The
    cyclic collector is paused for the call and then left as it was."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(path, "rb") as handle:
            columns, pending = _read_canonical_columns(handle)
            if pending:  # complete its last line, so no character or "\r\n" is split
                pending += handle.readline()
                lines = chain(
                    io.StringIO(pending.decode("utf-8", "surrogateescape"), newline=None),
                    io.TextIOWrapper(handle, encoding="utf-8", errors="surrogateescape"))
                # a canonical line holds one event
                rest = _read_events(lines, len(columns[0][1]) + 1)
                rows = np.arange(len(rest))
                columns = [([*values, *field], np.concatenate((codes, rows + len(values))))
                           for (values, codes), field
                           in zip(columns, list(zip(*rest)) or [()] * 5)]
        table = VoteTable._ranked(columns)
        del columns  # so that one copy of the codes is alive while they are sorted
        return collapse_duplicates(table)
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


def _read_canonical_columns(handle: BinaryIO) -> tuple[list[tuple[list, np.ndarray]], bytes]:
    """Each field's (values, codes) over the leading blocks of whole lines in
    ``write_fixture``'s layout, and the bytes read past them, which start a
    line: the first block that is not, or holds a proposal id of 0, or else
    a last line with no newline."""
    voters: dict[bytes, int] = {}  # each voter's hex digits -> its index
    blocks = [(np.empty(0, np.int64),) * 5]  # per line: the voter's index, the numbers
    rest = b""
    while chunk := handle.read(_BLOCK_BYTES):
        data = rest + chunk
        cut = data.rfind(b"\n") + 1
        columns = _canonical_columns(data[:cut]) if cut else None
        # the layout implies every other ``VoteEvent`` check
        if columns is None or not (columns[1] >= 1).all():
            rest = data
            break
        blocks.append((_voter_codes(columns[0], voters), *columns[1:]))
        rest = data[cut:]
    voter_codes, *numbers = map(np.concatenate, zip(*blocks))
    del blocks  # before the numbers are ranked, which is the reader's peak memory
    return [([normalize_address("0x" + text.decode()) for text in voters], voter_codes),
            *((distinct.tolist(), codes) for distinct, codes
              in (np.unique(column, return_inverse=True) for column in numbers))], rest


def _voter_codes(digits: np.ndarray, voters: dict[bytes, int]) -> np.ndarray:
    """Each line's index in ``voters`` by its row of (lines, 40) ``uint8`` hex
    digits; a voter not in it is added, its index the next one."""
    words = digits.view(">u8")  # a row as 5 words, in byte order
    order = np.lexsort(words.T[::-1])
    ordered = words[order]
    starts = np.ones(len(order), dtype=bool)  # where each distinct row starts
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    codes = np.empty(len(order), dtype=np.int64)
    codes[order] = np.cumsum(starts) - 1
    distinct = digits[order[starts]].view("S40").ravel().tolist()
    return np.array([voters.setdefault(text, len(voters)) for text in distinct],
                    dtype=np.int64)[codes]


def _canonical_columns(block: bytes) -> tuple[np.ndarray, ...] | None:
    """The voters' hex digits, as (lines, 40) ``uint8``, and the four numbers,
    as ``int64``, of a block of whole lines, each line as ``write_fixture``
    writes it and each number 1 to 18 digits; None if any line is not.

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
        numbers.append(digits @ _POWERS[places])
    return hex_digits, *numbers


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


def write_fixture(events: VoteTable | Iterable[VoteEvent], path: str | Path) -> None:
    """Write a table (or events, through ``VoteTable.from_events``) as the
    canonical JSONL fixture, one line per row, in table order. Each line is
    the one ``json.dumps`` writes for the record, each distinct value
    formatted once: the voter is lowercase hex and the numbers are exact
    ``int``s, so nothing needs escaping."""
    table = VoteTable.from_events(events)
    voters, *numbers = table.values
    columns = table.columns([voters, *([str(n) for n in field] for field in numbers)])
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(
            f'{{"voter": "{voter}", "proposal_id": {proposal_id}, '
            f'"support": {support}, "block_number": {block_number}, '
            f'"log_index": {log_index}}}\n'
            for voter, proposal_id, support, block_number, log_index in zip(*columns))


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
