"""Event decoding, fixtures, ground truth, and RPC fetch behavior."""

from __future__ import annotations

import bisect
import gc
import io
import itertools
import json
import os
import re
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forkcast import abi, build_voter_matrix, ingest, planted_two_bloc_events
from forkcast.abi import (
    _DYNAMIC_TYPES,
    EventAbi,
    _strip_0x,
    keccak256,
    parse_event_signature,
)
from forkcast.config import DaoRegistryEntry, bundled_registry
from forkcast.errors import (
    EmptySet,
    MalformedData,
    ParseError,
    SignatureMismatch,
    TransportError,
)
from forkcast.ingest import (
    ForkGroundTruth,
    RpcError,
    VoteEvent,
    collapse_duplicates,
    decode_vote_event,
    fetch_logs,
    load_fixture_with_report,
    load_ground_truth,
    normalize_address,
    write_fixture,
)

from conftest import addr, build_voter_matrix_by_dict, compact_copy, read_through_fifo

ROOT = Path(__file__).resolve().parent.parent
PLANTED = ROOT / "data" / "planted"

NOUNS_SIG = "VoteCast(address,uint256,uint8,uint256,string)"
ARAGON_SIG = "CastVote(uint256 indexed voteId,address indexed voter,bool supports,uint256 stake)"

# Published keccak-256 known-answer vectors; the empty-input digest is the
# ubiquitous Ethereum empty-code hash, the third is the ERC-20 Transfer topic.
KECCAK_VECTORS = [
    (b"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"),
    (b"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"),
    (b"Transfer(address,address,uint256)",
     "ddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef"),
]

# Frozen after the keccak implementation reproduced all vectors above;
# matches the widely published GovernorBravo VoteCast topic.
NOUNS_TOPIC0 = "0xb8e138887d0aa13bab447e82de9d5c1777041ecd21ca36ba824ff1e6c07ddda4"


def chain_order(event: VoteEvent) -> tuple:
    """Chain order, the order ``collapse_duplicates`` sorts into: block number,
    log index, then voter, proposal id and support."""
    return (event.block_number, event.log_index, event.voter,
            event.proposal_id, event.support)


def encode_vote_data(abi: EventAbi, voter: str, proposal_id: int,
                     support: int) -> tuple[tuple[str, ...], str]:
    """Build (topics, data) for a synthetic log of this event.

    The voter, proposal id and support go to the event's vote slots; other
    words encode as zero, and dynamic parameters as empty. Inverse of decode
    for the fields a VoteEvent keeps.
    """
    words = [bytes(32)] * len(abi.params)  # topics after topic0, then data heads
    voter_slot, proposal_slot, support_slot = abi.vote_slots
    words[voter_slot] = bytes(12) + bytes.fromhex(_strip_0x(voter))
    words[proposal_slot] = proposal_id.to_bytes(32, "big")
    words[support_slot] = support.to_bytes(32, "big")
    data_params = [p for p in abi.params if not p.indexed]
    tail: list[bytes] = []
    for slot, param in enumerate(data_params, start=abi.topic_count):
        if param.type in _DYNAMIC_TYPES:
            words[slot] = (32 * (len(data_params) + len(tail))).to_bytes(32, "big")
            tail.append(bytes(32))  # zero-length payload
    topics = (abi.topic0, *("0x" + word.hex() for word in words[:abi.topic_count]))
    return topics, "0x" + b"".join(words[abi.topic_count:] + tail).hex()


CONTRACT = "0x" + "33" * 20


def rpc_log(topics: tuple[str, ...], data: str, block_number: int = 5,
            log_index: int = 9, contract: str = CONTRACT) -> dict:
    """One ``eth_getLogs`` entry, numbers in the provider's hex form."""
    return {
        "address": contract,
        "topics": list(topics),
        "data": data,
        "blockNumber": hex(block_number),
        "logIndex": hex(log_index),
    }


def encode_vote_event(event: VoteEvent, signature: str, contract: str = CONTRACT) -> dict:
    """Synthesize an ``eth_getLogs`` entry that decodes back to ``event``
    (round-trip inverse)."""
    event_abi = parse_event_signature(signature)
    topics, data = encode_vote_data(
        event_abi, event.voter, event.proposal_id, event.support)
    return rpc_log(topics, data, event.block_number, event.log_index, contract)


def _entry(lo=0, hi=10**9, signatures=(NOUNS_SIG,), contract=CONTRACT):
    return DaoRegistryEntry("test", contract, lo, hi, signatures)


class StaticLogTransport:
    """Replay transport answering eth_getLogs from a fixed log list; filtering
    mirrors provider semantics (address, inclusive block range, topic0 OR-list).
    """

    def __init__(self, logs) -> None:
        self._logs = sorted(logs, key=lambda l: (int(l["blockNumber"], 16),
                                                 int(l["logIndex"], 16)))

    def request(self, method: str, params: list) -> object:
        if method != "eth_getLogs":
            raise TransportError(f"unsupported method {method}")
        flt = params[0]
        lo = int(flt["fromBlock"], 16)
        hi = int(flt["toBlock"], 16)
        address = flt.get("address", "").lower()
        topic0 = flt.get("topics", [None])[0]
        accepted = {t.lower() for t in topic0} if isinstance(topic0, list) else (
            {topic0.lower()} if topic0 else None)
        out = []
        for log in self._logs:
            if not lo <= int(log["blockNumber"], 16) <= hi:
                continue
            if address and log["address"].lower() != address:
                continue
            if accepted is not None and (not log["topics"]
                                         or log["topics"][0].lower() not in accepted):
                continue
            out.append(log)
        return out


@pytest.mark.parametrize("message,digest", KECCAK_VECTORS)
def test_keccak_known_answers(message, digest):
    assert keccak256(message).hex() == digest


def test_vote_cast_topic_hash():
    assert parse_event_signature(NOUNS_SIG).topic0 == NOUNS_TOPIC0


def test_normalize_address():
    assert normalize_address("0xABCDEF" + "00" * 17) == "0xabcdef" + "00" * 17
    with pytest.raises(ValueError):
        normalize_address("abcdef")
    with pytest.raises(ValueError):
        normalize_address("0x1234")  # too short


def normalize_address_by_characters(value):
    """Reference: the character-loop check ``normalize_address`` replaced."""
    if not isinstance(value, str) or not value.startswith(("0x", "0X")):
        raise ValueError(f"address must be 0x-prefixed hex: {value!r}")
    body = value[2:].lower()
    if len(body) != 40 or any(c not in "0123456789abcdef" for c in body):
        raise ValueError(f"address must encode exactly 20 bytes: {value!r}")
    return "0x" + body


def _outcome(normalize, value):
    try:
        return "ok", normalize(value)
    except ValueError as exc:
        return "error", str(exc)


# near-addresses: a prefix, then 38-42 characters mixing hex digits with
# characters that lowercase to something else or to two characters
_near_addresses = st.builds(
    lambda prefix, body: prefix + body,
    st.sampled_from(["0x", "0X", "0", "x", "", " 0x"]),
    st.text(alphabet="0123456789abcdefABCDEF\u0130\u212a\uff21\u0660g \n",
            min_size=38, max_size=42))


@given(st.one_of(st.text(), _near_addresses))
@example("0x" + "\u0130" + "a" * 39)  # İ lowercases to two characters
@example("0x" + "\u0130" + "a" * 38)
@example("0x" + "\u212a" + "a" * 39)  # Kelvin sign lowercases to ASCII k
@example("0x" + "\uff21" + "a" * 39)  # fullwidth A
@example("0x" + "\u0660" + "a" * 39)  # Arabic-Indic digit zero
@example("0X" + "Ab" * 20)
@example("0x" + "a" * 39)
@example("0x" + "a" * 41)
@example("0x" + "a" * 40 + "\n")
@example("0x" + "a" * 39 + "\n")
@example(None)
@example(b"0x" + b"a" * 40)
def test_normalize_address_matches_character_loop(value):
    """Twice: the second call may read the first one's stored spelling."""
    first = _outcome(normalize_address, value)
    second = _outcome(normalize_address, value)
    assert first == _outcome(normalize_address_by_characters, value)
    assert second == first
    if first[0] == "ok":
        assert second[1] is first[1]
    else:
        assert not (isinstance(value, str) and value in ingest._CANONICAL)


def test_vote_event_invariants():
    with pytest.raises(ValueError):
        VoteEvent(addr(1), 0, 1, 0, 0)  # proposal ids start at 1
    with pytest.raises(ValueError):
        VoteEvent(addr(1), 1, 1, -1, 0)
    event = VoteEvent(addr(1), 1, 1, 0, 0)
    with pytest.raises(ValueError):
        event._replace(proposal_id=0)
    with pytest.raises(ValueError):
        VoteEvent._make(["0x12", 1, 1, 0, 0])


@pytest.mark.parametrize("position", range(1, 5))
@pytest.mark.parametrize("value", [1.5, True, "5", 2.0])
def test_vote_event_numbers_must_be_exact_ints(position, value):
    fields = [addr(1), 1, 1, 0, 0]
    fields[position] = value
    with pytest.raises(ValueError, match="must be an integer"):
        VoteEvent(*fields)


def test_vote_event_has_no_instance_dict():
    event = VoteEvent(addr(1), 1, 1, 0, 0)
    assert not hasattr(event, "__dict__")


@pytest.mark.parametrize("name", ["voter", "proposal_id", "support", "block_number",
                                  "log_index"])
def test_vote_event_fields_are_read_only(name):
    event = VoteEvent(addr(1), 1, 1, 0, 0)
    with pytest.raises(AttributeError):
        setattr(event, name, getattr(event, name))


def _word(value: int) -> str:
    return f"{value:064x}"


def test_decode_hand_encoded_vote_cast():
    # Hand-assembled ABI payload: proposalId=7, support=1, votes=0,
    # reason="" (head offset 0x80, zero length).
    voter = "0x" + "aa" * 20
    contract = "0x6f3e6272a167e8accb32072d08e0957f9c79223d"
    log = rpc_log(
        topics=(NOUNS_TOPIC0, "0x" + "00" * 12 + "aa" * 20),
        data="0x" + _word(7) + _word(1) + _word(0) + _word(0x80) + _word(0),
        block_number=12985453,
        log_index=3,
        contract=contract,
    )
    event = decode_vote_event(log, _entry(contract=contract))
    assert event == VoteEvent(voter, 7, 1, 12985453, 3)


def test_decode_signature_mismatch():
    # a well-formed nouns log, decoded for an entry that lists only Aragon's event
    log = rpc_log((NOUNS_TOPIC0, "0x" + "00" * 12 + "aa" * 20), "0x" + _word(1) * 5)
    with pytest.raises(SignatureMismatch,
                       match="^block 5 log 9: unexpected topic0 from provider$"):
        decode_vote_event(log, _entry(signatures=(ARAGON_SIG,)))


def test_decode_short_data_is_malformed():
    log = rpc_log((NOUNS_TOPIC0, "0x" + "00" * 12 + "aa" * 20), "0x" + _word(7))
    with pytest.raises(MalformedData, match="block 5 log 9"):
        decode_vote_event(log, _entry())


_VOTER_TOPIC = "0x" + "00" * 12 + "aa" * 20


@pytest.mark.parametrize("topics,data,message", [
    ((NOUNS_TOPIC0,), _word(7) * 4, "expected 2 topics, got 1"),
    ((NOUNS_TOPIC0, _VOTER_TOPIC), "zz", "data segment is not hex: "),
    ((NOUNS_TOPIC0, _VOTER_TOPIC), _word(7) * 3,
     "data segment too short: 96 bytes for 4 words"),
    ((NOUNS_TOPIC0, "0x" + "aa" * 20), _word(7) * 4, "topic 1 is not 32 bytes"),
    ((NOUNS_TOPIC0, "0x" + "zz" * 32), _word(7) * 4, "non-hexadecimal number"),
], ids=["topic-count", "data-not-hex", "data-short", "topic-short", "topic-not-hex"])
def test_decode_malformed_log_names_the_fault(topics, data, message):
    with pytest.raises(MalformedData, match=f"^block 5 log 9: {message}"):
        decode_vote_event(rpc_log(topics, "0x" + data), _entry())


def test_decode_aragon_style_indexed_layout():
    event_abi = parse_event_signature(ARAGON_SIG)
    log = rpc_log(
        topics=(event_abi.topic0, "0x" + _word(41), "0x" + "00" * 12 + "bb" * 20),
        data="0x" + _word(1) + _word(999),
        block_number=100,
        log_index=0,
        contract="0x" + "22" * 20,
    )
    event = decode_vote_event(log, _entry(signatures=(ARAGON_SIG,),
                                          contract="0x" + "22" * 20))
    assert event.voter == "0x" + "bb" * 20
    assert event.proposal_id == 41
    assert event.support == 1


def test_parse_rejects_unusable_signatures():
    with pytest.raises(ValueError):
        parse_event_signature("Transfer(address,address)")  # no support field
    with pytest.raises(ValueError):
        parse_event_signature("Voted(uint256,uint8)")  # no voter
    for two_names in ("Voted(address voter who,uint256,uint8)",
                      "Voted(address indexed voter who,uint256,uint8)"):
        with pytest.raises(ValueError, match="^cannot parse parameter"):
            parse_event_signature(two_names)
    for signature, message in [
        ("VoteCast()", "vote event needs parameters"),
        ("VoteCast(address,,uint8)", "empty parameter in"),
        ("VoteCast(address,uint256,fixed128x18)", "unsupported parameter type 'fixed128x18'"),
        ("VoteCast(address,uint256,uint8,string indexed reason)",
         "indexed dynamic parameter unsupported in"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            parse_event_signature(signature)


def test_parse_expands_the_integer_aliases():
    short, full = (parse_event_signature(signature) for signature in
                   ("VoteCast(address,uint,uint8)", "VoteCast(address,uint256,uint8)"))
    assert (short.canonical, short.topic0) == (full.canonical, full.topic0)
    assert parse_event_signature("Voted(address,int,uint8)").params[1].type == "int256"


@given(st.integers(1, 10**6), st.integers(0, 2), st.integers(0, 10**8),
       st.integers(0, 500), st.integers(1, 2**160 - 1))
def test_decode_encode_round_trip(proposal, support, block, index, voter_int):
    event = VoteEvent(f"0x{voter_int:040x}", proposal, support, block, index)
    assert decode_vote_event(encode_vote_event(event, NOUNS_SIG), _entry()) == event


def test_round_trip_all_bundled_signatures():
    event = VoteEvent(addr(9), 12, 1, 777, 2)
    for entry in bundled_registry().values():
        for signature in entry.event_signatures:
            log = encode_vote_event(event, signature, entry.governance_contract)
            assert decode_vote_event(log, entry) == event


def test_load_fixture_empty(tmp_path):
    path = tmp_path / "votes.jsonl"
    path.write_text("")
    assert load_fixture_with_report(path)[0].events() == []


def test_load_fixture_duplicate_last_write_wins(tmp_path):
    lines = [
        {"voter": addr(1), "proposal_id": 1, "support": 0,
         "block_number": 10, "log_index": 0},
        {"voter": addr(2), "proposal_id": 1, "support": 1,
         "block_number": 11, "log_index": 0},
        {"voter": addr(1), "proposal_id": 1, "support": 1,
         "block_number": 12, "log_index": 0},
    ]
    path = tmp_path / "votes.jsonl"
    path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    table, duplicates = load_fixture_with_report(path)
    events = table.events()
    assert duplicates == ((addr(1), 1),)
    assert len(events) == 2
    assert events[-1].support == 1 and events[-1].block_number == 12


def test_load_fixture_report_counts(tmp_path):
    path = tmp_path / "votes.jsonl"
    record = {"voter": addr(1), "proposal_id": 2, "support": 1,
              "block_number": 5, "log_index": 1, "extra_key": "ignored"}
    path.write_text(json.dumps(record) + "\n\n")
    events, duplicates = load_fixture_with_report(path)
    assert len(events) == 1 and duplicates == ()


def test_load_fixture_parse_error_carries_line(tmp_path):
    path = tmp_path / "votes.jsonl"
    path.write_text('{"voter": "0x1", "proposal_id": 1}\n')
    with pytest.raises(ParseError, match="line 1"):
        load_fixture_with_report(path)


@pytest.mark.parametrize("field", ["proposal_id", "support", "block_number", "log_index"])
@pytest.mark.parametrize("value", [1.5, True, "5"])
def test_load_fixture_rejects_non_integer_numbers(tmp_path, field, value):
    good = {"voter": addr(1), "proposal_id": 1, "support": 1,
            "block_number": 0, "log_index": 0}
    bad = {**good, "voter": addr(2), field: value}
    path = tmp_path / "votes.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ParseError, match="line 2"):
        load_fixture_with_report(path)


def test_load_fixture_runs_no_collection(tmp_path):
    events, _ = planted_two_bloc_events((100, 50), 200, seed=3)
    assert len(events) >= 20_000
    path = tmp_path / "votes.jsonl"
    write_fixture(events, path)
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.callbacks.append(count)
    try:
        assert len(load_fixture_with_report(path)[0]) == len(events)
    finally:
        gc.callbacks.remove(count)
        (gc.enable if was else gc.disable)()
    assert starts == []


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("voter", [addr(1), "0x1"], ids=["loads", "parse-error"])
def test_load_fixture_restores_the_collector_state(tmp_path, collecting, voter):
    path = tmp_path / "votes.jsonl"
    path.write_text(json.dumps({"voter": voter, "proposal_id": 1, "support": 1,
                                "block_number": 0, "log_index": 0}) + "\n")
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if voter == "0x1":
            with pytest.raises(ParseError, match="line 1"):
                load_fixture_with_report(path)
        else:
            assert len(load_fixture_with_report(path)[0]) == 1
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


def test_load_fixture_checks_each_voter_spelling_once(monkeypatch):
    calls, check = [], ingest._is_address

    def is_address(value):
        calls.append(value)
        return check(value)

    monkeypatch.setattr(ingest, "_CANONICAL", {}, raising=False)
    monkeypatch.setattr(ingest, "_is_address", is_address)
    events = load_fixture_with_report(PLANTED / "votes.jsonl")[0]
    assert len(events) == 1_450
    assert len(calls) == len(set(calls)) == 30


def test_load_fixture_interns_each_voter():
    events = load_fixture_with_report(PLANTED / "votes.jsonl")[0].events()
    assert len({id(e.voter) for e in events}) == len({e.voter for e in events})


def test_load_fixture_normalizes_mixed_case_addresses(tmp_path):
    path = tmp_path / "votes.jsonl"
    record = {"voter": "0xAB" + "Cd" * 19, "proposal_id": 1, "support": 1,
              "block_number": 0, "log_index": 0}
    path.write_text(json.dumps(record) + "\n")
    [event] = load_fixture_with_report(path)[0].events()
    assert event.voter == ("0xab" + "cd" * 19)


@given(order=st.permutations(range(6)))
def test_load_fixture_order_independent(tmp_path_factory, order):
    records = [
        {"voter": addr(i % 3 + 1), "proposal_id": i % 2 + 1, "support": i % 2,
         "block_number": 100 + i, "log_index": i}
        for i in range(6)
    ]
    base = tmp_path_factory.mktemp("perm")
    straight, shuffled = base / "a.jsonl", base / "b.jsonl"
    straight.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    shuffled.write_text("\n".join(json.dumps(records[i]) for i in order) + "\n")
    assert load_fixture_with_report(straight)[0] == load_fixture_with_report(shuffled)[0]


def load_fixture_line_by_line(path):
    """Reference: the per-line loader ``load_fixture_with_report`` replaced."""
    with open(path, encoding="utf-8") as handle:
        return events_line_by_line(handle)


def events_line_by_line(lines):
    decode = json.JSONDecoder().decode
    events = []
    for lineno, line in enumerate(lines, start=1):
        if line.isspace():
            continue
        try:
            record = decode(line)
            events.append(VoteEvent(record["voter"], record["proposal_id"],
                                    record["support"], record["block_number"],
                                    record["log_index"]))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                RecursionError) as exc:  # RecursionError: nested too deep
            raise ParseError(str(exc), line=lineno) from exc
    return collapse_duplicates(events)


def strict_decode_reference(path, parse_lines):
    """Reference for a text input: decode the whole file strictly; at the first
    byte that is not UTF-8, parse the lines before the one holding it, then
    name the byte."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = io.StringIO(data[:exc.start].decode("utf-8"), newline=None).readlines()
        before = [line for line in head if line.endswith("\n")]
        parse_lines(before)
        raise ParseError(f"not UTF-8: byte 0x{data[exc.start]:02x}",
                         line=len(before) + 1) from None
    return parse_lines(io.StringIO(text, newline=None))


def _load_outcome(load, path):
    try:
        table, duplicates = load(path)
    except ParseError as exc:
        return "error", exc.line, str(exc)
    assert all(voter is sys.intern(voter) for voter in table.values[0])
    events = table.events()
    for event in events:
        assert type(event) is VoteEvent and event == VoteEvent(*event)
        assert event.voter is sys.intern(event.voter)
    return "ok", events, duplicates


_RECORD_KEYS = ("voter", "proposal_id", "support", "block_number", "log_index")
_records = st.fixed_dictionaries({
    "voter": st.sampled_from([addr(1), addr(2), addr(3).upper().replace("0X", "0x"),
                              "0X" + "aB" * 20]),
    "proposal_id": st.integers(1, 3),
    "support": st.one_of(st.integers(-1, 3), st.just(2**70)),
    "block_number": st.integers(0, 4),
    "log_index": st.integers(0, 2),
}, optional={"extra": st.just([1, {"x": None}])})
# valid lines, with whitespace a JSON decoder skips around the object
_valid_lines = st.builds(lambda lead, record, trail: lead + json.dumps(record) + trail,
                         st.sampled_from(["", "", "", " ", "\t"]), _records,
                         st.sampled_from(["", "", "", " ", "\t "]))
_blank_lines = st.sampled_from(["", " ", "\t", "\xa0", " "])


_GOOD_RECORD = {"voter": addr(7), "proposal_id": 2, "support": 1,
                "block_number": 3, "log_index": 0}
# one defect of each kind the per-line loader names: numbers that are not
# exact ints or are out of range, bad voters, missing keys, lines that are not
# one JSON object, and data after the object
_DEFECT_LINES = (
    [json.dumps({**_GOOD_RECORD, key: value}) for key in _RECORD_KEYS[1:]
     for value in (True, False, 2.0, "5", None)]
    + [json.dumps({**_GOOD_RECORD, key: value}) for key, value in (
        ("proposal_id", 0), ("proposal_id", -1), ("block_number", -1), ("log_index", -1))]
    + [json.dumps({**_GOOD_RECORD, "voter": value})
       for value in ("0x12", "ab" * 20, 5, None, ["0x"], "0x" + "g" * 40)]
    + [json.dumps({k: v for k, v in _GOOD_RECORD.items() if k != key})
       for key in _RECORD_KEYS]
    + ["[1, 2]", "5", '"text"', "null", "{", '{"voter": }', "nope", "{} {}",
       "\xa0{}", "[" * 2000, json.dumps(_GOOD_RECORD) + " []",
       json.dumps(_GOOD_RECORD) + "}"])
_defects = st.sampled_from(_DEFECT_LINES)


def _write_lines(path, lines, ending):
    path.write_bytes(ending.join(lines).encode("utf-8"))
    return path


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.one_of(_valid_lines, _valid_lines, _blank_lines), max_size=30),
       defects=st.lists(st.tuples(st.integers(0, 30), _defects), max_size=2),
       ending=st.sampled_from(["\n", "\r\n", "\r"]), final=st.booleans())
def test_load_fixture_matches_per_line_reference(tmp_path_factory, lines, defects,
                                                 ending, final):
    for position, defect in defects:
        lines.insert(position, defect)
    path = _write_lines(tmp_path_factory.mktemp("load") / "votes.jsonl",
                        lines + [""] * final, ending)
    assert (_load_outcome(load_fixture_with_report, path)
            == _load_outcome(load_fixture_line_by_line, path))


@pytest.mark.parametrize("defect", _DEFECT_LINES)
def test_load_fixture_defect_matches_per_line_reference(tmp_path, defect):
    # every defect, a line nested past the recursion limit included, is a
    # ParseError naming its line
    lines = [json.dumps({**_GOOD_RECORD, "log_index": i}) for i in range(5)]
    lines.insert(3, defect)
    path = _write_lines(tmp_path / "votes.jsonl", lines, "\n")
    expected = _load_outcome(load_fixture_line_by_line, path)
    assert expected[:2] == ("error", 4)
    assert _load_outcome(load_fixture_with_report, path) == expected


def _chain_lines(count):
    """``count`` valid fixture lines from 40 mixed-case voters, with repeats."""
    return [json.dumps({"voter": f"0x{i % 40:040X}", "proposal_id": i % 7 + 1,
                        "support": i % 3, "block_number": i // 3, "log_index": i % 3})
            for i in range(count)]


_LONG = 10_240  # lines in a long fixture


@settings(max_examples=20, deadline=None)
@given(defects=st.lists(st.tuples(st.integers(0, _LONG), st.one_of(_defects, _blank_lines)),
                        max_size=2))
def test_load_long_fixture_with_defects_matches_reference(tmp_path_factory, defects):
    lines = _chain_lines(_LONG)
    for position, defect in defects:
        lines.insert(position, defect)
    path = _write_lines(tmp_path_factory.mktemp("long") / "votes.jsonl",
                        lines + [""], "\n")
    assert (_load_outcome(load_fixture_with_report, path)
            == _load_outcome(load_fixture_line_by_line, path))


def test_load_long_fixture_matches_reference(tmp_path):
    path = _write_lines(tmp_path / "votes.jsonl", _chain_lines(_LONG) + [""], "\n")
    outcome = _load_outcome(load_fixture_with_report, path)
    assert outcome[0] == "ok" and len(outcome[1]) + len(outcome[2]) == _LONG
    assert outcome == _load_outcome(load_fixture_line_by_line, path)


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_load_fixture_not_utf8_names_first_bad_line(tmp_path, ending):
    lines = [line.encode() for line in _chain_lines(30)]
    lines[19] += b"\xc3("  # a truncated two-byte sequence
    path = tmp_path / "votes.jsonl"
    path.write_bytes(ending.encode().join(lines))
    with pytest.raises(ParseError, match=r"^line 20: not UTF-8: byte 0xc3$"):
        load_fixture_with_report(path)


def test_load_fixture_bad_line_before_bad_byte_is_reported_first(tmp_path):
    # both lines sit in the first block the text decoder reads
    lines = [line.encode() for line in _chain_lines(30)]
    lines[4] = b'{"voter": "0x12"}'
    lines[25] += b"\xff"
    path = tmp_path / "votes.jsonl"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ParseError, match="^line 5: "):
        load_fixture_with_report(path)


_BAD_BYTES = [b"\xff", b"\xe9", b"\x80", b"\xc3(", b"\xe2\x82", b"\xc0\xaf",
              b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]
_bad_bytes = st.sampled_from(_BAD_BYTES)
# a line holding bytes that are not UTF-8: inside the string of a key the
# loader ignores, after the object, or on an otherwise blank line
_bad_byte_lines = st.one_of(
    st.builds(lambda record, bad: json.dumps({**record, "extra": "caf@"})
              .encode().replace(b"@", bad), _records, _bad_bytes),
    st.builds(lambda line, bad: line.encode() + bad, _valid_lines, _bad_bytes),
    st.builds(lambda blank, bad: blank.encode() + bad, _blank_lines, _bad_bytes))
# valid lines that are not ASCII
_non_ascii_lines = st.builds(
    lambda record, text: json.dumps({**record, "extra": text}, ensure_ascii=False),
    _records, st.sampled_from(["café", "\u2603", "\U0001f600", "é\xa0"]))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.one_of(_valid_lines, _valid_lines, _non_ascii_lines,
                                _blank_lines, _defects), max_size=20),
       bad=st.lists(st.tuples(st.integers(0, 20), _bad_byte_lines), max_size=2),
       ending=st.sampled_from([b"\n", b"\r\n", b"\r"]), final=st.booleans())
def test_load_fixture_matches_strict_decode_reference(tmp_path_factory, lines, bad,
                                                      ending, final):
    encoded = [line.encode() for line in lines]
    for position, line in bad:
        encoded.insert(position, line)
    path = tmp_path_factory.mktemp("bytes") / "votes.jsonl"
    path.write_bytes(ending.join(encoded + [b""] * final))
    assert (_load_outcome(load_fixture_with_report, path)
            == _load_outcome(lambda p: strict_decode_reference(p, events_line_by_line),
                             path))


# numbers of 1, 17 and 18 digits and the largest of 18, which the bulk read
# takes, then one of 19 digits and one past int64, which it leaves to the
# per-line path
_FITTING_NUMBERS = [7, 10**16 + 9, 10**17 + 1, 10**18 - 1]
_LONG_NUMBERS = [10**18, 2**70]


def _events_with(numbers):
    return st.builds(
        VoteEvent, st.sampled_from([addr(1), addr(2), "0x" + "ab" * 20]),
        st.sampled_from([1, *numbers]), st.sampled_from([0, *numbers]),
        st.sampled_from([0, *numbers]), st.sampled_from([0, *numbers]))


_canonical_events = st.one_of(
    st.lists(_events_with(_FITTING_NUMBERS), min_size=1, max_size=6),
    st.lists(_events_with(_FITTING_NUMBERS + _LONG_NUMBERS), min_size=1, max_size=6))
# one byte written over or before another: a sign, a leading zero, a space,
# a carriage return, uppercase hex, bytes that are not ASCII (one not UTF-8)
_MUTATION_BYTES = [b"-", b"0", b" ", b"\r", b"A", b"F", b"\xe9", "é".encode()]


@settings(max_examples=400, deadline=None)
@given(events=_canonical_events, data=st.data(), drop_final_newline=st.booleans())
def test_load_mutated_canonical_fixture_matches_per_line_reference(
        tmp_path_factory, events, data, drop_final_newline):
    path = tmp_path_factory.mktemp("mutate") / "votes.jsonl"
    write_fixture(events, path)
    raw = bytearray(path.read_bytes())
    # any byte, a digit, or where a number starts or a line closes
    at = data.draw(st.sampled_from([
        range(len(raw)),
        [i for i, byte in enumerate(raw) if chr(byte).isdigit()],
        [match.start() for match in re.finditer(rb"(?<= )\d|}", raw)],
    ]).flatmap(st.sampled_from))
    size = data.draw(st.sampled_from([0, 1]))  # 0 inserts, 1 overwrites
    raw[at:at + size] = data.draw(st.sampled_from(_MUTATION_BYTES))
    path.write_bytes(raw[:-1] if drop_final_newline else raw)
    assert (_load_outcome(load_fixture_with_report, path)
            == _load_outcome(lambda p: strict_decode_reference(p, events_line_by_line),
                             path))


def test_load_every_single_byte_mutation_matches_per_line_reference(tmp_path):
    path = tmp_path / "votes.jsonl"
    write_fixture([VoteEvent("0x" + "ab" * 20, 10**17 + 1, 0, 10**16 + 9, 10**18 - 1),
                   VoteEvent(addr(1), 7, 1, 0, 12)], path)
    canonical = path.read_bytes()
    for at, size, byte in itertools.product(range(len(canonical)), (0, 1),
                                            _MUTATION_BYTES):
        raw = bytearray(canonical)
        raw[at:at + size] = byte
        path.write_bytes(raw)
        assert (_load_outcome(load_fixture_with_report, path)
                == _load_outcome(lambda p: strict_decode_reference(p, events_line_by_line),
                                 path)), raw


def _canonical_lines_past_one_block(tmp_path):
    """A ``write_fixture`` file of more than one bulk block, its lines, and the
    index of the line that straddles the end of the first block."""
    path = tmp_path / "votes.jsonl"
    write_fixture([VoteEvent(addr(i % 50 + 1), i // 50 + 1, i % 3, i // 5, i % 5)
                   for i in range(10_000)], path)
    lines = path.read_bytes().splitlines(keepends=True)
    ends = list(itertools.accumulate(map(len, lines)))
    straddle = bisect.bisect_right(ends, ingest._BLOCK_BYTES)
    assert ends[-1] > ingest._BLOCK_BYTES and ends[straddle] - len(lines[straddle]) \
        < ingest._BLOCK_BYTES < ends[straddle]
    return path, lines, straddle


@pytest.mark.parametrize("after", [0, 1, 1_500], ids=["straddling", "next", "later"])
@pytest.mark.parametrize("defect", [
    b'{"voter": "0x0000000000000000000000000000000000000001", "proposal_id": 0, '
    b'"support": 1, "block_number": 1, "log_index": 1}\n',
    b'{"voter": "0x0000000000000000000000000000000000000001", "proposal_id": 1}\n',
    b'{"voter": "0x1", "proposal_id": 1, "support": 1, "block_number": 1, '
    b'"log_index": 1}\n',
    b"nope\n",
], ids=["check", "missing-key", "short-voter", "not-json"])
def test_load_defect_after_the_first_block_names_its_line(tmp_path, after, defect):
    path, lines, straddle = _canonical_lines_past_one_block(tmp_path)
    lines[straddle + after] = defect
    path.write_bytes(b"".join(lines))
    expected = _load_outcome(load_fixture_line_by_line, path)
    assert expected[:2] == ("error", straddle + after + 1)
    assert _load_outcome(load_fixture_with_report, path) == expected


def test_load_canonical_fixture_past_one_block_matches_reference(tmp_path):
    path, lines, straddle = _canonical_lines_past_one_block(tmp_path)
    # the file without, then with, a valid line in another layout in block two
    lines[straddle + 1] = lines[straddle + 1].replace(b'"support": ', b'"support":  ')
    for text in (b"".join(lines[:straddle + 1] + lines[straddle + 2:]), b"".join(lines)):
        path.write_bytes(text)
        outcome = _load_outcome(load_fixture_with_report, path)
        assert outcome[0] == "ok"
        assert outcome == _load_outcome(load_fixture_line_by_line, path)


@pytest.mark.parametrize("case", ["compact", "canonical", "late-other-layout",
                                  "late-defect"])
def test_load_fixture_through_a_fifo_matches_a_regular_file(tmp_path, case):
    # a FIFO cannot be read twice, so each byte must be read once, in order
    path, lines, straddle = _canonical_lines_past_one_block(tmp_path)
    if case == "compact":
        path.write_text(compact_copy((PLANTED / "votes.jsonl").read_text()))
    elif case == "late-other-layout":
        lines[straddle + 1] = lines[straddle + 1].replace(b'"support": ', b'"support":  ')
        path.write_bytes(b"".join(lines))
    elif case == "late-defect":
        lines[straddle + 1] = b"nope\n"
        path.write_bytes(b"".join(lines))
    expected = _load_outcome(load_fixture_line_by_line, path)
    assert expected[0] == ("error" if case == "late-defect" else "ok")
    outcome = read_through_fifo(tmp_path / "votes.fifo", path.read_bytes(),
                                lambda fifo: _load_outcome(load_fixture_with_report, fifo))
    assert outcome == expected


def test_only_a_canonical_fixture_skips_the_per_line_path(tmp_path, monkeypatch):
    def per_line(*args):
        raise AssertionError("read line by line")

    events, _ = planted_two_bloc_events((20, 10), 60, seed=1)
    written = tmp_path / "votes.jsonl"
    write_fixture(events, written)
    canonical = (written, PLANTED / "votes.jsonl")
    expected = [_load_outcome(load_fixture_with_report, path) for path in canonical]
    # valid copies in other layouts: compact separators, uppercase hex digits
    compact, upper = tmp_path / "compact.jsonl", tmp_path / "upper.jsonl"
    compact.write_text(compact_copy(written.read_text()))
    upper.write_text(re.sub("0x[0-9a-f]{40}", lambda match: "0x" + match[0][2:].upper(),
                            written.read_text()))
    assert upper.read_text() != written.read_text()
    for copy in (compact, upper):
        assert _load_outcome(load_fixture_with_report, copy) == expected[0]
    monkeypatch.setattr(ingest, "_read_events", per_line)
    assert [_load_outcome(load_fixture_with_report, path) for path in canonical] == expected
    for copy in (compact, upper):
        with pytest.raises(AssertionError, match="read line by line"):
            load_fixture_with_report(copy)


def collapse_by_sorting_twice(events):
    """Reference: sort, keep the last event per key, sort the kept ones again."""
    events = sorted(events, key=chain_order)
    kept, duplicates = {}, []
    for event in events:
        key = (event.voter, event.proposal_id)
        if key in kept:
            duplicates.append(key)
        kept[key] = event
    return sorted(kept.values(), key=chain_order), tuple(duplicates)


@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2),
                          st.integers(0, 4), st.integers(0, 2)), max_size=25))
def test_collapse_duplicates_matches_sorting_twice(rows):
    # small ranges make repeated keys, and repeated whole events, common
    events = [VoteEvent(addr(voter), proposal, support, block, index)
              for voter, proposal, support, block, index in rows]
    kept, duplicates = collapse_duplicates(events)
    expected_kept, expected_duplicates = collapse_by_sorting_twice(events)
    assert kept.events() == expected_kept
    assert duplicates == expected_duplicates


def _count_vote_events(monkeypatch):
    """The fields of each ``VoteEvent`` the ingest module builds from now on."""
    built = []

    def counted(*fields):
        built.append(fields)
        return VoteEvent(*fields)

    monkeypatch.setattr(ingest, "VoteEvent", counted)
    return built


def test_canonical_load_builds_no_vote_event(tmp_path, monkeypatch):
    paper = tmp_path / "votes.jsonl"
    write_fixture(planted_two_bloc_events((419, 210), 330, seed=0)[0], paper)
    built = _count_vote_events(monkeypatch)
    for path, rows in ((PLANTED / "votes.jsonl", 1_450), (paper, 165_680)):
        assert len(load_fixture_with_report(path)[0]) == rows
    assert built == []


def test_vote_events_are_built_from_the_first_block_not_canonical(tmp_path, monkeypatch):
    path = tmp_path / "votes.jsonl"
    write_fixture([VoteEvent(addr(i % 50 + 1), i // 50 + 1, i % 3, i // 5, i % 5)
                   for i in range(30_000)], path)
    raw, block = path.read_bytes(), ingest._BLOCK_BYTES
    # the first line that starts in the third block, in another valid layout
    at = raw.index(b"\n", 2 * block) + 1
    end = raw.index(b"\n", at)
    raw = raw[:at] + raw[at:end].replace(b'"support": ', b'"support":  ') + raw[end:]
    path.write_bytes(raw)
    assert len(raw) > 3 * block
    cut = raw.rfind(b"\n", 0, 2 * block) + 1  # where the third block's lines start
    built = _count_vote_events(monkeypatch)
    assert len(load_fixture_with_report(path)[0]) == 30_000
    assert len(built) == raw[cut:].count(b"\n")
    assert built[0] == tuple(json.loads(raw[cut:raw.index(b"\n", cut)]).values())


# more than one bulk block of canonical lines, each (voter, proposal) once
_HEAD = [VoteEvent(addr(i % 97 + 1), i // 97 + 1, i % 3, i // 7, i % 7)
         for i in range(9_000)]


@settings(max_examples=25, deadline=None)
@given(tail=st.lists(_events_with(_FITTING_NUMBERS), max_size=8),
       revote=st.tuples(st.integers(0, 1_000), st.integers(0, 3), st.integers(0, 2_000),
                        st.integers(0, 9)))
def test_canonical_per_line_and_mixed_loads_agree(tmp_path_factory, tail, revote):
    at, support, block, index = revote
    events = [*_HEAD, *tail, VoteEvent(addr(1), 2**80, 1, 5, 0),
              VoteEvent(_HEAD[at].voter, _HEAD[at].proposal_id, support, block, index)]
    base = tmp_path_factory.mktemp("three")
    canonical, per_line, mixed = base / "a.jsonl", base / "b.jsonl", base / "c.jsonl"
    write_fixture(events, canonical)
    lines = canonical.read_text().splitlines(keepends=True)
    per_line.write_text(compact_copy("".join(lines)))
    # the canonical lines of the head, then the rest in another layout
    mixed.write_text("".join(lines[:len(_HEAD)]) + compact_copy("".join(lines[len(_HEAD):])))
    outcomes = []
    for path in (canonical, per_line, mixed):
        table, duplicates = load_fixture_with_report(path)
        matrix = build_voter_matrix(table)
        outcomes.append((table, duplicates,
                         (matrix.addresses, matrix.proposal_ids, matrix.cells.tolist())))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    table, duplicates, matrix = outcomes[0]
    kept, expected_duplicates = collapse_by_sorting_twice(events)
    reference = build_voter_matrix_by_dict(kept)
    assert table.events() == kept and duplicates == expected_duplicates
    assert matrix == (reference.addresses, reference.proposal_ids, reference.cells.tolist())
    assert 2**80 in matrix[1]
    written, expected = base / "d.jsonl", base / "e.jsonl"
    write_fixture(table, written)
    write_fixture_with_json_dumps(kept, expected)
    assert written.read_bytes() == expected.read_bytes()


def test_write_fixture_round_trip(tmp_path):
    events = [VoteEvent(addr(2), 3, 1, 50, 0), VoteEvent(addr(1), 1, 0, 10, 2)]
    path = tmp_path / "votes.jsonl"
    write_fixture(events, path)
    assert load_fixture_with_report(path)[0].events() == sorted(events, key=chain_order)


def test_write_fixture_keeps_the_given_order(tmp_path):
    events = [VoteEvent(addr(2), 3, 1, 50, 0), VoteEvent(addr(1), 2, 1, 10, 2),
              VoteEvent(addr(1), 1, 0, 10, 1)]
    path = tmp_path / "votes.jsonl"
    write_fixture(events, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [VoteEvent(**json.loads(line)) for line in lines] == events


def write_fixture_with_json_dumps(events, path):
    """Reference: one ``json.dumps`` per record, in the order given."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for event in events:
            handle.write(json.dumps({
                "voter": event.voter,
                "proposal_id": event.proposal_id,
                "support": event.support,
                "block_number": event.block_number,
                "log_index": event.log_index,
            }) + "\n")


_big = st.integers(0, 2**70)
_events = st.lists(st.builds(
    VoteEvent,
    st.integers(1, 4).map(lambda i: f"0X{i:040X}" if i % 2 else addr(i)),
    st.one_of(st.integers(1, 3), st.integers(1, 2**70)),
    st.one_of(st.integers(-2, 2), st.integers(-(2**70), 2**70)),
    st.one_of(st.integers(0, 3), _big),
    st.one_of(st.integers(0, 3), _big)), max_size=20)


@given(_events)
def test_write_fixture_matches_json_dumps(tmp_path_factory, events):
    base = tmp_path_factory.mktemp("write")
    written, reference = base / "a.jsonl", base / "b.jsonl"
    write_fixture(events, written)
    write_fixture_with_json_dumps(events, reference)
    assert written.read_bytes() == reference.read_bytes()
    assert load_fixture_with_report(written)[0] == collapse_duplicates(events)[0]


def test_make_planted_fixture_reproduces_bundled_data(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, str(ROOT / "scripts" / "make_planted_fixture.py"),
                    "--out", str(tmp_path)], check=True, env=env, capture_output=True)
    for name in ("votes.jsonl", "forkers.txt"):
        assert (tmp_path / name).read_bytes() == (PLANTED / name).read_bytes(), name


def test_load_ground_truth(tmp_path):
    path = tmp_path / "forkers.txt"
    path.write_text(
        "# fork cohort\n"
        f"{addr(1)}\n"
        f"{addr(1).upper().replace('0X', '0x')}  # same address, mixed case\n"
        "\n"
        f"{addr(2)}\n"
    )
    truth = load_ground_truth(path)
    assert truth.addresses == frozenset({addr(1), addr(2)})


def test_load_ground_truth_fifteen(tmp_path):
    path = tmp_path / "forkers.txt"
    path.write_text("\n".join(addr(i) for i in range(1, 16)) + "\n")
    assert len(load_ground_truth(path).addresses) == 15


def test_load_ground_truth_empty_is_error(tmp_path):
    path = tmp_path / "forkers.txt"
    path.write_text("# nothing here\n")
    with pytest.raises(EmptySet):
        load_ground_truth(path)


def test_load_ground_truth_not_utf8_names_line(tmp_path):
    path = tmp_path / "forkers.txt"
    path.write_bytes(f"# fork cohort\n{addr(1)}\n".encode() + b"# caf\xe9\n"
                     + f"{addr(2)}\n".encode())
    with pytest.raises(ParseError, match="^line 3: not UTF-8: byte 0xe9$"):
        load_ground_truth(path)


def test_load_ground_truth_bad_address_before_bad_byte_is_reported_first(tmp_path):
    path = tmp_path / "forkers.txt"
    path.write_bytes(b"0x12\n\xff\n")
    with pytest.raises(ParseError, match="^line 1: address must encode"):
        load_ground_truth(path)


def addresses_line_by_line(lines):
    addresses = set()
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if text:
            try:
                addresses.add(normalize_address(text))
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from exc
    return addresses


def _ground_truth_outcome(load, path):
    try:
        return "ok", load(path)
    except (ParseError, EmptySet) as exc:
        return type(exc).__name__, str(exc)


def _ground_truth_reference(path):
    addresses = strict_decode_reference(path, addresses_line_by_line)
    if not addresses:
        raise EmptySet(f"{path}: no addresses")
    return ForkGroundTruth(frozenset(addresses))


_address_lines = st.sampled_from(
    ["", " ", "\xa0", "# fork cohort", "# caf\xe9", "0x12", addr(1),
     f"{addr(2)}  # \u2603", addr(3).upper().replace("0X", "0x")])
# bytes that are not UTF-8 in a comment, after an address or on a blank line
_bad_address_lines = st.builds(lambda head, bad: head.encode() + bad,
                               st.sampled_from(["# caf", f"{addr(4)} ", ""]), _bad_bytes)


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(_address_lines, max_size=12),
       bad=st.lists(st.tuples(st.integers(0, 12), _bad_address_lines), max_size=2),
       ending=st.sampled_from([b"\n", b"\r\n", b"\r"]), final=st.booleans())
def test_load_ground_truth_matches_strict_decode_reference(tmp_path_factory, lines, bad,
                                                           ending, final):
    encoded = [line.encode() for line in lines]
    for position, line in bad:
        encoded.insert(position, line)
    path = tmp_path_factory.mktemp("truth") / "forkers.txt"
    path.write_bytes(ending.join(encoded + [b""] * final))
    assert (_ground_truth_outcome(load_ground_truth, path)
            == _ground_truth_outcome(_ground_truth_reference, path))


def _nouns_like_events(count: int) -> list[VoteEvent]:
    """One event per block from 1000, in chain order; (voter, proposal) keys
    repeat every 35 events."""
    return [VoteEvent(addr(i % 5 + 1), i % 7 + 1, i % 2, 1000 + i, i % 4)
            for i in range(count)]


def _nouns_like_logs(count: int) -> list[dict]:
    return [encode_vote_event(event, NOUNS_SIG) for event in _nouns_like_events(count)]


@pytest.mark.parametrize("lo,hi,expected", [
    (None, None, (100, 200)),
    (150, None, (150, 200)),
    (None, 150, (100, 150)),
    (100, 200, (100, 200)),
    (150, 150, (150, 150)),
    (160, 150, "empty block range 160..150"),
    (None, 50, "empty block range 100..50"),
    (99, None, r"range 99..200 outside \[100, 200\]"),
    (None, 201, r"range 100..201 outside \[100, 200\]"),
    (1, 2, r"range 1..2 outside \[100, 200\]"),
])
def test_block_range_defaults_to_and_stays_in_the_entry_bounds(lo, hi, expected):
    entry = _entry(100, 200)
    if isinstance(expected, tuple):
        assert entry.block_range(lo, hi) == expected
    else:
        with pytest.raises(ValueError, match=f"^{expected}$"):
            entry.block_range(lo, hi)


def test_fetch_logs_rejects_degenerate_range():
    with pytest.raises(ValueError):
        fetch_logs("http://unused", _entry(), (10, 5),
                   transport=StaticLogTransport([]))
    with pytest.raises(ValueError, match="^chunk_size must be positive$"):
        fetch_logs("http://unused", _entry(), (5, 10), chunk_size=0,
                   transport=StaticLogTransport([]))


def test_fetch_logs_chunk_independence():
    logs = _nouns_like_logs(40)
    transport = StaticLogTransport(logs)
    results = [
        fetch_logs("http://unused", _entry(), (1000, 1039),
                   chunk_size=size, transport=transport)
        for size in (1, 10, 1000)
    ]
    assert results[0] == results[1] == results[2]
    assert len(results[0]) == 40


def test_fetch_logs_hashes_each_signature_once():
    logs = _nouns_like_logs(40)
    entry = _entry(signatures=(NOUNS_SIG, ARAGON_SIG))
    with mock.patch.object(abi, "keccak256", wraps=abi.keccak256) as keccak:
        events = fetch_logs("http://unused", entry, (1000, 1039), chunk_size=7,
                            transport=StaticLogTransport(logs))
    assert len(events) == 40
    assert keccak.call_count == 2


def test_fetch_logs_uses_the_entry_parsed_signatures():
    entry = _entry(signatures=(NOUNS_SIG, ARAGON_SIG))
    with mock.patch.object(abi, "parse_event_signature",
                           wraps=abi.parse_event_signature) as parse:
        events = fetch_logs("http://unused", entry, (1000, 1039), chunk_size=7,
                            transport=StaticLogTransport(_nouns_like_logs(40)))
    assert len(events) == 40
    assert parse.call_count == 0


def test_every_event_source_builds_vote_events():
    loaded = load_fixture_with_report(PLANTED / "votes.jsonl")[0].events()
    decoded = fetch_logs("http://unused", _entry(), (1000, 1011),
                         transport=StaticLogTransport(_nouns_like_logs(12)))
    planted = planted_two_bloc_events(bloc_sizes=(4, 2), proposals=5)[0]
    for events in (loaded, decoded, planted):
        assert events and all(type(event) is VoteEvent for event in events)


def test_fetch_logs_matches_fixture_export(tmp_path):
    logs = _nouns_like_logs(12)
    events = fetch_logs("http://unused", _entry(), (1000, 1011),
                        transport=StaticLogTransport(logs))
    path = tmp_path / "votes.jsonl"
    write_fixture(events, path)
    exported, _ = load_fixture_with_report(path)
    deduped = {(e.voter, e.proposal_id): e for e in sorted(events, key=chain_order)}
    assert exported.events() == sorted(deduped.values(), key=chain_order)


class ReversedLogTransport(StaticLogTransport):
    """Answers each eth_getLogs request latest log first: out of chain order."""

    def request(self, method, params):
        return super().request(method, params)[::-1]


def test_fetch_logs_keeps_the_provider_order():
    events = _nouns_like_events(40)
    transport = ReversedLogTransport(_nouns_like_logs(40))
    collapsed = []
    for size in (1, 7, 1000):
        fetched = fetch_logs("http://unused", _entry(), (1000, 1039),
                             chunk_size=size, transport=transport)
        # one event per block: each request answers one slice, reversed
        assert fetched == [event for start in range(0, 40, size)
                           for event in reversed(events[start:start + size])]
        collapsed.append(collapse_duplicates(fetched))
    assert collapsed[0] == collapsed[1] == collapsed[2] == collapse_duplicates(events)
    assert len(collapsed[0][1]) == 5


class FlakyTransport(StaticLogTransport):
    """Fails transiently N times before behaving."""

    def __init__(self, logs, failures):
        super().__init__(logs)
        self.failures = failures
        self.calls = 0

    def request(self, method, params):
        self.calls += 1
        if self.failures > 0:
            self.failures -= 1
            raise TransportError("transient")
        return super().request(method, params)


def test_fetch_logs_retries_then_succeeds():
    transport = FlakyTransport(_nouns_like_logs(3), failures=2)
    events = fetch_logs("http://unused", _entry(), (1000, 1002),
                        retries=3, retry_wait=0.0, transport=transport)
    assert len(events) == 3


def test_fetch_logs_gives_up_after_retries():
    transport = FlakyTransport([], failures=10)
    with pytest.raises(TransportError):
        fetch_logs("http://unused", _entry(), (1000, 1002),
                   retries=2, retry_wait=0.0, transport=transport)


class LimitedTransport(StaticLogTransport):
    """Rejects ranges wider than a provider-style limit."""

    def __init__(self, logs, max_span):
        super().__init__(logs)
        self.max_span = max_span

    def request(self, method, params):
        flt = params[0]
        span = int(flt["toBlock"], 16) - int(flt["fromBlock"], 16) + 1
        if span > self.max_span:
            raise RpcError(-32005, "query returned more than 10000 results")
        return super().request(method, params)


def test_fetch_logs_bisects_oversized_ranges():
    logs = _nouns_like_logs(40)
    plain = fetch_logs("http://unused", _entry(), (1000, 1039),
                       transport=StaticLogTransport(logs))
    limited = fetch_logs("http://unused", _entry(), (1000, 1039),
                         transport=LimitedTransport(logs, max_span=7))
    assert limited == plain


def test_fetch_logs_names_a_single_block_the_provider_rejects():
    transport = LimitedTransport(_nouns_like_logs(4), max_span=0)
    with pytest.raises(TransportError, match="single-block range at 1000"):
        fetch_logs("http://unused", _entry(), (1000, 1003), transport=transport)


class OneAnswerTransport:
    """Answers every eth_getLogs request with the same result."""

    def __init__(self, result) -> None:
        self.result = result

    def request(self, method: str, params: list) -> object:
        return self.result


_RPC_ENTRY = _nouns_like_logs(1)[0]  # block 1000


@pytest.mark.parametrize("result", [
    [{key: value for key, value in _RPC_ENTRY.items() if key != "logIndex"}],
    [{**_RPC_ENTRY, "blockNumber": "0xzz"}],
    [{**_RPC_ENTRY, "blockNumber": True}],
    [{**_RPC_ENTRY, "topics": None}],
    [{**_RPC_ENTRY, "topics": [None]}],
    [{**_RPC_ENTRY, "data": None}],
    [{**_RPC_ENTRY, "address": "0x" + "44" * 20}],
    [{**_RPC_ENTRY, "address": None}],
    [None],
    None,
    {"logs": []},
], ids=["no-log-index", "block-not-hex", "block-bool", "topics-null", "topic-null",
        "data-null", "other-contract", "address-null", "entry-null", "result-null",
        "result-object"])
def test_fetch_logs_rejects_malformed_provider_data(result):
    with pytest.raises(MalformedData):
        fetch_logs("http://unused", _entry(), (1000, 1000),
                   transport=OneAnswerTransport(result))


@pytest.mark.parametrize("payload", [["not", "an", "object"], {"error": "boom"}],
                         ids=["list", "error-string"])
def test_http_transport_rejects_a_response_that_is_not_json_rpc(monkeypatch, payload):
    import requests

    from forkcast.ingest import HttpTransport

    class Response:
        def raise_for_status(self) -> None:
            pass

        def json(self) -> object:
            return payload

    monkeypatch.setattr(requests, "post", lambda *args, **kwargs: Response())
    with pytest.raises(MalformedData, match="not a JSON-RPC response"):
        HttpTransport("http://unused").request("eth_getLogs", [])


class _RpcHandler(BaseHTTPRequestHandler):
    """Answers each POST with ``server.answer(request) -> (status, body)``."""

    def do_POST(self) -> None:
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        status, body = self.server.answer(request)
        data = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args) -> None:
        pass


class _RpcServer(ThreadingHTTPServer):
    daemon_threads = False  # server_close joins every request thread


@pytest.fixture
def rpc_server(monkeypatch):
    """A JSON-RPC endpoint at ``server.url`` on localhost; each test sets
    ``server.answer`` before it fetches."""
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    server = _RpcServer(("127.0.0.1", 0), _RpcHandler)
    server.url = f"http://127.0.0.1:{server.server_address[1]}"
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01})
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join()


def _rpc_answer(logs, max_span=None, error=None):
    """eth_getLogs from ``logs``; a span wider than ``max_span`` gets the
    provider's too-many-results error, and every request gets ``error``."""
    replay = StaticLogTransport(logs)

    def answer(request):
        flt = request["params"][0]
        span = int(flt["toBlock"], 16) - int(flt["fromBlock"], 16) + 1
        reply = {"jsonrpc": "2.0", "id": request["id"]}
        if error is not None:
            return 200, {**reply, "error": error}
        if max_span is not None and span > max_span:
            return 200, {**reply, "error": {
                "code": -32005, "message": "query returned more than 10000 results"}}
        return 200, {**reply, "result": replay.request(request["method"], request["params"])}

    return answer


@pytest.mark.parametrize("max_span", [None, 7], ids=["plain", "span-capped"])
def test_http_fetch_equals_the_replay_transport(rpc_server, max_span):
    logs = _nouns_like_logs(40)
    rpc_server.answer = _rpc_answer(logs, max_span)
    fetched = fetch_logs(rpc_server.url, _entry(), (1000, 1039), chunk_size=10)
    assert fetched == fetch_logs("http://unused", _entry(), (1000, 1039),
                                 chunk_size=10, transport=StaticLogTransport(logs))
    assert len(fetched) == 40


def test_http_fetch_fails_on_a_json_rpc_error_that_is_not_about_range(rpc_server):
    rpc_server.answer = _rpc_answer([], error={"code": -32602, "message": "invalid params"})
    with pytest.raises(TransportError, match="^rpc error -32602: invalid params$"):
        fetch_logs(rpc_server.url, _entry(), (1000, 1002))


@pytest.mark.parametrize("outages", [2, None], ids=["twice", "always"])
def test_http_fetch_retries_a_service_unavailable_provider(rpc_server, outages):
    logs = _nouns_like_logs(3)
    replay = _rpc_answer(logs)
    statuses = []

    def answer(request):
        if outages is None or len(statuses) < outages:
            statuses.append(503)
            return 503, {"error": "unavailable"}
        statuses.append(200)
        return replay(request)

    rpc_server.answer = answer
    if outages is None:
        with pytest.raises(TransportError, match="503"):
            fetch_logs(rpc_server.url, _entry(), (1000, 1002), retry_wait=0.0)
        assert statuses == [503] * 4  # the first try and three retries
    else:
        events = fetch_logs(rpc_server.url, _entry(), (1000, 1002), retry_wait=0.0)
        assert events == fetch_logs("http://unused", _entry(), (1000, 1002),
                                    transport=StaticLogTransport(logs))
        assert statuses == [503, 503, 200]
