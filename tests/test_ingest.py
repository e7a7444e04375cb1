"""Event decoding, fixtures, ground truth, and RPC fetch behavior."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from forkcast import abi, planted_two_bloc_events
from forkcast.abi import (
    _DYNAMIC_TYPES,
    EventAbi,
    _is_integerish,
    _strip_0x,
    keccak256,
    parse_event_signature,
)
from forkcast.errors import (
    EmptySet,
    MalformedData,
    ParseError,
    SignatureMismatch,
    TransportError,
)
from forkcast.ingest import (
    DaoRegistryEntry,
    ForkGroundTruth,
    RawLog,
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
from forkcast.registry import bundled_registry

from conftest import addr

ROOT = Path(__file__).resolve().parent.parent
PLANTED = ROOT / "data" / "planted"

NOUNS_SIG = "VoteCast(address,uint256,uint8,uint256,string)"
NOUNS_ABI = parse_event_signature(NOUNS_SIG)
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


def encode_vote_data(abi: EventAbi, voter: str, proposal_id: int,
                     support: int) -> tuple[tuple[str, ...], str]:
    """Build (topics, data) for a synthetic log of this event.

    Integer parameters beyond proposal/support encode as zero; dynamic
    parameters as empty. Inverse of decode for the fields a VoteEvent keeps.
    """
    integer_slots = [i for i, p in enumerate(abi.params)
                     if i != abi.voter_index and _is_integerish(p.type)]
    assigned = {integer_slots[0]: proposal_id, integer_slots[1]: support}
    topics = [abi.topic0]
    head: list[bytes] = []
    tail: list[bytes] = []
    data_params = [p for p in abi.params if not p.indexed]
    tail_offset = 32 * len(data_params)
    for i, param in enumerate(abi.params):
        if param.type == "address":
            word = bytes(12) + bytes.fromhex(_strip_0x(voter))
        elif param.type in _DYNAMIC_TYPES:
            word = tail_offset.to_bytes(32, "big")
            tail.append((0).to_bytes(32, "big"))  # zero-length payload
            tail_offset += 32
        else:
            word = assigned.get(i, 0).to_bytes(32, "big")
        if param.indexed:
            topics.append("0x" + word.hex())
        else:
            head.append(word)
    return tuple(topics), "0x" + b"".join(head + tail).hex()


def encode_vote_event(event: VoteEvent, signature: str,
                      contract: str = "0x" + "00" * 20) -> RawLog:
    """Synthesize a log that decodes back to ``event`` (round-trip inverse)."""
    event_abi = parse_event_signature(signature)
    topics, data = encode_vote_data(
        event_abi, event.voter, event.proposal_id, event.support)
    return RawLog(contract, topics, data, event.block_number, event.log_index)


def to_rpc(log: RawLog) -> dict:
    """The eth_getLogs entry that ``RawLog.from_rpc`` reads back as ``log``."""
    return {
        "address": log.address,
        "topics": list(log.topics),
        "data": log.data,
        "blockNumber": hex(log.block_number),
        "logIndex": hex(log.log_index),
    }


class StaticLogTransport:
    """Replay transport answering eth_getLogs from a fixed log list; filtering
    mirrors provider semantics (address, inclusive block range, topic0 OR-list).
    """

    def __init__(self, logs) -> None:
        self._logs = sorted(logs, key=lambda l: (l.block_number, l.log_index))

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
            if not lo <= log.block_number <= hi:
                continue
            if address and log.address.lower() != address:
                continue
            if accepted is not None and (not log.topics or log.topics[0].lower() not in accepted):
                continue
            out.append(to_rpc(log))
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
    assert (_outcome(normalize_address, value)
            == _outcome(normalize_address_by_characters, value))


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
                                  "log_index", "order_key"])
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
    log = RawLog(
        address="0x6f3e6272a167e8accb32072d08e0957f9c79223d",
        topics=(NOUNS_TOPIC0, "0x" + "00" * 12 + "aa" * 20),
        data="0x" + _word(7) + _word(1) + _word(0) + _word(0x80) + _word(0),
        block_number=12985453,
        log_index=3,
    )
    event = decode_vote_event(log, NOUNS_ABI)
    assert event == VoteEvent(voter, 7, 1, 12985453, 3)


def test_decode_signature_mismatch():
    log = RawLog("0x" + "11" * 20, ("0x" + "ff" * 32, "0x" + "00" * 32),
                 "0x" + _word(1) * 5, 5, 9)
    with pytest.raises(SignatureMismatch, match="block 5 log 9"):
        decode_vote_event(log, NOUNS_ABI)


def test_decode_short_data_is_malformed():
    log = RawLog("0x" + "11" * 20,
                 (NOUNS_TOPIC0, "0x" + "00" * 12 + "aa" * 20),
                 "0x" + _word(7), 5, 9)
    with pytest.raises(MalformedData, match="block 5 log 9"):
        decode_vote_event(log, NOUNS_ABI)


def test_decode_aragon_style_indexed_layout():
    event_abi = parse_event_signature(ARAGON_SIG)
    log = RawLog(
        address="0x" + "22" * 20,
        topics=(event_abi.topic0, "0x" + _word(41), "0x" + "00" * 12 + "bb" * 20),
        data="0x" + _word(1) + _word(999),
        block_number=100,
        log_index=0,
    )
    event = decode_vote_event(log, event_abi)
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


@given(st.integers(1, 10**6), st.integers(0, 2), st.integers(0, 10**8),
       st.integers(0, 500), st.integers(1, 2**160 - 1))
def test_decode_encode_round_trip(proposal, support, block, index, voter_int):
    event = VoteEvent(f"0x{voter_int:040x}", proposal, support, block, index)
    assert decode_vote_event(encode_vote_event(event, NOUNS_SIG), NOUNS_ABI) == event


def test_round_trip_all_bundled_signatures():
    event = VoteEvent(addr(9), 12, 1, 777, 2)
    for entry in bundled_registry().values():
        for signature in entry.event_signatures:
            log = encode_vote_event(event, signature)
            assert decode_vote_event(log, parse_event_signature(signature)) == event


def test_load_fixture_empty(tmp_path):
    path = tmp_path / "votes.jsonl"
    path.write_text("")
    assert load_fixture_with_report(path)[0] == []


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
    events, duplicates = load_fixture_with_report(path)
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


def test_load_fixture_interns_each_voter():
    events = load_fixture_with_report(PLANTED / "votes.jsonl")[0]
    assert len({id(e.voter) for e in events}) == len({e.voter for e in events})


def test_load_fixture_normalizes_mixed_case_addresses(tmp_path):
    path = tmp_path / "votes.jsonl"
    record = {"voter": "0xAB" + "Cd" * 19, "proposal_id": 1, "support": 1,
              "block_number": 0, "log_index": 0}
    path.write_text(json.dumps(record) + "\n")
    [event] = load_fixture_with_report(path)[0]
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
        events, duplicates = load(path)
    except ParseError as exc:
        return "error", exc.line, str(exc)
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


def collapse_by_sorting_twice(events):
    """Reference: sort, keep the last event per key, sort the kept ones again."""
    events = sorted(events, key=lambda e: e.order_key)
    kept, duplicates = {}, []
    for event in events:
        key = (event.voter, event.proposal_id)
        if key in kept:
            duplicates.append(key)
        kept[key] = event
    return sorted(kept.values(), key=lambda e: e.order_key), tuple(duplicates)


@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2),
                          st.integers(0, 4), st.integers(0, 2)), max_size=25))
def test_collapse_duplicates_matches_sorting_twice(rows):
    # small ranges make repeated keys, and repeated whole events, common
    events = [VoteEvent(addr(voter), proposal, support, block, index)
              for voter, proposal, support, block, index in rows]
    kept, duplicates = collapse_duplicates(events)
    expected_kept, expected_duplicates = collapse_by_sorting_twice(events)
    assert kept == expected_kept
    assert duplicates == expected_duplicates


def test_write_fixture_round_trip(tmp_path):
    events = [VoteEvent(addr(2), 3, 1, 50, 0), VoteEvent(addr(1), 1, 0, 10, 2)]
    path = tmp_path / "votes.jsonl"
    write_fixture(events, path)
    assert load_fixture_with_report(path)[0] == sorted(events, key=lambda e: e.order_key)


def write_fixture_with_json_dumps(events, path):
    """Reference: the writer as it was, one ``json.dumps`` per record."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for event in sorted(events, key=lambda e: e.order_key):
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


@given(_events)
def test_chain_order_key_equals_order_key(events):
    """Every chain-order sort takes the key ``order_key`` reads at C level; it
    must be the chain order: block, log index, then voter, proposal, support."""
    def chain_order(e):
        return (e.block_number, e.log_index, e.voter, e.proposal_id, e.support)

    for event in events:
        assert event.order_key == chain_order(event)
    assert sorted(events, key=lambda e: e.order_key) == sorted(events, key=chain_order)


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


def _nouns_like_logs(count: int) -> list[RawLog]:
    logs = []
    for i in range(count):
        event = VoteEvent(addr(i % 5 + 1), i % 7 + 1, i % 2, 1000 + i, i % 4)
        logs.append(encode_vote_event(event, NOUNS_SIG,
                                      contract="0x" + "33" * 20))
    return logs


def _entry(lo=0, hi=10**9, signatures=(NOUNS_SIG,)):
    return DaoRegistryEntry("test", "ethereum", "0x" + "33" * 20, lo, hi, signatures)


def test_fetch_logs_rejects_degenerate_range():
    with pytest.raises(ValueError):
        fetch_logs("http://unused", _entry(), (10, 5),
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


def test_every_event_source_builds_vote_events():
    loaded = load_fixture_with_report(PLANTED / "votes.jsonl")[0]
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
    deduped = {(e.voter, e.proposal_id): e
               for e in sorted(events, key=lambda e: e.order_key)}
    assert exported == sorted(deduped.values(), key=lambda e: e.order_key)


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


_RPC_ENTRY = to_rpc(_nouns_like_logs(1)[0])  # block 1000


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
