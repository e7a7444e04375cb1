"""Event decoding, fixtures, ground truth, and RPC fetch behavior."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from forkcast.abi import keccak256, parse_event_signature
from forkcast.errors import (
    EmptySet,
    MalformedData,
    ParseError,
    SignatureMismatch,
    TransportError,
)
from forkcast.ingest import (
    RawLog,
    RpcError,
    StaticLogTransport,
    VoteEvent,
    collapse_duplicates,
    decode_vote_event,
    encode_vote_event,
    fetch_logs,
    load_fixture,
    load_fixture_with_report,
    load_ground_truth,
    normalize_address,
    write_fixture,
)
from forkcast.registry import bundled_registry

from conftest import addr

NOUNS_SIG = "VoteCast(address,uint256,uint8,uint256,string)"

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


def test_vote_event_invariants():
    with pytest.raises(ValueError):
        VoteEvent(addr(1), 0, 1, 0, 0)  # proposal ids start at 1
    with pytest.raises(ValueError):
        VoteEvent(addr(1), 1, 1, -1, 0)


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
    event = decode_vote_event(log, NOUNS_SIG)
    assert event == VoteEvent(voter, 7, 1, 12985453, 3)


def test_decode_signature_mismatch():
    log = RawLog("0x" + "11" * 20, ("0x" + "ff" * 32, "0x" + "00" * 32),
                 "0x" + _word(1) * 5, 5, 9)
    with pytest.raises(SignatureMismatch, match="block 5 log 9"):
        decode_vote_event(log, NOUNS_SIG)


def test_decode_short_data_is_malformed():
    log = RawLog("0x" + "11" * 20,
                 (NOUNS_TOPIC0, "0x" + "00" * 12 + "aa" * 20),
                 "0x" + _word(7), 5, 9)
    with pytest.raises(MalformedData, match="block 5 log 9"):
        decode_vote_event(log, NOUNS_SIG)


def test_decode_aragon_style_indexed_layout():
    sig = "CastVote(uint256 indexed voteId,address indexed voter,bool supports,uint256 stake)"
    abi = parse_event_signature(sig)
    log = RawLog(
        address="0x" + "22" * 20,
        topics=(abi.topic0, "0x" + _word(41), "0x" + "00" * 12 + "bb" * 20),
        data="0x" + _word(1) + _word(999),
        block_number=100,
        log_index=0,
    )
    event = decode_vote_event(log, sig)
    assert event.voter == "0x" + "bb" * 20
    assert event.proposal_id == 41
    assert event.support == 1


def test_parse_rejects_unusable_signatures():
    with pytest.raises(ValueError):
        parse_event_signature("Transfer(address,address)")  # no support field
    with pytest.raises(ValueError):
        parse_event_signature("Voted(uint256,uint8)")  # no voter


@given(st.integers(1, 10**6), st.integers(0, 2), st.integers(0, 10**8),
       st.integers(0, 500), st.integers(1, 2**160 - 1))
def test_decode_encode_round_trip(proposal, support, block, index, voter_int):
    event = VoteEvent(f"0x{voter_int:040x}", proposal, support, block, index)
    assert decode_vote_event(encode_vote_event(event, NOUNS_SIG), NOUNS_SIG) == event


def test_round_trip_all_bundled_signatures():
    event = VoteEvent(addr(9), 12, 1, 777, 2)
    for entry in bundled_registry().values():
        for signature in entry.event_signatures:
            log = encode_vote_event(event, signature)
            assert decode_vote_event(log, signature) == event


def test_load_fixture_empty(tmp_path):
    path = tmp_path / "votes.jsonl"
    path.write_text("")
    assert load_fixture(path) == []


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
    with pytest.warns(UserWarning, match="duplicate"):
        events = load_fixture(path)
    assert len(events) == 2
    assert events[-1].support == 1 and events[-1].block_number == 12


def test_load_fixture_report_counts(tmp_path):
    path = tmp_path / "votes.jsonl"
    record = {"voter": addr(1), "proposal_id": 2, "support": 1,
              "block_number": 5, "log_index": 1, "extra_key": "ignored"}
    path.write_text(json.dumps(record) + "\n\n")
    events, report = load_fixture_with_report(path)
    assert len(events) == 1
    assert report.lines == 1 and report.duplicates == ()


def test_load_fixture_parse_error_carries_line(tmp_path):
    path = tmp_path / "votes.jsonl"
    path.write_text('{"voter": "0x1", "proposal_id": 1}\n')
    with pytest.raises(ParseError, match="line 1"):
        load_fixture(path)


def test_load_fixture_normalizes_mixed_case_addresses(tmp_path):
    path = tmp_path / "votes.jsonl"
    record = {"voter": "0xAB" + "Cd" * 19, "proposal_id": 1, "support": 1,
              "block_number": 0, "log_index": 0}
    path.write_text(json.dumps(record) + "\n")
    [event] = load_fixture(path)
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
    assert load_fixture(path) == sorted(events, key=lambda e: e.order_key)


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


def _nouns_like_logs(count: int) -> list[RawLog]:
    logs = []
    for i in range(count):
        event = VoteEvent(addr(i % 5 + 1), i % 7 + 1, i % 2, 1000 + i, i % 4)
        logs.append(encode_vote_event(event, NOUNS_SIG,
                                      contract="0x" + "33" * 20))
    return logs


def _entry(lo=0, hi=10**9):
    from forkcast.ingest import DaoRegistryEntry

    return DaoRegistryEntry("test", "ethereum", "0x" + "33" * 20, lo, hi,
                            (NOUNS_SIG,))


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
