"""Pipeline chaining, the planted generator, and registry loading."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forkcast import (
    AnalysisSpec,
    MdsConfig,
    WindowSpec,
    analyze_matrix,
    build_voter_matrix,
    planted_two_bloc_events,
    stress,
)
from forkcast.config import bundled_registry, parse_registry
from forkcast.dissim import active_set, dissimilarity_matrix, distinct_patterns
from forkcast.errors import ConfigError

from conftest import addr, make_matrix


def test_pipeline_covers_all_but_first(planted_matrix):
    result = analyze_matrix(planted_matrix, AnalysisSpec(root_seed=0))
    assert len(result.analyses) + len(result.skipped) == planted_matrix.m - 1
    ids = [a.proposal_id for a in result.analyses]
    assert ids == sorted(ids)
    assert planted_matrix.proposal_ids[0] not in ids


def test_pipeline_records_unanalyzable_proposals():
    # only one address ever passes a 1.0 threshold -> every j skipped
    rows = [[1, 1, 1], [0, -1, -1], [1, -1, -1]]
    matrix = make_matrix(rows)
    seen = []
    result = analyze_matrix(matrix, AnalysisSpec(WindowSpec(10, 1.0), root_seed=0),
                            on_frame=lambda *frame: seen.append(frame))
    assert result.analyses == ()
    assert [pid for pid, _ in result.skipped] == [2, 3]
    assert seen == []


def test_bug_inside_a_frame_crashes_instead_of_being_skipped(planted_matrix,
                                                             monkeypatch):
    """A k-means call with more clusters than points is a broken invariant,
    not a skipped frame: it propagates out of analyze_matrix."""
    import forkcast.cluster as cluster_module

    monkeypatch.setattr(cluster_module, "k_range",
                        lambda n, k_min, k_max: range(n + 1, n + 2))
    with pytest.raises(ValueError, match=r"^k=\d+ exceeds \d+ points$"):
        analyze_matrix(planted_matrix, AnalysisSpec(root_seed=0))


# the reasons a frame can be skipped for: too few active voters, nothing to
# embed, too few voters for k_min
SKIP_REASONS = re.compile(r"proposal \d+: [01] active addresses"
                          r"|all dissimilarities are zero"
                          r"|k_min=\d+ exceeds usable maximum \d+")


@st.composite
def tiny_matrices(draw):
    """n <= 6 voters over m <= 6 proposals, drawn from a few distinct rows,
    so identical voters are common."""
    m = draw(st.integers(1, 6))
    distinct = draw(st.lists(st.lists(st.sampled_from([1, 0, -1]), min_size=m, max_size=m),
                             min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=6))
    return make_matrix([distinct[i] for i in picks])


@given(tiny_matrices(), st.integers(2, 5), st.sampled_from([0.0, 0.4, 1.0]),
       st.integers(1, 10), st.sampled_from([1, 2]))
@settings(max_examples=200, deadline=None)
def test_degenerate_frames_are_analyzed_or_skipped(matrix, k_min, threshold, w,
                                                   iterations):
    spec = AnalysisSpec(WindowSpec(w, threshold), MdsConfig(max_iterations=iterations),
                        k_min=k_min, root_seed=0)
    result = analyze_matrix(matrix, spec)
    frames = sorted([a.proposal_id for a in result.analyses]
                    + [pid for pid, _ in result.skipped])
    assert frames == list(matrix.proposal_ids[1:])
    for _, reason in result.skipped:
        assert SKIP_REASONS.fullmatch(reason), reason
    for analysis in result.analyses:
        n = len(analysis.embedding.addresses)
        assert k_min <= analysis.clustering.k_star <= min(spec.k_max, n)
        assert len(analysis.clustering.assignments) == n


def test_pipeline_hands_each_frame_to_on_frame(planted_matrix):
    """The sink sees every analyzed frame once, in proposal order, with its
    pattern matrix and one pattern row per frame address."""
    seen = []
    result = analyze_matrix(planted_matrix, AnalysisSpec(root_seed=0),
                            on_frame=lambda *frame: seen.append(frame))
    assert len(seen) == len(result.analyses)
    assert all(frame[0] is analysis for frame, analysis in zip(seen, result.analyses))
    for analysis, d, voters in seen:
        assert d.proposal_id == analysis.proposal_id
        assert len(voters) == len(analysis.embedding.addresses)
        assert sorted(set(voters.tolist())) == list(range(len(d.addresses)))


def test_exported_dissimilarity_is_over_every_active_address(planted_matrix):
    """Each frame embeds its distinct window rows; its pattern matrix,
    expanded by each voter's pattern row, is the matrix over all active
    voters bit for bit as computed voter by voter, and the weighted stress
    is the stress of every voter's point against it."""
    seen = []
    result = analyze_matrix(planted_matrix, AnalysisSpec(root_seed=0),
                            on_frame=lambda *frame: seen.append(frame))
    position = {pid: j for j, pid in enumerate(planted_matrix.proposal_ids, start=1)}
    grouped = 0
    assert len(seen) == len(result.analyses)
    for analysis, d, voters in seen:
        active = active_set(planted_matrix, position[d.proposal_id], WindowSpec())
        full = dissimilarity_matrix(planted_matrix, active)
        assert analysis.embedding.addresses == full.addresses
        assert np.array_equal(d.cells[np.ix_(voters, voters)], full.cells)
        assert analysis.embedding.stress == pytest.approx(
            stress(full, analysis.embedding.coords), rel=0.0, abs=1e-12)
        grouped += len(distinct_patterns(planted_matrix, active)[2]) < len(active.rows)
    assert grouped > 0


def test_voters_with_one_pattern_share_coordinates(planted_matrix):
    result = analyze_matrix(planted_matrix, AnalysisSpec(root_seed=0))
    position = {pid: j for j, pid in enumerate(planted_matrix.proposal_ids, start=1)}
    for analysis in result.analyses:
        active = active_set(planted_matrix, position[analysis.proposal_id], WindowSpec())
        _, voters, _ = distinct_patterns(planted_matrix, active)
        coords = analysis.embedding.coords
        for pattern in np.unique(voters):
            assert (coords[voters == pattern] == coords[voters == pattern][0]).all()


def test_voters_without_a_valid_vote_in_the_window_stay_apart():
    """At threshold 0 two voters with no vote in the window share no vote:
    they are 1 apart, so they are never merged into one pattern."""
    rows = [[1, 0, -1, -1, -1], [0, 1, -1, -1, -1],
            [1, 1, 1, 0, 1], [0, 0, 0, 1, 0], [1, 0, 1, 1, 1]]
    matrix = make_matrix(rows)
    active = active_set(matrix, 5, WindowSpec(2, 0.0))
    patterns, voters, counts = distinct_patterns(matrix, active)
    assert patterns == active and voters.tolist() == [0, 1, 2, 3, 4]
    assert counts.tolist() == [1] * 5
    seen = []
    result = analyze_matrix(matrix, AnalysisSpec(WindowSpec(2, 0.0), root_seed=0),
                            on_frame=lambda analysis, d, voters: seen.append((d, voters)))
    last = result.analyses[-1].embedding
    d, voters = seen[-1]
    assert d.cells[voters[0], voters[1]] == 1.0
    assert not np.array_equal(last.coords[0], last.coords[1])


def test_frame_with_one_voting_pattern_is_skipped():
    matrix = make_matrix([[1, 0, 1, 1]] * 3 + [[-1, -1, -1, 0]])
    result = analyze_matrix(matrix, AnalysisSpec(WindowSpec(3, 0.4), root_seed=0))
    assert result.analyses == ()
    assert result.skipped == tuple((pid, "all dissimilarities are zero")
                                   for pid in (2, 3, 4))


# 12 voters in 3 copies of 4 rows: 2 patterns in the first frame's window,
# 4 in each later one
FOUR_PATTERNS = [[1, 1, 0, 1], [1, 1, 1, 0], [1, 0, 0, 0], [1, 0, 1, 1]] * 3


def test_frame_with_fewer_patterns_than_k_max_sweeps_up_to_its_patterns():
    """12 voters on 2 or 4 patterns: k runs over 2..u, and coincident voters
    are never split across clusters."""
    matrix = make_matrix(FOUR_PATTERNS)
    spec = AnalysisSpec(WindowSpec(3, 0.4), root_seed=0)
    result = analyze_matrix(matrix, spec)
    assert [a.proposal_id for a in result.analyses] == [2, 3, 4] and result.skipped == ()
    sweeps = []
    for j, analysis in enumerate(result.analyses, start=2):
        _, voters, counts = distinct_patterns(matrix, active_set(matrix, j, spec.window))
        assert len(analysis.embedding.addresses) == 12
        sweeps.append(list(analysis.clustering.silhouette_by_k))
        labels = analysis.clustering.assignments
        assert all(len(set(labels[voters == p].tolist())) == 1 for p in range(len(counts)))
    assert sweeps == [[2], [2, 3, 4], [2, 3, 4]]


def test_frame_with_fewer_patterns_than_k_min_is_skipped_before_embedding(monkeypatch):
    """The first frame has 12 active voters but 2 patterns: k_min = 3 skips
    it before it is embedded, and the later frames are analyzed."""
    import forkcast.pipeline as pipeline_module

    embedded = []
    original = pipeline_module.mds_embed

    def recorded(d, *args):
        embedded.append(d.proposal_id)
        return original(d, *args)

    monkeypatch.setattr(pipeline_module, "mds_embed", recorded)
    matrix = make_matrix(FOUR_PATTERNS)
    result = analyze_matrix(matrix, AnalysisSpec(WindowSpec(3, 0.4), k_min=3))
    assert result.skipped == ((2, "k_min=3 exceeds usable maximum 2"),)
    assert [a.proposal_id for a in result.analyses] == embedded == [3, 4]


def test_pipeline_warm_start_keeps_orientation(planted_matrix):
    """Consecutive frames move each persisting voter only slightly, so the
    chain never flips or re-randomizes the map between proposals."""
    result = analyze_matrix(planted_matrix, AnalysisSpec(root_seed=0))
    drifts = []
    for previous, current in zip(result.analyses, result.analyses[1:]):
        shared = set(previous.embedding.addresses) & set(current.embedding.addresses)
        if len(shared) < 3:
            continue
        prev_idx = {a: i for i, a in enumerate(previous.embedding.addresses)}
        cur_idx = {a: i for i, a in enumerate(current.embedding.addresses)}
        moves = [float(np.linalg.norm(previous.embedding.coords[prev_idx[a]]
                                      - current.embedding.coords[cur_idx[a]]))
                 for a in shared]
        drifts.append(np.mean(moves))
    spread = max(float(np.ptp(a.embedding.coords)) for a in result.analyses)
    assert np.mean(drifts) < 0.5 * spread


def test_pipeline_namespace_changes_seeds(planted_matrix):
    base = analyze_matrix(planted_matrix, AnalysisSpec(root_seed=0))
    other = analyze_matrix(planted_matrix, AnalysisSpec(root_seed=0),
                           namespace=("shuffle", 1))
    assert not np.array_equal(base.analyses[0].embedding.coords,
                              other.analyses[0].embedding.coords)


def test_pipeline_deterministic(planted_matrix):
    first = analyze_matrix(planted_matrix, AnalysisSpec(root_seed=3))
    second = analyze_matrix(planted_matrix, AnalysisSpec(root_seed=3))
    for one, two in zip(first.analyses, second.analyses):
        assert np.array_equal(one.embedding.coords, two.embedding.coords)
        assert one.clustering.k_star == two.clustering.k_star


def test_planted_generator_shape_and_determinism():
    events, truth = planted_two_bloc_events(seed=0)
    again, _ = planted_two_bloc_events(seed=0)
    assert events == again
    assert len(truth.addresses) == 10
    matrix = build_voter_matrix(events)
    assert matrix.n == 30 and matrix.m == 60
    # minority bloc is the fork cohort and sorts after the majority
    assert all(a in truth.addresses for a in matrix.addresses[20:])


def test_planted_agreement_rates_near_calibration():
    events, truth = planted_two_bloc_events(proposals=400, seed=1)
    matrix = build_voter_matrix(events)
    cells = np.asarray(matrix.cells)
    fork_rows = np.array([a in truth.addresses for a in matrix.addresses])

    def mean_pair_agreement(rows_a, rows_b, same_group):
        agreements = []
        for i in np.flatnonzero(rows_a):
            for k in np.flatnonzero(rows_b):
                if same_group and k <= i:
                    continue
                both = (cells[i] >= 0) & (cells[k] >= 0)
                if both.sum() == 0:
                    continue
                agreements.append((cells[i][both] == cells[k][both]).mean())
        return float(np.mean(agreements))

    within = mean_pair_agreement(~fork_rows, ~fork_rows, True)
    across = mean_pair_agreement(~fork_rows, fork_rows, False)
    assert within == pytest.approx(0.9, abs=0.03)
    assert across == pytest.approx(0.2, abs=0.04)


def test_bundled_registry_entries():
    registry = bundled_registry()
    assert set(registry) == {"nouns", "compound", "uniswap", "lido",
                             "tornado-cash", "arbitrum"}
    nouns = registry["nouns"]
    assert nouns.governance_contract == "0x6f3e6272a167e8accb32072d08e0957f9c79223d"
    assert nouns.deploy_block == 12985453
    assert nouns.end_block == 18144239
    for entry in registry.values():
        assert entry.deploy_block <= entry.end_block
        assert entry.event_signatures


def test_parse_registry_rejects_bad_entries():
    with pytest.raises(ConfigError):
        parse_registry({"daos": [{"name": "x", "chain": "ethereum",
                                  "governance_contract": addr(1),
                                  "deploy_block": 10, "end_block": 5,
                                  "event_signatures": ["VoteCast(address,uint256,uint8)"]}]})


@pytest.mark.parametrize("fields,message", [
    ({"name": None}, "dao must be one directory name, got None"),
    ({"name": 5}, "dao must be one directory name, got 5"),
    ({"name": ""}, "dao must be one directory name, got ''"),
    ({"name": ".."}, "dao must be one directory name, got '..'"),
    ({"name": "a/b"}, "dao must be one directory name, got 'a/b'"),
    ({"analysis_defaults": [["window_size", 3]]},
     "analysis_defaults must be a JSON object, got [['window_size', 3]]"),
    ({"analysis_defaults": "ab"}, "analysis_defaults must be a JSON object, got 'ab'"),
], ids=["name-null", "name-int", "name-empty", "name-dotdot", "name-slash",
        "defaults-pairs", "defaults-string"])
def test_parse_registry_names_the_bad_entry(fields, message):
    """An entry's name is a dao name, and its defaults are one JSON object."""
    raw = {"name": "x", "governance_contract": addr(1), "deploy_block": 0,
           "end_block": 5, "event_signatures": ["VoteCast(address,uint256,uint8)"],
           **fields}
    expected = f"bad registry entry {raw['name']!r}: {message}"
    with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
        parse_registry({"daos": [raw]})
