"""Shuffle baseline preservation and fork-alignment summaries."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from forkcast import (
    ForkGroundTruth,
    analyze_matrix,
    fork_cluster_share,
    participation_stats,
    run_validation,
    shuffle_votes,
    static_disagreement,
    summarize_range,
)
from forkcast.cluster import ClusteringResult
from forkcast.errors import EmptyRange, UnknownProposal

from conftest import addr, make_matrix


def test_unanimous_column_unchanged():
    matrix = make_matrix([[1], [1], [1]], proposal_ids=[4])
    for seed in range(10):
        assert np.array_equal(shuffle_votes(matrix, seed).cells, matrix.cells)


def test_small_column_both_permutations_and_fixed_holes():
    matrix = make_matrix([[1], [0], [-1]])
    seen = set()
    for seed in range(30):
        shuffled = shuffle_votes(matrix, seed)
        column = tuple(int(v) for v in shuffled.cells[:, 0])
        assert column in ((1, 0, -1), (0, 1, -1))
        seen.add(column)
    assert seen == {(1, 0, -1), (0, 1, -1)}


@given(arrays(np.int8, (6, 5), elements=st.sampled_from([1, 0, -1])),
       st.integers(0, 50))
@settings(max_examples=60)
def test_shuffle_preserves_counts_and_voters(cells, seed):
    matrix = make_matrix(cells.tolist())
    shuffled = shuffle_votes(matrix, seed)
    assert np.array_equal(shuffled.cells >= 0, matrix.cells >= 0)
    for j in range(matrix.m):
        for value in (0, 1):
            assert (np.count_nonzero(shuffled.cells[:, j] == value)
                    == np.count_nonzero(matrix.cells[:, j] == value))


def test_shuffle_deterministic_given_seed():
    rng = np.random.default_rng(0)
    cells = rng.choice([1, 0, -1], (10, 8)).astype(np.int8)
    matrix = make_matrix(cells.tolist())
    assert np.array_equal(shuffle_votes(matrix, 7).cells,
                          shuffle_votes(matrix, 7).cells)


def test_disagreement_preserved_under_shuffle(planted_matrix):
    shuffled = shuffle_votes(planted_matrix, 3)
    for pid in planted_matrix.proposal_ids:
        assert (static_disagreement(shuffled, pid)
                == static_disagreement(planted_matrix, pid))


def clustering(assignments, names, k_star=None) -> ClusteringResult:
    assignments = np.asarray(assignments)
    k = k_star or len(set(int(a) for a in assignments))
    return ClusteringResult(
        proposal_id=1, assignments=assignments, k_star=k,
        silhouette_by_k={k: 0.5}, centroids=np.zeros((k, 2)), seed=0,
        addresses=tuple(names))


def test_fork_share_perfect_cohesion():
    names = [addr(i) for i in range(1, 7)]
    fork = ForkGroundTruth("f", frozenset(names[:3]))
    result = clustering([0, 0, 0, 1, 1, 1], names)
    assert fork_cluster_share(result, fork) == 1.0


def test_fork_share_even_split():
    names = [addr(i) for i in range(1, 5)]
    fork = ForkGroundTruth("f", frozenset(names))
    result = clustering([0, 0, 1, 1], names)
    assert fork_cluster_share(result, fork) == 0.5


def test_fork_share_fourteen_of_fifteen():
    names = [addr(i) for i in range(1, 21)]
    fork = ForkGroundTruth("f", frozenset(names[:15]))
    labels = [0] * 14 + [1] + [1] * 5  # one fork address misclassified
    result = clustering(labels, names)
    assert fork_cluster_share(result, fork) == pytest.approx(14 / 15)


def test_fork_share_absent_below_minimum():
    names = [addr(i) for i in range(1, 5)]
    fork = ForkGroundTruth("f", frozenset({addr(99)}))
    result = clustering([0, 0, 1, 1], names)
    assert fork_cluster_share(result, fork, min_fork_present=1) is None
    fork_one = ForkGroundTruth("f", frozenset({addr(1)}))
    assert fork_cluster_share(result, fork_one, min_fork_present=2) is None
    assert fork_cluster_share(result, fork_one, min_fork_present=1) == 1.0


@given(st.integers(2, 5), st.lists(st.integers(0, 4), min_size=1, max_size=12))
def test_fork_share_bounds(k, labels):
    labels = [label % k for label in labels]
    # force every cluster non-empty
    labels = labels + list(range(k))
    names = [addr(i + 1) for i in range(len(labels))]
    fork = ForkGroundTruth("f", frozenset(names[:max(1, len(labels) // 2)]))
    share = fork_cluster_share(clustering(labels, names, k_star=k), fork)
    assert share is not None
    assert 1.0 / k - 1e-12 <= share <= 1.0


def test_summarize_range_singleton():
    names = [addr(i) for i in range(1, 5)]
    fork = ForkGroundTruth("f", frozenset(names[:2]))
    result = clustering([0, 0, 1, 1], names)
    summary = summarize_range([result], fork, (1, 1))
    assert summary.avg_clusters == 2.0
    assert summary.fork_share == 1.0
    assert summary.proposals_counted == 1


def test_summarize_range_empty():
    names = [addr(1), addr(2)]
    fork = ForkGroundTruth("f", frozenset(names))
    with pytest.raises(EmptyRange):
        summarize_range([clustering([0, 1], names)], fork, (5, 9))


def test_default_iterations_and_literal_seeds():
    from forkcast.validate import DEFAULT_ITERATIONS

    assert DEFAULT_ITERATIONS == 100  # seeds are the literal integers 0..99


@pytest.fixture(scope="module")
def planted_genuine(planted_matrix):
    """The genuine analysis run_validation summarizes, at its defaults."""
    return analyze_matrix(planted_matrix, root_seed=0)


def test_run_validation_genuine_only(planted, planted_matrix, planted_genuine):
    _, truth = planted
    report = run_validation(planted_matrix, planted_genuine, truth,
                            iterations=0, root_seed=0)
    assert report.randomized == ()
    assert report.iterations == 0
    assert len(report.genuine) == 1
    assert report.genuine[0].fork_share is not None


def test_run_validation_aggregates_order(planted, planted_matrix, planted_genuine):
    _, truth = planted
    report = run_validation(planted_matrix, planted_genuine, truth,
                            ranges=[(41, 60)], iterations=3, root_seed=0)
    stats = report.randomized[0]
    assert stats.iterations_counted == 3
    assert stats.avg_clusters_min <= stats.avg_clusters_mean <= stats.avg_clusters_max
    assert stats.fork_share_min <= stats.fork_share_mean <= stats.fork_share_max


def test_participation_stats_split():
    # p1, p2 early; p3, p4 late (split at 3); fork = first two addresses
    rows = [
        [1, -1, 1, 1],
        [-1, -1, 1, 1],
        [1, 1, 1, 1],
        [0, 1, -1, 1],
    ]
    matrix = make_matrix(rows)
    fork = ForkGroundTruth("f", frozenset({addr(1), addr(2)}))
    stats = participation_stats(matrix, fork, split_at=3)
    assert stats.early_fork == pytest.approx(0.5)     # (1 + 0) / 2
    assert stats.late_fork == pytest.approx(2.0)      # (2 + 2) / 2
    assert stats.early_nonfork == pytest.approx(2.0)  # (2 + 2) / 2
    assert stats.late_nonfork == pytest.approx(1.5)   # (1 + 2) / 2


def test_participation_stats_no_fork_addresses():
    matrix = make_matrix([[1, 1], [0, 1]])
    fork = ForkGroundTruth("f", frozenset({addr(42)}))
    stats = participation_stats(matrix, fork, split_at=2)
    assert stats.early_fork == 0.0 and stats.late_fork == 0.0


def test_participation_stats_split_out_of_range():
    matrix = make_matrix([[1, 1], [0, 1]])
    fork = ForkGroundTruth("f", frozenset({addr(1)}))
    with pytest.raises(UnknownProposal):
        participation_stats(matrix, fork, split_at=99)


def _raise_in_shuffle(monkeypatch, error: Exception) -> None:
    """Make the analysis of the shuffled matrix with seed 1 raise ``error``."""
    import forkcast.validate as validate_mod

    genuine = validate_mod.analyze_matrix

    def patched(matrix, *args, namespace=(), **kwargs):
        if namespace == ("shuffle", 1):
            raise error
        return genuine(matrix, *args, namespace=namespace, **kwargs)

    monkeypatch.setattr(validate_mod, "analyze_matrix", patched)


def test_run_validation_propagates_non_package_errors(planted, planted_matrix,
                                                      planted_genuine, monkeypatch):
    """A broken invariant in a shuffled pass crashes the run instead of
    being recorded as a failed seed."""
    _raise_in_shuffle(monkeypatch, AssertionError("injected invariant break"))
    _, truth = planted
    with pytest.raises(AssertionError, match="injected invariant break"):
        run_validation(planted_matrix, planted_genuine, truth, ranges=[(41, 60)],
                       iterations=2, root_seed=0)


def test_run_validation_records_package_errors_as_failed_seeds(
        planted, planted_matrix, planted_genuine, monkeypatch):
    _raise_in_shuffle(monkeypatch, EmptyRange("injected empty range"))
    _, truth = planted
    report = run_validation(planted_matrix, planted_genuine, truth, ranges=[(41, 60)],
                            iterations=2, root_seed=0)
    assert report.failed_seeds == ((1, "injected empty range"),)
    assert report.randomized[0].iterations_counted == 1
