"""Shuffle baseline preservation and fork-alignment summaries."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from forkcast import (
    AnalysisSpec,
    Embedding,
    ForkGroundTruth,
    MdsConfig,
    WindowSpec,
    analyze_matrix,
    fork_cluster_share,
    run_validation,
    shuffle_votes,
    static_disagreement,
    summarize_range,
)
from forkcast.cluster import ClusteringResult
from forkcast.errors import EmptyInput, EmptyRange
from forkcast.pipeline import ProposalAnalysis
from forkcast.validate import metric_summary, validation_json

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
    assert static_disagreement(shuffled) == static_disagreement(planted_matrix)


def clustering(assignments, names, k_star=None) -> ProposalAnalysis:
    assignments = np.asarray(assignments)
    k = k_star or len(set(int(a) for a in assignments))
    embedding = Embedding(1, tuple(names), np.zeros((len(names), 2)), 0.0, 1)
    return ProposalAnalysis(1, embedding, ClusteringResult(
        assignments=assignments, k_star=k, silhouette_by_k={k: 0.5}))


def test_fork_share_perfect_cohesion():
    names = [addr(i) for i in range(1, 7)]
    fork = ForkGroundTruth(frozenset(names[:3]))
    result = clustering([0, 0, 0, 1, 1, 1], names)
    assert fork_cluster_share(result, fork) == 1.0


def test_fork_share_even_split():
    names = [addr(i) for i in range(1, 5)]
    fork = ForkGroundTruth(frozenset(names))
    result = clustering([0, 0, 1, 1], names)
    assert fork_cluster_share(result, fork) == 0.5


def test_fork_share_fourteen_of_fifteen():
    names = [addr(i) for i in range(1, 21)]
    fork = ForkGroundTruth(frozenset(names[:15]))
    labels = [0] * 14 + [1] + [1] * 5  # one fork address misclassified
    result = clustering(labels, names)
    assert fork_cluster_share(result, fork) == pytest.approx(14 / 15)


def test_fork_share_absent_below_minimum():
    names = [addr(i) for i in range(1, 5)]
    fork = ForkGroundTruth(frozenset({addr(99)}))  # no fork address clustered
    result = clustering([0, 0, 1, 1], names)
    assert fork_cluster_share(result, fork) is None
    fork_one = ForkGroundTruth(frozenset({addr(1)}))
    assert fork_cluster_share(result, fork_one) == 1.0


@given(st.integers(2, 5), st.lists(st.integers(0, 4), min_size=1, max_size=12))
def test_fork_share_bounds(k, labels):
    labels = [label % k for label in labels]
    # force every cluster non-empty
    labels = labels + list(range(k))
    names = [addr(i + 1) for i in range(len(labels))]
    fork = ForkGroundTruth(frozenset(names[:max(1, len(labels) // 2)]))
    share = fork_cluster_share(clustering(labels, names, k_star=k), fork)
    assert share is not None
    assert 1.0 / k - 1e-12 <= share <= 1.0


def test_summarize_range_singleton():
    names = [addr(i) for i in range(1, 5)]
    fork = ForkGroundTruth(frozenset(names[:2]))
    result = clustering([0, 0, 1, 1], names)
    summary = summarize_range([result], fork, (1, 1))
    assert summary.avg_clusters == 2.0
    assert summary.fork_share == 1.0
    assert summary.proposals_counted == 1


def test_summarize_range_empty():
    names = [addr(1), addr(2)]
    fork = ForkGroundTruth(frozenset(names))
    with pytest.raises(EmptyRange):
        summarize_range([clustering([0, 1], names)], fork, (5, 9))


def test_default_iterations_and_literal_seeds():
    from forkcast.validate import DEFAULT_ITERATIONS

    assert DEFAULT_ITERATIONS == 100  # seeds are the literal integers 0..99


@pytest.fixture(scope="module")
def planted_genuine(planted_matrix):
    """The genuine analysis run_validation summarizes, at its defaults."""
    return analyze_matrix(planted_matrix, AnalysisSpec(root_seed=0))


def test_run_validation_genuine_only(planted, planted_matrix, planted_genuine):
    _, truth = planted
    report = run_validation(planted_matrix, planted_genuine, truth, iterations=0)
    assert all(validation.shuffled == () for validation in report.ranges)
    assert report.iterations == 0
    assert len(report.ranges) == 1
    assert report.ranges[0].genuine.fork_share is not None


def test_run_validation_aggregates_order(planted, planted_matrix, planted_genuine):
    _, truth = planted
    report = run_validation(planted_matrix, planted_genuine, truth,
                            ranges=[(41, 60)], iterations=3)
    assert len(report.ranges[0].shuffled) == 3
    clusters = metric_summary(report.ranges[0], "avg_clusters")
    shares = metric_summary(report.ranges[0], "fork_share")
    assert clusters["rand_min"] <= clusters["rand_avg"] <= clusters["rand_max"]
    assert shares["rand_min"] <= shares["rand_avg"] <= shares["rand_max"]


def test_report_keeps_every_shuffle_summary(planted, planted_matrix):
    """Each range keeps one summary per shuffled pass, in seed order, equal to
    an independent rerun of that pass; validation.json's rand_* entries are
    their min, max and mean."""
    _, truth = planted
    genuine = analyze_matrix(planted_matrix, AnalysisSpec(mds=MdsConfig(30, 1e-6)))
    ranges = [(2, 60), (41, 60)]
    report = run_validation(planted_matrix, genuine, truth, ranges=ranges, iterations=3)
    runs = [analyze_matrix(shuffle_votes(planted_matrix, s), genuine.spec,
                           namespace=("shuffle", s)) for s in range(3)]
    payload = validation_json(report)
    assert report.failed_seeds == ()
    assert payload["seeds"] == [0, 1, 2]
    for validation, entry, id_range in zip(report.ranges, payload["ranges"], ranges):
        assert validation.genuine == summarize_range(genuine.analyses, truth, id_range)
        assert validation.shuffled == tuple(summarize_range(run.analyses, truth, id_range)
                                            for run in runs)
        assert entry["range"] == list(id_range)
        for metric in ("avg_clusters", "fork_share"):
            values = [getattr(summary, metric) for summary in validation.shuffled]
            assert entry[metric] == {
                "value": getattr(validation.genuine, metric),
                "rand_min": min(values),
                "rand_max": max(values),
                "rand_avg": float(np.mean(values)),
            }


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
                       iterations=2)


# a child that must run under python -O, where assert statements are gone
_BLANKING_SHUFFLE = (
    "import sys\n"
    "import numpy as np\n"
    "import forkcast.validate as validate\n"
    "from forkcast.cli import main\n"
    "if __debug__:\n"
    "    sys.exit('run this child with python -O')\n"
    "validate.shuffle_votes = lambda matrix, seed: validate.VoterMatrix(\n"
    "    matrix.addresses, matrix.proposal_ids, np.full_like(matrix.cells, -1))\n"
    "sys.exit(main(sys.argv[1:]))\n")


def test_broken_shuffle_invariant_crashes_under_python_O(tmp_path):
    """The participation check is not an assert, so -O cannot strip it and
    turn every shuffle into a recorded failed seed."""
    root = Path(__file__).resolve().parent.parent
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": str(root / "src") + (os.pathsep + path if path else "")}
    child = subprocess.run(
        [sys.executable, "-O", "-c", _BLANKING_SHUFFLE, "all", "--dao", "planted",
         "--fixture", str(root / "data" / "planted" / "votes.jsonl"),
         "--ground-truth", str(root / "data" / "planted" / "forkers.txt"),
         "--ranges", "41-60", "--iterations", "2", "--mds-iterations", "5",
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True)
    assert child.returncode != 0
    assert "ValueError: shuffle must preserve participation" in child.stderr


def test_run_validation_records_package_errors_as_failed_seeds(
        planted, planted_matrix, planted_genuine, monkeypatch):
    _raise_in_shuffle(monkeypatch, EmptyRange("injected empty range"))
    _, truth = planted
    report = run_validation(planted_matrix, planted_genuine, truth, ranges=[(41, 60)],
                            iterations=2)
    assert report.failed_seeds == ((1, "injected empty range"),)
    assert len(report.ranges[0].shuffled) == 1


def test_run_validation_propagates_other_package_errors(planted, planted_matrix,
                                                        planted_genuine, monkeypatch):
    """Only a range with nothing to analyze fails a seed; any other package
    error in a shuffled pass crashes the run."""
    _raise_in_shuffle(monkeypatch, EmptyInput("injected empty input"))
    _, truth = planted
    with pytest.raises(EmptyInput, match="injected empty input"):
        run_validation(planted_matrix, planted_genuine, truth, ranges=[(41, 60)],
                       iterations=2)


def test_run_validation_reruns_shuffles_with_the_genuine_spec(planted, planted_matrix,
                                                              monkeypatch):
    """Every shuffled pass is analyzed with the genuine run's spec, here a
    non-default one."""
    import forkcast.validate as validate_mod

    _, truth = planted
    spec = AnalysisSpec(WindowSpec(8, 0.5), MdsConfig(20, 1e-4), k_min=2, k_max=3,
                        root_seed=5)
    genuine = analyze_matrix(planted_matrix, spec)
    assert genuine.spec is spec
    received = []
    original = validate_mod.analyze_matrix

    def recording(matrix, spec, *, namespace=(), on_frame=None):
        received.append((spec, namespace))
        return original(matrix, spec, namespace=namespace, on_frame=on_frame)

    monkeypatch.setattr(validate_mod, "analyze_matrix", recording)
    report = run_validation(planted_matrix, genuine, truth, ranges=[(41, 60)],
                            iterations=2)
    assert [namespace for _, namespace in received] == [("shuffle", 0), ("shuffle", 1)]
    assert all(shuffle_spec is genuine.spec for shuffle_spec, _ in received)
    assert report.failed_seeds == ()
    assert metric_summary(report.ranges[0], "avg_clusters")["rand_max"] <= 3
