"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

The default tier is property-based plus planted-partition recovery. The
chain-data tier needs an operator-exported Nouns fixture and is enabled via
FORKCAST_NOUNS_FIXTURE / FORKCAST_NOUNS_FORKERS.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import time
from pathlib import Path

import numpy as np
import pytest

from forkcast import (
    AnalysisSpec,
    MdsConfig,
    WindowSpec,
    active_set,
    analyze_matrix,
    build_voter_matrix,
    dissimilarity_matrix,
    fork_cluster_share,
    kmeans,
    mds_embed,
    planted_two_bloc_events,
    run_validation,
    shuffle_votes,
    static_disagreement,
    summarize_range,
)
from forkcast.cli import main as cli_main
from forkcast.embed import random_init
from forkcast.friction import categorize
from forkcast.validate import metric_summary

from conftest import make_matrix
from test_cluster import min_wcss_exhaustive
from test_dissim import brute_force_dissim
from test_embed import dmatrix, pair_matrix

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "data" / "planted" / "votes.jsonl"
FORKERS = ROOT / "data" / "planted" / "forkers.txt"


@contextlib.contextmanager
def criterion(number: int, name: str, budget_seconds: float,
              carried_seconds: float = 0.0):
    """Pass/fail bookkeeping; ``carried_seconds`` charges fixture work done
    outside this block against the criterion's runtime budget."""
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - started + carried_seconds
    assert elapsed < budget_seconds, \
        f"criterion {number} took {elapsed:.1f}s > {budget_seconds}s"
    print(f"[acceptance] criterion {number} ({name}): PASS ({elapsed:.1f}s)")


def random_cells(rng, n, m) -> np.ndarray:
    return rng.choice(np.array([1, 0, -1], dtype=np.int8), size=(n, m))


def test_criterion_1_dissimilarity_oracle():
    with criterion(1, "dissimilarity oracle equivalence", 5.0):
        rng = np.random.default_rng(12345)
        for _ in range(200):
            n = int(rng.integers(2, 11))
            m = int(rng.integers(2, 11))
            matrix = make_matrix(random_cells(rng, n, m).tolist())
            j = int(rng.integers(2, m + 1))
            w = int(rng.integers(1, 11))
            window = list(range(max(0, j - w), j))
            expected = brute_force_dissim(np.asarray(matrix.cells)[:, window])
            got = dissimilarity_matrix(matrix, active_set(matrix, j, WindowSpec(w, 0.0))).cells
            assert np.array_equal(got, expected)  # tolerance 0


def test_criterion_2_stress_monotonicity():
    with criterion(2, "per-iteration stress never increases", 30.0):
        rng = np.random.default_rng(777)
        for run in range(100):
            n = int(rng.integers(2, 31))
            cells = rng.uniform(0.0, 1.0, (n, n))
            cells = (cells + cells.T) / 2
            np.fill_diagonal(cells, 0.0)
            if not np.any(cells > 0):
                cells[0, 1] = cells[1, 0] = 0.5
            embedding = mds_embed(dmatrix(cells), random_init(n, run))
            path = embedding.stress_path
            assert all(path[i + 1] <= path[i] + 1e-12
                       for i in range(len(path) - 1)), f"run {run}"


def test_criterion_3_two_point_exactness():
    with criterion(3, "n=2 embedding reproduces the dissimilarity", 10.0):
        for i in range(1, 10):
            d = round(0.1 * i, 1)
            embedding = mds_embed(pair_matrix(d), random_init(2, i))
            distance = float(np.linalg.norm(
                embedding.coords[0] - embedding.coords[1]))
            assert abs(distance - d) < 1e-3
            assert embedding.stress < 1e-6


def test_criterion_4_kmeans_oracle():
    with criterion(4, "k-means reaches the exhaustive WCSS minimum", 10.0):
        rng = np.random.default_rng(2024)
        for instance in range(50):
            n = int(rng.integers(3, 9))
            points = rng.uniform(0.0, 1.0, (n, 2))
            for k in (2, 3):
                if k > n:
                    continue
                assignments, centroids = kmeans(points, {k: instance})[k]
                wcss = float(((points - centroids[assignments]) ** 2).sum())
                optimum = min_wcss_exhaustive(points, k)
                assert np.isclose(wcss, optimum, rtol=1e-9, atol=1e-12), \
                    f"instance {instance} k={k}: {wcss} vs {optimum}"


@pytest.fixture(scope="module")
def planted_run(planted):
    events, truth = planted
    started = time.monotonic()
    matrix = build_voter_matrix(events)
    result = analyze_matrix(matrix, AnalysisSpec(WindowSpec(10, 0.4), MdsConfig(),
                                                 k_min=2, k_max=5, root_seed=0))
    elapsed = time.monotonic() - started
    return events, truth, matrix, result, elapsed


def test_criterion_5_planted_partition_recovery(planted_run):
    *_, elapsed = planted_run
    with criterion(5, "planted two-bloc recovery", 60.0, carried_seconds=elapsed):
        _, truth, _, result, _ = planted_run
        assert len(result.analyses) == 59
        k2 = sum(1 for a in result.analyses if a.clustering.k_star == 2)
        assert k2 / len(result.analyses) >= 0.80
        late_shares = [
            share for analysis in result.analyses
            if analysis.proposal_id >= 41
            if (share := fork_cluster_share(analysis, truth)) is not None
        ]
        assert len(late_shares) == 20
        assert float(np.mean(late_shares)) >= 0.85


@pytest.fixture(scope="module")
def shuffle_report(planted_run):
    """Shuffled reruns against planted_run's genuine analysis, whose time is
    charged to this criterion too."""
    _, truth, matrix, result, genuine_elapsed = planted_run
    started = time.monotonic()
    report = run_validation(matrix, result, truth,
                            ranges=[(2, 60), (41, 60)], iterations=20)
    return report, time.monotonic() - started + genuine_elapsed


def test_criterion_6_shuffle_differential(shuffle_report):
    report, elapsed = shuffle_report
    with criterion(6, "genuine vs shuffled differential", 600.0,
                   carried_seconds=elapsed):
        assert report.failed_seeds == ()
        for validation in report.ranges:
            summary = validation.genuine
            assert summary.fork_share is not None
            assert (summary.fork_share
                    - metric_summary(validation, "fork_share")["rand_avg"] >= 0.2)
            assert (summary.avg_clusters
                    < metric_summary(validation, "avg_clusters")["rand_avg"])


def test_criterion_7_shuffle_preservation(planted_run):
    with criterion(7, "shuffles preserve counts and voter sets", 60.0):
        _, _, matrix, _, _ = planted_run
        for seed in range(20):
            shuffled = shuffle_votes(matrix, seed)
            assert np.array_equal(shuffled.cells >= 0, matrix.cells >= 0)
            for j in range(matrix.m):
                original = matrix.cells[:, j]
                permuted = shuffled.cells[:, j]
                for value in (0, 1):
                    assert (np.count_nonzero(permuted == value)
                            == np.count_nonzero(original == value))


def test_criterion_8_friction_category_boundaries():
    with criterion(8, "friction category boundaries", 10.0):
        literals = [
            (0.0, "unanimous"),
            (0.1999999, "low"),
            (0.20, "medium"),
            (0.3999999, "medium"),
            (0.40, "high"),
            (0.50, "high"),
        ]
        for value, expected in literals:
            assert categorize(value) == expected, value
        columns = [
            (10, 0, "unanimous"),       # 0
            (801, 199, "low"),          # 0.199
            (4, 1, "medium"),           # 0.20 inclusive lower bound
            (6001, 3999, "medium"),     # 0.3999
            (3, 2, "high"),             # 0.40 inclusive lower bound
            (5, 5, "high"),             # 0.50 tie
        ]
        for yes, no, expected in columns:
            rows = [[1, 1]] * yes + [[0, 1]] * no
            [record, _] = static_disagreement(make_matrix(rows))
            assert record.category == expected, (yes, no)


def _tree_digest(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def test_criterion_9_end_to_end_determinism(tmp_path):
    with criterion(9, "byte-identical reruns of `all`", 300.0):
        digests = []
        for name in ("first", "second"):
            out = tmp_path / name
            code = cli_main([
                "all", "--dao", "planted", "--fixture", str(FIXTURE),
                "--ground-truth", str(FORKERS), "--iterations", "3",
                "--ranges", "41-60", "--seed", "11", "--out", str(out)])
            assert code == 0
            digests.append(_tree_digest(out))
        assert digests[0] and digests[0] == digests[1]


NOUNS_FIXTURE = os.environ.get("FORKCAST_NOUNS_FIXTURE")
NOUNS_FORKERS = os.environ.get("FORKCAST_NOUNS_FORKERS")


@pytest.mark.skipif(
    not (NOUNS_FIXTURE and NOUNS_FORKERS),
    reason="optional chain-data tier: set FORKCAST_NOUNS_FIXTURE and "
           "FORKCAST_NOUNS_FORKERS to an operator-exported fixture")
def test_criterion_10_chain_data_tier():
    from forkcast import load_ground_truth
    from forkcast.ingest import load_fixture_with_report

    with criterion(10, "Nouns chain-data reproduction", 3600.0):
        events = load_fixture_with_report(NOUNS_FIXTURE)[0]
        truth = load_ground_truth(NOUNS_FORKERS)
        matrix = build_voter_matrix(events)
        assert (matrix.n, matrix.m) == (629, 330)
        result = analyze_matrix(matrix, AnalysisSpec(WindowSpec(10, 0.4), MdsConfig(),
                                                     k_min=2, k_max=5, root_seed=0))
        assert len(result.analyses) == 329  # one per proposal except the first
        by_id = {a.proposal_id: a for a in result.analyses}
        prop334 = by_id[334].clustering
        assert prop334.k_star == 2
        fork_labels = [int(prop334.assignments[i])
                       for i, address in enumerate(by_id[334].embedding.addresses)
                       if address in truth.addresses]
        assert np.bincount(fork_labels).max() >= 14
        summary = summarize_range(result.analyses, truth, (319, 362))
        assert summary.fork_share == pytest.approx(0.9096, abs=0.05)
