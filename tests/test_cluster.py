"""k-means, silhouette scoring, and silhouette-based model selection."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forkcast import kmeans, select_k, silhouette
from forkcast.cluster import lloyd, pick_k
from forkcast.embed import pairwise_distances
from forkcast.errors import SingleCluster, TooFewPoints
from forkcast.rng import SplitMix64, derive_seed

from conftest import addr


def min_wcss_exhaustive(points: np.ndarray, k: int) -> float:
    """Global WCSS minimum by enumerating every k-part partition."""
    best = np.inf
    for labels in itertools.product(range(k), repeat=len(points)):
        if len(set(labels)) != k:
            continue
        labels = np.asarray(labels)
        wcss = 0.0
        for cluster in range(k):
            members = points[labels == cluster]
            wcss += float(((members - members.mean(axis=0)) ** 2).sum())
        best = min(best, wcss)
    return best


def blob(center, count, radius, rng) -> np.ndarray:
    return np.asarray(center) + rng.uniform(-radius, radius, (count, 2))


def partition_sets(assignments) -> set[frozenset[int]]:
    clusters: dict[int, set[int]] = {}
    for i, label in enumerate(assignments):
        clusters.setdefault(int(label), set()).add(i)
    return {frozenset(v) for v in clusters.values()}


def test_duplicate_pairs_form_exact_clusters():
    points = np.array([[0.0, 0.0], [0.0, 0.0], [9.0, 9.0], [9.0, 9.0]])
    assignments, centroids = kmeans(points, 2, seed=0)
    assert partition_sets(assignments) == {frozenset({0, 1}), frozenset({2, 3})}
    wcss = float(((points - centroids[assignments]) ** 2).sum())
    assert wcss == 0.0


def test_line_points_split_at_gap():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
    assignments, centroids = kmeans(points, 2, seed=0)
    assert partition_sets(assignments) == {frozenset({0, 1, 2}), frozenset({3, 4})}
    wcss = float(((points - centroids[assignments]) ** 2).sum())
    assert wcss == pytest.approx(min_wcss_exhaustive(points, 2))
    assert wcss == pytest.approx(2.5)


def test_k_equals_n_zero_wcss():
    rng = np.random.default_rng(0)
    points = rng.uniform(0, 1, (6, 2))
    assignments, centroids = kmeans(points, 6, seed=1)
    assert len(set(int(a) for a in assignments)) == 6
    assert float(((points - centroids[assignments]) ** 2).sum()) == pytest.approx(0.0)


def test_k_beyond_n_rejected():
    with pytest.raises(TooFewPoints):
        kmeans(np.zeros((3, 2)), 4, seed=0)


def test_wcss_never_increases_within_lloyd():
    rng = np.random.default_rng(5)
    for trial in range(20):
        points = rng.uniform(0, 10, (rng.integers(4, 30), 2))
        k = int(rng.integers(2, 5))
        if k > len(points):
            continue
        init = kmeans_init_for_test(points, k, trial)
        result = lloyd(points, init)
        path = result.wcss_path
        assert all(path[i + 1] <= path[i] + 1e-9 for i in range(len(path) - 1))


def kmeans_init_for_test(points, k, seed):
    from forkcast.cluster import kmeans_pp_init

    return kmeans_pp_init(points, k, SplitMix64(derive_seed(seed, "t")))


def test_deterministic_given_seed():
    rng = np.random.default_rng(2)
    points = rng.uniform(0, 1, (25, 2))
    first = kmeans(points, 3, seed=42)
    second = kmeans(points, 3, seed=42)
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def test_silhouette_two_tight_blobs():
    rng = np.random.default_rng(7)
    points = np.vstack([blob((0, 0), 8, 0.05, rng), blob((10, 10), 8, 0.05, rng)])
    assignments = np.array([0] * 8 + [1] * 8)
    _, mean = silhouette(points, assignments)
    assert mean > 0.9


def test_silhouette_identical_points_score_zero():
    points = np.zeros((4, 2))
    per_point, mean = silhouette(points, np.array([0, 0, 1, 1]))
    assert np.all(per_point == 0.0) and mean == 0.0


def test_silhouette_singleton_cluster_scores_zero():
    points = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
    per_point, _ = silhouette(points, np.array([0, 0, 1]))
    assert per_point[2] == 0.0


def test_silhouette_single_cluster_rejected():
    with pytest.raises(SingleCluster):
        silhouette(np.zeros((3, 2)), np.array([0, 0, 0]))


@given(st.integers(0, 10_000))
@settings(max_examples=30)
def test_silhouette_values_bounded(seed):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0, 1, (10, 2))
    assignments = rng.integers(0, 3, 10)
    if len(set(int(a) for a in assignments)) < 2:
        return
    per_point, mean = silhouette(points, assignments)
    assert np.all((per_point >= -1.0) & (per_point <= 1.0))
    assert -1.0 <= mean <= 1.0


def test_planted_blobs_beat_uniform_noise():
    rng = np.random.default_rng(9)
    blobs = np.vstack([blob((0, 0), 10, 0.3, rng), blob((8, 8), 10, 0.3, rng)])
    noise = rng.uniform(0, 8, (20, 2))
    blob_mean = silhouette(blobs, kmeans(blobs, 2, seed=0)[0])[1]
    noise_mean = silhouette(noise, kmeans(noise, 2, seed=0)[0])[1]
    assert blob_mean > noise_mean


def test_select_k_recovers_planted_counts():
    rng = np.random.default_rng(13)
    two = np.vstack([blob((0, 0), 10, 0.4, rng), blob((10, 0), 10, 0.4, rng)])
    assert select_k(two, seed=0).k_star == 2
    four = np.vstack([
        blob((0, 0), 6, 0.4, rng), blob((10, 0), 6, 0.4, rng),
        blob((0, 10), 6, 0.4, rng), blob((10, 10), 6, 0.4, rng),
    ])
    assert select_k(four, seed=0).k_star == 4


def test_select_k_defaults_and_clamping():
    rng = np.random.default_rng(1)
    points = rng.uniform(0, 1, (3, 2))
    result = select_k(points, seed=0)
    assert set(result.silhouette_by_k) == {2, 3}  # k_max clamped to n=3
    assert result.k_star in (2, 3)
    with pytest.raises(TooFewPoints):
        select_k(points[:1], seed=0)
    with pytest.raises(TooFewPoints):
        select_k(points, k_min=4, k_max=5, seed=0)


def test_pick_k_breaks_ties_toward_smaller():
    assert pick_k({2: 0.5, 3: 0.5, 4: 0.4}) == 2
    assert pick_k({2: 0.3, 3: 0.50000001, 4: 0.5}) == 3


def test_select_k_deterministic_and_reorder_invariant():
    rng = np.random.default_rng(21)
    points = np.vstack([blob((0, 0), 7, 0.4, rng), blob((6, 6), 7, 0.4, rng)])
    result = select_k(points, seed=5, addresses=tuple(addr(i) for i in range(14)))
    again = select_k(points, seed=5, addresses=tuple(addr(i) for i in range(14)))
    assert result.k_star == again.k_star
    assert np.array_equal(result.assignments, again.assignments)
    order = rng.permutation(len(points))
    permuted = select_k(points[order], seed=5)
    assert permuted.k_star == result.k_star
    original_parts = partition_sets(result.assignments)
    mapped = partition_sets(permuted.assignments)
    remapped = {frozenset(int(order[i]) for i in part) for part in mapped}
    assert remapped == original_parts


def test_every_cluster_non_empty():
    rng = np.random.default_rng(3)
    points = rng.uniform(0, 1, (12, 2))
    for k in (2, 3, 4, 5):
        assignments, _ = kmeans(points, k, seed=9)
        assert len(set(int(a) for a in assignments)) == k


def test_oracle_equivalence_small_instances():
    rng = np.random.default_rng(31)
    for trial in range(15):
        n = int(rng.integers(4, 9))
        points = rng.uniform(0, 1, (n, 2))
        for k in (2, 3):
            assignments, centroids = kmeans(points, k, seed=trial)
            wcss = float(((points - centroids[assignments]) ** 2).sum())
            assert wcss == pytest.approx(min_wcss_exhaustive(points, k), rel=1e-9)


def _reference_silhouette(points: np.ndarray,
                          assignments: np.ndarray) -> tuple[np.ndarray, float]:
    """Boolean-mask silhouette over a freshly built distance matrix; the
    bit-for-bit reference for :func:`silhouette`."""
    labels = np.unique(assignments)
    deltas = points[:, None, :] - points[None, :, :]
    distances = np.sqrt((deltas ** 2).sum(axis=2))
    scores = np.zeros(len(points))
    for i in range(len(points)):
        same = assignments == assignments[i]
        same_count = int(same.sum())
        if same_count == 1:
            continue
        a = distances[i, same].sum() / (same_count - 1)
        b = min(float(distances[i, assignments == other].mean())
                for other in labels if other != assignments[i])
        denominator = max(a, b)
        scores[i] = 0.0 if denominator == 0.0 else (b - a) / denominator
    return scores, float(scores.mean())


@pytest.mark.parametrize("case", ["random", "singletons", "coincident"])
def test_silhouette_shared_distances_bitwise(case):
    rng = np.random.default_rng(17)
    points = rng.uniform(0, 1, (60, 2))
    labels = rng.integers(0, 4, 60)
    if case == "singletons":
        labels[:2] = (5, 6)
    elif case == "coincident":
        points[10:20] = points[10]
        points[40:45] = points[10]
    distances = pairwise_distances(points)
    fresh = silhouette(points, labels)
    shared = silhouette(points, labels, distances)
    reference = _reference_silhouette(points, labels)
    for scores, mean in (fresh, shared):
        assert np.array_equal(scores, reference[0])
        assert mean == reference[1]
