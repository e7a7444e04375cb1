"""k-means, silhouette scoring, and silhouette-based model selection."""

from __future__ import annotations

import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from forkcast import cluster, kmeans, select_k, silhouette
from forkcast.cluster import DEFAULT_K_MAX, DEFAULT_K_MIN, kmeans_pp_init, lloyd, pick_k
from forkcast.embed import pairwise_distances
from forkcast.errors import TooFewPoints
from forkcast.rng import SplitMix64, derive_seed


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
    assignments, centroids = kmeans(points, {2: 0})[2]
    assert partition_sets(assignments) == {frozenset({0, 1}), frozenset({2, 3})}
    wcss = float(((points - centroids[assignments]) ** 2).sum())
    assert wcss == 0.0


def test_line_points_split_at_gap():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
    assignments, centroids = kmeans(points, {2: 0})[2]
    assert partition_sets(assignments) == {frozenset({0, 1, 2}), frozenset({3, 4})}
    wcss = float(((points - centroids[assignments]) ** 2).sum())
    assert wcss == pytest.approx(min_wcss_exhaustive(points, 2))
    assert wcss == pytest.approx(2.5)


def test_k_equals_n_zero_wcss():
    rng = np.random.default_rng(0)
    points = rng.uniform(0, 1, (6, 2))
    assignments, centroids = kmeans(points, {6: 1})[6]
    assert len(set(int(a) for a in assignments)) == 6
    assert float(((points - centroids[assignments]) ** 2).sum()) == pytest.approx(0.0)


def test_k_beyond_n_rejected():
    with pytest.raises(ValueError, match="^k=4 exceeds 3 points$"):
        kmeans(np.zeros((3, 2)), {4: 0})
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        kmeans(np.zeros((3, 2)), {0: 0})


def test_wcss_never_increases_within_lloyd():
    # a run capped at t iterations stops in the state that an uncapped run
    # reaches after t, so the capped runs trace one run's WCSS path
    rng = np.random.default_rng(5)
    for trial in range(20):
        points = rng.uniform(0, 10, (rng.integers(4, 30), 2))
        k = int(rng.integers(2, 5))
        if k > len(points):
            continue
        init = kmeans_pp_init(points, [k], [derive_seed(trial, "t")])
        iterations = int(lloyd(points, init).iterations[0])
        path = [float(lloyd(points, init, t).wcss[0]) for t in range(1, iterations + 1)]
        assert all(path[i + 1] <= path[i] + 1e-9 for i in range(len(path) - 1))


def test_deterministic_given_seed():
    rng = np.random.default_rng(2)
    points = rng.uniform(0, 1, (25, 2))
    first = kmeans(points, {3: 42})[3]
    second = kmeans(points, {3: 42})[3]
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def test_silhouette_two_tight_blobs():
    rng = np.random.default_rng(7)
    points = np.vstack([blob((0, 0), 8, 0.05, rng), blob((10, 10), 8, 0.05, rng)])
    assignments = np.array([0] * 8 + [1] * 8)
    _, mean = silhouette(pairwise_distances(points), assignments)
    assert mean > 0.9


def test_silhouette_identical_points_score_zero():
    points = np.zeros((4, 2))
    per_point, mean = silhouette(pairwise_distances(points), np.array([0, 0, 1, 1]))
    assert np.all(per_point == 0.0) and mean == 0.0


def test_silhouette_singleton_cluster_scores_zero():
    points = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
    per_point, _ = silhouette(pairwise_distances(points), np.array([0, 0, 1]))
    assert per_point[2] == 0.0


def test_silhouette_single_cluster_rejected():
    with pytest.raises(ValueError, match="^silhouette needs at least 2 clusters$"):
        silhouette(pairwise_distances(np.zeros((3, 2))), np.array([0, 0, 0]))


@given(st.integers(0, 10_000))
@settings(max_examples=30)
def test_silhouette_values_bounded(seed):
    rng = np.random.default_rng(seed)
    points = rng.uniform(0, 1, (10, 2))
    assignments = rng.integers(0, 3, 10)
    if len(set(int(a) for a in assignments)) < 2:
        return
    per_point, mean = silhouette(pairwise_distances(points), assignments)
    assert np.all((per_point >= -1.0) & (per_point <= 1.0))
    assert -1.0 <= mean <= 1.0


def test_planted_blobs_beat_uniform_noise():
    rng = np.random.default_rng(9)
    blobs = np.vstack([blob((0, 0), 10, 0.3, rng), blob((8, 8), 10, 0.3, rng)])
    noise = rng.uniform(0, 8, (20, 2))
    blob_mean = silhouette(pairwise_distances(blobs), kmeans(blobs, {2: 0})[2][0])[1]
    noise_mean = silhouette(pairwise_distances(noise), kmeans(noise, {2: 0})[2][0])[1]
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
    result = select_k(points, seed=5)
    again = select_k(points, seed=5)
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
        assignments, _ = kmeans(points, {k: 9})[k]
        assert len(set(int(a) for a in assignments)) == k


def test_oracle_equivalence_small_instances():
    rng = np.random.default_rng(31)
    for trial in range(15):
        n = int(rng.integers(4, 9))
        points = rng.uniform(0, 1, (n, 2))
        for k in (2, 3):
            assignments, centroids = kmeans(points, {k: trial})[k]
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


@pytest.mark.parametrize("case", ["random", "singletons", "coincident", "wide"])
def test_silhouette_shared_distances_bitwise(case):
    rng = np.random.default_rng(17)
    n = 300 if case == "wide" else 60
    points = rng.uniform(0, 1, (n, 2))
    labels = rng.integers(0, 4, n)
    if case == "singletons":
        labels[:2] = (5, 6)
    elif case == "coincident":
        points[10:20] = points[10]
        points[40:45] = points[10]
    elif case == "wide":
        # non-contiguous labels; the largest cluster passes numpy's
        # 128-element pairwise-summation block
        labels = rng.choice([3, 7, 11, 40], n, p=[0.6, 0.2, 0.1, 0.1])
        assert np.bincount(labels).max() > 128
    scores, mean = silhouette(pairwise_distances(points), labels)
    reference = _reference_silhouette(points, labels)
    assert np.array_equal(scores, reference[0])
    assert mean == reference[1]


def _reference_kmeans_pp_init(points: np.ndarray, k: int,
                              rng: SplitMix64) -> np.ndarray:
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.below(n)]
    for c in range(1, k):
        deltas = points[:, None, :] - centers[None, :c, :]
        d2 = (deltas ** 2).sum(axis=2).min(axis=1)
        total = float(d2.sum())
        if total == 0.0:
            centers[c] = points[rng.below(n)]
            continue
        threshold = rng.uniform() * total
        index = int(np.searchsorted(np.cumsum(d2), threshold, side="right"))
        centers[c] = points[min(index, n - 1)]
    return centers


def _reference_lloyd(points: np.ndarray, centers: np.ndarray,
                     max_iterations: int = 300) -> tuple[np.ndarray, np.ndarray, float]:
    centroids = np.array(centers, dtype=np.float64)
    k = len(centroids)
    previous = None
    wcss = np.inf
    for _ in range(max_iterations):
        deltas = points[:, None, :] - centroids[None, :, :]
        assignments = (deltas ** 2).sum(axis=2).argmin(axis=1)
        while True:
            counts = np.bincount(assignments, minlength=k)
            empty = np.flatnonzero(counts == 0)
            if len(empty) == 0:
                break
            residuals = ((points - centroids[assignments]) ** 2).sum(axis=1)
            residuals[counts[assignments] <= 1] = -1.0
            assignments[int(residuals.argmax())] = int(empty[0])
        for c in range(k):
            centroids[c] = points[assignments == c].mean(axis=0)
        wcss = float(((points - centroids[assignments]) ** 2).sum())
        if previous is not None and np.array_equal(previous, assignments):
            break
        previous = assignments.copy()
    return assignments, centroids, wcss


def _reference_kmeans(points: np.ndarray, k: int, seed: int,
                      restarts: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """Restart-at-a-time k-means, exhaustive seeding at most 120 subsets;
    the bit-for-bit reference for :func:`kmeans`."""
    n = len(points)
    if comb(n, k) <= 120:
        seedings = [points[list(s)] for s in itertools.combinations(range(n), k)]
    else:
        seedings = [_reference_kmeans_pp_init(
            points, k, SplitMix64(derive_seed(seed, "restart", r)))
            for r in range(restarts)]
    best = None
    for centers in seedings:
        result = _reference_lloyd(points, centers)
        if best is None or result[2] < best[2]:
            best = result
    return best[0], best[1]


def _cluster_points(n: int, shape: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if shape == "few_distinct":  # at most 4 distinct points
        return rng.integers(0, 2, (n, 2)).astype(np.float64)
    points = rng.normal(0, 1, (n, 2))
    if shape == "duplicates":
        points[n // 3:] = points[rng.integers(0, max(1, n // 3), n - n // 3)]
    elif shape == "signed_zeros":
        points[rng.uniform(size=(n, 2)) < 0.3] = -0.0
    return points


@given(n=st.integers(2, 400), k=st.integers(1, 6),
       shape=st.sampled_from(["spread", "duplicates", "few_distinct", "signed_zeros"]),
       seed=st.integers(0, 2**32 - 1))
@example(n=9, k=3, shape="duplicates", seed=1)  # exhaustive seeding
@example(n=300, k=1, shape="spread", seed=2)  # k-means++ with k = 1
@example(n=5, k=5, shape="spread", seed=3)  # k = n
@example(n=200, k=5, shape="few_distinct", seed=4)  # fewer distinct points than k
@settings(max_examples=60, deadline=None)
def test_kmeans_matches_restart_at_a_time_reference_bitwise(n, k, shape, seed):
    k = min(k, n)
    points = _cluster_points(n, shape, seed)
    assignments, centroids = kmeans(points, {k: seed})[k]
    expected = _reference_kmeans(points, k, seed)
    assert assignments.dtype == expected[0].dtype
    assert assignments.tobytes() == expected[0].tobytes()
    assert centroids.tobytes() == expected[1].tobytes()


def _reference_squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances through the (R, n, c, 2) difference array summed
    over its last axis; the bit-for-bit reference for the per-axis kernel."""
    deltas = points[None, :, None, :] - centers[:, None, :, :]
    return (deltas ** 2).sum(axis=3)


@pytest.mark.parametrize("starts", [1, 10])
@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("n", [2, 300])
def test_squared_distances_match_4d_reference_bitwise(starts, k, n):
    rng = np.random.default_rng(n * 100 + k * 10 + starts)
    points = rng.normal(0, 1, (n, 2))
    points[0] = [-0.0, 0.0]  # signed zeros reach the sums too
    centers = points[rng.integers(0, n, (starts, k))] + rng.normal(0, 0.1, (starts, k, 2))
    got = cluster._squared_distances(points, centers)
    expected = _reference_squared_distances(points, centers)
    assert got.shape == expected.shape == (starts, n, k)
    assert got.tobytes() == expected.tobytes()


def test_kmeans_reseeds_empty_clusters_bitwise(monkeypatch):
    # three distinct points and k = 5: k-means++ repeats centers, so Lloyd
    # starts with empty clusters in several restarts
    points = np.repeat([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 40, axis=0)
    calls = []
    original = cluster._fill_empty_clusters

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(cluster, "_fill_empty_clusters", counted)
    assignments, centroids = kmeans(points, {5: 11})[5]
    assert calls
    expected = _reference_kmeans(points, 5, seed=11)
    assert assignments.tobytes() == expected[0].tobytes()
    assert centroids.tobytes() == expected[1].tobytes()
    assert len(set(assignments.tolist())) == 5


@pytest.mark.parametrize("ks", [[4] * 6, [2, 5, 3, 4, 2, 5]], ids=["one-k", "padded"])
def test_lloyd_batch_equals_each_start_alone(ks):
    rng = np.random.default_rng(8)
    points = rng.normal(0, 1, (50, 2))
    centers = kmeans_pp_init(points, ks, range(6))
    batch = lloyd(points, centers)
    assert len(set(batch.iterations.tolist())) > 1  # starts leave at different times
    for r, k in enumerate(ks):
        assert np.isinf(centers[r, k:]).all() and np.isfinite(centers[r, :k]).all()
        alone = lloyd(points, centers[r:r + 1, :k])
        assert alone.assignments[0].tobytes() == batch.assignments[r].tobytes()
        assert alone.centroids[0].tobytes() == batch.centroids[r, :k].tobytes()
        assert np.isinf(batch.centroids[r, k:]).all()
        assert alone.wcss[0] == batch.wcss[r]
        assert alone.iterations[0] == batch.iterations[r]


def test_select_k_calls_kmeans_and_silhouette_as_module_globals(monkeypatch):
    # traced runs time clustering by wrapping module attributes; inlining
    # either call would silently zero its timings. One sweep runs every k.
    calls = {"kmeans": 0, "silhouette": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(cluster, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cluster, name, counted)
    points = np.random.default_rng(4).uniform(0, 1, (12, 2))
    select_k(points, k_min=2, k_max=5, seed=0)
    assert calls == {"kmeans": 1, "silhouette": 4}


@given(n=st.integers(2, 120), k_min=st.integers(2, 4), k_max=st.integers(1, 7),
       shape=st.sampled_from(["spread", "duplicates", "few_distinct", "signed_zeros"]),
       seed=st.integers(0, 2**64 - 1))
@example(n=9, k_min=2, k_max=5, shape="spread", seed=1)  # exhaustive, then k-means++
@example(n=9, k_min=2, k_max=5, shape="duplicates", seed=2)
@example(n=60, k_min=2, k_max=6, shape="few_distinct", seed=3)  # reseeding, padded
@example(n=3, k_min=2, k_max=5, shape="spread", seed=4)  # k_max clamped to n
@settings(max_examples=60, deadline=None)
def test_select_k_matches_per_k_reference_bitwise(n, k_min, k_max, shape, seed):
    points = _cluster_points(n, shape, seed % 2**32)
    try:
        ks = cluster.k_range(n, k_min, k_max)
    except TooFewPoints:
        with pytest.raises(TooFewPoints):
            select_k(points, k_min, k_max, seed)
        return
    result = select_k(points, k_min, k_max, seed)
    expected_labels = {k: _reference_kmeans(points, k, derive_seed(seed, "k", k))[0]
                       for k in ks}
    expected_scores = {k: _reference_silhouette(points, labels)[1]
                       for k, labels in expected_labels.items()}
    assert list(result.silhouette_by_k.items()) == list(expected_scores.items())
    assert result.k_star == pick_k(expected_scores)
    assert result.assignments.tobytes() == expected_labels[result.k_star].tobytes()


def test_select_k_runs_one_lloyd_stack_for_the_whole_sweep(monkeypatch):
    # n = 9: C(9, 2) = 36 and C(9, 3) = 84 starts are enumerated, while
    # C(9, 4) = C(9, 5) = 126 exceed the limit and take 10 k-means++ starts
    starts = []
    original = cluster.lloyd

    def recorded(points, centers, *args):
        starts.append(np.isfinite(centers[:, :, 0]).sum(axis=1).tolist())
        return original(points, centers, *args)

    monkeypatch.setattr(cluster, "lloyd", recorded)
    select_k(_cluster_points(9, "spread", 6), 2, 5, seed=6)
    assert starts == [[2] * 36 + [3] * 84 + [4] * 10 + [5] * 10]


def test_select_k_reseeds_empty_clusters_in_the_padded_stack(monkeypatch):
    # three distinct points: every start of k = 4 and k = 5 meets empty
    # clusters, while k = 2 and k = 3 starts share the stack
    points = np.repeat([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 20, axis=0)
    sizes = []
    original = cluster._fill_empty_clusters

    def recorded(points, centroids, assignments):
        sizes.append(len(centroids))
        return original(points, centroids, assignments)

    monkeypatch.setattr(cluster, "_fill_empty_clusters", recorded)
    result = select_k(points, 2, 5, seed=12)
    assert {4, 5} <= set(sizes)  # each start sees only its real slots
    for k in range(2, 6):
        labels, _ = _reference_kmeans(points, k, derive_seed(12, "k", k))
        assert result.silhouette_by_k[k] == _reference_silhouette(points, labels)[1]
        if k == result.k_star:
            assert result.assignments.tobytes() == labels.tobytes()


def test_kmeans_rejects_a_k_beyond_n_among_valid_ones():
    with pytest.raises(ValueError, match="^k=4 exceeds 3 points$"):
        cluster.kmeans(np.zeros((3, 2)), {2: 0, 4: 1})


def _weighted_cases():
    rng = np.random.default_rng(40)
    for shape in ("spread", "duplicates", "few_distinct", "signed_zeros"):
        points = _cluster_points(60, shape, 40)
        yield shape, points, rng.integers(0, 4, 60)


@pytest.mark.parametrize("ones", [np.ones, lambda n: np.ones(n, dtype=np.int64)],
                         ids=["float", "int"])
def test_unit_multiplicity_is_unweighted_bitwise(ones):
    for shape, points, labels in _weighted_cases():
        n = len(points)
        init = kmeans_pp_init(points, [2, 5, 3], [7, 8, 9])
        assert kmeans_pp_init(points, [2, 5, 3], [7, 8, 9], ones(n)).tobytes() == init.tobytes()
        plain, unit = lloyd(points, init), lloyd(points, init, 300, ones(n))
        for field in ("assignments", "centroids", "wcss", "iterations"):
            assert getattr(plain, field).tobytes() == getattr(unit, field).tobytes(), shape
        seeds = {2: 3, 4: 5, 5: 6}
        for k, (labels_k, centroids) in kmeans(points, seeds).items():
            unit_labels, unit_centroids = kmeans(points, seeds, ones(n))[k]
            assert unit_labels.tobytes() == labels_k.tobytes(), shape
            assert unit_centroids.tobytes() == centroids.tobytes(), shape
        distances = pairwise_distances(points)
        scores, mean = silhouette(distances, labels)
        unit_scores, unit_mean = silhouette(distances, labels, ones(n))
        assert unit_scores.tobytes() == scores.tobytes() and unit_mean == mean, shape
        result, unit_result = select_k(points, seed=4), select_k(points, seed=4,
                                                                 multiplicity=ones(n))
        assert list(unit_result.silhouette_by_k.items()) == list(result.silhouette_by_k.items())
        assert unit_result.assignments.tobytes() == result.assignments.tobytes()


_TWO_POINTS = np.array([[0.0, 0.0], [1.0, 0.0]])


@pytest.mark.parametrize("call", [
    lambda m: kmeans_pp_init(_TWO_POINTS, [2], [0], m),
    lambda m: lloyd(_TWO_POINTS, _TWO_POINTS[None], 300, m),
    lambda m: kmeans(_TWO_POINTS, {2: 0}, m),
    lambda m: silhouette(pairwise_distances(_TWO_POINTS), np.array([0, 1]), m),
    lambda m: select_k(_TWO_POINTS, 2, 2, 0, m),
], ids=["kmeans_pp_init", "lloyd", "kmeans", "silhouette", "select_k"])
@pytest.mark.parametrize("multiplicity", [[1.0, 0.0], [1.0, -2.0], [1.0, np.nan],
                                          [1.0, np.inf], [1.0], [1.0, 1.0, 1.0]])
def test_rejects_bad_multiplicity(call, multiplicity):
    # the message mds_embed gives for the same weights
    with pytest.raises(ValueError, match="^multiplicity must be 2 finite positive weights$"):
        call(np.array(multiplicity))


@pytest.mark.parametrize("call", [
    lambda m: kmeans_pp_init(_TWO_POINTS, [2], [0], m),
    lambda m: kmeans(_TWO_POINTS, {2: 0}, m),
    lambda m: silhouette(pairwise_distances(_TWO_POINTS), np.array([0, 1]), m),
], ids=["kmeans_pp_init", "kmeans", "silhouette"])
def test_rejects_fractional_multiplicity(call):
    # k-means++ draws a voter, so a point stands for a whole number of them
    with pytest.raises(ValueError, match="^multiplicity must be 2 whole voter counts$"):
        call(np.array([1.0, 2.5]))


def _expanded(count: int, multiplicity: np.ndarray, seed: int) -> np.ndarray:
    """Each voter's point: point i repeated multiplicity[i] times, shuffled."""
    voters = np.repeat(np.arange(count), multiplicity)
    return np.random.default_rng(seed).permutation(voters)


@given(u=st.integers(2, 40), groups=st.integers(2, 5), most=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
@example(u=5, groups=3, most=1, seed=0)  # every voter a point of its own
@example(u=4, groups=4, most=3, seed=1)  # one point per cluster
@settings(max_examples=60, deadline=None)
def test_weighted_silhouette_equals_expanded_voters(u, groups, most, seed):
    """Each point's score is that of each of its voters among all voters,
    and the weighted mean is the voters' mean."""
    rng = np.random.default_rng(seed)
    points = rng.normal(0, 1, (u, 2))
    multiplicity = rng.integers(1, most + 1, u)
    labels = rng.integers(0, groups, u)
    if len(set(labels.tolist())) < 2:
        return
    voters = _expanded(u, multiplicity, seed)
    scores, mean = silhouette(pairwise_distances(points), labels, multiplicity)
    expected, expected_mean = silhouette(pairwise_distances(points[voters]), labels[voters])
    np.testing.assert_allclose(scores[voters], expected, rtol=0, atol=1e-12)
    assert mean == pytest.approx(expected_mean, rel=0, abs=1e-12)


@given(u=st.integers(2, 40), most=st.integers(1, 6),
       shape=st.sampled_from(["blobs", "spread", "few_distinct"]),
       seed=st.integers(0, 2**32 - 1))
@example(u=30, most=5, shape="blobs", seed=3)
@example(u=3, most=6, shape="spread", seed=4)  # fewer points than k_max
@example(u=12, most=1, shape="few_distinct", seed=5)
@settings(max_examples=60, deadline=None)
def test_weighted_select_k_matches_expanded_voters(u, most, shape, seed):
    """k-means and the silhouette sweep on the distinct points, weighted by
    voter count, against the same sweep on every voter.

    Each weighted k-means partition is a Lloyd fixed point of the voters,
    and its silhouette is the voters'. The two sweeps draw other seedings,
    so at some k they can stop in different local optima; where they stop
    in the same one at both their k*, they pick the same k*, except on a
    near-tie (scores within 1e-12). The test reports each case as a
    hypothesis event."""
    rng = np.random.default_rng(seed)
    if shape == "blobs":
        centers = rng.uniform(-10, 10, (int(rng.integers(2, 5)), 2))
        points = centers[rng.integers(0, len(centers), u)] + rng.normal(0, 0.5, (u, 2))
    elif shape == "spread":
        points = rng.normal(0, 1, (u, 2))
    else:  # a few far-apart sites, each point a hair off one
        points = rng.integers(0, 3, (u, 2)) * 5.0 + rng.normal(0, 1e-3, (u, 2))
    multiplicity = rng.integers(1, most + 1, u)
    voters = _expanded(u, multiplicity, seed)
    result = select_k(points, seed=seed, multiplicity=multiplicity)
    ks = cluster.k_range(u, DEFAULT_K_MIN, DEFAULT_K_MAX)
    assert list(result.silhouette_by_k) == list(ks)  # capped by distinct points
    seeds = {k: derive_seed(seed, "k", k) for k in ks}
    weighted = kmeans(points, seeds, multiplicity)
    assert result.assignments.tobytes() == weighted[result.k_star][0].tobytes()
    voter_points = points[voters]
    voter_distances = pairwise_distances(voter_points)
    for k, (labels, centroids) in weighted.items():
        voter_labels = labels[voters]
        for c in range(k):
            np.testing.assert_allclose(centroids[c], voter_points[voter_labels == c].mean(axis=0),
                                       rtol=1e-12, atol=1e-12)
        nearest = cluster._squared_distances(voter_points, centroids[None])[0]
        assert (nearest[np.arange(len(voters)), voter_labels] <= nearest.min(axis=1) + 1e-9).all()
        score = silhouette(voter_distances, voter_labels)[1]
        assert result.silhouette_by_k[k] == pytest.approx(score, rel=0, abs=1e-12)
    # the voter sweep as select_k runs it on every voter
    voter_ks = cluster.k_range(len(voters), DEFAULT_K_MIN, DEFAULT_K_MAX)
    expanded = kmeans(voter_points, {k: derive_seed(seed, "k", k) for k in voter_ks})
    voter_scores = {k: silhouette(voter_distances, labels)[1]
                    for k, (labels, _) in expanded.items()}
    k_star, voter_k_star = result.k_star, pick_k(voter_scores)
    if k_star == voter_k_star:
        event(f"{shape}: same k*")
    elif voter_k_star not in weighted:
        event(f"{shape}: the voter sweep splits coincident voters at its k*")
    elif all(partition_sets(weighted[k][0][voters]) == partition_sets(expanded[k][0])
             for k in (k_star, voter_k_star)):
        assert abs(voter_scores[k_star] - voter_scores[voter_k_star]) <= 1e-12
        event(f"{shape}: near-tie for k*")
    else:
        event(f"{shape}: another k* from another local optimum")
