"""k-means over 2D embeddings with silhouette-based selection of k.

Lloyd iteration with k-means++ seeding, best of ``restarts`` runs by
within-cluster sum of squares (WCSS). On tiny instances (at most
``_EXHAUSTIVE_SEED_LIMIT`` distinct center subsets) every possible seeding
is tried instead, which dominates any sampled restart set and makes the
small-n oracle guarantee hold at default settings. Empty clusters are
reseeded to the point farthest from its assigned centroid. All randomness
comes from SplitMix64 streams derived per (seed, restart) and per (seed, k),
so results are reproducible and independent of evaluation order.

The silhouette sweep in :func:`select_k` shares one point distance matrix
per proposal across every k; only the partition changes between k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .embed import pairwise_distances
from .errors import SingleCluster, TooFewPoints
from .ingest import Address
from .rng import SplitMix64, derive_seed

DEFAULT_K_MIN = 2
DEFAULT_K_MAX = 5
DEFAULT_RESTARTS = 10
DEFAULT_MAX_ITERATIONS = 300

# enumerate all center subsets when there are no more than this many
_EXHAUSTIVE_SEED_LIMIT = 120


@dataclass(frozen=True)
class LloydResult:
    assignments: np.ndarray  # (n,) int64
    centroids: np.ndarray  # (k, 2) float64
    wcss: float
    wcss_path: tuple[float, ...]
    iterations: int


@dataclass(frozen=True)
class ClusteringResult:
    """Chosen partition for one proposal plus the silhouette sweep behind it."""

    proposal_id: int
    assignments: np.ndarray
    k_star: int
    silhouette_by_k: Mapping[int, float]
    centroids: np.ndarray
    seed: int
    addresses: tuple[Address, ...] = ()


def _squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    deltas = points[:, None, :] - centers[None, :, :]
    return (deltas ** 2).sum(axis=2)


def _wcss(points: np.ndarray, assignments: np.ndarray,
          centroids: np.ndarray) -> float:
    return float(((points - centroids[assignments]) ** 2).sum())


def kmeans_pp_init(points: np.ndarray, k: int, rng: SplitMix64) -> np.ndarray:
    """k-means++ seeding: D^2-weighted draws after a uniform first center."""
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.below(n)]
    for c in range(1, k):
        d2 = _squared_distances(points, centers[:c]).min(axis=1)
        total = float(d2.sum())
        if total == 0.0:
            centers[c] = points[rng.below(n)]
            continue
        threshold = rng.uniform() * total
        index = int(np.searchsorted(np.cumsum(d2), threshold, side="right"))
        centers[c] = points[min(index, n - 1)]
    return centers


def lloyd(points: np.ndarray, centers: np.ndarray,
          max_iterations: int = DEFAULT_MAX_ITERATIONS) -> LloydResult:
    """Lloyd iteration from explicit initial centers.

    Stops when assignments stabilize. ``wcss_path`` records WCSS after every
    (assign, update) cycle; it is non-increasing.
    """
    points = np.asarray(points, dtype=np.float64)
    centroids = np.array(centers, dtype=np.float64)
    k = len(centroids)
    previous: np.ndarray | None = None
    path: list[float] = []
    iterations = 0
    assignments = np.zeros(len(points), dtype=np.int64)
    for iteration in range(1, max_iterations + 1):
        assignments = _squared_distances(points, centroids).argmin(axis=1)
        while True:
            counts = np.bincount(assignments, minlength=k)
            empty = np.flatnonzero(counts == 0)
            if len(empty) == 0:
                break
            # reseed to the point farthest from its assigned centroid,
            # never stranding another cluster by taking its only member
            residuals = ((points - centroids[assignments]) ** 2).sum(axis=1)
            residuals[counts[assignments] <= 1] = -1.0
            assignments[int(residuals.argmax())] = int(empty[0])
        for cluster in range(k):
            members = assignments == cluster
            centroids[cluster] = points[members].mean(axis=0)
        path.append(_wcss(points, assignments, centroids))
        iterations = iteration
        if previous is not None and np.array_equal(previous, assignments):
            break
        previous = assignments.copy()
    return LloydResult(assignments, centroids, path[-1], tuple(path), iterations)


def kmeans(points: np.ndarray, k: int, seed: int,
           restarts: int = DEFAULT_RESTARTS,
           max_iterations: int = DEFAULT_MAX_ITERATIONS,
           ) -> tuple[np.ndarray, np.ndarray]:
    """Best-of-restarts k-means; deterministic given seed."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if k > n:
        raise TooFewPoints(f"k={k} exceeds {n} points")
    if k < 1:
        raise ValueError("k must be >= 1")
    best: LloydResult | None = None
    if comb(n, k) <= _EXHAUSTIVE_SEED_LIMIT:
        seedings = (points[list(subset)]
                    for subset in itertools.combinations(range(n), k))
    else:
        seedings = (kmeans_pp_init(points, k,
                                   SplitMix64(derive_seed(seed, "restart", r)))
                    for r in range(restarts))
    for centers in seedings:
        result = lloyd(points, centers, max_iterations)
        if best is None or result.wcss < best.wcss:
            best = result
    assert best is not None
    return best.assignments, best.centroids


def silhouette(points: np.ndarray, assignments: np.ndarray,
               distances: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Per-point silhouette values and their arithmetic mean.

    ``distances`` is ``pairwise_distances(points)`` when the caller already
    has it. Conventions: singleton clusters score 0, and so do points where
    both cohesion and separation are zero (coincident points).
    """
    points = np.asarray(points, dtype=np.float64)
    assignments = np.asarray(assignments)
    labels = np.unique(assignments)
    if len(labels) < 2:
        raise SingleCluster("silhouette needs at least 2 clusters")
    if distances is None:
        distances = pairwise_distances(points)
    members = {label: np.flatnonzero(assignments == label) for label in labels}
    scores = np.zeros(len(points))
    for i, own in enumerate(assignments):
        same = members[own]
        if len(same) == 1:
            continue
        row = distances[i]
        a = row[same].sum() / (len(same) - 1)
        b = min(float(row[idx].mean())
                for label, idx in members.items() if label != own)
        denominator = max(a, b)
        scores[i] = 0.0 if denominator == 0.0 else (b - a) / denominator
    return scores, float(scores.mean())


def pick_k(silhouette_by_k: Mapping[int, float]) -> int:
    """Argmax of mean silhouette; ties break toward smaller k."""
    best_k, best_score = None, -np.inf
    for k in sorted(silhouette_by_k):
        score = silhouette_by_k[k]
        if score > best_score:
            best_k, best_score = k, score
    assert best_k is not None
    return best_k


def select_k(points: np.ndarray, k_min: int = DEFAULT_K_MIN,
             k_max: int = DEFAULT_K_MAX, seed: int = 0, *,
             proposal_id: int = 0, addresses: Sequence[Address] = (),
             restarts: int = DEFAULT_RESTARTS,
             max_iterations: int = DEFAULT_MAX_ITERATIONS) -> ClusteringResult:
    """Sweep k in [k_min, min(k_max, n)] and keep the silhouette argmax."""
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if n < 2:
        raise TooFewPoints(f"cannot cluster {n} points")
    k_hi = min(k_max, n)
    if k_min > k_hi:
        raise TooFewPoints(f"k_min={k_min} exceeds usable maximum {k_hi}")
    distances = pairwise_distances(points)
    sweeps: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    scores: dict[int, float] = {}
    for k in range(k_min, k_hi + 1):
        assignments, centroids = kmeans(points, k, derive_seed(seed, "k", k),
                                        restarts, max_iterations)
        _, mean_score = silhouette(points, assignments, distances)
        sweeps[k] = (assignments, centroids)
        scores[k] = mean_score
    k_star = pick_k(scores)
    assignments, centroids = sweeps[k_star]
    return ClusteringResult(
        proposal_id=proposal_id,
        assignments=assignments,
        k_star=k_star,
        silhouette_by_k=scores,
        centroids=centroids,
        seed=seed,
        addresses=tuple(addresses),
    )
