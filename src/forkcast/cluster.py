"""k-means over 2D embeddings with silhouette-based selection of k.

Lloyd iteration with k-means++ seeding, best of ``DEFAULT_RESTARTS`` runs by
within-cluster sum of squares (WCSS). On tiny instances (at most
``_EXHAUSTIVE_SEED_LIMIT`` distinct center subsets) every possible seeding
is tried instead, which dominates any sampled restart set and makes the
small-n oracle guarantee hold at default settings. Empty clusters are
reseeded to the point farthest from its assigned centroid. All randomness
comes from SplitMix64 streams derived per (seed, restart) and per (seed, k),
so results are reproducible and independent of evaluation order.

Every function takes a ``multiplicity``: the whole number of voters each
point stands for (``None``: one each), as :func:`~forkcast.embed.mds_embed`
does, so coincident voters are clustered once, as one weighted point.
There is one code path: unit weights enter every product as ``x * 1.0``,
which is x, so ``None`` gives the unweighted bits. Exhaustive seeding,
empty-cluster reseeding and the k cap of :func:`k_range` count distinct
points, so coincident voters are never split.

:func:`kmeans` takes one stream seed per k and runs every start of every
k as one (R, k_max, 2) center stack: one set of array operations per Lloyd
iteration serves every start still moving, and each start ends exactly
where it would alone. A start with k < k_max pads its trailing centers with
inf, which no point is nearer to. Each k keeps the first of its own starts
with the least WCSS, so the result for one k does not depend on which other
k share its stack; :func:`select_k` makes one :func:`kmeans` call per
sweep. The k-means++ draws of all starts come from one
:class:`~forkcast.rng.SplitMix64Batch`, one draw per center per start.

The silhouette scores in :func:`select_k` share one point distance matrix
per proposal across every k; only the partition changes between k.
:func:`silhouette` sums each cluster's weighted distance columns from a
C-ordered product, so every row sum adds in the same pairwise order as a
1-D sum over one point's distances to that cluster; summing a strided
fancy-indexed array directly adds in another order and can move the last
bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .embed import multiplicity_weights, pairwise_distances
from .errors import TooFewPoints
from .rng import SplitMix64Batch, derive_seed

DEFAULT_K_MIN = 2
DEFAULT_K_MAX = 5
DEFAULT_RESTARTS = 10
DEFAULT_MAX_ITERATIONS = 300

# enumerate all center subsets when there are no more than this many
_EXHAUSTIVE_SEED_LIMIT = 120


@dataclass(frozen=True)
class LloydResult:
    """Final state of R Lloyd starts run in lockstep."""

    assignments: np.ndarray  # (R, n) int64
    centroids: np.ndarray  # (R, k, 2) float64
    wcss: np.ndarray  # (R,) float64
    iterations: np.ndarray  # (R,) int64


@dataclass(frozen=True)
class ClusteringResult:
    """Chosen partition of one frame's points plus the silhouette sweep
    behind it; ``assignments[i]`` labels the i-th point (in a
    :class:`~forkcast.pipeline.ProposalAnalysis`, the frame's i-th address)."""

    assignments: np.ndarray
    k_star: int
    silhouette_by_k: Mapping[int, float]


def _squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(R, n, c) squared distances from each point to each start's centers.

    Computed per axis as ``dx * dx + dy * dy``, which is bit for bit the sum
    over a length-2 axis of the squared differences, without the (R, n, c, 2)
    difference array.
    """
    dx = points[None, :, 0, None] - centers[:, None, :, 0]
    dy = points[None, :, 1, None] - centers[:, None, :, 1]
    np.multiply(dx, dx, out=dx)
    np.multiply(dy, dy, out=dy)
    return np.add(dx, dy, out=dx)


def _voter_counts(multiplicity: np.ndarray | None, n: int) -> np.ndarray:
    """:func:`~forkcast.embed.multiplicity_weights`, which must also be whole
    numbers: k-means++ draws a voter, not a weight."""
    m = multiplicity_weights(multiplicity, n)
    if (m != np.floor(m)).any():
        raise ValueError(f"multiplicity must be {n} whole voter counts")
    return m


def kmeans_pp_init(points: np.ndarray, ks: Sequence[int], seeds: Sequence[int],
                   multiplicity: np.ndarray | None = None) -> np.ndarray:
    """k-means++ seeding, one start per (k, stream seed): (R, max(ks), 2)
    centers, where start r's rows past ``ks[r]`` are inf padding.

    Each start draws its first center by voter (``below(N)`` over the
    N = sum(m) voters, mapped to its point through the cumulative counts),
    then D^2 x m-weighted draws, one draw of its own SplitMix64 stream per
    center, so batching does not change its draws. Starts past their k keep
    drawing; nothing reads those.
    """
    n = len(points)
    m = _voter_counts(multiplicity, n)
    cumulative = np.cumsum(m.astype(np.int64))  # voters up to each point
    streams = SplitMix64Batch(seeds)

    def by_voter(rows=slice(None)) -> np.ndarray:
        voters = streams.below(int(cumulative[-1]), rows).astype(np.int64)
        return np.searchsorted(cumulative, voters, side="right")

    ks = np.asarray(ks)
    starts = len(ks)
    centers = np.empty((starts, int(ks.max()), points.shape[1]))
    centers[:, 0] = points[by_voter()]
    d2 = np.full((starts, n), np.inf)
    for c in range(1, centers.shape[1]):
        d2 = np.minimum(d2, _squared_distances(points, centers[:, c - 1:c])[:, :, 0])
        weighted = d2 * m
        totals = weighted.sum(axis=1)
        # a start whose points all sit on its centers draws a voter
        drawn = totals > 0.0
        thresholds = np.zeros(starts)
        thresholds[drawn] = streams.uniform(drawn) * totals[drawn]
        # searchsorted(side="right") on each non-decreasing cumulative row
        picks = np.minimum((np.cumsum(weighted, axis=1) <= thresholds[:, None]).sum(axis=1),
                           n - 1)
        picks[~drawn] = by_voter(~drawn)
        centers[:, c] = points[picks]
    centers[np.arange(centers.shape[1]) >= ks[:, None]] = np.inf
    return centers


def _fill_empty_clusters(points: np.ndarray, centroids: np.ndarray,
                         assignments: np.ndarray) -> None:
    """Move points into empty clusters of one start, in place.

    Each empty cluster takes the point (with all the voters it stands for)
    farthest from its assigned centroid, never stranding another cluster by
    taking its only point.
    """
    k = len(centroids)
    while True:
        counts = np.bincount(assignments, minlength=k)
        empty = np.flatnonzero(counts == 0)
        if len(empty) == 0:
            return
        residuals = ((points - centroids[assignments]) ** 2).sum(axis=1)
        residuals[counts[assignments] <= 1] = -1.0
        assignments[int(residuals.argmax())] = int(empty[0])


def lloyd(points: np.ndarray, centers: np.ndarray,
          max_iterations: int = DEFAULT_MAX_ITERATIONS,
          multiplicity: np.ndarray | None = None) -> LloydResult:
    """Lloyd iteration from R sets of initial centers, shape (R, k, 2).

    A start with fewer than k clusters pads its trailing center rows with
    inf: no point is nearer to a padded slot, so it never wins the argmin,
    never counts as an empty cluster and stays inf.

    All starts advance together; a start stops, and leaves the live set,
    when its assignments repeat those of its previous iteration or after
    ``max_iterations``. Each iteration reads the live rows of the full-size
    per-start state and writes them back. A centroid is ``sum(m x) / sum(m)``
    over its points, both sums from one weighted ``np.bincount``, which adds
    each cluster's points in index order exactly as
    ``points[members].mean(axis=0)`` does (m = 1), so every start ends bit
    for bit where a lone Lloyd run from its real centers would. WCSS counts
    each point's squared residual m times.
    """
    points = np.asarray(points, dtype=np.float64)
    centroids = np.array(centers, dtype=np.float64)
    starts, k, dims = centroids.shape
    n = len(points)
    m = _voter_counts(multiplicity, n)
    padded = ~np.isfinite(centroids[:, :, 0])
    ks = k - padded.sum(axis=1)
    # padded slots count one member: never empty, and 0 / 1 is finite
    pad_counts = padded.astype(np.int64)
    pad_offsets = np.where(padded, np.inf, -0.0)[:, :, None]  # x + -0.0 is x
    assignments = np.full((starts, n), -1, dtype=np.int64)  # no label repeats -1
    iterations = np.empty(starts, dtype=np.int64)
    offsets = np.arange(starts)[:, None] * k
    # each point adds m x and m to its cluster's row: one bincount per
    # iteration gives every cluster's weighted coordinate sums and voters
    width = dims + 1
    weights = np.tile(np.column_stack([points * m[:, None], m]).ravel(), starts)

    def cluster_sums(labels: np.ndarray, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cells = ((labels + offsets[:len(labels)]).reshape(-1, 1) * width
                 + np.arange(width)).ravel()
        sums = np.bincount(cells, weights[:cells.size],
                           minlength=len(labels) * k * width).reshape(-1, width)
        return sums[:, :dims], sums[:, dims] + pad_counts[live].ravel()

    live = np.arange(starts)
    for iteration in range(1, max_iterations + 1):
        labels = _squared_distances(points, centroids[live]).argmin(axis=2)
        sums, counts = cluster_sums(labels, live)
        if not counts.all():
            for row in np.flatnonzero((counts.reshape(-1, k) == 0).any(axis=1)):
                start = live[row]
                _fill_empty_clusters(points, centroids[start, :ks[start]], labels[row])
            sums, counts = cluster_sums(labels, live)
        moved = (sums / counts[:, None]).reshape(-1, k, dims)
        moved += pad_offsets[live]
        done = (labels == assignments[live]).all(axis=1) | (iteration == max_iterations)
        centroids[live], assignments[live], iterations[live] = moved, labels, iteration
        live = live[~done]
        if len(live) == 0:
            break
    residuals = points - centroids[np.arange(starts)[:, None], assignments]
    wcss = (residuals ** 2 * m[:, None]).reshape(starts, -1).sum(axis=1)
    return LloydResult(assignments, centroids, wcss, iterations)


def kmeans(points: np.ndarray, seeds: Mapping[int, int],
           multiplicity: np.ndarray | None = None
           ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Best-of-restarts k-means for every k in ``seeds`` (k -> stream seed),
    each point standing for ``multiplicity`` voters.

    Every start of every k runs in one :func:`lloyd` stack padded to the
    largest k, and each k keeps the first of its own starts with the least
    WCSS. A k of at most ``_EXHAUSTIVE_SEED_LIMIT`` subsets of the distinct
    points starts from each of them. Returns (assignments, (k, 2)
    centroids) per k, in ``seeds`` order; deterministic given ``seeds``.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    for k in seeds:
        if k > n:
            raise ValueError(f"k={k} exceeds {n} points")
        if k < 1:
            raise ValueError("k must be >= 1")
    exhaustive = [k for k in seeds if comb(n, k) <= _EXHAUSTIVE_SEED_LIMIT]
    sampled = [k for k in seeds if k not in exhaustive]
    counts = [comb(n, k) for k in exhaustive] + [DEFAULT_RESTARTS] * len(sampled)
    firsts = np.cumsum([0] + counts).tolist()
    centers = np.full((firsts[-1], max(seeds), points.shape[1]), np.inf)
    for k, first, count in zip(exhaustive, firsts, counts):
        subsets = np.array(list(itertools.combinations(range(n), k)))
        centers[first:first + count, :k] = points[subsets]
    if sampled:
        seeded = kmeans_pp_init(
            points, np.repeat(sampled, DEFAULT_RESTARTS),
            [derive_seed(seeds[k], "restart", r)
             for k in sampled for r in range(DEFAULT_RESTARTS)], multiplicity)
        centers[firsts[len(exhaustive)]:, :seeded.shape[1]] = seeded
    result = lloyd(points, centers, DEFAULT_MAX_ITERATIONS, multiplicity)
    best = {}
    for k, first, count in zip(exhaustive + sampled, firsts, counts):
        r = first + int(result.wcss[first:first + count].argmin())  # the first least WCSS
        best[k] = result.assignments[r].copy(), result.centroids[r, :k].copy()
    return {k: best[k] for k in seeds}


def silhouette(distances: np.ndarray, assignments: np.ndarray,
               multiplicity: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Per-point silhouette values and their voter-weighted mean.

    ``distances`` is the points' n x n distance matrix, as
    ``pairwise_distances`` builds it; ``assignments`` are non-negative
    integer labels; point b stands for ``m_b`` voters. The score of point a
    is that of each of its voters among all N voters: cohesion
    ``sum_own m_b d_ab / (N_own - 1)``, separation the least
    ``sum_c m_b d_ab / N_c`` over the other clusters c, where ``N_c`` counts
    c's voters, and the mean is ``sum m s / N``. Conventions: a cluster of
    one voter scores 0, and so do points where both cohesion and separation
    are zero (coincident points).
    """
    own = np.asarray(assignments)
    m = _voter_counts(multiplicity, len(own))
    sizes = np.bincount(own, m)
    if not sizes.all():  # some label in 0..max unused: number the used ones
        labels = np.flatnonzero(sizes)
        own, sizes = np.searchsorted(labels, own), sizes[labels]
    if len(sizes) < 2:
        raise ValueError("silhouette needs at least 2 clusters")
    # C-ordered products: see the module docstring
    sums = np.stack([np.multiply(distances[:, members], m[members], order="C").sum(axis=1)
                     for members in (own == c for c in range(len(sizes)))], axis=1)
    rows = np.arange(len(own))
    own_sizes = sizes[own]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = sums[rows, own] / (own_sizes - 1)  # cohesion; 0/0 for singletons
        means = sums / sizes
        means[rows, own] = np.inf
        b = means.min(axis=1)  # separation: the nearest other cluster
        denominator = np.maximum(a, b)
        scores = np.where((own_sizes == 1) | (denominator == 0.0), 0.0,
                          (b - a) / denominator)
    return scores, float((scores * m).sum() / m.sum())


def pick_k(silhouette_by_k: Mapping[int, float]) -> int:
    """Argmax of mean silhouette; ties break toward smaller k."""
    return max(sorted(silhouette_by_k), key=silhouette_by_k.__getitem__)


def k_range(n: int, k_min: int, k_max: int) -> range:
    """The k a sweep over n distinct points tries: [k_min, min(k_max, n)].

    Raises :class:`TooFewPoints` when that range is empty or n < 2.
    """
    if n < 2:
        raise TooFewPoints(f"cannot cluster {n} points")
    k_hi = min(k_max, n)
    if k_min > k_hi:
        raise TooFewPoints(f"k_min={k_min} exceeds usable maximum {k_hi}")
    return range(k_min, k_hi + 1)


def select_k(points: np.ndarray, k_min: int = DEFAULT_K_MIN,
             k_max: int = DEFAULT_K_MAX, seed: int = 0,
             multiplicity: np.ndarray | None = None) -> ClusteringResult:
    """Sweep k over :func:`k_range` of the points and keep the silhouette
    argmax; point i stands for ``multiplicity[i]`` voters."""
    points = np.asarray(points, dtype=np.float64)
    ks = k_range(len(points), k_min, k_max)
    distances = pairwise_distances(points)
    sweeps = kmeans(points, {k: derive_seed(seed, "k", k) for k in ks}, multiplicity)
    scores = {k: silhouette(distances, labels, multiplicity)[1]
              for k, (labels, _) in sweeps.items()}
    k_star = pick_k(scores)
    return ClusteringResult(sweeps[k_star][0], k_star, scores)
