"""2D embeddings of dissimilarity matrices by iterative stress majorization.

Each Guttman transform step minimizes the quadratic majorizer of the raw
stress, so stress is non-increasing iteration to iteration. The reported
stress is the normalized form

    sqrt( sum_{i<k} w_ik (d_ik - |x_i - x_k|)^2 / sum_{i<k} w_ik d_ik^2 )

and the stopping rule is relative stress decrease below ``tolerance``.
The weights ``w_ik = m_i m_k`` (Borg & Groenen, *Modern MDS*, section 8.6)
let a point of multiplicity m stand for m coincident voters: with
``N = sum(m)`` the step ``X <- B(X) X / (N m)``, B's cells weighted by w,
is the unweighted step on every voter. Unit multiplicities are the default.
Each Guttman step computes one distance matrix: the distances that score
the stress of an iterate are the ones the next step builds its B matrix
from. The upper-triangle mask, weighted targets and stress denominator are
computed once per embedding, and so are the n x n buffers (distances, a
coordinate-difference scratch and B) that every step refills in place with
``out=`` ufuncs. B is the negated weighted cells divided by the distances,
since (-c)/d is -(c/d) bit for bit; its diagonal is written through a
strided view. ``B @ X`` is an ``einsum``, which numpy sums without BLAS
(so no BLAS kernel choice moves a bit), into a buffer that is divided into
the coordinate array, whose column views the distance fill keeps. Stress
gathers the upper triangle through a boolean ``np.triu`` mask: the same
row-major sequence as ``np.triu_indices``, about 4x faster, so every sum
adds in the same order and every output bit is that of the plain array
expressions.
Consecutive proposals are chained by warm-starting from the previous
embedding, which pins down rotation/reflection across frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dissim import DissimilarityMatrix
from .errors import AllZeroDissimilarity
from .ingest import Address
from .rng import SplitMix64, derive_seed

DEFAULT_MAX_ITERATIONS = 300
DEFAULT_TOLERANCE = 1e-6

# fallback jitter radius when the previous embedding has zero spread
_MIN_JITTER = 1e-3


@dataclass(frozen=True)
class MdsConfig:
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        # not NaN (no step would ever converge) nor inf (every step would)
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError("tolerance must be finite and > 0")


@dataclass(frozen=True)
class Embedding:
    proposal_id: int
    addresses: tuple[Address, ...]
    coords: np.ndarray  # (n, 2) float64
    stress: float
    iterations_used: int
    stress_path: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        coords = np.asarray(self.coords, dtype=np.float64)
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)


def _axis_views(coords: np.ndarray) -> tuple[np.ndarray, ...]:
    """Column and row views (x[:, None], x[None, :], y[:, None], y[None, :])
    of an (n, 2) coordinate array; they follow its later in-place updates."""
    return coords[:, 0, None], coords[None, :, 0], coords[:, 1, None], coords[None, :, 1]


def _fill_distances(axes: tuple[np.ndarray, ...], out: np.ndarray,
                    scratch: np.ndarray) -> None:
    """Write the Euclidean distances between the rows of the coordinate
    array behind ``axes`` (see :func:`_axis_views`) into ``out``, using
    ``scratch`` (same shape) for the second axis; the bits are those of
    ``sqrt(dx * dx + dy * dy)``."""
    x_column, x_row, y_column, y_row = axes
    np.subtract(x_column, x_row, out=out)
    np.multiply(out, out, out=out)
    np.subtract(y_column, y_row, out=scratch)
    np.multiply(scratch, scratch, out=scratch)
    np.add(out, scratch, out=out)
    np.sqrt(out, out=out)


def pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of an (n, 2) coordinate array."""
    n = coords.shape[0]
    out = np.empty((n, n))
    _fill_distances(_axis_views(coords), out, np.empty((n, n)))
    return out


def _stress_terms(cells: np.ndarray, weights: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Upper-triangle mask, target dissimilarities, their weights and the
    stress denominator."""
    upper = np.triu(np.ones(cells.shape, dtype=bool), k=1)
    target, upper_weights = cells[upper], weights[upper]
    denominator = float((upper_weights * target ** 2).sum())
    if denominator == 0.0:
        raise AllZeroDissimilarity("all dissimilarities are zero")
    return upper, target, upper_weights, denominator


def _normalized_stress(target: np.ndarray, weights: np.ndarray, denominator: float,
                       fitted: np.ndarray) -> float:
    """Normalized stress of the gathered distances ``fitted``, which are
    overwritten with the weighted squared residuals."""
    np.subtract(target, fitted, out=fitted)
    np.multiply(fitted, fitted, out=fitted)
    np.multiply(fitted, weights, out=fitted)
    return math.sqrt(float(fitted.sum()) / denominator)


def stress(d: DissimilarityMatrix, coords: np.ndarray) -> float:
    """Normalized residual stress of coords against the dissimilarities."""
    cells = d.cells
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape != (cells.shape[0], 2):
        raise ValueError(f"coords shape {coords.shape} != ({cells.shape[0]}, 2)")
    upper, target, weights, denominator = _stress_terms(cells, np.ones(cells.shape))
    return _normalized_stress(target, weights, denominator, pairwise_distances(coords)[upper])


def random_init(n: int, seed: int) -> np.ndarray:
    """Deterministic unit-square start: 2n uniforms from SplitMix64(seed)."""
    return SplitMix64(seed).uniforms(2 * n).reshape(n, 2)


def multiplicity_weights(multiplicity: np.ndarray | None, n: int) -> np.ndarray:
    """The voter count of each of n points as float64 (``None``: one each).

    Raises ValueError unless ``multiplicity`` holds n finite positive weights.
    """
    m = np.ones(n) if multiplicity is None else np.asarray(multiplicity, dtype=np.float64)
    if m.shape != (n,) or not (np.isfinite(m) & (m > 0)).all():
        raise ValueError(f"multiplicity must be {n} finite positive weights")
    return m


def mds_embed(d: DissimilarityMatrix, init: np.ndarray,
              config: MdsConfig = MdsConfig(),
              multiplicity: np.ndarray | None = None) -> Embedding:
    """Embed one dissimilarity matrix in 2D, starting from ``init``.

    ``multiplicity`` counts the voters each point stands for (``None``: one
    each). Deterministic given all four arguments; per-iteration stress is
    non-increasing and recorded in ``stress_path``.
    """
    cells = d.cells
    n = cells.shape[0]
    if n < 2:
        raise ValueError("need at least 2 points")
    if not np.all(np.isfinite(cells)):
        raise ValueError("dissimilarity matrix contains non-finite values")
    coords = np.array(init, dtype=np.float64)
    if coords.shape != (n, 2):
        raise ValueError(f"init shape {coords.shape} != ({n}, 2)")
    if not np.all(np.isfinite(coords)):
        raise ValueError("init coordinates contain non-finite values")
    m = multiplicity_weights(multiplicity, n)
    weights = np.multiply.outer(m, m)
    upper, target, upper_weights, denominator = _stress_terms(cells, weights)
    distances, scratch, b = np.empty((n, n)), np.empty((n, n)), np.empty((n, n))
    negated = np.negative(weights * cells)  # (-c) / d is -(c / d), bit for bit
    diagonal = b.reshape(-1)[::n + 1]
    scale = np.repeat(m.sum() * m, 2).reshape(n, 2)  # N m, unbroadcast: a faster divide
    transposed, product = np.empty((2, n)), np.empty((n, 2))
    axes = _axis_views(coords)
    _fill_distances(axes, distances, scratch)
    current = _normalized_stress(target, upper_weights, denominator, distances[upper])
    path = [current]
    iterations = 0
    # B = -(w cells / distances) where distances > 0, -0.0 elsewhere. A zero
    # (or nan) off-diagonal distance divides to inf or nan, so its row sum
    # is not finite; only then are those cells rewritten.
    with np.errstate(divide="ignore", invalid="ignore"):
        for iteration in range(1, config.max_iterations + 1):
            np.divide(negated, distances, out=b)
            diagonal[:] = 0.0
            sums = np.add.reduce(b, axis=1)
            if not np.isfinite(sums).all():
                b[~(distances > 0.0)] = -0.0
                diagonal[:] = 0.0
                sums = np.add.reduce(b, axis=1)
            np.negative(sums, out=diagonal)
            # X <- (B @ X) / (N m), written back into the buffer behind
            # ``axes``; einsum sums each row in numpy's order, not BLAS's
            np.copyto(transposed, coords.T)
            np.einsum("ij,kj->ik", b, transposed, out=product)
            np.divide(product, scale, out=coords)
            _fill_distances(axes, distances, scratch)
            new = _normalized_stress(target, upper_weights, denominator, distances[upper])
            path.append(new)
            iterations = iteration
            if current - new <= config.tolerance * current:
                break
            current = new
    return Embedding(
        proposal_id=d.proposal_id,
        addresses=d.addresses,
        coords=coords,
        stress=path[-1],
        iterations_used=iterations,
        stress_path=tuple(path),
    )


def warm_start(previous: Embedding | None, current_addresses: Sequence[Address],
               seed: int) -> np.ndarray:
    """Initial coordinates for the next proposal in the chain.

    Addresses seen before keep their coordinates; new addresses land near the
    previous centroid with a deterministic per-address jitter of radius at
    most 1% of the previous coordinate spread. Without a previous embedding
    all points come from :func:`random_init`.
    """
    if previous is None:
        return random_init(len(current_addresses), seed)
    index = {address: i for i, address in enumerate(previous.addresses)}
    centroid = previous.coords.mean(axis=0)
    spread = float(np.ptp(previous.coords, axis=0).max())
    radius = 0.01 * spread if spread > 0 else _MIN_JITTER
    coords = np.empty((len(current_addresses), 2))
    for i, address in enumerate(current_addresses):
        if address in index:
            coords[i] = previous.coords[index[address]]
        else:
            rng = SplitMix64(derive_seed(seed, "warm-start", address))
            angle = 2.0 * math.pi * rng.uniform()
            rho = radius * rng.uniform()
            coords[i] = centroid + rho * np.array([math.cos(angle), math.sin(angle)])
    return coords
