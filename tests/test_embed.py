"""Stress computation, majorization descent, and warm-start chaining."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forkcast import Embedding, MdsConfig, mds_embed, stress, warm_start
from forkcast.dissim import DissimilarityMatrix
from forkcast.embed import random_init
from forkcast.errors import AllZeroDissimilarity

from conftest import addr


def dmatrix(cells, proposal_id=1) -> DissimilarityMatrix:
    cells = np.asarray(cells, dtype=np.float64)
    names = tuple(addr(i) for i in range(1, len(cells) + 1))
    return DissimilarityMatrix(proposal_id, names, cells)


def pair_matrix(d: float) -> DissimilarityMatrix:
    return dmatrix([[0.0, d], [d, 0.0]])


def test_stress_exact_fit_two_points():
    coords = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert stress(pair_matrix(1.0), coords) == 0.0


def test_stress_collapsed_pair():
    # by the formula: sqrt((1 - 0)^2 / 1^2) = 1
    coords = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert stress(pair_matrix(1.0), coords) == 1.0


def test_stress_equilateral_exact_fit():
    cells = np.ones((3, 3)) - np.eye(3)
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    assert stress(dmatrix(cells), coords) == pytest.approx(0.0, abs=1e-12)


def test_stress_all_zero_dissimilarity():
    with pytest.raises(AllZeroDissimilarity):
        stress(dmatrix(np.zeros((3, 3))), np.zeros((3, 2)))


@given(st.floats(-5, 5), st.floats(-5, 5))
def test_stress_translation_invariance(dx, dy):
    cells = np.array([[0.0, 0.7, 0.3], [0.7, 0.0, 0.9], [0.3, 0.9, 0.0]])
    coords = np.array([[0.0, 0.1], [1.0, 0.4], [0.3, 0.8]])
    base = stress(dmatrix(cells), coords)
    moved = stress(dmatrix(cells), coords + np.array([dx, dy]))
    assert moved == pytest.approx(base, abs=1e-9)


@pytest.mark.parametrize("d", [round(0.1 * i, 1) for i in range(1, 10)])
def test_two_point_embedding_is_exact(d):
    embedding = mds_embed(pair_matrix(d), random_init(2, 17))
    distance = float(np.linalg.norm(embedding.coords[0] - embedding.coords[1]))
    assert abs(distance - d) < 1e-3
    assert embedding.stress < 1e-6


def test_determinism_bitwise():
    cells = np.array([[0.0, 0.4, 0.8], [0.4, 0.0, 0.6], [0.8, 0.6, 0.0]])
    a = mds_embed(dmatrix(cells), random_init(3, 5))
    b = mds_embed(dmatrix(cells), random_init(3, 5))
    assert np.array_equal(a.coords, b.coords)
    assert a.stress == b.stress and a.iterations_used == b.iterations_used


def test_identical_init_identical_output():
    cells = np.array([[0.0, 0.4, 0.8], [0.4, 0.0, 0.6], [0.8, 0.6, 0.0]])
    init = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    a = mds_embed(dmatrix(cells), init=init)
    b = mds_embed(dmatrix(cells), init=init)
    assert np.array_equal(a.coords, b.coords)


def test_config_defaults():
    config = MdsConfig()
    assert config.max_iterations == 300
    assert config.tolerance == 1e-6


def test_stress_path_monotone_on_random_instance():
    rng = np.random.default_rng(3)
    n = 12
    cells = rng.uniform(0.05, 1.0, (n, n))
    cells = (cells + cells.T) / 2
    np.fill_diagonal(cells, 0.0)
    embedding = mds_embed(dmatrix(cells), random_init(n, 1))
    path = embedding.stress_path
    assert all(path[i + 1] <= path[i] + 1e-12 for i in range(len(path) - 1))
    assert embedding.iterations_used <= 300


def test_rejects_non_finite():
    cells = np.array([[0.0, np.nan], [np.nan, 0.0]])
    with pytest.raises(ValueError,
                       match="^dissimilarity matrix contains non-finite values$"):
        mds_embed(dmatrix(cells), random_init(2, 0))
    with pytest.raises(ValueError, match="^init coordinates contain non-finite values$"):
        mds_embed(pair_matrix(0.5), init=np.array([[0.0, np.inf], [0.0, 0.0]]))


def test_rejects_degenerate_arguments():
    with pytest.raises(ValueError, match="^max_iterations must be >= 1$"):
        MdsConfig(max_iterations=0)
    with pytest.raises(ValueError, match="^need at least 2 points$"):
        mds_embed(dmatrix([[0.0]]), random_init(1, 0))
    with pytest.raises(ValueError, match=r"^init shape \(3, 2\) != \(2, 2\)$"):
        mds_embed(pair_matrix(0.5), random_init(3, 0))


def test_embedding_correlates_with_planted_blocs():
    from scipy.stats import spearmanr

    rng = np.random.default_rng(11)
    n = 20
    half = n // 2
    cells = np.empty((n, n))
    for i in range(n):
        for k in range(n):
            same = (i < half) == (k < half)
            cells[i, k] = 0.1 if same else 0.9
    jitter = rng.uniform(-0.03, 0.03, (n, n))
    cells += (jitter + jitter.T) / 2
    np.fill_diagonal(cells, 0.0)
    embedding = mds_embed(dmatrix(cells), random_init(n, 2))
    upper = np.triu_indices(n, k=1)
    deltas = embedding.coords[:, None, :] - embedding.coords[None, :, :]
    distances = np.sqrt((deltas ** 2).sum(axis=2))
    rho = spearmanr(cells[upper], distances[upper]).statistic
    assert rho >= 0.8


def test_warm_start_identity_carry_over():
    coords = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    names = (addr(1), addr(2), addr(3))
    previous = Embedding(1, names, coords, 0.1, 5)
    init = warm_start(previous, names, seed=9)
    assert np.array_equal(init, coords)


def test_warm_start_new_address_near_centroid():
    coords = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0], [4.0, 0.0]])
    names = tuple(addr(i) for i in range(1, 6))
    previous = Embedding(1, names, coords, 0.1, 5)
    current = names[:5] + (addr(99),)
    init = warm_start(previous, current, seed=9)
    assert np.array_equal(init[:5], coords)
    centroid = coords.mean(axis=0)
    spread = max(coords[:, 0].max() - coords[:, 0].min(),
                 coords[:, 1].max() - coords[:, 1].min())
    assert np.linalg.norm(init[5] - centroid) <= 0.01 * spread + 1e-12


def test_warm_start_without_previous_is_seeded_unit_square():
    a = warm_start(None, (addr(1), addr(2)), seed=4)
    b = random_init(2, 4)
    assert np.array_equal(a, b)
    assert np.all((a >= 0.0) & (a < 1.0))


def test_warm_start_jitter_is_per_address_deterministic():
    coords = np.array([[0.0, 0.0], [1.0, 1.0]])
    previous = Embedding(1, (addr(1), addr(2)), coords, 0.0, 1)
    one = warm_start(previous, (addr(1), addr(2), addr(7)), seed=3)
    two = warm_start(previous, (addr(1), addr(2), addr(6), addr(7)), seed=3)
    assert np.array_equal(one[2], two[3])  # addr(7) unaffected by addr(6)


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_random_init_deterministic_and_bounded(seed):
    a, b = random_init(5, seed), random_init(5, seed)
    assert np.array_equal(a, b)
    assert np.all((a >= 0.0) & (a < 1.0))


def _reference_distances(coords: np.ndarray) -> np.ndarray:
    deltas = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((deltas ** 2).sum(axis=2))


def _reference_stress(cells: np.ndarray, coords: np.ndarray) -> float:
    upper = np.triu_indices(cells.shape[0], k=1)
    denominator = float((cells[upper] ** 2).sum())
    distances = _reference_distances(coords)
    numerator = float(((cells[upper] - distances[upper]) ** 2).sum())
    return math.sqrt(numerator / denominator)


def _reference_guttman(cells: np.ndarray, coords: np.ndarray,
                       config: MdsConfig) -> tuple[np.ndarray, list[float], int]:
    """The majorization loop that recomputes every distance in every step;
    the bit-for-bit reference for :func:`mds_embed`."""
    n = cells.shape[0]
    current = _reference_stress(cells, coords)
    path = [current]
    iterations = 0
    for iteration in range(1, config.max_iterations + 1):
        distances = _reference_distances(coords)
        positive = distances > 0
        ratio = np.where(positive, cells / np.where(positive, distances, 1.0), 0.0)
        b = -ratio
        np.fill_diagonal(b, 0.0)
        np.fill_diagonal(b, -b.sum(axis=1))
        coords = np.einsum("ij,kj->ik", b, np.ascontiguousarray(coords.T)) / n
        new = _reference_stress(cells, coords)
        path.append(new)
        iterations = iteration
        if current - new <= config.tolerance * current:
            break
        current = new
    return coords, path, iterations


@pytest.mark.parametrize("seed,config,n,copies",
                         [(4, MdsConfig(), 40, 0),
                          (9, MdsConfig(max_iterations=40, tolerance=1e-15), 40, 0),
                          (2, MdsConfig(max_iterations=4, tolerance=1e-15), 300, 0),
                          (5, MdsConfig(max_iterations=40, tolerance=1e-15), 40, 4),
                          (6, MdsConfig(max_iterations=40, tolerance=1e-15), 2, 0),
                          (7, MdsConfig(max_iterations=40, tolerance=1e-15), 3, 0),
                          (8, MdsConfig(max_iterations=40, tolerance=1e-15), 3, 1)],
                         ids=["config0", "config1", "n300", "coincident", "n2", "n3",
                              "n3-coincident"])
def test_mds_embed_matches_reference_loop_bitwise(seed, config, n, copies):
    """n = 300 puts every row sum and the stress sum past numpy's
    128-element pairwise-summation block. With ``copies``, the last rows
    repeat the first ones in the cells and the start, so those points stay
    coincident: zero distances against zero cells in every step."""
    rng = np.random.default_rng(40)
    cells = rng.uniform(0.0, 1.0, (n, n))
    cells = (cells + cells.T) / 2
    np.fill_diagonal(cells, 0.0)
    rows = np.r_[np.arange(n - copies), np.arange(copies)]
    cells = cells[np.ix_(rows, rows)]
    init = random_init(n, seed)[rows]
    embedding = mds_embed(dmatrix(cells), init, config)
    coords, path, iterations = _reference_guttman(cells, init, config)
    assert np.array_equal(embedding.coords, coords)
    assert embedding.stress_path == tuple(path)
    assert embedding.iterations_used == iterations
    assert embedding.stress == stress(dmatrix(cells), embedding.coords)


def test_stress_rejects_coords_that_are_not_planar():
    with pytest.raises(ValueError):
        stress(pair_matrix(1.0), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        stress(pair_matrix(1.0), np.zeros((3, 2)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=2, max_size=6), st.data())
def test_weighted_step_equals_unweighted_step_on_expanded_points(counts, data):
    """A point of multiplicity m is m coincident voters: one weighted Guttman
    step on the patterns moves them as one unweighted step moves the voters."""
    u = len(counts)
    values = data.draw(st.lists(st.floats(0.05, 1.0), min_size=u * u, max_size=u * u))
    cells = np.reshape(values, (u, u))
    cells = (cells + cells.T) / 2
    np.fill_diagonal(cells, 0.0)
    init = random_init(u, data.draw(st.integers(0, 2**32 - 1)))
    voters = np.repeat(np.arange(u), counts)
    config = MdsConfig(max_iterations=1)
    patterns = mds_embed(dmatrix(cells), init, config, np.array(counts))
    expanded = mds_embed(dmatrix(cells[np.ix_(voters, voters)]), init[voters], config)
    assert np.allclose(patterns.coords[voters], expanded.coords, rtol=0.0, atol=1e-12)
    assert np.allclose(patterns.stress_path, expanded.stress_path, rtol=0.0, atol=1e-12)


def test_unit_multiplicity_is_unweighted_bitwise():
    rng = np.random.default_rng(12)
    n = 40
    cells = rng.uniform(0.0, 1.0, (n, n))
    cells = (cells + cells.T) / 2
    np.fill_diagonal(cells, 0.0)
    config = MdsConfig(max_iterations=40, tolerance=1e-15)
    plain = mds_embed(dmatrix(cells), random_init(n, 3), config)
    unit = mds_embed(dmatrix(cells), random_init(n, 3), config, np.ones(n))
    assert np.array_equal(plain.coords, unit.coords)
    assert plain.stress_path == unit.stress_path


@pytest.mark.parametrize("multiplicity", [[1.0, 0.0], [1.0, np.nan], [1.0, np.inf], [1.0]])
def test_rejects_bad_multiplicity(multiplicity):
    with pytest.raises(ValueError, match="^multiplicity must be 2 finite positive weights$"):
        mds_embed(pair_matrix(0.5), random_init(2, 0), MdsConfig(), np.array(multiplicity))
