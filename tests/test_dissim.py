"""Sliding windows, participation filtering, and dissimilarity matrices."""

from __future__ import annotations

import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from forkcast import MdsConfig, WindowSpec, active_set, dissimilarity_matrix
from forkcast.dissim import distinct_patterns
from forkcast.errors import EmptyActiveSet

from conftest import addr, make_matrix


def brute_force_dissim(window_cells: np.ndarray) -> np.ndarray:
    """Direct pair-by-pair re-count over raw window cells (the oracle)."""
    n = len(window_cells)
    out = np.zeros((n, n))
    for i in range(n):
        for k in range(i + 1, n):
            shared = opposing = 0
            for a, b in zip(window_cells[i], window_cells[k]):
                if a >= 0 and b >= 0:
                    shared += 1
                    if a != b:
                        opposing += 1
            out[i, k] = out[k, i] = opposing / shared if shared else 1.0
    return out


def full_matrix(m: int, proposal_ids: list[int] | None = None):
    """Two voters who vote on every one of m proposals."""
    return make_matrix([[1] * m, [0] * m], proposal_ids)


def test_window_tail():
    active = active_set(full_matrix(30), j=20, spec=WindowSpec(10, 0.0))
    assert active.columns == range(10, 20)


def test_window_history_start():
    matrix = full_matrix(3)
    assert active_set(matrix, j=2, spec=WindowSpec(10, 0.0)).columns == range(0, 2)
    assert active_set(matrix, j=3, spec=WindowSpec(10, 0.0)).columns == range(0, 3)


def test_window_positions_not_ids():
    # gaps from dropped proposals must not shrink windows
    matrix = full_matrix(4, proposal_ids=[1, 5, 9, 40])
    active = active_set(matrix, j=4, spec=WindowSpec(2, 0.0))
    assert [matrix.proposal_ids[c] for c in active.columns] == [9, 40]
    assert active.proposal_id == 40


def test_window_out_of_range():
    matrix = full_matrix(2)
    with pytest.raises(ValueError, match="^position 3 outside analyzable range 2..2$"):
        active_set(matrix, j=3, spec=WindowSpec(2, 0.0))
    with pytest.raises(ValueError, match="^position 0 outside analyzable range 2..2$"):
        active_set(matrix, j=0, spec=WindowSpec(2, 0.0))


def test_active_set_threshold_inclusive():
    # participations over the 10-window: 1.0, 0.4, 0.3
    rows = [
        [1] * 10,
        [1, 1, 1, 1] + [-1] * 6,
        [1, 1, 1] + [-1] * 7,
    ]
    matrix = make_matrix(rows)
    active = active_set(matrix, j=10, spec=WindowSpec(10, 0.40))
    assert active.addresses == (addr(1), addr(2))  # addr(2) sits at exactly 0.4
    assert active.rows == (0, 1)
    assert active.columns == range(0, 10)


def test_active_set_empty_is_error():
    rows = [[1] + [-1] * 9, [0] + [-1] * 9, [-1] * 9 + [1]]
    matrix = make_matrix(rows)
    with pytest.raises(EmptyActiveSet):
        active_set(matrix, j=10, spec=WindowSpec(10, 0.40))


def test_active_set_skips_first_proposal():
    matrix = make_matrix([[1, 1], [0, 0]])
    with pytest.raises(ValueError, match="^position 1 outside analyzable range 2..2$"):
        active_set(matrix, j=1, spec=WindowSpec())
    active = active_set(matrix, j=2, spec=WindowSpec())
    assert active.proposal_id == 2


@given(st.integers(2, 8).flatmap(
           lambda m: st.tuples(arrays(np.int8, st.tuples(st.integers(1, 8), st.just(m)),
                                      elements=st.sampled_from([1, 0, -1])),
                               st.integers(2, m))),
       st.integers(1, 10), st.sampled_from([0.0, 0.4, 1.0]))
def test_active_set_rows_and_columns_are_matrix_positions(cells_and_j, w, threshold):
    cells, j = cells_and_j
    matrix = make_matrix(cells.tolist())
    try:
        active = active_set(matrix, j, WindowSpec(w, threshold))
    except EmptyActiveSet:
        return
    assert active.columns == range(max(0, j - w), j)
    assert active.addresses == tuple(matrix.addresses[r] for r in active.rows)
    window = [[cells[i][c] for c in active.columns] for i in range(len(cells))]
    assert list(active.rows) == [
        i for i, row in enumerate(window)
        if sum(v >= 0 for v in row) / len(row) >= threshold]


def test_dissimilarity_identical_vectors():
    matrix = make_matrix([[1, 0, 1], [1, 0, 1]])
    active = active_set(matrix, j=3, spec=WindowSpec(3, 0.0))
    d = dissimilarity_matrix(matrix, active)
    assert d.cells[0, 1] == 0.0


def test_dissimilarity_half_opposing():
    # 4 shared proposals, opposing on 2
    matrix = make_matrix([[1, 1, 0, 0], [1, 1, 1, 1]])
    active = active_set(matrix, j=4, spec=WindowSpec(4, 0.0))
    d = dissimilarity_matrix(matrix, active)
    assert d.cells[0, 1] == 0.5


def test_dissimilarity_no_overlap_is_one():
    matrix = make_matrix([[1, 1, -1, -1], [-1, -1, 0, 0]])
    active = active_set(matrix, j=4, spec=WindowSpec(4, 0.5))
    d = dissimilarity_matrix(matrix, active)
    assert d.cells[0, 1] == 1.0


def test_dissimilarity_of_a_one_row_active_set_is_a_bug():
    """``active_set`` never yields fewer than two rows, so a hand-built one
    is a caller's bug, not a skip."""
    matrix = full_matrix(3)
    active = dataclasses.replace(active_set(matrix, j=3, spec=WindowSpec(2, 0.0)),
                                 rows=(0,), addresses=(matrix.addresses[0],))
    with pytest.raises(ValueError, match="^need at least 2 active addresses$"):
        dissimilarity_matrix(matrix, active)


def random_window_cells(draw) -> np.ndarray:
    n = draw(st.integers(2, 10))
    w = draw(st.integers(1, 10))
    return draw(arrays(np.int8, (n, w), elements=st.sampled_from([1, 0, -1])))


@st.composite
def window_cells(draw):
    return random_window_cells(draw)


@given(window_cells())
@settings(max_examples=150)
def test_oracle_equivalence(cells):
    n, w = cells.shape
    matrix = make_matrix(cells.tolist())
    active = active_set(matrix, j=w, spec=WindowSpec(w, 0.0)) if w >= 2 else None
    if active is None:
        # single-column matrices are not analyzable; check the math directly
        return
    d = dissimilarity_matrix(matrix, active)
    assert np.array_equal(d.cells, brute_force_dissim(cells))


@given(window_cells())
def test_symmetry_diagonal_bounds(cells):
    w = cells.shape[1]
    if w < 2:
        return
    matrix = make_matrix(cells.tolist())
    d = dissimilarity_matrix(matrix, active_set(matrix, j=w, spec=WindowSpec(w, 0.0)))
    assert np.array_equal(d.cells, d.cells.T)
    assert np.all(np.diag(d.cells) == 0.0)
    assert np.all((d.cells >= 0.0) & (d.cells <= 1.0))


@given(window_cells())
def test_agreement_never_increases_dissimilarity(cells):
    w = cells.shape[1]
    if w < 2:
        return
    matrix = make_matrix(cells.tolist())
    before = dissimilarity_matrix(
        matrix, active_set(matrix, j=w, spec=WindowSpec(w, 0.0))).cells
    agreed = np.hstack([cells, np.ones((cells.shape[0], 1), dtype=np.int8)])
    bigger = make_matrix(agreed.tolist())
    after = dissimilarity_matrix(
        bigger, active_set(bigger, j=w + 1, spec=WindowSpec(w + 1, 0.0))).cells
    assert np.all(after <= before + 1e-15)


@given(window_cells(), st.randoms(use_true_random=False))
def test_invariant_under_address_relabeling(cells, rnd):
    """Renaming addresses (hence reordering rows) permutes the output
    consistently: cells are equal when looked up by address."""
    n, w = cells.shape
    if w < 2:
        return
    matrix = make_matrix(cells.tolist())
    names = [addr(i) for i in range(1, n + 1)]
    new_names = [addr(i + 100) for i in range(n)]
    rnd.shuffle(new_names)
    mapping = dict(zip(names, new_names))
    renamed_rows = sorted(zip([mapping[a] for a in names], cells.tolist()))
    from forkcast.matrix import VoterMatrix

    renamed = VoterMatrix(tuple(a for a, _ in renamed_rows),
                          matrix.proposal_ids,
                          np.asarray([r for _, r in renamed_rows], dtype=np.int8))
    d1 = dissimilarity_matrix(matrix, active_set(matrix, j=w, spec=WindowSpec(w, 0.0)))
    d2 = dissimilarity_matrix(renamed, active_set(renamed, j=w, spec=WindowSpec(w, 0.0)))
    index2 = {a: i for i, a in enumerate(d2.addresses)}
    for i, a in enumerate(d1.addresses):
        for k, b in enumerate(d1.addresses):
            assert d2.cells[index2[mapping[a]], index2[mapping[b]]] == d1.cells[i, k]


def test_csv_export(tmp_path):
    matrix = make_matrix([[1, 0], [0, 0]])
    d = dissimilarity_matrix(matrix, active_set(matrix, j=2, spec=WindowSpec(2, 0.0)))
    path = tmp_path / "d.csv"
    from forkcast.dissim import to_csv

    to_csv(d, d.addresses, np.arange(2), path)
    lines = path.read_text().splitlines()
    assert lines[0] == f"address,{addr(1)},{addr(2)}"
    assert lines[1].split(",")[1] == "0.0"


def test_csv_export_formats_every_cell_as_its_repr(tmp_path):
    from forkcast.dissim import DissimilarityMatrix, to_csv

    rng = np.random.default_rng(3)
    n = 40
    cells = rng.integers(0, 8, (n, n)) / rng.integers(1, 8, (n, n))
    cells[rng.uniform(size=(n, n)) < 0.2] = rng.uniform(0, 1)
    cells = np.minimum(cells, 1.0)
    np.fill_diagonal(cells, 0.0)
    addresses = tuple(addr(i) for i in range(n))
    path = tmp_path / "d.csv"
    to_csv(DissimilarityMatrix(7, addresses, cells), addresses, np.arange(n), path)
    expected = [",".join(["address", *addresses])]
    expected += [",".join([a, *(repr(float(v)) for v in row)])
                 for a, row in zip(addresses, cells)]
    assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"


def _reference_to_csv(d, path) -> None:
    """The dissimilarity CSV written field by field through ``csv.writer``;
    the byte-for-byte reference for :func:`forkcast.dissim.to_csv`."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["address", *d.addresses])
        for address, row in zip(d.addresses, d.cells.tolist()):
            writer.writerow([address, *(repr(value) for value in row)])


def test_csv_export_matches_csv_writer_on_a_wide_window(tmp_path):
    """300 voters over a 10-proposal window: the joined rows are the bytes
    ``csv.writer`` writes."""
    from forkcast.dissim import to_csv
    from forkcast.ingest import normalize_address

    rng = np.random.default_rng(10)
    n, w = 300, 10
    votes = rng.choice([-1, 0, 1], size=(n, w), p=[0.2, 0.4, 0.4])
    matrix = make_matrix(votes.tolist())
    d = dissimilarity_matrix(matrix, active_set(matrix, j=w, spec=WindowSpec(w, 0.0)))
    assert len(d.addresses) == n
    assert all(normalize_address(a) == a for a in d.addresses)
    assert len(np.unique(d.cells)) > 10
    written, reference = tmp_path / "a.csv", tmp_path / "b.csv"
    to_csv(d, d.addresses, np.arange(n), written)
    _reference_to_csv(d, reference)
    assert written.read_bytes() == reference.read_bytes()


def _assert_pattern_export_matches_reference(matrix, active, d, voters, tmp_path):
    """``to_csv`` of the pattern matrix ``d`` writes the bytes of the
    per-voter matrix over the whole active set."""
    from forkcast.dissim import to_csv

    written, reference = tmp_path / "patterns.csv", tmp_path / "voters.csv"
    to_csv(d, active.addresses, voters, written)
    _reference_to_csv(dissimilarity_matrix(matrix, active), reference)
    assert written.read_bytes() == reference.read_bytes()


def test_pattern_export_matches_reference_on_planted_frames(planted_matrix, tmp_path):
    """Every planted frame the pipeline hands on, repeated patterns included."""
    from forkcast import AnalysisSpec, analyze_matrix

    position = {pid: j for j, pid in enumerate(planted_matrix.proposal_ids, start=1)}
    merged = []

    def check(analysis, d, voters):
        active = active_set(planted_matrix, position[analysis.proposal_id], WindowSpec())
        assert active.addresses == analysis.embedding.addresses
        _assert_pattern_export_matches_reference(planted_matrix, active, d, voters,
                                                 tmp_path)
        merged.append(len(d.addresses) < len(voters))

    result = analyze_matrix(planted_matrix, AnalysisSpec(mds=MdsConfig(max_iterations=5)),
                            on_frame=check)
    assert len(merged) == len(result.analyses) and any(merged)


def test_pattern_export_matches_reference_with_voteless_rows(tmp_path):
    """At threshold 0, rows with no valid vote in the window stay apart (1.0
    off the diagonal) while repeated voting rows share one pattern."""
    rows = [[1, 0, -1, -1], [1, 1, 1, 0], [0, 1, -1, -1], [1, 1, 1, 0],
            [0, 0, 0, 1], [1, 0, 1, 0], [0, 0, 0, 1]]
    matrix = make_matrix(rows)
    active = active_set(matrix, 4, WindowSpec(2, 0.0))
    patterns, voters, counts = distinct_patterns(matrix, active)
    assert len(active.rows) == 7 and counts.tolist() == [1, 3, 1, 2]
    _assert_pattern_export_matches_reference(
        matrix, active, dissimilarity_matrix(matrix, patterns), voters, tmp_path)


def test_pattern_export_matches_reference_on_a_wide_window(tmp_path):
    """300 voters drawn from 8 distinct 10-proposal rows."""
    rng = np.random.default_rng(11)
    n, w = 300, 10
    distinct = rng.choice([-1, 0, 1], size=(8, w), p=[0.2, 0.4, 0.4])
    matrix = make_matrix(distinct[rng.integers(0, 8, n)].tolist())
    active = active_set(matrix, w, WindowSpec(w, 0.0))
    patterns, voters, _ = distinct_patterns(matrix, active)
    assert len(active.rows) == n and len(patterns.rows) <= 8
    _assert_pattern_export_matches_reference(
        matrix, active, dissimilarity_matrix(matrix, patterns), voters, tmp_path)


def test_window_spec_validation():
    with pytest.raises(ValueError):
        WindowSpec(0, 0.4)
    with pytest.raises(ValueError):
        WindowSpec(10, 1.5)
    spec = WindowSpec()
    assert spec.window_size == 10 and spec.participation_threshold == 0.40
