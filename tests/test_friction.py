"""Disagreement metrics, rolling means, and the flagging rule."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from forkcast import (
    DisagreementRecord,
    build_voter_matrix,
    flag_dao,
    rolling_disagreement,
    static_disagreement,
)
from forkcast.errors import EmptyInput
from forkcast.friction import CATEGORIES, categorize, category_shares, to_csv

from conftest import events_from_rows, make_matrix


def column_matrix(yes: int, no: int, others: int = 0):
    rows = [[1]] * yes + [[0]] * no + [[-1]] * others
    extra = [[1 if i == 0 else -1] for i in range(len(rows))]
    cells = [[rows[i][0], extra[i][0]] for i in range(len(rows))]
    return make_matrix(cells, proposal_ids=[1, 2])


def test_unanimous_column():
    record = static_disagreement(column_matrix(yes=10, no=0))[0]
    assert record.disagreement == 0.0
    assert record.category == "unanimous"


def test_three_two_split_is_high_boundary():
    record = static_disagreement(column_matrix(yes=3, no=2, others=4))[0]
    assert record.disagreement == pytest.approx(0.4)
    assert record.category == "high"  # the 0.40 boundary is inclusive


def test_tie_counts_as_half():
    record = static_disagreement(column_matrix(yes=5, no=5))[0]
    assert record.disagreement == 0.5
    assert record.category == "high"


@given(st.integers(0, 40), st.integers(0, 40))
def test_label_swap_invariance(yes, no):
    if yes + no == 0:
        return
    a = static_disagreement(column_matrix(yes=yes, no=no))[0]
    b = static_disagreement(column_matrix(yes=no, no=yes))[0]
    assert a.disagreement == b.disagreement
    assert a.category == b.category


@given(st.floats(0.0, 0.5))
def test_category_partition_is_exhaustive_and_exclusive(value):
    category = categorize(value)
    assert category in CATEGORIES
    expected = ("unanimous" if value == 0 else
                "low" if value < 0.20 else
                "medium" if value < 0.40 else "high")
    assert category == expected


def test_categorize_rejects_out_of_range():
    with pytest.raises(ValueError):
        categorize(0.51)
    with pytest.raises(ValueError):
        categorize(-0.01)


def test_rolling_and_shares_reject_degenerate_input():
    with pytest.raises(ValueError, match="^window must be >= 1$"):
        rolling_disagreement(_records([0.1, 0.3]), window=0)
    with pytest.raises(EmptyInput, match="^no disagreement records$"):
        category_shares(())


def _records(values):
    return [DisagreementRecord(i + 1, v, categorize(v)) for i, v in enumerate(values)]


def test_rolling_constant_series():
    rolling = rolling_disagreement(_records([0.3] * 7), window=10)
    assert [value for _, value in rolling] == [0.3] * 7


def test_rolling_short_history_mean():
    rolling = rolling_disagreement(_records([0.0, 0.5]), window=10)
    assert rolling == [(1, 0.0), (2, 0.25)]


def test_rolling_window_slides():
    rolling = rolling_disagreement(_records([0.5, 0.5, 0.0, 0.0]), window=2)
    assert [value for _, value in rolling] == [0.5, 0.5, 0.25, 0.0]


@given(st.lists(st.floats(0.0, 0.5), min_size=1, max_size=30),
       st.integers(1, 12))
def test_rolling_bounded_by_inputs(values, window):
    rolling = rolling_disagreement(_records(values), window)
    assert len(rolling) == len(values)
    for _, mean in rolling:
        assert min(values) - 1e-12 <= mean <= max(values) + 1e-12


def _flag(shares, rolling_values):
    return flag_dao(shares, [(i + 1, v) for i, v in enumerate(rolling_values)])


SHARES_QUIET = {"unanimous": 0.8, "low": 0.2, "medium": 0.0, "high": 0.0}
SHARES_LOUD = {"unanimous": 0.3, "low": 0.4, "medium": 0.2, "high": 0.1}


def test_flag_requires_both_conditions():
    assert _flag(SHARES_LOUD, [0.05, 0.2])
    assert not _flag(SHARES_QUIET, [0.2])  # share condition fails
    # 25% medium+high but rolling never exceeds 0.15
    shares = {"unanimous": 0.5, "low": 0.25, "medium": 0.2, "high": 0.05}
    assert not _flag(shares, [0.10, 0.08])


def test_flag_share_boundary_is_strict():
    shares = {"unanimous": 0.8, "low": 0.0, "medium": 0.1, "high": 0.1}
    assert not _flag(shares, [0.5])  # exactly 0.20 does not exceed


def test_build_friction_report_end_to_end():
    # p1: 2-1 split (0.333 medium), p2: unanimous, p3: 1-1 tie (0.5 high)
    rows = [
        [1, 1, 1],
        [1, 1, 0],
        [0, 1, -1],
    ]
    matrix = build_voter_matrix(events_from_rows(rows))
    from forkcast import build_friction_report

    report = build_friction_report(matrix, window=2)
    assert [r.proposal_id for r in report.records] == [1, 2, 3]
    assert [r.category for r in report.records] == ["medium", "unanimous", "high"]
    assert report.category_shares["medium"] == pytest.approx(1 / 3)
    means = [value for _, value in report.rolling]
    assert means == pytest.approx([1 / 3, 1 / 6, 0.25])
    assert report.flagged  # shares 2/3 contentious, max rolling 1/3


def test_category_shares_sum_to_one():
    shares = category_shares(_records([0.0, 0.1, 0.25, 0.45, 0.5]))
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["high"] == pytest.approx(0.4)


def test_friction_csv(tmp_path):
    from forkcast import build_friction_report

    matrix = build_voter_matrix(events_from_rows([[1, 1], [0, 1]]))
    report = build_friction_report(matrix)
    path = tmp_path / "friction.csv"
    to_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "proposal_id,disagreement,category,rolling_mean"
    assert lines[1:] == ["1,0.5,high,0.5", "2,0.0,unanimous,0.25"]
