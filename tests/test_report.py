"""SVG chart emission: determinism, structure, error handling."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from forkcast import (
    AnalysisSpec,
    ChartSpec,
    Embedding,
    analyze_matrix,
    render_chart,
    render_mds_scatter,
)
from forkcast import report
from forkcast.report import FORK_COLOR, STAY_COLOR, label_colors

from conftest import addr


def spec_for(kind, **overrides):
    base = dict(
        kind=kind,
        title="test chart",
        series={"alpha": [1.0, 2.0, 3.0], "beta": [0.5, 0.25, 1.5]},
        x=[1.0, 2.0, 3.0],
    )
    base.update(overrides)
    return ChartSpec(**base)


@pytest.mark.parametrize("kind", ["stacked_bar", "line", "stacked_area"])
def test_kinds_render_and_are_deterministic(kind, tmp_path):
    spec = spec_for(kind, labels=["a", "b", "c"] if "bar" in kind else None,
                    x=None if "bar" in kind else [1.0, 2.0, 3.0])
    first = tmp_path / "one.svg"
    second = tmp_path / "two.svg"
    render_chart(spec, first)
    render_chart(spec, second)
    assert first.read_bytes() == second.read_bytes()
    text = first.read_text()
    assert text.startswith("<?xml")
    assert "</svg>" in text and "test chart" in text
    assert "alpha" in text and "beta" in text  # legend entries


def test_empty_chart_has_no_data_annotation(tmp_path):
    spec = ChartSpec(kind="line", title="empty", series={})
    path = tmp_path / "empty.svg"
    render_chart(spec, path)
    assert "no data" in path.read_text()


def test_inconsistent_series_rejected(tmp_path):
    spec = ChartSpec(kind="line", title="bad",
                     series={"a": [1.0, 2.0], "b": [1.0]})
    with pytest.raises(ValueError, match=r"^series lengths differ: \[1, 2\]$"):
        render_chart(spec, tmp_path / "bad.svg")
    spec = ChartSpec(kind="line", title="bad", series={"a": [1.0, 2.0]},
                     x=[1.0])
    with pytest.raises(ValueError, match="^axis length 1 != 2$"):
        render_chart(spec, tmp_path / "bad.svg")


def test_line_chart_with_one_x_value_centres_it(tmp_path):
    """With one x value the axis spans it by 0.5 on each side."""
    path = tmp_path / "one.svg"
    render_chart(ChartSpec(kind="line", title="one", series={"a": [1.0]}, x=[5.0]), path)
    assert '<polyline points="310.00,48.00"' in path.read_text()


def test_unknown_kind_rejected(tmp_path):
    with pytest.raises(ValueError):
        render_chart(ChartSpec(kind="pie", title="x", series={}),
                     tmp_path / "x.svg")


def test_sibling_csv_carries_every_value(tmp_path):
    spec = spec_for("line")
    path = tmp_path / "chart.svg"
    render_chart(spec, path)
    with open(tmp_path / "chart.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["x", "alpha", "beta"]
    values = {cell for row in rows[1:] for cell in row[1:]}
    assert values == {"1.0", "2.0", "3.0", "0.5", "0.25", "1.5"}


def test_stacked_bar_one_band_per_category(tmp_path):
    daos = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    shares = {
        "unanimous": [0.5, 0.9, 0.3, 0.6, 0.95, 0.4],
        "low": [0.2, 0.1, 0.3, 0.2, 0.05, 0.3],
        "medium": [0.2, 0.0, 0.3, 0.1, 0.0, 0.2],
        "high": [0.1, 0.0, 0.1, 0.1, 0.0, 0.1],
    }
    spec = ChartSpec(kind="stacked_bar", title="disagreement mix",
                     series=shares, labels=daos)
    path = tmp_path / "mix.svg"
    render_chart(spec, path)
    text = path.read_text()
    # 6 daos x 4 category bands, plus background and legend swatches
    assert text.count("<rect") == 6 * 4 + 1 + 4
    for dao in daos:
        assert dao in text


def embedding_for(coords) -> Embedding:
    coords = np.asarray(coords, dtype=np.float64)
    names = tuple(addr(i + 1) for i in range(len(coords)))
    return Embedding(334, names, coords, 0.05, 12)


def test_scatter_two_points(tmp_path):
    embedding = embedding_for([[0.0, 0.0], [1.0, 1.0]])
    path = tmp_path / "pair.svg"
    render_mds_scatter(embedding, [(["fork", "stay"], path)])
    text = path.read_text()
    assert text.count("<circle") == 2
    assert FORK_COLOR in text and STAY_COLOR in text
    csv_rows = (tmp_path / "pair.csv").read_text().splitlines()
    assert csv_rows[0] == "address,x,y,label"
    assert len(csv_rows) == 3


def test_scatter_label_mismatch(tmp_path):
    embedding = embedding_for([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="^3 labels for 2 addresses$"):
        render_mds_scatter(embedding, [(["fork", "stay", "stay"], tmp_path / "x.svg")])
    with pytest.raises(ValueError, match="^1 labels for 2 addresses$"):
        render_mds_scatter(embedding, [(["fork"], tmp_path / "x.svg")])
    # a bad second map stops the call before the first map is written
    with pytest.raises(ValueError, match="^1 labels for 2 addresses$"):
        render_mds_scatter(embedding, [(["fork", "stay"], tmp_path / "y.svg"),
                                       (["fork"], tmp_path / "z.svg")])
    assert not any(tmp_path.iterdir())


def test_scatter_cluster_labels_use_palette(tmp_path):
    embedding = embedding_for([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    path = tmp_path / "clusters.svg"
    render_mds_scatter(embedding, [(["0", "1", "0"], path)])
    colors = label_colors(["0", "1"])
    text = path.read_text()
    assert colors["0"] in text and colors["1"] in text


def test_scatter_determinism(tmp_path):
    embedding = embedding_for([[0.2, 0.4], [0.9, 0.1], [0.5, 0.5]])
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render_mds_scatter(embedding, [(["0", "1", "1"], a)])
    render_mds_scatter(embedding, [(["0", "1", "1"], b)])
    assert a.read_bytes() == b.read_bytes()


def test_planted_blocs_visually_separate(tmp_path):
    """Ground-truth coloring on planted geometry: the two label groups land
    on opposite sides of the map."""
    coords = np.array([[0.0, 0.1], [0.1, 0.0], [0.05, 0.05],
                       [2.0, 2.1], [2.1, 2.0], [2.05, 2.05]])
    embedding = embedding_for(coords)
    labels = ["stay"] * 3 + ["fork"] * 3
    path = tmp_path / "gt.svg"
    render_mds_scatter(embedding, [(labels, path)])
    rows = (tmp_path / "gt.csv").read_text().splitlines()[1:]
    fork_x = [float(r.split(",")[1]) for r in rows if r.endswith("fork")]
    stay_x = [float(r.split(",")[1]) for r in rows if r.endswith("stay")]
    assert min(fork_x) > max(stay_x)


def _reference_render_mds_scatter(embedding: Embedding, labels, path) -> None:
    """One map per call, every voter's point formatted in its own loop step;
    the byte-for-byte reference for :func:`render_mds_scatter`."""
    if len(labels) != len(embedding.addresses):
        raise ValueError(f"{len(labels)} labels for {len(embedding.addresses)} addresses")
    label_list = [str(v) for v in labels]
    coords = embedding.coords
    cx, cy = coords[:, 0].mean(), coords[:, 1].mean()
    span = max(float(coords[:, 0].max() - coords[:, 0].min()),
               float(coords[:, 1].max() - coords[:, 1].min()), 1e-9) * 1.1
    pixels_per_unit = min(report._PLOT_W, report._PLOT_H) / span
    colors = label_colors(label_list)
    parts = report._svg_open(f"proposal {embedding.proposal_id} voter map")
    report._axes(parts,
                 cx - report._PLOT_W / 2 / pixels_per_unit,
                 cx + report._PLOT_W / 2 / pixels_per_unit,
                 cy - report._PLOT_H / 2 / pixels_per_unit,
                 cy + report._PLOT_H / 2 / pixels_per_unit,
                 "dimension 1", "dimension 2")
    xs, ys = coords[:, 0].tolist(), coords[:, 1].tolist()
    for x, y, label in zip(xs, ys, label_list):
        px = report._LEFT + report._PLOT_W / 2 + (x - cx) * pixels_per_unit
        py = report._TOP + report._PLOT_H / 2 - (y - cy) * pixels_per_unit
        parts.append(f'<circle cx="{report._fmt(px)}" cy="{report._fmt(py)}" r="4" '
                     f'fill="{colors[label]}" fill-opacity="0.85"/>')
    report._legend(parts, [(label, colors[label]) for label in sorted(colors)])
    report._finish(parts, path, ["address", "x", "y", "label"],
                   zip(embedding.addresses, xs, ys, label_list))


def _assert_pair_matches_reference(embedding, labels, gt_labels, tmp_path) -> None:
    got, expected = tmp_path / "got", tmp_path / "expected"
    render_mds_scatter(embedding, [(labels, got / "m.svg"), (gt_labels, got / "m_gt.svg")])
    _reference_render_mds_scatter(embedding, labels, expected / "m.svg")
    _reference_render_mds_scatter(embedding, gt_labels, expected / "m_gt.svg")
    for name in ("m.svg", "m.csv", "m_gt.svg", "m_gt.csv"):
        assert (got / name).read_bytes() == (expected / name).read_bytes(), name


def test_scatter_pair_matches_two_reference_calls_on_planted_frames(planted, planted_matrix,
                                                                    tmp_path):
    """Both maps of a planted frame from one call: the cluster map and the
    ground-truth map have the bytes of one reference call each."""
    _, truth = planted
    frames = []
    analyze_matrix(planted_matrix, AnalysisSpec(root_seed=0),
                   on_frame=lambda analysis, d, voters: frames.append((analysis, voters)))
    assert any(len(set(voters.tolist())) < len(voters) for _, voters in frames)
    for analysis, _ in frames[::7]:
        labels = [str(int(v)) for v in analysis.clustering.assignments]
        gt_labels = ["fork" if a in truth.addresses else "stay"
                     for a in analysis.embedding.addresses]
        _assert_pair_matches_reference(analysis.embedding, labels, gt_labels,
                                       tmp_path / str(analysis.proposal_id))


def test_scatter_keeps_signed_zeros_apart(tmp_path):
    """-0.0 and 0.0 compare equal but print differently: rows differing
    only in a zero's sign are formatted apart."""
    embedding = embedding_for([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [0.0, 1.0], [2.0, 0.0]])
    _assert_pair_matches_reference(embedding, ["0", "0", "1", "0", "1"],
                                   ["fork", "stay", "stay", "fork", "stay"], tmp_path)
    rows = (tmp_path / "got" / "m.csv").read_text().splitlines()
    assert [row.split(",")[1:3] for row in rows[1:4]] == [["0.0", "1.0"], ["-0.0", "1.0"],
                                                          ["0.0", "-0.0"]]
