"""Deterministic SVG charts with their CSV siblings, and ``write_csv``, the
one writer of every output table except ``dissim.to_csv``'s.

Rendering is a pure function of the inputs: identical specs yield
byte-identical SVG, which keeps the artifacts golden-testable. Every chart
writes a sibling ``.csv`` next to the ``.svg`` carrying the same numbers.
Color conventions: fork cohort red, stayers blue, clusters from a fixed
ten-color palette. ``write_csv`` quotes a field only when it needs it and
writes a float as its ``repr``, so callers pass ``ndarray.tolist()`` values:
a numpy scalar's ``repr`` is not its value's.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

# a runtime import would close the cycle matrix -> report -> embed -> dissim -> matrix
if TYPE_CHECKING:
    from .embed import Embedding

PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")
FORK_COLOR = "#d62728"
STAY_COLOR = "#1f77b4"

KINDS = ("stacked_bar", "line", "stacked_area")

_WIDTH, _HEIGHT = 720.0, 440.0
_LEFT, _RIGHT, _TOP, _BOTTOM = 70.0, 170.0, 48.0, 56.0
_PLOT_W = _WIDTH - _LEFT - _RIGHT
_PLOT_H = _HEIGHT - _TOP - _BOTTOM


@dataclass(frozen=True)
class ChartSpec:
    kind: str
    title: str
    series: Mapping[str, Sequence[float]]
    x: Sequence[float] | None = None
    labels: Sequence[str] | None = None
    color_map: Mapping[str, str] = field(default_factory=dict)
    x_label: str = ""
    y_label: str = ""


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def _color(spec: ChartSpec, name: str, index: int) -> str:
    return spec.color_map.get(name, PALETTE[index % len(PALETTE)])


def _validate(spec: ChartSpec) -> int:
    if spec.kind not in KINDS:
        raise ValueError(f"unknown chart kind {spec.kind!r}")
    lengths = {len(values) for values in spec.series.values()}
    if len(lengths) > 1:
        raise ValueError(f"series lengths differ: {sorted(lengths)}")
    n = lengths.pop() if lengths else 0
    for axis in (spec.x, spec.labels):
        if axis is not None and len(axis) != n:
            raise ValueError(f"axis length {len(axis)} != {n}")
    return n


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _svg_open(title: str) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
        f'height="{_HEIGHT:.0f}" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}" '
        'font-family="Helvetica, Arial, sans-serif">',
        f'<rect width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="28" text-anchor="middle" '
        f'font-size="16">{_esc(title)}</text>',
    ]


def _axes(parts: list[str], x_lo: float, x_hi: float, y_lo: float, y_hi: float,
          x_label: str, y_label: str,
          x_tick_labels: Sequence[tuple[float, str]] | None = None) -> None:
    bottom = _TOP + _PLOT_H
    right = _LEFT + _PLOT_W
    parts.append(f'<line x1="{_fmt(_LEFT)}" y1="{_fmt(bottom)}" x2="{_fmt(right)}" '
                 f'y2="{_fmt(bottom)}" stroke="black"/>')
    parts.append(f'<line x1="{_fmt(_LEFT)}" y1="{_fmt(_TOP)}" x2="{_fmt(_LEFT)}" '
                 f'y2="{_fmt(bottom)}" stroke="black"/>')
    for tick in _ticks(y_lo, y_hi):
        y = bottom - (tick - y_lo) / (y_hi - y_lo or 1.0) * _PLOT_H
        parts.append(f'<line x1="{_fmt(_LEFT - 4)}" y1="{_fmt(y)}" '
                     f'x2="{_fmt(_LEFT)}" y2="{_fmt(y)}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(_LEFT - 8)}" y="{_fmt(y + 4)}" '
                     f'text-anchor="end" font-size="11">{tick:.4g}</text>')
    if x_tick_labels is None:
        x_tick_labels = [(t, f"{t:.4g}") for t in _ticks(x_lo, x_hi)]
    for tick, text in x_tick_labels:
        x = _LEFT + (tick - x_lo) / (x_hi - x_lo or 1.0) * _PLOT_W
        parts.append(f'<line x1="{_fmt(x)}" y1="{_fmt(bottom)}" '
                     f'x2="{_fmt(x)}" y2="{_fmt(bottom + 4)}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{_fmt(bottom + 18)}" '
                     f'text-anchor="middle" font-size="11">{_esc(text)}</text>')
    if x_label:
        parts.append(f'<text x="{_fmt(_LEFT + _PLOT_W / 2)}" y="{_fmt(_HEIGHT - 12)}" '
                     f'text-anchor="middle" font-size="12">{_esc(x_label)}</text>')
    if y_label:
        parts.append(f'<text x="16" y="{_fmt(_TOP + _PLOT_H / 2)}" font-size="12" '
                     f'text-anchor="middle" transform="rotate(-90 16 '
                     f'{_fmt(_TOP + _PLOT_H / 2)})">{_esc(y_label)}</text>')


def _legend(parts: list[str], entries: Sequence[tuple[str, str]]) -> None:
    x = _LEFT + _PLOT_W + 16
    for i, (name, color) in enumerate(entries):
        y = _TOP + 14 * i
        parts.append(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="10" height="10" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{_fmt(x + 14)}" y="{_fmt(y + 9)}" '
                     f'font-size="11">{_esc(name)}</text>')


def write_csv(path: str | Path, header: Sequence[object],
              rows: Iterable[Sequence[object]]) -> None:
    """Write ``header`` and ``rows`` as UTF-8 CSV at ``path``, making its
    directory. ``None`` is written as an empty field."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str | Path, payload: object) -> None:
    """Write ``payload`` as indented UTF-8 JSON at ``path``, making its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _finish(parts: list[str], path: str | Path, header: Sequence[object],
            rows: Iterable[Sequence[object]]) -> None:
    """Close the SVG in ``parts``, write it to ``path`` and its data to
    ``path``.csv."""
    path = Path(path)
    write_csv(path.with_suffix(".csv"), header, rows)  # makes the directory
    parts.append("</svg>")
    path.write_bytes(("\n".join(parts) + "\n").encode("utf-8"))


def render_chart(spec: ChartSpec, path: str | Path) -> None:
    """Render the spec to SVG at ``path`` and its data to ``path``.csv."""
    n = _validate(spec)
    parts = _svg_open(spec.title)
    if n == 0 or not spec.series:
        _axes(parts, 0.0, 1.0, 0.0, 1.0, spec.x_label, spec.y_label)
        parts.append(f'<text x="{_fmt(_LEFT + _PLOT_W / 2)}" '
                     f'y="{_fmt(_TOP + _PLOT_H / 2)}" text-anchor="middle" '
                     'font-size="14" fill="#888">no data</text>')
    elif spec.kind == "stacked_bar":
        _render_stacked_bars(spec, n, parts)
    else:
        _render_lines(spec, n, parts)
    if spec.labels is not None:
        heads: Sequence[object] = spec.labels
    elif spec.x is not None:
        heads = [float(v) for v in spec.x]
    else:
        heads = range(n)
    axis_name = spec.x_label or ("x" if spec.x is not None else "label")
    _finish(parts, path, [axis_name, *spec.series],
            zip(heads, *([float(v) for v in values] for values in spec.series.values())))


def _x_positions(spec: ChartSpec, n: int) -> tuple[list[float], float, float]:
    xs = [float(v) for v in spec.x] if spec.x is not None else [float(i) for i in range(n)]
    lo, hi = min(xs), max(xs)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    return xs, lo, hi


def _render_stacked_bars(spec: ChartSpec, n: int, parts: list[str]) -> None:
    names = list(spec.series)
    totals = [sum(spec.series[name][i] for name in names) for i in range(n)]
    y_hi = max([*totals, 0.0]) or 1.0
    labels = [str(v) for v in (spec.labels if spec.labels is not None else range(n))]
    slot = _PLOT_W / n
    bar_w = slot * 0.8
    bottom = _TOP + _PLOT_H
    ticks = [(i + 0.5, labels[i]) for i in range(n)]
    _axes(parts, 0.0, float(n), 0.0, y_hi, spec.x_label, spec.y_label, ticks)
    for i in range(n):
        base = 0.0
        x = _LEFT + i * slot + slot * 0.1
        for s, name in enumerate(names):
            value = float(spec.series[name][i])
            height = value / y_hi * _PLOT_H
            y = bottom - (base + value) / y_hi * _PLOT_H
            base += value
            parts.append(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(bar_w)}" '
                         f'height="{_fmt(height)}" fill="{_color(spec, name, s)}"/>')
    _legend(parts, [(name, _color(spec, name, s)) for s, name in enumerate(names)])


def _render_lines(spec: ChartSpec, n: int, parts: list[str]) -> None:
    names = list(spec.series)
    xs, x_lo, x_hi = _x_positions(spec, n)
    stacked = spec.kind == "stacked_area"
    if stacked:
        tops = [sum(spec.series[name][i] for name in names) for i in range(n)]
        y_lo, y_hi = 0.0, max([*tops, 0.0]) or 1.0
    else:
        flat = [float(v) for name in names for v in spec.series[name]]
        y_lo, y_hi = min([*flat, 0.0]), max(flat) or 1.0
    _axes(parts, x_lo, x_hi, y_lo, y_hi, spec.x_label, spec.y_label)
    bottom = _TOP + _PLOT_H

    def px(value: float) -> float:
        return _LEFT + (value - x_lo) / (x_hi - x_lo) * _PLOT_W

    def py(value: float) -> float:
        return bottom - (value - y_lo) / (y_hi - y_lo or 1.0) * _PLOT_H

    if stacked:
        base = [0.0] * n
        for s, name in enumerate(names):
            top = [base[i] + float(spec.series[name][i]) for i in range(n)]
            forward = " ".join(f"{_fmt(px(xs[i]))},{_fmt(py(top[i]))}" for i in range(n))
            backward = " ".join(f"{_fmt(px(xs[i]))},{_fmt(py(base[i]))}"
                                for i in reversed(range(n)))
            parts.append(f'<polygon points="{forward} {backward}" '
                         f'fill="{_color(spec, name, s)}" fill-opacity="0.85"/>')
            base = top
    else:
        for s, name in enumerate(names):
            points = " ".join(f"{_fmt(px(xs[i]))},{_fmt(py(float(spec.series[name][i])))}"
                              for i in range(n))
            parts.append(f'<polyline points="{points}" fill="none" '
                         f'stroke="{_color(spec, name, s)}" stroke-width="1.5"/>')
    _legend(parts, [(name, _color(spec, name, s)) for s, name in enumerate(names)])


def label_colors(labels: Sequence[str]) -> dict[str, str]:
    """Fixed colors: fork/stay conventions, else palette by sorted label."""
    unique = sorted(set(labels))
    if set(unique) <= {"fork", "stay"}:
        return {"fork": FORK_COLOR, "stay": STAY_COLOR}
    return {label: PALETTE[i % len(PALETTE)] for i, label in enumerate(unique)}


def render_mds_scatter(embedding: Embedding,
                       maps: Sequence[tuple[Sequence[str], str | Path]]) -> None:
    """One voter map per ``(labels, path)`` in ``maps``: one colored point
    per embedded address, on the same equal-aspect axes.

    ``labels`` holds one label per embedded address, in address order
    (ground truth fork/stay or a cluster id); a length mismatch raises
    ValueError before any map is written. Coincident voters share one
    distinct coordinate row, whose pixel position and CSV coordinates are
    formatted once for every map. Rows are told apart by their bytes, so a
    -0.0 is never merged with a 0.0 and every file has the bytes of a
    voter-by-voter rendering.
    """
    n = len(embedding.addresses)
    label_lists = []
    for labels, _ in maps:
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} addresses")
        label_lists.append([str(v) for v in labels])
    coords = embedding.coords
    cx, cy = coords[:, 0].mean(), coords[:, 1].mean()
    span = max(float(coords[:, 0].max() - coords[:, 0].min()),
               float(coords[:, 1].max() - coords[:, 1].min()), 1e-9) * 1.1
    pixels_per_unit = min(_PLOT_W, _PLOT_H) / span  # equal aspect
    head = _svg_open(f"proposal {embedding.proposal_id} voter map")
    _axes(head,
          cx - _PLOT_W / 2 / pixels_per_unit, cx + _PLOT_W / 2 / pixels_per_unit,
          cy - _PLOT_H / 2 / pixels_per_unit, cy + _PLOT_H / 2 / pixels_per_unit,
          "dimension 1", "dimension 2")
    rows = np.ascontiguousarray(coords).view(np.dtype((np.void, coords.itemsize * 2))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    distinct = coords[first]
    xs = ((_LEFT + _PLOT_W / 2) + (distinct[:, 0] - cx) * pixels_per_unit).tolist()
    ys = ((_TOP + _PLOT_H / 2) - (distinct[:, 1] - cy) * pixels_per_unit).tolist()
    circles = [f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="' for x, y in zip(xs, ys)]
    texts = [(repr(x), repr(y)) for x, y in distinct.tolist()]
    inverse = inverse.tolist()
    circles, texts = [circles[i] for i in inverse], [texts[i] for i in inverse]
    for label_list, (_, path) in zip(label_lists, maps):
        colors = label_colors(label_list)
        parts = head + [f'{circle}{colors[label]}" fill-opacity="0.85"/>'
                        for circle, label in zip(circles, label_list)]
        _legend(parts, [(label, colors[label]) for label in sorted(colors)])
        # a float's repr is what write_csv writes for it
        _finish(parts, path, ["address", "x", "y", "label"],
                ((address, *text, label)
                 for address, text, label in zip(embedding.addresses, texts, label_list)))
