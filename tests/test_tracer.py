"""The benchmark tracer (bench/spans.py) still finds every name it wraps.

The tracer wraps package functions where their callers look them up, so a
renamed or moved function breaks `bench/run.py --trace 1`; this test makes
that a suite failure instead.
"""

from __future__ import annotations

import importlib.util
import sys
import time
from pathlib import Path

import forkcast.cli as cli_module
import forkcast.pipeline as pipeline_module

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"
FIXTURE = ROOT / "data" / "planted" / "votes.jsonl"
FORKERS = ROOT / "data" / "planted" / "forkers.txt"


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(monkeypatch):
    spans = load_spans(monkeypatch)
    originals = (cli_module.analyze_matrix, pipeline_module.dissimilarity_matrix)
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert cli_module.analyze_matrix is not originals[0]
    finally:
        tracer.uninstall()
    assert (cli_module.analyze_matrix, pipeline_module.dissimilarity_matrix) == originals


def test_traced_analyze_reports_layer_metrics(monkeypatch, tmp_path):
    """A traced `analyze` run yields the per-layer numbers the benchmark
    reports, so a change to a wrapped call's arguments (such as the position
    of `mds_embed`'s config) fails here."""
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        start = time.perf_counter()
        assert cli_module.main(["analyze", "--dao", "planted", "--fixture", str(FIXTURE),
                                "--mds-iterations", "5", "--out", str(tmp_path)]) == 0
        wall_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans, wall_s, tmp_path / "planted")
    assert metrics["embed.iterations"] > 0
    assert metrics["pipeline.frames"] == 59
    assert metrics["ingest.loads"] == 1
    assert metrics["cluster.kmeans_calls"] == metrics["pipeline.frames"]  # one sweep a frame
    assert metrics["cluster.kmeans_s"] > 0


def test_traced_all_reports_validation_metrics(monkeypatch, tmp_path):
    """A traced `all` run with one shuffle reaches every validate-layer
    wrapper, `cli.fork_cluster_share` included."""
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        start = time.perf_counter()
        assert cli_module.main(["all", "--dao", "planted", "--fixture", str(FIXTURE),
                                "--ground-truth", str(FORKERS), "--iterations", "1",
                                "--mds-iterations", "5", "--out", str(tmp_path)]) == 0
        wall_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans, wall_s, tmp_path / "planted")
    assert metrics["validate.iterations"] == 1
    assert metrics["pipeline.analyze_calls"] == 2
    assert any(span.name == "fork_cluster_share" for span in tracer.spans)
