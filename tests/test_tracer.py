"""The benchmark tracer (bench/spans.py) still finds every name it wraps.

The tracer wraps package functions where their callers look them up, so a
renamed or moved function breaks `bench/run.py --trace 1`; this test makes
that a suite failure instead.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import forkcast.cli as cli_module
import forkcast.pipeline as pipeline_module

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
