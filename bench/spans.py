"""Spans around calls into forkcast's modules, recorded from outside the package.

Each public function is wrapped where its caller looks it up: ``cli`` calls
``load_fixture_with_report`` through its own module globals, ``pipeline``
calls ``mds_embed`` through its globals, ``cli`` calls ``friction_mod.to_csv``
through the ``friction`` module object, and so on. Nothing under ``src/`` is
edited; ``Tracer.uninstall`` puts the originals back.

A span records its layer, its start and end, and the span that was open when
it started. A layer's self time is the time its spans cover minus the time
their child spans cover. The ``cli`` layer's spans are the ``cli.main`` calls
that enclose the whole timed section, so ``cli.self_s`` is what no other
layer's span covers: argument handling and the writers inline in ``cli.py``.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

LAYERS = ("ingest", "matrix", "friction", "dissim", "embed", "cluster",
          "pipeline", "validate", "report", "cli")

# pipeline.frame_ms_p90 is only a tail with at least this many frames
MIN_FRAMES_FOR_P90 = 100
FIXTURE_COPY = "votes.jsonl"


@dataclass
class Span:
    layer: str
    name: str
    parent: int | None  # index into Tracer.spans
    start: float
    end: float = 0.0
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def open(self, layer: str, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(layer, name, parent, time.perf_counter()))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner: object, attr: str, layer: str, info=None) -> None:
        """Replace ``owner.attr`` by a function that records a span named
        ``attr`` per call; ``info(args, kwargs, result)`` is kept on the span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.open(layer, attr)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if info is not None:
                self.spans[index].info = info(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _events(args, kwargs, result) -> int:
    events, _report = result
    return len(events)


def _active_size(args, kwargs, result) -> int:
    return len(result.addresses)


def _mds(args, kwargs, result) -> tuple[int, int, bool]:
    """(iterations, n, capped): capped means the run stopped at its
    iteration cap without meeting the tolerance."""
    config = args[2] if len(args) > 2 else kwargs.get("config")
    path = result.stress_path
    converged = len(path) >= 2 and path[-2] - path[-1] <= config.tolerance * path[-2]
    capped = result.iterations_used == config.max_iterations and not converged
    return result.iterations_used, len(result.addresses), capped


def _analysis(args, kwargs, result) -> tuple[int, int]:
    return len(result.analyses), len(result.skipped)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the CLI crosses."""
    from forkcast import cli, cluster, dissim, friction, matrix, pipeline, validate

    points = (
        (cli, "load_fixture_with_report", "ingest", _events),
        (cli, "load_ground_truth", "ingest", None),
        (cli, "write_fixture", "ingest", None),
        (cli, "build_voter_matrix", "matrix", None),
        (validate, "build_voter_matrix", "matrix", None),
        (friction, "build_friction_report", "friction", None),
        (pipeline, "active_set", "dissim", _active_size),
        (pipeline, "dissimilarity_matrix", "dissim", None),
        (pipeline, "warm_start", "embed", None),
        (pipeline, "mds_embed", "embed", _mds),
        (pipeline, "select_k", "cluster", None),
        (cluster, "kmeans", "cluster", None),
        (cluster, "silhouette", "cluster", None),
        (cli, "analyze_matrix", "pipeline", _analysis),
        (validate, "analyze_matrix", "pipeline", _analysis),
        (cli, "run_validation", "validate", None),
        (cli, "fork_cluster_share", "validate", None),
        (validate, "shuffle_votes", "validate", None),
        (cli, "render_chart", "report", None),
        (cli, "render_mds_scatter", "report", None),
        (matrix, "to_csv", "report", None),
        (friction, "to_csv", "report", None),
        (dissim, "to_csv", "report", None),
    )
    for owner, attr, layer, info in points:
        tracer.wrap(owner, attr, layer, info)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span], wall_s: float,
                  out_dir: Path) -> dict[str, float]:
    """Per-layer metrics of one traced round; 0 where a layer did no work."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    self_times = [span.duration - sum(c.duration for c in kids)
                  for span, kids in zip(spans, children)]
    self_s = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, self_times):
        self_s[span.layer] += own
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(index)

    def named(name: str) -> list[Span]:
        return [spans[i] for i in by_name.get(name, ())]

    def total(name: str) -> float:
        return sum(s.duration for s in named(name))

    loads = [s.info for s in named("load_fixture_with_report") if s.info is not None]
    mds = [s.info for s in named("mds_embed") if s.info is not None]
    pair_iterations = sum(it * n * (n - 1) // 2 for it, n, _ in mds)
    active_sizes = [s.info for s in named("active_set") if s.info is not None]
    analyses = named("analyze_matrix")
    done = [s.info for s in analyses if s.info is not None]

    # a frame runs from one active_set call to the next, or to the end of
    # its analyze_matrix call
    frame_ms: list[float] = []
    for index in by_name.get("analyze_matrix", ()):
        starts = [c.start for c in children[index] if c.name == "active_set"]
        ends = starts[1:] + [spans[index].end]
        frame_ms.extend((end - start) * 1e3 for start, end in zip(starts, ends))

    # a shuffle iteration runs from shuffle_votes to the end of the
    # analyze_matrix call on the shuffled matrix
    iteration_s: list[float] = []
    for index in by_name.get("run_validation", ()):
        kids = children[index]
        iteration_s.extend(after.end - shuffle.start
                           for shuffle, after in zip(kids, kids[1:])
                           if shuffle.name == "shuffle_votes"
                           and after.name == "analyze_matrix")

    # the fixture copy that `ingest` writes is the ingest layer's output
    files = ([p for p in out_dir.rglob("*") if p.is_file() and p != out_dir / FIXTURE_COPY]
             if out_dir.is_dir() else [])
    metrics = {
        "ingest.load_s": total("load_fixture_with_report"),
        "ingest.loads": len(named("load_fixture_with_report")),
        "ingest.write_s": total("write_fixture"),
        "ingest.events": sum(loads),
        "matrix.build_s": total("build_voter_matrix"),
        "matrix.builds": len(named("build_voter_matrix")),
        "friction.s": total("build_friction_report"),
        "dissim.active_s": total("active_set"),
        "dissim.matrix_s": total("dissimilarity_matrix"),
        "dissim.active_mean": (sum(active_sizes) / len(active_sizes)
                               if active_sizes else 0.0),
        "embed.mds_s": total("mds_embed"),
        "embed.warm_start_s": total("warm_start"),
        "embed.iterations": sum(it for it, _, _ in mds),
        "embed.capped": sum(1 for _, _, capped in mds if capped),
        "embed.ns_per_pair_iter": (total("mds_embed") * 1e9 / pair_iterations
                                   if pair_iterations else 0.0),
        "cluster.kmeans_s": total("kmeans"),
        "cluster.silhouette_s": total("silhouette"),
        "cluster.select_k_self_s": sum(self_times[i] for i in by_name.get("select_k", ())),
        "cluster.kmeans_calls": len(named("kmeans")),
        "pipeline.analyze_calls": len(analyses),
        "pipeline.frames": sum(frames for frames, _ in done),
        "pipeline.skipped": sum(skipped for _, skipped in done),
        "pipeline.frame_ms_p50": _median(frame_ms),
        "pipeline.frame_ms_p90": (statistics.quantiles(frame_ms, n=10)[8]
                                  if len(frame_ms) >= MIN_FRAMES_FOR_P90 else 0.0),
        "validate.shuffle_s": total("shuffle_votes"),
        "validate.iterations": len(iteration_s),
        "validate.iteration_s_p50": _median(iteration_s),
        "report.chart_s": total("render_chart"),
        "report.scatter_s": total("render_mds_scatter"),
        "report.csv_s": total("to_csv"),
        "report.files": len(files),
        "report.mb_written": sum(p.stat().st_size for p in files) / 2**20,
    }
    metrics.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
    # share of the traced wall time inside some layer's span below cli.main
    metrics["trace.coverage_pct"] = (100.0 * (wall_s - self_s["cli"]) / wall_s
                                     if wall_s > 0 else 0.0)
    return metrics
