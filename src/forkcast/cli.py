"""Command-line pipeline: ingest, friction, analyze, validate, all.

Configuration precedence is CLI flags > config file (--config, JSON) >
registry analysis defaults > built-in defaults; the built-ins are the
Nouns DAO parameterization, the ``DEFAULT_*`` constants of ``dissim``,
``embed``, ``cluster`` and ``validate``. Each command accepts only the flags
it reads; a config file may set any key. All commands are idempotent:
re-running with the same inputs and seed rewrites byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dissim as dissim_mod
from . import friction as friction_mod
from . import matrix as matrix_mod
from .cluster import DEFAULT_K_MAX, DEFAULT_K_MIN
from .dissim import (
    DEFAULT_PARTICIPATION_THRESHOLD,
    DEFAULT_WINDOW_SIZE,
    DissimilarityMatrix,
    WindowSpec,
)
from .embed import DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE, MdsConfig
from .errors import ConfigError, ForkcastError, MissingArtifact
from .ingest import (
    ForkGroundTruth,
    VoteEvent,
    collapse_duplicates,
    fetch_logs,
    load_fixture_with_report,
    load_ground_truth,
    write_fixture,
)
from .matrix import VoterMatrix, build_voter_matrix
from .pipeline import AnalysisSpec, PipelineResult, analyze_matrix
from .registry import bundled_registry, load_registry
from .report import ChartSpec, render_chart, render_mds_scatter
from .validate import (
    DEFAULT_ITERATIONS,
    check_ranges,
    fork_cluster_share,
    fork_labels,
    run_validation,
    validation_json,
)

RPC_URL_ENV = "FORKCAST_RPC_URL"


@dataclass(frozen=True)
class RunConfig:
    dao: str = "dao"
    fixture: str | None = None
    rpc_url: str | None = None
    registry_path: str | None = None
    ground_truth: str | None = None
    window_size: int = DEFAULT_WINDOW_SIZE
    participation_threshold: float = DEFAULT_PARTICIPATION_THRESHOLD
    k_min: int = DEFAULT_K_MIN
    k_max: int = DEFAULT_K_MAX
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    tolerance: float = DEFAULT_TOLERANCE
    iterations: int = DEFAULT_ITERATIONS
    root_seed: int = 0
    ranges: tuple[tuple[int, int], ...] | None = None
    output_dir: str = "out"
    export_dissim: bool = False
    from_block: int | None = None
    to_block: int | None = None
    chunk_size: int = 10_000

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.type == "int | None" and value is None:
                continue
            if field.type in ("int", "int | None") and type(value) is not int:
                raise ValueError(f"{field.name} must be an integer, got {value!r}")
        self.analysis_spec()  # raises on a bad window, MDS or k setting
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")

    @property
    def out(self) -> Path:
        return Path(self.output_dir) / self.dao

    def analysis_spec(self) -> AnalysisSpec:
        return AnalysisSpec(WindowSpec(self.window_size, self.participation_threshold),
                            MdsConfig(self.max_iterations, self.tolerance),
                            self.k_min, self.k_max, self.root_seed)


_CONFIG_FIELDS = {field.name for field in dataclasses.fields(RunConfig)}


def parse_ranges(value: str | Sequence) -> tuple[tuple[int, int], ...]:
    """'319-362,349-362' or [[319, 362], [349, 362]] -> ((319, 362), (349, 362))."""
    items = value.split(",") if isinstance(value, str) else value
    if not isinstance(items, (list, tuple)) or not items:
        raise ConfigError(f"ranges {value!r} must be 'LO-HI,...' or a list of [LO, HI]")
    ranges = []
    for item in items:
        try:
            lo, hi = [int(b) for b in item.split("-")] if isinstance(value, str) else item
        except (TypeError, ValueError):
            lo = hi = None
        if type(lo) is not int or type(hi) is not int:
            raise ConfigError(f"range {item!r} must look like LO-HI or [LO, HI]")
        if lo > hi:
            raise ConfigError(f"range {item!r} is empty")
        ranges.append((lo, hi))
    return tuple(ranges)


def _registry(config_values: dict):
    path = config_values.get("registry_path")
    try:
        return load_registry(path) if path else bundled_registry()
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"cannot read registry {path}: {exc}") from exc


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults <- registry defaults <- config file <- CLI flags."""
    values: dict = {}
    file_values: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as handle:
                file_values = json.load(handle)
        except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
        unknown = set(file_values) - _CONFIG_FIELDS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cli_values = {key: value for key, value in vars(args).items()
                  if key in _CONFIG_FIELDS and value is not None}
    dao = cli_values.get("dao") or file_values.get("dao")
    registry = _registry({**file_values, **cli_values})
    if dao and dao in registry:
        defaults = registry[dao].analysis_defaults
        unknown = set(defaults) - _CONFIG_FIELDS
        if unknown:
            raise ConfigError(f"unknown registry defaults for {dao}: {sorted(unknown)}")
        values.update(defaults)
    values.update(file_values)
    values.update(cli_values)
    if values.get("ranges") is not None:
        values["ranges"] = parse_ranges(values["ranges"])
    if values.get("rpc_url") is None and os.environ.get(RPC_URL_ENV):
        values["rpc_url"] = os.environ[RPC_URL_ENV]
    try:
        return RunConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _fixture_path(config: RunConfig) -> Path:
    if config.fixture:
        path = Path(config.fixture)
        _require_file(path, "fixture")
        return path
    fallback = config.out / "votes.jsonl"
    if fallback.is_file():
        return fallback
    raise MissingArtifact(
        f"no fixture: pass --fixture or run `forkcast ingest` (looked at {fallback})")


def _load_events(config: RunConfig, fetch: bool = False) -> list[VoteEvent]:
    """Vote events, one per (voter, proposal), from --fixture, else (with
    ``fetch``) from the RPC endpoint, else from out/<dao>/votes.jsonl."""
    if config.fixture or not (fetch and config.rpc_url):
        events, duplicates = load_fixture_with_report(_fixture_path(config))
    else:
        registry = _registry(dataclasses.asdict(config))
        if config.dao not in registry:
            raise ConfigError(f"dao {config.dao!r} not in registry")
        entry = registry[config.dao]
        block_range = (config.from_block if config.from_block is not None
                       else entry.deploy_block,
                       config.to_block if config.to_block is not None
                       else entry.end_block)
        try:
            fetched = fetch_logs(config.rpc_url, entry, block_range,
                                 chunk_size=config.chunk_size)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        events, duplicates = collapse_duplicates(fetched)
    if duplicates:
        print(f"note: collapsed {len(duplicates)} duplicate votes")
    return events


def _load_ground_truth(config: RunConfig) -> ForkGroundTruth | None:
    if not config.ground_truth:
        return None
    _require_file(Path(config.ground_truth), "ground truth")
    return load_ground_truth(config.ground_truth)


def _require_file(path: Path, what: str) -> None:
    if not path.exists():
        raise MissingArtifact(f"{what} {path} does not exist")
    if path.is_dir():
        raise MissingArtifact(f"{what} {path} is a directory")


def _write_json(payload: object, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _write_ingested(config: RunConfig, events: list[VoteEvent]) -> None:
    out = config.out
    out.mkdir(parents=True, exist_ok=True)
    write_fixture(events, out / "votes.jsonl")
    print(f"ingest: {len(events)} events -> {out / 'votes.jsonl'}")


def cmd_ingest(config: RunConfig) -> int:
    """Produce the canonical fixture at out/<dao>/votes.jsonl."""
    if not (config.fixture or config.rpc_url):
        raise ConfigError(f"need --fixture or --rpc-url (or ${RPC_URL_ENV})")
    _write_ingested(config, _load_events(config, fetch=True))
    return 0


def _friction(config: RunConfig, matrix: VoterMatrix) -> None:
    report = friction_mod.build_friction_report(matrix, window=config.window_size)
    out = config.out
    out.mkdir(parents=True, exist_ok=True)
    friction_mod.to_csv(report, out / "friction.csv")
    _write_json({
        "dao": config.dao,
        "proposals": len(report.records),
        "category_shares": dict(report.category_shares),
        "flagged": report.flagged,
    }, out / "friction_summary.json")
    render_chart(ChartSpec(
        kind="stacked_bar",
        title=f"{config.dao}: proposal disagreement mix",
        series={category: [report.category_shares[category]]
                for category in friction_mod.CATEGORIES},
        labels=[config.dao],
        color_map={"unanimous": "#4daf4a", "low": "#a6d854",
                   "medium": "#ff7f0e", "high": "#d62728"},
        x_label="dao", y_label="share of proposals",
    ), out / "charts" / "disagreement_categories.svg")
    render_chart(ChartSpec(
        kind="line",
        title=f"{config.dao}: rolling disagreement (window {config.window_size})",
        series={"rolling mean": [value for _, value in report.rolling]},
        x=[float(pid) for pid, _ in report.rolling],
        x_label="proposal id", y_label="disagreement",
    ), out / "charts" / "rolling_disagreement.svg")
    print(f"friction: {len(report.records)} proposals, "
          f"flagged={str(report.flagged).lower()}")


def cmd_friction(config: RunConfig) -> int:
    """Disagreement records, rolling series, flagging, and summary charts."""
    _friction(config, build_voter_matrix(_load_events(config)))
    return 0


def _write_analysis_outputs(config: RunConfig, matrix: VoterMatrix,
                            result: PipelineResult,
                            ground_truth: ForkGroundTruth | None) -> None:
    out = config.out
    out.mkdir(parents=True, exist_ok=True)
    matrix_mod.to_csv(matrix, out / "matrix.csv")
    with open(out / "embeddings.csv", "w", encoding="utf-8", newline="\n") as handle:
        handle.write("address,x,y,proposal_id\n")
        for analysis in result.analyses:
            emb = analysis.embedding
            for address, (x, y) in zip(emb.addresses, emb.coords):
                handle.write(f"{address},{float(x)!r},{float(y)!r},{analysis.proposal_id}\n")
    with open(out / "clusters.csv", "w", encoding="utf-8", newline="\n") as handle:
        handle.write("proposal_id,address,cluster,k_star,silhouette_mean\n")
        for analysis in result.analyses:
            clustering = analysis.clustering
            mean = clustering.silhouette_by_k[clustering.k_star]
            for address, label in zip(analysis.embedding.addresses, clustering.assignments):
                handle.write(f"{analysis.proposal_id},{address},{int(label)},"
                             f"{clustering.k_star},{mean!r}\n")
    with open(out / "silhouettes.csv", "w", encoding="utf-8", newline="\n") as handle:
        handle.write("proposal_id,k,mean_silhouette\n")
        for analysis in result.analyses:
            for k, score in sorted(analysis.clustering.silhouette_by_k.items()):
                handle.write(f"{analysis.proposal_id},{k},{score!r}\n")
    with open(out / "skipped.csv", "w", encoding="utf-8", newline="\n") as handle:
        handle.write("proposal_id,reason\n")
        for proposal_id, reason in result.skipped:
            handle.write(f"{proposal_id},{reason.replace(',', ';')}\n")
    for analysis in result.analyses:
        labels = [str(int(v)) for v in analysis.clustering.assignments]
        render_mds_scatter(analysis.embedding, labels,
                           out / "mds" / f"{analysis.proposal_id}.svg")
        if ground_truth is not None:
            gt_labels = ["fork" if a in ground_truth.addresses else "stay"
                         for a in analysis.embedding.addresses]
            render_mds_scatter(analysis.embedding, gt_labels,
                               out / "mds" / f"{analysis.proposal_id}_gt.svg")
        sweep = sorted(analysis.clustering.silhouette_by_k.items())
        render_chart(ChartSpec(
            kind="line",
            title=f"proposal {analysis.proposal_id}: silhouette by cluster count",
            series={"mean silhouette": [score for _, score in sweep]},
            x=[float(k) for k, _ in sweep],
            x_label="k", y_label="mean silhouette",
        ), out / "charts" / f"silhouette_{analysis.proposal_id}.svg")
    render_chart(ChartSpec(
        kind="line",
        title=f"{config.dao}: clusters per proposal",
        series={"k*": [float(a.clustering.k_star) for a in result.analyses]},
        x=[float(a.proposal_id) for a in result.analyses],
        x_label="proposal id", y_label="clusters",
    ), out / "charts" / "cluster_counts.svg")
    print(f"analyze: {len(result.analyses)} proposals embedded, "
          f"{len(result.skipped)} skipped -> {config.out}")


def _write_dissim(config: RunConfig, d: DissimilarityMatrix) -> None:
    directory = config.out / "dissim"
    directory.mkdir(parents=True, exist_ok=True)
    dissim_mod.to_csv(d, directory / f"{d.proposal_id}.csv")


def _analyze(config: RunConfig, matrix: VoterMatrix,
             export_dissim: bool = False) -> PipelineResult:
    """The pipeline over ``matrix``; with ``export_dissim`` each analyzed
    proposal's dissimilarity matrix goes to dissim/<pid>.csv as soon as its
    frame is done, so the run never holds more than one of them."""
    on_dissim = functools.partial(_write_dissim, config) if export_dissim else None
    return analyze_matrix(matrix, config.analysis_spec(), on_dissim=on_dissim)


def cmd_analyze(config: RunConfig) -> int:
    """Matrices, embeddings, clusterings, and per-proposal scatter maps."""
    ground_truth = _load_ground_truth(config)
    matrix = build_voter_matrix(_load_events(config))
    result = _analyze(config, matrix, config.export_dissim)
    _write_analysis_outputs(config, matrix, result, ground_truth)
    return 0


def _validate(config: RunConfig, matrix: VoterMatrix, result: PipelineResult,
              ground_truth: ForkGroundTruth) -> None:
    report = run_validation(matrix, result, ground_truth,
                            ranges=list(config.ranges) if config.ranges else None,
                            iterations=config.iterations)
    out = config.out
    out.mkdir(parents=True, exist_ok=True)
    payload = validation_json(report)
    _write_json(payload, out / "validation.json")
    analyses = result.analyses
    with open(out / "fork_share.csv", "w", encoding="utf-8", newline="\n") as handle:
        handle.write("proposal_id,fork_share,k_star\n")
        for analysis in analyses:
            share = fork_cluster_share(analysis, ground_truth)
            text = "" if share is None else repr(share)
            handle.write(f"{analysis.proposal_id},{text},"
                         f"{analysis.clustering.k_star}\n")
    # fork addresses per cluster, largest first, per proposal (stacked area)
    rank_count = max((a.clustering.k_star for a in analyses), default=0)
    counts = [sorted(np.bincount(fork_labels(a, ground_truth), minlength=rank_count),
                     reverse=True) for a in analyses]
    series = {f"cluster {r + 1}": [float(row[r]) for row in counts]
              for r in range(rank_count)}
    render_chart(ChartSpec(
        kind="stacked_area",
        title=f"{config.dao}: fork addresses per cluster",
        series=series,
        x=[float(a.proposal_id) for a in analyses],
        x_label="proposal id", y_label="fork addresses",
    ), out / "charts" / "fork_cluster_share.svg")
    for entry in payload["ranges"]:
        clusters, shares = entry["avg_clusters"], entry["fork_share"]
        share, rand_share = ("n/a" if value is None else f"{value:.4f}"
                             for value in (shares["value"], shares["rand_avg"]))
        rand = ("no baseline" if clusters["rand_avg"] is None else
                f"rand avg {clusters['rand_avg']:.2f} clusters / {rand_share} share")
        lo, hi = entry["range"]
        print(f"validate {lo}-{hi}: {clusters['value']:.2f} clusters / {share} share"
              f" | {rand}")


def cmd_validate(config: RunConfig) -> int:
    """Genuine vs shuffled-baseline comparison over proposal ranges."""
    ground_truth = _load_ground_truth(config)
    if ground_truth is None:
        raise ConfigError("validate needs --ground-truth")
    matrix = build_voter_matrix(_load_events(config))
    check_ranges(matrix, config.ranges or ())
    _validate(config, matrix, _analyze(config, matrix), ground_truth)
    return 0


def cmd_all(config: RunConfig) -> int:
    """Full pipeline; validation runs when ground truth is supplied."""
    ground_truth = _load_ground_truth(config)
    events = _load_events(config, fetch=True)
    if config.fixture or config.rpc_url:
        _write_ingested(config, events)
    matrix = build_voter_matrix(events)
    if ground_truth is not None:
        check_ranges(matrix, config.ranges or ())
    _friction(config, matrix)
    result = _analyze(config, matrix, config.export_dissim)
    _write_analysis_outputs(config, matrix, result, ground_truth)
    if ground_truth is None:
        print("all: no --ground-truth, skipping validation")
    else:
        _validate(config, matrix, result, ground_truth)
    return 0


_COMMANDS = {
    "ingest": cmd_ingest,
    "friction": cmd_friction,
    "analyze": cmd_analyze,
    "validate": cmd_validate,
    "all": cmd_all,
}


# argparse settings of every flag; `all` takes every one, in this order
_FLAGS = {
    "--dao": dict(help="registry name / output subdirectory"),
    "--config": dict(help="JSON config file mirroring RunConfig"),
    "--registry": dict(dest="registry_path",
                       help="registry JSON overriding the bundled one"),
    "--out": dict(dest="output_dir"),
    "--fixture": dict(help="JSONL vote fixture path"),
    "--rpc-url": dict(dest="rpc_url", help=f"EVM JSON-RPC endpoint (or ${RPC_URL_ENV})"),
    "--from-block": dict(dest="from_block", type=int),
    "--to-block": dict(dest="to_block", type=int),
    "--chunk-size": dict(dest="chunk_size", type=int),
    "--ground-truth": dict(dest="ground_truth", help="fork address list, one per line"),
    "--window": dict(dest="window_size", type=int),
    "--threshold": dict(dest="participation_threshold", type=float),
    "--k-min": dict(dest="k_min", type=int),
    "--k-max": dict(dest="k_max", type=int),
    "--mds-iterations": dict(dest="max_iterations", type=int),
    "--mds-tolerance": dict(dest="tolerance", type=float),
    "--seed": dict(dest="root_seed", type=int),
    "--export-dissim": dict(dest="export_dissim", action="store_const", const=True,
                            default=None),
    "--iterations": dict(type=int, help="shuffle iterations"),
    "--ranges": dict(help="e.g. 319-362,349-362"),
}

_COMMON = ("--dao", "--config", "--registry", "--out")
_ANALYSIS = ("--fixture", "--ground-truth", "--window", "--threshold", "--k-min",
             "--k-max", "--mds-iterations", "--mds-tolerance", "--seed")

# the flags each command reads
_COMMAND_FLAGS = {
    "ingest": (*_COMMON, "--fixture", "--rpc-url", "--from-block", "--to-block",
               "--chunk-size"),
    "friction": (*_COMMON, "--fixture", "--window"),
    "analyze": (*_COMMON, *_ANALYSIS, "--export-dissim"),
    "validate": (*_COMMON, *_ANALYSIS, "--iterations", "--ranges"),
    "all": tuple(_FLAGS),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forkcast",
        description="Detect emerging partisan voting blocs in DAO governance.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _COMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        for flag in _COMMAND_FLAGS[name]:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        return _COMMANDS[args.command](config)
    except (ConfigError, MissingArtifact) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ForkcastError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
