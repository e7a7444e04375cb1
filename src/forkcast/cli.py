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
import json
import os
import sys
import types
import typing
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import repeat
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
    DaoRegistryEntry,
    ForkGroundTruth,
    VoteEvent,
    check_dao_name,
    collapse_duplicates,
    fetch_logs,
    load_fixture_with_report,
    load_ground_truth,
    write_fixture,
)
from .matrix import VoterMatrix, build_voter_matrix
from .pipeline import AnalysisSpec, PipelineResult, ProposalAnalysis, analyze_matrix
from .registry import bundled_registry, load_registry
from .report import ChartSpec, render_chart, render_mds_scatter, write_csv, write_json
from .validate import (
    DEFAULT_ITERATIONS,
    check_ranges,
    fork_cluster_share,
    fork_labels,
    run_validation,
    validation_json,
)

RPC_URL_ENV = "FORKCAST_RPC_URL"

# the exact types a setting of each declared type takes, and their name: true
# is not a number, a flag is only true or false, an int is a valid float
_SETTING_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "true or false"),
    str: ((str,), "a string"),
}


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
        for name, hint in typing.get_type_hints(RunConfig).items():
            # (T,) or, for an optional setting, (T, NoneType)
            declared = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
            if declared[0] in _SETTING_TYPES:
                accepted, kind = _SETTING_TYPES[declared[0]]
                value = getattr(self, name)
                if type(value) not in accepted + declared[1:]:
                    raise ValueError(f"{name} must be {kind}, got {value!r}")
        check_dao_name(self.dao)
        self.analysis_spec()  # raises on a bad window, MDS or k setting
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if (self.from_block is not None and self.to_block is not None
                and self.from_block > self.to_block):
            raise ValueError(f"from_block {self.from_block} > to_block {self.to_block}")

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


def resolve_config(args: argparse.Namespace) -> tuple[RunConfig, DaoRegistryEntry | None]:
    """Merge defaults <- registry defaults <- config file <- CLI flags; also
    the resolved dao's registry entry (None if absent), read only here."""
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
    merged = {**file_values, **cli_values}
    dao, path = merged.get("dao"), merged.get("registry_path")
    try:  # ``Path`` refuses a non-path, which ``open`` could take as a file descriptor
        registry = load_registry(Path(path)) if path else bundled_registry()
    except (OSError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"cannot read registry {path}: {exc}") from exc
    # by name, not by hash: a dao that is not a string is left to RunConfig
    entry = next((entry for entry in registry.values() if entry.name == dao), None)
    if entry is not None:
        defaults = entry.analysis_defaults
        unknown = set(defaults) - _CONFIG_FIELDS
        if unknown:
            raise ConfigError(f"unknown registry defaults for {dao}: {sorted(unknown)}")
        values.update(defaults)
    values.update(merged)
    if values.get("ranges") is not None:
        values["ranges"] = parse_ranges(values["ranges"])
    if values.get("rpc_url") is None and os.environ.get(RPC_URL_ENV):
        values["rpc_url"] = os.environ[RPC_URL_ENV]
    try:
        config = RunConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return config, entry


def _load_events(config: RunConfig, entry: DaoRegistryEntry | None,
                 fixture: Path | None) -> list[VoteEvent]:
    """Vote events, one per (voter, proposal), from ``fixture``, or fetched
    from the RPC endpoint when it is None."""
    if fixture is not None:
        events, duplicates = load_fixture_with_report(fixture)
    else:
        block_range = entry.block_range(config.from_block, config.to_block)
        events, duplicates = collapse_duplicates(fetch_logs(
            config.rpc_url, entry, block_range, chunk_size=config.chunk_size))
    if duplicates:
        print(f"note: collapsed {len(duplicates)} duplicate votes")
    return events


def _require_file(path: Path, what: str) -> None:
    if not path.exists():
        raise MissingArtifact(f"{what} {path} does not exist")
    if path.is_dir():
        raise MissingArtifact(f"{what} {path} is a directory")


def _prepare_paths(config: RunConfig, entry: DaoRegistryEntry | None,
                   command: str) -> Path | None:
    """Decide and check what ``command`` reads before making the output
    directory: --fixture; else, for a command that reads --rpc-url, a fetch
    (None is returned); else out/<dao>/votes.jsonl; and --ground-truth."""
    _, flags = _COMMANDS[command]
    fixture = Path(config.fixture) if config.fixture else config.out / "votes.jsonl"
    if config.fixture:
        _require_file(fixture, "fixture")
    elif config.rpc_url and "--rpc-url" in flags:
        if entry is None:
            raise ConfigError(f"dao {config.dao!r} not in registry")
        try:
            entry.block_range(config.from_block, config.to_block)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        fixture = None
    elif command == "ingest":
        raise ConfigError(f"need --fixture or --rpc-url (or ${RPC_URL_ENV})")
    elif not fixture.is_file():
        raise MissingArtifact(
            f"no fixture: pass --fixture or run `forkcast ingest` (looked at {fixture})")
    if config.ground_truth and "--ground-truth" in flags:
        _require_file(Path(config.ground_truth), "ground truth")
    elif command == "validate":
        raise ConfigError("validate needs --ground-truth")
    try:
        config.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {config.out}: {exc}") from exc
    return fixture


def _write_ingested(config: RunConfig, events: list[VoteEvent]) -> None:
    write_fixture(events, config.out / "votes.jsonl")
    print(f"ingest: {len(events)} events -> {config.out / 'votes.jsonl'}")


def cmd_ingest(config: RunConfig, entry: DaoRegistryEntry | None,
               fixture: Path | None) -> int:
    """Produce the canonical fixture at out/<dao>/votes.jsonl."""
    _write_ingested(config, _load_events(config, entry, fixture))
    return 0


def _friction(config: RunConfig, matrix: VoterMatrix) -> None:
    report = friction_mod.build_friction_report(matrix, window=config.window_size)
    out = config.out
    friction_mod.to_csv(report, out / "friction.csv")
    write_json(out / "friction_summary.json", {
        "dao": config.dao,
        "proposals": len(report.records),
        "category_shares": dict(report.category_shares),
        "flagged": report.flagged,
    })
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


def cmd_friction(config: RunConfig, entry: DaoRegistryEntry | None,
                 fixture: Path | None) -> int:
    """Disagreement records, rolling series, flagging, and summary charts."""
    _friction(config, build_voter_matrix(_load_events(config, entry, fixture)))
    return 0


def _write_frame(config: RunConfig, ground_truth: ForkGroundTruth | None,
                 analysis: ProposalAnalysis, d: DissimilarityMatrix,
                 voters: np.ndarray) -> None:
    """The ``on_frame`` sink: every per-frame file, written as the frame
    finishes; the dissimilarity CSV is expanded from its pattern matrix."""
    out, pid, addresses = config.out, analysis.proposal_id, analysis.embedding.addresses
    labels = [str(int(v)) for v in analysis.clustering.assignments]
    render_mds_scatter(analysis.embedding, labels, out / "mds" / f"{pid}.svg")
    if ground_truth is not None:
        gt_labels = ["fork" if a in ground_truth.addresses else "stay" for a in addresses]
        render_mds_scatter(analysis.embedding, gt_labels, out / "mds" / f"{pid}_gt.svg")
    sweep = sorted(analysis.clustering.silhouette_by_k.items())
    render_chart(ChartSpec(
        kind="line",
        title=f"proposal {pid}: silhouette by cluster count",
        series={"mean silhouette": [score for _, score in sweep]},
        x=[float(k) for k, _ in sweep],
        x_label="k", y_label="mean silhouette",
    ), out / "charts" / f"silhouette_{pid}.svg")
    if config.export_dissim:
        dissim_mod.to_csv(d, addresses, voters, out / "dissim" / f"{pid}.csv")


def _write_analysis_outputs(config: RunConfig, matrix: VoterMatrix,
                            result: PipelineResult) -> None:
    """The run-level tables and the clusters-per-proposal chart."""
    out = config.out
    analyses = result.analyses
    matrix_mod.to_csv(matrix, out / "matrix.csv")
    write_csv(out / "embeddings.csv", ["address", "x", "y", "proposal_id"],
              (row for a in analyses
               for row in zip(a.embedding.addresses, *a.embedding.coords.T.tolist(),
                              repeat(a.proposal_id))))
    write_csv(out / "clusters.csv",
              ["proposal_id", "address", "cluster", "k_star", "silhouette_mean"],
              (row for a in analyses
               for row in zip(repeat(a.proposal_id), a.embedding.addresses,
                              a.clustering.assignments.tolist(), repeat(a.clustering.k_star),
                              repeat(a.clustering.silhouette_by_k[a.clustering.k_star]))))
    write_csv(out / "silhouettes.csv", ["proposal_id", "k", "mean_silhouette"],
              ((a.proposal_id, k, score) for a in analyses
               for k, score in sorted(a.clustering.silhouette_by_k.items())))
    write_csv(out / "skipped.csv", ["proposal_id", "reason"], result.skipped)
    render_chart(ChartSpec(
        kind="line",
        title=f"{config.dao}: clusters per proposal",
        series={"k*": [float(a.clustering.k_star) for a in analyses]},
        x=[float(a.proposal_id) for a in analyses],
        x_label="proposal id", y_label="clusters",
    ), out / "charts" / "cluster_counts.svg")
    print(f"analyze: {len(analyses)} proposals embedded, "
          f"{len(result.skipped)} skipped -> {config.out}")


def cmd_analyze(config: RunConfig, entry: DaoRegistryEntry | None,
                fixture: Path | None) -> int:
    """Matrices, embeddings, clusterings, and per-proposal scatter maps."""
    ground_truth = load_ground_truth(config.ground_truth) if config.ground_truth else None
    matrix = build_voter_matrix(_load_events(config, entry, fixture))
    result = analyze_matrix(matrix, config.analysis_spec(),
                            on_frame=partial(_write_frame, config, ground_truth))
    _write_analysis_outputs(config, matrix, result)
    return 0


def _validate(config: RunConfig, matrix: VoterMatrix, result: PipelineResult,
              ground_truth: ForkGroundTruth, ranges: Sequence[tuple[int, int]]) -> None:
    report = run_validation(matrix, result, ground_truth, ranges=ranges,
                            iterations=config.iterations)
    out = config.out
    payload = validation_json(report)
    write_json(out / "validation.json", payload)
    analyses = result.analyses
    write_csv(out / "fork_share.csv", ["proposal_id", "fork_share", "k_star"],
              ((a.proposal_id, fork_cluster_share(a, ground_truth), a.clustering.k_star)
               for a in analyses))
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


def cmd_validate(config: RunConfig, entry: DaoRegistryEntry | None,
                 fixture: Path | None) -> int:
    """Genuine vs shuffled-baseline comparison over proposal ranges."""
    ground_truth = load_ground_truth(config.ground_truth)
    matrix = build_voter_matrix(_load_events(config, entry, fixture))
    ranges = check_ranges(matrix, config.ranges)
    _validate(config, matrix, analyze_matrix(matrix, config.analysis_spec()),
              ground_truth, ranges)
    return 0


def cmd_all(config: RunConfig, entry: DaoRegistryEntry | None,
            fixture: Path | None) -> int:
    """Full pipeline; validation runs when ground truth is supplied."""
    ground_truth = load_ground_truth(config.ground_truth) if config.ground_truth else None
    events = _load_events(config, entry, fixture)
    if config.fixture or config.rpc_url:
        _write_ingested(config, events)
    matrix = build_voter_matrix(events)
    ranges = None if ground_truth is None else check_ranges(matrix, config.ranges)
    _friction(config, matrix)
    result = analyze_matrix(matrix, config.analysis_spec(),
                            on_frame=partial(_write_frame, config, ground_truth))
    _write_analysis_outputs(config, matrix, result)
    if ground_truth is None:
        print("all: no --ground-truth, skipping validation")
    else:
        _validate(config, matrix, result, ground_truth, ranges)
    return 0


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

# each command's handler and the flags it reads. A handler takes the resolved
# config, its dao's registry entry (or None) and what `_prepare_paths` returns
_COMMANDS = {
    "ingest": (cmd_ingest, (*_COMMON, "--fixture", "--rpc-url", "--from-block",
                            "--to-block", "--chunk-size")),
    "friction": (cmd_friction, (*_COMMON, "--fixture", "--window")),
    "analyze": (cmd_analyze, (*_COMMON, *_ANALYSIS, "--export-dissim")),
    "validate": (cmd_validate, (*_COMMON, *_ANALYSIS, "--iterations", "--ranges")),
    "all": (cmd_all, tuple(_FLAGS)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forkcast",
        description="Detect emerging partisan voting blocs in DAO governance.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config, entry = resolve_config(args)
        handler, _ = _COMMANDS[args.command]
        return handler(config, entry, _prepare_paths(config, entry, args.command))
    except ForkcastError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, MissingArtifact)) else 1


if __name__ == "__main__":
    raise SystemExit(main())
