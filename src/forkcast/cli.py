"""Command-line pipeline: ingest, friction, analyze, validate, all.

Each command accepts only the flags it reads; ``config`` resolves them with
the config file and the registry into one ``RunConfig``. All commands are
idempotent: re-running with the same inputs and seed rewrites
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence
from contextlib import nullcontext
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from . import dissim as dissim_mod
from . import friction as friction_mod
from . import matrix as matrix_mod
from .config import RPC_URL_ENV, DaoRegistryEntry, RunConfig, resolve_config
from .dissim import DissimilarityMatrix
from .errors import ConfigError, ForkcastError, MissingArtifact
from .ingest import (
    ForkGroundTruth,
    VoteTable,
    collapse_duplicates,
    fetch_logs,
    load_fixture_with_report,
    load_ground_truth,
    write_fixture,
)
from .matrix import VoterMatrix, build_voter_matrix
from .pipeline import PipelineResult, ProposalAnalysis, analyze_matrix
from .report import ChartSpec, render_chart, render_mds_scatter, write_csv, write_json
from .validate import (
    PassResult,
    check_ranges,
    fork_cluster_share,
    fork_labels,
    run_validation,
    shuffled_passes,
    validation_json,
)


def _load_events(config: RunConfig, entry: DaoRegistryEntry | None,
                 fixture: Path | None) -> VoteTable:
    """Vote events, one per (voter, proposal), from ``fixture``, or fetched
    from the RPC endpoint when it is None."""
    if fixture is not None:
        table, duplicates = load_fixture_with_report(fixture)
    else:
        block_range = entry.block_range(config.from_block, config.to_block)
        table, duplicates = collapse_duplicates(fetch_logs(
            config.rpc_url, entry, block_range, chunk_size=config.chunk_size))
    if duplicates:
        print(f"note: collapsed {len(duplicates)} duplicate votes")
    return table


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


def _write_ingested(config: RunConfig, table: VoteTable) -> None:
    write_fixture(table, config.out / "votes.jsonl")
    print(f"ingest: {len(table)} events -> {config.out / 'votes.jsonl'}")


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
    maps = [([str(int(v)) for v in analysis.clustering.assignments],
             out / "mds" / f"{pid}.svg")]
    if ground_truth is not None:
        maps.append((["fork" if a in ground_truth.addresses else "stay" for a in addresses],
                     out / "mds" / f"{pid}_gt.svg"))
    render_mds_scatter(analysis.embedding, maps)
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
              ground_truth: ForkGroundTruth, ranges: Sequence[tuple[int, int]],
              passes: Callable[[], list[PassResult]]) -> None:
    report = run_validation(matrix, result, ground_truth, ranges=ranges,
                            iterations=config.iterations, passes=passes)
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
    spec = config.analysis_spec()
    with shuffled_passes(matrix, spec, ground_truth, ranges, config.iterations) as passes:
        _validate(config, matrix, analyze_matrix(matrix, spec), ground_truth, ranges, passes)
    return 0


def cmd_all(config: RunConfig, entry: DaoRegistryEntry | None,
            fixture: Path | None) -> int:
    """Full pipeline; validation runs when ground truth is supplied."""
    ground_truth = load_ground_truth(config.ground_truth) if config.ground_truth else None
    table = _load_events(config, entry, fixture)
    if config.fixture or config.rpc_url:
        _write_ingested(config, table)
    matrix = build_voter_matrix(table)
    spec = config.analysis_spec()
    if ground_truth is None:
        started = nullcontext()
    else:
        ranges = check_ranges(matrix, config.ranges)
        started = shuffled_passes(matrix, spec, ground_truth, ranges, config.iterations)
    with started as passes:
        _friction(config, matrix)
        result = analyze_matrix(matrix, spec,
                                on_frame=partial(_write_frame, config, ground_truth))
        _write_analysis_outputs(config, matrix, result)
        if passes is None:
            print("all: no --ground-truth, skipping validation")
        else:
            _validate(config, matrix, result, ground_truth, ranges, passes)
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
