"""Command-line pipeline: ingest, friction, analyze, validate, all.

Configuration precedence is CLI flags > config file (--config, JSON) >
registry analysis defaults > built-in defaults; the built-ins are the
Nouns DAO parameterization (window 10, threshold 0.40, k 2..5, MDS
300/1e-6, 100 shuffle iterations). All commands are idempotent: re-running
with the same inputs and seed rewrites byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import dissim as dissim_mod
from . import friction as friction_mod
from . import matrix as matrix_mod
from .dissim import WindowSpec
from .embed import MdsConfig
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
from .pipeline import PipelineResult, analyze_matrix
from .registry import bundled_registry, load_registry
from .report import ChartSpec, render_chart, render_mds_scatter
from .validate import ValidationReport, fork_cluster_share, run_validation

RPC_URL_ENV = "FORKCAST_RPC_URL"

_CONFIG_FIELDS = {
    "dao", "fixture", "rpc_url", "registry_path", "ground_truth",
    "window_size", "participation_threshold", "k_min", "k_max",
    "max_iterations", "tolerance", "iterations", "root_seed", "ranges",
    "output_dir", "min_fork_present", "rolling_stat",
    "export_dissim", "from_block", "to_block", "chunk_size",
}


@dataclass(frozen=True)
class RunConfig:
    dao: str = "dao"
    fixture: str | None = None
    rpc_url: str | None = None
    registry_path: str | None = None
    ground_truth: str | None = None
    window_size: int = 10
    participation_threshold: float = 0.40
    k_min: int = 2
    k_max: int = 5
    max_iterations: int = 300
    tolerance: float = 1e-6
    iterations: int = 100
    root_seed: int = 0
    ranges: tuple[tuple[int, int], ...] | None = None
    output_dir: str = "out"
    min_fork_present: int = 1
    rolling_stat: str = "max"
    export_dissim: bool = False
    from_block: int | None = None
    to_block: int | None = None
    chunk_size: int = 10_000

    @property
    def out(self) -> Path:
        return Path(self.output_dir) / self.dao

    def window_spec(self) -> WindowSpec:
        return WindowSpec(self.window_size, self.participation_threshold)

    def mds_config(self) -> MdsConfig:
        return MdsConfig(self.max_iterations, self.tolerance, self.root_seed)


def parse_ranges(text: str) -> tuple[tuple[int, int], ...]:
    """'319-362,349-362' -> ((319, 362), (349, 362))."""
    ranges = []
    for chunk in text.split(","):
        lo, sep, hi = chunk.strip().partition("-")
        if not sep:
            raise ConfigError(f"range {chunk!r} must look like LO-HI")
        try:
            pair = (int(lo), int(hi))
        except ValueError as exc:
            raise ConfigError(f"bad range {chunk!r}: {exc}") from exc
        if pair[0] > pair[1]:
            raise ConfigError(f"range {chunk!r} is empty")
        ranges.append(pair)
    return tuple(ranges)


def _registry(config_values: dict):
    path = config_values.get("registry_path")
    try:
        return load_registry(path) if path else bundled_registry()
    except OSError as exc:
        raise ConfigError(f"cannot read registry {path}: {exc}") from exc


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults <- registry defaults <- config file <- CLI flags."""
    values: dict = {}
    file_values: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as handle:
                file_values = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
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
    if isinstance(values.get("ranges"), str):
        values["ranges"] = parse_ranges(values["ranges"])
    elif isinstance(values.get("ranges"), (list, tuple)):
        values["ranges"] = tuple((int(lo), int(hi)) for lo, hi in values["ranges"])
    if values.get("rpc_url") is None and os.environ.get(RPC_URL_ENV):
        values["rpc_url"] = os.environ[RPC_URL_ENV]
    try:
        return RunConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _fixture_path(config: RunConfig) -> Path:
    if config.fixture:
        path = Path(config.fixture)
        if not path.exists():
            raise MissingArtifact(f"fixture {path} does not exist")
        return path
    fallback = config.out / "votes.jsonl"
    if fallback.exists():
        return fallback
    raise MissingArtifact(
        f"no fixture: pass --fixture or run `forkcast ingest` (looked at {fallback})")


def _load_events(config: RunConfig, fetch: bool = False) -> list[VoteEvent]:
    """Vote events, one per (voter, proposal), from --fixture, else (with
    ``fetch``) from the RPC endpoint, else from out/<dao>/votes.jsonl."""
    if config.fixture or not (fetch and config.rpc_url):
        events, report = load_fixture_with_report(_fixture_path(config))
        duplicates = report.duplicates
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
    return load_ground_truth(config.ground_truth)


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
    report = friction_mod.build_friction_report(
        matrix, config.dao, window=config.window_size,
        rolling_stat=config.rolling_stat)
    out = config.out
    out.mkdir(parents=True, exist_ok=True)
    friction_mod.to_csv(report, out / "friction.csv")
    _write_json({
        "dao": report.dao_name,
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
                handle.write(f"{address},{float(x)!r},{float(y)!r},"
                             f"{emb.proposal_id}\n")
    with open(out / "clusters.csv", "w", encoding="utf-8", newline="\n") as handle:
        handle.write("proposal_id,address,cluster,k_star,silhouette_mean\n")
        for analysis in result.analyses:
            clustering = analysis.clustering
            mean = clustering.silhouette_by_k[clustering.k_star]
            for address, label in zip(clustering.addresses, clustering.assignments):
                handle.write(f"{clustering.proposal_id},{address},{int(label)},"
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
        if config.export_dissim:
            (out / "dissim").mkdir(parents=True, exist_ok=True)
            dissim_mod.to_csv(analysis.dissim,
                              out / "dissim" / f"{analysis.proposal_id}.csv")
    render_chart(ChartSpec(
        kind="line",
        title=f"{config.dao}: clusters per proposal",
        series={"k*": [float(a.clustering.k_star) for a in result.analyses]},
        x=[float(a.proposal_id) for a in result.analyses],
        x_label="proposal id", y_label="clusters",
    ), out / "charts" / "cluster_counts.svg")
    print(f"analyze: {len(result.analyses)} proposals embedded, "
          f"{len(result.skipped)} skipped -> {config.out}")


def _analyze(config: RunConfig, matrix: VoterMatrix) -> PipelineResult:
    return analyze_matrix(matrix, config.window_spec(), config.mds_config(),
                          config.k_min, config.k_max, config.root_seed)


def cmd_analyze(config: RunConfig) -> int:
    """Matrices, embeddings, clusterings, and per-proposal scatter maps."""
    ground_truth = _load_ground_truth(config)
    matrix = build_voter_matrix(_load_events(config))
    _write_analysis_outputs(config, matrix, _analyze(config, matrix), ground_truth)
    return 0


def _validation_payload(report: ValidationReport) -> dict:
    ranges = []
    randomized = {stats.range: stats for stats in report.randomized}
    for summary in report.genuine:
        stats = randomized.get(summary.range)
        ranges.append({
            "range": list(summary.range),
            "proposals_counted": summary.proposals_counted,
            "avg_clusters": {
                "value": summary.avg_clusters,
                "rand_min": stats.avg_clusters_min if stats else None,
                "rand_max": stats.avg_clusters_max if stats else None,
                "rand_avg": stats.avg_clusters_mean if stats else None,
            },
            "fork_share": {
                "value": summary.fork_share,
                "rand_min": stats.fork_share_min if stats else None,
                "rand_max": stats.fork_share_max if stats else None,
                "rand_avg": stats.fork_share_mean if stats else None,
            },
        })
    return {
        "iterations": report.iterations,
        "seeds": list(report.seeds),
        "failed_seeds": [list(pair) for pair in report.failed_seeds],
        "ranges": ranges,
    }


def _validate(config: RunConfig, matrix: VoterMatrix, result: PipelineResult,
              ground_truth: ForkGroundTruth) -> None:
    report = run_validation(
        matrix, result, ground_truth,
        window=config.window_spec(), mds=config.mds_config(),
        ranges=list(config.ranges) if config.ranges else None,
        iterations=config.iterations, root_seed=config.root_seed,
        k_min=config.k_min, k_max=config.k_max,
        min_fork_present=config.min_fork_present,
    )
    out = config.out
    out.mkdir(parents=True, exist_ok=True)
    _write_json(_validation_payload(report), out / "validation.json")
    analyses = result.analyses
    with open(out / "fork_share.csv", "w", encoding="utf-8", newline="\n") as handle:
        handle.write("proposal_id,fork_share,k_star\n")
        for analysis in analyses:
            share = fork_cluster_share(analysis.clustering, ground_truth,
                                       config.min_fork_present)
            text = "" if share is None else repr(share)
            handle.write(f"{analysis.proposal_id},{text},"
                         f"{analysis.clustering.k_star}\n")
    # fork addresses per cluster, largest first, per proposal (stacked area)
    rank_count = max((a.clustering.k_star for a in analyses), default=0)
    series = {f"cluster {r + 1}": [] for r in range(rank_count)}
    for analysis in analyses:
        clustering = analysis.clustering
        counts = [0] * clustering.k_star
        for address, label in zip(clustering.addresses, clustering.assignments):
            if address in ground_truth.addresses:
                counts[int(label)] += 1
        counts.sort(reverse=True)
        for r in range(rank_count):
            series[f"cluster {r + 1}"].append(
                float(counts[r]) if r < len(counts) else 0.0)
    render_chart(ChartSpec(
        kind="stacked_area",
        title=f"{config.dao}: fork addresses per cluster",
        series=series,
        x=[float(a.proposal_id) for a in analyses],
        x_label="proposal id", y_label="fork addresses",
    ), out / "charts" / "fork_cluster_share.svg")
    for summary in report.genuine:
        stats = {s.range: s for s in report.randomized}.get(summary.range)
        rand = (f"rand avg {stats.avg_clusters_mean:.2f} clusters / "
                f"{(stats.fork_share_mean or 0):.4f} share" if stats else "no baseline")
        share = "n/a" if summary.fork_share is None else f"{summary.fork_share:.4f}"
        print(f"validate {summary.range[0]}-{summary.range[1]}: "
              f"{summary.avg_clusters:.2f} clusters / {share} share | {rand}")


def cmd_validate(config: RunConfig) -> int:
    """Genuine vs shuffled-baseline comparison over proposal ranges."""
    ground_truth = _load_ground_truth(config)
    if ground_truth is None:
        raise ConfigError("validate needs --ground-truth")
    matrix = build_voter_matrix(_load_events(config))
    _validate(config, matrix, _analyze(config, matrix), ground_truth)
    return 0


def cmd_all(config: RunConfig) -> int:
    """Full pipeline; validation runs when ground truth is supplied."""
    ground_truth = _load_ground_truth(config)
    events = _load_events(config, fetch=True)
    if config.fixture or config.rpc_url:
        _write_ingested(config, events)
    matrix = build_voter_matrix(events)
    _friction(config, matrix)
    result = _analyze(config, matrix)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forkcast",
        description="Detect emerging partisan voting blocs in DAO governance.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _COMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        p.add_argument("--dao", help="registry name / output subdirectory")
        p.add_argument("--fixture", help="JSONL vote fixture path")
        p.add_argument("--rpc-url", dest="rpc_url",
                       help=f"EVM JSON-RPC endpoint (or ${RPC_URL_ENV})")
        p.add_argument("--registry", dest="registry_path",
                       help="registry JSON overriding the bundled one")
        p.add_argument("--ground-truth", dest="ground_truth",
                       help="fork address list, one per line")
        p.add_argument("--config", help="JSON config file mirroring RunConfig")
        p.add_argument("--window", dest="window_size", type=int)
        p.add_argument("--threshold", dest="participation_threshold", type=float)
        p.add_argument("--k-min", dest="k_min", type=int)
        p.add_argument("--k-max", dest="k_max", type=int)
        p.add_argument("--mds-iterations", dest="max_iterations", type=int)
        p.add_argument("--mds-tolerance", dest="tolerance", type=float)
        p.add_argument("--iterations", type=int, help="shuffle iterations")
        p.add_argument("--seed", dest="root_seed", type=int)
        p.add_argument("--ranges", help="e.g. 319-362,349-362")
        p.add_argument("--out", dest="output_dir")
        p.add_argument("--min-fork-present", dest="min_fork_present", type=int)
        p.add_argument("--rolling-stat", dest="rolling_stat",
                       choices=("max", "mean"))
        p.add_argument("--export-dissim", dest="export_dissim",
                       action="store_const", const=True, default=None)
        p.add_argument("--from-block", dest="from_block", type=int)
        p.add_argument("--to-block", dest="to_block", type=int)
        p.add_argument("--chunk-size", dest="chunk_size", type=int)
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
