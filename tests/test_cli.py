"""CLI orchestration: config precedence, artifacts, determinism."""

from __future__ import annotations

import collections
import hashlib
import json
from pathlib import Path

import pytest

import forkcast.cli as cli_module
import forkcast.pipeline as pipeline_module
import forkcast.validate as validate_module
from forkcast import AnalysisSpec, MdsConfig, VoteEvent, WindowSpec
from forkcast.cli import build_parser, main, parse_ranges, resolve_config
from forkcast.errors import ConfigError
from forkcast.ingest import load_fixture_with_report, write_fixture

from conftest import events_from_rows

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "data" / "planted" / "votes.jsonl"
FORKERS = ROOT / "data" / "planted" / "forkers.txt"


def run(argv: list[str]) -> int:
    return main(argv)


def tree_digest(root: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digests[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digests


def test_parse_ranges():
    assert parse_ranges("319-362,349-362") == ((319, 362), (349, 362))
    with pytest.raises(ConfigError):
        parse_ranges("5")
    with pytest.raises(ConfigError):
        parse_ranges("9-3")


@pytest.mark.parametrize("flags,config", [
    ([], {"window_size": 0}),
    (["--window", "0"], None),
    ([], {"tolerance": 0}),
    ([], {"rolling_stat": "median"}),
    (["--k-min", "1"], None),
    (["--k-min", "6"], None),  # above the default k_max of 5
    (["--iterations", "-2"], None),
    ([], {"min_fork_present": 1}),  # a deleted setting is an unknown key
    ([], {"ranges": [[1]]}),
    ([], {"ranges": 5}),
    ([], {"ranges": [[60, 41]]}),
    ([], "[{}]"),  # a config file that is not a JSON object
    ([], "null"),
    ([], {"window_size": 2.5}),
    ([], {"window_size": True}),
    ([], {"k_min": 2.0}),
    ([], {"iterations": 1.5}),
    ([], {"root_seed": 2.5}),
    ([], {"from_block": 2.5}),
], ids=["window-file", "window-flag", "tolerance", "rolling-stat", "k-min-1",
        "k-min-above-k-max", "iterations", "min-fork-present", "ranges-short-pair",
        "ranges-int", "ranges-empty", "config-list", "config-null", "window-float",
        "window-bool", "k-min-float", "iterations-float", "seed-float",
        "from-block-float"])
def test_bad_setting_is_config_error_before_any_input(tmp_path, capsys, flags, config):
    """``config`` is the config file's contents: a value to write as JSON, or
    the file's text when it is a string."""
    config_flags = []
    if config is not None:
        config_file = tmp_path / "run.json"
        config_file.write_text(config if isinstance(config, str) else json.dumps(config))
        config_flags = ["--config", str(config_file)]
    out = tmp_path / "out"
    code = run(["all", "--dao", "planted", "--fixture", str(FIXTURE),
                "--ground-truth", str(FORKERS), "--out", str(out), *config_flags, *flags])
    assert code == 2
    assert "ConfigError" in capsys.readouterr().err
    assert not out.exists()  # rejected before any stage ran


_PLANTED_ENTRY = {"name": "planted", "chain": "ethereum",
                  "governance_contract": "0x" + "11" * 20, "deploy_block": 0,
                  "end_block": 1, "event_signatures": ["VoteCast(address,uint256,uint8)"]}


@pytest.mark.parametrize("text", [
    '{"daos": [',
    '[]',
    '{"daos": {}}',
    '{"daos": [1]}',
    json.dumps({"daos": [{**_PLANTED_ENTRY, "analysis_defaults": {"window_size": 2.5}}]}),
    json.dumps({"daos": [{**_PLANTED_ENTRY, "deploy_block": 1.9}]}),
    json.dumps({"daos": [{**_PLANTED_ENTRY, "end_block": True}]}),
    json.dumps({"daos": [{**_PLANTED_ENTRY,
                          "event_signatures": "VoteCast(address,uint256,uint8)"}]}),
    json.dumps({"daos": [{**_PLANTED_ENTRY, "event_signatures": [None]}]}),
], ids=["malformed-json", "top-level-list", "daos-object", "entry-int",
        "float-default", "float-block", "bool-block", "signatures-string",
        "signature-null"])
def test_bad_registry_is_config_error_before_any_input(tmp_path, capsys, text):
    registry = tmp_path / "registry.json"
    registry.write_text(text)
    out = tmp_path / "out"
    code = run(["all", "--dao", "planted", "--fixture", str(FIXTURE),
                "--registry", str(registry), "--out", str(out)])
    assert code == 2
    assert "ConfigError" in capsys.readouterr().err
    assert not out.exists()


def test_config_precedence(tmp_path):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"window_size": 7, "k_max": 4}))
    args = build_parser().parse_args([
        "analyze", "--config", str(config_file), "--k-max", "3"])
    config = resolve_config(args)
    assert config.window_size == 7       # from file
    assert config.k_max == 3             # CLI beats file
    assert config.participation_threshold == 0.40  # built-in default


def test_registry_defaults_feed_config():
    args = build_parser().parse_args(["analyze", "--dao", "nouns"])
    config = resolve_config(args)
    assert config.ranges == ((1, 362), (257, 362), (319, 362), (349, 362))
    assert config.participation_threshold == 0.40


def test_unknown_config_key_rejected(tmp_path):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"not_a_field": 1}))
    args = build_parser().parse_args(["analyze", "--config", str(config_file)])
    with pytest.raises(ConfigError):
        resolve_config(args)


def test_defaults_match_nouns_parameterization():
    config = resolve_config(build_parser().parse_args(["analyze"]))
    assert (config.window_size, config.participation_threshold) == (10, 0.40)
    assert (config.k_min, config.k_max) == (2, 5)
    assert (config.max_iterations, config.tolerance) == (300, 1e-6)
    assert config.iterations == 100


def test_analysis_spec_carries_every_analysis_flag():
    config = resolve_config(build_parser().parse_args([
        "validate", "--window", "7", "--threshold", "0.5", "--k-min", "3",
        "--k-max", "4", "--mds-iterations", "20", "--mds-tolerance", "0.001",
        "--seed", "9"]))
    assert config.analysis_spec() == AnalysisSpec(WindowSpec(7, 0.5), MdsConfig(20, 0.001),
                                                  k_min=3, k_max=4, root_seed=9)


@pytest.mark.parametrize("command,flag", [
    ("friction", "--export-dissim"), ("friction", "--seed"), ("friction", "--k-max"),
    ("ingest", "--window"), ("ingest", "--ranges"), ("ingest", "--ground-truth"),
    ("analyze", "--iterations"), ("analyze", "--ranges"),
    ("validate", "--export-dissim"), ("validate", "--chunk-size"),
    ("validate", "--rpc-url"), ("friction", "--rolling-stat"),
])
def test_command_rejects_flags_it_does_not_read(tmp_path, capsys, command, flag):
    value = [] if flag == "--export-dissim" else ["3"]
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--out", str(tmp_path), flag, *value])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_ingest_normalizes_fixture(tmp_path):
    out = tmp_path / "out"
    code = run(["ingest", "--dao", "planted", "--fixture", str(FIXTURE),
                "--out", str(out)])
    assert code == 0
    copied = out / "planted" / "votes.jsonl"
    assert copied.exists()
    assert copied.read_bytes() == FIXTURE.read_bytes()  # already canonical


def test_ingest_without_inputs_fails(tmp_path):
    assert run(["ingest", "--dao", "x", "--out", str(tmp_path)]) == 2


def test_ingest_rpc_path_wiring(tmp_path, monkeypatch):
    """RPC ingest resolves the registry entry and default block range."""
    captured = {}

    def fake_fetch(url, entry, block_range, *, chunk_size):
        captured.update(url=url, entry=entry, block_range=block_range,
                        chunk_size=chunk_size)
        from forkcast import VoteEvent

        return [VoteEvent(addr_for_test, 1, 1, entry.deploy_block, 0)]

    addr_for_test = "0x" + "ab" * 20
    monkeypatch.setattr(cli_module, "fetch_logs", fake_fetch)
    monkeypatch.setenv("FORKCAST_RPC_URL", "https://rpc.example")
    out = tmp_path / "out"
    assert run(["ingest", "--dao", "nouns", "--out", str(out),
                "--chunk-size", "500"]) == 0
    assert captured["url"] == "https://rpc.example"
    assert captured["entry"].name == "nouns"
    assert captured["block_range"] == (12985453, 18144239)
    assert captured["chunk_size"] == 500
    assert (out / "nouns" / "votes.jsonl").exists()


def test_ingest_rpc_bad_block_range_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FORKCAST_RPC_URL", "https://rpc.example")
    code = run(["ingest", "--dao", "nouns", "--out", str(tmp_path),
                "--from-block", "1", "--to-block", "2"])  # before deploy
    assert code == 2
    assert "ConfigError" in capsys.readouterr().err


def test_config_file_ranges_list_form(tmp_path):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"ranges": [[1, 10], [5, 10]]}))
    args = build_parser().parse_args(["analyze", "--config", str(config_file)])
    assert resolve_config(args).ranges == ((1, 10), (5, 10))


def test_missing_fixture_is_structured_error(tmp_path, capsys):
    code = run(["analyze", "--dao", "nope", "--out", str(tmp_path)])
    assert code == 2
    assert "MissingArtifact" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "all"])
def test_missing_ground_truth_is_structured_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    code = run([command, "--dao", "planted", "--fixture", str(FIXTURE),
                "--ground-truth", str(tmp_path / "absent.txt"), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "MissingArtifact" in err and "absent.txt" in err
    assert not out.exists()  # rejected before any stage ran


def _with_bad_byte(source: Path, target: Path, line: int) -> Path:
    """Copy ``source`` with a byte that is not UTF-8 at the end of ``line``."""
    lines = source.read_bytes().splitlines(keepends=True)
    lines[line - 1] = lines[line - 1].rstrip(b"\n") + b"\xff\n"
    target.write_bytes(b"".join(lines))
    return target


@pytest.mark.parametrize("argv,line", [
    (["friction", "--fixture", "{bad}"], 700),
    (["analyze", "--fixture", str(FIXTURE), "--ground-truth", "{bad}"], 4),
], ids=["fixture", "ground-truth"])
def test_non_utf8_input_is_parse_error_naming_its_line(tmp_path, capsys, argv, line):
    source = FORKERS if "--ground-truth" in argv else FIXTURE
    bad = _with_bad_byte(source, tmp_path / source.name, line)
    out = tmp_path / "out"
    argv = [arg.replace("{bad}", str(bad)) for arg in argv]
    assert run([*argv, "--dao", "planted", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"ParseError: line {line}: not UTF-8" in err


def test_deeply_nested_fixture_line_is_parse_error(tmp_path, capsys):
    lines = FIXTURE.read_text().splitlines(keepends=True)
    deep = tmp_path / "deep.jsonl"
    deep.write_text("".join(lines[:2]) + "[" * 2000 + "\n" + "".join(lines[2:]))
    assert run(["friction", "--dao", "planted", "--fixture", str(deep),
                "--out", str(tmp_path / "out")]) == 1
    assert "ParseError: line 3: maximum recursion depth" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--fixture", "--ground-truth"])
def test_directory_input_is_missing_artifact(tmp_path, capsys, flag):
    argv = ["analyze", "--dao", "planted", "--fixture", str(FIXTURE),
            "--ground-truth", str(FORKERS), "--out", str(tmp_path / "out")]
    argv[argv.index(flag) + 1] = str(tmp_path)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "MissingArtifact" in err and "is a directory" in err


def test_friction_outputs(tmp_path):
    out = tmp_path / "out"
    assert run(["friction", "--dao", "planted", "--fixture", str(FIXTURE),
                "--out", str(out)]) == 0
    base = out / "planted"
    assert (base / "friction.csv").exists()
    summary = json.loads((base / "friction_summary.json").read_text())
    assert summary["proposals"] == 60
    assert 0.99 < sum(summary["category_shares"].values()) < 1.01
    assert (base / "charts" / "disagreement_categories.svg").exists()
    assert (base / "charts" / "rolling_disagreement.csv").exists()


def test_analyze_writes_expected_artifacts(tmp_path):
    out = tmp_path / "out"
    assert run(["analyze", "--dao", "planted", "--fixture", str(FIXTURE),
                "--ground-truth", str(FORKERS), "--out", str(out)]) == 0
    base = out / "planted"
    embeddings = (base / "embeddings.csv").read_text().splitlines()
    assert embeddings[0] == "address,x,y,proposal_id"
    proposals = {line.rsplit(",", 1)[1] for line in embeddings[1:]}
    assert len(proposals) == 59  # 60 proposals minus the skipped first
    assert (base / "matrix.csv").exists()
    assert (base / "clusters.csv").exists()
    assert (base / "silhouettes.csv").exists()
    assert (base / "mds" / "2.svg").exists()
    assert (base / "mds" / "2_gt.svg").exists()
    assert (base / "mds" / "60.svg").exists()
    assert (base / "charts" / "cluster_counts.svg").exists()
    assert (base / "charts" / "silhouette_2.svg").exists()
    assert (base / "charts" / "silhouette_60.csv").exists()
    skipped = (base / "skipped.csv").read_text().splitlines()
    assert skipped == ["proposal_id,reason"]


def test_frame_smaller_than_k_min_is_skipped(tmp_path, monkeypatch):
    fixture = tmp_path / "three.jsonl"
    write_fixture(events_from_rows([[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 1]]), fixture)
    out = tmp_path / "out"

    def never_called(*args, **kwargs):
        raise AssertionError("a frame below k_min reached the dissimilarity or MDS step")

    monkeypatch.setattr(pipeline_module, "dissimilarity_matrix", never_called)
    monkeypatch.setattr(pipeline_module, "mds_embed", never_called)
    assert run(["analyze", "--fixture", str(fixture), "--k-min", "4", "--k-max", "5",
                "--out", str(out)]) == 0
    skipped = (out / "dao" / "skipped.csv").read_text().splitlines()
    assert skipped == ["proposal_id,reason"] + [
        f"{pid},k_min=4 exceeds usable maximum 3" for pid in (2, 3, 4)]


def test_validate_iterations_zero(tmp_path):
    out = tmp_path / "out"
    assert run(["validate", "--dao", "planted", "--fixture", str(FIXTURE),
                "--ground-truth", str(FORKERS), "--iterations", "0",
                "--ranges", "41-60", "--out", str(out)]) == 0
    payload = json.loads((out / "planted" / "validation.json").read_text())
    assert payload["iterations"] == 0
    assert payload["seeds"] == []
    [entry] = payload["ranges"]
    assert entry["range"] == [41, 60]
    assert entry["avg_clusters"]["value"] >= 2.0
    assert entry["avg_clusters"]["rand_avg"] is None
    assert (out / "planted" / "fork_share.csv").exists()
    assert (out / "planted" / "charts" / "fork_cluster_share.svg").exists()


def test_validate_summary_without_any_fork_share(tmp_path, capsys):
    """Ground truth naming only an address that never votes defines no fork
    share, genuine or shuffled; the summary says so for both."""
    truth = tmp_path / "nobody.txt"
    truth.write_text(f"0x{999:040x}\n")
    out = tmp_path / "out"
    assert run(["validate", "--dao", "planted", "--fixture", str(FIXTURE),
                "--ground-truth", str(truth), "--iterations", "1",
                "--ranges", "41-60", "--out", str(out)]) == 0
    [entry] = json.loads((out / "planted" / "validation.json").read_text())["ranges"]
    assert entry["fork_share"]["value"] is None
    assert entry["fork_share"]["rand_avg"] is None
    [line] = [text for text in capsys.readouterr().out.splitlines()
              if text.startswith("validate 41-60:")]
    assert line.endswith(" clusters / n/a share")
    assert "/ n/a share | rand avg " in line


def test_validate_requires_ground_truth(tmp_path):
    assert run(["validate", "--dao", "planted", "--fixture", str(FIXTURE),
                "--out", str(tmp_path)]) == 2


def test_export_dissim_flag(tmp_path):
    out = tmp_path / "out"
    assert run(["analyze", "--dao", "planted", "--fixture", str(FIXTURE),
                "--export-dissim", "--out", str(out)]) == 0
    assert (out / "planted" / "dissim" / "2.csv").exists()


def test_all_is_deterministic(tmp_path):
    """Two `all` runs with one root seed produce byte-identical trees."""
    trees = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert run(["all", "--dao", "planted", "--fixture", str(FIXTURE),
                    "--ground-truth", str(FORKERS), "--iterations", "2",
                    "--ranges", "41-60", "--seed", "7", "--out", str(out)]) == 0
        trees.append(tree_digest(out))
    assert trees[0] == trees[1]
    assert any(path.endswith("validation.json") for path in trees[0])


def test_all_loads_builds_and_analyzes_once(tmp_path, monkeypatch):
    """`all` parses its input once, builds one matrix and runs one genuine
    analysis that analyze and validate share; each shuffle adds one more."""
    calls = collections.Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    for module, name in ((cli_module, "load_fixture_with_report"),
                         (cli_module, "build_voter_matrix"),
                         (validate_module, "build_voter_matrix"),
                         (cli_module, "analyze_matrix"),
                         (validate_module, "analyze_matrix")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert run(["all", "--dao", "planted", "--fixture", str(FIXTURE),
                "--ground-truth", str(FORKERS), "--iterations", "2",
                "--mds-iterations", "20", "--out", str(tmp_path)]) == 0
    assert calls == {"load_fixture_with_report": 1, "build_voter_matrix": 1,
                     "analyze_matrix": 3}


@pytest.mark.parametrize("command", ["validate", "all"])
def test_empty_range_fails_before_any_frame_is_analyzed(tmp_path, monkeypatch, capsys,
                                                        command):
    """A --ranges entry with no proposal at positions 2..m exits 1 with the
    EmptyRange message before the genuine analysis runs."""
    calls = []
    monkeypatch.setattr(cli_module, "analyze_matrix",
                        lambda *args, **kwargs: calls.append(1))
    assert run([command, "--dao", "planted", "--fixture", str(FIXTURE),
                "--ground-truth", str(FORKERS), "--ranges", "2-60,500-600",
                "--iterations", "2", "--mds-iterations", "5",
                "--out", str(tmp_path)]) == 1
    assert calls == []
    assert capsys.readouterr().err == (
        "error: EmptyRange: no analyzable proposals in 500..600\n")


def test_all_rpc_collapses_duplicates_like_ingest_then_all(tmp_path, monkeypatch,
                                                           capsys):
    """`all --rpc-url` collapses a fetched duplicate vote in memory and writes
    the tree that `ingest` followed by `all` on the written copy writes."""
    events = load_fixture_with_report(FIXTURE)[0]
    original = next(e for e in events if e.support in (0, 1))
    revote = VoteEvent(original.voter, original.proposal_id, 1 - original.support,
                       events[-1].block_number + 1, 0)
    monkeypatch.setattr(cli_module, "fetch_logs",
                        lambda *args, **kwargs: [*events, revote])
    monkeypatch.delenv("FORKCAST_RPC_URL", raising=False)
    common = ["--dao", "nouns", "--ground-truth", str(FORKERS), "--ranges", "2-60",
              "--iterations", "1", "--mds-iterations", "20"]
    rpc = ["--rpc-url", "https://rpc.example"]
    one, two = tmp_path / "one", tmp_path / "two"
    assert run(["all", *common, *rpc, "--out", str(one)]) == 0
    assert "collapsed 1 duplicate votes" in capsys.readouterr().out
    assert run(["ingest", "--dao", "nouns", *rpc, "--out", str(two)]) == 0
    assert run(["all", *common, "--out", str(two)]) == 0
    copy = one / "nouns" / "votes.jsonl"
    assert len(copy.read_text().splitlines()) == len(events)
    written = load_fixture_with_report(copy)[0]
    assert revote in written and original not in written
    assert tree_digest(one) == tree_digest(two)


def test_all_without_ground_truth_skips_validation(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["all", "--dao", "planted", "--fixture", str(FIXTURE),
                "--iterations", "0", "--out", str(out)]) == 0
    assert "skipping validation" in capsys.readouterr().out
    assert not (out / "planted" / "validation.json").exists()
