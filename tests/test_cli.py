"""CLI orchestration: config precedence, artifacts, determinism."""

from __future__ import annotations

import builtins
import collections
import csv
import hashlib
import json
import multiprocessing
import os
from pathlib import Path

import pytest

import forkcast.cli as cli_module
import forkcast.config as config_module
import forkcast.pipeline as pipeline_module
import forkcast.validate as validate_module
from forkcast import AnalysisSpec, MdsConfig, VoteEvent, WindowSpec
from forkcast.cli import build_parser, main
from forkcast.config import bundled_registry, parse_ranges, resolve_config
from forkcast.errors import ConfigError, EmptyActiveSet
from forkcast.ingest import load_fixture_with_report, write_fixture

from conftest import compact_copy, events_from_rows, read_through_fifo, usable_cpus

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
    (["--mds-tolerance", "nan"], None),
    ([], '{"tolerance": NaN}'),  # json.load reads NaN
    (["--mds-tolerance", "inf"], None),  # every frame would stop after one step
    ([], '{"tolerance": Infinity}'),
    ([], {"export_dissim": "false"}),
    ([], {"participation_threshold": True}),
    ([], {"tolerance": True}),
    ([], {"rpc_url": 5}),
    (["--chunk-size", "0"], None),  # the exporter's settings, although a fixture
    ([], {"chunk_size": 0}),        # run never reads them
    (["--chunk-size", "-3"], None),
    ([], {"chunk_size": -3}),
    (["--from-block", "9", "--to-block", "2"], None),
    ([], {"from_block": 9, "to_block": 2}),
    ([], "{bad"),  # not JSON
    (["--config", "no-such-config.json"], None),
], ids=["window-file", "window-flag", "tolerance", "rolling-stat", "k-min-1",
        "k-min-above-k-max", "iterations", "min-fork-present", "ranges-short-pair",
        "ranges-int", "ranges-empty", "config-list", "config-null", "window-float",
        "window-bool", "k-min-float", "iterations-float", "seed-float",
        "from-block-float", "tolerance-nan-flag", "tolerance-nan-file",
        "tolerance-inf-flag", "tolerance-inf-file",
        "flag-string", "threshold-bool", "tolerance-bool", "rpc-url-int",
        "chunk-zero-flag", "chunk-zero-file", "chunk-negative-flag",
        "chunk-negative-file", "blocks-reversed-flag", "blocks-reversed-file",
        "config-malformed-json", "config-missing"])
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


@pytest.mark.parametrize("dao", [5, ["planted"]], ids=["int", "list"])
def test_dao_from_config_must_be_a_string(tmp_path, capsys, dao):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"dao": dao}))
    out = tmp_path / "out"
    code = run(["all", "--config", str(config_file), "--fixture", str(FIXTURE),
                "--out", str(out)])
    assert code == 2
    assert "ConfigError: dao must be a string" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("via", ["config", "command_line"])
@pytest.mark.parametrize("dao", ["", ".", "..", "a/b", "a\\b", "a\x00b"],
                         ids=["empty", "dot", "dotdot", "slash", "backslash", "nul"])
def test_dao_must_be_one_directory_name(tmp_path, capsys, dao, via):
    """On the command line the bad name, even a falsy ``""``, must still beat
    the config file's ``nouns``."""
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"dao": dao if via == "config" else "nouns"}))
    out = tmp_path / "out"
    dao_args = ["--dao", dao] if via == "command_line" else []
    code = run(["friction", *dao_args, "--config", str(config_file),
                "--fixture", str(FIXTURE), "--out", str(out)])
    assert code == 2
    assert "ConfigError: dao must be one directory name" in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.rglob("friction.csv"))


def test_null_named_registry_entry_is_config_error(tmp_path, capsys):
    """Unchecked, an entry named null would match every run that names no
    ``--dao`` and hand it its analysis defaults."""
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps({"daos": [
        {**_PLANTED_ENTRY, "name": None, "analysis_defaults": {"window_size": 3}}]}))
    out = tmp_path / "out"
    code = run(["friction", "--registry", str(registry), "--fixture", str(FIXTURE),
                "--out", str(out)])
    assert code == 2
    assert ("ConfigError: bad registry entry None: dao must be one directory name"
            in capsys.readouterr().err)
    assert not out.exists()


def test_registry_path_that_is_not_a_path_is_never_opened(tmp_path, monkeypatch):
    """``open(True)`` would read, then close, file descriptor 1."""
    opened = []

    def recording_open(file, *args, **kwargs):
        opened.append(file)
        return builtins.open(file, *args, **kwargs)

    monkeypatch.setattr(config_module, "open", recording_open, raising=False)
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"registry_path": True}))
    with pytest.raises(ConfigError, match="cannot read registry True"):
        resolve_config(build_parser().parse_args(["analyze", "--config", str(config_file)]))
    assert opened == [config_file]


def test_int_setting_is_a_valid_number(tmp_path):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"participation_threshold": 1}))
    config, _ = resolve_config(build_parser().parse_args(
        ["analyze", "--config", str(config_file)]))
    assert config.participation_threshold == 1


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
    json.dumps({"daos": [{**_PLANTED_ENTRY, "event_signatures": ["not a signature"]}]}),
    json.dumps({"daos": [{**_PLANTED_ENTRY,
                          "event_signatures": ["VoteCast(uint256,uint8)"]}]}),
    json.dumps({"daos": [_PLANTED_ENTRY, {**_PLANTED_ENTRY, "end_block": 9}]}),
    json.dumps({"daos": [{**_PLANTED_ENTRY, "analysis_defaults": {"windw": 3}}]}),
    json.dumps({"daos": [_PLANTED_ENTRY, {**_PLANTED_ENTRY, "name": "other",
                                          "analysis_defaults": {"windw_size": 3}}]}),
    json.dumps({"daos": [{**_PLANTED_ENTRY,
                          "analysis_defaults": {"registry_path": "nope.json"}}]}),
    json.dumps({"daos": [{**_PLANTED_ENTRY, "analysis_defaults": {"dao": "other"}}]}),
], ids=["malformed-json", "top-level-list", "daos-object", "entry-int",
        "float-default", "float-block", "bool-block", "signatures-string",
        "signature-null", "signature-unparsable", "signature-no-voter",
        "name-twice", "unknown-default", "unknown-default-other-entry",
        "default-registry-path", "default-dao"])
def test_bad_registry_is_config_error_before_any_input(tmp_path, capsys, text):
    registry = tmp_path / "registry.json"
    registry.write_text(text)
    out = tmp_path / "out"
    code = run(["all", "--dao", "planted", "--fixture", str(FIXTURE),
                "--registry", str(registry), "--out", str(out)])
    assert code == 2
    assert "ConfigError" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "friction", "analyze", "validate", "all"])
def test_unusable_signature_is_config_error_for_every_command(tmp_path, capsys, command):
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps({"daos": [{**_PLANTED_ENTRY,
                                              "event_signatures": ["Voted(uint256,uint8)"]}]}))
    out = tmp_path / "out"
    code = run([command, "--dao", "planted", "--fixture", str(FIXTURE),
                "--registry", str(registry), "--out", str(out)])
    assert code == 2
    assert "no address (voter) parameter" in capsys.readouterr().err
    assert not out.exists()


def test_config_precedence(tmp_path):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"window_size": 7, "k_max": 4}))
    args = build_parser().parse_args([
        "analyze", "--config", str(config_file), "--k-max", "3"])
    config, _ = resolve_config(args)
    assert config.window_size == 7       # from file
    assert config.k_max == 3             # CLI beats file
    assert config.participation_threshold == 0.40  # built-in default


def test_registry_defaults_feed_config():
    args = build_parser().parse_args(["analyze", "--dao", "nouns"])
    config, entry = resolve_config(args)
    assert entry.name == "nouns"
    assert config.ranges == ((1, 362), (257, 362), (319, 362), (349, 362))
    assert config.participation_threshold == 0.40


def test_registry_entry_is_the_resolved_dao(tmp_path):
    """The entry and its defaults belong to the dao the run resolves to, by
    the same precedence: a command-line ``--dao`` beats the config file's."""
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"dao": "nouns"}))
    for dao, name in (("compound", "compound"), ("unlisted", None)):
        config, entry = resolve_config(build_parser().parse_args(
            ["analyze", "--dao", dao, "--config", str(config_file)]))
        assert config.dao == dao
        assert (entry and entry.name) == name
        assert config.ranges is None


def test_registry_naming_a_dao_twice_is_config_error(tmp_path):
    """A second entry must not replace the first: here it would drop the
    verified Nouns ranges and raise the threshold to 0.9."""
    document = json.loads((ROOT / "src" / "forkcast" / "data" / "registry.json")
                          .read_text(encoding="utf-8"))
    nouns = next(raw for raw in document["daos"] if raw["name"] == "nouns")
    document["daos"].append({**nouns, "analysis_defaults": {"participation_threshold": 0.9}})
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps(document))
    args = build_parser().parse_args(["analyze", "--dao", "nouns",
                                      "--registry", str(registry)])
    with pytest.raises(ConfigError, match="^bad registry entry 'nouns': the registry "
                                          "already names this dao$"):
        resolve_config(args)


def test_unknown_config_key_rejected(tmp_path):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"not_a_field": 1}))
    args = build_parser().parse_args(["analyze", "--config", str(config_file)])
    with pytest.raises(ConfigError):
        resolve_config(args)


def test_defaults_match_nouns_parameterization():
    config, _ = resolve_config(build_parser().parse_args(["analyze"]))
    assert (config.window_size, config.participation_threshold) == (10, 0.40)
    assert (config.k_min, config.k_max) == (2, 5)
    assert (config.max_iterations, config.tolerance) == (300, 1e-6)
    assert config.iterations == 100


def test_analysis_spec_carries_every_analysis_flag():
    config, _ = resolve_config(build_parser().parse_args([
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


def test_ingest_reads_a_fixture_through_a_fifo(tmp_path):
    out = tmp_path / "out"
    code = read_through_fifo(
        tmp_path / "votes.fifo", compact_copy(FIXTURE.read_text()).encode(),
        lambda fifo: run(["ingest", "--dao", "planted", "--fixture", str(fifo),
                          "--out", str(out)]))
    assert code == 0
    assert (out / "planted" / "votes.jsonl").read_bytes() == FIXTURE.read_bytes()


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


def test_ingest_rpc_reads_the_registry_once(tmp_path, monkeypatch):
    """The entry whose analysis defaults were merged is the one fetched with."""
    reads = []
    monkeypatch.setattr(config_module, "bundled_registry",
                        lambda: reads.append(1) or bundled_registry())
    monkeypatch.setattr(cli_module, "fetch_logs", lambda *args, **kwargs: [])
    monkeypatch.setenv("FORKCAST_RPC_URL", "https://rpc.example")
    assert run(["ingest", "--dao", "nouns", "--out", str(tmp_path)]) == 0
    assert reads == [1]


@pytest.mark.parametrize("command", ["ingest", "all"])
def test_rpc_export_of_a_dao_missing_from_the_registry(tmp_path, monkeypatch, capsys,
                                                        command):
    monkeypatch.setattr(cli_module, "fetch_logs", lambda *args, **kwargs: [])
    monkeypatch.setenv("FORKCAST_RPC_URL", "https://rpc.example")
    assert run([command, "--dao", "nowhere", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: ConfigError: dao 'nowhere' not in registry\n")


RPC = ["--rpc-url", "http://127.0.0.1:9"]


@pytest.mark.parametrize("argv,rpc_env,error", [
    (["ingest"], False, "ConfigError: need --fixture or --rpc-url (or $FORKCAST_RPC_URL)"),
    (["validate", "--fixture", str(FIXTURE)], False,
     "ConfigError: validate needs --ground-truth"),
    (["friction"], False, "MissingArtifact: no fixture: pass --fixture or run "
     "`forkcast ingest` (looked at {out}/dao/votes.jsonl)"),
    (["ingest", "--dao", "nodao", *RPC], False, "ConfigError: dao 'nodao' not in registry"),
    (["ingest", "--dao", "nouns", *RPC, "--from-block", "1"], False,
     "ConfigError: range 1..18144239 outside [12985453, 18144239]"),
    (["ingest", "--dao", "nouns", "--from-block", "1", "--to-block", "2"], True,
     "ConfigError: range 1..2 outside [12985453, 18144239]"),
], ids=["ingest-no-input", "validate-no-ground-truth", "friction-no-ingested-copy",
        "rpc-dao-not-in-registry", "rpc-range-before-deploy", "env-rpc-range-before-deploy"])
def test_bad_input_choice_exits_2_before_any_directory(tmp_path, monkeypatch, capsys,
                                                       argv, rpc_env, error):
    """What a command reads is decided, and a bad choice rejected, before
    `out/<dao>/` is made and before anything is fetched."""
    def never_called(*args, **kwargs):
        raise AssertionError("fetched before the inputs were checked")

    monkeypatch.setattr(cli_module, "fetch_logs", never_called)
    if rpc_env:
        monkeypatch.setenv("FORKCAST_RPC_URL", "http://127.0.0.1:9")
    else:
        monkeypatch.delenv("FORKCAST_RPC_URL", raising=False)
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {error.format(out=out)}\n"
    assert not out.exists()


def test_config_file_ranges_list_form(tmp_path):
    config_file = tmp_path / "run.json"
    config_file.write_text(json.dumps({"ranges": [[1, 10], [5, 10]]}))
    args = build_parser().parse_args(["analyze", "--config", str(config_file)])
    assert resolve_config(args)[0].ranges == ((1, 10), (5, 10))


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


@pytest.mark.parametrize("command", ["ingest", "friction", "analyze", "validate", "all"])
def test_out_that_cannot_be_a_directory_is_config_error_before_any_input(
        tmp_path, monkeypatch, capsys, command):
    def never_called(*args, **kwargs):
        raise AssertionError("an input was read before the output directory was made")

    monkeypatch.setattr(cli_module, "load_fixture_with_report", never_called)
    monkeypatch.setattr(cli_module, "load_ground_truth", never_called)
    out = tmp_path / "regular_file"
    out.write_text("")
    argv = [command, "--dao", "planted", "--fixture", str(FIXTURE), "--out", str(out)]
    if command in ("analyze", "validate", "all"):
        argv += ["--ground-truth", str(FORKERS)]
    assert run(argv) == 2
    assert "ConfigError" in capsys.readouterr().err


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def test_every_output_csv_has_rows_as_wide_as_its_header(tmp_path):
    out = tmp_path / "out"
    assert run(["all", "--dao", "planted", "--fixture", str(FIXTURE),
                "--ground-truth", str(FORKERS), "--iterations", "1", "--export-dissim",
                "--mds-iterations", "20", "--out", str(out)]) == 0
    paths = sorted(out.rglob("*.csv"))
    assert {path.parent.name for path in paths} == {"planted", "charts", "mds", "dissim"}
    for path in paths:
        header, *rows = _read_csv(path)
        assert all(len(row) == len(header) for row in rows), path


def test_csv_fields_with_commas_read_back_verbatim(tmp_path, monkeypatch):
    """A field holding a comma or a quote is quoted, not rewritten: the DAO
    name in the category chart's CSV, and a skip reason in skipped.csv."""
    out = tmp_path / "out"
    assert run(["friction", "--dao", "a,b", "--fixture", str(FIXTURE),
                "--out", str(out)]) == 0
    rows = _read_csv(out / "a,b" / "charts" / "disagreement_categories.csv")
    assert [row[0] for row in rows[1:]] == ["a,b"]

    reason = 'proposal 3: "odd", says the test'
    active_set = pipeline_module.active_set

    def skip_third(matrix, j, window):
        if j == 3:
            raise EmptyActiveSet(reason)
        return active_set(matrix, j, window)

    monkeypatch.setattr(pipeline_module, "active_set", skip_third)
    assert run(["analyze", "--dao", "planted", "--fixture", str(FIXTURE),
                "--mds-iterations", "5", "--out", str(out)]) == 0
    assert _read_csv(out / "planted" / "skipped.csv") == [["proposal_id", "reason"],
                                                          ["3", reason]]


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
    assert not (out / "planted" / "mds").exists()
    assert not (out / "planted" / "dissim").exists()


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


def test_all_loads_builds_and_analyzes_once(tmp_path, monkeypatch, one_cpu):
    """`all` parses its input once, builds one matrix and runs one genuine
    analysis that analyze and validate share; each shuffle adds one more.
    With one CPU the shuffles run in this process, where the calls are counted."""
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


def _fail_in_worker(matrix, seed):
    raise ValueError(f"shuffle failed in process {os.getpid()}")


def _fail_in_genuine_pass(matrix, spec, **kwargs):
    assert multiprocessing.active_children(), "no shuffled-pass workers are running"
    raise ValueError(f"genuine pass failed in process {os.getpid()}")


@pytest.mark.parametrize("module,name,replacement,where", [
    (None, None, None, None),
    (validate_module, "shuffle_votes", _fail_in_worker, "worker"),
    (cli_module, "analyze_matrix", _fail_in_genuine_pass, "parent"),
], ids=["success", "worker-error", "genuine-pass-error"])
def test_all_leaves_no_worker_process(tmp_path, monkeypatch, module, name, replacement,
                                      where):
    """`all` with its shuffled passes in two worker processes leaves none
    running, whether it succeeds, a worker raises, or the genuine pass raises
    while the workers run."""
    usable_cpus(monkeypatch, 2)
    argv = ["all", "--dao", "planted", "--fixture", str(FIXTURE),
            "--ground-truth", str(FORKERS), "--iterations", "2",
            "--mds-iterations", "5", "--out", str(tmp_path)]
    if module is None:
        assert run(argv) == 0
    else:
        monkeypatch.setattr(module, name, replacement)
        with pytest.raises(ValueError, match="failed in process") as raised:
            run(argv)
        in_parent = str(raised.value).endswith(f"process {os.getpid()}")
        assert in_parent == (where == "parent")
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("command,lines,ranges,empty", [
    ("validate", None, ["--ranges", "2-60,500-600"], "500..600"),
    ("all", None, ["--ranges", "2-60,500-600"], "500..600"),
    ("all", 20, [], "1..1"),  # the first 20 votes: a one-proposal history
], ids=["validate", "all", "all-default-range"])
def test_empty_range_fails_before_any_frame_is_analyzed(tmp_path, monkeypatch, capsys,
                                                        command, lines, ranges, empty):
    """A --ranges entry, or with no --ranges the whole history, with no
    proposal at positions 2..m exits 1 with the EmptyRange message before
    friction or the genuine analysis runs."""
    fixture = tmp_path / "votes.jsonl"
    fixture.write_text("".join(FIXTURE.read_text().splitlines(keepends=True)[:lines]))
    calls = []
    monkeypatch.setattr(cli_module, "analyze_matrix",
                        lambda *args, **kwargs: calls.append(1))
    out = tmp_path / "out"
    assert run([command, "--dao", "planted", "--fixture", str(fixture),
                "--ground-truth", str(FORKERS), *ranges, "--iterations", "2",
                "--mds-iterations", "5", "--out", str(out)]) == 1
    assert calls == []
    assert capsys.readouterr().err == (
        f"error: EmptyRange: no analyzable proposals in {empty}\n")
    assert not (out / "planted" / "friction.csv").exists()


def test_all_rpc_collapses_duplicates_like_ingest_then_all(tmp_path, monkeypatch,
                                                           capsys):
    """`all --rpc-url` collapses a fetched duplicate vote in memory and writes
    the tree that `ingest` followed by `all` on the written copy writes."""
    events = load_fixture_with_report(FIXTURE)[0].events()
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
    written = load_fixture_with_report(copy)[0].events()
    assert revote in written and original not in written
    assert tree_digest(one) == tree_digest(two)


def test_all_without_ground_truth_skips_validation(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["all", "--dao", "planted", "--fixture", str(FIXTURE),
                "--iterations", "0", "--out", str(out)]) == 0
    assert "skipping validation" in capsys.readouterr().out
    assert not (out / "planted" / "validation.json").exists()
