"""Run configuration: a run's settings, its config file and the DAO registry.

Configuration precedence is CLI flags > config file (--config, JSON) >
registry analysis defaults > built-in defaults; the built-ins are the Nouns
DAO parameterization, the ``DEFAULT_*`` constants of ``dissim``, ``embed``,
``cluster`` and ``validate``. A config file may set any setting, and a
registry entry's ``analysis_defaults`` any but ``dao`` and ``registry_path``.
Of the bundled entries only nouns is verified against its governance
contract; the others are best-effort, and ``--registry`` overrides them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import types
import typing
from collections.abc import Sequence
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from . import abi
from .cluster import DEFAULT_K_MAX, DEFAULT_K_MIN
from .dissim import DEFAULT_PARTICIPATION_THRESHOLD, DEFAULT_WINDOW_SIZE, WindowSpec
from .embed import DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE, MdsConfig
from .errors import ConfigError
from .ingest import Address, normalize_address
from .pipeline import AnalysisSpec
from .validate import DEFAULT_ITERATIONS

RPC_URL_ENV = "FORKCAST_RPC_URL"

# the exact types a setting of each declared type takes, and their name: true
# is not a number, a flag is only true or false, an int is a valid float
_SETTING_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "true or false"),
    str: ((str,), "a string"),
}


def check_dao_name(name: object) -> None:
    """A dao's name is its output subdirectory: exactly one path component."""
    if (not isinstance(name, str) or name in ("", ".", "..")
            or any(c in name for c in "/\\\0")):
        raise ValueError(f"dao must be one directory name, got {name!r}")


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


_CONFIG_FIELDS = {setting.name for setting in dataclasses.fields(RunConfig)}
# an entry's defaults are looked up once the dao and registry are fixed
_DEFAULT_FIELDS = _CONFIG_FIELDS - {"dao", "registry_path"}


@dataclass(frozen=True)
class DaoRegistryEntry:
    """One DAO's governance contract and event configuration, checked when
    made; ``event_abis`` are its event signatures, parsed once. The keys of
    ``analysis_defaults`` are checked here, their values by ``RunConfig``."""

    name: str
    governance_contract: Address
    deploy_block: int
    end_block: int
    event_signatures: tuple[str, ...]
    analysis_defaults: dict = field(default_factory=dict, compare=False)
    event_abis: tuple[abi.EventAbi, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_dao_name(self.name)
        object.__setattr__(self, "governance_contract",
                           normalize_address(self.governance_contract))
        if not type(self.deploy_block) is type(self.end_block) is int:
            raise ValueError(f"{self.name}: deploy_block and end_block must be integers")
        if self.deploy_block > self.end_block:
            raise ValueError(f"{self.name}: deploy_block > end_block")
        signatures = self.event_signatures
        if not (isinstance(signatures, (list, tuple)) and signatures
                and all(isinstance(signature, str) for signature in signatures)):
            raise TypeError(
                f"event_signatures must be a non-empty list of strings, got {signatures!r}")
        if not isinstance(defaults := self.analysis_defaults, dict):
            raise TypeError(f"analysis_defaults must be a JSON object, got {defaults!r}")
        if unsettable := sorted(set(defaults) - _DEFAULT_FIELDS):
            raise ValueError(f"analysis_defaults cannot set {unsettable}")
        object.__setattr__(self, "event_signatures", tuple(signatures))
        object.__setattr__(self, "event_abis",
                           tuple(map(abi.parse_event_signature, signatures)))

    def block_range(self, lo: int | None = None, hi: int | None = None) -> tuple[int, int]:
        """The inclusive range ``lo..hi``, each end defaulting to the entry's own;
        one that is empty or leaves ``deploy_block..end_block`` is a ValueError."""
        lo = self.deploy_block if lo is None else lo
        hi = self.end_block if hi is None else hi
        if lo > hi:
            raise ValueError(f"empty block range {lo}..{hi}")
        if lo < self.deploy_block or hi > self.end_block:
            raise ValueError(
                f"range {lo}..{hi} outside [{self.deploy_block}, {self.end_block}]")
        return lo, hi


def _read_json(path: object, what: str) -> object:
    """The JSON document at ``path``; one that cannot be read is a
    ``ConfigError`` naming the ``what`` ("config" or "registry") and path."""
    try:  # ``Path`` refuses a non-path, which ``open`` could take as a file descriptor
        with open(Path(path), encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def parse_registry(document: object) -> dict[str, DaoRegistryEntry]:
    """Each entry of ``{"daos": [...]}`` by name; an entry that
    ``DaoRegistryEntry`` rejects, or a second entry for a name, is a
    ``ConfigError``. Unknown keys, such as ``chain``, are ignored."""
    daos = document.get("daos", []) if isinstance(document, dict) else None
    if not isinstance(daos, list) or not all(isinstance(raw, dict) for raw in daos):
        raise ConfigError('registry must be {"daos": [ {entry}, ... ]}')
    entries: dict[str, DaoRegistryEntry] = {}
    for raw in daos:
        try:
            entry = DaoRegistryEntry(
                raw["name"], raw["governance_contract"], raw["deploy_block"],
                raw["end_block"], raw["event_signatures"], raw.get("analysis_defaults", {}))
            if entry.name in entries:
                raise ValueError("the registry already names this dao")
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad registry entry {raw.get('name', '?')!r}: {exc}") from exc
        entries[entry.name] = entry
    return entries


def bundled_registry() -> dict[str, DaoRegistryEntry]:
    return parse_registry(_read_json(resources.files("forkcast") / "data/registry.json",
                                     "registry"))


def registry_entry(dao: object, path: object) -> DaoRegistryEntry | None:
    """The entry named ``dao`` (or None) in the registry at ``path``, or in the
    bundled one if ``path`` is empty; every entry is checked, whichever is asked for."""
    registry = parse_registry(_read_json(path, "registry")) if path else bundled_registry()
    # by name, not by hash: a dao that is not a string is left to RunConfig
    return next((entry for entry in registry.values() if entry.name == dao), None)


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
    file_values: dict = {}
    if getattr(args, "config", None):
        file_values = _read_json(args.config, "config")
        if not isinstance(file_values, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
        if unknown := sorted(set(file_values) - _CONFIG_FIELDS):
            raise ConfigError(f"unknown config keys: {unknown}")
    cli_values = {key: value for key, value in vars(args).items()
                  if key in _CONFIG_FIELDS and value is not None}
    merged = {**file_values, **cli_values}
    entry = registry_entry(merged.get("dao"), merged.get("registry_path"))
    values = {**(entry.analysis_defaults if entry else {}), **merged}
    if values.get("ranges") is not None:
        values["ranges"] = parse_ranges(values["ranges"])
    if values.get("rpc_url") is None and os.environ.get(RPC_URL_ENV):
        values["rpc_url"] = os.environ[RPC_URL_ENV]
    try:
        config = RunConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return config, entry
