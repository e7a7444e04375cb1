"""DAO registry loading: bundled defaults plus operator overrides.

The bundled entries are best-effort configuration, not code; only the nouns
entry carries values verified against its governance contract. Override any
entry by pointing ``--registry`` at your own document.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .ingest import DaoRegistryEntry


def parse_registry(document: dict) -> dict[str, DaoRegistryEntry]:
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


def load_registry(path: str | Path) -> dict[str, DaoRegistryEntry]:
    with open(path, encoding="utf-8") as handle:
        return parse_registry(json.load(handle))


def bundled_registry() -> dict[str, DaoRegistryEntry]:
    text = resources.files("forkcast").joinpath("data/registry.json").read_text("utf-8")
    return parse_registry(json.loads(text))
