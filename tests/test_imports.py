"""Each ``forkcast`` module imports cleanly when it is the first one imported."""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import forkcast

SRC = Path(__file__).resolve().parent.parent / "src"

# drops every forkcast module from sys.modules, then imports the next name
_IMPORT_EACH_FIRST = """
import importlib
import sys

for name in sys.argv[1:]:
    for key in [key for key in sys.modules if key.split(".")[0] == "forkcast"]:
        del sys.modules[key]
    importlib.import_module(name)
"""


def test_each_module_imports_first():
    """Guards against import cycles, such as matrix -> report -> embed ->
    dissim -> matrix if ``report`` imported ``Embedding`` at run time."""
    names = ["forkcast", *sorted(module.name for module in
                                 pkgutil.iter_modules(forkcast.__path__, "forkcast."))]
    assert "forkcast.report" in names
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    result = subprocess.run([sys.executable, "-c", _IMPORT_EACH_FIRST, *names],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
