"""Golden digest of the planted `all` tree: the bit-for-bit regression anchor.

``golden/planted_all.sha256`` holds the sha256 of every file that

    forkcast all --dao planted --fixture data/planted/votes.jsonl \\
        --ground-truth data/planted/forkers.txt --iterations 2 --export-dissim

writes, in ``sha256sum`` format with paths relative to ``--out``. A change
that is meant to keep every output bit (a faster distance, a cheaper CSV
writer) must leave this test green without touching the manifest. A change
that moves bits on purpose re-pins the manifest and says why in CHANGES.md:

    (cd OUT && find . -type f | sed 's|^\\./||' | LC_ALL=C sort \\
        | xargs sha256sum) > tests/golden/planted_all.sha256

Pinned with numpy 2.4.6 on OpenBLAS 0.3.31 (scipy-openblas, DYNAMIC_ARCH)
at its default thread count of 2 on a 2-core AVX-512 x86-64 host, Python
3.11. The one floating-point product in the chain, the Guttman step's
``B @ X``, is an ``einsum`` that numpy evaluates without BLAS; the
dissimilarity products go through BLAS but sum small integers, which is
exact in any order. So the tree does not depend on the BLAS kernel:
:func:`test_golden_digest_holds_on_other_openblas_kernels` reruns the
command in a subprocess with ``OPENBLAS_CORETYPE`` forced to Haswell and
to Prescott, and on the pinning host the default kernel (SkylakeX) and
both forced ones give the pinned manifest. numpy's own runtime SIMD
dispatch picks the einsum and ufunc loops by CPU feature:
:func:`test_golden_digest_holds_without_avx2_dispatch` reruns the command
with ``NPY_DISABLE_CPU_FEATURES`` turning off every dispatch target above
the X86_V2 baseline (X86_V3 is the AVX2/FMA3 level), and on the pinning host
that gives the pinned manifest too. Validation's shuffled passes run in
forked worker processes when more than one CPU is usable, and one after
another in the command's own process otherwise:
:func:`test_golden_digest_holds_on_one_cpu` reruns the command pinned to one
CPU, and both give the pinned manifest. Not verified: other architectures such
as arm64. ``numpy.show_runtime()``
names the SIMD features of the host a result came from; with
``OPENBLAS_VERBOSE=2`` set, as on the CI workflow's "numpy runtime" step,
OpenBLAS also prints the kernel it picked (``Core: SkylakeX``).
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from forkcast.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "data" / "planted" / "votes.jsonl"
FORKERS = ROOT / "data" / "planted" / "forkers.txt"
MANIFEST = Path(__file__).resolve().parent / "golden" / "planted_all.sha256"
ARGS = ["all", "--dao", "planted", "--fixture", str(FIXTURE), "--ground-truth", str(FORKERS),
        "--iterations", "2", "--export-dissim"]


def _read_manifest() -> dict[str, str]:
    pinned = {}
    for line in MANIFEST.read_text(encoding="utf-8").splitlines():
        digest, path = line.split("  ", 1)
        pinned[path] = digest
    return pinned


def _assert_matches_manifest(out: Path) -> None:
    produced = {str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in out.rglob("*") if path.is_file()}
    pinned = _read_manifest()
    assert sorted(produced) == sorted(pinned), "output file set changed"
    changed = sorted(path for path, digest in produced.items() if pinned[path] != digest)
    assert not changed, f"{len(changed)} output files changed, first: {changed[:5]}"


def _blas_is_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


def test_planted_all_tree_matches_golden_digest(tmp_path):
    assert main([*ARGS, "--out", str(tmp_path)]) == 0
    _assert_matches_manifest(tmp_path)


def _dispatch_targets() -> list[str]:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1.x, which has no X86_V* targets
        return []
    return __cpu_dispatch__


def _run_child(tmp_path: Path, env: dict, *command: str) -> None:
    """Run ``command`` (after ``python``) with ``env`` added and ``src`` first
    on the path, to write the golden tree into ``tmp_path``."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, **env,
           "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}
    subprocess.run([sys.executable, *command, *ARGS, "--out", str(tmp_path)],
                   env=env, check=True, capture_output=True)


@pytest.mark.skipif(not _blas_is_openblas(), reason="numpy's BLAS is not OpenBLAS")
@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_golden_digest_holds_on_other_openblas_kernels(tmp_path, core):
    """OpenBLAS reads ``OPENBLAS_CORETYPE`` when it loads, so each kernel
    needs a fresh process."""
    _run_child(tmp_path, {"OPENBLAS_CORETYPE": core}, "-m", "forkcast.cli")
    _assert_matches_manifest(tmp_path)


# the child refuses to run unless numpy really turned X86_V3 off
_NO_X86_V3 = ("import sys\n"
              "from numpy._core._multiarray_umath import __cpu_features__\n"
              "assert not __cpu_features__['X86_V3'], 'X86_V3 dispatch is still on'\n"
              "from forkcast.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")


@pytest.mark.skipif("X86_V3" not in _dispatch_targets(),
                    reason="numpy does not dispatch to X86_V3")
def test_golden_digest_holds_without_avx2_dispatch(tmp_path):
    """numpy reads ``NPY_DISABLE_CPU_FEATURES`` when it loads, so this too
    needs a fresh process."""
    _run_child(tmp_path,
               {"NPY_DISABLE_CPU_FEATURES": "AVX512_ICL AVX512_SPR X86_V4 X86_V3"},
               "-c", _NO_X86_V3)
    _assert_matches_manifest(tmp_path)


# the child pins itself to one of its CPUs, so validation forks no workers
_ONE_CPU = ("import os\n"
            "import sys\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from forkcast.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="the platform has no CPU affinity")
def test_golden_digest_holds_on_one_cpu(tmp_path):
    """With one usable CPU the shuffled passes run in the command's own
    process, and the tree is the one the worker processes give."""
    _run_child(tmp_path, {}, "-c", _ONE_CPU)
    _assert_matches_manifest(tmp_path)
