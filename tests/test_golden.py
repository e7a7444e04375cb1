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
3.11. The same digests came out with ``OPENBLAS_NUM_THREADS=1``. On that
host the test passes with OpenBLAS's default kernel choice and with
``OPENBLAS_CORETYPE`` forced to SkylakeX or SapphireRapids. It fails with
Haswell, Sandybridge or Prescott forced (286, 287 and 288 files change):
each kernel rounds the Guttman product ``B @ X`` in its own order, so a
host whose OpenBLAS picks a kernel without AVX-512 fails this test without
any change to forkcast. ``numpy.show_runtime()`` names the SIMD features
of the host a result came from; with ``OPENBLAS_VERBOSE=2`` set, as on the
CI workflow's "numpy runtime" step, OpenBLAS also prints the kernel it
picked (``Core: SkylakeX``), which ``show_runtime`` leaves out when
``threadpoolctl`` is not installed.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from forkcast.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "data" / "planted" / "votes.jsonl"
FORKERS = ROOT / "data" / "planted" / "forkers.txt"
MANIFEST = Path(__file__).resolve().parent / "golden" / "planted_all.sha256"


def _read_manifest() -> dict[str, str]:
    pinned = {}
    for line in MANIFEST.read_text(encoding="utf-8").splitlines():
        digest, path = line.split("  ", 1)
        pinned[path] = digest
    return pinned


def test_planted_all_tree_matches_golden_digest(tmp_path):
    assert main(["all", "--dao", "planted", "--fixture", str(FIXTURE),
                 "--ground-truth", str(FORKERS), "--iterations", "2",
                 "--export-dissim", "--out", str(tmp_path)]) == 0
    produced = {str(path.relative_to(tmp_path)): hashlib.sha256(path.read_bytes()).hexdigest()
                for path in tmp_path.rglob("*") if path.is_file()}
    pinned = _read_manifest()
    assert sorted(produced) == sorted(pinned), "output file set changed"
    changed = sorted(path for path, digest in produced.items() if pinned[path] != digest)
    assert not changed, f"{len(changed)} output files changed, first: {changed[:5]}"
