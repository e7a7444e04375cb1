"""Output checks computed apart from the program.

Every expected value is recomputed from the generated fixture with plain
``json``/``csv`` parsing, numpy and scipy; nothing here imports forkcast.
Each check returns ``(name, ok, detail)`` and counts as one operation.
The parameters are the CLI defaults the workloads run with.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

WINDOW = 10
THRESHOLD = 0.40
LOW_CUT, HIGH_CUT = 0.20, 0.40
SHARE_CUTOFF, ROLLING_CUTOFF = 0.20, 0.15
# sums taken in another order than the program's may differ in the last bits
FLOAT_TOLERANCE = 1e-12

MIN_K2_SHARE = 0.80  # share of frames with k* = 2
MIN_FORK_SHARE = 0.85  # mean fork share over the late range
MIN_SHARE_MARGIN = 0.20  # genuine fork share above the shuffled mean

Check = tuple[str, bool, str]


def read_fixture(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def read_forkers(path: Path) -> set[str]:
    with open(path, encoding="utf-8") as handle:
        return {line.split("#", 1)[0].strip().lower() for line in handle} - {""}


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


@dataclass(frozen=True)
class Votes:
    """addresses x proposals over {1, 0, -1}, rows and columns sorted."""

    addresses: list[str]
    proposals: list[int]
    cells: np.ndarray

    @classmethod
    def from_records(cls, records: list[dict]) -> "Votes":
        latest: dict[tuple[str, int], int] = {}
        for record in sorted(records, key=lambda r: (r["block_number"], r["log_index"])):
            latest[(record["voter"].lower(), record["proposal_id"])] = record["support"]
        live = {key: support for key, support in latest.items() if support in (0, 1)}
        addresses = sorted({a for a, _ in live})
        proposals = sorted({p for _, p in live})
        row = {a: i for i, a in enumerate(addresses)}
        col = {p: j for j, p in enumerate(proposals)}
        cells = np.full((len(addresses), len(proposals)), -1, dtype=np.int8)
        for (address, proposal), support in live.items():
            cells[row[address], col[proposal]] = support
        return cls(addresses, proposals, cells)

    def window(self, j: int) -> range:
        """Column indices of the trailing window at 1-based position j."""
        return range(max(0, j - WINDOW), j)

    def active(self, j: int) -> list[int]:
        """Row indices whose valid-vote fraction over the window is >= THRESHOLD."""
        cols = self.window(j)
        counts = (self.cells[:, cols] >= 0).sum(axis=1)
        return [i for i, count in enumerate(counts) if int(count) / len(cols) >= THRESHOLD]


def _frames(out: Path) -> dict[int, list[tuple[str, float, float]]]:
    frames: dict[int, list[tuple[str, float, float]]] = defaultdict(list)
    for row in read_csv(out / "embeddings.csv"):
        frames[int(row["proposal_id"])].append(
            (row["address"], float(row["x"]), float(row["y"])))
    return frames


def _clusters(out: Path) -> dict[int, dict]:
    clusters: dict[int, dict] = {}
    for row in read_csv(out / "clusters.csv"):
        entry = clusters.setdefault(int(row["proposal_id"]), {
            "addresses": [], "labels": [], "k_star": int(row["k_star"]),
            "silhouette": float(row["silhouette_mean"])})
        entry["addresses"].append(row["address"])
        entry["labels"].append(int(row["cluster"]))
    return clusters


def check_friction(votes: Votes, out: Path) -> Check:
    """Disagreement, category, rolling mean, shares and the flag decision."""
    rows = read_csv(out / "friction.csv")
    summary = json.loads((out / "friction_summary.json").read_text(encoding="utf-8"))
    yes = (votes.cells == 1).sum(axis=0)
    no = (votes.cells == 0).sum(axis=0)
    disagreement = [min(int(y), int(n)) / (int(y) + int(n)) for y, n in zip(yes, no)]
    category = ["unanimous" if d == 0 else "low" if d < LOW_CUT
                else "medium" if d < HIGH_CUT else "high" for d in disagreement]
    rolling = [sum(disagreement[max(0, j - WINDOW + 1):j + 1]) / (j + 1 - max(0, j - WINDOW + 1))
               for j in range(len(disagreement))]
    shares = {c: category.count(c) / len(category)
              for c in ("unanimous", "low", "medium", "high")}
    flagged = (shares["medium"] + shares["high"] > SHARE_CUTOFF
               and max(rolling) > ROLLING_CUTOFF)
    if [int(r["proposal_id"]) for r in rows] != votes.proposals:
        return "friction", False, "proposal ids differ"
    for row, d, c, mean in zip(rows, disagreement, category, rolling):
        if float(row["disagreement"]) != d or row["category"] != c:
            return "friction", False, f"proposal {row['proposal_id']}: {row} != {d}, {c}"
        if abs(float(row["rolling_mean"]) - mean) > FLOAT_TOLERANCE:
            return "friction", False, f"proposal {row['proposal_id']}: rolling {mean}"
    if summary["flagged"] != flagged or summary["proposals"] != len(rows):
        return "friction", False, f"summary {summary} != flagged {flagged}"
    if any(abs(summary["category_shares"][c] - s) > FLOAT_TOLERANCE
           for c, s in shares.items()):
        return "friction", False, f"category shares {summary['category_shares']} != {shares}"
    return "friction", True, f"{len(rows)} proposals, flagged={flagged}"


def check_active_sets(votes: Votes, out: Path) -> Check:
    """Each frame embeds exactly the recomputed active set, in address order."""
    frames = _frames(out)
    skipped = {int(r["proposal_id"]) for r in read_csv(out / "skipped.csv")}
    for j in range(2, len(votes.proposals) + 1):
        pid = votes.proposals[j - 1]
        expected = [votes.addresses[i] for i in votes.active(j)]
        got = [address for address, _, _ in frames.get(pid, [])]
        if got != expected and not (len(expected) < 2 and not got and pid in skipped):
            return ("active_sets", False,
                    f"proposal {pid}: {len(got)} embedded, {len(expected)} active")
    return "active_sets", True, f"{len(frames)} frames"


def check_dissim_exports(votes: Votes, out: Path) -> Check:
    """Each exported matrix equals a brute-force count of opposed votes."""
    frames = _frames(out)
    files = sorted((out / "dissim").glob("*.csv"))
    if len(files) != len(frames):
        return "dissim_exports", False, f"{len(files)} files for {len(frames)} frames"
    position = {pid: j for j, pid in enumerate(votes.proposals, start=1)}
    for pid in frames:
        j = position[pid]
        rows = votes.active(j)
        addresses = [votes.addresses[i] for i in rows]
        sub = votes.cells[np.ix_(rows, list(votes.window(j)))]
        shared = np.zeros((len(rows), len(rows)), dtype=np.int64)
        opposed = np.zeros_like(shared)
        for column in sub.T:
            both = (column >= 0)[:, None] & (column >= 0)[None, :]
            shared += both
            opposed += both & (column[:, None] != column[None, :])
        expected = np.where(shared > 0, opposed / np.maximum(shared, 1), 1.0)
        np.fill_diagonal(expected, 0.0)
        with open(out / "dissim" / f"{pid}.csv", encoding="utf-8") as handle:
            header = handle.readline().rstrip("\n").split(",")
            lines = [line.rstrip("\n").split(",") for line in handle]
        if header[1:] != addresses or [line[0] for line in lines] != addresses:
            return "dissim_exports", False, f"proposal {pid}: addresses differ"
        cells = np.array([line[1:] for line in lines], dtype=np.float64)
        if not np.array_equal(cells, expected):
            return "dissim_exports", False, f"proposal {pid}: cells differ"
    return "dissim_exports", True, f"{len(files)} matrices"


def check_silhouette(out: Path) -> Check:
    """Mean silhouette at k* recomputed from the written coordinates and labels."""
    frames = _frames(out)
    worst = 0.0
    for pid, entry in _clusters(out).items():
        coords = {address: (x, y) for address, x, y in frames[pid]}
        points = np.array([coords[a] for a in entry["addresses"]])
        labels = np.array(entry["labels"])
        distances = cdist(points, points)
        onehot = (labels[:, None] == np.unique(labels)[None, :]).astype(np.float64)
        own = onehot.argmax(axis=1)
        sums = distances @ onehot
        counts = onehot.sum(axis=0)
        rows = np.arange(len(labels))
        same = counts[own]
        a = np.where(same > 1, sums[rows, own] / np.maximum(same - 1, 1), 0.0)
        means = sums / counts
        means[rows, own] = np.inf
        b = means.min(axis=1)
        top = np.maximum(a, b)
        scores = np.where((same > 1) & (top > 0), (b - a) / np.where(top > 0, top, 1.0), 0.0)
        worst = max(worst, abs(float(scores.mean()) - entry["silhouette"]))
    return "silhouette", worst <= FLOAT_TOLERANCE, f"max |diff| {worst:.3g}"


def _fork_share(entry: dict, forkers: set[str]) -> float | None:
    fork_labels = [label for address, label in zip(entry["addresses"], entry["labels"])
                   if address in forkers]
    if not fork_labels:
        return None
    return max(fork_labels.count(label) for label in set(fork_labels)) / len(fork_labels)


def _range_summary(clusters: dict[int, dict], forkers: set[str],
                   lo: int, hi: int) -> tuple[float, float]:
    """(mean k*, mean defined fork share) over proposal ids lo..hi."""
    entries = [e for pid, e in clusters.items() if lo <= pid <= hi]
    shares = [s for e in entries if (s := _fork_share(e, forkers)) is not None]
    return (sum(e["k_star"] for e in entries) / len(entries),
            sum(shares) / len(shares))


def check_k2_share(out: Path) -> Check:
    ks = [entry["k_star"] for entry in _clusters(out).values()]
    share = ks.count(2) / len(ks)
    return "k2_share", share >= MIN_K2_SHARE, f"{share:.3f} of {len(ks)} frames"


def check_late_fork_share(out: Path, forkers: set[str], lo: int, hi: int) -> Check:
    _, share = _range_summary(_clusters(out), forkers, lo, hi)
    return "late_fork_share", share >= MIN_FORK_SHARE, f"{lo}-{hi}: {share:.4f}"


def _against_shuffles(out: Path, forkers: set[str]):
    """Per range of validation.json: (lo, hi, genuine mean k*, genuine mean
    fork share recomputed from clusters.csv, its avg_clusters, its fork_share)."""
    clusters = _clusters(out)
    validation = json.loads((out / "validation.json").read_text(encoding="utf-8"))
    for entry in validation["ranges"]:
        lo, hi = entry["range"]
        yield (lo, hi, *_range_summary(clusters, forkers, lo, hi),
               entry["avg_clusters"], entry["fork_share"])


def check_share_vs_shuffled(out: Path, forkers: set[str]) -> Check:
    """The genuine fork share beats the shuffled mean by MIN_SHARE_MARGIN."""
    ok, details = True, []
    for lo, hi, _, share, _, fork in _against_shuffles(out, forkers):
        ok &= (abs(fork["value"] - share) <= FLOAT_TOLERANCE
               and fork["value"] >= fork["rand_avg"] + MIN_SHARE_MARGIN)
        details.append(f"{lo}-{hi}: {fork['value']:.3f} vs {fork['rand_avg']:.3f}")
    return "share_vs_shuffled", ok, "; ".join(details)


def check_clusters_vs_shuffled(out: Path, forkers: set[str]) -> Check:
    """The genuine mean cluster count is below the shuffled mean."""
    ok, details = True, []
    for lo, hi, avg_k, _, count, _ in _against_shuffles(out, forkers):
        ok &= (abs(count["value"] - avg_k) <= FLOAT_TOLERANCE
               and count["value"] < count["rand_avg"])
        details.append(f"{lo}-{hi}: {count['value']:.2f} vs {count['rand_avg']:.2f}")
    return "clusters_vs_shuffled", ok, "; ".join(details)


def check_fixture_copy(inputs: Path, out: Path) -> Check:
    """The ingested fixture holds exactly the generated events, in chain order."""
    if (out / "votes.jsonl").read_bytes() == (inputs / "votes.jsonl").read_bytes():
        return "fixture_copy", True, "same bytes as the generated fixture"
    generated = sorted(read_fixture(inputs / "votes.jsonl"),
                       key=lambda r: (r["block_number"], r["log_index"]))
    written = read_fixture(out / "votes.jsonl")
    return "fixture_copy", written == generated, f"{len(written)} events"


def check_bundled_fixture(inputs: Path, root: Path) -> Check:
    """Seed 0 in the default shape reproduces data/planted byte for byte."""
    same = all((inputs / name).read_bytes() == (root / "data" / "planted" / name).read_bytes()
               for name in ("votes.jsonl", "forkers.txt"))
    return "bundled_fixture", same, "data/planted"


def run_checks(workload: str, seed: int, inputs: Path, out: Path,
               root: Path) -> list[Check]:
    """All checks of one workload; a check that raises counts as failed."""
    def guarded(name: str, check, *args) -> list[Check]:
        try:
            return [check(*args)]
        except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError,
                IndexError) as exc:
            return [(name, False, f"{type(exc).__name__}: {exc}")]

    votes = Votes.from_records(read_fixture(inputs / "votes.jsonl"))
    forkers = read_forkers(inputs / "forkers.txt")
    results: list[Check] = []
    if workload == "planted-validate":
        results += guarded("friction", check_friction, votes, out)
        results += guarded("active_sets", check_active_sets, votes, out)
        results += guarded("silhouette", check_silhouette, out)
        results += guarded("k2_share", check_k2_share, out)
        results += guarded("late_fork_share", check_late_fork_share, out, forkers, 41, 60)
        results += guarded("share_vs_shuffled", check_share_vs_shuffled, out, forkers)
        results += guarded("clusters_vs_shuffled", check_clusters_vs_shuffled,
                           out, forkers)
        if seed == 0:
            results += guarded("bundled_fixture", check_bundled_fixture, inputs, root)
    elif workload == "wide-analyze":
        last = votes.proposals[-1]
        results += guarded("active_sets", check_active_sets, votes, out)
        results += guarded("dissim_exports", check_dissim_exports, votes, out)
        results += guarded("silhouette", check_silhouette, out)
        results += guarded("k2_share", check_k2_share, out)
        # the frames whose trailing window holds a full WINDOW proposals
        results += guarded("late_fork_share", check_late_fork_share, out, forkers,
                           votes.proposals[WINDOW - 1], last)
    elif workload == "paper-ingest":
        results += guarded("fixture_copy", check_fixture_copy, inputs, out)
        results += guarded("friction", check_friction, votes, out)
    return results
