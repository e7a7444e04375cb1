"""Per-proposal analysis chain: active set -> dissimilarity -> MDS -> clusters.

Voters with the same window row are 0 apart, so each distinct row (pattern)
is embedded and clustered once, as one point weighted by its voter count;
its voters share its point and its cluster. k is capped at the number of
patterns, and a frame with fewer patterns than ``k_min`` is skipped before
it is embedded.

Embeddings are chained in proposal order (warm starts), so this runs
sequentially; everything else about a proposal is self-contained. Stage
seeds derive from the root seed per (namespace, stage, proposal id). An
``on_frame`` sink gets each finished frame, so per-frame files are written
as frames finish and no dissimilarity matrix outlives its frame.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .cluster import DEFAULT_K_MAX, DEFAULT_K_MIN, ClusteringResult, k_range, select_k
from .dissim import WindowSpec, active_set, dissimilarity_matrix, distinct_patterns
from .embed import Embedding, MdsConfig, mds_embed, warm_start
from .errors import AllZeroDissimilarity, EmptyActiveSet, TooFewPoints
from .matrix import VoterMatrix
from .rng import derive_seed


@dataclass(frozen=True)
class AnalysisSpec:
    """Every setting of one analysis pass; a shuffled pass reuses the
    genuine pass's spec, so both are analyzed the same way."""

    window: WindowSpec = WindowSpec()
    mds: MdsConfig = MdsConfig()
    k_min: int = DEFAULT_K_MIN
    k_max: int = DEFAULT_K_MAX
    root_seed: int = 0

    def __post_init__(self) -> None:
        if not 2 <= self.k_min <= self.k_max:
            raise ValueError(f"need 2 <= k_min <= k_max, got {self.k_min}..{self.k_max}")


@dataclass(frozen=True)
class ProposalAnalysis:
    proposal_id: int
    embedding: Embedding
    clustering: ClusteringResult


@dataclass(frozen=True)
class PipelineResult:
    analyses: tuple[ProposalAnalysis, ...]
    skipped: tuple[tuple[int, str], ...]  # (proposal_id, reason)
    spec: AnalysisSpec


def analyze_matrix(matrix: VoterMatrix, spec: AnalysisSpec = AnalysisSpec(), *,
                   namespace: tuple = (),
                   on_frame: Callable[..., None] | None = None) -> PipelineResult:
    """Analyze every proposal after the first; unanalyzable ones are recorded,
    not fatal. The previous successful embedding seeds the next warm start.

    Each distinct window row is embedded and clustered once, weighted by its
    voter count, from the mean of its voters' warm starts; its voters share
    its point and its cluster label.

    ``on_frame(analysis, d, voters)`` is called once per analyzed frame, in
    proposal order: ``d`` is the u x u matrix over the frame's distinct
    patterns that MDS embedded, and ``voters[i]`` is the pattern row of
    ``analysis.embedding.addresses[i]``. The result keeps no ``d``.
    """
    analyses: list[ProposalAnalysis] = []
    skipped: list[tuple[int, str]] = []
    previous: Embedding | None = None
    for j in range(2, matrix.m + 1):
        proposal_id = matrix.proposal_ids[j - 1]
        try:
            active = active_set(matrix, j, spec.window)
            patterns, voters, counts = distinct_patterns(matrix, active)
            k_range(len(counts), spec.k_min, spec.k_max)  # before any embedding
            d = dissimilarity_matrix(matrix, patterns)
            init = warm_start(previous, active.addresses,
                              derive_seed(spec.root_seed, *namespace, "mds", proposal_id))
            start = np.column_stack([np.bincount(voters, x) for x in init.T]) / counts[:, None]
            embedding = mds_embed(d, start, spec.mds, counts)
            clustering = select_k(
                embedding.coords, spec.k_min, spec.k_max,
                derive_seed(spec.root_seed, *namespace, "kmeans", proposal_id), counts)
            embedding = replace(embedding, addresses=active.addresses,
                                coords=embedding.coords[voters])
            clustering = replace(clustering, assignments=clustering.assignments[voters])
        except (EmptyActiveSet, AllZeroDissimilarity, TooFewPoints) as exc:
            skipped.append((proposal_id, str(exc)))
            continue
        analysis = ProposalAnalysis(proposal_id, embedding, clustering)
        if on_frame is not None:
            on_frame(analysis, d, voters)
        analyses.append(analysis)
        previous = embedding
    return PipelineResult(tuple(analyses), tuple(skipped), spec)
