"""Per-proposal analysis chain: active set -> dissimilarity -> MDS -> clusters.

Embeddings are chained in proposal order (warm starts), so this runs
sequentially; everything else about a proposal is self-contained. Stage
seeds derive from the root seed per (namespace, stage, proposal id).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

from .cluster import ClusteringResult, select_k
from .dissim import (
    DissimilarityMatrix,
    WindowSpec,
    active_set,
    dissimilarity_matrix,
)
from .embed import Embedding, MdsConfig, mds_embed, warm_start
from .errors import AllZeroDissimilarity, EmptyActiveSet
from .matrix import VoterMatrix
from .rng import derive_seed


@dataclass(frozen=True)
class ProposalAnalysis:
    proposal_id: int
    embedding: Embedding
    clustering: ClusteringResult


@dataclass(frozen=True)
class PipelineResult:
    analyses: tuple[ProposalAnalysis, ...]
    skipped: tuple[tuple[int, str], ...]  # (proposal_id, reason)

    @property
    def clusterings(self) -> list[ClusteringResult]:
        return [a.clustering for a in self.analyses]


def analyze_matrix(matrix: VoterMatrix, window: WindowSpec | None = None,
                   mds: MdsConfig | None = None, k_min: int = 2, k_max: int = 5,
                   root_seed: int = 0, namespace: tuple = (),
                   on_dissim: Callable[[DissimilarityMatrix], None] | None = None,
                   ) -> PipelineResult:
    """Analyze every proposal after the first; unanalyzable ones are recorded,
    not fatal. The previous successful embedding seeds the next warm start.

    ``on_dissim`` receives each analyzed proposal's dissimilarity matrix once,
    in proposal order; the result keeps none of them, so at most one n x n
    matrix is alive at a time.
    """
    window = window or WindowSpec()
    mds = mds or MdsConfig()
    analyses: list[ProposalAnalysis] = []
    skipped: list[tuple[int, str]] = []
    previous: Embedding | None = None
    for j in range(2, matrix.m + 1):
        proposal_id = matrix.proposal_ids[j - 1]
        try:
            active = active_set(matrix, j, window)
            d = dissimilarity_matrix(matrix, active)
            seed_mds = derive_seed(root_seed, *namespace, "mds", proposal_id)
            init = warm_start(previous, active.addresses, seed_mds)
            embedding = mds_embed(d, init, replace(mds, seed=seed_mds))
            clustering = select_k(
                embedding.coords, k_min, k_max,
                seed=derive_seed(root_seed, *namespace, "kmeans", proposal_id),
                proposal_id=proposal_id, addresses=active.addresses,
            )
        except (EmptyActiveSet, AllZeroDissimilarity) as exc:
            skipped.append((proposal_id, str(exc)))
            continue
        if on_dissim is not None:
            on_dissim(d)
        analyses.append(ProposalAnalysis(proposal_id, embedding, clustering))
        previous = embedding
    return PipelineResult(tuple(analyses), tuple(skipped))
