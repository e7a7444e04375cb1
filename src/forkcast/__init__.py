"""forkcast: detect emerging partisan voting blocs in DAO governance.

Pipeline: on-chain vote events -> voter matrix over {1, 0, -1} -> friction
metrics -> windowed active sets -> pairwise dissimilarity -> 2D stress
embeddings -> silhouette-selected k-means clusters -> shuffle-baseline
validation of fork-cohort alignment.
"""

from .cluster import kmeans, select_k, silhouette
from .dissim import WindowSpec, active_set, dissimilarity_matrix
from .embed import Embedding, MdsConfig, mds_embed, stress, warm_start
from .friction import (
    DisagreementRecord,
    FrictionReport,
    build_friction_report,
    flag_dao,
    rolling_disagreement,
    static_disagreement,
)
from .ingest import ForkGroundTruth, VoteEvent, load_ground_truth
from .matrix import build_voter_matrix
from .pipeline import AnalysisSpec, analyze_matrix
from .planted import planted_two_bloc_events
from .report import ChartSpec, render_chart, render_mds_scatter
from .validate import fork_cluster_share, run_validation, shuffle_votes, summarize_range

__version__ = "0.1.0"

__all__ = [
    "AnalysisSpec", "ChartSpec", "DisagreementRecord", "Embedding", "ForkGroundTruth",
    "FrictionReport", "MdsConfig", "VoteEvent", "WindowSpec", "active_set",
    "analyze_matrix", "build_friction_report", "build_voter_matrix",
    "dissimilarity_matrix", "flag_dao", "fork_cluster_share", "kmeans",
    "load_ground_truth", "mds_embed", "planted_two_bloc_events", "render_chart",
    "render_mds_scatter", "rolling_disagreement", "run_validation", "select_k",
    "shuffle_votes", "silhouette", "static_disagreement", "stress",
    "summarize_range", "warm_start",
]
