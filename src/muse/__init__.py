"""Clustered monopole+dipole approximation of softmax attention.

Exact references (`attend`, `attend_causal`), mergeable partial results,
capacity-capped k-means, the two-stage clustered approximation with
ablations, a hierarchical causal variant, synthetic workloads with a binary
interchange format, and experiment drivers.
"""

from .attention import AttentionResult, attend, attend_causal, merge_partials
from .causal import CausalPlan, build_plan, causal_plan, muse_causal
from .clustering import CentroidInit, Clustering, decompose, inertia, kmeans
from .experiments import (
    ExperimentReport,
    RunRecord,
    ablation_run,
    causal_bench,
    error_sweep,
    fd_sensitivity,
    scaling_bench,
)
from .multipole import (
    ABLATIONS,
    ClusterSummaries,
    MuseClusters,
    MuseConfig,
    cluster_tokens,
    muse_acausal,
    rel_sq_error,
)
from .numerics import derive_seed, make_rng, stable_logsumexp, stable_softmax
from .workloads import WorkloadSpec, generate, generate_detailed, load_qkv, save_qkv

__all__ = [
    "ABLATIONS",
    "AttentionResult",
    "CausalPlan",
    "CentroidInit",
    "ClusterSummaries",
    "Clustering",
    "ExperimentReport",
    "MuseClusters",
    "MuseConfig",
    "RunRecord",
    "WorkloadSpec",
    "ablation_run",
    "attend",
    "attend_causal",
    "build_plan",
    "causal_bench",
    "causal_plan",
    "cluster_tokens",
    "decompose",
    "derive_seed",
    "error_sweep",
    "fd_sensitivity",
    "generate",
    "generate_detailed",
    "inertia",
    "kmeans",
    "load_qkv",
    "make_rng",
    "merge_partials",
    "muse_acausal",
    "muse_causal",
    "rel_sq_error",
    "save_qkv",
    "scaling_bench",
    "stable_logsumexp",
    "stable_softmax",
]
