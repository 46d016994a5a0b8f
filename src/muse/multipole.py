"""Clustered monopole+dipole approximation of acausal softmax attention.

Pipeline per (batch, head) slice: cluster scaled queries and raw keys, build
tilted per-(query-cluster, key-cluster) key/value centroids and logsumexps
from each key cluster's (U_j, 2d) rows of keys and their values, aggregate
the per-key-cluster value-key covariances into one dipole matrix per query
cluster, then refine each residual query against the summaries.
`final_stage` is the monopole-plus-dipole formula alone; `muse_acausal`
applies the `MuseConfig.ablation` around it.

The summaries are exact per-cluster attention results for the query
centroids, so the whole construction inherits the merge identity: with one
cluster per token, or with zero query residuals, the output is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import AttentionResult, _check_qk, _check_qkv, _map_slices
from .clustering import Clustering, clustering_from_assignments, decompose, kmeans
from .numerics import (check_integer, check_seed, derive_seed, make_rng, softmax_logsumexp_inplace,
                       stable_softmax)
# perfbench/tracing.py wraps muse.multipole.stable_logsumexp, so the name stays importable here
from .numerics import stable_logsumexp  # noqa: F401

ABLATIONS = ("full", "no_dipole", "no_monopole")


@dataclass
class MuseConfig:
    """Hyperparameters of the clustered approximation.

    scale=None resolves to 1/sqrt(d) at call time. The ablation switch, which
    `muse_acausal` applies, keeps everything else fixed: no_dipole drops the
    covariance correction, and no_monopole sets each output to the slice's
    global value mean plus its residual times the uniform mean of the
    key-cluster covariances (mu still comes from the monopole softmax);
    c_q=1 is key-only clustering.
    near_min is read by the causal plan only: levels of `muse_causal` that
    span fewer rows run exact (see `causal_plan`).
    """

    c_q: int = 64
    c_k: int = 64
    kmeans_iters: int = 1
    cap_ratio: float = 1.5
    scale: float | None = None
    ablation: str = "full"
    seed: int = 0
    near_min: int = 2048

    def __post_init__(self):
        for name in ("c_q", "c_k", "kmeans_iters", "near_min"):
            check_integer(getattr(self, name), name)
        check_seed(self.seed)
        if self.c_q < 1 or self.c_k < 1:
            raise ValueError("cluster counts must be >= 1")
        if self.kmeans_iters < 1:
            raise ValueError("kmeans_iters must be >= 1")
        if self.near_min < 1:
            raise ValueError("near_min must be >= 1")
        if not 1.0 <= self.cap_ratio < math.inf:
            raise ValueError("cap_ratio must be finite and >= 1")
        if self.scale is not None and not 0 < self.scale < math.inf:
            raise ValueError("scale must be positive and finite")
        if self.ablation not in ABLATIONS:
            raise ValueError(f"unknown ablation {self.ablation!r}, expected one of {ABLATIONS}")

    def resolve_scale(self, d: int) -> float:
        return self.scale if self.scale is not None else 1.0 / math.sqrt(d)


@dataclass
class ClusterSummaries:
    """Stage-1 output for one (batch, head) slice.

    kbar/vbar[i, j] are the key/value centroids of key cluster j tilted by
    query centroid i; mu[i, j] is the logsumexp of the centroid's scores over
    cluster j. cov_vk[j][a, b] is the untilted value-key covariance
    (1/U_j) sum (v - vbar_j)_a (k - kbar_j)_b with plain member means.
    """

    kbar: np.ndarray  # (c_q, c_k, d)
    vbar: np.ndarray  # (c_q, c_k, d)
    mu: np.ndarray  # (c_q, c_k)
    cov_vk: np.ndarray  # (c_k, d, d)


def _padded(groups: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack variable-length (U_j, d) arrays into zero-padded (C, U_max, d),
    plus the (C, U_max) validity mask and the (C,) group sizes."""
    sizes = np.array([g.shape[0] for g in groups])
    mask = np.arange(sizes.max()) < sizes[:, None]
    rows = np.concatenate(groups)
    out = np.zeros(mask.shape + rows.shape[1:], dtype=rows.dtype)
    out[mask] = rows
    return out, mask, sizes


def stage1(qbar: np.ndarray, key_clusters: list) -> ClusterSummaries:
    """Tilted summaries: for each (i, j) pair, attend from query centroid i to
    the full contents of key cluster j, recording the logsumexp, the tilted
    key centroid, and the tilted value centroid. Covariances are computed once
    per key cluster with uniform 1/U_j weights (no tilt).

    Each block of `key_clusters` is one key cluster's (U_j, 2d) rows: the key
    in the first d columns, its value in the last d, so one tilted product
    gives both centroids. qbar rows are already in scaled score units; padded
    slots carry -inf.
    """
    d = qbar.shape[1]
    widths = sorted({kv.shape[-1] for kv in key_clusters})
    if widths != [2 * d]:
        raise ValueError(f"key/value blocks must be 2 * d = {2 * d} wide for {d}-wide query "
                         f"centroids, got widths {widths}")
    kvpad, mask, sizes = _padded(key_clusters)
    if not sizes.all():
        raise ValueError("empty key cluster")
    c_k, u_max, _ = kvpad.shape
    # scores laid out (c_k, U, c_q) from one GEMM: the softmax reduces over U with
    # every step vectorised along c_q, where reducing the short last axis of a
    # (c_k, c_q, U) layout costs several times more. Each p[j].T is a
    # column-major matrix that BLAS takes as it lies, so numpy makes no copy of
    # p, and kbar/vbar come out of one (c_k, c_q, 2d) product for final_stage.
    s = (kvpad.reshape(-1, 2 * d)[:, :d] @ qbar.T).reshape(c_k, u_max, -1)
    np.copyto(s, -np.inf, where=~mask[:, :, None])
    p, mu = softmax_logsumexp_inplace(s, axis=1)
    kvbar = np.matmul(p.transpose(0, 2, 1), kvpad).transpose(1, 0, 2)
    del s, p  # free the scores before the covariance temporaries
    counts = sizes[:, None, None].astype(kvpad.dtype)
    # deviations from the plain member means, zeroed again in the padded slots
    dkv = kvpad - kvpad.sum(axis=1, keepdims=True) / counts
    dkv[~mask] = 0
    cov_vk = np.matmul(dkv[:, :, d:].transpose(0, 2, 1), dkv[:, :, :d]) / counts
    return ClusterSummaries(kbar=kvbar[:, :, :d], vbar=kvbar[:, :, d:], mu=mu.T, cov_vk=cov_vk)


def aggregate_dipoles(summaries: ClusterSummaries) -> np.ndarray:
    """One (d, d) dipole matrix per query cluster, (c_q, d, d): the mixture of
    the per-key-cluster covariances with weights softmax_j(mu[i, :]), the
    merge weights a zero-residual query would use."""
    w = stable_softmax(summaries.mu, axis=-1)
    c_k, d, _ = summaries.cov_vk.shape
    return (w @ summaries.cov_vk.reshape(c_k, d * d)).reshape(-1, d, d)


def final_stage(residual_clusters: list, summaries: ClusterSummaries,
                dipoles: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Refine each residual query against its cluster's summaries.

    Scores are S_j = qres . kbar[i, j] + mu[i, j] (the logsumexp bias applies
    the per-cluster mass in log space); the output is the softmax combination
    of the tilted value centroids plus the dipole correction qres . dipoles[i]^T
    contracted over the key index, left out when `dipoles` is None.
    Residuals are already in scaled units.

    Returns the (y rows, mu rows) of all residuals in cluster order, as flat
    (n, d) and (n,) arrays.
    """
    rpad, mask, _ = _padded(residual_clusters)
    s = np.matmul(rpad, summaries.kbar.transpose(0, 2, 1))
    s += summaries.mu[:, None, :]
    p, mu_rows = softmax_logsumexp_inplace(s)
    y = np.matmul(p, summaries.vbar)
    if dipoles is not None:
        y += np.matmul(rpad, dipoles.transpose(0, 2, 1))
    return y[mask], mu_rows[mask]


@dataclass
class MuseClusters:
    """Frozen per-slice cluster assignments, reusable across perturbed inputs
    (centroids are recomputed from whatever points are supplied)."""

    q_assign: np.ndarray  # (batch, heads, n_q) int64
    k_assign: np.ndarray  # (batch, heads, n_k) int64


def _check_clusters(clusters: MuseClusters, b: int, h: int, n_q: int, n_k: int, config: MuseConfig):
    """Reject frozen assignments that do not label every token of every slice
    with a cluster id in range."""
    for name, labels, n, c in (("q_assign", clusters.q_assign, n_q, config.c_q),
                               ("k_assign", clusters.k_assign, n_k, config.c_k)):
        labels = np.asarray(labels)
        if labels.shape != (b, h, n):
            raise ValueError(f"clusters.{name} must have shape {(b, h, n)}, got {labels.shape}")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"clusters.{name} must hold integer labels, got {labels.dtype}")
        if labels.min() < 0 or labels.max() >= c:
            raise ValueError(f"clusters.{name} labels must lie in [0, {c}), "
                             f"got [{labels.min()}, {labels.max()}]")


def _cluster_slice(qs, ks, config: MuseConfig, bi: int, hi: int,
                   clusters: MuseClusters | None = None) -> tuple[Clustering, Clustering]:
    """Query and key clusterings of one (batch, head) slice: capped k-means with
    per-slice seeds, or the frozen labels of `clusters` with fresh centroids."""
    if clusters is not None:
        return (clustering_from_assignments(qs, clusters.q_assign[bi, hi], config.c_q),
                clustering_from_assignments(ks, clusters.k_assign[bi, hi], config.c_k))
    return (kmeans(qs, config.c_q, config.kmeans_iters, config.cap_ratio,
                   make_rng(derive_seed(config.seed, bi, hi, 0))),
            kmeans(ks, config.c_k, config.kmeans_iters, config.cap_ratio,
                   make_rng(derive_seed(config.seed, bi, hi, 1))))


def cluster_tokens(q, k, config: MuseConfig, threads: int = 1) -> MuseClusters:
    """Run the per-slice clusterings (scaled queries, raw keys) and return the
    assignments only, for reuse with perturbed inputs."""
    q, k = _check_qk(q, k)
    b, h, n_q, d = q.shape
    scale = config.resolve_scale(d)
    qa = np.empty((b, h, n_q), dtype=np.int64)
    ka = np.empty((b, h, k.shape[2]), dtype=np.int64)

    def run(i):
        bi, hi = divmod(i, h)
        qs = q[bi, hi] * np.asarray(scale, dtype=q.dtype)
        qc, kc = _cluster_slice(qs, k[bi, hi], config, bi, hi)
        qa[bi, hi] = qc.assignments
        ka[bi, hi] = kc.assignments

    _map_slices(run, b * h, threads)
    return MuseClusters(q_assign=qa, k_assign=ka)


def muse_acausal(q, k, v, config: MuseConfig, threads: int = 1,
                 clusters: MuseClusters | None = None) -> AttentionResult:
    """Single-call acausal approximation.

    Queries are scaled once (scores stay scale * q . k everywhere downstream),
    clustered per (batch, head) along with the keys (values ride with their
    keys), and the stage-1 / dipole-aggregation / final-stage pipeline runs
    per slice. Outputs come back in cluster order and scatter to token order
    in one assignment; the returned mu rows are valid merge weights for
    `merge_partials`. no_dipole hands `final_stage` no dipoles, and
    no_monopole also overwrites y as `MuseConfig` describes.

    `clusters` freezes assignments (centroids are recomputed from the inputs),
    which keeps the function smooth under small perturbations. Each label
    array must have shape (batch, heads, n) and ids in [0, c).
    """
    q, k, v, _ = _check_qkv(q, k, v, None)
    b, h, n_q, d = q.shape
    n_k = k.shape[2]
    if config.c_q > n_q or config.c_k > n_k:
        raise ValueError("sequence shorter than cluster count")
    if clusters is not None:
        _check_clusters(clusters, b, h, n_q, n_k, config)
    scale = config.resolve_scale(d)
    y = np.empty((b, h, n_q, d), dtype=q.dtype)
    mu = np.empty((b, h, n_q), dtype=q.dtype)

    def run(i):
        bi, hi = divmod(i, h)
        qs = q[bi, hi] * np.asarray(scale, dtype=q.dtype)
        qc, kc = _cluster_slice(qs, k[bi, hi], config, bi, hi, clusters)
        summaries = stage1(qc.centroids, kc.groups(np.concatenate((k[bi, hi], v[bi, hi]), axis=1)))
        dipoles = aggregate_dipoles(summaries) if config.ablation == "full" else None
        residuals = qc.groups(decompose(qs, qc))
        y[bi, hi, qc.order], mu[bi, hi, qc.order] = final_stage(residuals, summaries, dipoles)
        if config.ablation == "no_monopole":
            y[bi, hi] = v[bi, hi].mean(axis=0) + decompose(qs, qc) @ summaries.cov_vk.mean(axis=0).T

    _map_slices(run, b * h, threads)
    return AttentionResult(y=y, mu=mu)


def rel_sq_error(reference: AttentionResult, approx: AttentionResult) -> float:
    """||y_ref - y_approx||^2 / ||y_ref||^2 over all entries jointly."""
    yr = reference.y.astype(np.float64)
    ya = approx.y.astype(np.float64)
    if yr.shape != ya.shape:
        raise ValueError("shape mismatch")
    denom = float(np.sum(yr * yr))
    if denom == 0.0:
        raise ValueError("zero reference norm")
    diff = yr - ya
    return float(np.sum(diff * diff)) / denom
