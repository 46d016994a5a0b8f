"""Clustered monopole+dipole approximation of acausal softmax attention.

Pipeline per (batch, head) slice: cluster scaled queries and raw keys, build
tilted per-(query-cluster, key-cluster) key/value centroids and logsumexps
from each key cluster's (U_j, 2d) rows of keys and their values, aggregate
the per-key-cluster value-key covariances into one dipole matrix per query
cluster, then refine each residual query against the summaries.
`final_stage` is the monopole-plus-dipole formula alone; `muse_acausal`
applies the `MuseConfig.ablation` around it.

Both stages take the exact kernel's bounded route, `numerics.bounded_rows`
and `numerics.max_shift`: a row whose norms bound its scores to [-L, L],
L = log(finfo.max) / 4 (a query centroid in stage 1, a residual in the
final stage, whose scores carry the logsumexp bias mu - max_j mu), is
exponentiated as it stands, and only the other rows take a max pass and
subtract their max. Neither stage normalises its exponentials: each takes
their sums from a product with a 0/1 or ones vector and divides their
product with the (tilted) values by the sums, as the exact kernel does. The
final stage's scores, bias included, are one product of contiguous blocks
that stage 1 lays out for it. On ordinary inputs no max, subtract, bias or
sum pass runs over the scores.

The summaries are exact per-cluster attention results for the query
centroids, so the whole construction inherits the merge identity: with one
cluster per token, or with zero query residuals, the output is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .attention import AttentionResult, _check_qk, _check_qkv, _map_slices
from .clustering import Clustering, _checked_layout, decompose, kmeans
from .numerics import (bounded_rows, check_integer, check_real, check_seed, derive_seed, make_rng, max_shift, sq_norms,
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
            value = getattr(self, name)
            check_integer(value, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        check_seed(self.seed)
        check_real(self.cap_ratio, "cap_ratio")
        if not 1.0 <= self.cap_ratio < math.inf:
            raise ValueError("cap_ratio must be finite and >= 1")
        if self.scale is not None:
            check_real(self.scale, "scale")
            if not 0 < self.scale < math.inf:
                raise ValueError("scale must be positive and finite")
        if self.ablation not in ABLATIONS:
            raise ValueError(f"unknown ablation {self.ablation!r}, expected one of {ABLATIONS}")

    def resolve_scale(self, d: int) -> float:
        return self.scale if self.scale is not None else 1.0 / math.sqrt(d)


@dataclass
class ClusterSummaries:
    """Stage-1 output for one (batch, head) slice, in the layouts the final
    stage multiplies.

    kbar[i, j] and vbar[i, j] are the key and value centroids of key cluster j
    tilted by query centroid i; mu[i, j] is the logsumexp of the centroid's
    scores over cluster j. `kbar_bias` is one contiguous (c_q, d + 1, c_k)
    block: kbar[i] transposed in its first d rows, and the bias row
    mu[i] - max_j mu[i, j] last, so that a residual with a trailing 1 scores
    r . kbar[i, j] + mu[i, j] - max_j mu[i, j] from one product; `kbar` is a
    view of its first d rows. vbar is contiguous (c_q, c_k, d). cov_vk[j][a, b]
    is the untilted value-key covariance (1/U_j) sum (v - vbar_j)_a
    (k - kbar_j)_b with plain member means. kv_sq holds the largest squared
    key and value norms over all clusters, which bound every squared kbar and
    vbar norm (convex combinations of them) up to rounding.
    """

    kbar_bias: np.ndarray  # (c_q, d + 1, c_k)
    vbar: np.ndarray  # (c_q, c_k, d)
    mu: np.ndarray  # (c_q, c_k)
    cov_vk: np.ndarray  # (c_k, d, d)
    kv_sq: np.ndarray  # (2,)

    @property
    def kbar(self) -> np.ndarray:
        """(c_q, c_k, d) view of the tilted key centroids."""
        return self.kbar_bias[:, :-1].transpose(0, 2, 1)


def _padded(groups: list, ones: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack variable-length (U_j, d) arrays into zero-padded (C, U_max, d),
    in the dtype `np.concatenate` would give them, by copying each group into
    its block of one zero array. With `ones`, the array is (C, U_max, d + 1)
    and every row, padded slots included, ends in a 1.

    Also returns the (C, U_max) mask of the real rows (in group order, so
    `out.reshape(-1, d)[flatnonzero(mask)]` gives back the concatenated
    groups) and the (C,) group sizes.
    """
    sizes = np.array([g.shape[0] for g in groups])
    mask = np.arange(sizes.max()) < sizes[:, None]
    d = groups[0].shape[1]
    out = np.zeros(mask.shape + (d + int(ones),), dtype=np.result_type(*groups))
    for block, g in zip(out, groups):
        block[:g.shape[0], :d] = g
    if ones:
        out[:, :, d] = 1
    return out, mask, sizes


def stage1(qbar: np.ndarray, key_clusters: list) -> ClusterSummaries:
    """Tilted summaries: for each (i, j) pair, attend from query centroid i to
    the full contents of key cluster j, recording the logsumexp, the tilted
    key centroid, and the tilted value centroid. Covariances are computed once
    per key cluster with uniform 1/U_j weights (no tilt).

    Each block of `key_clusters` is one key cluster's (U_j, 2d) rows: the key
    in the first d columns, its value in the last d, so one tilted product
    gives both centroids. qbar rows are already in scaled score units. A
    centroid that `bounded_rows` bounds is exponentiated without a max shift;
    the others take theirs from `max_shift`, after the padded slots of every
    score row are set to -inf.
    """
    d = qbar.shape[1]
    widths = sorted({kv.shape[-1] for kv in key_clusters})
    if widths != [2 * d]:
        raise ValueError(f"key/value blocks must be 2 * d = {2 * d} wide for {d}-wide query "
                         f"centroids, got widths {widths}")
    kvpad, real, sizes = _padded(key_clusters)
    if not sizes.all():
        raise ValueError("empty key cluster")
    c_q = qbar.shape[0]
    c_k, u_max, _ = kvpad.shape
    kv = kvpad.reshape(-1, 2 * d)
    # the largest squared key and value norms: the scores need the first, and the
    # product below multiplies the exponentials with keys and values alike. One
    # contiguous norm pass over the d-wide halves, in which key and value rows
    # alternate, and a strided 1-D max over each
    norms = sq_norms(kv.reshape(-1, d))
    kv_sq = np.array([norms[0::2].max(), norms[1::2].max()])
    del norms  # not held into the score product
    bounded = bounded_rows(sq_norms(qbar), kv_sq[0], kv_sq.max(), np.result_type(qbar, kvpad))
    # scores laid out (c_k, U, c_q) from one GEMM; the padded slots are whole rows
    # of the flat (c_k U, c_q) scores. The scores of bounded centroids are
    # exponentiated as they stand: a padded slot scores exactly 0 there, and its
    # exponential 1 multiplies a zero row. Only the shifted route writes -inf into
    # the padded slots, so that no padded 0 is the max of a row. The exponentials
    # stay unnormalised: their sums over the real slots come from one product with
    # the 0/1 mask of those slots, and kbar/vbar from one product, which reads
    # each e[j].T as the column-major matrix it is and writes into (c_q, c_k, 2d),
    # and that product is divided by the sums, 2d divisions per (i, j) pair in
    # place of U_max. Copies then write the final stage's layouts.
    s = kv[:, :d] @ qbar.T
    if not bounded.all():
        s[np.flatnonzero(~real)] = -np.inf
    s = s.reshape(c_k, u_max, c_q)
    shift = max_shift(bounded, lambda: s.max(axis=1, keepdims=True))
    if shift is not None:
        s -= shift
    np.exp(s, out=s)
    total = np.matmul(real.astype(s.dtype)[:, None, :], s)[:, 0].T  # (c_q, c_k)
    kvbar = np.empty((c_q, c_k, 2 * d), dtype=s.dtype)
    np.matmul(s.transpose(0, 2, 1), kvpad, out=kvbar.transpose(1, 0, 2))
    del s  # free the scores before the covariance temporaries
    kvbar /= total[:, :, None]
    mu = np.log(total, order="C")
    if shift is not None:
        mu += shift[:, 0].T
    counts = sizes[:, None, None].astype(kvpad.dtype)
    # deviations from the plain member means, zeroed again in the padded slots;
    # the member sums are one product with a ones vector (the padded rows are
    # zero), as the exponential sums above
    dkv = kvpad - np.matmul(np.ones(u_max, dtype=kvpad.dtype), kvpad)[:, None] / counts
    dkv.reshape(-1, 2 * d)[np.flatnonzero(~real)] = 0
    cov_vk = np.matmul(dkv[:, :, d:].transpose(0, 2, 1), dkv[:, :, :d]) / counts
    del kvpad, kv, dkv  # free the padded blocks before the layouts are copied out
    kbar_bias = np.empty((c_q, d + 1, c_k), dtype=kvbar.dtype)
    kbar_bias[:, :d] = kvbar[:, :, :d].transpose(0, 2, 1)
    np.subtract(mu, mu.max(axis=1, keepdims=True), out=kbar_bias[:, d])
    vbar = kvbar[:, :, d:].copy()
    return ClusterSummaries(kbar_bias=kbar_bias, vbar=vbar, mu=mu, cov_vk=cov_vk, kv_sq=kv_sq)


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
    the per-cluster mass in log space), computed as S_j - max_j mu[i, j] by
    one batched product of the residuals, each with a trailing 1, and
    `summaries.kbar_bias`; the output is the softmax combination of the
    tilted value centroids, taken as sum_j exp(S_j) vbar[i, j] over
    sum_j exp(S_j), plus the dipole correction qres . dipoles[i]^T contracted
    over the key index, left out when `dipoles` is None. Residuals are already
    in scaled units. A residual that `bounded_rows` bounds by
    `summaries.kv_sq` is exponentiated as it stands; the others take their
    shift from `max_shift`.

    Returns the (y rows, mu rows) of all residuals in cluster order, as flat
    (n, d) and (n,) arrays.
    """
    rpad, real, _ = _padded(residual_clusters, ones=True)
    vbar, mu = summaries.vbar, summaries.mu
    c_q, u_max, _ = rpad.shape
    c_k, d = vbar.shape[1:]
    r = rpad[:, :, :d]
    # stage 1's norm maxima bound kbar and vbar up to rounding, which the 4x
    # margin in L absorbs. The bias mu - max_j mu is at most 0 and exactly 0 at
    # the largest mu, so a row whose |r . kbar| <= L has its largest biased
    # score in [-L, L]; a cluster whose mu has no finite max bounds no row and
    # fails in the checks
    top = mu.max(axis=1)
    bounded = bounded_rows(sq_norms(r), summaries.kv_sq[0], summaries.kv_sq[1],
                           np.result_type(rpad, vbar)) & np.isfinite(top)[:, None]
    # biased scores laid out (c_q, U, c_k) from one batched product of contiguous
    # operands; the y product and the sums over c_k, one product with a ones
    # vector, read them as they lie, and y is divided by the sums, d divisions
    # per row in place of c_k
    s = np.matmul(rpad, summaries.kbar_bias)
    shift = max_shift(bounded[:, :, None], lambda: s.max(axis=2, keepdims=True))
    if shift is not None:
        s -= shift
    np.exp(s, out=s)
    total = (s.reshape(-1, c_k) @ np.ones(c_k, dtype=s.dtype)).reshape(c_q, u_max)
    y = np.matmul(s, vbar)
    del s  # free the exponentials before the division's buffer
    y /= total[:, :, None]
    if dipoles is not None:
        y += np.matmul(r, dipoles.transpose(0, 2, 1))
    mu_rows = np.log(total)
    mu_rows += top[:, None]
    if shift is not None:
        mu_rows += shift[:, :, 0]
    rows = np.flatnonzero(real)
    return np.take(y.reshape(-1, d), rows, axis=0), np.take(mu_rows.reshape(-1), rows)


@dataclass
class MuseClusters:
    """Frozen per-slice cluster assignments, reusable across perturbed inputs.

    A call with these clusters recomputes only the member-mean centroids of
    the queries from the points it is given; the keys need none. Each
    slice's query and key layout (the stable order by label and the cluster
    offsets) is built on the first call that needs it, or taken from the
    k-means of `cluster_tokens`, and kept with a private copy of its labels.
    A later call reuses the layout while the labels equal that copy, and
    rebuilds it for labels edited in place or replaced, which costs one
    comparison per slice side.
    """

    q_assign: np.ndarray  # (batch, heads, n_q) int64
    k_assign: np.ndarray  # (batch, heads, n_k) int64
    # (label field, batch, head, c) -> the bare layout (a Clustering without
    # centroids) of those labels, whose assignments are the private copy
    _layouts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _layout(self, name: str, bi: int, hi: int, c: int) -> Clustering:
        """The bare layout of the labels `name` give slice (bi, hi): the kept
        one if they have not changed, else a fresh one, kept."""
        labels = getattr(self, name)[bi, hi]
        kept = self._layouts.get((name, bi, hi, c))
        if kept is None or not np.array_equal(kept.assignments, labels):
            self._layouts[name, bi, hi, c] = kept = _checked_layout(labels, c)
        return kept


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
    per-slice seeds, or the frozen labels of `clusters`: the queries with fresh
    centroids, the keys as a bare layout, since only their `groups` are read."""
    if clusters is not None:
        return (clusters._layout("q_assign", bi, hi, config.c_q).recentered(qs),
                clusters._layout("k_assign", bi, hi, config.c_k))
    return (kmeans(qs, config.c_q, config.kmeans_iters, config.cap_ratio,
                   make_rng(derive_seed(config.seed, bi, hi, 0))),
            kmeans(ks, config.c_k, config.kmeans_iters, config.cap_ratio,
                   make_rng(derive_seed(config.seed, bi, hi, 1))))


def cluster_tokens(q, k, config: MuseConfig, threads: int = 1) -> MuseClusters:
    """Run the per-slice clusterings (scaled queries, raw keys) and return the
    assignments, for reuse with perturbed inputs. The layouts that k-means
    built are kept with them, for calls with `config`'s cluster counts."""
    q, k = _check_qk(q, k)
    b, h, n_q, d = q.shape
    scale = config.resolve_scale(d)
    out = MuseClusters(q_assign=np.empty((b, h, n_q), dtype=np.int64),
                       k_assign=np.empty((b, h, k.shape[2]), dtype=np.int64))

    def run(i):
        bi, hi = divmod(i, h)
        qs = q[bi, hi] * np.asarray(scale, dtype=q.dtype)
        qc, kc = _cluster_slice(qs, k[bi, hi], config, bi, hi)
        out.q_assign[bi, hi] = qc.assignments
        out.k_assign[bi, hi] = kc.assignments
        out._layouts["q_assign", bi, hi, config.c_q] = replace(qc, centroids=None)
        out._layouts["k_assign", bi, hi, config.c_k] = replace(kc, centroids=None)

    _map_slices(run, b * h, threads)
    return out


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
    array must have shape (batch, heads, n) and ids in [0, c). The layouts of
    unchanged labels are reused from earlier calls (see `MuseClusters`).
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
