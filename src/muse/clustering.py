"""Capped K-means over token vectors.

Initialization samples points proportional to their squared norm, a fixed
number of uncapped Lloyd iterations follow, and a final capacity-capped
assignment plus one recentering produce the segment-sorted layout the
summary stages consume. The capped assignment runs in proposal rounds
(`cap_assign`): tokens whose nearest centroid is over its cap compete for
its room by margin, and the rejected ones move on to their nearest centroid
with room left, found by one masked argmin per round. Everything is
deterministic given the generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import pairwise

import numpy as np


@dataclass
class CentroidInit:
    centroids: np.ndarray  # (c, d)
    indices: np.ndarray  # (c,) token indices chosen
    uniform_fallback: bool  # True when squared-norm weights were unusable


@dataclass
class Clustering:
    """Assignment of n tokens to c non-empty clusters, in a segment-sorted layout.

    `order` lists the token ids sorted by cluster, ascending within each
    cluster; cluster j is order[offsets[j]:offsets[j + 1]]. centroids[j] is
    the mean of its member vectors, in an array of its own (never one that
    k-means worked in).
    """

    assignments: np.ndarray  # (n,) int64
    centroids: np.ndarray  # (c, d)
    order: np.ndarray = field(repr=False)  # (n,) int64
    offsets: np.ndarray = field(repr=False)  # (c + 1,) int64

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def groups(self, x: np.ndarray) -> list:
        """Rows of x per cluster, as views into the one gathered copy x[order]."""
        rows = x[self.order]
        return [rows[a:b] for a, b in pairwise(self.offsets.tolist())]


@dataclass
class ResidualDecomposition:
    centroid_part: np.ndarray  # (n, d): assigned centroid per token
    residual: np.ndarray  # (n, d): token minus assigned centroid


def _layout(assign: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, offsets) of labels in [0, c): a stable sort by cluster, so ids
    ascend within each cluster, and the c + 1 segment boundaries."""
    order = np.argsort(assign, kind="stable")
    offsets = np.zeros(c + 1, dtype=np.int64)
    np.cumsum(np.bincount(assign, minlength=c), out=offsets[1:])
    return order, offsets


def _means(x, order, offsets):
    """(c, d) member means of clusters that are all non-empty, by segment sums
    over x[order]."""
    sums = np.add.reduceat(x[order], offsets[:-1], axis=0)
    return sums / np.diff(offsets)[:, None].astype(sums.dtype)


def clustering_from_assignments(x: np.ndarray, assign: np.ndarray, c: int) -> Clustering:
    """The clustering of x that labels in [0, c) define, with fresh member-mean
    centroids; `kmeans` builds its result here too. Labels that are not one
    integer per token, an id outside [0, c) and an empty cluster are rejected."""
    assign = np.asarray(assign)
    if assign.shape != x.shape[:1]:
        raise ValueError(f"need one label per token: labels of shape {assign.shape} "
                         f"for {x.shape[0]} tokens")
    if not np.issubdtype(assign.dtype, np.integer):
        raise ValueError(f"labels must be integers, got {assign.dtype}")
    if assign.size and (assign.min() < 0 or assign.max() >= c):
        raise ValueError(f"labels must lie in [0, {c}), got [{assign.min()}, {assign.max()}]")
    order, offsets = _layout(assign, c)
    if np.diff(offsets).min() == 0:
        raise ValueError("assignment leaves an empty cluster")
    return Clustering(assignments=assign.astype(np.int64), centroids=_means(x, order, offsets),
                      order=order, offsets=offsets)


def _sq_dists(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, c) squared Euclidean distances, matmul-based: (||x||^2 - 2 x.c) + ||c||^2,
    computed in place in the one (n, c) buffer."""
    d2 = x @ centroids.T
    d2 *= -2.0
    d2 += np.sum(x * x, axis=1)[:, None]
    d2 += np.sum(centroids * centroids, axis=1)
    return np.maximum(d2, 0.0, out=d2)


def init_centroids(x: np.ndarray, c: int, rng: np.random.Generator) -> CentroidInit:
    """Sample c distinct token indices with probability proportional to ||x_i||^2.

    Falls back to uniform sampling (flagged) when fewer than c points carry
    positive squared norm.
    """
    x = np.asarray(x)
    n = x.shape[0]
    if not 1 <= c <= n:
        raise ValueError(f"need 1 <= c <= n, got c={c}, n={n}")
    w = np.sum(x.astype(np.float64) ** 2, axis=1)
    total = w.sum()
    fallback = total <= 0.0 or np.count_nonzero(w) < c
    if fallback:
        idx = rng.choice(n, size=c, replace=False)
    else:
        idx = rng.choice(n, size=c, replace=False, p=w / total)
    idx = np.asarray(idx, dtype=np.int64)
    return CentroidInit(centroids=x[idx].copy(), indices=idx, uniform_fallback=fallback)


def _repair_empties(x, centroids, assign, d2=None):
    """`assign` if no cluster is empty, else a copy repaired in one pass: each
    empty cluster, in id order, takes the worst-served token (greatest distance
    to its assigned centroid, ties to the lowest id) of a cluster that keeps a
    member, which c <= n guarantees. No centroid is written; d2, the distances
    to them, is computed here only if a cluster is empty."""
    counts = np.bincount(assign, minlength=centroids.shape[0])
    empties = np.flatnonzero(counts == 0)
    if not empties.size:
        return assign
    if d2 is None:
        d2 = _sq_dists(x, centroids)
    own = d2[np.arange(len(assign)), assign]
    worst = iter(np.argsort(-own, kind="stable"))  # ties by id; a skipped token stays ineligible
    assign = assign.copy()
    for j in empties:
        i = next(i for i in worst if counts[assign[i]] > 1)
        counts[assign[i]] -= 1
        assign[i] = j
    return assign


def cap_assign(x: np.ndarray, centroids: np.ndarray, cap: int) -> np.ndarray:
    """Capacity-capped assignment in proposal rounds.

    In the first round every token proposes to its nearest centroid. A
    centroid with more proposals than room left accepts them in priority
    order up to its room; acceptance is final. The priority is ascending
    margin (squared distance to the nearest centroid minus that to the second
    nearest, so the most attached token first), ties by token id. Each
    rejected token then proposes to its nearest centroid that still has room
    (ties toward the lowest id), and rounds repeat until every token is placed.

    So every centroid keeps min(count_j, cap) of the tokens nearest to it, the
    most any capped assignment can, and the token that spills from a full
    centroid is the one with the smallest margin. Only tokens whose nearest
    centroid is over its cap compete, so only their margins are computed.

    A round costs O(rejected x c): one argmin over each unplaced token's
    distances to the centroids with room. Tokens that tie every distance all
    propose to one centroid per round, so identical tokens with c close to n
    take about c rounds: at n = 1024, d = 16 f32 (one core of a 2-core Xeon),
    about 6 ms at c = 64, 250 ms at c = 512 and 490 ms at c = 1023, against
    under 1 ms for 1024 Gaussian tokens at c = 64.
    """
    x = np.asarray(x)
    n, c = x.shape[0], centroids.shape[0]
    if cap * c < n:
        raise ValueError(f"infeasible capacity: cap={cap} x c={c} < n={n}")
    d2 = _sq_dists(x, centroids)
    assign = np.argmin(d2, axis=1)
    counts = np.bincount(assign, minlength=c)
    over = counts > cap
    if not over.any():
        return assign.astype(np.int64)  # caps non-binding: identical to uncapped (always when c == 1)
    tok = np.flatnonzero(over[assign])  # the competitors
    top2 = np.sort(d2[tok], axis=1)  # a full sort of the short rows beats np.partition here
    tok = tok[np.argsort(top2[:, 0] - top2[:, 1], kind="stable")]  # priority order, ties by id
    room = np.where(over, cap, cap - counts)  # the non-competitors keep their nearest centroid
    while tok.size:
        target = np.where(room > 0, d2[tok], np.inf).argmin(axis=1)  # ties -> lowest id
        # each centroid accepts its proposals in priority order, up to its room
        by = np.argsort(target, kind="stable")
        grouped = target[by]
        rank = np.arange(by.size) - np.searchsorted(grouped, grouped)
        taken = rank < room[grouped]
        assign[tok[by[taken]]] = grouped[taken]
        room -= np.minimum(np.bincount(target, minlength=c), room)
        tok = tok[np.sort(by[~taken])]  # the rejected, back in priority order
    return assign.astype(np.int64)


def kmeans(
    x: np.ndarray,
    c: int,
    iters: int,
    cap_ratio: float,
    rng: np.random.Generator,
    init: CentroidInit | None = None,
) -> Clustering:
    """`iters` uncapped Lloyd iterations, then one capped assignment pass with
    at most ceil(cap_ratio * n / c) tokens per cluster, each followed by the
    empty-cluster repair. Nearest-centroid ties break toward the lowest id. No
    returned cluster is empty, and the centroids are a fresh array of member
    means.

    `init` replaces the squared-norm-proportional seeding with a given
    `CentroidInit` whose (c, d) centroids start the iterations (tests use it
    to share one seeding across calls).
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"x must have shape (n, d), got ndim={x.ndim}")
    if not (np.isfinite(x.min(initial=0.0)) and np.isfinite(x.max(initial=0.0))):  # NaN propagates
        raise ValueError("x contains non-finite entries")
    n = x.shape[0]
    if c > n:
        raise ValueError("more clusters than points")
    if c < 1 or iters < 1:
        raise ValueError("need c >= 1 and iters >= 1")
    if not 1.0 <= cap_ratio < math.inf:
        raise ValueError("cap_ratio must be finite and >= 1")
    if init is None:
        init = init_centroids(x, c, rng)
    centroids = np.asarray(init.centroids, dtype=x.dtype)
    if centroids.shape != (c, x.shape[1]):
        raise ValueError("init centroids have wrong shape")

    for _ in range(iters):
        d2 = _sq_dists(x, centroids)
        assign = _repair_empties(x, centroids, np.argmin(d2, axis=1), d2)  # ties -> lowest id
        centroids = _means(x, *_layout(assign, c))

    cap = math.ceil(cap_ratio * n / c)
    assign = _repair_empties(x, centroids, cap_assign(x, centroids, cap))
    return clustering_from_assignments(x, assign, c)


def decompose(x: np.ndarray, clustering: Clustering) -> ResidualDecomposition:
    """Split tokens into assigned-centroid part plus residual.

    The sum reconstructs the input to within one ulp per entry; it is exact
    wherever the subtraction x - centroid incurred no rounding.
    """
    part = clustering.centroids[clustering.assignments]
    return ResidualDecomposition(centroid_part=part, residual=x - part)


def inertia(x: np.ndarray, clustering: Clustering) -> float:
    """Sum of squared distances from each token to its assigned centroid."""
    r = x - clustering.centroids[clustering.assignments]
    return float(np.sum(r.astype(np.float64) ** 2))
