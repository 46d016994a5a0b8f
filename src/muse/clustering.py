"""Capped K-means over token vectors.

Initialization samples points proportional to their squared norm, a fixed
number of uncapped Lloyd iterations follow, and a final capacity-capped
assignment plus one recentering produce the segment-sorted layout the
summary stages consume. The capped assignment runs in proposal rounds
(`cap_assign`): tokens whose nearest centroid is over its cap compete for
its room by margin, and the rejected ones move on to their nearest centroid
with room left. Everything is deterministic given the generator.
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
    """Assignment of n tokens to c capped clusters, in a segment-sorted layout.

    `order` lists the token ids sorted by cluster, ascending within each
    cluster; cluster j is order[offsets[j]:offsets[j + 1]] and holds at most
    `cap` tokens. centroids[j] is the mean of the member vectors after the
    final recentering pass.
    """

    assignments: np.ndarray  # (n,) int64
    centroids: np.ndarray  # (c, d)
    order: np.ndarray = field(repr=False)  # (n,) int64
    offsets: np.ndarray = field(repr=False)  # (c + 1,) int64
    cap: int
    c: int
    init_fallback: bool = False

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def members(self) -> list:
        """Ascending token ids per cluster (views into `order`)."""
        return _segments(self.order, self.offsets)

    def groups(self, x: np.ndarray) -> list:
        """Rows of x per cluster, as views into the one gathered copy x[order]."""
        return _segments(x[self.order], self.offsets)


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


def _segments(rows: np.ndarray, offsets: np.ndarray) -> list:
    return [rows[a:b] for a, b in pairwise(offsets.tolist())]


def _recenter(x, order, offsets, centroids):
    """Move every non-empty cluster's centroid to its member mean, by segment
    sums over x[order]; empty clusters keep theirs."""
    sizes = np.diff(offsets)
    full = sizes > 0
    sums = np.add.reduceat(x[order], offsets[:-1][full], axis=0)
    centroids[full] = sums / sizes[full, None].astype(sums.dtype)


def clustering_from_assignments(x: np.ndarray, assign: np.ndarray, c: int) -> Clustering:
    """The clustering of x that fixed labels in [0, c) define, with member-mean
    centroids; the same layout and reduction as the end of `kmeans`."""
    order, offsets = _layout(assign, c)
    sizes = np.diff(offsets)
    if sizes.min() == 0:
        raise ValueError("frozen assignment leaves an empty cluster")
    centroids = np.empty((c, x.shape[1]), dtype=x.dtype)
    _recenter(x, order, offsets, centroids)
    return Clustering(assignments=assign.astype(np.int64), centroids=centroids, order=order,
                      offsets=offsets, cap=int(sizes.max()), c=c)


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
    """Reseed each empty cluster to the worst-served point (greatest distance
    to its currently assigned centroid), stealing that point. Repeats until no
    cluster is empty; ties pick the lowest token index. d2, the distances to
    the centroids as passed in, is computed here only if a cluster is empty."""
    c = centroids.shape[0]
    for _ in range(c):
        counts = np.bincount(assign, minlength=c)
        empties = np.flatnonzero(counts == 0)
        if empties.size == 0:
            return assign
        if d2 is None:
            d2 = _sq_dists(x, centroids)
        own = d2[np.arange(len(assign)), assign].copy()
        for j in empties:
            i = int(np.argmax(own))
            assign[i] = j
            centroids[j] = x[i]
            own[i] = -1.0  # each empty steals a different point
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
    Each rejected token ranks its centroids once and moves a pointer past the
    full ones, so all rounds together take at most c pointer steps per
    rejected token, however many rounds there are.
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
    target = assign[tok]
    room = np.where(over, cap, cap - counts)  # the non-competitors keep their nearest centroid
    pref = None
    while True:
        assign[tok] = target
        # each centroid accepts its proposals in priority order, up to its room
        by = np.argsort(target, kind="stable")
        grouped = target[by]
        rank = np.arange(by.size) - np.searchsorted(grouped, grouped)
        rejected = np.sort(by[rank >= room[grouped]])  # back in priority order
        room -= np.minimum(np.bincount(target, minlength=c), room)
        if not rejected.size:
            return assign.astype(np.int64)
        tok = tok[rejected]
        if pref is None:  # after the first round, rank the rejected tokens' centroids once
            pref = np.argsort(d2[tok], axis=1, kind="stable").ravel()  # ties by centroid id
            at = np.arange(tok.size) * c  # flat index of each token's pointer into pref
        else:
            at = at[rejected]
        # a rejection fills the centroid, so every pointer moves on, then past full ones
        at += 1
        target = pref[at]
        stale = np.flatnonzero(room[target] == 0)
        while stale.size:
            at[stale] += 1
            target[stale] = pref[at[stale]]
            stale = stale[room[target[stale]] == 0]


def kmeans(
    x: np.ndarray,
    c: int,
    iters: int,
    cap_ratio: float,
    rng: np.random.Generator,
    init: np.ndarray | None = None,
) -> Clustering:
    """`iters` uncapped Lloyd iterations, then one capped assignment pass and
    a final recentering. Nearest-centroid ties break toward the lowest id.

    `init` overrides the squared-norm-proportional seeding with explicit
    starting centroids (used by permutation-invariance checks).
    """
    x = np.asarray(x)
    n = x.shape[0]
    if c > n:
        raise ValueError("more clusters than points")
    if c < 1 or iters < 1:
        raise ValueError("need c >= 1 and iters >= 1")
    if not 1.0 <= cap_ratio < math.inf:
        raise ValueError("cap_ratio must be finite and >= 1")
    if init is None:
        init = init_centroids(x, c, rng)
    fallback = init.uniform_fallback
    centroids = np.array(init.centroids, dtype=x.dtype, copy=True)
    if centroids.shape != (c, x.shape[1]):
        raise ValueError("init centroids have wrong shape")

    assign = np.zeros(n, dtype=np.int64)
    for _ in range(iters):
        d2 = _sq_dists(x, centroids)
        assign = np.argmin(d2, axis=1).astype(np.int64)  # ties -> lowest id
        assign = _repair_empties(x, centroids, assign, d2)
        _recenter(x, *_layout(assign, c), centroids)

    cap = math.ceil(cap_ratio * n / c)
    assign = _repair_empties(x, centroids, cap_assign(x, centroids, cap))
    order, offsets = _layout(assign, c)
    _recenter(x, order, offsets, centroids)
    return Clustering(assignments=assign, centroids=centroids, order=order, offsets=offsets,
                      cap=cap, c=c, init_fallback=fallback)


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
