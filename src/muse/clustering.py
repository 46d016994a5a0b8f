"""Capped K-means over token vectors.

k-means works on the tokens less their mean. Initialization samples points
proportional to their squared norm there (Gumbel-top-k), a fixed number of
uncapped Lloyd iterations follow, and a final capacity-capped assignment
plus one recentering on the tokens as given produce the segment-sorted
layout the summary stages consume. Every pass ranks centroids by the scores
||c||^2 - 2 x.c, one product per pass; only the empty-cluster repair, which
compares tokens, computes full distances. The capped assignment runs in
proposal rounds (`cap_assign`): tokens whose nearest centroid is over its
cap compete for its room by margin, and the rejected ones move on to their
nearest centroid with room left, found by one masked argmin per round after
the first. Cluster layouts sort their labels by radix. Everything is
deterministic given the generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import pairwise

import numpy as np

from .numerics import sq_norms


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
        """Rows of x per cluster, as views into one gathered copy of x in
        cluster order, taken by `np.take` along axis 0: about half the time of
        the fancy index x[order] on (4096, 16) and (4096, 32) f32 rows."""
        rows = np.take(x, self.order, axis=0)
        return [rows[a:b] for a, b in pairwise(self.offsets.tolist())]

    def recentered(self, x: np.ndarray) -> "Clustering":
        """The same labels and layout over new tokens x, with their member-mean
        centroids; bitwise the clustering `clustering_from_assignments` builds
        from these labels over x. The label and layout arrays are shared."""
        return replace(self, centroids=_means(x, self.order, self.offsets))


def _stable_order(labels: np.ndarray, c: int) -> np.ndarray:
    """Stable argsort of labels in [0, c). When c fits in int16 the labels are
    sorted as int16, which numpy's stable sort does by radix: 4096 labels in
    about 30 us against 160 us as int64 (one core of a 2-core host)."""
    return np.argsort(labels.astype(np.int16) if c <= np.iinfo(np.int16).max else labels, kind="stable")


def _layout(assign: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, offsets) of labels in [0, c): a stable sort by cluster, so ids
    ascend within each cluster, and the c + 1 segment boundaries."""
    order = _stable_order(assign, c)
    offsets = np.zeros(c + 1, dtype=np.int64)
    np.cumsum(np.bincount(assign, minlength=c), out=offsets[1:])
    return order, offsets


def _means(x, order, offsets):
    """(c, d) member means of clusters that are all non-empty, by segment sums
    over x gathered in cluster order (`np.take`, as in `Clustering.groups`)."""
    sums = np.add.reduceat(np.take(x, order, axis=0), offsets[:-1], axis=0)
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


def _scores(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, c) scores ||c||^2 - 2 x.c from one product and one broadcast add:
    each token's squared distances less its own ||x||^2, so a row ranks the
    centroids, and differences within a row are differences of distances.
    Tokens and centroids whose squared distances could overflow the dtype,
    (max ||x|| + max ||c||)^2 >= finfo.max, are rejected by that norm bound
    (NaN and inf fail it) with no numpy RuntimeWarning first; below it no
    score, nor any sum in the product, can overflow."""
    dtype = np.result_type(x, centroids, 1.0)
    cc = sq_norms(centroids)
    bound = math.sqrt(sq_norms(x).max(initial=0.0)) + math.sqrt(cc.max(initial=0.0))
    if not bound < math.sqrt(np.finfo(dtype).max):
        raise ValueError(f"squared distances overflow {dtype}; rescale the tokens")
    s = x @ (-2.0 * centroids).T
    s += cc
    return s


def init_centroids(x: np.ndarray, c: int, rng: np.random.Generator) -> CentroidInit:
    """Sample c distinct token indices with probability proportional to ||x_i||^2,
    one after another without replacement (successive sampling), as the top c
    of log ||x_i||^2 plus Gumbel noise (Gumbel-top-k), in drawing order.
    `kmeans` passes its tokens centered, so there the weights are squared
    distances to the token mean.

    A zero-norm token is never drawn. Falls back to uniform sampling (flagged)
    when fewer than c points carry positive squared norm.
    """
    x = np.asarray(x)
    n = x.shape[0]
    if not 1 <= c <= n:
        raise ValueError(f"need 1 <= c <= n, got c={c}, n={n}")
    w = sq_norms(x.astype(np.float64, copy=False))
    fallback = np.count_nonzero(w) < c
    if fallback:
        idx = rng.choice(n, size=c, replace=False)
    else:
        with np.errstate(divide="ignore"):
            keys = np.log(w)  # -inf at zero norm: never among the top c
        keys += rng.gumbel(size=n)
        idx = np.argpartition(-keys, c - 1)[:c]
        idx = idx[np.argsort(-keys[idx], kind="stable")]
    idx = np.asarray(idx, dtype=np.int64)
    return CentroidInit(centroids=x[idx], indices=idx, uniform_fallback=fallback)


def _repair_empties(x, centroids, assign):
    """`assign` if no cluster is empty, else a copy repaired in one pass: each
    empty cluster, in id order, takes the worst-served token (greatest squared
    distance to its assigned centroid, ties to the lowest id) of a cluster that
    keeps a member, which c <= n guarantees. No centroid is written. The repair
    is the one place that compares distances across tokens, so it computes
    them in full, from the residuals, and only if a cluster is empty."""
    counts = np.bincount(assign, minlength=centroids.shape[0])
    empties = np.flatnonzero(counts == 0)
    if not empties.size:
        return assign
    own = sq_norms(x - np.take(centroids, assign, axis=0))
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

    Nearest centroids and margins come from one (n, c) pass of scores
    ||c||^2 - 2 x.c: the token's own ||x||^2 cancels from both. Each margin
    is the nearest score minus the score at the argmin of the row with the
    nearest masked. A later round costs O(rejected x c): one argmin over each
    unplaced token's scores at the centroids with room. Tokens that tie
    every distance all propose to one centroid per round, so identical tokens
    with c close to n take about c rounds: at n = 1024, d = 16 f32 and
    cap = ceil(n / c) (one core of a shared 2-core Xeon, medians of two
    runs), 7-12 ms at c = 64, 230-360 ms at c = 512 and 420-430 ms at
    c = 1023, against 0.55 ms for 1024 Gaussian tokens at c = 64.
    """
    x = np.asarray(x)
    n, c = x.shape[0], centroids.shape[0]
    if cap * c < n:
        raise ValueError(f"infeasible capacity: cap={cap} x c={c} < n={n}")
    s = _scores(x, centroids)
    assign = np.argmin(s, axis=1)
    counts = np.bincount(assign, minlength=c)
    over = counts > cap
    if not over.any():
        return assign.astype(np.int64)  # caps non-binding: identical to uncapped (always when c == 1)
    tok = np.flatnonzero(over[assign])  # the competitors
    # margin: the nearest score minus the second nearest, read at the argmin of the masked row
    rows, hit = np.take(s, tok, axis=0), (np.arange(tok.size), assign[tok])
    nearest = rows[hit]
    rows[hit] = np.inf
    tok = tok[np.argsort(nearest - rows[hit[0], rows.argmin(axis=1)], kind="stable")]  # ties by id
    del rows
    room = np.where(over, cap, cap - counts)  # the non-competitors keep their nearest centroid
    # in the first round every competitor proposes to its nearest centroid, which has room cap
    target = assign[tok]
    while True:
        # each centroid accepts its proposals in priority order, up to its room
        by = _stable_order(target, c)
        grouped = target[by]
        rank = np.arange(by.size) - np.searchsorted(grouped, grouped)
        taken = rank < room[grouped]
        assign[tok[by[taken]]] = grouped[taken]
        room -= np.minimum(np.bincount(target, minlength=c), room)
        tok = tok[np.sort(by[~taken])]  # the rejected, back in priority order
        if not tok.size:
            return assign.astype(np.int64)
        target = np.where(room > 0, np.take(s, tok, axis=0), np.inf).argmin(axis=1)  # ties -> lowest id


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
    means of the tokens as given.

    The iterations run on the tokens less their mean, so seeding weights and
    scores do not grow with a shift shared by all tokens: squared-norm
    seeding draws by squared distance to the mean, and no score cancels a
    large ||x||^2. `init` replaces that seeding with a given `CentroidInit`
    whose (c, d) centroids, in the tokens' own coordinates, start the
    iterations (tests use it to share one seeding across calls).
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
    if init is not None and np.shape(init.centroids) != (c, x.shape[1]):
        raise ValueError("init centroids have wrong shape")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed mean fails the score bound
        mean = np.ones(n, dtype=x.dtype) @ x / n
        xc = x - mean
        if init is None:
            centroids = init_centroids(xc, c, rng).centroids
        else:
            centroids = np.asarray(init.centroids, dtype=x.dtype) - mean

    for _ in range(iters):
        assign = _repair_empties(xc, centroids, np.argmin(_scores(xc, centroids), axis=1))  # ties -> lowest id
        centroids = _means(xc, *_layout(assign, c))

    cap = math.ceil(cap_ratio * n / c)
    assign = _repair_empties(xc, centroids, cap_assign(xc, centroids, cap))
    return clustering_from_assignments(x, assign, c)


def decompose(x: np.ndarray, clustering: Clustering) -> np.ndarray:
    """(n, d) residuals: each token minus its assigned centroid.

    Adding the assigned centroid back reconstructs the input to within one
    ulp per entry; it is exact wherever the subtraction incurred no rounding.
    """
    return x - np.take(clustering.centroids, clustering.assignments, axis=0)


def inertia(x: np.ndarray, clustering: Clustering) -> float:
    """Sum of squared distances from each token to its assigned centroid."""
    return float(np.sum(decompose(x, clustering).astype(np.float64) ** 2))
