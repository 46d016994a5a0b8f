"""Exact softmax attention with per-key bias and logsumexp output, plus the
logsumexp-weighted merge that recombines attention partials.

The merge identity is what makes every decomposition in this package legal:
attention over any partition of the keys, merged by logsumexp weighting,
equals attention over all keys.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .numerics import bounded_rows, check_integer, check_real, check_tensor4, max_shift, sq_norms, stable_logsumexp
# perfbench/tracing.py wraps muse.attention.stable_softmax, so the name stays importable here
from .numerics import stable_softmax  # noqa: F401

# The kernel scores TILE query rows against KEY_TILE keys at a time. That
# block, 0.5 MB in f32 and so inside a 2 MB L2, is the only score storage
# alive, so a slice's peak is one block plus its rows and value copy. Rows:
# 128 and 256 ran level on the benchmark shapes, 512 slower; keys: 256 and
# 512 ran level, 1024 and 2048 slower.
TILE = 256
KEY_TILE = 512


@dataclass
class AttentionResult:
    """Output values plus per-query logsumexp of the (scaled, biased) scores.

    y: (batch, heads, n_q, d); mu: (batch, heads, n_q). A query with mu = -inf
    is non-participating: it carries zero weight in any merge.
    """

    y: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        if self.y.ndim != 4 or self.mu.ndim != 3 or self.y.shape[:3] != self.mu.shape:
            raise ValueError(f"inconsistent result shapes y={self.y.shape} mu={self.mu.shape}")


def _check_qk(q, k):
    q = check_tensor4(q, "q")
    k = check_tensor4(k, "k")
    if q.shape[:2] != k.shape[:2] or q.shape[3] != k.shape[3]:
        raise ValueError(f"q/k shape mismatch: {q.shape} vs {k.shape}")
    if k.shape[2] < 1:
        raise ValueError("need at least one key")
    if k.shape[3] < 1:
        raise ValueError("need d >= 1")
    return q, k


def _check_qkv(q, k, v, bias):
    q, k = _check_qk(q, k)
    v = check_tensor4(v, "v")
    if k.shape != v.shape:
        raise ValueError(f"k/v shape mismatch: {k.shape} vs {v.shape}")
    if bias is not None:
        bias = np.asarray(bias)
        if bias.shape != k.shape[:3]:
            raise ValueError(f"bias shape {bias.shape} != {k.shape[:3]}")
        if np.isnan(bias).any() or (bias == np.inf).any():
            raise ValueError("bias entries must be finite or -inf")
    return q, k, v, bias


def _map_slices(fn, n_slices: int, threads: int):
    check_integer(threads, "threads")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if threads == 1 or n_slices <= 1:
        for i in range(n_slices):
            fn(i)
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            list(ex.map(fn, range(n_slices)))


def _attend(q, k, v, bias, scale, threads, causal=False) -> AttentionResult:
    """The one exact kernel behind `attend` and `attend_causal`.

    Per (batch, head) slice it copies the values once into an (n_k, d + 1)
    array whose last column is ones, then walks query rows in tiles of TILE.
    A tile sees only the keys its rows can see (all keys, or the prefix
    [0, up) when causal) and takes them in chunks of KEY_TILE columns. A
    chunk's scores get the bias added in place and, when causal, -inf written
    where key j comes after row i; keys before the tile's first row are seen
    by all its rows, so the mask starts at column lo. It is a view of one
    TILE x TILE strict upper triangle, built once per causal call: a tile's
    keys from lo on end at its last row, within TILE of lo.

    A row that `bounded_rows` proves bounded, from the largest key and value
    norms over the keys it can see (for a causal row the prefix j <= i, so a
    later key never changes an earlier row), exponentiates its scores as they
    are: per chunk, product, exp in place, and one product with the extended
    values added into the tile's output, so each score is touched three times
    and chunks combine by plain addition. Calls with a bias bound no row. A
    tile holding any other row first takes the row max over its chunks, which
    `max_shift` checks and turns into the shift (0 on bounded rows, which
    leaves them bit for bit as in a tile of bounded rows) subtracted before
    exp. The last column of the output is then each row's sum of exps (>= 1
    on shifted rows, since the max contributes exp(0); >= exp(-L) on bounded
    ones), so y = out[:, :d] / out[:, d] and mu = shift + log(out[:, d]):
    normalising costs d divisions per row, not n_k. Rows are independent, so neither the tiling
    nor the chunking changes a row's result beyond matmul reassociation. One
    TILE x KEY_TILE score block is alive at a time (the max pass recomputes
    the chunks rather than keep them), so a slice's peak is that block plus
    its rows and the value copy.
    """
    if scale is None:
        scale = 1.0 / math.sqrt(q.shape[3])
    check_real(scale, "scale")
    if not 0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
    b, h, n_q, d = q.shape
    n_k = k.shape[2]
    y = np.empty((b, h, n_q, d), dtype=q.dtype)
    mu = np.empty((b, h, n_q), dtype=q.dtype)
    # later[r, c]: column lo + c comes after row lo + r, for every tile's lo
    later = np.arange(TILE) > np.arange(TILE)[:, None] if causal else None

    def run(i):
        bi, hi = divmod(i, h)
        qs = q[bi, hi] * np.asarray(scale, dtype=q.dtype)
        ks = k[bi, hi]
        v1 = np.ones((n_k, d + 1), dtype=q.dtype)
        v1[:, :d] = v[bi, hi]
        if bias is None:
            kv_sq = np.stack((sq_norms(ks), sq_norms(v[bi, hi])))
            kv_sq = np.maximum.accumulate(kv_sq, axis=1) if causal else kv_sq.max(axis=1)
            bs, bounded = None, bounded_rows(sq_norms(qs), *kv_sq, q.dtype)
        else:  # the norms do not bound a biased score
            bs, bounded = bias[bi, hi].astype(q.dtype), np.zeros(n_q, dtype=bool)

        def scores(lo, up, c0, c1):
            s = qs[lo:up] @ ks[c0:c1].T
            if bs is not None:
                s += bs[c0:c1]
            if causal and lo < c1:  # every row of the tile sees the keys before lo
                m0 = max(c0, lo)
                np.copyto(s[:, m0 - c0:], -np.inf, where=later[:up - lo, m0 - lo:c1 - lo])
            return s

        for lo in range(0, n_q, TILE):
            up = min(lo + TILE, n_q)
            k1 = up if causal else n_k
            chunks = [(c0, min(c0 + KEY_TILE, k1)) for c0 in range(0, k1, KEY_TILE)]
            shift = max_shift(bounded[lo:up],
                              lambda: np.max([np.max(scores(lo, up, *c), axis=1) for c in chunks], axis=0))
            out = np.zeros((up - lo, d + 1), dtype=q.dtype)
            for c0, c1 in chunks:
                s = scores(lo, up, c0, c1)
                if shift is not None:
                    s -= shift[:, None]
                np.exp(s, out=s)
                out += s @ v1[c0:c1]
                del s  # else the next block is allocated while this one is still held
            np.divide(out[:, :d], out[:, d:], out=y[bi, hi, lo:up])
            np.log(out[:, d], out=mu[bi, hi, lo:up])
            if shift is not None:
                mu[bi, hi, lo:up] += shift

    _map_slices(run, b * h, threads)
    return AttentionResult(y=y, mu=mu)


def attend(q, k, v, bias=None, scale: float | None = None, threads: int = 1) -> AttentionResult:
    """Softmax attention: S = scale * (q @ k^T) + bias, broadcast over queries.

    bias is per key, shape (batch, heads, n_k); -inf entries mask keys out.
    scale defaults to 1/sqrt(d) and multiplies scores only, never the inputs.
    """
    return _attend(*_check_qkv(q, k, v, bias), scale, threads)


def attend_causal(q, k, v, scale: float | None = None, threads: int = 1) -> AttentionResult:
    """Causal attention: key j contributes to query i only if j <= i."""
    q, k, v, _ = _check_qkv(q, k, v, None)
    if q.shape[2] != k.shape[2]:
        raise ValueError(f"causal attention needs n_q == n_k, got {q.shape[2]} queries and {k.shape[2]} keys")
    return _attend(q, k, v, None, scale, threads, causal=True)


def merge_partials(parts: list[AttentionResult]) -> AttentionResult:
    """Merge attention partials by logsumexp weighting.

    mu_T = logsumexp_i(mu_i) and y_T = sum_i exp(mu_i - mu_T) * y_i, computed
    in the shifted form. Every query must be covered by at least one part
    (mu > -inf somewhere); otherwise "uncovered query" is raised.
    """
    if not parts:
        raise ValueError("empty merge")
    shape = parts[0].mu.shape
    for p in parts:
        if p.mu.shape != shape:
            raise ValueError("merge parts disagree on query shape")
        if p.y.shape != parts[0].y.shape:
            raise ValueError("merge parts disagree on output shape")
        if not np.isfinite(p.y).all():
            raise ValueError("non-finite y in merge part")
    mus = np.stack([p.mu for p in parts])
    mu_t = stable_logsumexp(mus, axis=0)
    if not np.isfinite(mu_t).all():
        raise ValueError("uncovered query")
    y_t = np.zeros_like(parts[0].y)
    for p in parts:
        w = np.exp(p.mu - mu_t)
        y_t += w[..., None] * p.y
    return AttentionResult(y=y_t.astype(parts[0].y.dtype, copy=False), mu=mu_t.astype(parts[0].mu.dtype, copy=False))
