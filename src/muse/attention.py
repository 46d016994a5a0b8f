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

from .numerics import check_integer, check_tensor4, shifted_exp_inplace, stable_logsumexp
# perfbench/tracing.py wraps muse.attention.stable_softmax, so the name stays importable here
from .numerics import stable_softmax  # noqa: F401

TILE = 256  # query rows per kernel tile; 128 and 256 run level on the benchmark shapes, 512 slower


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
    if threads <= 1 or n_slices <= 1:
        for i in range(n_slices):
            fn(i)
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            list(ex.map(fn, range(n_slices)))


def _attend(q, k, v, bias, scale, threads, window=None) -> AttentionResult:
    """The one exact kernel behind `attend`, `attend_causal` and `attend_sliding`.

    Per (batch, head) slice it copies the values once into an (n_k, d + 1)
    array whose last column is ones, then walks query rows in tiles of TILE.
    A tile computes scores only over the keys its rows can see (all keys, or
    [lo - window + 1, up) when windowed), adds the bias in place, writes -inf
    where key j is outside row i's window (i - window < j <= i), and replaces
    the scores by exp(s - max) in place. One product with the extended values
    then gives the unnormalised output and, in its last column, the row sums
    of the exps (>= 1, since the max contributes exp(0)), so y = out[:, :d] /
    out[:, d] and mu = max + log(out[:, d]): the score tile is touched five
    times (product, max, subtract, exp, product), and normalising costs d
    divisions per row, not n_k. Rows are independent, so the tiling does not
    change any row's result beyond matmul reassociation. One score tile is
    alive at a time, so a slice's peak is one TILE x n_k tile plus its rows.
    """
    if scale is None:
        scale = 1.0 / math.sqrt(q.shape[3])
    if not 0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
    b, h, n_q, d = q.shape
    n_k = k.shape[2]
    if window is not None and n_q != n_k:
        raise ValueError("masked variants require aligned positions (n_q == n_k)")
    y = np.empty((b, h, n_q, d), dtype=q.dtype)
    mu = np.empty((b, h, n_q), dtype=q.dtype)

    def run(i):
        bi, hi = divmod(i, h)
        qs = q[bi, hi] * np.asarray(scale, dtype=q.dtype)
        ks = k[bi, hi]
        v1 = np.ones((n_k, d + 1), dtype=q.dtype)
        v1[:, :d] = v[bi, hi]
        bs = None if bias is None else bias[bi, hi].astype(q.dtype)
        for lo in range(0, n_q, TILE):
            up = min(lo + TILE, n_q)
            k0, k1 = (0, n_k) if window is None else (max(0, lo - window + 1), up)
            s = qs[lo:up] @ ks[k0:k1].T
            if bs is not None:
                s += bs[k0:k1]
            if window is not None:
                # rows [lo, up) all see keys [up - window, lo], so the mask covers the
                # columns from lo on, and from k0 on only if k0 < up - window
                c0 = lo if up - window <= k0 else k0
                rows = np.arange(lo, up)[:, None]
                cols = np.arange(c0, k1)
                np.copyto(s[:, c0 - k0:], -np.inf, where=(cols > rows) | (cols <= rows - window))
            top = shifted_exp_inplace(s)
            out = s @ v1[k0:k1]
            np.divide(out[:, :d], out[:, d:], out=y[bi, hi, lo:up])
            np.log(out[:, d], out=mu[bi, hi, lo:up])
            mu[bi, hi, lo:up] += top[:, 0]
            del s, out  # else the next tile is allocated while this one is still held

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
    return _attend(q, k, v, None, scale, threads, window=q.shape[2])


def attend_sliding(q, k, v, window: int, scale: float | None = None, threads: int = 1) -> AttentionResult:
    """Sliding-window attention: key j contributes to query i iff i - window < j <= i."""
    check_integer(window, "window")
    if window < 1:
        raise ValueError("window must be >= 1")
    q, k, v, _ = _check_qkv(q, k, v, None)
    return _attend(q, k, v, None, scale, threads, window=window)


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
