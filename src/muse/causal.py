"""Hierarchical causal decomposition: one exact near field plus clustered
far-field blocks.

The lower-triangular attention matrix splits into aligned near-field blocks
and a binary tree of strictly-lower blocks whose spans double per level;
every (query, key) pair with key <= query is covered by exactly one block.
The near-field block size is the first span b * 2**l at which clustering
costs less than exact attention, so the plan lists only the levels that run
the clustered approximation. Each of their blocks, the far field, is merged
into the running result over its own query rows by logsumexp weighting.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .attention import AttentionResult, _check_qkv, attend_causal, merge_partials
# perfbench/tracing.py wraps muse.causal.attend, so the name stays importable here
from .attention import attend  # noqa: F401
from .multipole import MuseConfig, muse_acausal
from .numerics import derive_seed


def _is_pow2(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


@dataclass
class CausalPlan:
    """Block schedule for sequence length n with diagonal block size b.

    The near field is exact causal attention within aligned blocks of `near`
    rows, the first span b * 2**k that is at least min(min_span, n), so it
    is b when min_span <= b and n when no shorter span reaches min_span; for
    `muse_causal` it is the span that ran. levels[l] = (span, blocks) where
    span = near * 2**l and blocks is a list of ((q_start, q_stop),
    (k_start, k_stop)) pairs, disjoint in queries; every below-diagonal block
    is strictly lower (all keys precede all queries).
    """

    n: int
    b: int
    near: int
    levels: list = field(repr=False)

    def diagonal_blocks(self) -> list:
        return [(s0, s0 + self.near) for s0 in range(0, self.n, self.near)]

    def below_blocks(self):
        for level, (span, blocks) in enumerate(self.levels):
            for qr, kr in blocks:
                yield level, span, qr, kr

    @property
    def muse_query_rows(self) -> int:
        """Scheduled below-diagonal query rows; (n/2) * log2(n/near) by construction."""
        return sum(qr[1] - qr[0] for _, _, qr, _ in self.below_blocks())


def build_plan(n: int, b: int, min_span: int = 1) -> CausalPlan:
    """Near-field blocks [i*near, (i+1)*near), where near is the first span
    b * 2**k that is at least min(min_span, n); for each span S in
    {near, 2 near, ..., n/2} and each odd multiple m, queries [mS, (m+1)S)
    attend keys [(m-1)S, mS)."""
    if not _is_pow2(n) or not _is_pow2(b):
        raise ValueError(f"n and b must be powers of two, got n={n}, b={b}")
    if b > n:
        raise ValueError(f"block size {b} exceeds sequence length {n}")
    near = b
    while near < min(min_span, n):
        near *= 2
    levels = []
    span = near
    while span <= n // 2:
        blocks = []
        for m in range(1, n // span, 2):
            blocks.append(((m * span, (m + 1) * span), ((m - 1) * span, m * span)))
        levels.append((span, blocks))
        span *= 2
    return CausalPlan(n=n, b=b, near=near, levels=levels)


def causal_plan(n: int, b: int, config: MuseConfig) -> CausalPlan:
    """The plan `muse_causal` runs: a level is clustered only when its span
    reaches max(config.near_min, config.query_clusters, c_k); shorter levels
    join the exact near field, whose blocks are never shorter than b.

    near_min is the cost crossover: a clustered call has a fixed cost of
    about 1 ms per slice, so short blocks run faster, and more accurately,
    as exact attention. Its default, 2048, had the lowest median time of
    the spans 256-4096, or was within 4% of it, at d=16 and d=64 for C from
    16 to 64 and n of 8192 and 16384 (scripts/near_sweep.py). The cluster
    counts keep every clustered block at least as long as the clusters
    that run."""
    return build_plan(n, b, max(config.near_min, config.query_clusters, config.c_k))


def muse_causal(q, k, v, config: MuseConfig, b: int, threads: int = 1, block_fn=None):
    """Causal attention via the block plan `causal_plan(n, b, config)`.

    The diagonal blocks plus every level shorter than the crossover span
    (`config.near_min`, at least the cluster counts) run as one exact
    `attend_causal` call per near-field block of `plan.near` rows. Each
    far-field block clusters its own queries/keys from scratch, runs the
    acausal approximation and is merged into the running (y, mu) over its
    query rows, so one (batch, heads, n, d) output is all that is held.

    `block_fn(q, k, v) -> AttentionResult` overrides the far-field
    computation (the structural oracle swaps in exact attend).
    """
    q, k, v, _ = _check_qkv(q, k, v, None)
    if q.shape != k.shape:
        raise ValueError("causal attention requires identical q/k/v shapes")
    bsz, h, n, d = q.shape
    plan = causal_plan(n, b, config)
    scale = config.resolve_scale(d)

    y = np.empty((bsz, h, n, d), dtype=q.dtype)
    mu = np.empty((bsz, h, n), dtype=q.dtype)
    for s0, s1 in plan.diagonal_blocks():
        # one call per near-field block: the benchmark's tracer sums their rows to n
        r = attend_causal(q[:, :, s0:s1], k[:, :, s0:s1], v[:, :, s0:s1], scale=scale, threads=threads)
        y[:, :, s0:s1], mu[:, :, s0:s1] = r.y, r.mu

    for span, blocks in plan.levels:
        for bi, ((q0, q1), (k0, k1)) in enumerate(blocks):
            qb, kb, vb = q[:, :, q0:q1], k[:, :, k0:k1], v[:, :, k0:k1]
            if block_fn is not None:
                r = block_fn(qb, kb, vb)
            else:
                r = muse_acausal(qb, kb, vb, replace(config, seed=derive_seed(config.seed, 2, span, bi)),
                                 threads=threads)
            r = merge_partials([AttentionResult(y=y[:, :, q0:q1], mu=mu[:, :, q0:q1]), r])
            y[:, :, q0:q1], mu[:, :, q0:q1] = r.y, r.mu

    return AttentionResult(y=y, mu=mu)
