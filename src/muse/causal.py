"""Hierarchical causal decomposition: one exact near field plus clustered
far-field blocks.

The lower-triangular attention matrix splits into diagonal blocks of size b
and a binary tree of strictly-lower blocks whose spans double per level;
every (query, key) pair with key <= query is covered by exactly one block.
The diagonal blocks plus every level with span below S cover exactly the
causal pairs inside aligned blocks of S rows, so they run as one exact near
field. S is the first span that can be clustered (at least max(c_q, c_k)).
Each block of the remaining levels, the far field, runs the clustered
approximation and is merged into the running result over its own query rows
by logsumexp weighting.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .attention import AttentionResult, attend_causal, merge_partials
# perfbench/tracing.py wraps muse.causal.attend, so the name stays importable here
from .attention import attend  # noqa: F401
from .multipole import MuseConfig, muse_acausal
from .numerics import check_tensor4, derive_seed


def _is_pow2(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


@dataclass
class CausalPlan:
    """Block schedule for sequence length n with diagonal block size b.

    levels[l] = (span, blocks) where span = b * 2**l and blocks is a list of
    ((q_start, q_stop), (k_start, k_stop)) pairs, disjoint in queries; every
    below-diagonal block is strictly lower (all keys precede all queries).
    """

    n: int
    b: int
    levels: list = field(repr=False)

    def diagonal_blocks(self) -> list:
        return [(i * self.b, (i + 1) * self.b) for i in range(self.n // self.b)]

    def below_blocks(self):
        for level, (span, blocks) in enumerate(self.levels):
            for qr, kr in blocks:
                yield level, span, qr, kr

    @property
    def muse_query_rows(self) -> int:
        """Scheduled below-diagonal query rows; (n/2) * log2(n/b) by construction."""
        return sum(qr[1] - qr[0] for _, _, qr, _ in self.below_blocks())


def build_plan(n: int, b: int) -> CausalPlan:
    """Diagonal blocks [ib, (i+1)b); for each span S in {b, 2b, ..., n/2} and
    each odd multiple m, queries [mS, (m+1)S) attend keys [(m-1)S, mS)."""
    if not _is_pow2(n) or not _is_pow2(b):
        raise ValueError(f"n and b must be powers of two, got n={n}, b={b}")
    if b > n:
        raise ValueError(f"block size {b} exceeds sequence length {n}")
    levels = []
    span = b
    while span <= n // 2:
        blocks = []
        for m in range(1, n // span, 2):
            blocks.append(((m * span, (m + 1) * span), ((m - 1) * span, m * span)))
        levels.append((span, blocks))
        span *= 2
    return CausalPlan(n=n, b=b, levels=levels)


@dataclass
class CausalRunStats:
    muse_rows: int = 0  # query rows handled by the clustered approximation (far field)
    exact_rows: int = 0  # query rows handled by exact causal attention (near field)
    levels: int = 0  # plan levels run clustered


def muse_causal(
    q,
    k,
    v,
    config: MuseConfig,
    b: int,
    threads: int = 1,
    block_fn=None,
    return_stats: bool = False,
):
    """Causal attention via the block plan.

    The near field is exact causal attention within aligned blocks of S rows:
    S is the smallest plan span b * 2**l that is at least max(c_q, c_k),
    capped at n. Each far-field block (span >= S) clusters its own
    queries/keys from scratch, runs the acausal approximation and is merged
    into the running (y, mu) over its query rows, so one (batch, heads, n, d)
    output is all that is held.

    `block_fn(q, k, v) -> AttentionResult` overrides the far-field
    computation (the structural oracle swaps in exact attend).
    """
    q = check_tensor4(q, "q")
    k = check_tensor4(k, "k")
    v = check_tensor4(v, "v")
    if q.shape != k.shape or k.shape != v.shape:
        raise ValueError("causal attention requires identical q/k/v shapes")
    bsz, h, n, d = q.shape
    plan = build_plan(n, b)
    scale = config.resolve_scale(d)
    far = [(span, blocks) for span, blocks in plan.levels if span >= max(config.c_q, config.c_k)]
    near = far[0][0] if far else n
    stats = CausalRunStats(muse_rows=n // 2 * len(far), exact_rows=n, levels=len(far))

    y = np.empty((bsz, h, n, d), dtype=q.dtype)
    mu = np.empty((bsz, h, n), dtype=q.dtype)
    for s0 in range(0, n, near):
        # one call per near-field block: the benchmark's tracer sums their rows to n
        s = slice(s0, s0 + near)
        r = attend_causal(q[:, :, s], k[:, :, s], v[:, :, s], scale=scale, threads=threads)
        y[:, :, s], mu[:, :, s] = r.y, r.mu

    for span, blocks in far:
        for bi, ((q0, q1), (k0, k1)) in enumerate(blocks):
            qb, kb, vb = q[:, :, q0:q1], k[:, :, k0:k1], v[:, :, k0:k1]
            if block_fn is not None:
                r = block_fn(qb, kb, vb)
            else:
                r = muse_acausal(qb, kb, vb, replace(config, seed=derive_seed(config.seed, 2, span, bi)),
                                 threads=threads)
            r = merge_partials([AttentionResult(y=y[:, :, q0:q1], mu=mu[:, :, q0:q1]), r])
            y[:, :, q0:q1], mu[:, :, q0:q1] = r.y, r.mu

    result = AttentionResult(y=y, mu=mu)
    return (result, stats) if return_stats else result
