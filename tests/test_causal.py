import tracemalloc

import numpy as np
import pytest

from muse import MuseConfig, attend, attend_causal, build_plan, causal_plan, muse_causal, rel_sq_error
from muse.causal import CausalPlan

from oracles import causal_pair_counts, naive_attend_causal


def make_qkv(seed, n, d=8, b=1, h=1, dtype=np.float64):
    rng = np.random.default_rng(seed)
    shape = (b, h, n, d)
    return (rng.normal(size=shape).astype(dtype),
            rng.normal(size=shape).astype(dtype),
            rng.normal(size=shape).astype(dtype))


def plan_blocks(plan: CausalPlan):
    blocks = [(s0, s1, s0, s1, True) for s0, s1 in plan.diagonal_blocks()]
    for _, _, (q0, q1), (k0, k1) in plan.below_blocks():
        blocks.append((q0, q1, k0, k1, False))
    return blocks


def test_build_plan_rejects_bad_sizes():
    with pytest.raises(ValueError, match="powers of two"):
        build_plan(96, 16)
    with pytest.raises(ValueError, match="powers of two"):
        build_plan(128, 24)
    with pytest.raises(ValueError, match="exceeds sequence length"):
        build_plan(64, 128)
    with pytest.raises(ValueError, match="b must be an integer"):
        build_plan(64, 2.0)
    with pytest.raises(ValueError, match="n must be an integer"):
        build_plan(64.0, 2)


@pytest.mark.parametrize("n,b", [(16, 4), (64, 8), (128, 16), (256, 32), (512, 64), (64, 64)])
def test_plan_covers_every_causal_pair_exactly_once(n, b):
    lower = np.tril(np.ones((n, n), dtype=np.int64))
    # min_span = 1 keeps every level; 3b and 4b move the near field past b
    # (3b is not a power of two); n and 2n leave no level to cluster
    for min_span in (1, 3 * b, 4 * b, n, 2 * n):
        plan = build_plan(n, b, min_span)
        counts = causal_pair_counts(n, plan_blocks(plan))
        assert np.array_equal(counts, lower), min_span
        assert all(span >= min_span for span, _ in plan.levels), min_span
        assert plan.near == (n if not plan.levels else plan.levels[0][0]) and plan.b == b
        assert plan.muse_query_rows == (n // 2) * len(plan.levels)


@pytest.mark.parametrize("n,b", [(64, 8), (256, 16), (1024, 128)])
def test_plan_row_count_formula(n, b):
    plan = build_plan(n, b)
    assert plan.muse_query_rows == (n // 2) * int(np.log2(n // b))


def test_plan_below_blocks_are_strictly_lower():
    plan = build_plan(256, 16)
    for _, span, (q0, q1), (k0, k1) in plan.below_blocks():
        assert q1 - q0 == span and k1 - k0 == span
        assert k1 == q0, "keys must immediately precede the queries"


def test_plan_degenerate_single_block():
    plan = build_plan(32, 32)
    assert plan.levels == []
    assert plan.muse_query_rows == 0


def test_structural_merge_with_exact_blocks():
    # swapping exact attention into every below-diagonal block must
    # reproduce exact causal attention up to merge roundoff
    q, k, v = make_qkv(0, n=128, d=6, b=2, h=2)
    cfg = MuseConfig(c_q=4, c_k=4, seed=0, near_min=1)
    assert causal_plan(128, 16, cfg).muse_query_rows > 0
    out = muse_causal(q, k, v, cfg, b=16, block_fn=lambda qb, kb, vb: attend(qb, kb, vb))
    ref = attend_causal(q, k, v)
    assert rel_sq_error(ref, out) <= 1e-20
    np.testing.assert_allclose(out.mu, ref.mu, atol=1e-12)


def test_block_fn_sees_strictly_lower_slices():
    q, k, v = make_qkv(1, n=64, d=4)
    seen = []

    def spy(qb, kb, vb):
        seen.append((qb.shape[2], kb.shape[2]))
        return attend(qb, kb, vb)

    cfg = MuseConfig(c_q=4, c_k=4, seed=0, near_min=1)
    assert causal_plan(64, 8, cfg).muse_query_rows > 0
    muse_causal(q, k, v, cfg, b=8, block_fn=spy)
    spans = sorted(s for s, _ in seen)
    assert spans == sorted([8, 8, 8, 8, 16, 16, 32])
    assert all(qn == kn for qn, kn in seen)


def test_n_equals_b_is_exact_causal():
    q, k, v = make_qkv(2, n=64, d=6)
    cfg = MuseConfig(c_q=8, c_k=8, seed=0)
    out = muse_causal(q, k, v, cfg, b=64)
    ref = attend_causal(q, k, v)
    assert np.array_equal(out.y, ref.y) and np.array_equal(out.mu, ref.mu)
    plan = build_plan(64, 64, 8)
    assert plan.muse_query_rows == 0 and plan.diagonal_blocks() == [(0, 64)]


def test_near_field_absorbs_spans_below_cluster_counts():
    # C = 32 > b = 8: spans 8 and 16 join the diagonal, so the near field is
    # exact causal attention within aligned blocks of 32 rows
    q, k, v = make_qkv(3, n=256, d=6)
    cfg = MuseConfig(c_q=32, c_k=32, kmeans_iters=1, seed=0, near_min=1)
    assert causal_plan(256, 8, cfg).muse_query_rows > 0
    out = muse_causal(q, k, v, cfg, b=8)
    first = attend_causal(q[:, :, :32], k[:, :, :32], v[:, :, :32])
    assert np.array_equal(out.y[:, :, :32], first.y) and np.array_equal(out.mu[:, :, :32], first.mu)
    plan = build_plan(256, 8, 32)
    full = build_plan(256, 8)
    clustered = sum(q1 - q0 for _, span, (q0, q1), _ in full.below_blocks() if span >= 32)
    assert plan.near == 32 and plan.b == 8 and len(plan.diagonal_blocks()) == 8
    assert plan.muse_query_rows == clustered == 128 * 3 and len(plan.levels) == 3
    assert rel_sq_error(attend_causal(q, k, v), out) < 0.2
    # no span reaches C: the near field is capped at n and the call is exact causal attention
    out = muse_causal(q, k, v, MuseConfig(c_q=256, c_k=256, seed=0, near_min=1), b=8)
    ref = attend_causal(q, k, v)
    assert np.array_equal(out.y, ref.y) and np.array_equal(out.mu, ref.mu)
    plan = build_plan(256, 8, 256)
    assert plan.muse_query_rows == 0 and plan.levels == [] and plan.near == 256
    with pytest.raises(ValueError, match=r"powers of two, got n=256, b=24"):
        muse_causal(q, k, v, cfg, b=24)


def test_near_min_sizes_the_near_field():
    # the benchmark's causal shape: levels shorter than 2048 rows run exact
    plan = causal_plan(8192, 256, MuseConfig(c_q=32, c_k=32))
    assert plan.near == 2048 and plan.b == 256 and len(plan.diagonal_blocks()) == 4
    assert [(span, len(blocks)) for span, blocks in plan.levels] == [(2048, 2), (4096, 1)]
    assert plan.muse_query_rows == 8192
    # the first span b * 2**k reaching max(near_min, c_q, c_k); b is the floor
    for near_min, c, want in ((3000, 32, 4096), (64, 512, 512), (1, 1, 256), (1 << 20, 32, 8192)):
        assert causal_plan(8192, 256, MuseConfig(c_q=c, c_k=c, near_min=near_min)).near == want
    # no level reaches the default near_min: the call is exact causal attention
    q, k, v = make_qkv(10, n=1024)
    out = muse_causal(q, k, v, MuseConfig(c_q=8, c_k=8, seed=0), b=64)
    ref = attend_causal(q, k, v)
    assert np.array_equal(out.y, ref.y) and np.array_equal(out.mu, ref.mu)


def test_causal_peak_memory_holds_one_running_result():
    # one part is an (n, d) f32 output plus its (n,) logsumexp, about 0.56 MB;
    # holding one part per plan level for a final merge peaks near 11 parts
    n, d = 8192, 16
    q, k, v = make_qkv(9, n=n, d=d, dtype=np.float32)
    cfg = MuseConfig(c_q=16, c_k=16, seed=0)
    tracemalloc.start()
    try:
        muse_causal(q, k, v, cfg, b=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    part = n * (d + 1) * 4
    assert peak < 8 * part, f"peak {peak / 1e6:.2f} MB = {peak / part:.1f} parts"


def test_matches_naive_causal_oracle_with_exact_blocks():
    q, k, v = make_qkv(4, n=32, d=4)
    cfg = MuseConfig(c_q=2, c_k=2, seed=0, near_min=1)
    assert causal_plan(32, 8, cfg).muse_query_rows > 0
    out = muse_causal(q, k, v, cfg, b=8, block_fn=lambda qb, kb, vb: attend(qb, kb, vb))
    y, mu = naive_attend_causal(q, k, v, scale=0.5)
    np.testing.assert_allclose(out.y, y, atol=1e-12)
    np.testing.assert_allclose(out.mu, mu, atol=1e-12)


def test_first_tokens_match_exact_regardless_of_approximation():
    # tokens inside the first diagonal block never touch an approximate block
    q, k, v = make_qkv(5, n=512, d=8)
    cfg = MuseConfig(c_q=16, c_k=16, kmeans_iters=2, seed=0, near_min=1)
    assert causal_plan(512, 64, cfg).muse_query_rows > 0
    out = muse_causal(q, k, v, cfg, b=64)
    ref = attend_causal(q, k, v)
    np.testing.assert_allclose(out.y[:, :, :64], ref.y[:, :, :64], atol=1e-12)
    np.testing.assert_allclose(out.mu[:, :, :64], ref.mu[:, :, :64], atol=1e-12)


def strict_causality_outputs(n=512, b=64, t=200, mode="single"):
    cfg = MuseConfig(c_q=16, c_k=16, kmeans_iters=2, seed=0, near_min=1)
    assert causal_plan(n, b, cfg).muse_query_rows > 0
    q, k, v = make_qkv(6, n=n, d=8)
    base = muse_causal(q, k, v, cfg, b=b)
    k2, v2 = k.copy(), v.copy()
    if mode == "single":
        k2[:, :, t] += 3.0
        v2[:, :, t] -= 2.0
    else:
        k2[:, :, t:] += 1.0
        v2[:, :, t:] *= -1.0
    pert = muse_causal(q, k2, v2, cfg, b=b)
    return base, pert


@pytest.mark.parametrize("mode", ["single", "suffix"])
def test_strict_causality_bitwise(mode):
    t = 200
    base, pert = strict_causality_outputs(t=t, mode=mode)
    assert np.array_equal(base.y[:, :, :t], pert.y[:, :, :t])
    assert np.array_equal(base.mu[:, :, :t], pert.mu[:, :, :t])
    assert not np.array_equal(base.y[:, :, t:], pert.y[:, :, t:])


def test_causal_error_close_to_acausal_error():
    from muse import WorkloadSpec, generate, muse_acausal

    spec = WorkloadSpec(kind="gaussian_mixture", n=2048, d=16, c_true=16,
                        spread=0.3, seed=0)
    q, k, v = generate(spec)
    cfg = MuseConfig(c_q=32, c_k=32, kmeans_iters=2, seed=0, near_min=1)
    assert causal_plan(2048, 256, cfg).muse_query_rows > 0
    causal_err = rel_sq_error(attend_causal(q, k, v), muse_causal(q, k, v, cfg, b=256))
    acausal_err = rel_sq_error(attend(q, k, v), muse_acausal(q, k, v, cfg))
    assert causal_err <= 2.0 * acausal_err


def test_shape_validation():
    q, k, v = make_qkv(7, n=32, d=4)
    with pytest.raises(ValueError, match="identical"):
        muse_causal(q, k[:, :, :16], v[:, :, :16], MuseConfig(c_q=2, c_k=2, seed=0), b=8)
    with pytest.raises(ValueError, match="b must be an integer"):
        muse_causal(q, k, v, MuseConfig(c_q=2, c_k=2, seed=0), b=2.0)
    q, k, v = make_qkv(7, n=32, d=0)
    with pytest.raises(ValueError, match="need d >= 1"):
        muse_causal(q, k, v, MuseConfig(c_q=2, c_k=2, seed=0), b=8)


def test_threads_bit_identical():
    q, k, v = make_qkv(8, n=128, d=4, b=2, h=2)
    cfg = MuseConfig(c_q=8, c_k=8, seed=0, near_min=1)
    assert causal_plan(128, 16, cfg).muse_query_rows > 0
    a = muse_causal(q, k, v, cfg, b=16, threads=1)
    b_ = muse_causal(q, k, v, cfg, b=16, threads=4)
    assert np.array_equal(a.y, b_.y) and np.array_equal(a.mu, b_.mu)
