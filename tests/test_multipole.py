import math
import tracemalloc

import numpy as np
import pytest

import muse.clustering
import muse.multipole
from muse import ABLATIONS, MuseConfig, attend, cluster_tokens, muse_acausal, rel_sq_error
from muse.attention import AttentionResult
from muse.multipole import MuseClusters, aggregate_dipoles, final_stage, stage1
from muse.numerics import stable_softmax

from oracles import naive_muse_slice, two_point_summary


def make_qkv(seed, b=1, h=1, n=32, d=6, dtype=np.float64):
    rng = np.random.default_rng(seed)
    shape = (b, h, n, d)
    return (rng.normal(size=shape).astype(dtype),
            rng.normal(size=shape).astype(dtype),
            rng.normal(size=shape).astype(dtype))


def fixed_clusters(seed, n, c_q, c_k, b=1, h=1):
    rng = np.random.default_rng(seed)
    qa = np.stack([np.concatenate([np.arange(c_q), rng.integers(0, c_q, size=n - c_q)])
                   for _ in range(b * h)]).reshape(b, h, n)
    ka = np.stack([np.concatenate([np.arange(c_k), rng.integers(0, c_k, size=n - c_k)])
                   for _ in range(b * h)]).reshape(b, h, n)
    return MuseClusters(q_assign=qa, k_assign=ka)


def joint(keys, vals):
    """stage1's input: one (U_j, 2d) block per key cluster, keys then values."""
    return [np.concatenate((kc, vc), axis=1) for kc, vc in zip(keys, vals, strict=True)]


def test_stage1_two_point_closed_form():
    rng = np.random.default_rng(0)
    d = 4
    qbar = rng.normal(size=(1, d))
    k1, k2 = rng.normal(size=d), rng.normal(size=d)
    v1, v2 = rng.normal(size=d), rng.normal(size=d)
    out = stage1(qbar, joint([np.stack([k1, k2])], [np.stack([v1, v2])]))
    kbar, vbar, mu = two_point_summary(qbar[0], k1, k2, v1, v2)
    np.testing.assert_allclose(out.kbar[0, 0], kbar, atol=1e-12)
    np.testing.assert_allclose(out.vbar[0, 0], vbar, atol=1e-12)
    assert out.mu[0, 0] == pytest.approx(mu, abs=1e-12)


def test_stage1_singleton_clusters_passthrough():
    rng = np.random.default_rng(1)
    d = 5
    qbar = rng.normal(size=(3, d))
    keys = [rng.normal(size=(1, d)) for _ in range(4)]
    vals = [rng.normal(size=(1, d)) for _ in range(4)]
    out = stage1(qbar, joint(keys, vals))
    for j in range(4):
        for i in range(3):
            np.testing.assert_allclose(out.kbar[i, j], keys[j][0], atol=1e-15)
            np.testing.assert_allclose(out.vbar[i, j], vals[j][0], atol=1e-15)
            assert out.mu[i, j] == pytest.approx(float(qbar[i] @ keys[j][0]), abs=1e-12)
        np.testing.assert_allclose(out.cov_vk[j], 0.0, atol=1e-15)


def test_stage1_covariance_matches_loops():
    rng = np.random.default_rng(2)
    d = 4
    kc = rng.normal(size=(7, d))
    vc = rng.normal(size=(7, d))
    out = stage1(rng.normal(size=(1, d)), joint([kc], [vc]))
    dk = kc - kc.mean(axis=0)
    dv = vc - vc.mean(axis=0)
    want = sum(np.outer(dv[u], dk[u]) for u in range(7)) / 7
    np.testing.assert_allclose(out.cov_vk[0], want, atol=1e-13)


def test_stage1_empty_cluster_rejected():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match="empty key cluster"):
        stage1(rng.normal(size=(1, 3)), [np.zeros((0, 6))])


def test_stage1_rejects_blocks_not_twice_the_query_width():
    # a key-only block, or a 4-wide block for 4-wide centroids, has no value columns
    rng = np.random.default_rng(4)
    qbar = rng.normal(size=(2, 4))
    with pytest.raises(ValueError, match=r"2 \* d = 8 wide .* got widths \[4\]"):
        stage1(qbar, [rng.normal(size=(3, 4)), rng.normal(size=(2, 4))])
    with pytest.raises(ValueError, match=r"2 \* d = 8 wide .* got widths \[8, 9\]"):
        stage1(qbar, [rng.normal(size=(3, 8)), rng.normal(size=(2, 9))])


def test_stage1_peak_memory_holds_one_score_layout():
    # c_q = c_k = 64, U_max = 24, d = 16, f32: stage 1 peaked at 1.135 MB before its
    # scores moved to a (c_k, U, c_q) layout; a copy of the (64, 24, 64) probabilities
    # for the kbar/vbar products, or keeping them alive past those products, raises
    # the peak to about 1.50 MB
    rng = np.random.default_rng(33)
    sizes = np.concatenate([[24], rng.integers(8, 25, size=63)])
    keys = [rng.normal(size=(u, 16)).astype(np.float32) for u in sizes]
    values = [rng.normal(size=(u, 16)).astype(np.float32) for u in sizes]
    qbar = (0.25 * rng.normal(size=(64, 16))).astype(np.float32)
    blocks = joint(keys, values)
    tracemalloc.start()
    try:
        stage1(qbar, blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 1.135e6, f"peak {peak / 1e6:.3f} MB"


def test_aggregate_dipoles_is_softmax_mixture():
    rng = np.random.default_rng(4)
    c_q, c_k, d = 3, 5, 4
    keys = [rng.normal(size=(int(rng.integers(2, 6)), d)) for _ in range(c_k)]
    vals = [rng.normal(size=(k.shape[0], d)) for k in keys]
    summaries = stage1(rng.normal(size=(c_q, d)), joint(keys, vals))
    agg = aggregate_dipoles(summaries)
    w = stable_softmax(summaries.mu, axis=-1)
    for i in range(c_q):
        want = sum(w[i, j] * summaries.cov_vk[j] for j in range(c_k))
        np.testing.assert_allclose(agg[i], want, atol=1e-13)


def test_final_stage_zero_residual_is_summary_merge():
    rng = np.random.default_rng(5)
    d, c_k = 4, 5
    keys = [rng.normal(size=(int(rng.integers(2, 5)), d)) for _ in range(c_k)]
    vals = [rng.normal(size=(k.shape[0], d)) for k in keys]
    summaries = stage1(rng.normal(size=(1, d)), joint(keys, vals))
    w = stable_softmax(summaries.mu[0], axis=-1)
    want = w @ summaries.vbar[0]
    # a zero residual meets no dipole term, so leaving the dipoles out changes nothing
    for dipoles in (aggregate_dipoles(summaries), None):
        y_rows, _ = final_stage([np.zeros((3, d))], summaries, dipoles)
        for u in range(3):
            np.testing.assert_allclose(y_rows[u], want, atol=1e-13)


@pytest.mark.parametrize("ablation, calls", [("full", 4), ("no_dipole", 0), ("no_monopole", 0)])
def test_muse_aggregates_dipoles_only_for_full(monkeypatch, ablation, calls):
    seen = []

    def counting(summaries):
        seen.append(summaries)
        return aggregate_dipoles(summaries)

    monkeypatch.setattr(muse.multipole, "aggregate_dipoles", counting)
    q, k, v = make_qkv(12, b=2, h=2, n=24, d=4)
    muse_acausal(q, k, v, MuseConfig(c_q=3, c_k=4, ablation=ablation, seed=0))
    assert len(seen) == calls  # once per (batch, head) slice under full


@pytest.mark.parametrize("run", [*ABLATIONS, "single_query_cluster"])
def test_muse_matches_naive_restatement(run):
    # single_query_cluster, the key-only comparison of ablation_run, is full with c_q=1
    ablation, c_q = ("full", 1) if run == "single_query_cluster" else (run, 5)
    q, k, v = make_qkv(7, n=40, d=6)
    clusters = fixed_clusters(8, 40, c_q, 7)
    cfg = MuseConfig(c_q=c_q, c_k=7, ablation=ablation, seed=0)
    out = muse_acausal(q, k, v, cfg, clusters=clusters)
    y, mu = naive_muse_slice(q[0, 0], k[0, 0], v[0, 0],
                             clusters.q_assign[0, 0], clusters.k_assign[0, 0],
                             c_q, 7, scale=1 / np.sqrt(6), ablation=ablation)
    np.testing.assert_allclose(out.y[0, 0], y, atol=1e-12)
    np.testing.assert_allclose(out.mu[0, 0], mu, atol=1e-12)


def test_muse_naive_agreement_multi_slice():
    q, k, v = make_qkv(9, b=2, h=2, n=24, d=4)
    clusters = fixed_clusters(10, 24, 3, 4, b=2, h=2)
    cfg = MuseConfig(c_q=3, c_k=4, seed=0)
    out = muse_acausal(q, k, v, cfg, clusters=clusters)
    for bi in range(2):
        for hi in range(2):
            y, mu = naive_muse_slice(q[bi, hi], k[bi, hi], v[bi, hi],
                                     clusters.q_assign[bi, hi], clusters.k_assign[bi, hi],
                                     3, 4, scale=0.5)
            np.testing.assert_allclose(out.y[bi, hi], y, atol=1e-12)
            np.testing.assert_allclose(out.mu[bi, hi], mu, atol=1e-12)


def test_exactness_every_token_its_own_cluster():
    for seed in range(5):
        q, k, v = make_qkv(seed, n=24, d=5)
        full = attend(q, k, v)
        cfg = MuseConfig(c_q=24, c_k=24, kmeans_iters=2, seed=seed)
        approx = muse_acausal(q, k, v, cfg)
        assert rel_sq_error(full, approx) <= 1e-10


def test_exactness_identical_queries_any_clustering():
    rng = np.random.default_rng(11)
    d = 5
    q_row = rng.normal(size=d)
    q = np.tile(q_row, (1, 1, 30, 1))
    k = rng.normal(size=(1, 1, 30, d))
    v = rng.normal(size=(1, 1, 30, d))
    full = attend(q, k, v)
    cfg = MuseConfig(c_q=1, c_k=6, kmeans_iters=2, seed=0)
    approx = muse_acausal(q, k, v, cfg)
    assert rel_sq_error(full, approx) <= 1e-10


def test_exactness_zero_query_residuals_frozen_groups():
    rng = np.random.default_rng(12)
    n, d, g = 24, 4, 4
    base = rng.normal(size=(g, d))
    q = np.tile(base, (n // g, 1))[None, None]
    k = rng.normal(size=(1, 1, n, d))
    v = rng.normal(size=(1, 1, n, d))
    clusters = MuseClusters(
        q_assign=np.tile(np.arange(g), n // g)[None, None],
        k_assign=(np.arange(n) % 6)[None, None],
    )
    full = attend(q, k, v)
    cfg = MuseConfig(c_q=g, c_k=6, seed=0)
    approx = muse_acausal(q, k, v, cfg, clusters=clusters)
    assert rel_sq_error(full, approx) <= 1e-10


def test_exactness_singleton_key_clusters():
    q, k, v = make_qkv(13, n=20, d=4)
    full = attend(q, k, v)
    cfg = MuseConfig(c_q=4, c_k=20, kmeans_iters=2, seed=3)
    approx = muse_acausal(q, k, v, cfg)
    assert rel_sq_error(full, approx) <= 1e-10


def test_exactness_identical_keys_one_cluster_per_key():
    # all keys coincide, so every distance ties: k-means must still leave no key cluster empty
    rng = np.random.default_rng(14)
    q = rng.normal(size=(1, 1, 32, 4))
    k = np.tile(rng.normal(size=4), (1, 1, 32, 1))
    v = rng.normal(size=(1, 1, 32, 4))
    approx = muse_acausal(q, k, v, MuseConfig(c_q=4, c_k=32, seed=0))
    assert rel_sq_error(attend(q, k, v), approx) <= 1e-20


def test_mixture_error_small_at_matched_clusters():
    from muse import WorkloadSpec, generate
    from muse.numerics import derive_seed

    for rep in range(5):
        spec = WorkloadSpec(kind="gaussian_mixture", n=1024, d=16, c_true=16,
                            spread=0.1, seed=derive_seed(0, rep))
        q, k, v = generate(spec)
        full = attend(q, k, v)
        cfg = MuseConfig(c_q=16, c_k=16, kmeans_iters=5, seed=rep)
        approx = muse_acausal(q, k, v, cfg)
        assert rel_sq_error(full, approx) <= 0.05


def test_dipole_term_vanishes_for_constant_values_per_key_cluster():
    # constant v within each key cluster makes every value-key covariance
    # zero, so the full and dipole-free outputs coincide
    rng = np.random.default_rng(14)
    n, d, c_k = 30, 4, 5
    q, k, _ = make_qkv(15, n=n, d=d)
    clusters = fixed_clusters(16, n, 3, c_k)
    vals = rng.normal(size=(c_k, d))
    v = vals[clusters.k_assign[0, 0]][None, None]
    full = muse_acausal(q, k, v, MuseConfig(c_q=3, c_k=c_k, seed=0), clusters=clusters)
    bare = muse_acausal(q, k, v, MuseConfig(c_q=3, c_k=c_k, ablation="no_dipole", seed=0),
                        clusters=clusters)
    np.testing.assert_allclose(full.y, bare.y, atol=1e-13)
    assert np.array_equal(full.mu, bare.mu)


def test_ablation_difference_is_exactly_the_dipole_term():
    q, k, v = make_qkv(17, n=36, d=5)
    clusters = fixed_clusters(18, 36, 4, 6)
    cfg = MuseConfig(c_q=4, c_k=6, seed=0)
    full = muse_acausal(q, k, v, cfg, clusters=clusters)
    bare = muse_acausal(q, k, v, MuseConfig(c_q=4, c_k=6, ablation="no_dipole", seed=0),
                        clusters=clusters)
    assert np.array_equal(full.mu, bare.mu)
    gap = np.abs(full.y - bare.y).max()
    assert gap > 1e-6, "dipole term should be non-trivial on random data"


def test_no_monopole_output_formula():
    q, k, v = make_qkv(20, n=28, d=4)
    clusters = fixed_clusters(21, 28, 3, 4)
    cfg = MuseConfig(c_q=3, c_k=4, ablation="no_monopole", seed=0)
    out = muse_acausal(q, k, v, cfg, clusters=clusters)
    y, mu = naive_muse_slice(q[0, 0], k[0, 0], v[0, 0],
                             clusters.q_assign[0, 0], clusters.k_assign[0, 0],
                             3, 4, scale=0.5, ablation="no_monopole")
    np.testing.assert_allclose(out.y[0, 0], y, atol=1e-12)
    np.testing.assert_allclose(out.mu[0, 0], mu, atol=1e-12)


def test_muse_mu_enables_valid_merging():
    # approximate partials merged against an exact remainder stay consistent:
    # merging muse(part) with exact(part) weights by their true mass ratios
    q, k, v = make_qkv(22, n=32, d=4)
    cfg = MuseConfig(c_q=4, c_k=4, kmeans_iters=2, seed=1)
    from muse import merge_partials

    left = muse_acausal(q, k[:, :, :16], v[:, :, :16], cfg)
    right = attend(q, k[:, :, 16:], v[:, :, 16:])
    merged = merge_partials([left, right])
    full = attend(q, k, v)
    assert rel_sq_error(full, merged) < rel_sq_error(full, left)


def test_muse_dtype_preserved_f32():
    q, k, v = make_qkv(23, n=32, d=4, dtype=np.float32)
    cfg = MuseConfig(c_q=4, c_k=4, seed=0)
    out = muse_acausal(q, k, v, cfg)
    assert out.y.dtype == np.float32 and out.mu.dtype == np.float32


def test_muse_threads_bit_identical():
    q, k, v = make_qkv(24, b=2, h=3, n=48, d=4)
    cfg = MuseConfig(c_q=6, c_k=6, seed=5)
    a = muse_acausal(q, k, v, cfg, threads=1)
    b = muse_acausal(q, k, v, cfg, threads=4)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.mu, b.mu)


def test_muse_threads_bit_identical_with_binding_caps(monkeypatch):
    # cap_ratio 1 leaves no slack, so each k-means call spills tokens in capped rounds
    binding = []
    cap_assign = muse.clustering.cap_assign

    def recording_cap_assign(x, centroids, cap):
        nearest = np.bincount(np.argmin(((x[:, None] - centroids) ** 2).sum(-1), axis=1),
                              minlength=len(centroids))
        binding.append(bool(nearest.max() > cap))
        return cap_assign(x, centroids, cap)

    monkeypatch.setattr(muse.clustering, "cap_assign", recording_cap_assign)
    q, k, v = make_qkv(32, b=2, h=3, n=256, d=8, dtype=np.float32)
    cfg = MuseConfig(c_q=16, c_k=16, cap_ratio=1.0, seed=6)
    a = muse_acausal(q, k, v, cfg, threads=1)
    b = muse_acausal(q, k, v, cfg, threads=4)
    assert len(binding) == 2 * 2 * 2 * 3 and all(binding)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.mu, b.mu)


def test_muse_deterministic_per_seed():
    q, k, v = make_qkv(25, n=40, d=4)
    cfg = MuseConfig(c_q=5, c_k=5, seed=9)
    a = muse_acausal(q, k, v, cfg)
    b = muse_acausal(q, k, v, cfg)
    assert np.array_equal(a.y, b.y)
    c = muse_acausal(q, k, v, MuseConfig(c_q=5, c_k=5, seed=10))
    assert not np.array_equal(a.y, c.y)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_frozen_kmeans_clusters_reproduce_the_unfrozen_call_bitwise(dtype):
    q, k, v = make_qkv(27, b=2, h=2, n=64, d=8, dtype=dtype)
    cfg = MuseConfig(c_q=8, c_k=8, seed=3)
    free = muse_acausal(q, k, v, cfg)
    frozen = muse_acausal(q, k, v, cfg, clusters=cluster_tokens(q, k, cfg))
    assert np.array_equal(free.y, frozen.y) and np.array_equal(free.mu, frozen.mu)


@pytest.mark.parametrize("field, label", [("q_assign", 3), ("q_assign", -1), ("k_assign", 4)])
def test_frozen_labels_out_of_range_rejected(field, label):
    # every cluster keeps a member, so only the range check can catch the label
    q, k, v = make_qkv(28, n=20, d=4)
    clusters = fixed_clusters(29, 20, 3, 4)
    getattr(clusters, field)[0, 0, -1] = label
    with pytest.raises(ValueError, match=f"{field} labels must lie in"):
        muse_acausal(q, k, v, MuseConfig(c_q=3, c_k=4, seed=0), clusters=clusters)


def test_frozen_labels_wrong_shape_or_dtype_rejected():
    q, k, v = make_qkv(30, n=20, d=4)
    cfg = MuseConfig(c_q=3, c_k=4, seed=0)
    clusters = fixed_clusters(31, 20, 3, 4)
    short = MuseClusters(q_assign=clusters.q_assign[..., :-1], k_assign=clusters.k_assign)
    with pytest.raises(ValueError, match=r"q_assign must have shape \(1, 1, 20\)"):
        muse_acausal(q, k, v, cfg, clusters=short)
    floats = MuseClusters(q_assign=clusters.q_assign, k_assign=clusters.k_assign.astype(float))
    with pytest.raises(ValueError, match="k_assign must hold integer labels"):
        muse_acausal(q, k, v, cfg, clusters=floats)


@pytest.mark.parametrize("k_shape", [(1, 2, 32, 4), (1, 1, 32, 2)])
def test_cluster_tokens_rejects_mismatched_heads_or_d(k_shape):
    rng = np.random.default_rng(27)
    with pytest.raises(ValueError, match="q/k shape mismatch"):
        cluster_tokens(rng.normal(size=(1, 1, 32, 4)), rng.normal(size=k_shape), MuseConfig(c_q=4, c_k=4))


def test_muse_rejects_short_sequences():
    q, k, v = make_qkv(26, n=8, d=4)
    with pytest.raises(ValueError, match="shorter than cluster count"):
        muse_acausal(q, k, v, MuseConfig(c_q=16, c_k=4, seed=0))
    q, k, v = make_qkv(26, n=8, d=0)
    with pytest.raises(ValueError, match="need d >= 1"):
        muse_acausal(q, k, v, MuseConfig(c_q=2, c_k=2, seed=0))
    with pytest.raises(ValueError, match="need d >= 1"):
        cluster_tokens(q, k, MuseConfig(c_q=2, c_k=2, seed=0))


def test_config_validation():
    with pytest.raises(ValueError):
        MuseConfig(c_q=0)
    for cap_ratio in (0.9, math.nan, math.inf):
        with pytest.raises(ValueError, match="cap_ratio must be finite and >= 1"):
            MuseConfig(cap_ratio=cap_ratio)
    with pytest.raises(ValueError):
        MuseConfig(kmeans_iters=0)
    with pytest.raises(ValueError, match="near_min must be >= 1"):
        MuseConfig(near_min=0)
    for ablation in ("nope", "single_query_cluster"):
        with pytest.raises(ValueError, match=r"expected one of \('full', 'no_dipole', 'no_monopole'\)"):
            MuseConfig(ablation=ablation)
    assert MuseConfig().resolve_scale(16) == pytest.approx(0.25)
    assert MuseConfig(scale=0.5).resolve_scale(16) == 0.5


@pytest.mark.parametrize("field", ["c_q", "c_k", "kmeans_iters", "near_min"])
def test_config_rejects_non_integer_counts(field):
    for value in (2.5, 4.0, "4"):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            MuseConfig(**{field: value})
    assert getattr(MuseConfig(**{field: np.int64(4)}), field) == 4


@pytest.mark.parametrize("seed", [None, -1, 1.5, "0"])
def test_config_rejects_seeds_that_are_not_non_negative_integers(seed):
    # None would draw fresh OS entropy, so two identical calls would differ
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        MuseConfig(seed=seed)
    assert MuseConfig(seed=np.uint64(2 ** 64 - 1)).seed == 2 ** 64 - 1


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_config_rejects_non_positive_or_non_finite_scale(scale):
    with pytest.raises(ValueError, match="scale must be positive and finite"):
        MuseConfig(scale=scale)


def test_rel_sq_error_definition_and_errors():
    a = AttentionResult(y=np.ones((1, 1, 2, 2)), mu=np.zeros((1, 1, 2)))
    b = AttentionResult(y=np.zeros((1, 1, 2, 2)), mu=np.zeros((1, 1, 2)))
    assert rel_sq_error(a, b) == pytest.approx(1.0)
    assert rel_sq_error(a, a) == 0.0
    with pytest.raises(ValueError, match="zero reference"):
        rel_sq_error(b, a)
