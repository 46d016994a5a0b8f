import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # unequal cluster sizes put padded slots in stage 1's layout; keys and values
    # off the origin make a padded slot counted in a member mean or left with a
    # nonzero deviation show in the covariance
    rng = np.random.default_rng(2)
    d = 4
    sizes = (7, 1, 3, 12, 5)
    for dtype, atol in ((np.float64, 1e-13), (np.float32, 1e-5)):
        keys = [(rng.normal(size=(u, d)) + 2.0).astype(dtype) for u in sizes]
        vals = [(rng.normal(size=(u, d)) - 3.0).astype(dtype) for u in sizes]
        out = stage1(rng.normal(size=(2, d)).astype(dtype), joint(keys, vals))
        assert out.cov_vk.dtype == dtype
        for j, (kc, vc) in enumerate(zip(keys, vals, strict=True)):
            kc, vc = kc.astype(np.float64), vc.astype(np.float64)
            dk = kc - kc.mean(axis=0)
            dv = vc - vc.mean(axis=0)
            want = sum(np.outer(dv[u], dk[u]) for u in range(len(kc))) / len(kc)
            np.testing.assert_allclose(out.cov_vk[j], want, atol=atol)


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
    # stage 1 peaked at 1.135 MB before its scores moved to a (c_k, U, c_q) layout,
    # and at 1.154 MB with the exponentials left unnormalised; a copy of the
    # (64, 24, 64) exponentials for the kbar/vbar product raises the peak to 1.55 MB.
    # It peaks at 1.169 MB with the final stage's blocks copied out after the
    # covariance, and at 1.251 MB if the sums divide on the way out
    qbar, blocks, _ = peak_memory_inputs()
    peak = peak_bytes(lambda: stage1(qbar, blocks))
    assert peak < 1.1 * 1.135e6, f"peak {peak / 1e6:.3f} MB"


def peak_memory_inputs():
    """c_q = c_k = 64 clusters of 8-24 rows, d = 16, f32: key/value blocks,
    query centroids, and residual clusters of the key clusters' sizes."""
    rng = np.random.default_rng(33)
    sizes = np.concatenate([[24], rng.integers(8, 25, size=63)])
    keys = [rng.normal(size=(u, 16)).astype(np.float32) for u in sizes]
    values = [rng.normal(size=(u, 16)).astype(np.float32) for u in sizes]
    qbar = (0.25 * rng.normal(size=(64, 16))).astype(np.float32)
    residuals = [(0.25 * rng.normal(size=(u, 16))).astype(np.float32) for u in sizes]
    return qbar, joint(keys, values), residuals


def peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_final_stage_peak_memory_holds_one_score_layout():
    # on the inputs of the stage-1 test: 0.698 MB with normalised (c_q, U, c_k)
    # probabilities, 0.613 MB with the (c_k, c_q, U) exponentials written through
    # a transposed view and freed before y is divided; a contiguous copy of the
    # exponentials for the y product raises the peak to 1.006 MB
    qbar, blocks, residuals = peak_memory_inputs()
    summaries = stage1(qbar, blocks)
    dipoles = aggregate_dipoles(summaries)
    peak = peak_bytes(lambda: final_stage(residuals, summaries, dipoles))
    assert peak < 1.1 * 0.613e6, f"peak {peak / 1e6:.3f} MB"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("with_dipoles", [True, False])
def test_final_stage_matches_per_row_loop(dtype, with_dipoles):
    # uneven residual clusters, a singleton up to U_max = 12, so most score slots are padding
    rng = np.random.default_rng(40)
    d, c_k = 5, 4
    sizes = [1, 7, 3, 12, 1, 5]
    keys = [rng.normal(size=(u, d)).astype(dtype) for u in (3, 1, 6, 4)]
    vals = [rng.normal(size=k.shape).astype(dtype) for k in keys]
    summaries = stage1(rng.normal(size=(len(sizes), d)).astype(dtype), joint(keys, vals))
    dipoles = aggregate_dipoles(summaries) if with_dipoles else None
    residuals = [(0.5 * rng.normal(size=(u, d))).astype(dtype) for u in sizes]
    assert_final_stage_matches_row_loop(residuals, summaries, dipoles)


def assert_final_stage_matches_row_loop(residuals, summaries, dipoles):
    """`final_stage` against a float64 loop over the residual rows, within 32 eps
    of their dtype."""
    dtype = residuals[0].dtype
    y_rows, mu_rows = final_stage(residuals, summaries, dipoles)
    n = sum(len(rc) for rc in residuals)
    assert y_rows.shape == (n, residuals[0].shape[1]) and mu_rows.shape == (n,)
    assert y_rows.dtype == mu_rows.dtype == dtype
    tol = 32 * np.finfo(dtype).eps
    kbar, vbar, mu = (a.astype(np.float64) for a in (summaries.kbar, summaries.vbar, summaries.mu))
    rows = iter(range(n))
    for i, rc in enumerate(residuals):
        for r in rc.astype(np.float64):
            row = next(rows)
            s = kbar[i] @ r + mu[i]
            e = np.exp(s - s.max())
            want_y = e @ vbar[i] / e.sum()
            if dipoles is not None:
                want_y += dipoles[i].astype(np.float64) @ r
            np.testing.assert_allclose(y_rows[row], want_y, rtol=tol, atol=tol)
            assert mu_rows[row] == pytest.approx(s.max() + np.log(e.sum()), rel=tol, abs=tol)


def recorded_bounds(monkeypatch) -> list:
    """The `bounded` masks that stage 1 and the final stage hand their shift
    step, in call order: (c_q,) from stage 1, (c_q, U_max, 1) from the final stage."""
    seen = []
    shift = muse.multipole.max_shift

    def recording(bounded, row_max):
        seen.append(bounded.copy())
        return shift(bounded, row_max)

    monkeypatch.setattr(muse.multipole, "max_shift", recording)
    return seen


# (dtype, which rows are scaled past the bound L = log(finfo.max) / 4, scale):
# integer entries keep every score exact, and the scaled rows' scores reach
# past log(finfo.max), so their exp overflows unless they are shifted
BOUND_CASES = [(np.float64, "some", 200), (np.float32, "some", 50), (np.float32, "all", 50)]


@pytest.mark.parametrize("dtype, rows, scale", BOUND_CASES)
def test_stage1_both_sides_of_the_bound(monkeypatch, dtype, rows, scale):
    # |qbar_i| max |k| <= sqrt(5) * 3 sqrt(5) = 15 <= L on an unscaled +-1 row
    rng = np.random.default_rng(41)
    d, c_q = 5, 6
    qbar = rng.choice([-1.0, 1.0], size=(c_q, d))
    big = np.arange(c_q) % 2 == 0 if rows == "some" else np.ones(c_q, dtype=bool)
    qbar[big] *= scale
    keys = [rng.integers(-3, 4, size=(u, d)).astype(float) for u in (3, 1, 6, 4)]
    vals = [rng.normal(size=k.shape) for k in keys]
    seen = recorded_bounds(monkeypatch)
    out = stage1(qbar.astype(dtype), joint([k.astype(dtype) for k in keys], [v.astype(dtype) for v in vals]))
    assert np.array_equal(seen[0], ~big)
    tol = 32 * np.finfo(dtype).eps
    for i in range(c_q):
        for j, (kc, vc) in enumerate(zip(keys, vals, strict=True)):
            s = kc @ qbar[i]
            e = np.exp(s - s.max())
            np.testing.assert_allclose(out.kbar[i, j], e @ kc / e.sum(), rtol=tol, atol=tol)
            np.testing.assert_allclose(out.vbar[i, j], e @ vc / e.sum(), rtol=tol, atol=tol)
            assert out.mu[i, j] == pytest.approx(s.max() + np.log(e.sum()), rel=tol, abs=tol)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_stage1_shifted_route_masks_the_padded_slots(monkeypatch, dtype):
    # keys offset by 1e4 bound no centroid, so every row takes the shifted route;
    # the -1 rows score every key near -4e4, and would lose all their scores to a
    # padded slot scored 0 unless that slot is -inf before the max pass. Integer
    # keys and +-1 centroids keep every score exact in both dtypes
    rng = np.random.default_rng(43)
    d, c_q = 4, 5
    sizes = (7, 1, 3, 12, 5)
    qbar = rng.choice([-1.0, 1.0], size=(c_q, d))
    qbar[:3] = -1
    keys = [rng.integers(-3, 4, size=(u, d)) + 1e4 for u in sizes]
    vals = [rng.normal(size=(u, d)) for u in sizes]
    seen = recorded_bounds(monkeypatch)
    out = stage1(qbar.astype(dtype), joint([kc.astype(dtype) for kc in keys], [vc.astype(dtype) for vc in vals]))
    assert not seen[0].any()
    tol = 32 * np.finfo(dtype).eps
    for i in range(c_q):
        for j, (kc, vc) in enumerate(zip(keys, vals, strict=True)):
            s = kc @ qbar[i]
            e = np.exp(s - s.max())
            np.testing.assert_allclose(out.kbar[i, j], e @ kc / e.sum(), rtol=tol, atol=tol)
            np.testing.assert_allclose(out.vbar[i, j], e @ vc / e.sum(), rtol=tol, atol=tol)
            assert out.mu[i, j] == pytest.approx(s.max() + np.log(e.sum()), rel=tol, abs=tol)


def test_stage1_hands_the_final_stage_contiguous_layouts():
    # kbar transposed with the bias row mu - max_j mu appended, and vbar, each
    # one contiguous block, so the final stage's products read no strided operand
    rng = np.random.default_rng(44)
    d = 4
    keys = [rng.normal(size=(u, d)) for u in (3, 1, 6, 4)]
    vals = [rng.normal(size=k.shape) for k in keys]
    out = stage1(rng.normal(size=(5, d)), joint(keys, vals))
    assert out.kbar_bias.shape == (5, d + 1, 4) and out.vbar.shape == (5, 4, d)
    assert out.kbar_bias.flags.c_contiguous and out.vbar.flags.c_contiguous
    assert np.array_equal(out.kbar_bias[:, d], out.mu - out.mu.max(axis=1, keepdims=True))
    assert np.array_equal(out.kbar, out.kbar_bias[:, :d].transpose(0, 2, 1))


@pytest.mark.parametrize("dtype, rows, scale", BOUND_CASES)
def test_final_stage_both_sides_of_the_bound(monkeypatch, dtype, rows, scale):
    # |r| max |kbar| <= sqrt(5) * 2 sqrt(5) = 10 <= L on an unscaled +-1 row;
    # integer mu keeps the biased scores exact too. The summaries' norm maxima
    # are those of their own kbar and vbar
    rng = np.random.default_rng(42)
    d, c_k = 5, 4
    sizes = [1, 7, 3, 12, 1, 5]
    kbar = rng.integers(-2, 3, size=(len(sizes), c_k, d)).astype(dtype)
    vbar = rng.normal(size=(len(sizes), c_k, d)).astype(dtype)
    mu = rng.integers(-3, 4, size=(len(sizes), c_k)).astype(dtype)
    # stage 1's layout: kbar[i] transposed, then the bias row mu[i] - max_j mu[i, j]
    kbar_bias = np.concatenate((kbar.transpose(0, 2, 1), (mu - mu.max(axis=1, keepdims=True))[:, None]), axis=1)
    summaries = muse.multipole.ClusterSummaries(
        kbar_bias=kbar_bias, vbar=vbar, mu=mu,
        cov_vk=rng.normal(size=(c_k, d, d)).astype(dtype),
        kv_sq=np.array([(kbar * kbar).sum(axis=-1).max(), (vbar * vbar).sum(axis=-1).max()]))
    assert np.array_equal(summaries.kbar, kbar)
    residuals = [rng.choice([-1.0, 1.0], size=(u, d)) for u in sizes]
    if rows == "some":  # all of cluster 1, one row of cluster 3
        residuals[1] *= scale
        residuals[3][4] *= scale
    else:
        residuals = [rc * scale for rc in residuals]
    seen = recorded_bounds(monkeypatch)
    assert_final_stage_matches_row_loop([rc.astype(dtype) for rc in residuals], summaries,
                                        aggregate_dipoles(summaries))
    real = np.arange(max(sizes)) < np.array(sizes)[:, None]
    big = np.zeros(real.shape, dtype=bool)
    for i, rc in enumerate(residuals):
        big[i, :len(rc)] = np.abs(rc).max(axis=1) > 1
    assert np.array_equal(seen[0][:, :, 0][real], ~big[real])
    assert big[real].all() == (rows == "all") and big[real].any()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10 ** 6), dtype=st.sampled_from([np.float32, np.float64]),
       c_q=st.integers(1, 6), sizes=st.lists(st.integers(1, 40), min_size=1, max_size=6),
       d=st.integers(1, 8), q_scale=st.sampled_from([0.1, 1.0, 30.0, 1e3]))
def test_stage1_norm_maxima_bound_the_tilted_centroids(seed, dtype, c_q, sizes, d, q_scale):
    # a tilted centroid is a convex combination of its cluster's keys (values), so
    # its squared norm is at most the largest squared key (value) norm, up to rounding;
    # a large q_scale concentrates the tilt on one key, and also takes the shifted
    # route. (Near-identical keys at the largest norm round further: 16 f32 eps at
    # U = 100, still far inside the 4x margin of the score bound.)
    rng = np.random.default_rng(seed)
    keys = [rng.normal(size=(u, d)).astype(dtype) for u in sizes]
    vals = [(3 * rng.normal(size=(u, d))).astype(dtype) for u in sizes]
    out = stage1((q_scale * rng.normal(size=(c_q, d))).astype(dtype), joint(keys, vals))
    eps = np.finfo(dtype).eps
    assert out.kv_sq.dtype == dtype
    for bar, kv_sq, rows in ((out.kbar, out.kv_sq[0], keys), (out.vbar, out.kv_sq[1], vals)):
        assert kv_sq == pytest.approx(max((r * r).sum(axis=1).max() for r in rows), rel=8 * eps)
        assert ((bar * bar).sum(axis=-1) <= kv_sq * (1 + 8 * eps)).all()


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


def test_muse_both_sides_of_the_bound_matches_naive(monkeypatch):
    # query cluster 0 scaled by 300 puts its centroid and rows past L = 177 of
    # float64, and one row of cluster 1 scaled by 150 puts that row alone past it
    q, k, v = make_qkv(43, n=40, d=6)
    clusters = fixed_clusters(44, 40, 5, 7)
    labels = clusters.q_assign[0, 0]
    q[0, 0, labels == 0] *= 300
    q[0, 0, np.flatnonzero(labels == 1)[0]] *= 150
    seen = recorded_bounds(monkeypatch)
    out = muse_acausal(q, k, v, MuseConfig(c_q=5, c_k=7, seed=0), clusters=clusters)
    y, mu = naive_muse_slice(q[0, 0], k[0, 0], v[0, 0], labels, clusters.k_assign[0, 0],
                             5, 7, scale=1 / np.sqrt(6))
    np.testing.assert_allclose(out.y[0, 0], y, atol=1e-12)
    np.testing.assert_allclose(out.mu[0, 0], mu, atol=1e-12)
    centroids, rows = seen[0], seen[1][:, :, 0]
    assert not centroids[0] and centroids[1:].all()
    assert not rows[0, 0] and not rows[1].all() and rows[1].any() and rows[2:].all()


def test_muse_f32_shift_route_matches_naive(monkeypatch):
    # queries scaled by 100 take every centroid and row past L = 22 of float32,
    # with scores whose exp overflows unless they are shifted
    q, k, v = make_qkv(45, n=40, d=6)
    q *= 100
    clusters = fixed_clusters(46, 40, 5, 7)
    seen = recorded_bounds(monkeypatch)
    out = muse_acausal(q.astype(np.float32), k.astype(np.float32), v.astype(np.float32),
                       MuseConfig(c_q=5, c_k=7, seed=0), clusters=clusters)
    sizes = np.bincount(clusters.q_assign[0, 0])
    real = np.arange(sizes.max()) < sizes[:, None]  # the padded slots are zero rows, which pass
    assert not seen[0].any() and not seen[1][:, :, 0][real].any()
    y, mu = naive_muse_slice(q[0, 0], k[0, 0], v[0, 0], clusters.q_assign[0, 0], clusters.k_assign[0, 0],
                             5, 7, scale=1 / np.sqrt(6))
    want = AttentionResult(y=y[None, None], mu=mu[None, None])
    assert np.abs(mu).max() > math.log(np.finfo(np.float32).max)
    assert rel_sq_error(want, out) <= 1e-4
    np.testing.assert_allclose(out.mu[0, 0], mu, rtol=1e-4)


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


# (dtype, bound on rel_sq_error) of the exactness corners: f32 leaves rounding noise
CORNER_TOLS = ((np.float64, 1e-10), (np.float32, 1e-4))


def test_exactness_every_token_its_own_cluster():
    for seed in range(5):
        for dtype, tol in CORNER_TOLS:
            q, k, v = make_qkv(seed, n=24, d=5, dtype=dtype)
            full = attend(q, k, v)
            cfg = MuseConfig(c_q=24, c_k=24, kmeans_iters=2, seed=seed)
            approx = muse_acausal(q, k, v, cfg)
            assert approx.y.dtype == dtype
            assert rel_sq_error(full, approx) <= tol


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
    cfg = MuseConfig(c_q=g, c_k=6, seed=0)
    for dtype, tol in CORNER_TOLS:
        qd, kd, vd = (a.astype(dtype) for a in (q, k, v))
        approx = muse_acausal(qd, kd, vd, cfg, clusters=clusters)
        assert approx.y.dtype == dtype
        assert rel_sq_error(attend(qd, kd, vd), approx) <= tol


def test_exactness_singleton_key_clusters():
    cfg = MuseConfig(c_q=4, c_k=20, kmeans_iters=2, seed=3)
    for dtype, tol in CORNER_TOLS:
        q, k, v = make_qkv(13, n=20, d=4, dtype=dtype)
        approx = muse_acausal(q, k, v, cfg)
        assert approx.y.dtype == dtype
        assert rel_sq_error(attend(q, k, v), approx) <= tol


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


def test_frozen_layouts_are_reused_bitwise_across_inputs():
    # one MuseClusters object over several input sets, with its layouts kept from
    # cluster_tokens or from its first call, against a fresh copy of its labels per call
    cfg = MuseConfig(c_q=8, c_k=8, seed=3)
    q0, k0, _ = make_qkv(50, b=2, h=2, n=64, d=8)
    for clusters in (cluster_tokens(q0, k0, cfg), fixed_clusters(51, 64, 8, 8, b=2, h=2)):
        for seed in (52, 53, 54):
            q, k, v = make_qkv(seed, b=2, h=2, n=64, d=8)
            got = muse_acausal(q, k, v, cfg, clusters=clusters)
            fresh = MuseClusters(q_assign=clusters.q_assign.copy(), k_assign=clusters.k_assign.copy())
            want = muse_acausal(q, k, v, cfg, clusters=fresh)
            assert np.array_equal(got.y, want.y) and np.array_equal(got.mu, want.mu)
        # a layout is kept per cluster count: with c_q = 9 these labels leave cluster 8 empty
        with pytest.raises(ValueError, match="empty cluster"):
            muse_acausal(q, k, v, MuseConfig(c_q=9, c_k=8, seed=3), clusters=clusters)


@pytest.mark.parametrize("field", ["q_assign", "k_assign"])
def test_frozen_labels_edited_in_place_take_effect(field):
    q, k, v = make_qkv(55, b=1, h=2, n=48, d=6)
    cfg = MuseConfig(c_q=6, c_k=6, seed=0)
    clusters = fixed_clusters(56, 48, 6, 6, h=2)
    before = muse_acausal(q, k, v, cfg, clusters=clusters)
    labels = getattr(clusters, field)
    labels[0, 1, 20] = (labels[0, 1, 20] + 1) % 6  # past the first 6 tokens: no cluster empties
    after = muse_acausal(q, k, v, cfg, clusters=clusters)
    fresh = muse_acausal(q, k, v, cfg, clusters=MuseClusters(q_assign=clusters.q_assign.copy(),
                                                             k_assign=clusters.k_assign.copy()))
    assert np.array_equal(after.y, fresh.y) and np.array_equal(after.mu, fresh.mu)
    assert np.array_equal(after.y[0, 0], before.y[0, 0]) and not np.array_equal(after.y[0, 1], before.y[0, 1])
    labels[0, 1] = 0  # empties clusters 1-5 of slice (0, 1), which a kept layout must not hide
    with pytest.raises(ValueError, match="empty cluster"):
        muse_acausal(q, k, v, cfg, clusters=clusters)


def test_frozen_layouts_are_thread_count_invariant():
    q, k, v = make_qkv(57, b=2, h=3, n=64, d=8)
    cfg = MuseConfig(c_q=8, c_k=8, seed=1)
    clusters = cluster_tokens(q, k, cfg, threads=4)
    runs = [muse_acausal(q, k, v, cfg, threads=t, clusters=clusters) for t in (1, 4, 1, 4)]
    for r in runs[1:]:
        assert np.array_equal(r.y, runs[0].y) and np.array_equal(r.mu, runs[0].mu)
    # a fresh copy fills its kept layouts from 4 workers at once; a short switch
    # interval makes a lost update likely if writes to them could race
    fresh = MuseClusters(q_assign=clusters.q_assign.copy(), k_assign=clusters.k_assign.copy())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        r = muse_acausal(q, k, v, cfg, threads=4, clusters=fresh)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(r.y, runs[0].y) and np.array_equal(r.mu, runs[0].mu)
    assert len(fresh._layouts) == 2 * 2 * 3


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
