"""Acceptance gate: ten checks covering the exact identities, the
approximation quality trends, the causal construction, and the artifact
surfaces, each with a stated tolerance and wall-clock budget.

Each check prints one PASS/FAIL line (visible with -s or in captured output)
and enforces its budget. The scaling-trend check is soft: wall-time ratios
depend on the host, so out-of-range ratios warn instead of failing.
"""

import time
import warnings

import numpy as np
import pytest

from muse import (
    MuseConfig,
    WorkloadSpec,
    ablation_run,
    attend,
    attend_causal,
    build_plan,
    causal_plan,
    error_sweep,
    fd_sensitivity,
    generate,
    load_qkv,
    merge_partials,
    muse_acausal,
    muse_causal,
    rel_sq_error,
    save_qkv,
    scaling_bench,
)
from muse.numerics import derive_seed

from oracles import causal_pair_counts


def timed(title, budget_s):
    """Run the decorated check, print one verdict line, enforce the budget."""

    def wrap(fn):
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL {title} ({time.perf_counter() - t0:.1f}s)")
                raise
            dt = time.perf_counter() - t0
            ok = dt < budget_s
            print(f"{'PASS' if ok else 'FAIL'} {title} ({dt:.1f}s, budget {budget_s:.0f}s)")
            assert ok, f"{title}: runtime {dt:.1f}s exceeds {budget_s}s budget"

        run.__name__ = fn.__name__
        return run

    return wrap


@timed("acceptance 01 merge partition invariance <= 1e-20", 5)
def test_acceptance_01_partition_invariance():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 65))
        d = int(rng.integers(2, 9))
        q, k, v = (rng.normal(size=(1, 1, n, d)) for _ in range(3))
        full = attend(q, k, v)
        cuts = np.sort(rng.choice(np.arange(1, n), size=min(3, n - 1), replace=False))
        parts = [attend(q, k[:, :, idx], v[:, :, idx])
                 for idx in np.split(np.arange(n), cuts)]
        worst = max(worst, rel_sq_error(full, merge_partials(parts)))
    assert worst <= 1e-20, f"worst rel_sq_error {worst:.3e}"


@timed("acceptance 02 exactness corners <= 1e-10", 10)
def test_acceptance_02_exactness_corners():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n, d = 48, 8
        q, k, v = (rng.normal(size=(1, 1, n, d)) for _ in range(3))
        full = attend(q, k, v)
        corner = muse_acausal(q, k, v, MuseConfig(c_q=n, c_k=n, kmeans_iters=2, seed=seed))
        worst = max(worst, rel_sq_error(full, corner))
        q_rep = np.repeat(q[:, :, :6, :], n // 6, axis=2)
        full_rep = attend(q_rep, k, v)
        zero_res = muse_acausal(q_rep, k, v,
                                MuseConfig(c_q=6, c_k=12, kmeans_iters=5, seed=seed))
        worst = max(worst, rel_sq_error(full_rep, zero_res))
    assert worst <= 1e-10, f"worst rel_sq_error {worst:.3e}"


@timed("acceptance 03 causal structural oracle and coverage", 10)
def test_acceptance_03_causal_structure():
    rng = np.random.default_rng(3)
    q, k, v = (rng.normal(size=(1, 2, 256, 8)) for _ in range(3))
    cfg = MuseConfig(c_q=8, c_k=8, seed=0, near_min=1)
    assert causal_plan(256, 32, cfg).muse_query_rows > 0
    out = muse_causal(q, k, v, cfg, b=32, block_fn=lambda qb, kb, vb: attend(qb, kb, vb))
    err = rel_sq_error(attend_causal(q, k, v), out)
    assert err <= 1e-20, f"structural rel_sq_error {err:.3e}"
    for n, b in ((64, 8), (128, 32), (256, 16), (512, 64), (512, 512)):
        plan = build_plan(n, b)
        blocks = [(s0, s1, s0, s1, True) for s0, s1 in plan.diagonal_blocks()]
        blocks += [(q0, q1, k0, k1, False)
                   for _, _, (q0, q1), (k0, k1) in plan.below_blocks()]
        counts = causal_pair_counts(n, blocks)
        assert np.array_equal(counts, np.tril(np.ones((n, n), dtype=np.int64))), (n, b)
        assert plan.muse_query_rows == (n // 2) * int(np.log2(n // b))


@timed("acceptance 04 strict causality under later-position edits", 10)
def test_acceptance_04_strict_causality():
    rng = np.random.default_rng(4)
    n, b = 1024, 128
    q, k, v = (rng.normal(size=(1, 1, n, 8)) for _ in range(3))
    cfg = MuseConfig(c_q=32, c_k=32, kmeans_iters=2, seed=0, near_min=1)
    assert causal_plan(n, b, cfg).muse_query_rows > 0
    base = muse_causal(q, k, v, cfg, b=b)
    for t in rng.integers(1, n, size=10):
        t = int(t)
        k2, v2 = k.copy(), v.copy()
        k2[:, :, t] += 2.5
        v2[:, :, t] *= -1.5
        pert = muse_causal(q, k2, v2, cfg, b=b)
        assert np.array_equal(base.y[:, :, :t], pert.y[:, :, :t]), f"y drift before t={t}"
        assert np.array_equal(base.mu[:, :, :t], pert.mu[:, :, :t]), f"mu drift before t={t}"


@timed("acceptance 05 ablation error ordering", 60)
def test_acceptance_05_ablation_ordering():
    spec = WorkloadSpec(kind="gaussian_mixture", n=1024, d=16, c_true=16,
                        spread=0.15, centroid_scale=1.2, seed=0)
    base = MuseConfig(c_q=128, c_k=128, kmeans_iters=3, cap_ratio=3.0, seed=0)
    report = ablation_run(spec, base, seeds=5)
    verdicts = report.metadata["ordering_verdicts"]
    assert all(verdicts.values()), f"ordering violated: {verdicts}"
    nm_mean = report.aggregates["no_monopole"]["mean"]
    assert nm_mean > 0.5, f"no_monopole mean {nm_mean:.3f} not > 0.5"


@timed("acceptance 06 error drop from quadrupling clusters in [0.3, 0.8]", 60)
def test_acceptance_06_cluster_count_trend():
    spec = WorkloadSpec(kind="gaussian_mixture", n=1024, d=16, c_true=512,
                        spread=0.8, seed=0)
    grid = [MuseConfig(c_q=c, c_k=c, kmeans_iters=2, seed=0) for c in (16, 64)]
    report = error_sweep(spec, grid, seeds=5)
    mean = {lbl.split()[0]: agg["mean"] for lbl, agg in report.aggregates.items()}
    ratio = mean["C=64"] / mean["C=16"]
    assert 0.3 <= ratio <= 0.8, f"quadrupling ratio {ratio:.3f} outside [0.3, 0.8]"


@timed("acceptance 07 halving spread at least halves error", 60)
def test_acceptance_07_residual_shrinkage():
    cfg = MuseConfig(c_q=64, c_k=64, kmeans_iters=2, cap_ratio=1.5, seed=0)
    means = []
    for spread in (0.4, 0.2, 0.1, 0.05):
        spec = WorkloadSpec(kind="gaussian_mixture", n=1024, d=16, c_true=1,
                            spread=spread, seed=0)
        errs = []
        for rep in range(5):
            wl_seed = derive_seed(spec.seed, rep)
            q, k, v = generate(WorkloadSpec(kind="gaussian_mixture", n=1024, d=16,
                                            c_true=1, spread=spread, seed=wl_seed))
            run_cfg = MuseConfig(c_q=64, c_k=64, kmeans_iters=2, cap_ratio=1.5,
                                 seed=derive_seed(cfg.seed, rep))
            errs.append(rel_sq_error(attend(q, k, v), muse_acausal(q, k, v, run_cfg)))
        means.append(float(np.mean(errs)))
    for coarse, fine in zip(means, means[1:]):
        ratio = fine / coarse
        assert ratio <= 0.5, f"spread halving ratio {ratio:.3f} > 0.5 in {means}"


@timed("acceptance 08 wall-time doubling ratios (soft)", 300)
def test_acceptance_08_scaling_trend():
    spec = WorkloadSpec(kind="isotropic_gaussian", heads=1, d=16, dtype="f32", seed=0)
    report = scaling_bench(spec, [1024, 2048, 4096], token_budget=2 ** 18,
                           config=MuseConfig(seed=0), reps=5)
    ratios = report.aggregates["doubling_ratios"]
    exact = [ratios["exact 2048/1024"], ratios["exact 4096/2048"]]
    muse = [ratios["muse 2048/1024"], ratios["muse 4096/2048"]]
    msgs = []
    if not all(1.6 <= r <= 2.6 for r in exact):
        msgs.append(f"exact doubling ratios {[f'{r:.2f}' for r in exact]} outside [1.6, 2.6]")
    if not all(0.7 <= r <= 1.5 for r in muse):
        msgs.append(f"flat-path doubling ratios {[f'{r:.2f}' for r in muse]} outside [0.7, 1.5]")
    print(f"  exact ratios {[f'{r:.2f}' for r in exact]}, "
          f"clustered ratios {[f'{r:.2f}' for r in muse]}")
    for msg in msgs:
        warnings.warn("soft scaling check: " + msg + " (host-dependent, not failing)")


@timed("acceptance 09 directional derivatives at the exact corner", 30)
def test_acceptance_09_fd_corner():
    n, d = 48, 8
    rng = np.random.default_rng(9)
    q, k, v = (rng.normal(size=(1, 1, n, d)) for _ in range(3))
    cfg = MuseConfig(c_q=n, c_k=n, kmeans_iters=2, seed=0)
    worst = 0.0
    for s in range(10):
        drng = np.random.default_rng(900 + s)
        direction = drng.normal(size=q.shape)
        direction /= np.linalg.norm(direction)
        out = fd_sensitivity(q, k, v, cfg, direction, eps=1e-5)
        worst = max(worst, out["rel_gap"])
    assert worst <= 1e-4, f"worst rel_gap {worst:.3e}"


@timed("acceptance 10 tensor file round trip and rejection", 5)
def test_acceptance_10_file_round_trip(tmp_path=None):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for dtype in ("f32", "f64"):
            q, k, v = generate(WorkloadSpec(batch=2, heads=2, n=32, d=8,
                                            dtype=dtype, seed=10))
            path = tmp / f"w_{dtype}.museqkv"
            save_qkv(path, q, k, v)
            q2, k2, v2 = load_qkv(path)
            assert all(np.array_equal(a, b) for a, b in zip((q, k, v), (q2, k2, v2)))
            assert q2.dtype == q.dtype
        blob = bytearray(path.read_bytes())
        bad = tmp / "bad"
        bad.write_bytes(b"XXXXXXXX" + bytes(blob[8:]))
        with pytest.raises(ValueError, match="not a MUSEQKV file"):
            load_qkv(bad)
        tampered = blob.copy()
        tampered[8:12] = (2).to_bytes(4, "little")
        bad.write_bytes(bytes(tampered))
        with pytest.raises(ValueError, match="unsupported MUSEQKV version"):
            load_qkv(bad)
        bad.write_bytes(bytes(blob[:-16]))
        with pytest.raises(ValueError, match="truncated payload"):
            load_qkv(bad)
