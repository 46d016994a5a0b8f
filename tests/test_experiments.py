import json
from dataclasses import replace

import numpy as np
import pytest

from muse import (
    ExperimentReport,
    MuseConfig,
    RunRecord,
    WorkloadSpec,
    ablation_run,
    causal_bench,
    causal_plan,
    error_sweep,
    fd_sensitivity,
    generate,
    save_qkv,
    scaling_bench,
    selftest,
)

SMALL_MIX = WorkloadSpec(kind="gaussian_mixture", n=256, d=8, c_true=8,
                         spread=0.3, seed=0)


def test_error_sweep_row_count_and_labels():
    grid = [MuseConfig(c_q=c, c_k=c, kmeans_iters=1, seed=0) for c in (8, 16, 32)]
    report = error_sweep(SMALL_MIX, grid, seeds=5)
    assert len(report.rows) == 15
    assert sorted({r.label for r in report.rows}) == ["C=16", "C=32", "C=8"]
    assert all(r.tokens_processed == 256 for r in report.rows)
    assert len(report.metadata["reference_hashes"]) == 5


def test_error_sweep_single_config_gives_seeds_rows():
    report = error_sweep(SMALL_MIX, [MuseConfig(c_q=8, c_k=8, seed=0)], seeds=3)
    assert len(report.rows) == 3
    assert len({r.seed for r in report.rows}) == 3, "per-rep seeds must differ"


def test_error_sweep_reference_reused_across_grid():
    # same workload seed appears once per grid point; the recorded reference
    # hash for that rep is unique, showing one shared exact computation
    grid = [MuseConfig(c_q=c, c_k=c, seed=0) for c in (8, 16)]
    a = error_sweep(SMALL_MIX, grid, seeds=2)
    b = error_sweep(SMALL_MIX, grid, seeds=2)
    assert a.metadata["reference_hashes"] == b.metadata["reference_hashes"]


def test_error_sweep_error_decreases_with_clusters():
    grid = [MuseConfig(c_q=c, c_k=c, kmeans_iters=2, seed=0) for c in (8, 64)]
    report = error_sweep(SMALL_MIX, grid, seeds=3)
    mean = {lbl: agg["mean"] for lbl, agg in report.aggregates.items()}
    small = next(v for k, v in mean.items() if k.startswith("C=8 "))
    large = next(v for k, v in mean.items() if k.startswith("C=64 "))
    assert large < small


def test_error_sweep_rejects_empty_grid():
    with pytest.raises(ValueError, match="empty config grid"):
        error_sweep(SMALL_MIX, [], seeds=1)


def test_error_sweep_keeps_distinct_configs_apart():
    # c_q and the ablation tell these configs apart, so each gets its own label and aggregate
    spec = WorkloadSpec(kind="gaussian_mixture", n=256, d=8, c_true=16, spread=0.2)
    grid = [MuseConfig(c_q=4, c_k=16), MuseConfig(c_q=16, c_k=16),
            MuseConfig(c_q=16, c_k=16, ablation="no_dipole")]
    report = error_sweep(spec, grid, seeds=2)
    labels = ["C=16 c_q=4 ablation=full", "C=16 c_q=16 ablation=full", "C=16 c_q=16 ablation=no_dipole"]
    assert [r.label for r in report.rows] == labels * 2
    assert list(report.aggregates) == [f"{label} iters=1 cap=1.5" for label in labels]
    # a field that is the same across the grid stays out of the label
    same = error_sweep(spec, [MuseConfig(c_q=1, c_k=16, ablation="no_dipole")], seeds=1)
    assert [r.label for r in same.rows] == ["C=16 c_q=1"]


def test_single_query_cluster_run_is_c_q_one():
    base = MuseConfig(c_q=16, c_k=16, seed=0)
    ablation = ablation_run(SMALL_MIX, base, seeds=2)
    sweep = error_sweep(SMALL_MIX, [replace(base, c_q=1)], seeds=2)
    assert ([r.rel_sq_error for r in ablation.rows if r.label == "single_query_cluster"]
            == [r.rel_sq_error for r in sweep.rows])
    assert all(r.c == 16 for r in ablation.rows)


def test_error_sweep_rejects_grid_with_different_scales():
    # every config is compared against one exact reference, computed at one scale
    grid = [MuseConfig(c_q=64, c_k=64, scale=s, seed=0) for s in (0.1, 1.0)]
    spec = WorkloadSpec(kind="isotropic_gaussian", n=64, d=8, seed=0)
    with pytest.raises(ValueError, match="different scales"):
        error_sweep(spec, grid, seeds=1)
    same = [MuseConfig(c_q=64, c_k=64, scale=None, seed=0),
            MuseConfig(c_q=64, c_k=64, scale=1 / np.sqrt(8), seed=0)]
    assert all(r.rel_sq_error <= 1e-24 for r in error_sweep(spec, same, seeds=1).rows)


@pytest.mark.parametrize("driver", [
    lambda seeds: error_sweep(SMALL_MIX, [MuseConfig(c_q=16, c_k=16, seed=0)], seeds=seeds),
    lambda seeds: ablation_run(SMALL_MIX, MuseConfig(c_q=16, c_k=16, seed=0), seeds=seeds),
    lambda seeds: causal_bench(SMALL_MIX, MuseConfig(c_q=16, c_k=16, seed=0), 32, seeds=seeds),
], ids=["error_sweep", "ablation_run", "causal_bench"])
@pytest.mark.parametrize("seeds", [0, -1, 2.0, 1.5])
def test_drivers_reject_no_seeds(driver, seeds):
    # an empty run would report nothing (or NaN aggregates and vacuous verdicts)
    match = "seeds must be >= 1" if isinstance(seeds, int) else "seeds must be an integer"
    with pytest.raises(ValueError, match=match):
        driver(seeds)


def test_ablation_run_structure():
    base = MuseConfig(c_q=16, c_k=16, kmeans_iters=2, seed=0)
    report = ablation_run(SMALL_MIX, base, seeds=3)
    assert len(report.rows) == 12
    modes = {r.label for r in report.rows}
    assert modes == {"full", "no_dipole", "single_query_cluster", "no_monopole"}
    verdicts = report.metadata["ordering_verdicts"]
    assert set(verdicts) == {"full<no_dipole", "no_dipole<single_query_cluster",
                             "single_query_cluster<no_monopole"}
    assert all(isinstance(v, bool) for v in verdicts.values())
    assert set(report.aggregates) == modes


def test_ablation_run_reports_the_base_its_full_row_ran():
    # no run reads base.ablation, so the report must not depend on it
    reports = [ablation_run(SMALL_MIX, MuseConfig(c_q=8, c_k=8, ablation=a, seed=0), seeds=1)
               for a in ("no_monopole", "full")]
    assert reports[0].config["base"]["ablation"] == "full"
    assert reports[0].to_json(include_timing=False) == reports[1].to_json(include_timing=False)


def test_scaling_bench_rows_and_ratios():
    spec = WorkloadSpec(kind="isotropic_gaussian", heads=1, d=8, dtype="f32", seed=0)
    report = scaling_bench(spec, [64, 128], token_budget=1024,
                           config=MuseConfig(c_q=8, c_k=8, seed=0), reps=2)
    assert len(report.rows) == 4
    labels = [r.label for r in report.rows]
    assert labels == ["exact n=64", "muse n=64", "exact n=128", "muse n=128"]
    ratios = report.aggregates["doubling_ratios"]
    assert set(ratios) == {"exact 128/64", "muse 128/64"}
    assert all(v > 0 for v in ratios.values())
    assert all(r.tokens_processed == 1024 for r in report.rows)


def test_scaling_bench_rejects_indivisible_budget():
    spec = WorkloadSpec(kind="isotropic_gaussian", heads=3, d=8, seed=0)
    with pytest.raises(ValueError, match="not divisible"):
        scaling_bench(spec, [64], token_budget=1000, config=MuseConfig(c_q=8, c_k=8))


def test_scaling_bench_rejects_a_file_workload(tmp_path):
    # the n-list and the budget cannot resize a file's fixed shape
    path = tmp_path / "qkv.bin"
    save_qkv(path, *generate(WorkloadSpec(kind="isotropic_gaussian", n=64, d=8, seed=0)))
    spec = WorkloadSpec(kind="file", path=str(path), heads=1, d=8)
    with pytest.raises(ValueError, match="synthetic workloads only"):
        scaling_bench(spec, [64, 128], token_budget=256, config=MuseConfig(c_q=8, c_k=8))


def test_scaling_bench_rejects_no_reps_and_empty_n():
    spec = WorkloadSpec(kind="isotropic_gaussian", heads=1, d=8, seed=0)
    cfg = MuseConfig(c_q=8, c_k=8)
    with pytest.raises(ValueError, match="reps must be >= 1"):
        scaling_bench(spec, [64], token_budget=1024, config=cfg, reps=0)
    with pytest.raises(ValueError, match="reps must be an integer"):
        scaling_bench(spec, [64], token_budget=1024, config=cfg, reps=2.0)
    for bad in ([0], [64, 0], [-64]):
        with pytest.raises(ValueError, match="n must be >= 1"):
            scaling_bench(spec, bad, token_budget=1024, config=cfg)
    for bad in ([64.0], [64, 128.0]):
        with pytest.raises(ValueError, match="every n must be an integer"):
            scaling_bench(spec, bad, token_budget=1024, config=cfg)


def test_causal_bench_hierarchical_and_degenerate():
    spec = WorkloadSpec(kind="isotropic_gaussian", n=256, d=8, seed=0)
    cfg = MuseConfig(c_q=16, c_k=16, seed=0, near_min=1)
    assert causal_plan(256, 32, cfg).muse_query_rows > 0
    hier = causal_bench(spec, cfg, block=32)
    assert hier.metadata["path"] == "hierarchical" and hier.metadata["near"] == 32
    assert hier.metadata["muse_query_rows"] == (256 // 2) * 3
    assert len(hier.rows) == 2
    flat = causal_bench(spec, cfg, block=256)
    assert flat.metadata["path"] == "exact path (no MuSe blocks)"
    assert flat.metadata["muse_query_rows"] == 0
    muse_row = next(r for r in flat.rows if r.label == "muse_causal")
    assert muse_row.rel_sq_error <= 1e-24, "degenerate plan is exact"
    # C = 128 > b = 8: spans 8-64 run in the exact near field, only span 128 is clustered
    near = causal_bench(spec, MuseConfig(c_q=128, c_k=128, seed=0, near_min=1), block=8)
    assert near.metadata == {"levels": 1, "muse_query_rows": 128, "near": 128, "path": "hierarchical"}
    with pytest.raises(ValueError, match="seeds must be >= 1"):
        causal_bench(spec, cfg, block=32, seeds=0)


def test_causal_bench_reads_shapes_from_a_file_workload(tmp_path):
    # the file's (1, 1, 64, 8) tensors, not the spec's n=256 and d=16, set the plan and the scale
    path = tmp_path / "qkv.bin"
    save_qkv(path, *generate(WorkloadSpec(kind="isotropic_gaussian", n=64, d=8, seed=0)))
    spec = WorkloadSpec(kind="file", path=str(path), n=256, d=16)
    cfg = MuseConfig(c_q=8, c_k=8, seed=0, near_min=1)
    assert causal_plan(64, 16, cfg).muse_query_rows > 0
    flat = causal_bench(spec, cfg, block=64)
    assert flat.metadata["muse_query_rows"] == 0
    assert next(r for r in flat.rows if r.label == "muse_causal").rel_sq_error <= 1e-24
    hier = causal_bench(spec, cfg, block=16)
    assert hier.metadata == {"levels": 2, "muse_query_rows": 64, "near": 16, "path": "hierarchical"}
    assert [r.tokens_processed for r in hier.rows] == [64, 128]


@pytest.mark.parametrize("driver, label", [
    (lambda spec, cfg: error_sweep(spec, [cfg], seeds=1), "C=64"),
    (lambda spec, cfg: ablation_run(spec, cfg, seeds=1), "full"),
], ids=["error_sweep", "ablation_run"])
def test_acausal_drivers_read_shapes_from_a_file_workload(tmp_path, driver, label):
    # C = n is exact; the (1, 1, 64, 8) file, not the spec's n=256 and d=16,
    # sets the reference scale and the token count
    path = tmp_path / "qkv.bin"
    save_qkv(path, *generate(WorkloadSpec(kind="isotropic_gaussian", n=64, d=8, seed=0)))
    spec = WorkloadSpec(kind="file", path=str(path), n=256, d=16)
    report = driver(spec, MuseConfig(c_q=64, c_k=64, seed=0))
    row = next(r for r in report.rows if r.label == label)
    assert row.rel_sq_error <= 1e-24
    assert all(r.tokens_processed == 64 for r in report.rows)


def test_fd_sensitivity_validation():
    q, k, v = generate(WorkloadSpec(n=32, d=4, seed=0))
    cfg = MuseConfig(c_q=4, c_k=4, seed=0)
    for eps in (0.0, -1e-5, np.nan, np.inf):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            fd_sensitivity(q, k, v, cfg, np.zeros_like(q), eps=eps)
    with pytest.raises(ValueError, match="direction must match"):
        fd_sensitivity(q, k, v, cfg, np.zeros((1, 1, 4, 4)), eps=1e-5)


def test_fd_sensitivity_exact_at_corner():
    # with one cluster per token the approximation is exact, so both
    # directional derivatives coincide up to finite-difference noise
    q, k, v = generate(WorkloadSpec(n=48, d=8, seed=1))
    cfg = MuseConfig(c_q=48, c_k=48, kmeans_iters=2, seed=0)
    rng = np.random.default_rng(2)
    direction = rng.normal(size=q.shape)
    direction /= np.linalg.norm(direction)
    out = fd_sensitivity(q, k, v, cfg, direction, eps=1e-5)
    assert out["rel_gap"] <= 1e-4


def test_fd_sensitivity_smooth_branch_stable_in_eps():
    # frozen assignments make the approximation differentiable, so the FD
    # estimate of its derivative stabilizes as eps shrinks
    q, k, v = generate(WorkloadSpec(n=128, d=8, seed=3))
    cfg = MuseConfig(c_q=8, c_k=8, kmeans_iters=2, seed=0)
    rng = np.random.default_rng(4)
    direction = rng.normal(size=q.shape)
    direction /= np.linalg.norm(direction)
    outs = {eps: fd_sensitivity(q, k, v, cfg, direction, eps=eps)
            for eps in (1e-4, 1e-5, 1e-6)}
    for eps, out in outs.items():
        assert np.isfinite(out["muse_dd"]).all() and np.isfinite(out["exact_dd"]).all()
        assert np.isfinite(out["rel_gap"])
    a, b = outs[1e-4]["muse_dd"], outs[1e-5]["muse_dd"]
    assert np.linalg.norm(a - b) / np.linalg.norm(b) < 1e-5


def test_report_json_schema_and_determinism():
    base = MuseConfig(c_q=16, c_k=16, seed=0)
    a = ablation_run(SMALL_MIX, base, seeds=2)
    b = ablation_run(SMALL_MIX, base, seeds=2)
    ja, jb = a.to_json(include_timing=False), b.to_json(include_timing=False)
    assert ja == jb, "timing-free reports must be byte-identical"
    doc = json.loads(ja)
    assert set(doc) == {"kind", "config", "rows", "aggregates", "metadata"}
    assert set(doc["rows"][0]) == {"label", "c", "iters", "cap_ratio", "seed",
                                   "rel_sq_error", "tokens_processed"}
    with_timing = json.loads(a.to_json())
    assert "wall_time_ms" in with_timing["rows"][0]


def test_report_csv_header():
    report = error_sweep(SMALL_MIX, [MuseConfig(c_q=8, c_k=8, seed=0)], seeds=1)
    csv_full = report.to_csv()
    assert csv_full.splitlines()[0] == (
        "label,c,iters,cap_ratio,seed,rel_sq_error,wall_time_ms,tokens_processed")
    csv_bare = report.to_csv(include_timing=False)
    assert "wall_time_ms" not in csv_bare
    assert len(csv_bare.splitlines()) == 2


def test_report_save_roundtrip(tmp_path):
    report = error_sweep(SMALL_MIX, [MuseConfig(c_q=8, c_k=8, seed=0)], seeds=1)
    jpath = tmp_path / "r.json"
    report.save(jpath, fmt="json")
    assert json.loads(jpath.read_text())["kind"] == "error_sweep"
    cpath = tmp_path / "r.csv"
    report.save(cpath, fmt="csv")
    assert cpath.read_text().startswith("label,")


def test_report_validate_rejects_non_finite():
    report = ExperimentReport(kind="x", config={})
    report.rows.append(RunRecord(label="bad", c=1, iters=1, cap_ratio=1.5, seed=0,
                                 rel_sq_error=float("nan"), wall_time_ms=1.0,
                                 tokens_processed=1))
    with pytest.raises(ValueError, match="non-finite metric"):
        report.validate()


@pytest.mark.parametrize("dtype", ["f64", "f32"])
def test_selftest_all_pass(dtype):
    rows = selftest(dtype=dtype, seed=0)
    names = [name for name, _, _ in rows]
    assert names == ["partition_invariance", "exactness_one_cluster_per_token",
                     "exactness_zero_query_residuals", "exactness_singleton_key_clusters",
                     "causal_structural_merge"]
    for name, passed, detail in rows:
        assert passed, f"{name}: {detail}"
