"""Experiment drivers: error sweeps, ablations, scaling benchmarks, causal
benchmarks, finite-difference sensitivity probes, and report serialization.

Every driver computes the exact reference once per workload and shares it
across grid points; reports carry a hash of the reference output so reuse is
checkable. Timings include clustering and merging, never data generation or
I/O. JSON output is schema-stable; wall-clock fields can be omitted to get a
byte-reproducible report for a fixed seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .attention import AttentionResult, attend, attend_causal, merge_partials
from .causal import muse_causal
from .multipole import MuseConfig, cluster_tokens, muse_acausal, rel_sq_error
from .numerics import derive_seed
from .workloads import WorkloadSpec, generate


@dataclass
class RunRecord:
    label: str
    c: int
    iters: int
    cap_ratio: float
    seed: int
    rel_sq_error: float
    wall_time_ms: float
    tokens_processed: int


@dataclass
class ExperimentReport:
    kind: str
    config: dict
    rows: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def validate(self):
        for r in self.rows:
            if not np.isfinite(r.rel_sq_error) or not np.isfinite(r.wall_time_ms):
                raise ValueError(f"non-finite metric in row {r}")
        return self

    def to_dict(self, include_timing: bool = True) -> dict:
        rows = []
        for r in self.rows:
            d = asdict(r)
            if not include_timing:
                d.pop("wall_time_ms")
            rows.append(d)
        return {
            "kind": self.kind,
            "config": self.config,
            "rows": rows,
            "aggregates": self.aggregates,
            "metadata": self.metadata,
        }

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True) + "\n"

    def to_csv(self, include_timing: bool = True) -> str:
        buf = io.StringIO()
        fields = ["label", "c", "iters", "cap_ratio", "seed", "rel_sq_error",
                  "wall_time_ms", "tokens_processed"]
        if not include_timing:
            fields.remove("wall_time_ms")
        writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        for r in self.rows:
            writer.writerow(asdict(r))
        return buf.getvalue()

    def save(self, path, fmt: str = "json", include_timing: bool = True) -> None:
        text = self.to_json(include_timing) if fmt == "json" else self.to_csv(include_timing)
        with open(path, "w") as f:
            f.write(text)


def _result_hash(result: AttentionResult) -> str:
    return hashlib.sha256(np.ascontiguousarray(result.y).tobytes()).hexdigest()[:16]


def _mean_std(values) -> dict:
    a = np.asarray(values, dtype=np.float64)
    return {"mean": float(a.mean()), "std": float(a.std())}


def _per_seed_workloads(spec: WorkloadSpec, seeds: int):
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    for rep in range(seeds):
        wl = replace(spec, seed=derive_seed(spec.seed, rep))
        yield rep, wl, generate(wl)


def error_sweep(spec: WorkloadSpec, grid: list[MuseConfig], seeds: int = 5,
                threads: int = 1) -> ExperimentReport:
    """For each config x seed: one exact reference per workload, one
    approximate run per config, recording relative squared error and wall
    time (clustering included)."""
    if not grid:
        raise ValueError("empty config grid")
    report = ExperimentReport(kind="error_sweep", config={"workload": asdict(spec), "seeds": seeds})
    ref_hashes = {}
    for rep, wl, (q, k, v) in _per_seed_workloads(spec, seeds):
        scale = grid[0].resolve_scale(wl.d)
        reference = attend(q, k, v, scale=scale, threads=threads)
        ref_hashes[rep] = _result_hash(reference)
        for cfg in grid:
            run_cfg = replace(cfg, seed=derive_seed(cfg.seed, rep))
            t0 = time.perf_counter()
            approx = muse_acausal(q, k, v, run_cfg, threads=threads)
            dt_ms = (time.perf_counter() - t0) * 1e3
            report.rows.append(RunRecord(
                label=f"C={cfg.c_k}", c=cfg.c_k, iters=cfg.kmeans_iters,
                cap_ratio=cfg.cap_ratio, seed=wl.seed,
                rel_sq_error=rel_sq_error(reference, approx),
                wall_time_ms=dt_ms, tokens_processed=wl.batch * wl.heads * wl.n,
            ))
    by_label = {}
    for r in report.rows:
        by_label.setdefault((r.label, r.iters, r.cap_ratio), []).append(r.rel_sq_error)
    report.aggregates = {
        f"{lbl} iters={it} cap={cap}": _mean_std(v) for (lbl, it, cap), v in sorted(by_label.items())
    }
    report.metadata = {"reference_hashes": ref_hashes, "timing": "forward only"}
    return report.validate()


def ablation_run(spec: WorkloadSpec, base: MuseConfig, seeds: int = 5,
                 threads: int = 1) -> ExperimentReport:
    """Run all four ablation modes on identical data and report per-seed
    errors plus pairwise ordering verdicts."""
    from .multipole import ABLATIONS

    report = ExperimentReport(kind="ablation", config={
        "workload": asdict(spec), "base": asdict(base), "seeds": seeds,
    })
    per_mode = {m: [] for m in ABLATIONS}
    for rep, wl, (q, k, v) in _per_seed_workloads(spec, seeds):
        reference = attend(q, k, v, scale=base.resolve_scale(wl.d), threads=threads)
        for mode in ABLATIONS:
            cfg = replace(base, ablation=mode, seed=derive_seed(base.seed, rep))
            t0 = time.perf_counter()
            approx = muse_acausal(q, k, v, cfg, threads=threads)
            dt_ms = (time.perf_counter() - t0) * 1e3
            err = rel_sq_error(reference, approx)
            per_mode[mode].append(err)
            report.rows.append(RunRecord(
                label=mode, c=base.c_k, iters=base.kmeans_iters, cap_ratio=base.cap_ratio,
                seed=wl.seed, rel_sq_error=err, wall_time_ms=dt_ms,
                tokens_processed=wl.batch * wl.heads * wl.n,
            ))
    order = ["full", "no_dipole", "single_query_cluster", "no_monopole"]
    verdicts = {}
    for a, b in zip(order, order[1:]):
        verdicts[f"{a}<{b}"] = bool(all(x < y for x, y in zip(per_mode[a], per_mode[b])))
    report.aggregates = {m: _mean_std(v) for m, v in per_mode.items()}
    report.metadata = {"ordering_verdicts": verdicts}
    return report.validate()


def scaling_bench(spec: WorkloadSpec, n_list: list[int], token_budget: int,
                  config: MuseConfig | None = None, reps: int = 5,
                  threads: int = 1) -> ExperimentReport:
    """Time exact attention and the clustered approximation at each n, with
    batch = budget / (heads * n) so total tokens stay fixed. Records the
    median of `reps` repetitions per row."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if any(n < 1 for n in n_list):
        raise ValueError(f"every n must be >= 1, got {list(n_list)}")
    config = config or MuseConfig()
    report = ExperimentReport(kind="scaling_bench", config={
        "workload": asdict(spec), "budget": token_budget, "n_list": list(n_list),
        "reps": reps, "muse": asdict(config),
    })
    medians = {}
    for n in n_list:
        if token_budget % (spec.heads * n) != 0:
            raise ValueError(f"budget {token_budget} not divisible by heads*n = {spec.heads * n}")
        batch = token_budget // (spec.heads * n)
        wl = replace(spec, n=n, batch=batch, seed=derive_seed(spec.seed, n))
        q, k, v = generate(wl)
        scale = config.resolve_scale(wl.d)
        times = {"exact": [], "muse": []}
        err = None
        for _ in range(reps):
            t0 = time.perf_counter()
            reference = attend(q, k, v, scale=scale, threads=threads)
            times["exact"].append((time.perf_counter() - t0) * 1e3)
            t0 = time.perf_counter()
            approx = muse_acausal(q, k, v, config, threads=threads)
            times["muse"].append((time.perf_counter() - t0) * 1e3)
        err = rel_sq_error(reference, approx)
        for impl in ("exact", "muse"):
            med = float(np.median(times[impl]))
            medians[(impl, n)] = med
            report.rows.append(RunRecord(
                label=f"{impl} n={n}", c=config.c_k, iters=config.kmeans_iters,
                cap_ratio=config.cap_ratio, seed=wl.seed,
                rel_sq_error=err if impl == "muse" else 0.0,
                wall_time_ms=med, tokens_processed=token_budget,
            ))
    ratios = {}
    for impl in ("exact", "muse"):
        for n0, n1 in zip(n_list, n_list[1:]):
            ratios[f"{impl} {n1}/{n0}"] = medians[(impl, n1)] / medians[(impl, n0)]
    report.aggregates = {"doubling_ratios": ratios}
    report.metadata = {"timing": "forward only; includes clustering and merges"}
    return report.validate()


def causal_bench(spec: WorkloadSpec, config: MuseConfig, block: int,
                 seeds: int = 1, threads: int = 1) -> ExperimentReport:
    """Compare hierarchical causal approximation against exact causal
    attention: error, wall times, and the block plan summary."""
    report = ExperimentReport(kind="causal_bench", config={
        "workload": asdict(spec), "muse": asdict(config), "block": block, "seeds": seeds,
    })
    for rep, wl, (q, k, v) in _per_seed_workloads(spec, seeds):
        scale = config.resolve_scale(wl.d)
        t0 = time.perf_counter()
        reference = attend_causal(q, k, v, scale=scale, threads=threads)
        exact_ms = (time.perf_counter() - t0) * 1e3
        cfg = replace(config, seed=derive_seed(config.seed, rep))
        t0 = time.perf_counter()
        approx, stats = muse_causal(q, k, v, cfg, block, threads=threads, return_stats=True)
        muse_ms = (time.perf_counter() - t0) * 1e3
        err = rel_sq_error(reference, approx)
        report.rows.append(RunRecord(
            label="exact_causal", c=config.c_k, iters=config.kmeans_iters,
            cap_ratio=config.cap_ratio, seed=wl.seed, rel_sq_error=0.0,
            wall_time_ms=exact_ms, tokens_processed=wl.batch * wl.heads * wl.n,
        ))
        report.rows.append(RunRecord(
            label="muse_causal", c=config.c_k, iters=config.kmeans_iters,
            cap_ratio=config.cap_ratio, seed=wl.seed, rel_sq_error=err,
            wall_time_ms=muse_ms,
            tokens_processed=wl.batch * wl.heads * (stats.muse_rows + stats.exact_rows),
        ))
    # the plan as run: levels too short to cluster are part of the exact near field
    report.metadata = {
        "levels": stats.levels,
        "muse_query_rows": stats.muse_rows,
        "path": "exact path (no MuSe blocks)" if stats.muse_rows == 0 else "hierarchical",
    }
    errs = [r.rel_sq_error for r in report.rows if r.label == "muse_causal"]
    report.aggregates = {"muse_causal": _mean_std(errs)}
    return report.validate()


def fd_sensitivity(q, k, v, config: MuseConfig, direction, eps: float,
                   threads: int = 1) -> dict:
    """Central-difference directional derivatives of exact and approximate
    outputs with respect to q along a unit perturbation.

    The clustering is frozen at the base point (assignments fixed, centroids
    recomputed from the perturbed queries), probing the smooth branch of the
    piecewise-smooth map.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    direction = np.asarray(direction, dtype=q.dtype)
    if direction.shape != q.shape:
        raise ValueError("direction must match q's shape")
    scale = config.resolve_scale(q.shape[3])
    clusters = cluster_tokens(q, k, config, threads=threads)

    def exact_at(dq):
        return attend(q + dq, k, v, scale=scale, threads=threads).y

    def muse_at(dq):
        return muse_acausal(q + dq, k, v, config, threads=threads, clusters=clusters).y

    exact_dd = (exact_at(eps * direction) - exact_at(-eps * direction)) / (2 * eps)
    muse_dd = (muse_at(eps * direction) - muse_at(-eps * direction)) / (2 * eps)
    if not (np.isfinite(exact_dd).all() and np.isfinite(muse_dd).all()):
        raise ValueError("non-finite differences")
    denom = float(np.linalg.norm(exact_dd))
    gap = float(np.linalg.norm(muse_dd - exact_dd))
    return {"exact_dd": exact_dd, "muse_dd": muse_dd,
            "rel_gap": gap / denom if denom > 0 else np.inf}


def selftest(dtype: str = "f64", seed: int = 0, threads: int = 1) -> list[tuple[str, bool, str]]:
    """Exactness-corner and partition-invariance checks; returns one
    (name, passed, detail) row per property."""
    results = []
    tol = 1e-10 if dtype == "f64" else 1e-4

    spec = WorkloadSpec(kind="isotropic_gaussian", batch=1, heads=2, n=48, d=8,
                        seed=seed, dtype=dtype)
    q, k, v = generate(spec)
    scale = 1.0 / np.sqrt(spec.d)
    full = attend(q, k, v, scale=scale, threads=threads)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        bounds = sorted(rng.choice(np.arange(1, spec.n), size=2, replace=False))
        pieces = np.split(np.arange(spec.n), bounds)
        parts = [attend(q, k[:, :, idx], v[:, :, idx], scale=scale) for idx in pieces]
        merged = merge_partials(parts)
        worst = max(worst, rel_sq_error(full, merged))
    results.append(("partition_invariance", worst <= (1e-20 if dtype == "f64" else 1e-8),
                    f"max rel_sq_error {worst:.3e}"))

    cfg = MuseConfig(c_q=spec.n, c_k=spec.n, kmeans_iters=2, seed=seed)
    err = rel_sq_error(full, muse_acausal(q, k, v, cfg, threads=threads))
    results.append(("exactness_one_cluster_per_token", err <= tol, f"rel_sq_error {err:.3e}"))

    reps = spec.n // 4
    q_rep = np.repeat(q[:, :, :4, :], reps, axis=2)
    full_rep = attend(q_rep, k, v, scale=scale, threads=threads)
    cfg = MuseConfig(c_q=4, c_k=8, kmeans_iters=5, seed=seed)
    err = rel_sq_error(full_rep, muse_acausal(q_rep, k, v, cfg, threads=threads))
    results.append(("exactness_zero_query_residuals", err <= tol, f"rel_sq_error {err:.3e}"))

    cfg = MuseConfig(c_q=6, c_k=spec.n, kmeans_iters=2, seed=seed)
    err = rel_sq_error(full, muse_acausal(q, k, v, cfg, threads=threads))
    results.append(("exactness_singleton_key_clusters", err <= tol, f"rel_sq_error {err:.3e}"))

    cspec = WorkloadSpec(kind="isotropic_gaussian", batch=1, heads=1, n=64, d=8,
                         seed=seed + 1, dtype=dtype)
    cq, ck, cv = generate(cspec)
    ref = attend_causal(cq, ck, cv, scale=1.0 / np.sqrt(cspec.d), threads=threads)
    swap, _ = muse_causal(cq, ck, cv, MuseConfig(c_q=4, c_k=4, seed=seed), b=16,
                          threads=threads, return_stats=True,
                          block_fn=lambda a, b_, c_: attend(a, b_, c_, scale=1.0 / np.sqrt(cspec.d)))
    err = rel_sq_error(ref, swap)
    results.append(("causal_structural_merge", err <= (1e-20 if dtype == "f64" else 1e-8),
                    f"rel_sq_error {err:.3e}"))
    return results
