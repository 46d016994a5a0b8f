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
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import pairwise

import numpy as np

from .attention import AttentionResult, attend, attend_causal
from .causal import causal_plan, muse_causal
from .multipole import MuseConfig, cluster_tokens, muse_acausal, rel_sq_error
from .numerics import check_integer, derive_seed
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
        columns = [f.name for f in fields(RunRecord)]
        if not include_timing:
            columns.remove("wall_time_ms")
        writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        for r in self.rows:
            writer.writerow(asdict(r))
        return buf.getvalue()

    def save(self, path, fmt: str = "json", include_timing: bool = True) -> None:
        if fmt not in ("json", "csv"):
            raise ValueError(f"unknown report format {fmt!r}: expected 'json' or 'csv'")
        text = self.to_json(include_timing) if fmt == "json" else self.to_csv(include_timing)
        with open(path, "w") as f:
            f.write(text)


def _result_hash(result: AttentionResult) -> str:
    return hashlib.sha256(np.ascontiguousarray(result.y).tobytes()).hexdigest()[:16]


def _mean_std(values) -> dict:
    a = np.asarray(values, dtype=np.float64)
    return {"mean": float(a.mean()), "std": float(a.std())}


def _per_seed_workloads(spec: WorkloadSpec, seeds: int):
    check_integer(seeds, "seeds")
    if seeds < 1:
        raise ValueError("seeds must be >= 1")
    for rep in range(seeds):
        wl = replace(spec, seed=derive_seed(spec.seed, rep))
        yield rep, wl, generate(wl)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, (time.perf_counter() - t0) * 1e3


def _record(label: str, cfg: MuseConfig, seed: int, err: float, ms: float, tokens: int) -> RunRecord:
    return RunRecord(label=label, c=cfg.c_k, iters=cfg.kmeans_iters, cap_ratio=cfg.cap_ratio,
                     seed=seed, rel_sq_error=err, wall_time_ms=ms, tokens_processed=tokens)


def _acausal_runs(report, spec: WorkloadSpec, runs: list, seeds: int, threads: int) -> dict:
    """Per seed workload, one exact reference, then one timed `muse_acausal`
    row per (label, config) run. Scale and token count come from the tensors.
    Returns the reference hash of each rep."""
    ref_hashes = {}
    for rep, wl, (q, k, v) in _per_seed_workloads(spec, seeds):
        scales = {cfg.resolve_scale(q.shape[3]) for _, cfg in runs}
        if len(scales) > 1:
            raise ValueError(f"configs resolve to different scales {sorted(scales)} for one reference")
        reference = attend(q, k, v, scale=scales.pop(), threads=threads)
        ref_hashes[rep] = _result_hash(reference)
        for label, cfg in runs:
            run_cfg = replace(cfg, seed=derive_seed(cfg.seed, rep))
            approx, ms = _timed(lambda: muse_acausal(q, k, v, run_cfg, threads=threads))
            report.rows.append(_record(label, cfg, wl.seed, rel_sq_error(reference, approx), ms,
                                       math.prod(q.shape[:3])))
    return ref_hashes


def error_sweep(spec: WorkloadSpec, grid: list[MuseConfig], seeds: int = 5,
                threads: int = 1) -> ExperimentReport:
    """For each config x seed: one exact reference per workload, one
    approximate run per config, recording relative squared error and wall
    time (clustering included). Every config must resolve to one scale."""
    if not grid:
        raise ValueError("empty config grid")
    report = ExperimentReport(kind="error_sweep", config={"workload": asdict(spec), "seeds": seeds})
    # a row's label is C=c_k, then c_q if any config's c_q is not its c_k, then
    # each other field that differs across the grid; aggregates add iters and cap
    named = ["c_q"] * any(c.c_q != c.c_k for c in grid) + [
        f.name for f in fields(MuseConfig) if f.name not in ("c_q", "c_k", "kmeans_iters", "cap_ratio")
        and len({getattr(c, f.name) for c in grid}) > 1]
    labels = [" ".join([f"C={c.c_k}", *(f"{n}={getattr(c, n)}" for n in named)]) for c in grid]
    ref_hashes = _acausal_runs(report, spec, list(zip(labels, grid)), seeds, threads)
    by_point = {}
    for r in report.rows:
        by_point.setdefault(f"{r.label} iters={r.iters} cap={r.cap_ratio}", []).append(r.rel_sq_error)
    report.aggregates = {point: _mean_std(v) for point, v in by_point.items()}
    report.metadata = {"reference_hashes": ref_hashes, "timing": "forward only"}
    return report.validate()


def ablation_run(spec: WorkloadSpec, base: MuseConfig, seeds: int = 5,
                 threads: int = 1) -> ExperimentReport:
    """Run `base` as full, no_dipole, single_query_cluster (c_q=1, key-only
    clustering) and no_monopole on identical data; report per-seed errors and
    the ordering verdict of each neighbouring pair in that order."""
    full = replace(base, ablation="full")
    report = ExperimentReport(kind="ablation", config={
        "workload": asdict(spec), "base": asdict(full), "seeds": seeds,
    })
    runs = {"full": full, "no_dipole": replace(base, ablation="no_dipole"),
            "single_query_cluster": replace(base, ablation="full", c_q=1),
            "no_monopole": replace(base, ablation="no_monopole")}
    _acausal_runs(report, spec, list(runs.items()), seeds, threads)
    per_mode = {m: [r.rel_sq_error for r in report.rows if r.label == m] for m in runs}
    verdicts = {f"{a}<{b}": all(x < y for x, y in zip(per_mode[a], per_mode[b]))
                for a, b in pairwise(runs)}
    report.aggregates = {m: _mean_std(v) for m, v in per_mode.items()}
    report.metadata = {"ordering_verdicts": verdicts}
    return report.validate()


def scaling_bench(spec: WorkloadSpec, n_list: list[int], token_budget: int,
                  config: MuseConfig | None = None, reps: int = 5,
                  threads: int = 1) -> ExperimentReport:
    """Time exact attention and the clustered approximation at each n, with
    batch = budget / (heads * n) so total tokens stay fixed. Records the
    median of `reps` repetitions per row. Synthetic workloads only."""
    if spec.kind == "file":
        raise ValueError("scaling_bench takes synthetic workloads only: n_list cannot resize a file")
    check_integer(reps, "reps")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    check_integer(token_budget, "token_budget")
    if token_budget < 1:
        raise ValueError(f"token_budget must be >= 1, got {token_budget}")
    for n in n_list:
        check_integer(n, "every n")
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
        scale = config.resolve_scale(q.shape[3])
        times = {"exact": [], "muse": []}
        for _ in range(reps):
            reference, ms = _timed(lambda: attend(q, k, v, scale=scale, threads=threads))
            times["exact"].append(ms)
            approx, ms = _timed(lambda: muse_acausal(q, k, v, config, threads=threads))
            times["muse"].append(ms)
        errs = {"exact": 0.0, "muse": rel_sq_error(reference, approx)}
        for impl in ("exact", "muse"):
            medians[(impl, n)] = float(np.median(times[impl]))
            report.rows.append(_record(f"{impl} n={n}", config, wl.seed, errs[impl],
                                       medians[(impl, n)], token_budget))
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
    attention: error, wall times, and the summary of the plan `muse_causal`
    ran. Shapes come from the tensors, so a file workload sets its own."""
    report = ExperimentReport(kind="causal_bench", config={
        "workload": asdict(spec), "muse": asdict(config), "block": block, "seeds": seeds,
    })
    for rep, wl, (q, k, v) in _per_seed_workloads(spec, seeds):
        bsz, h, n, d = q.shape
        scale = config.resolve_scale(d)
        reference, exact_ms = _timed(lambda: attend_causal(q, k, v, scale=scale, threads=threads))
        cfg = replace(config, seed=derive_seed(config.seed, rep))
        approx, muse_ms = _timed(lambda: muse_causal(q, k, v, cfg, block, threads=threads))
        plan = causal_plan(n, block, config)
        report.rows.append(_record("exact_causal", config, wl.seed, 0.0, exact_ms, bsz * h * n))
        report.rows.append(_record("muse_causal", config, wl.seed, rel_sq_error(reference, approx),
                                   muse_ms, bsz * h * (plan.muse_query_rows + n)))
    report.metadata = {
        "levels": len(plan.levels),
        "muse_query_rows": plan.muse_query_rows,
        "near": plan.near,
        "path": "exact path (no MuSe blocks)" if plan.muse_query_rows == 0 else "hierarchical",
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
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    direction = np.asarray(direction, dtype=q.dtype)
    if direction.shape != q.shape:
        raise ValueError("direction must match q's shape")
    if not np.isfinite(direction).all():
        raise ValueError("direction contains non-finite entries")
    if not direction.any():
        raise ValueError("direction must be nonzero")
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
