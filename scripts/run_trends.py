"""Desk-scale trend reproduction: error vs cluster count, ablation ordering,
error vs mixture spread, causal vs acausal accuracy, and (optionally) the
fixed-budget wall-time scaling comparison.

Writes one JSON report per experiment to --out-dir and prints compact tables.

    python3 scripts/run_trends.py --out-dir reports
    python3 scripts/run_trends.py --out-dir reports --with-scaling
"""

import argparse
import os

from muse import (
    MuseConfig,
    WorkloadSpec,
    ablation_run,
    causal_bench,
    error_sweep,
    scaling_bench,
)


def cluster_count_trend(args):
    spec = WorkloadSpec(kind="gaussian_mixture", n=1024, d=16, c_true=512,
                        spread=0.8, seed=args.seed)
    grid = [MuseConfig(c_q=c, c_k=c, kmeans_iters=2, seed=args.seed)
            for c in (16, 32, 64, 128)]
    report = error_sweep(spec, grid, seeds=args.seeds, threads=args.threads)
    print("\nerror vs cluster count (mixture n=1024 d=16 c_true=512 spread=0.8)")
    print("C\tmean rel sq err\tstd")
    for label, agg in sorted(report.aggregates.items(),
                             key=lambda kv: int(kv[0].split()[0][2:])):
        c = label.split()[0][2:]
        print(f"{c}\t{agg['mean']:.4f}\t\t{agg['std']:.4f}")
    m = {lbl.split()[0]: agg["mean"] for lbl, agg in report.aggregates.items()}
    print(f"quadrupling 16 -> 64 multiplies error by {m['C=64'] / m['C=16']:.3f}")
    return "cluster_count_trend", report


def ablation_ordering(args):
    spec = WorkloadSpec(kind="gaussian_mixture", n=1024, d=16, c_true=16,
                        spread=0.15, centroid_scale=1.2, seed=args.seed)
    base = MuseConfig(c_q=128, c_k=128, kmeans_iters=3, cap_ratio=3.0, seed=args.seed)
    report = ablation_run(spec, base, seeds=args.seeds, threads=args.threads)
    print("\nablation ordering (mixture n=1024 d=16 c_true=16 spread=0.15)")
    print("mode\t\t\tmean rel sq err\tstd")
    for mode in ("full", "no_dipole", "single_query_cluster", "no_monopole"):
        agg = report.aggregates[mode]
        print(f"{mode:<22s}\t{agg['mean']:.3e}\t{agg['std']:.3e}")
    print(f"per-seed ordering verdicts: {report.metadata['ordering_verdicts']}")
    return "ablation_ordering", report


def spread_curve(args):
    cfg = MuseConfig(c_q=64, c_k=64, kmeans_iters=2, seed=args.seed)
    print("\nerror vs mixture spread (single component, n=1024 d=16, C=64)")
    print("spread\tmean rel sq err")
    last, reports = None, []
    for spread in (0.4, 0.2, 0.1, 0.05):
        spec = WorkloadSpec(kind="gaussian_mixture", n=1024, d=16, c_true=1,
                            spread=spread, seed=args.seed)
        report = error_sweep(spec, [cfg], seeds=args.seeds, threads=args.threads)
        mean = next(iter(report.aggregates.values()))["mean"]
        note = "" if last is None else f"\t({mean / last:.3f} x previous)"
        print(f"{spread}\t{mean:.3e}{note}")
        last = mean
        reports.append((f"spread_{spread}", report))
    return reports


def causal_accuracy(args):
    # n = 8192 so that the default near field (2048 rows) leaves clustered levels
    spec = WorkloadSpec(kind="gaussian_mixture", n=8192, d=16, c_true=16,
                        spread=0.3, seed=args.seed)
    cfg = MuseConfig(c_q=32, c_k=32, kmeans_iters=2, seed=args.seed)
    report = causal_bench(spec, cfg, block=256, seeds=args.seeds, threads=args.threads)
    agg = report.aggregates["muse_causal"]
    print("\nhierarchical causal accuracy (mixture n=8192, block=256, C=32)")
    print(f"mean rel sq err {agg['mean']:.3e} (std {agg['std']:.3e}), "
          f"{report.metadata['muse_query_rows']} approximated query rows, "
          f"{report.metadata['levels']} levels above a near field of {report.metadata['near']} rows")
    return "causal_accuracy", report


def scaling(args):
    spec = WorkloadSpec(kind="isotropic_gaussian", heads=1, d=16, dtype="f32",
                        seed=args.seed)
    report = scaling_bench(spec, [1024, 2048, 4096], token_budget=2 ** 18,
                           config=MuseConfig(seed=args.seed), reps=5,
                           threads=args.threads)
    print("\nwall time at fixed token budget 2^18 (f32, median of 5)")
    print("row\t\t\tms")
    for r in report.rows:
        print(f"{r.label:<16s}\t{r.wall_time_ms:.1f}")
    print("doubling ratios:", {k: round(v, 2)
                               for k, v in report.aggregates["doubling_ratios"].items()})
    return "scaling", report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="reports", help="report directory")
    parser.add_argument("--seeds", type=int, default=5, help="workload draws per point")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--with-scaling", action="store_true",
                        help="also run the (slow) fixed-budget scaling comparison")
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    results = [cluster_count_trend(args), ablation_ordering(args)]
    results.extend(spread_curve(args))
    results.append(causal_accuracy(args))
    if args.with_scaling:
        results.append(scaling(args))
    for name, report in results:
        path = os.path.join(args.out_dir, f"{name}.json")
        report.save(path, fmt="json")
    print(f"\nwrote {len(results)} reports to {args.out_dir}/")


if __name__ == "__main__":
    main()
