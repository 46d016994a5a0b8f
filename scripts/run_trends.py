"""Desk-scale trend reproduction: error vs cluster count, ablation ordering,
error vs mixture spread, causal vs acausal accuracy, and (optionally) the
fixed-budget wall-time scaling comparison.

The first three trends each run as one sweep over the committed point that
tests/test_acceptance.py checks and the alternatives it was chosen from,
printed as one table with the committed row marked and its requirement.
Each committed run, and the last two trends, write one JSON report per
experiment to --out-dir. Three choices needed the sweeps:

1. The ablation workload (component scale and clustering capacity). The
   no_monopole mode only loses badly when attention is sharp, which needs
   well-separated mixture components; but the capacity cap can then split
   a component across clusters (uniform seeding puts several seeds in one
   component and none in another), polluting the value-key covariance and
   flipping the full vs no_dipole ordering in some seed. With 5 seeds the
   sweep shows no_monopole above 0.5 from centroid_scale=1.1 on, the
   ordering holding at cap_ratio=1.5 and C=64 only up to scale 1.1, and at
   cap_ratio=3.0 and C=128 up to 1.2 but not at 1.3: centroid_scale=1.2
   with cap_ratio=3.0 and C=128 is the sharpest point that satisfies both
   requirements.

2. The cluster-count workload. With strong cluster structure the error is
   dominated by which components get split, not by C, so the quadrupling
   ratio is erratic. Unstructured data (c_true=512, spread 0.8) restores a
   smooth error-vs-C curve.

3. The spread-curve workload. Same mechanism: with c_true > 1 the error
   floor is set by component splitting and stops falling with spread, so the
   curve uses a single component.

    python3 scripts/run_trends.py --out-dir reports
    python3 scripts/run_trends.py --out-dir reports --with-scaling
"""

import argparse
import os
from itertools import pairwise

from muse import MuseConfig, WorkloadSpec, ablation_run, causal_bench, error_sweep, scaling_bench


def mark(point, committed):
    return "  <- committed" if point == committed else ""


def mixture(args, **fields):
    """The n=1024, d=16 mixture workload that the three sweeps vary."""
    return WorkloadSpec(kind="gaussian_mixture", n=1024, d=16, seed=args.seed, **fields)


def cluster_count_trend(args):
    committed = (512, 0.8)  # c_true, spread
    cs = (16, 32, 64, 128)
    grid = [MuseConfig(c_q=c, c_k=c, kmeans_iters=2, seed=args.seed) for c in cs]
    print(f"\nerror vs cluster count C (mixture n=1024 d=16, {args.seeds} seeds); "
          "requires ratio C=64 / C=16 in [0.3, 0.8]")
    print("c_true\tspread\t" + "\t".join(f"C={c}" for c in cs) + "\tratio\tin range")
    reports = {}
    for c_true, spread in ((16, 0.15), (16, 0.8), (128, 0.8), committed):
        report = reports[c_true, spread] = error_sweep(
            mixture(args, c_true=c_true, spread=spread), grid, seeds=args.seeds, threads=args.threads)
        means = dict(zip(cs, (agg["mean"] for agg in report.aggregates.values())))
        ratio = means[64] / means[16]
        print(f"{c_true}\t{spread}\t" + "\t".join(f"{m:.4f}" for m in means.values())
              + f"\t{ratio:.3f}\t{0.3 <= ratio <= 0.8}" + mark((c_true, spread), committed))
    return [("cluster_count_trend", reports[committed])]


def ablation_ordering(args):
    committed = (1.2, 3.0, 128)  # centroid_scale, cap_ratio, C
    modes = ("full", "no_dipole", "single_query_cluster", "no_monopole")
    print(f"\nablation ordering (mixture n=1024 d=16 c_true=16 spread=0.15, {args.seeds} seeds); "
          "requires ordering ok and no_monopole mean > 0.5")
    print("scale\tcap\tC\tordering ok\t" + "\t".join(modes))
    reports = {}
    for scale in (1.0, 1.1, 1.2, 1.3):
        for cap_ratio, c in ((1.5, 64), (3.0, 128)):
            spec = mixture(args, c_true=16, spread=0.15, centroid_scale=scale)
            base = MuseConfig(c_q=c, c_k=c, kmeans_iters=3, cap_ratio=cap_ratio, seed=args.seed)
            report = reports[scale, cap_ratio, c] = ablation_run(
                spec, base, seeds=args.seeds, threads=args.threads)
            ok = all(report.metadata["ordering_verdicts"].values())
            means = "\t".join(f"{report.aggregates[m]['mean']:.3e}" for m in modes)
            print(f"{scale}\t{cap_ratio}\t{c}\t{str(ok):<8s}\t{means}"
                  + mark((scale, cap_ratio, c), committed))
    return [("ablation_ordering", reports[committed])]


def spread_curve(args):
    committed = 1  # c_true
    spreads = (0.4, 0.2, 0.1, 0.05)
    cfg = MuseConfig(c_q=64, c_k=64, kmeans_iters=2, seed=args.seed)
    print(f"\nerror vs mixture spread (n=1024 d=16, C=64, {args.seeds} seeds); "
          "requires ratio to previous <= 0.5 per halving")
    print("c_true\t" + "\t".join(f"spread {s}" for s in spreads) + "\tratio to previous")
    reports = {}
    for c_true in (16, committed):
        means = []
        for spread in spreads:
            report = reports[c_true, spread] = error_sweep(
                mixture(args, c_true=c_true, spread=spread), [cfg], seeds=args.seeds, threads=args.threads)
            means.append(next(iter(report.aggregates.values()))["mean"])
        ratios = " ".join(f"{b / a:.3f}" for a, b in pairwise(means))
        print(f"{c_true}\t" + "\t".join(f"{m:.3e}" for m in means) + f"\t{ratios}"
              + mark(c_true, committed))
    return [(f"spread_{spread}", reports[committed, spread]) for spread in spreads]


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
    return [("causal_accuracy", report)]


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
    return [("scaling", report)]


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
    trends = [cluster_count_trend, ablation_ordering, spread_curve, causal_accuracy]
    if args.with_scaling:
        trends.append(scaling)
    results = [result for trend in trends for result in trend(args)]
    for name, report in results:
        report.save(os.path.join(args.out_dir, f"{name}.json"), fmt="json")
    print(f"\nwrote {len(results)} reports to {args.out_dir}/")


if __name__ == "__main__":
    main()
