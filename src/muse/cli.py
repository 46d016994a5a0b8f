"""Command-line benchmark harness.

Subcommands:
  selftest      exactness corners and merge invariance, exit 0 iff all pass
  error-sweep   approximation error over a cluster-count/iteration/cap grid
  ablate        the full method and three ablations on identical data
  bench         fixed-token-budget scaling comparison, exact vs clustered
  causal-bench  hierarchical causal approximation vs exact causal attention
  gen-qkv       write a synthetic workload to the binary tensor format

One --seed controls everything; per-run seeds are derived from it, so any
report is reproducible from the command line alone. With --omit-timing the
report is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import itertools
import sys

from .experiments import (
    ablation_run,
    causal_bench,
    error_sweep,
    scaling_bench,
    selftest,
)
from .multipole import MuseConfig
from .workloads import WorkloadSpec, generate, save_qkv

_KIND = {"isotropic": "isotropic_gaussian", "mixture": "gaussian_mixture", "file": "file"}


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t]


def _float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t]


def _add_workload_args(p, n=1024, d=16, batch=1, heads=1):
    p.add_argument("--workload", choices=sorted(_KIND), default="isotropic",
                   help="synthetic family or binary tensor file")
    p.add_argument("--path", help="input path when --workload file")
    p.add_argument("--batch", type=int, default=batch)
    p.add_argument("--heads", type=int, default=heads)
    p.add_argument("--n", type=int, default=n, help="sequence length")
    p.add_argument("--d", type=int, default=d, help="head dimension")
    p.add_argument("--c-true", type=int, default=16,
                   help="mixture component count (mixture workload only)")
    p.add_argument("--spread", type=float, default=0.1,
                   help="mixture within-component standard deviation")
    p.add_argument("--dtype", choices=["f32", "f64"], default="f64")


def _add_muse_args(p, grid=True):
    # a grid command takes comma- or space-separated lists, and its grid is their
    # cartesian product; the other commands take one value per flag
    for flag, one, many, default, text in (
            ("--clusters", int, _int_list, 64, "cluster count{}, applied to queries and keys"),
            ("--iters", int, _int_list, 1, "refinement iteration count{}"),
            ("--cap-ratio", float, _float_list, 1.5, "cluster size cap as a multiple of the even share")):
        text = f"{text.format('(s)' if grid else '')} (default {default})"
        if grid:
            p.add_argument(flag, type=many, nargs="+", default=[[default]], help=text)
        else:
            p.add_argument(flag, type=one, default=default, help=text)
    p.add_argument("--scale", type=float, default=None,
                   help="score scale, default 1/sqrt(d)")


def _add_common_args(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--omit-timing", action="store_true",
                   help="drop wall-clock fields for byte-reproducible reports")


def _workload_from_args(args) -> WorkloadSpec:
    return WorkloadSpec(kind=_KIND[args.workload], batch=args.batch, heads=args.heads,
                        n=args.n, d=args.d, c_true=args.c_true, spread=args.spread,
                        seed=args.seed, path=args.path, dtype=args.dtype)


def _configs_from_args(args) -> list[MuseConfig]:
    """One MuseConfig per point of the --clusters x --iters x --cap-ratio
    grid; the single-value commands parse plain numbers, one point."""
    axes = [[x for group in a for x in group] if isinstance(a, list) else [a]
            for a in (args.clusters, args.iters, args.cap_ratio)]
    return [MuseConfig(c_q=c, c_k=c, kmeans_iters=it, cap_ratio=cap, scale=args.scale, seed=args.seed)
            for c, it, cap in itertools.product(*axes)]


def _emit(report, args) -> None:
    include_timing = not args.omit_timing
    if args.out:
        report.save(args.out, fmt=args.format, include_timing=include_timing)
    else:
        text = (report.to_json(include_timing) if args.format == "json"
                else report.to_csv(include_timing))
        sys.stdout.write(text)


def _cmd_selftest(args) -> int:
    rows = selftest(dtype=args.dtype, seed=args.seed, threads=args.threads)
    for name, passed, detail in rows:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    return 0 if all(p for _, p, _ in rows) else 1


def _cmd_error_sweep(args) -> int:
    report = error_sweep(_workload_from_args(args), _configs_from_args(args),
                         seeds=args.seeds, threads=args.threads)
    _emit(report, args)
    return 0


def _cmd_ablate(args) -> int:
    [base] = _configs_from_args(args)
    report = ablation_run(_workload_from_args(args), base, seeds=args.seeds,
                          threads=args.threads)
    _emit(report, args)
    return 0


def _cmd_bench(args) -> int:
    [cfg] = _configs_from_args(args)
    report = scaling_bench(_workload_from_args(args), args.n_list, args.budget, config=cfg,
                           reps=args.reps, threads=args.threads)
    _emit(report, args)
    return 0


def _cmd_causal_bench(args) -> int:
    [cfg] = _configs_from_args(args)
    report = causal_bench(_workload_from_args(args), cfg, args.block,
                          seeds=args.seeds, threads=args.threads)
    _emit(report, args)
    return 0


def _cmd_gen_qkv(args) -> int:
    spec = _workload_from_args(args)
    q, k, v = generate(spec)
    save_qkv(args.out, q, k, v)
    print(f"wrote {args.out}: batch={spec.batch} heads={spec.heads} "
          f"n={spec.n} d={spec.d} dtype={spec.dtype}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="muse",
                                     description="clustered attention approximation benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("selftest", help="exactness and invariance checks")
    p.add_argument("--dtype", choices=["f32", "f64"], default="f64")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(fn=_cmd_selftest)

    p = sub.add_parser("error-sweep", help="error over a config grid")
    _add_workload_args(p)
    _add_muse_args(p, grid=True)
    p.add_argument("--seeds", type=int, default=5, help="independent workload draws")
    _add_common_args(p)
    p.set_defaults(fn=_cmd_error_sweep)

    p = sub.add_parser("ablate", help="compare ablation modes")
    _add_workload_args(p)
    _add_muse_args(p, grid=False)
    p.add_argument("--seeds", type=int, default=5)
    _add_common_args(p)
    p.set_defaults(fn=_cmd_ablate)

    p = sub.add_parser("bench", help="scaling at a fixed token budget")
    _add_workload_args(p)
    _add_muse_args(p, grid=False)
    p.add_argument("--n-list", type=int, nargs="+", default=[1024, 2048, 4096])
    p.add_argument("--budget", type=int, default=2 ** 18, help="total tokens per row")
    p.add_argument("--reps", type=int, default=5, help="repetitions, median reported")
    _add_common_args(p)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("causal-bench", help="hierarchical causal vs exact causal")
    # n = 8192: at n <= near_min (2048) the plan has no clustered level
    _add_workload_args(p, n=8192)
    _add_muse_args(p, grid=False)
    p.add_argument("--block", type=int, default=128, help="diagonal block size")
    p.add_argument("--seeds", type=int, default=1)
    _add_common_args(p)
    p.set_defaults(fn=_cmd_causal_bench)

    p = sub.add_parser("gen-qkv", help="write a workload to the binary format")
    _add_workload_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path")
    p.set_defaults(fn=_cmd_gen_qkv)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
