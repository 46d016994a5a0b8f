"""Near-field sweep of `muse_causal`: wall time and error against the span
below which causal levels run exact (`MuseConfig.near_min`).

Inputs are one (1, 1, n, d) f32 gaussian-mixture slice (c_true=64, spread
0.3, as in the benchmark's causal workload); every cell is the minimum of
--reps calls, single-threaded with BLAS pinned to one thread, and the error is
rel_sq_error against exact causal attention on the same inputs.

    python3 scripts/near_sweep.py                      # d=16 and d=64
    python3 scripts/near_sweep.py --d 64 --cases 8192:32 --spans 1024 2048
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import time  # noqa: E402

from muse import MuseConfig, WorkloadSpec, attend_causal, generate, muse_causal, rel_sq_error  # noqa: E402


def best_ms(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * min(times), out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--d", type=int, nargs="+", default=[16, 64])
    p.add_argument("--cases", nargs="+", default=["8192:16", "8192:32", "8192:64", "16384:32"],
                   help="n:C pairs; c_q = c_k = C")
    p.add_argument("--spans", type=int, nargs="+", default=[256, 1024, 2048, 4096])
    p.add_argument("--block", type=int, default=256, help="diagonal block size b")
    p.add_argument("--reps", type=int, default=3)
    args = p.parse_args(argv)
    for d in args.d:
        print(f"d={d}: ms / rel_sq_error per near_min, then exact causal ms")
        print("| n, C | " + " | ".join(f"near {s}" for s in args.spans) + " | exact |")
        for case in args.cases:
            n, c = (int(x) for x in case.split(":"))
            spec = WorkloadSpec(kind="gaussian_mixture", n=n, d=d, c_true=64, spread=0.3, seed=0, dtype="f32")
            q, k, v = generate(spec)
            exact_ms, ref = best_ms(lambda: attend_causal(q, k, v), args.reps)
            cells = []
            for span in args.spans:
                cfg = MuseConfig(c_q=c, c_k=c, near_min=span, seed=0)
                ms, out = best_ms(lambda: muse_causal(q, k, v, cfg, args.block), args.reps)
                cells.append(f"{ms:.0f} / {rel_sq_error(ref, out):.4f}")
            print(f"| {n}, {c} | " + " | ".join(cells) + f" | {exact_ms:.0f} |", flush=True)


if __name__ == "__main__":
    main()
