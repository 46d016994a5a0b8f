"""One SHA-256 over the outputs of a checkout on the benchmark's inputs, to
show that a change leaves every output bitwise equal.

For instances 0 and 1 of each workload of CHECKOUT/perfbench/run.py, at seeds
0 and 1000003, it hashes the `cluster_tokens` labels and the outputs (y, mu) of
`muse_acausal` (clustering in the call, and with those labels frozen) and of
`muse_causal` (the workload's block size, or 256 for an acausal workload),
each array with its dtype and shape. `WORKLOADS` and `instance_seed` come from
that run.py, loaded without a change, and `muse` from CHECKOUT/src. Run it
once per checkout and compare the digests:

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    python3 scripts/hashcheck.py ../parent
    python3 scripts/hashcheck.py .
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SEEDS = (0, 1000003)
INSTANCES = (0, 1)
CAUSAL_BLOCK = 256  # b of muse_causal on the acausal workloads


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", type=Path, help="root of the checkout to hash")
    args = p.parse_args(argv)
    root = args.checkout.resolve()
    bench = runpy.run_path(str(root / "perfbench" / "run.py"))
    sys.path.insert(0, str(root / "src"))
    import muse

    if Path(muse.__file__).resolve().parent != root / "src" / "muse":
        sys.exit(f"hashcheck: imported muse from {muse.__file__}, expected {root / 'src' / 'muse'}")
    digest = hashlib.sha256()
    for wl in bench["WORKLOADS"].values():
        for seed in SEEDS:
            for i in INSTANCES:
                s = bench["instance_seed"](seed, i)
                q, k, v = muse.generate(muse.WorkloadSpec(seed=s, d=16, dtype="f32", **wl.spec))
                config = muse.MuseConfig(c_q=wl.clusters, c_k=wl.clusters, kmeans_iters=1,
                                         cap_ratio=1.5, seed=s)
                clusters = muse.cluster_tokens(q, k, config)
                results = (muse.muse_acausal(q, k, v, config),
                           muse.muse_acausal(q, k, v, config, clusters=clusters),
                           muse.muse_causal(q, k, v, config, wl.block or CAUSAL_BLOCK))
                for a in (clusters.q_assign, clusters.k_assign, *(x for r in results for x in (r.y, r.mu))):
                    digest.update(f"{a.dtype}{a.shape}".encode())
                    digest.update(a.tobytes())
                print(f"{wl.name} seed={seed} instance={i}: {digest.hexdigest()[:16]}", file=sys.stderr)
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
