"""One SHA-256 over the outputs of a checkout on the benchmark's inputs, to
show that a change leaves every output bitwise equal, and, where it does not,
how far each output moved.

For instances 0 and 1 of each workload of CHECKOUT/perfbench/run.py, at seeds
0 and 1000003, it hashes the `cluster_tokens` labels and the outputs (y, mu) of
`muse_acausal` (clustering in the call, and with those labels frozen), of
`muse_causal` (the workload's block size, or 256 for an acausal workload), of
`muse_acausal` under the no_dipole and no_monopole ablations, of the exact
`attend` and `attend_causal`, and of `attend_causal` on the first n - 129
tokens, whose last row tile is partial and whose last diagonal key chunk ends
mid-tile, each array with its dtype and shape. It then
hashes the timing-free JSON report of `ablation_run` on the inputs and base
config of acceptance check 05, with 5 seeds. `WORKLOADS` and
`instance_seed` come from that run.py, loaded without a change, and `muse`
from CHECKOUT/src. Run it once per checkout and compare the digests:

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    python3 scripts/hashcheck.py ../parent --save ../parent.npz
    python3 scripts/hashcheck.py . --against ../parent.npz

--save writes every hashed array to an .npz file. --against reads such a
file and prints, per workload and output, "bitwise equal" or the largest
|new - ref| / (1 + |ref|) over both seeds and instances in float32 eps (for
labels and the report's bytes: how many differ). Under a clustered y that is
not bitwise equal it prints one more line: the mean over seeds and instances
of its rel_sq_error against the exact output of the same checkout (`attend`
for `muse_acausal`, `attend_causal` for `muse_causal`), saved file -> this
checkout, since a drift in eps does not say whether the approximation got
better or worse.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

SEEDS = (0, 1000003)
INSTANCES = (0, 1)
CAUSAL_BLOCK = 256  # b of muse_causal on the acausal workloads
RAGGED = 129  # every workload's n is a multiple of 256, so n - 129 leaves a last row tile of 127
F32_EPS = float(np.finfo(np.float32).eps)
EXACT = {"muse_causal.y": "attend_causal.y",  # the exact output each clustered y approximates
         **{f"muse_acausal{s}.y": "attend.y" for s in ("", "_frozen", "_no_dipole", "_no_monopole")}}


def outputs(muse, wl, q, k, v, config):
    """(name, array) pairs of one instance, in hashing order."""
    clusters = muse.cluster_tokens(q, k, config)
    yield "q_assign", clusters.q_assign
    yield "k_assign", clusters.k_assign
    results = {"muse_acausal": muse.muse_acausal(q, k, v, config),
               "muse_acausal_frozen": muse.muse_acausal(q, k, v, config, clusters=clusters),
               "muse_causal": muse.muse_causal(q, k, v, config, wl.block or CAUSAL_BLOCK),
               **{f"muse_acausal_{a}": muse.muse_acausal(q, k, v, replace(config, ablation=a))
                  for a in ("no_dipole", "no_monopole")},
               "attend": muse.attend(q, k, v),
               "attend_causal": muse.attend_causal(q, k, v),
               "attend_causal_ragged": muse.attend_causal(*(a[:, :, :-RAGGED] for a in (q, k, v)))}
    for name, r in results.items():
        yield f"{name}.y", r.y
        yield f"{name}.mu", r.mu


def ablation_report(muse):
    """The timing-free `ablation_run` report of acceptance check 05, as bytes."""
    spec = muse.WorkloadSpec(kind="gaussian_mixture", n=1024, d=16, c_true=16, spread=0.15,
                             centroid_scale=1.2, seed=0)
    base = muse.MuseConfig(c_q=128, c_k=128, kmeans_iters=3, cap_ratio=3.0, seed=0)
    text = muse.ablation_run(spec, base, seeds=5).to_json(include_timing=False)
    return np.frombuffer(text.encode(), dtype=np.uint8)


def drift(new, ref):
    """How far `new` is from `ref`: None when bitwise equal, else the largest
    relative difference in f32 eps (floats) or a note (labels, shapes)."""
    if new.dtype != ref.dtype or new.shape != ref.shape:
        return f"differs in dtype or shape: {new.dtype}{new.shape} against {ref.dtype}{ref.shape}"
    if np.array_equal(new, ref):
        return None
    if np.issubdtype(ref.dtype, np.integer):
        return f"{np.count_nonzero(new != ref)} of {ref.size} differ"
    ref64 = ref.astype(np.float64)
    return np.max(np.abs(new.astype(np.float64) - ref64) / (1.0 + np.abs(ref64))) / F32_EPS


def rel_sq_error(y, exact):
    """||exact - y||^2 / ||exact||^2 in float64, as `muse.rel_sq_error`."""
    exact = exact.astype(np.float64)
    return float(np.sum((exact - y) ** 2) / np.sum(exact * exact))


def report(arrays, against):
    """Per workload and output name, the worst drift over seeds and instances,
    and for a clustered y that moved, its mean error before and after."""
    drifts, errors = {}, {}
    with np.load(against) as ref:
        for key, a in arrays.items():
            wl, *_, name = key.split("/")
            d = drift(a, ref[key]) if key in ref.files else f"missing from {against}"
            drifts.setdefault((wl, name), []).append(d)
            exact = f"{key.rsplit('/', 1)[0]}/{EXACT.get(name)}"
            if name in EXACT and key in ref.files and exact in ref.files:
                errors.setdefault((wl, name), []).append(
                    (rel_sq_error(ref[key], ref[exact]), rel_sq_error(a, arrays[exact])))
    for (wl, name), ds in drifts.items():
        notes = [d for d in ds if isinstance(d, str)]
        eps = [d for d in ds if isinstance(d, float)]
        if notes:
            text = "; ".join(notes)
        elif eps:
            text = f"max |d|/(1+|ref|) = {max(eps):.2f} f32 eps"
        else:
            text = "bitwise equal"
        print(f"{wl} {name}: {text}")
        if text != "bitwise equal" and (wl, name) in errors:
            before, after = np.mean(errors[wl, name], axis=0)
            print(f"{wl} {name}: mean rel_sq_error against {EXACT[name]} {before:.6g} -> {after:.6g}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", type=Path, help="root of the checkout to hash")
    p.add_argument("--save", type=Path, help="write every hashed array to this .npz file")
    p.add_argument("--against", type=Path, help="compare every hashed array with this --save file")
    args = p.parse_args(argv)
    root = args.checkout.resolve()
    bench = runpy.run_path(str(root / "perfbench" / "run.py"))
    sys.path.insert(0, str(root / "src"))
    import muse

    if Path(muse.__file__).resolve().parent != root / "src" / "muse":
        sys.exit(f"hashcheck: imported muse from {muse.__file__}, expected {root / 'src' / 'muse'}")
    digest = hashlib.sha256()
    arrays = {}
    for wl in bench["WORKLOADS"].values():
        for seed in SEEDS:
            for i in INSTANCES:
                s = bench["instance_seed"](seed, i)
                q, k, v = muse.generate(muse.WorkloadSpec(seed=s, d=16, dtype="f32", **wl.spec))
                config = muse.MuseConfig(c_q=wl.clusters, c_k=wl.clusters, kmeans_iters=1,
                                         cap_ratio=1.5, seed=s)
                for name, a in outputs(muse, wl, q, k, v, config):
                    digest.update(f"{a.dtype}{a.shape}".encode())
                    digest.update(a.tobytes())
                    arrays[f"{wl.name}/{seed}/{i}/{name}"] = a
                print(f"{wl.name} seed={seed} instance={i}: {digest.hexdigest()[:16]}", file=sys.stderr)
    report_bytes = ablation_report(muse)
    digest.update(f"ablation_run{report_bytes.shape}".encode())
    digest.update(report_bytes.tobytes())
    arrays["ablation_run/report.json"] = report_bytes
    print(f"ablation_run: {digest.hexdigest()[:16]}", file=sys.stderr)
    print(digest.hexdigest())
    if args.save:
        np.savez(args.save, **arrays)
    if args.against:
        report(arrays, args.against)


if __name__ == "__main__":
    main()
