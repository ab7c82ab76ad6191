"""Perturbation protocol for the headline gate's margin.

`tests/test_acceptance.py::test_alignment_improves_target_mae` asks the
feature-aligned arm's 5-seed median target MAE to be at most 0.9 times the
source-only arm's.  This script retrains both arms with the initial weight
`mlp.0.W[0,0]` stepped by k ulp (`np.nextafter`, applied to the bundle that
`uga.train.build_bundle` returns) and reports whether that margin survives:

  * feature arm at k = +1, -1, +2, -2 and source-only arm at k = +1, -1,
    acceptance seeds 0-4, the gate's data, model and config;
  * per-seed target MAEs, per-nudge medians, the pooled medians over all
    nudged runs of each arm and their ratio;
  * how many same-k pairs pass the gate's 0.9 bound.

Data, model and config come from the acceptance file itself, so the
protocol and the gate cannot drift apart.  BLAS runs on one thread.

    python3 tools/margin.py [--jobs 2]

It trains 30 models of 800 iterations: a few minutes with two processes on
a 2-core x86 machine.
"""

import os

# Set before numpy loads, so OpenBLAS starts with one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import concurrent.futures
import multiprocessing
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np

import uga.train
from test_acceptance import CUBIC_SEEDS, CUBIC_SPEC, _cubic_config, _cubic_sets
from uga.metrics import evaluate

NUDGES = {"none": (1, -1), "uga_feature": (1, -1, 2, -2)}
BOUND = 0.9


def _nudged(build, k):
    """build_bundle, then mlp.0.W[0,0] moved k ulp (toward +inf for k > 0)."""
    def build_nudged(spec, seed=0):
        bundle = build(spec, seed=seed)
        w = bundle.params["mlp.0.W"].data
        for _ in range(abs(k)):
            w[0, 0] = np.nextafter(w[0, 0], np.copysign(np.inf, k))
        return bundle
    return build_nudged


def target_mae(method, k, seed):
    src, tgt_tr, _src_te, tgt_te = _cubic_sets(seed)
    original = uga.train.build_bundle
    uga.train.build_bundle = _nudged(original, k)
    try:
        bundle, _ = uga.train.train_uga(src, tgt_tr.unlabeled(),
                                        _cubic_config(method, seed), CUBIC_SPEC)
    finally:
        uga.train.build_bundle = original
    return evaluate(bundle, tgt_te).mae


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes (default 2)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    runs = [(method, k, seed) for method, ks in NUDGES.items() for k in ks
            for seed in range(CUBIC_SEEDS)]
    spawn = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(args.jobs, mp_context=spawn) as pool:
        maes = dict(zip(runs, pool.map(target_mae, *zip(*runs))))

    medians = {}
    for method, ks in NUDGES.items():
        for k in ks:
            per_seed = [maes[method, k, s] for s in range(CUBIC_SEEDS)]
            medians[method, k] = float(np.median(per_seed))
            print(f"{method:<12} k={k:+d}  seeds "
                  + " ".join(f"{m:.4f}" for m in per_seed)
                  + f"  median {medians[method, k]:.4f}")
    pooled = {method: float(np.median([maes[r] for r in runs if r[0] == method]))
              for method in NUDGES}
    ratio = pooled["uga_feature"] / pooled["none"]
    print(f"pooled medians: none {pooled['none']:.4f}, "
          f"uga_feature {pooled['uga_feature']:.4f} (ratio {ratio:.3f})")
    same_k = [k for k in NUDGES["none"] if k in NUDGES["uga_feature"]]
    passing = [k for k in same_k
               if medians["uga_feature", k] <= BOUND * medians["none", k]]
    print(f"same-k pairs passing feature <= {BOUND} x none: "
          f"{len(passing)} of {len(same_k)}"
          + (f" (k = {', '.join(f'{k:+d}' for k in passing)})" if passing else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
