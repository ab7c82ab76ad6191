"""Perturbation protocol for the cubic acceptance gate.

`tests/test_acceptance.py` asks, over acceptance seeds 0-4, that the
feature-aligned arm's median target MAE be at most 0.9 times the
source-only arm's, the posterior-aligned arm's at most 1.0 times it, and
the posterior arm's median posterior gap at most 0.5 times the source-only
one.  This script retrains all three arms with the initial weight
`mlp.0.W[0,0]` stepped by k ulp (`np.nextafter`, applied to the bundle that
`uga.train.build_bundle` returns), k in {0, +1, -1, +2, -2}, over the gate's
seeds 0-4 and the held-out seeds 5-9, and reports:

  * per-seed target MAEs for every (arm, k);
  * every (k, seed-half) cell: the feature/none MAE ratio against 0.9, the
    posterior/none MAE ratio against 1.0 and the gap ratio against 0.5;
  * per arm and seed half, and over all 50 runs, the median pooled over k
    and the paired difference against `none` (same k, same seed): mean +-
    standard error, and the share of pairs in which the arm's MAE is lower.

Data, model, config and evaluation come from the acceptance file itself, so
the protocol and the gate cannot drift apart.  k = 0 on seeds 0-4 is the
gate.

    python3 tools/margin.py

It trains 150 models of 800 iterations in two spawned processes, BLAS on
one thread in each: about ten minutes on a 2-core x86 machine.
"""

import os

# Set before numpy loads, so OpenBLAS starts with one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

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

ARMS = ("none", "uga_feature", "uga_posterior")
NUDGES = (0, 1, -1, 2, -2)
HALVES = {"0-4": range(CUBIC_SEEDS), "5-9": range(CUBIC_SEEDS, 2 * CUBIC_SEEDS)}
# The gate's bounds on the (arm median / none median) ratios.
MAE_BOUND = {"uga_feature": 0.9, "uga_posterior": 1.0}
GAP_BOUND = 0.5


def _nudged(build, k):
    """build_bundle, then mlp.0.W[0,0] moved k ulp (toward +inf for k > 0)."""
    def build_nudged(spec, seed=0):
        bundle = build(spec, seed=seed)
        w = bundle.params["mlp.0.W"].data
        for _ in range(abs(k)):
            w[0, 0] = np.nextafter(w[0, 0], np.copysign(np.inf, k))
        return bundle
    return build_nudged


def run(method, k, seed):
    """(target MAE, posterior gap) of one gate run with a k-ulp nudge."""
    src, tgt_tr, src_te, tgt_te = _cubic_sets(seed)
    original = uga.train.build_bundle
    uga.train.build_bundle = _nudged(original, k)
    try:
        bundle, _ = uga.train.train_uga(src, tgt_tr.unlabeled(),
                                        _cubic_config(method, seed), CUBIC_SPEC)
    finally:
        uga.train.build_bundle = original
    rep = evaluate(bundle, tgt_te, reference_inputs=src_te.inputs)
    return rep.mae, rep.posterior_gap


def _verdict(ratio, bound):
    return f"{ratio:.3f} {'<=' if ratio <= bound else '> '} {bound:.1f}"


def main():
    seeds = range(2 * CUBIC_SEEDS)
    runs = [(m, k, s) for m in ARMS for k in NUDGES for s in seeds]
    spawn = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(2, mp_context=spawn) as pool:
        results = dict(zip(runs, pool.map(run, *zip(*runs))))
    mae = {r: v[0] for r, v in results.items()}
    gap = {r: v[1] for r, v in results.items()}

    print("target MAE per seed (0-9), k = ulp nudge of mlp.0.W[0,0]")
    for m in ARMS:
        for k in NUDGES:
            print(f"  {m:<13} k={k:+d}  "
                  + " ".join(f"{mae[m, k, s]:.4f}" for s in seeds))

    print("\nfive-seed median ratios against none, per (k, seed half)")
    passed = {"uga_feature": 0, "uga_posterior": 0, "gap": 0}
    for k in NUDGES:
        for half, hs in HALVES.items():
            med = {m: float(np.median([mae[m, k, s] for s in hs])) for m in ARMS}
            gap_ratio = (float(np.median([gap["uga_posterior", k, s] for s in hs]))
                         / float(np.median([gap["none", k, s] for s in hs])))
            cells = []
            for m, bound in MAE_BOUND.items():
                passed[m] += med[m] / med["none"] <= bound
                cells.append(f"{m[4:]} {_verdict(med[m] / med['none'], bound)}")
            passed["gap"] += gap_ratio <= GAP_BOUND
            cells.append(f"gap {_verdict(gap_ratio, GAP_BOUND)}")
            gate = "  (the gate)" if k == 0 and half == "0-4" else ""
            print(f"  k={k:+d} seeds {half}: none {med['none']:.4f}  "
                  + "  ".join(cells) + gate)
    cells = len(NUDGES) * len(HALVES)
    print(f"  cells within bound: feature {passed['uga_feature']}/{cells}, "
          f"posterior {passed['uga_posterior']}/{cells}, "
          f"gap {passed['gap']}/{cells}")

    print(f"\npooled over k: medians and paired differences against none "
          f"(same k, same seed)")
    for half, hs in {**HALVES, "0-9": seeds}.items():
        pool = [(k, s) for k in NUDGES for s in hs]
        base = float(np.median([mae["none", k, s] for k, s in pool]))
        print(f"  seeds {half} ({len(pool)} runs per arm): none {base:.4f}")
        for m in ARMS[1:]:
            pooled = float(np.median([mae[m, k, s] for k, s in pool]))
            diff = np.array([mae[m, k, s] - mae["none", k, s] for k, s in pool])
            se = diff.std(ddof=1) / np.sqrt(diff.size)
            print(f"    {m:<14} {pooled:.4f} (x{pooled / base:.3f})  "
                  f"diff {diff.mean():+.4f} +- {se:.4f} SE, "
                  f"lower in {np.mean(diff < 0):.0%} of pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
