"""Bit digests of the acceptance gate's training runs.

Runs the two benchmark fixtures of `tests/test_acceptance.py` as written:
the cubic gate's 15 runs (3 arms x 5 seeds) and the battery gate's 6 runs
(2 arms x 3 seeds).  `train_uga` and `evaluate` are wrapped in the test
module's namespace, so each run is seen without restating its recipe.  For
every run it prints one sha256 over the trained parameters (names, shapes
and bytes), the history rows and the `evaluate` report, then one over all
of them.  Two trees that print the same lines trained and evaluated every
gate run to the same bits.  A last line holds one sha256 over the
gradient suites' `run_all(seed=0)`: each suite's name, error (`float.hex`,
every bit, where `uga gradcheck` prints four digits) and tolerance.

    python3 tools/digests.py

The two fixtures run side by side in two processes, BLAS on one thread in
each, and print their lines in that order, cubic first.  It takes about 53
seconds on a 2-core x86 machine, the cubic fixture's own time.
"""

import os

# Set before numpy loads, so OpenBLAS starts with one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import concurrent.futures
import dataclasses
import hashlib
import multiprocessing
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np

import test_acceptance
from uga import gradcheck

TASKS = ("cubic", "battery")


def run_digest(bundle, history, report) -> str:
    h = hashlib.sha256()
    for name, p in bundle.named_parameters():
        h.update(f"{name} {p.data.shape}".encode())
        h.update(np.ascontiguousarray(p.data).tobytes())
    h.update(np.array([dataclasses.astuple(r) for r in history], float).tobytes())
    h.update(repr(dataclasses.astuple(report)).encode())
    return h.hexdigest()


class _TmpFactory:
    """The one `tmp_path_factory` method the battery fixture calls."""

    def __init__(self, root):
        self.root = pathlib.Path(root)

    def mktemp(self, name):
        path = self.root / name
        path.mkdir()
        return path


def task_lines(task: str) -> list[str]:
    """Run one fixture ("cubic" or "battery") and return its runs' lines."""
    lines = []
    trained = []
    train, evaluate = test_acceptance.train_uga, test_acceptance.evaluate

    def traced_train(source, target, cfg, spec):
        bundle, history = train(source, target, cfg, spec)
        trained.append((cfg, bundle, history))
        return bundle, history

    def traced_evaluate(bundle, *args, **kwargs):
        report = evaluate(bundle, *args, **kwargs)
        cfg, run_bundle, history = trained.pop()
        if run_bundle is not bundle:
            raise RuntimeError("evaluate got another bundle than the last run trained")
        line = (f"{task:<8} {cfg.alignment.value:<14} seed {cfg.seed}  "
                f"{run_digest(bundle, history, report)}")
        lines.append(line)
        return report

    test_acceptance.train_uga, test_acceptance.evaluate = traced_train, traced_evaluate
    try:
        if task == "cubic":
            test_acceptance.cubic_bench.__wrapped__()
        else:
            with tempfile.TemporaryDirectory() as tmp:
                test_acceptance.battery_bench.__wrapped__(_TmpFactory(tmp))
    finally:
        test_acceptance.train_uga, test_acceptance.evaluate = train, evaluate
    return lines


def gradcheck_line() -> str:
    h = hashlib.sha256()
    for r in gradcheck.run_all(seed=0):
        h.update(f"{r.name} {r.error.hex()} {r.tol.hex()}\n".encode())
    return f"gradcheck seed 0  {h.hexdigest()}"


def main() -> int:
    lines = []
    spawn = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(len(TASKS), mp_context=spawn) as pool:
        for task_out in pool.map(task_lines, TASKS):
            lines += task_out
            print("\n".join(task_out), flush=True)
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"all {len(lines)} runs  {total}")
    print(gradcheck_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
