"""Metric definitions and their derivation from passes and traces.

End-to-end metrics are what every workload reports from its untraced
passes.  Per-layer metrics come from a traced run: per-iteration figures
divide by the training iterations of the traced pass (all arms pooled) on
cubic_shift and battery_transfer, and by the gradient check's forward
evaluations on gradcheck.  A layer that a workload never calls reports 0.
"""

from __future__ import annotations

import os
import platform
import statistics
from pathlib import Path

from workloads import SUITE_NAMES

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

ARM_NAMES = ("none", "uga_feature", "uga_posterior")
TRACED_OPS = ("matmul", "add", "sub", "mul", "exp", "tanh", "sigmoid",
              "softplus", "slice_last", "concat", "transpose", "reshape",
              "lgamma", "ones")
LAYERS = ("autodiff", "models", "evidential", "alignment", "train", "metrics",
          "data", "gradcheck", "cli")


def _per_layer_specs() -> dict:
    specs = {
        "autodiff.backward_ms_per_iter": ("ms/iter", "lower"),
        "autodiff.ops_per_iter": ("ops/iter", "lower"),
    }
    for op in TRACED_OPS:
        specs[f"autodiff.op.{op}.calls_per_iter"] = ("calls/iter", "lower")
        specs[f"autodiff.op.{op}.self_ms_per_iter"] = ("ms/iter", "lower")
    specs.update({
        "autodiff.matmul_ones_frac": ("fraction", "lower"),
        "models.forward_ms_per_iter": ("ms/iter", "lower"),
        "models.eval_forward_ms_per_krow": ("ms/krow", "lower"),
        "models.checkpoint_ms": ("ms", "lower"),
        "evidential.loss_ms_per_iter": ("ms/iter", "lower"),
        "evidential.nig_from_raw_ms_per_iter": ("ms/iter", "lower"),
        "evidential.interval_ms_per_krow": ("ms/krow", "lower"),
        "alignment.bandwidth_ms_per_iter": ("ms/iter", "lower"),
        "alignment.mmd_ms_per_iter": ("ms/iter", "lower"),
        "alignment.mmd_ops_per_call": ("ops/call", "lower"),
        "alignment.embed_ms_per_iter": ("ms/iter", "lower"),
        "alignment.eval_gap_ms": ("ms", "lower"),
        "train.assemble_loss_ms_per_iter": ("ms/iter", "lower"),
        "train.step_ms_per_iter": ("ms/iter", "lower"),
        "train.self_ms_per_iter": ("ms/iter", "lower"),
        "train.iter_ms.p50": ("ms", "lower"),
        "train.iter_ms.p99": ("ms", "lower"),
    })
    for arm in ARM_NAMES:
        specs[f"train.ms_per_iter.{arm}"] = ("ms/iter", "lower")
        specs[f"train.traced_ms_per_iter.{arm}"] = ("ms/iter", "lower")
    specs.update({
        "metrics.evaluate_self_ms": ("ms", "lower"),
        "metrics.eval_rows_per_s": ("rows/s", "higher"),
    })
    for arm in ARM_NAMES:
        specs[f"metrics.target_mae.{arm}"] = ("label", "lower")
    specs.update({
        "data.ingest_rows_per_s": ("rows/s", "higher"),
        "data.write_rows_per_s": ("rows/s", "higher"),
        "data.simulate_s": ("s", "lower"),
        "data.window_ms": ("ms", "lower"),
    })
    for suite in SUITE_NAMES:
        specs[f"gradcheck.suite_s.{suite}"] = ("s", "lower")
    specs.update({
        "gradcheck.forward_evals": ("count", "lower"),
        "gradcheck.ops_per_forward_eval": ("ops", "lower"),
        "cli.self_ms": ("ms", "lower"),
        "trace.overhead_s": ("s", "lower"),
    })
    for layer in LAYERS:
        specs[f"{layer}.failed_calls"] = ("count", "lower")
    return specs


PER_LAYER = _per_layer_specs()


def median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


# -- end to end ---------------------------------------------------------------

def end_to_end(setup_samples, passes, peak_rss_mb) -> dict:
    """Times are at reference machine speed (bench/speed.py)."""
    return {
        "setup_s": median([s["setup_s"] for s in setup_samples]),
        "wall_s": median([p["wall_s"] for p in passes]),
        "peak_rss_mb": peak_rss_mb,
    }


def speed_figures(setup_samples, passes) -> dict:
    """The measured times behind the end-to-end ones, and the machine's
    slowdown during the passes."""
    return {
        "raw_setup_s": median([s["raw_setup_s"] for s in setup_samples]),
        "raw_wall_s": median([p["raw_wall_s"] for p in passes]),
        "slowdown": median([p["slowdown"] for p in passes]),
    }


def workload_figures(passes) -> dict:
    """The per-arm figures of the untraced passes (medians over passes),
    printed beside the end-to-end metrics."""
    out = {}
    arms = sorted({a for p in passes for a in p["fig"]["train_s"]})
    for arm in arms:
        out[f"train_ms_per_iter.{arm}"] = median(
            [1e3 * p["fig"]["train_s"][arm] / p["fig"]["iterations"][arm]
             for p in passes if arm in p["fig"]["train_s"]])
    if any(p["fig"]["eval_rows"] for p in passes):
        out["eval_rows_per_s"] = median(
            [_ratio(p["fig"]["eval_rows"], p["fig"]["eval_s"]) for p in passes])
    if any(p["fig"]["ingest_rows"] for p in passes):
        out["ingest_rows_per_s"] = median(
            [_ratio(p["fig"]["ingest_rows"], p["fig"]["ingest_s"]) for p in passes])
    for arm in arms:
        maes = [p["fig"]["target_mae"][arm] for p in passes
                if arm in p["fig"]["target_mae"]]
        if maes:
            out[f"target_mae.{arm}"] = median(maes)
            if len(maes) >= 2:
                q = statistics.quantiles(maes, n=4)
                out[f"target_mae.{arm}.iqr"] = q[2] - q[0]
    return out


FIGURE_UNITS = {"train_ms_per_iter": "ms/iter", "eval_rows_per_s": "rows/s",
                "ingest_rows_per_s": "rows/s", "target_mae": "label",
                "raw_setup_s": "s", "raw_wall_s": "s", "slowdown": "x"}


def figure_unit(name: str) -> str:
    return FIGURE_UNITS.get(name.split(".")[0], "")


# -- per layer ----------------------------------------------------------------

def _iteration_gaps_ms(tracer) -> list[float]:
    by_parent: dict[int, list[float]] = {}
    for parent, start in tracer.starts("train.assemble_loss"):
        by_parent.setdefault(parent, []).append(start)
    gaps = []
    for starts in by_parent.values():
        gaps += [1e3 * (b - a) for a, b in zip(starts, starts[1:])]
    return gaps


def per_layer(workload, tracer, untraced, traced, overhead_s) -> dict:
    """`untraced` and `traced` are lists of pass figure dicts."""
    if workload == "gradcheck":
        ctx, iters = "cli.main", tracer.forward_evals
    else:
        ctx = "train.train_uga"
        iters = sum(sum(f["iterations"].values()) for f in traced)

    def per_iter_ms(seconds):
        return _ratio(1e3 * seconds, iters)

    m = {
        "autodiff.backward_ms_per_iter":
            per_iter_ms(tracer.total_s("autodiff.backward", ctx)),
        "autodiff.ops_per_iter": _ratio(tracer.op_calls(None, ctx), iters),
    }
    for op in TRACED_OPS:
        m[f"autodiff.op.{op}.calls_per_iter"] = _ratio(tracer.op_calls(op, ctx), iters)
        m[f"autodiff.op.{op}.self_ms_per_iter"] = per_iter_ms(tracer.op_self_s(op, ctx))
    mm_calls, mm_ones = tracer.matmuls.get(ctx, [0, 0])
    m["autodiff.matmul_ones_frac"] = _ratio(mm_ones, mm_calls)

    scored_rows = sum(f["eval_rows"] for f in traced)
    forwarded_rows = sum(f["eval_forward_rows"] for f in traced)
    round_trips = tracer.calls("models.checkpoint") // 2
    m.update({
        "models.forward_ms_per_iter": per_iter_ms(tracer.self_s("models.forward", ctx)),
        "models.eval_forward_ms_per_krow": _ratio(
            1e3 * tracer.self_s("models.eval_forward"), forwarded_rows / 1e3),
        "models.checkpoint_ms": _ratio(
            1e3 * tracer.total_s("models.checkpoint"), round_trips),
        "evidential.loss_ms_per_iter": per_iter_ms(tracer.self_s("evidential.loss", ctx)),
        "evidential.nig_from_raw_ms_per_iter":
            per_iter_ms(tracer.self_s("evidential.nig_from_raw", ctx)),
        "evidential.interval_ms_per_krow": _ratio(
            1e3 * tracer.total_s("evidential.interval"), scored_rows / 1e3),
        "alignment.bandwidth_ms_per_iter":
            per_iter_ms(tracer.total_s("alignment.bandwidth", ctx)),
        "alignment.mmd_ms_per_iter": per_iter_ms(tracer.self_s("alignment.mmd", ctx)),
        "alignment.mmd_ops_per_call": _ratio(
            tracer.ops_under("alignment.mmd", ctx), tracer.calls("alignment.mmd", ctx)),
        "alignment.embed_ms_per_iter": per_iter_ms(tracer.self_s("alignment.embed", ctx)),
        "alignment.eval_gap_ms": _ratio(
            1e3 * tracer.total_s("alignment.eval_gap"),
            tracer.calls("alignment.eval_gap")),
        "train.assemble_loss_ms_per_iter":
            per_iter_ms(tracer.self_s("train.assemble_loss", ctx)),
        "train.step_ms_per_iter": per_iter_ms(tracer.self_s("train.step", ctx)),
        "train.self_ms_per_iter": per_iter_ms(tracer.self_s("train.train_uga", ctx)),
    })
    gaps = sorted(_iteration_gaps_ms(tracer))
    m["train.iter_ms.p50"] = median(gaps)
    m["train.iter_ms.p99"] = gaps[min(len(gaps) - 1, int(0.99 * len(gaps)))] if gaps else 0.0
    for arm in ARM_NAMES:
        m[f"train.ms_per_iter.{arm}"] = median(
            [_ratio(1e3 * f["train_s"][arm], f["iterations"][arm])
             for f in untraced if arm in f["train_s"]])
        m[f"train.traced_ms_per_iter.{arm}"] = _ratio(
            1e3 * tracer.total_s("train.train_uga", arm=arm),
            sum(f["iterations"].get(arm, 0) for f in traced))

    m["metrics.evaluate_self_ms"] = _ratio(
        1e3 * tracer.self_s("metrics.evaluate"), tracer.calls("metrics.evaluate"))
    m["metrics.eval_rows_per_s"] = median(
        [_ratio(f["eval_rows"], f["eval_s"]) for f in untraced])
    for arm in ARM_NAMES:
        m[f"metrics.target_mae.{arm}"] = median(
            [f["target_mae"][arm] for f in untraced if arm in f["target_mae"]])

    csv_rows = sum(f["ingest_rows"] for f in traced)
    m.update({
        "data.ingest_rows_per_s": _ratio(csv_rows, tracer.total_s("data.ingest")),
        "data.write_rows_per_s": _ratio(csv_rows, tracer.total_s("data.write")),
        "data.simulate_s": tracer.total_s("data.simulate"),
        "data.window_ms": 1e3 * tracer.total_s("data.window"),
    })
    for suite in SUITE_NAMES:
        m[f"gradcheck.suite_s.{suite}"] = tracer.total_s(f"gradcheck.suite.{suite}")
    m["gradcheck.forward_evals"] = tracer.forward_evals
    m["gradcheck.ops_per_forward_eval"] = _ratio(
        tracer.op_calls(None, "cli.main"), tracer.forward_evals)
    m["cli.self_ms"] = 1e3 * tracer.self_s("cli.main")
    m["trace.overhead_s"] = overhead_s
    for layer in LAYERS:
        m[f"{layer}.failed_calls"] = tracer.failed.get(layer, 0)
    missing = set(PER_LAYER) ^ set(m)
    if missing:
        raise RuntimeError(f"per-layer metric set mismatch: {sorted(missing)}")
    return m


PHASES = (  # blocking steps of one training iteration, in call order
    ("model forward", "models.forward"),
    ("nig_from_raw", "evidential.nig_from_raw"),
    ("evidential loss", "evidential.loss"),
    ("embedding", "alignment.embed"),
    ("bandwidth", "alignment.bandwidth"),
    ("MMD", "alignment.mmd"),
    ("assemble_loss self", "train.assemble_loss"),
    ("backward", "autodiff.backward"),
    ("optimizer step", "train.step"),
    ("train self", "train.train_uga"),
)


def phase_breakdown(tracer, traced, arm) -> list[tuple[str, float]]:
    """Self time per iteration of every layer span under one arm's training;
    the rows sum to the traced train_uga time of that arm."""
    iters = sum(f["iterations"].get(arm, 0) for f in traced)
    return [(label, _ratio(1e3 * tracer.self_s(name, "train.train_uga", arm), iters))
            for label, name in PHASES]


# -- environment --------------------------------------------------------------

def _git_commit(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(root),
    }
