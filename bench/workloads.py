"""The three benchmark workloads: input generation, one timed pass, checks.

Seeds map the way tests/test_acceptance.py maps them: cubic data seeds
1000+s .. 4000+s and model seed s, battery packs 500+s (-20 C) and 700+s
(25 C), gradient-check `--seed s`.  The program only sees the generated
inputs.

Every call into `uga` goes through a module attribute (`uga.train.train_uga`,
not a name imported here), so a traced pass reaches the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
from pathlib import Path

import numpy as np

import uga.cli
import uga.data
import uga.metrics
import uga.models
import uga.train
from uga.data import LabeledSet, SyntheticShiftSpec
from uga.models import MlpSpec, SeqEncoderSpec

from speed import Probe, clock

WORKLOADS = ("cubic_shift", "battery_transfer", "gradcheck")
ARMS = {
    "cubic_shift": ("none", "uga_posterior", "uga_feature"),
    "battery_transfer": ("none", "uga_feature"),
    "gradcheck": (),
}

CUBIC_SPEC = MlpSpec(layer_widths=(1, 128, 128), dropout_p=0.0)
CUBIC_ROWS = 2000        # per domain and split; see README "Sizing guard"
CUBIC_ITERATIONS = 800

BATTERY_SPEC = SeqEncoderSpec(num_layers=1, hidden_dim=16, input_dim=3,
                              window_len=100)
BATTERY_PACKS = ((-20.0, 500), (25.0, 700))   # (ambient C, seed offset)
BATTERY_CYCLES = 6
# 30 epochs of 4 batches of 32.  The gate's ceil(n/32) epochs give 90 or
# 120 iterations depending on the seed's cycle lengths; a fixed count keeps
# a pass's work independent of the seed.
BATTERY_ITERATIONS = 120

GRADCHECK_LINE = re.compile(
    r"^(\S+)\s+error=(\S+)\s+tol=(\S+)\s+(PASS|FAIL)$")
SUITE_NAMES = ("primitives", "evidential_nll", "mmd", "mlp_model",
               "lstm_model", "lstm_model_100step")


class Ledger:
    """Counts operations attempted and failed.  An operation fails if it
    raises or its check returns a problem description."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, what, op, check=None):
        """Returns (ok, value, seconds); seconds time `op` alone."""
        self.attempted += 1
        t0 = clock()
        try:
            value = op()
        except Exception as e:  # a failed operation is a result, not a crash
            self._fail(what, f"{type(e).__name__}: {e}")
            return False, None, clock() - t0
        seconds = clock() - t0
        problem = check(value) if check else None
        if problem:
            self._fail(what, problem)
            return False, value, seconds
        return True, value, seconds

    def record(self, what, problem) -> None:
        """Count one operation whose outcome was checked elsewhere."""
        self.attempted += 1
        if problem:
            self._fail(what, problem)

    def _fail(self, what, problem) -> None:
        self.failed += 1
        self.problems.append(f"{what}: {problem}")


# -- checks -------------------------------------------------------------------

def params_digest(bundle) -> str:
    h = hashlib.sha256()
    for name, t in bundle.named_parameters():
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    return h.hexdigest()


def _check_history(iterations):
    def check(out):
        _bundle, history = out
        if len(history) != iterations:
            return f"{len(history)} history rows, expected {iterations}"
        for row in history:
            if not all(math.isfinite(v) for v in
                       (row.supervised, row.alignment, row.lam)):
                return f"non-finite history row at iteration {row.iteration}"
        return None
    return check


def _check_report(rep):
    values = [rep.mae, rep.mse, rep.r2, rep.coverage90, rep.mean_aleatoric,
              rep.mean_epistemic, rep.mean_total]
    if rep.posterior_gap is not None:
        values.append(rep.posterior_gap)
    if not all(v is not None and math.isfinite(v) for v in values):
        return f"non-finite report {rep}"
    if not 0.0 <= rep.coverage90 <= 1.0:
        return f"coverage {rep.coverage90} outside [0, 1]"
    return None


def _check_series(series_list):
    if len(series_list) != BATTERY_CYCLES:
        return f"{len(series_list)} series, expected {BATTERY_CYCLES}"
    for series in series_list:
        t = np.array([r.t for r in series])
        if len(t) < 2 or not (np.all(np.diff(t) > 0)
                              and np.all(np.diff(np.floor(t)) > 0)):
            return f"cycle {series[0].cycle}: timestamps not strictly increasing at 1 Hz"
    return None


def _checkpoint_round_trip(bundle, path: Path):
    def op():
        uga.models.save_checkpoint(bundle, path)
        return uga.models.load_checkpoint(path)

    def check(reloaded):
        if params_digest(reloaded) != params_digest(bundle):
            return "reloaded parameters differ from the trained ones"
        return None
    return op, check


# -- inputs -------------------------------------------------------------------

def _cubic_inputs(seed: int) -> dict:
    def gen(shift, offset):
        return uga.data.gen_cubic_shift(SyntheticShiftSpec(
            shift=shift, n=CUBIC_ROWS, noise_sd=0.05, seed=offset + seed))

    src_tr, tgt_tr = gen(0.0, 1000), gen(2.0, 2000)
    src_te, tgt_te = gen(0.0, 3000), gen(2.0, 4000)
    src_n, bounds = uga.data.normalize_labels(src_tr)

    def nrm(ls):
        return LabeledSet(ls.inputs, np.clip(bounds.apply(ls.labels), 0.0, 1.0))

    return {"source": src_n, "target": nrm(tgt_tr).unlabeled(),
            "source_test": nrm(src_te), "target_test": nrm(tgt_te)}


def _battery_inputs(seed: int, workdir: Path) -> dict:
    """Simulate both packs and write them in the canonical CSV schema."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths, rows = [], 0
    for temp, offset in BATTERY_PACKS:
        curves = uga.data.gen_battery_curves(temp, BATTERY_CYCLES,
                                             seed=offset + seed, capacity_ah=0.2)
        path = workdir / f"pack_{int(temp)}C.csv"
        uga.data.write_battery_csv(curves, path)
        paths.append(path)
        rows += sum(len(s) for s in curves)
    return {"csv": paths, "csv_rows": rows}


def make_inputs(workload: str, seed: int, workdir: Path) -> dict:
    if workload == "cubic_shift":
        return _cubic_inputs(seed)
    if workload == "battery_transfer":
        return _battery_inputs(seed, workdir)
    if workload == "gradcheck":
        return {}
    raise ValueError(f"unknown workload {workload!r}")


# -- passes -------------------------------------------------------------------

def _new_figures() -> dict:
    return {"train_s": {}, "iterations": {}, "target_mae": {}, "digest": {},
            "eval_s": 0.0, "eval_rows": 0, "eval_forward_rows": 0,
            "ingest_s": 0.0, "ingest_rows": 0,
            "gradcheck_output": None}


def _train_and_score(arm, cfg, spec, train_sets, eval_kwargs, workdir,
                     ledger, fig, arm_hook):
    source, target = train_sets
    workdir.mkdir(parents=True, exist_ok=True)
    arm_hook(arm)
    try:
        ok, out, secs = ledger.run(
            f"train {arm}",
            lambda: uga.train.train_uga(source, target, cfg, spec),
            _check_history(cfg.iterations))
        fig["train_s"][arm] = secs
        fig["iterations"][arm] = cfg.iterations
        if not ok:
            return
        bundle, _history = out
        fig["digest"][arm] = params_digest(bundle)
        op, check = _checkpoint_round_trip(bundle, workdir / f"{arm}.ckpt")
        ok, reloaded, _ = ledger.run(f"checkpoint {arm}", op, check)
        if not ok:
            return
        ok, rep, secs = ledger.run(
            f"evaluate {arm}",
            lambda: uga.metrics.evaluate(reloaded, **eval_kwargs), _check_report)
        fig["eval_s"] += secs
        fig["eval_rows"] += len(eval_kwargs["dataset"])
        fig["eval_forward_rows"] += len(eval_kwargs["dataset"]) + len(
            eval_kwargs.get("reference_inputs", ()))
        if ok:
            fig["target_mae"][arm] = rep.mae
    finally:
        arm_hook(None)


def cubic_pass(inputs, seed, ledger, workdir, arm_hook=lambda arm: None,
               iterations=CUBIC_ITERATIONS) -> dict:
    fig = _new_figures()
    for arm in ARMS["cubic_shift"]:
        cfg = uga.train.TrainConfig(
            alignment=arm, iterations=iterations, batch_size=128,
            lr=3e-3, seed=seed, aug_weight=32.0, clip_norm=0.5)
        _train_and_score(
            arm, cfg, CUBIC_SPEC, (inputs["source"], inputs["target"]),
            {"dataset": inputs["target_test"],
             "reference_inputs": inputs["source_test"].inputs},
            workdir, ledger, fig, arm_hook)
    return fig


def _norm_channels(x: np.ndarray) -> None:
    x[..., 0] = (x[..., 0] - 3.6) / 0.6
    x[..., 1] = x[..., 1] / 3.0
    x[..., 2] = x[..., 2] / 30.0


def battery_pass(inputs, seed, ledger, workdir, arm_hook=lambda arm: None,
                 iterations=BATTERY_ITERATIONS) -> dict:
    fig = _new_figures()
    packs = []
    for path in inputs["csv"]:
        ok, series, secs = ledger.run(
            f"ingest {path.name}", lambda: uga.data.ingest_battery_csv(path),
            _check_series)
        fig["ingest_s"] += secs
        if not ok:
            return fig
        packs.append(uga.data.split_by_cycle(series, "Panasonic"))
    fig["ingest_rows"] = inputs["csv_rows"]
    (src_tr, _), (tgt_tr, tgt_te) = packs
    train_src = uga.data.windows_to_set(src_tr, 100, 5)
    train_tgt = uga.data.windows_to_set(tgt_tr, 100, 5)
    held_out = uga.data.windows_to_set(tgt_te, 100, 1)
    for ds in (train_src, train_tgt, held_out):
        _norm_channels(ds.inputs)
    for arm in ARMS["battery_transfer"]:
        cfg = uga.train.TrainConfig(
            alignment=arm, iterations=iterations, batch_size=32,
            lr=3e-3, seed=seed, lambda_evi=0.1, aug_weight=32.0, clip_norm=0.5)
        _train_and_score(
            arm, cfg, BATTERY_SPEC, (train_src, train_tgt.unlabeled()),
            {"dataset": held_out}, workdir, ledger, fig, arm_hook)
    return fig


def gradcheck_pass(inputs, seed, ledger, workdir, arm_hook=lambda arm: None,
                   ) -> dict:
    fig = _new_figures()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = uga.cli.main(["gradcheck", "--seed", str(seed)])
    except Exception as e:
        for name in SUITE_NAMES:
            ledger.record(f"suite {name}", f"{type(e).__name__}: {e}")
        return fig
    text = out.getvalue()
    fig["gradcheck_output"] = text
    found = {}
    for line in text.splitlines():
        m = GRADCHECK_LINE.match(line.strip())
        if m:
            found[m.group(1)] = (float(m.group(2)), float(m.group(3)), m.group(4))
    for name in SUITE_NAMES:
        if name not in found:
            problem = "missing from the gradcheck output"
        else:
            error, tol, status = found[name]
            problem = None if status == "PASS" and error < tol else \
                f"error {error:.3e} not under tol {tol:.0e}"
        ledger.record(f"suite {name}", problem)
    ledger.record("gradcheck exit code",
                  None if code == 0 else f"exit code {code}")
    return fig


PASSES = {"cubic_shift": cubic_pass, "battery_transfer": battery_pass,
          "gradcheck": gradcheck_pass}


def traced_pass(tracer, workload, seed, ledger, workdir, **pass_kwargs):
    """One pass under `tracer`; returns (figures, wall seconds at reference
    speed).  Inputs are made again inside the trace so the data layer is
    seen; the wall covers the pass alone, like an untraced one."""
    with tracer:
        inputs = make_inputs(workload, seed, workdir / "setup")

        def arm_hook(arm):
            tracer.arm = arm

        with Probe() as probe:
            fig = PASSES[workload](inputs, seed, ledger, workdir, arm_hook,
                                   **pass_kwargs)
    return fig, probe.ref_seconds


def isolation_problem(untraced, traced):
    """Tracing may change timing, never arithmetic."""
    for key in ("digest", "target_mae", "gradcheck_output"):
        if untraced[key] != traced[key]:
            return f"traced and untraced passes differ in {key}"
    return None
