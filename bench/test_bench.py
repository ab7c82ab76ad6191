"""Checks of the benchmark itself (not collected by the repository's tests).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import report  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import uga.autodiff  # noqa: E402
import uga.train  # noqa: E402
import workloads as wl  # noqa: E402

SHORT = {"cubic_shift": {"iterations": 6}, "battery_transfer": {"iterations": 4},
         "gradcheck": {}}


@pytest.mark.parametrize("workload", ["cubic_shift", "battery_transfer"])
def test_traced_pass_repeats_untraced_arithmetic(workload, tmp_path):
    ledger = wl.Ledger()
    inputs = wl.make_inputs(workload, 3, tmp_path / "setup")
    plain = wl.PASSES[workload](inputs, 3, ledger, tmp_path / "plain",
                                **SHORT[workload])
    tracer = tracing.Tracer()
    traced, _wall = wl.traced_pass(tracer, workload, 3, ledger,
                                   tmp_path / "traced", **SHORT[workload])
    assert ledger.failed == 0, ledger.problems
    assert set(plain["digest"]) == set(wl.ARMS[workload])
    assert plain["digest"] == traced["digest"]
    assert plain["target_mae"] == traced["target_mae"]
    assert wl.isolation_problem(plain, traced) is None
    assert tracer.calls("train.train_uga") == len(wl.ARMS[workload])
    assert tracer.op_calls("matmul", "train.train_uga") > 0


def test_speed_probe_changes_timing_not_arithmetic(tmp_path):
    ledger = wl.Ledger()
    inputs = wl.make_inputs("cubic_shift", 3, None)
    plain = wl.cubic_pass(inputs, 3, ledger, tmp_path / "plain", iterations=6)
    handler = signal.getsignal(signal.SIGALRM)
    with speed.Probe() as probe:
        probed = wl.cubic_pass(inputs, 3, ledger, tmp_path / "probed",
                               iterations=6)
    assert ledger.failed == 0, ledger.problems
    assert len(probe.samples) > 2
    assert probed["digest"] == plain["digest"]
    assert probed["target_mae"] == plain["target_mae"]
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.ref_seconds == pytest.approx(probe.seconds / probe.slowdown)


def test_clock_leaves_out_probe_samples():
    t, c = speed.time.perf_counter(), speed.clock()
    spent = sum(speed._sample() for _ in range(20))
    elapsed = speed.time.perf_counter() - t
    assert speed.clock() - c == pytest.approx(elapsed - spent, abs=1e-3)


def test_restore_puts_every_original_back():
    originals = {op: getattr(uga.autodiff, op) for op in tracing.OP_NAMES}
    train_uga, step = uga.train.train_uga, uga.train.AdamOptimizer.step
    tracer = tracing.Tracer()
    with tracer:
        assert uga.train.train_uga is not train_uga
        assert tracer.installed_leftovers()
    assert tracer.installed_leftovers() == []
    assert uga.train.train_uga is train_uga
    assert uga.train.AdamOptimizer.step is step
    assert {op: getattr(uga.autodiff, op) for op in tracing.OP_NAMES} == originals


def test_wrappers_count_raising_calls():
    with tracing.Tracer() as tracer:
        with pytest.raises(uga.autodiff.ShapeError):
            uga.autodiff.matmul(uga.autodiff.ones(2, 3), uga.autodiff.ones(2, 3))
    assert tracer.failed == {"autodiff": 1}


def test_self_time_excludes_child_spans():
    with tracing.Tracer() as tracer:
        uga.train.train_uga(*_tiny_cubic())
    total = tracer.total_s("train.train_uga")
    children = sum(tracer.total_s(n) for n in (
        "train.assemble_loss", "train.step", "autodiff.backward"))
    assert tracer.self_s("train.train_uga") == pytest.approx(total - children)


def _tiny_cubic():
    inputs = wl.make_inputs("cubic_shift", 0, None)
    cfg = uga.train.TrainConfig(alignment="uga_feature", iterations=3,
                                batch_size=16, seed=0, aug_weight=32.0)
    return inputs["source"], inputs["target"], cfg, wl.CUBIC_SPEC


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == report.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == report.PER_LAYER
    assert spec["paths"] == ["bench"]
