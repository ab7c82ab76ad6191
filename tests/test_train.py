import dataclasses
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uga
from uga import alignment
from uga import autodiff as ad
from uga import train as tr
from uga.alignment import AlignmentKind
from uga.data import (
    LabeledSet,
    SyntheticShiftSpec,
    gen_battery_curves,
    make_cubic_shift_pair,
    windows_to_set,
)
from uga.evidential import evidential_loss
from uga.models import MlpSpec, SeqEncoderSpec, model_forward, seq_forward

LAMBDA_HALF = 0.98661429815143
LAMBDA_ONE = 0.999909204262595


def tiny_domains(n=64, shift=1.5, seed=0):
    src, tgt, _ = make_cubic_shift_pair(
        SyntheticShiftSpec(n=n, seed=seed, noise_sd=0.05),
        SyntheticShiftSpec(n=n, seed=seed + 1, shift=shift, noise_sd=0.05))
    return src, tgt.unlabeled()


def tiny_windows(n=12, seed=0):
    """Source windows with labels in [0, 1] and shifted target windows, in
    TestAssembleLoss.seq_spec's (window_len 6, input_dim 2) shape."""
    rng = np.random.default_rng(seed)
    src = LabeledSet(rng.normal(size=(n, 6, 2)), rng.uniform(size=n))
    return src, rng.normal(loc=0.5, size=(n - 2, 6, 2))


class TestLambdaSchedule:
    def test_endpoints(self):
        assert tr.lambda_schedule(0.0) == 0.0
        assert tr.lambda_schedule(0.5) == pytest.approx(LAMBDA_HALF, abs=1e-7)
        assert tr.lambda_schedule(1.0) == pytest.approx(LAMBDA_ONE, abs=1e-7)

    def test_strictly_increasing(self):
        ps = np.linspace(0.0, 1.0, 200)
        vals = [tr.lambda_schedule(p) for p in ps]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain_check(self):
        with pytest.raises(ValueError):
            tr.lambda_schedule(-0.01)
        with pytest.raises(ValueError):
            tr.lambda_schedule(1.01)


def _adam(p, lr):
    """An optimizer over the array p, which it updates in place."""
    return tr.AdamOptimizer([ad.param(p)], lr)


def _step(opt, grad):
    opt.params[0].grad = grad
    opt.step()


class TestAdamStep:
    def test_zero_grad_no_change(self):
        p = np.array([3.0])
        _step(_adam(p, lr=0.1), np.zeros(1))
        assert p[0] == 3.0

    def test_first_step_sign_scaled(self):
        p = np.zeros(3)
        _step(_adam(p, lr=0.1), np.array([4.0, -0.25, 1e-3]))
        np.testing.assert_allclose(p, [-0.1, 0.1, -0.1], rtol=1e-4)

    def test_state_threads_through(self):
        p = np.array([0.0])
        opt = _adam(p, lr=0.1)
        _step(opt, np.ones(1))
        _step(opt, np.ones(1))
        assert opt.t == 2
        assert p[0] == pytest.approx(-0.2, abs=1e-3)

    def test_quadratic_descent(self):
        w = np.array([1.0])
        _step(_adam(w, lr=0.1), 2.0 * w.copy())
        assert w[0] == pytest.approx(0.9)
        assert w[0] ** 2 < 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            _step(_adam(np.zeros(2), lr=0.1), np.zeros(3))

    def test_missing_gradient_is_zero(self):
        p = np.array([3.0])
        opt = _adam(p, lr=0.1)
        opt.step()
        assert p[0] == 3.0
        assert opt.t == 1

    def test_deterministic(self):
        def run():
            p = np.array([1.0, -1.0])
            opt = _adam(p, lr=0.05)
            for _ in range(5):
                _step(opt, p.copy() * 0.3)
            return p

        np.testing.assert_array_equal(run(), run())


class TestBandwidthRouting:
    """Training pools take their bandwidth from the distance buffer ad.mmd
    reads, so each aligned iteration computes its three distance blocks
    once; median_bandwidth thins pools above 256 rows before its screen."""

    @staticmethod
    def assert_one_distance_pass(calls, iterations):
        assert [(c.fused, c.grams_before, c.grams_inside) for c in calls] == \
            [(True, 3, 0)] * iterations

    @pytest.mark.parametrize("kind", [AlignmentKind.UGA_FEATURE,
                                      AlignmentKind.UGA_POSTERIOR])
    def test_cubic_arms_at_batch_128(self, mmd_calls, kind):
        src, tgt = tiny_domains(n=256)
        cfg = tr.TrainConfig(alignment=kind, iterations=3, batch_size=128,
                             lr=3e-3, aug_weight=32.0, clip_norm=0.5)
        _bundle, history = tr.train_uga(
            src, tgt, cfg, MlpSpec(layer_widths=(1, 128, 128), dropout_p=0.0))
        assert [r.iteration for r in history] == [1, 2, 3]
        assert all(r.alignment > 0.0 for r in history)
        self.assert_one_distance_pass(mmd_calls, 3)

    def test_stacked_battery_feature_arm(self, mmd_calls):
        src = windows_to_set(gen_battery_curves(-20.0, 1, seed=500, capacity_ah=0.2), 100, 5)
        tgt = windows_to_set(gen_battery_curves(25.0, 1, seed=700, capacity_ah=0.2), 100, 5)
        cfg = tr.TrainConfig(alignment=AlignmentKind.UGA_FEATURE, iterations=3,
                             batch_size=32, lr=3e-3, lambda_evi=0.1,
                             aug_weight=32.0, clip_norm=0.5)
        _bundle, history = tr.train_uga(
            src, tgt.unlabeled(), cfg,
            SeqEncoderSpec(num_layers=1, hidden_dim=16, input_dim=3, window_len=100))
        assert all(r.alignment > 0.0 for r in history)
        self.assert_one_distance_pass(mmd_calls, 3)

    def test_evaluation_pool_is_thinned_and_screened(self, monkeypatch):
        pools = []
        real = ad.mmd_dists

        def recording(x, y):
            pools.append((x.shape, y.shape))
            return real(x, y)

        monkeypatch.setattr(ad, "mmd_dists", recording)
        rng = np.random.default_rng(131)
        X, Y = rng.normal(size=(2000, 3)), rng.normal(loc=0.5, size=(2000, 3))
        with ad.no_grad():
            alignment.mmd2_biased(X, Y)
        # stride ceil(4000 / 256) = 16 keeps 125 + 125 rows
        assert pools == [((125, 3), (125, 3))]


class TestTrainConfig:
    def test_json_round_trip(self):
        cfg = tr.TrainConfig(alignment=AlignmentKind.UGA_FEATURE, lambda_evi=0.1,
                             lr=0.01, iterations=250, batch_size=128,
                             seed=3, aug_weight=2.0, clip_norm=None)
        again = tr.TrainConfig.from_json(cfg.to_json())
        assert again == cfg
        assert len(dataclasses.fields(tr.TrainConfig)) == 8

    def test_unknown_keys_rejected(self):
        text = json.dumps({"alignment": "none", "learning_rate": 0.1})
        with pytest.raises(ValueError, match="learning_rate"):
            tr.TrainConfig.from_json(text)

    def test_alignment_string_coerced(self):
        cfg = tr.TrainConfig.from_json('{"alignment": "uga_posterior"}')
        assert cfg.alignment is AlignmentKind.UGA_POSTERIOR

    def test_validation(self):
        with pytest.raises(ValueError):
            tr.TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            tr.TrainConfig(iterations=0)
        with pytest.raises(ValueError):
            tr.TrainConfig(clip_norm=0.0)
        with pytest.raises(ValueError):
            tr.TrainConfig(lambda_evi=-1.0)

    @pytest.mark.parametrize("field,value", [("iterations", 2.5), ("iterations", 3.0),
                                             ("batch_size", 2.5), ("batch_size", True),
                                             ("iterations", "10")])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            tr.TrainConfig(**{field: value})
        assert getattr(tr.TrainConfig(**{field: np.int64(3)}), field) == 3

    @pytest.mark.parametrize("field,value", [
        ("lr", float("nan")), ("lr", float("inf")),
        ("lr", {"head": 0.1, "extractor": 0.01}), ("lr", [0.1]),
        ("lr", -0.1), ("lr", "0.1"), ("lr", True),
        ("clip_norm", float("nan")), ("clip_norm", float("inf")), ("clip_norm", True),
        ("lambda_evi", float("nan")), ("lambda_evi", float("inf")), ("lambda_evi", True),
        ("lambda_evi", "0.1"), ("lambda_evi", None),
        ("aug_weight", -1.0), ("aug_weight", float("nan")), ("aug_weight", float("inf")),
        ("aug_weight", True),
        ("seed", 2.5), ("seed", True), ("seed", "1"), ("seed", -1),
    ])
    def test_non_finite_and_bad_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            tr.TrainConfig(**{field: value})

    # Only strings used to be converted, so a JSON null, number, bool or list
    # trained and then failed in to_json.
    @pytest.mark.parametrize("value", [None, 3, True, ["none"], "coral"])
    def test_bad_alignment_rejected(self, value):
        with pytest.raises(ValueError, match=r"is not a valid AlignmentKind$"):
            tr.TrainConfig(alignment=value)

    def test_nan_literal_in_json_rejected(self):
        with pytest.raises(ValueError, match="clip_norm"):
            tr.TrainConfig.from_json('{"clip_norm": NaN}')


class TestAssembleLoss:
    def spec(self):
        return MlpSpec(layer_widths=(1, 8, 4), dropout_p=0.0)

    def seq_spec(self):
        return SeqEncoderSpec(num_layers=2, hidden_dim=4, input_dim=2, window_len=6)

    def test_none_equals_supervised(self):
        src, tgt = tiny_domains()
        cfg = tr.TrainConfig(alignment=AlignmentKind.NONE, lambda_evi=1.0)
        bundle = tr.build_bundle(self.spec(), seed=1)
        loss, sup, align = tr.assemble_loss(src, tgt, bundle, cfg, p=0.7)
        _z, head = model_forward(src.inputs, bundle)
        direct = evidential_loss(src.labels, head, 1.0)
        assert loss.item() == direct.item()
        assert align == 0.0

    def test_p_zero_is_supervised_only(self):
        cases = [(self.spec(), *tiny_domains()), (self.seq_spec(), *tiny_windows())]
        for spec, src, tgt in cases:
            for kind in (AlignmentKind.UGA_FEATURE, AlignmentKind.UGA_POSTERIOR):
                cfg = tr.TrainConfig(alignment=kind)
                bundle = tr.build_bundle(spec, seed=2)
                loss, sup, _align = tr.assemble_loss(src, tgt, bundle, cfg, p=0.0)
                assert loss.item() == sup

    def test_recurrent_alignment_is_one_lstm_pass(self, monkeypatch):
        src, tgt = tiny_windows()
        bundle = tr.build_bundle(self.seq_spec(), seed=6)
        separate = [seq_forward(x, bundle).data for x in (src.inputs, tgt)]
        lstm_calls, features = [], []
        real_lstm, real_embed = ad.lstm, tr.augmented_embedding

        def counting_lstm(x, layers):
            lstm_calls.append(np.shape(x))
            return real_lstm(x, layers)

        def recording_embed(z, p, aug_weight):
            features.append(z.data)
            return real_embed(z, p, aug_weight)

        monkeypatch.setattr(ad, "lstm", counting_lstm)
        monkeypatch.setattr(tr, "augmented_embedding", recording_embed)
        cfg = tr.TrainConfig(alignment=AlignmentKind.UGA_FEATURE)
        loss, _sup, _align = tr.assemble_loss(src, tgt, bundle, cfg, p=0.5)
        assert lstm_calls == [(len(src) + len(tgt), *src.inputs.shape[1:])]
        assert [z.tobytes() for z in features] == [z.tobytes() for z in separate]
        ad.backward(loss)
        assert all(t.grad is not None for t in bundle.parameters())

    def test_posterior_alignment_zero_on_identical_batches(self):
        src, _ = tiny_domains()
        cfg = tr.TrainConfig(alignment=AlignmentKind.UGA_POSTERIOR)
        bundle = tr.build_bundle(self.spec(), seed=3)
        same = src.inputs
        _loss, _sup, align = tr.assemble_loss(src, same, bundle, cfg, p=0.5)
        assert align == 0.0

    def test_empty_batches_rejected(self):
        src, tgt = tiny_domains()
        empty_l = LabeledSet(np.zeros((0, 1)), np.zeros(0))
        empty_u = np.zeros((0, 1))
        bundle = tr.build_bundle(self.spec(), seed=4)
        with pytest.raises(ValueError):
            tr.assemble_loss(empty_l, tgt,
                             bundle, tr.TrainConfig(), p=0.5)
        with pytest.raises(ValueError):
            tr.assemble_loss(src, empty_u, bundle,
                             tr.TrainConfig(alignment=AlignmentKind.UGA_FEATURE),
                             p=0.5)


class TestTrainLoop:
    def spec(self, dropout=0.1):
        return MlpSpec(layer_widths=(1, 8, 6), dropout_p=dropout)

    def cfg(self, **kw):
        base = dict(alignment=AlignmentKind.UGA_FEATURE,
                    lr=1e-2, iterations=40, batch_size=16, seed=5)
        base.update(kw)
        return tr.TrainConfig(**base)

    def test_determinism(self):
        src, tgt = tiny_domains()
        b1, h1 = tr.train_uga(src, tgt, self.cfg(), self.spec())
        b2, h2 = tr.train_uga(src, tgt, self.cfg(), self.spec())
        assert h1 == h2
        for (n1, t1), (n2, t2) in zip(b1.named_parameters(), b2.named_parameters()):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data)

    def test_source_only_equals_zero_lambda_run(self, monkeypatch):
        src, tgt = tiny_domains()
        base, _ = tr.train_uga(src, tgt, self.cfg(alignment=AlignmentKind.NONE),
                               self.spec())
        monkeypatch.setattr(tr, "lambda_schedule", lambda p: 0.0)
        forced, _ = tr.train_uga(src, tgt, self.cfg(), self.spec())
        for (_, t1), (_, t2) in zip(base.named_parameters(),
                                    forced.named_parameters()):
            assert np.array_equal(t1.data, t2.data)

    def test_history_schema_and_lambda_ramp(self):
        src, tgt = tiny_domains()
        _b, hist = tr.train_uga(src, tgt, self.cfg(iterations=25), self.spec())
        assert len(hist) == 25
        assert [r.iteration for r in hist] == list(range(1, 26))
        lams = [r.lam for r in hist]
        assert all(a < b for a, b in zip(lams, lams[1:]))
        assert lams[-1] == pytest.approx(LAMBDA_ONE, abs=1e-9)

    def test_alignment_terms_nonnegative_and_finite(self):
        src, tgt = tiny_domains()
        for kind in (AlignmentKind.UGA_FEATURE, AlignmentKind.UGA_POSTERIOR):
            _b, hist = tr.train_uga(src, tgt, self.cfg(alignment=kind,
                                                       iterations=20),
                                    self.spec())
            for row in hist:
                assert np.isfinite(row.supervised)
                assert np.isfinite(row.alignment)
                assert row.alignment >= 0.0

    def test_training_reduces_supervised_loss(self):
        src, tgt = tiny_domains(n=256)
        cfg = self.cfg(alignment=AlignmentKind.NONE, iterations=150,
                       batch_size=64, lr=5e-3)
        _b, hist = tr.train_uga(src, tgt, cfg, self.spec(dropout=0.0))
        early = np.mean([r.supervised for r in hist[:10]])
        late = np.mean([r.supervised for r in hist[-10:]])
        assert late < early

    def test_empty_source_rejected(self):
        src, tgt = tiny_domains()
        with pytest.raises(ValueError):
            tr.train_uga(LabeledSet(np.zeros((0, 1)), np.zeros(0)), tgt,
                         self.cfg(), self.spec())

    def test_adaptation_needs_target(self):
        src, _ = tiny_domains()
        with pytest.raises(ValueError):
            tr.train_uga(src, np.zeros((0, 1)), self.cfg(),
                         self.spec())

    @pytest.mark.parametrize("where,alignment,message", [
        ("inputs", AlignmentKind.NONE, "source inputs: non-finite value in row 7"),
        ("labels", AlignmentKind.NONE, "source labels: non-finite value in row 7"),
        ("target", AlignmentKind.UGA_FEATURE, "target inputs: non-finite value in row 7"),
        ("target", AlignmentKind.UGA_POSTERIOR, "target inputs: non-finite value in row 7"),
    ])
    def test_nonfinite_input_refused_before_training(self, monkeypatch, where,
                                                     alignment, message):
        src, tgt = tiny_domains()
        bad = {"inputs": src.inputs, "labels": src.labels, "target": tgt}[where]
        bad[7], bad[9] = np.nan, np.inf

        def no_build(*args, **kwargs):
            raise AssertionError("build_bundle ran on non-finite inputs")

        monkeypatch.setattr(tr, "build_bundle", no_build)
        with pytest.raises(ValueError, match=f"^{message}$"):
            tr.train_uga(src, tgt, self.cfg(alignment=alignment), self.spec())

    def test_nonfinite_target_ignored_without_alignment(self):
        src, tgt = tiny_domains()
        tgt[3] = np.nan
        _b, hist = tr.train_uga(src, tgt, self.cfg(alignment=AlignmentKind.NONE,
                                                   iterations=3), self.spec())
        assert len(hist) == 3

    def test_nonfinite_window_refused(self):
        src, tgt = tiny_windows()
        src.inputs[4, 5, 1] = np.nan
        spec = SeqEncoderSpec(num_layers=1, hidden_dim=3, input_dim=2, window_len=6)
        with pytest.raises(ValueError, match="^source inputs: non-finite value in row 4$"):
            tr.train_uga(src, tgt, self.cfg(), spec)


# Two iterations of the feature arm at the acceptance width: 128 features plus
# the 4 NIG columns make a 132-wide augmented embedding, the shape at which a
# multithreaded BLAS gemm can round differently from a single-threaded one.
_THREAD_RUN = """
import sys
from uga.alignment import AlignmentKind
from uga.data import SyntheticShiftSpec, make_cubic_shift_pair
from uga.models import MlpSpec, save_checkpoint
from uga.train import TrainConfig, train_uga

src, tgt, _ = make_cubic_shift_pair(
    SyntheticShiftSpec(n=256, noise_sd=0.05, seed=1),
    SyntheticShiftSpec(n=256, shift=2.0, noise_sd=0.05, seed=2))
cfg = TrainConfig(alignment=AlignmentKind.UGA_FEATURE, iterations=2,
                  batch_size=128, lr=3e-3, seed=0, aug_weight=32.0,
                  clip_norm=0.5)
bundle, _ = train_uga(src, tgt.unlabeled(), cfg,
                      MlpSpec(layer_widths=(1, 128, 128), dropout_p=0.0))
save_checkpoint(bundle, sys.argv[1])
"""


def _checkpoints_under_1_and_2_threads(script, tmp_path, *args):
    src_dir = str(Path(uga.__file__).resolve().parents[1])
    blobs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"threads{threads}.bin"
        subprocess.run([sys.executable, "-c", script, str(out), *args],
                       env=env, check=True)
        blobs.append(out.read_bytes())
    return blobs


def test_feature_arm_bits_independent_of_blas_threads(tmp_path):
    blobs = _checkpoints_under_1_and_2_threads(_THREAD_RUN, tmp_path)
    assert blobs[0] == blobs[1]


# Two iterations at the battery benchmark's LSTM shape (1 layer, h=16,
# 100-step windows, batch 32), which runs on the fused `ad.lstm` op: over 32
# source rows, or with feature alignment over 64 stacked source and target rows.
_BATTERY_THREAD_RUN = """
import sys
from uga.data import gen_battery_curves, windows_to_set
from uga.models import SeqEncoderSpec, save_checkpoint
from uga.train import TrainConfig, train_uga

src = windows_to_set(gen_battery_curves(-20.0, 1, seed=500, capacity_ah=0.2), 100, 5)
tgt = windows_to_set(gen_battery_curves(25.0, 1, seed=700, capacity_ah=0.2), 100, 5)
cfg = TrainConfig(alignment=sys.argv[2], iterations=2, batch_size=32, lr=3e-3, seed=0,
                  lambda_evi=0.1, aug_weight=32.0, clip_norm=0.5)
bundle, _ = train_uga(src, tgt.unlabeled(), cfg,
                      SeqEncoderSpec(num_layers=1, hidden_dim=16, input_dim=3,
                                     window_len=100))
save_checkpoint(bundle, sys.argv[1])
"""


@pytest.mark.parametrize("alignment", ["none", "uga_feature"])
def test_battery_lstm_bits_independent_of_blas_threads(tmp_path, alignment):
    blobs = _checkpoints_under_1_and_2_threads(_BATTERY_THREAD_RUN, tmp_path,
                                               alignment)
    assert blobs[0] == blobs[1]


# 200 iterations at the cubic benchmark's MLP shape (batch 128, hidden 128)
# in a fresh process, which has freed no large block before train_uga runs.
_FAULT_RUN = """
import resource
import numpy as np
from uga.data import LabeledSet
from uga.models import MlpSpec
from uga.train import TrainConfig, train_uga

rng = np.random.default_rng(0)
src = LabeledSet(rng.normal(size=(512, 1)), rng.uniform(size=512))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
train_uga(src, np.empty((0, 1)), TrainConfig(iterations=200, batch_size=128),
          MlpSpec(layer_widths=(1, 128, 128)))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="tests glibc malloc's dynamic mmap threshold")
def test_training_activations_are_not_mapped_afresh():
    # Each (128, 128) activation mapped and unmapped on its own costs fresh
    # page faults every iteration: about 31,600 over this run, against about
    # 730 once a larger block has been freed.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(uga.__file__).resolve().parents[1]),
                      os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _FAULT_RUN], env=env,
                          capture_output=True, text=True, check=True)
    assert int(proc.stdout) < 5000
