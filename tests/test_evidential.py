import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special
import scipy.stats

import uga
from uga import autodiff as ad
from uga import gradcheck as gc
from uga.evidential import (
    _CORNISH_FISHER_MIN_DF,
    _T95_DF2,
    _Z95,
    NigOutput,
    _t95_cornish_fisher,
    _t_tail,
    evidential_loss,
    nig_from_raw,
    nll_loss,
    predictive_interval,
    uncertainties,
)

# Frozen oracle values (mpmath, 40 digits) for the NLL at two probe points
# and the Student-t 0.95 quantile at 4 degrees of freedom.
NLL_Y0 = 0.9808292530117262368565
NLL_Y1 = 1.538688131297250626272
TOTAL_Y1_LAM1 = 5.538688131297250626272
T_095_DF4 = 2.131846786326650318347
LN2 = 0.6931471805599453094172


def unit_nig(gamma=0.0, nu=1.0, alpha=2.0, beta=1.0):
    return NigOutput.from_values(gamma, nu, alpha, beta)


# -- the tape compositions that ad.nig and ad.nig_nll replace ----------------
#
# They are the reference for the fused ops' bits: values and gradients must
# match them byte for byte.

def tape_labels(y, batch_size):
    a = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    return ad.constant(np.broadcast_to(a, (batch_size, 1)).copy())


def tape_nig_from_raw(raw):
    gamma = ad.slice_last(raw, 0, 1)
    nu = ad.softplus(ad.slice_last(raw, 1, 2))
    alpha = ad.softplus(ad.slice_last(raw, 2, 3)) + (1.0 + 1e-15)
    beta = ad.softplus(ad.slice_last(raw, 3, 4))
    return NigOutput(gamma, nu, alpha, beta)


def tape_nll(y, p):
    y = tape_labels(y, p.batch_size)
    gamma, nu, alpha, beta = p.gamma, p.nu, p.alpha, p.beta
    omega = 2.0 * beta * (1.0 + nu)
    resid = y - gamma
    return (
        0.5 * (math.log(math.pi) - ad.log(nu))
        - alpha * ad.log(omega)
        + ad.lgamma(alpha)
        - ad.lgamma(alpha + 0.5)
        + (alpha + 0.5) * ad.log(resid * resid * nu + omega)
    )


def evidence_regularizer(y, p):
    """Per-sample evidence penalty |y - gamma| * (2*nu + alpha), shape (B, 1)."""
    y = tape_labels(y, p.batch_size)
    return ad.abs(y - p.gamma) * (2.0 * p.nu + p.alpha)


def tape_evidential_loss(ys, ps, lambda_evi):
    per_sample = tape_nll(ys, ps)
    if lambda_evi != 0.0:
        per_sample = per_sample + lambda_evi * evidence_regularizer(ys, ps)
    return ad.mean(per_sample)


class TestMapping:
    def test_zero_raw(self):
        p = nig_from_raw(ad.constant(np.zeros((1, 4))))
        assert p.gamma.item() == 0.0
        assert p.nu.item() == pytest.approx(LN2, abs=1e-12)
        assert p.alpha.item() == pytest.approx(1.0 + LN2, abs=1e-12)
        assert p.beta.item() == pytest.approx(LN2, abs=1e-12)

    def test_large_raw_asymptote(self):
        p = nig_from_raw(ad.constant(np.array([[1.5, 50.0, 50.0, 50.0]])))
        assert p.gamma.item() == 1.5
        assert p.nu.item() == pytest.approx(50.0, abs=1e-9)
        assert p.alpha.item() == pytest.approx(51.0, abs=1e-9)
        assert p.beta.item() == pytest.approx(50.0, abs=1e-9)

    def test_totality(self):
        # Large random raw magnitudes must still give valid parameters and a
        # finite loss.
        rng = np.random.default_rng(7)
        raw = rng.uniform(-100.0, 100.0, size=(100_000, 4))
        p = nig_from_raw(ad.constant(raw))
        assert np.all(p.nu.data > 0)
        assert np.all(p.alpha.data > 1)
        assert np.all(p.beta.data > 0)
        ys = rng.normal(size=100_000)
        loss = nll_loss(ys, p)
        assert np.all(np.isfinite(loss.data))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            nig_from_raw(ad.constant(np.array([[0.0, np.nan, 0.0, 0.0]])))

    def test_rejects_bad_shape(self):
        with pytest.raises(ad.ShapeError):
            nig_from_raw(ad.constant(np.zeros((2, 3))))

    def test_validate_rejects_violations(self):
        # Construction checks the invariant, so no invalid NigOutput exists.
        with pytest.raises(ValueError, match="nu > 0"):
            NigOutput.from_values(0.0, -1.0, 2.0, 1.0)
        with pytest.raises(ValueError, match="alpha > 1"):
            NigOutput.from_values(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="beta > 0"):
            NigOutput.from_values(0.0, 1.0, 2.0, 0.0)

    def test_underflowed_softplus_rejected(self):
        # softplus(-800) underflows to 0.0, so nu and beta would be 0.
        with pytest.raises(ValueError, match="NigOutput requires nu > 0"):
            nig_from_raw(ad.constant([[0.0, -800.0, 0.0, -800.0]]))


class TestNll:
    def test_oracle_y0(self):
        assert nll_loss(0.0, unit_nig()).item() == pytest.approx(NLL_Y0, abs=1e-9)

    def test_oracle_y1(self):
        assert nll_loss(1.0, unit_nig()).item() == pytest.approx(NLL_Y1, abs=1e-9)

    def test_gamma_stationary_at_label(self):
        g = ad.param(np.array([[0.7]]))
        p = NigOutput(g, *(ad.constant(np.array([[v]])) for v in (1.0, 2.0, 1.0)))
        ad.backward(nll_loss(0.7, p))
        assert g.grad.item() == 0.0

    def test_rejects_invalid_params(self):
        with pytest.raises(ValueError):
            nll_loss(0.0, NigOutput.from_values(0.0, 0.0, 2.0, 1.0))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(19)
        n = 100
        leaves = [
            ad.param(rng.uniform(-3.0, 3.0, size=(n, 1))),
            ad.param(rng.uniform(0.2, 5.0, size=(n, 1))),
            ad.param(rng.uniform(1.2, 6.0, size=(n, 1))),
            ad.param(rng.uniform(0.2, 5.0, size=(n, 1))),
        ]
        ys = rng.uniform(-3.0, 3.0, size=(n, 1))

        def build(ls):
            return ad.sum(nll_loss(ys, NigOutput(*ls)))

        assert gc.compare(build, leaves) < 1e-5


class TestRegularizer:
    def test_zero_at_label(self):
        assert evidence_regularizer(0.3, unit_nig(gamma=0.3)).item() == 0.0

    def test_hand_values(self):
        assert evidence_regularizer(1.0, unit_nig()).item() == pytest.approx(4.0)
        p = NigOutput.from_values(0.0, 0.5, 1.5, 1.0)
        assert evidence_regularizer(0.5, p).item() == pytest.approx(1.25)

    def test_nonnegative_and_zero_iff_match(self):
        rng = np.random.default_rng(23)
        g = rng.normal(size=50)
        p = NigOutput.from_values(g, rng.uniform(0.1, 4, 50),
                                  rng.uniform(1.1, 4, 50), rng.uniform(0.1, 4, 50))
        y = g.copy()
        y[25:] += rng.uniform(0.01, 2, 25) * rng.choice([-1, 1], 25)
        r = evidence_regularizer(y, p).data.ravel()
        assert np.all(r >= 0)
        assert np.all(r[:25] == 0)
        assert np.all(r[25:] > 0)


class TestTotalLoss:
    def test_lambda_zero_is_mean_nll(self):
        rng = np.random.default_rng(29)
        p = NigOutput.from_values(rng.normal(size=8), rng.uniform(0.5, 2, 8),
                                  rng.uniform(1.5, 3, 8), rng.uniform(0.5, 2, 8))
        ys = rng.normal(size=8)
        total = evidential_loss(ys, p, lambda_evi=0.0)
        assert total.item() == pytest.approx(float(np.mean(nll_loss(ys, p).data)))

    def test_single_sample_oracle(self):
        total = evidential_loss(1.0, unit_nig(), lambda_evi=1.0)
        assert total.item() == pytest.approx(TOTAL_Y1_LAM1, abs=1e-9)

    def test_duplicated_batch_matches_single(self):
        p = NigOutput.from_values([0.0] * 6, [1.0] * 6, [2.0] * 6, [1.0] * 6)
        total = evidential_loss([1.0] * 6, p, lambda_evi=1.0)
        assert total.item() == pytest.approx(TOTAL_Y1_LAM1, abs=1e-9)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="lambda_evi"):
            evidential_loss(1.0, unit_nig(), lambda_evi=-0.1)

    def test_non_finite_lambda_rejected(self):
        for lam in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lambda_evi"):
                evidential_loss(1.0, unit_nig(), lambda_evi=lam)

    def test_gradients_through_raw_mapping(self):
        rng = np.random.default_rng(31)
        raw = ad.param(rng.normal(size=(12, 4)))
        ys = rng.normal(size=(12, 1))

        def build(ls):
            return evidential_loss(ys, nig_from_raw(ls[0]),
                                   lambda_evi=1.0)

        assert gc.compare(build, [raw]) < 1e-5


def bits(a):
    return np.asarray(a).tobytes()


class TestFusedEvidential:
    """nig_from_raw, nll_loss and evidential_loss against the tape
    compositions above: the same bytes for values and gradients."""

    @staticmethod
    def run(mapping, loss, raw_data, ys, consumer):
        """Loss value, NIG columns and raw gradient of one graph.  `consumer`
        adds the columns' later use in training: a concat as in the feature
        arm, or row slices as in the stacked LSTM path."""
        raw = ad.param(raw_data)
        p = mapping(raw)
        later = []
        if consumer == "slice_rows":
            n = len(ys)
            q = NigOutput(*(ad.slice_rows(t, n, 2 * n) for t in (p.gamma, p.nu, p.alpha, p.beta)))
            p = NigOutput(*(ad.slice_rows(t, 0, n) for t in (p.gamma, p.nu, p.alpha, p.beta)))
            later = [p, q]
        elif consumer == "concat":
            later = [p]
        value = loss(ys, p)
        total = ad.sum(value)
        for head in later:
            block = ad.concat([head.gamma, head.nu, head.alpha, head.beta])
            total = total + 0.7 * ad.sum(ad.tanh(block * 0.3))
        ad.backward(total)
        return [bits(value.data), raw.grad.tobytes(),
                *(bits(t.data) for t in (p.gamma, p.nu, p.alpha, p.beta))]

    @staticmethod
    def raw_data(rows, seed):
        rng = np.random.default_rng(seed)
        raw = rng.normal(scale=2.0, size=(rows, 4))
        raw[::3, 1:] *= 20.0   # saturated and underflowing softplus
        raw[1::4, 2] = -800.0  # alpha's softplus and its slope underflow to 0
        return raw

    @pytest.mark.parametrize("consumer", ["alone", "concat", "slice_rows"])
    @pytest.mark.parametrize("lambda_evi", [None, 0.0, 0.1, 1.0])
    @pytest.mark.parametrize("batch", [1, 32, 128])
    def test_bits_match_tape(self, batch, lambda_evi, consumer):
        rows = 2 * batch if consumer == "slice_rows" else batch
        raw = self.raw_data(rows, batch)
        ys = np.random.default_rng(batch + 1).normal(size=(batch, 1))
        if lambda_evi is None:
            fused, tape = nll_loss, tape_nll
        else:
            def fused(y, p):
                return evidential_loss(y, p, lambda_evi)

            def tape(y, p):
                return tape_evidential_loss(y, p, lambda_evi)
        got = self.run(nig_from_raw, fused, raw, ys, consumer)
        want = self.run(tape_nig_from_raw, tape, raw, ys, consumer)
        assert got == want

    @pytest.mark.parametrize("trainable", [(0, 1, 2, 3), (0,), (1, 3), (2,)])
    @pytest.mark.parametrize("lambda_evi", [0.0, 0.1, 1.0])
    def test_leaf_columns_bits(self, lambda_evi, trainable):
        rng = np.random.default_rng(41)
        cols = [rng.normal(size=(32, 1)), rng.uniform(1e-3, 5.0, (32, 1)),
                rng.uniform(1.0001, 9.0, (32, 1)), rng.uniform(1e-3, 5.0, (32, 1))]
        ys = rng.normal(size=32)
        out = []
        for loss in (evidential_loss, tape_evidential_loss):
            leaves = [ad.param(c) if i in trainable else ad.constant(c)
                      for i, c in enumerate(cols)]
            total = loss(ys, NigOutput(*leaves), lambda_evi)
            ad.backward(total)
            out.append([bits(total.data)] + [bits(leaves[i].grad) for i in trainable])
        assert out[0] == out[1]

    @pytest.mark.parametrize("lambda_evi", [0.0, 0.1, 1.0])
    def test_constant_inputs_bits(self, lambda_evi):
        rng = np.random.default_rng(43)
        p = NigOutput.from_values(rng.normal(size=128), rng.uniform(0.01, 5, 128),
                                  rng.uniform(1.001, 9, 128), rng.uniform(0.01, 5, 128))
        ys = rng.normal(size=128)
        fused = evidential_loss(ys, p, lambda_evi)
        assert not fused.requires_grad and fused._backward is None
        assert bits(fused.data) == bits(tape_evidential_loss(ys, p, lambda_evi).data)
        assert bits(nll_loss(ys, p).data) == bits(tape_nll(ys, p).data)
        # One label broadcasts over the batch, as before.
        assert bits(nll_loss(0.5, p).data) == bits(tape_nll(0.5, p).data)

    def test_loss_graph_is_seven_nodes(self):
        # mean, nig_nll, four column slices and nig above the raw output
        raw = ad.param(np.zeros((4, 4)))
        nodes, stack = set(), [evidential_loss(np.ones(4), nig_from_raw(raw), 0.1)]
        while stack:
            t = stack.pop()
            if t._backward is not None and id(t) not in nodes:
                nodes.add(id(t))
                stack.extend(t._parents)
        assert len(nodes) == 7

    @pytest.mark.parametrize("loss", [nll_loss, evidential_loss])
    def test_bad_labels_rejected(self, loss):
        p = NigOutput.from_values([0.0, 1.0], 1.0, 2.0, 1.0)
        with pytest.raises(ad.ShapeError, match="3 labels for batch of 2"):
            loss(np.zeros(3), p)
        with pytest.raises(ad.ShapeError, match="expected scalar, vector, or column"):
            loss(np.zeros((2, 2)), p)
        with pytest.raises(ValueError, match="labels must be finite"):
            loss([0.0, np.inf], p)

    def test_ops_reject_bad_inputs(self):
        with pytest.raises(ad.ShapeError):
            ad.nig(np.zeros((2, 3)))
        one = np.ones((2, 1))
        with pytest.raises(ad.ShapeError):
            ad.nig_nll(one, one, one, np.ones((3, 1)), one, 1.0)
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ad.DomainError):
                ad.nig_nll(one, one, one * bad, one * 2.0, one, 1.0)
        with pytest.raises(ad.DomainError):
            ad.nig_nll(one, one, one, one * np.inf, one, 1.0)


class TestUncertainties:
    def test_hand_values(self):
        al, ep = uncertainties(unit_nig())
        assert al[0] == pytest.approx(1.0)
        al, ep = uncertainties(NigOutput.from_values(0.0, 2.0, 3.0, 4.0))
        assert ep[0] == pytest.approx(1.0)

    def test_small_beta_limit(self):
        al, ep = uncertainties(NigOutput.from_values(0.0, 1.0, 2.0, 1e-12))
        assert 0 < al[0] < 1e-11
        assert 0 < ep[0] < 1e-11


class TestPredictiveInterval:
    def test_frozen_t_quantile(self):
        lo, hi = predictive_interval(unit_nig(), 0.90)
        assert hi[0] == pytest.approx(T_095_DF4, abs=1e-6)
        assert lo[0] == pytest.approx(-T_095_DF4, abs=1e-6)

    def test_level_zero_degenerate(self):
        lo, hi = predictive_interval(unit_nig(gamma=0.4), 0.0)
        assert lo[0] == hi[0] == 0.4

    def test_symmetry(self):
        rng = np.random.default_rng(37)
        p = NigOutput.from_values(rng.normal(size=20), rng.uniform(0.5, 3, 20),
                                  rng.uniform(1.5, 4, 20), rng.uniform(0.5, 3, 20))
        lo, hi = predictive_interval(p, 0.8)
        np.testing.assert_allclose(hi - p.gamma.data.ravel(),
                                   p.gamma.data.ravel() - lo, rtol=1e-12)

    def test_width_monotone_in_level_and_beta(self):
        widths = []
        for level in (0.1, 0.5, 0.9, 0.99):
            lo, hi = predictive_interval(unit_nig(), level)
            widths.append(hi[0] - lo[0])
        assert all(a < b for a, b in zip(widths, widths[1:]))
        widths = []
        for beta in (0.5, 1.0, 2.0, 4.0):
            lo, hi = predictive_interval(unit_nig(beta=beta), 0.9)
            widths.append(hi[0] - lo[0])
        assert all(a < b for a, b in zip(widths, widths[1:]))

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            predictive_interval(unit_nig(), 1.0)
        with pytest.raises(ValueError):
            predictive_interval(unit_nig(), -0.1)

    @pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99])
    def test_quantile_bits_match_scipy_stats(self, level):
        # predictive_interval calls scipy.special.stdtrit; the interval must
        # keep the bits of the scipy.stats.t.ppf form it replaced.
        rng = np.random.default_rng(79)
        n = 5000
        alpha = 1.0 + rng.exponential(3.0, n) * rng.choice([1e-6, 1.0, 1e3], n)
        p = NigOutput.from_values(rng.normal(size=n), rng.uniform(0.1, 5, n),
                                  alpha, rng.uniform(0.1, 5, n))
        scale = np.sqrt(p.beta.data.ravel() * (1.0 + p.nu.data.ravel())
                        / (p.nu.data.ravel() * alpha))
        q = scipy.stats.t.ppf(0.5 * (1.0 + level), df=2.0 * alpha)
        gamma = p.gamma.data.ravel()
        lo, hi = predictive_interval(p, level)
        assert lo.tobytes() == (gamma - q * scale).tobytes()
        assert hi.tobytes() == (gamma + q * scale).tobytes()


class TestQuantileBounds:
    # evaluate's coverage90 decides each label from these bounds on the
    # quantile stdtrit(df, 0.95), so each must hold stdtrit's value itself,
    # not just the true one, well inside metrics._RTOL = 1e-9.
    DF = 2.0 * (1.0 + np.geomspace(1e-12, 5e14 - 1.0, 4000))   # 2(1+1e-12) .. 1e15

    def test_constants_are_the_normal_and_two_df_quantiles(self):
        assert _Z95 == scipy.special.ndtri(0.95)
        assert _T95_DF2 == scipy.special.stdtrit(2.0, 0.95)

    def test_normal_and_two_df_quantiles_bound_every_df(self):
        q = scipy.special.stdtrit(self.DF, 0.95)
        assert np.all(_Z95 * (1.0 - 1e-12) <= q)
        assert np.all(q <= _T95_DF2 * (1.0 + 1e-12))

    def test_cornish_fisher_quantile_matches_stdtrit_at_large_df(self):
        df = self.DF[self.DF >= _CORNISH_FISHER_MIN_DF]
        q = scipy.special.stdtrit(df, 0.95)
        assert df.size > 1000
        assert np.all(np.abs(_t95_cornish_fisher(df) / q - 1.0) < 1e-11)

    def test_tail_at_stdtrit_quantile_is_five_percent(self):
        df = self.DF[self.DF < _CORNISH_FISHER_MIN_DF]
        tail = _t_tail(scipy.special.stdtrit(df, 0.95), df)
        assert df.size > 1000
        assert np.all(np.abs(tail / 0.05 - 1.0) < 1e-11)

    @pytest.mark.parametrize("t", [0.3, 1.0, 2.0, 5.0, 30.0])
    def test_tail_matches_stdtr(self, t):
        df = self.DF[self.DF < _CORNISH_FISHER_MIN_DF]
        tail = _t_tail(np.full(df.size, t), df)
        assert np.all(np.abs(tail / scipy.special.stdtr(df, -t) - 1.0) < 1e-11)


def run_fresh(script):
    """stdout of `script` run in a new interpreter that imports this uga."""
    src_dir = str(Path(uga.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout


def loaded_by_package_import(module):
    # uga.cli imports every module of the package.
    return run_fresh(f"import sys, uga.cli; print({module!r} in sys.modules)").strip()


def test_package_import_leaves_scipy_stats_unloaded():
    assert loaded_by_package_import("scipy.stats") == "False"


def test_package_import_leaves_scipy_special_unloaded():
    assert loaded_by_package_import("scipy.special") == "False"


def test_package_import_leaves_scipy_unloaded():
    assert loaded_by_package_import("scipy") == "False"


def test_only_predictive_interval_loads_scipy_special():
    # Training and the gradient suites read ln Gamma from math.lgamma; only
    # the interval's Student-t quantile needs scipy.special.
    script = """
import sys
import numpy as np
from uga import gradcheck
from uga.data import LabeledSet
from uga.evidential import NigOutput, predictive_interval
from uga.metrics import evaluate
from uga.models import MlpSpec
from uga.train import TrainConfig, train_uga
rng = np.random.default_rng(0)
source = LabeledSet(rng.normal(size=(40, 2)), rng.normal(size=40))
train_uga(source, rng.normal(size=(40, 2)),
          TrainConfig(alignment="uga_posterior", iterations=3, batch_size=16),
          MlpSpec(layer_widths=(2, 8, 4)))
gradcheck.suite_nll(points=4)
bundle, _ = train_uga(source, rng.normal(size=(40, 2)),
                      TrainConfig(alignment="none", iterations=3, batch_size=16),
                      MlpSpec(layer_widths=(2, 8, 4)))
evaluate(bundle, source, reference_inputs=rng.normal(size=(30, 2)))
try:
    predictive_interval(NigOutput.from_values(0.0, 1.0, 2.0, 1.0), 1.0)
except ValueError:
    pass
print("scipy.special" in sys.modules)
predictive_interval(NigOutput.from_values(0.0, 1.0, 2.0, 1.0), 0.9)
print("scipy.special" in sys.modules)
"""
    assert run_fresh(script).split() == ["False", "True"]


def test_label_on_an_interval_end_loads_scipy_special():
    # Labels 0.1% inside and outside their ends are placed by the Student-t
    # tail; a label exactly on an end lies within every bound's slack, so
    # only predictive_interval itself can place it.
    p = NigOutput.from_values([0.5, -1.0], [0.3, 2.0], [1.7, 40.0], [0.8, 0.1])
    lo, hi = predictive_interval(p, 0.9)
    near = [float(0.5 + 0.999 * (hi[0] - 0.5)), float(-1.0 + 1.001 * (lo[1] + 1.0))]
    script = f"""
import sys
from uga.evidential import NigOutput
from uga.metrics import _covered90
p = NigOutput.from_values([0.5, -1.0], [0.3, 2.0], [1.7, 40.0], [0.8, 0.1])
print(_covered90(p, {near!r}).tolist(), "scipy.special" in sys.modules)
edges = [float.fromhex({hi[0].hex()!r}), float.fromhex({lo[1].hex()!r})]
print(_covered90(p, edges).tolist(), "scipy.special" in sys.modules)
"""
    assert run_fresh(script).split("\n")[:2] == ["[True, False] False", "[True, True] True"]


def test_package_import_leaves_scipy_spatial_unloaded():
    # median_bandwidth screens its distances without pdist, so importing
    # the package does not pay for scipy.spatial.
    assert loaded_by_package_import("scipy.spatial") == "False"
