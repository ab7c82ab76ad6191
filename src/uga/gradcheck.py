"""Finite-difference gradient verification.

`scaled_error` compares an autodiff gradient against central differences
entry by entry, scaling by max(1, |g|) so the criterion is relative for
large entries and absolute below magnitude one. The suites at the bottom
cover every differentiable surface: raw primitives, the evidential loss,
kernel discrepancies, and full miniature models.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad

DEFAULT_STEP = 1e-4


def central_difference(
    f: Callable[[], float], leaves: Sequence[ad.Tensor], h: float = DEFAULT_STEP
) -> list[np.ndarray]:
    """Numerical gradient of the scalar `f()` w.r.t. each leaf's entries.

    `f` must re-evaluate the forward pass from the leaves' current data.
    """
    grads = []
    for leaf in leaves:
        flat = leaf.data.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            try:
                flat[i] = orig + h
                hi = f()
                flat[i] = orig - h
                lo = f()
            finally:
                flat[i] = orig
            g[i] = (hi - lo) / (2.0 * h)
        grads.append(g.reshape(leaf.data.shape))
    return grads


def scaled_error(auto: np.ndarray, numeric: np.ndarray) -> float:
    """max over entries of |a - n| / max(1, |a|, |n|)."""
    denom = np.maximum(1.0, np.maximum(np.abs(auto), np.abs(numeric)))
    return float(np.max(np.abs(auto - numeric) / denom))


def compare(
    build: Callable[[Sequence[ad.Tensor]], ad.Tensor],
    leaves: Sequence[ad.Tensor],
    h: float = DEFAULT_STEP,
) -> float:
    """Worst scaled error between autodiff and central differences.

    `build` maps the leaves to a scalar loss tensor; it is re-run for every
    finite-difference probe.
    """
    for leaf in leaves:
        leaf.zero_grad()
    loss = build(leaves)
    ad.backward(loss)
    auto = [leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data) for leaf in leaves]
    numeric = central_difference(lambda: build(leaves).item(), leaves, h)
    return max(scaled_error(a, n) for a, n in zip(auto, numeric))


# -- named suites -----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CheckResult:
    name: str
    error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.error < self.tol


def suite_primitives(seed: int = 0) -> float:
    """Fixed compositions exercising every primitive's backward rule."""
    rng = np.random.default_rng(seed)
    worst = 0.0

    a = ad.param(rng.normal(size=(3, 3)))
    b = ad.param(rng.normal(size=(3, 3)))
    worst = max(worst, compare(
        lambda ls: ad.sum(ad.tanh(ad.matmul(ls[0], ls[1])) * ad.sigmoid(ls[0] - ls[1])),
        [a, b]))

    c = ad.param(rng.uniform(0.5, 3.0, size=(4, 2)))
    worst = max(worst, compare(
        lambda ls: ad.mean(ad.lgamma(ls[0]) + ad.log(ls[0]) * ad.softplus(ls[0])),
        [c]))

    d = ad.param(rng.normal(size=(2, 4)))
    worst = max(worst, compare(
        lambda ls: ad.sum(ad.exp(ad.tanh(ls[0])) * ad.abs(ls[0] + 1.5)
                          - ad.lgamma(ad.softplus(ls[0]) + 0.5)),
        [d]))

    e = ad.param(rng.normal(size=(2, 3)))
    worst = max(worst, compare(
        lambda ls: ad.mean(ad.slice_last(ad.concat([ad.transpose(ls[0]), ad.transpose(
            ad.add_row(ls[0], ad.slice_rows(ls[0], 1, 2)))]), 1, 3) * 2.0 - 0.3),
        [e]))

    f = ad.param(rng.normal(size=(5, 3)))
    worst = max(worst, compare(
        lambda ls: ad.sum(ad.tanh(ad.slice_rows(ls[0], 1, 4))
                          * ad.slice_rows(ls[0], 2, 5)),
        [f]))
    return worst


def suite_nll(seed: int = 0, points: int = 100) -> float:
    from .evidential import NigOutput, nll_loss
    rng = np.random.default_rng(seed)
    leaves = [
        ad.param(rng.uniform(-3.0, 3.0, size=(points, 1))),
        ad.param(rng.uniform(0.2, 5.0, size=(points, 1))),
        ad.param(rng.uniform(1.2, 6.0, size=(points, 1))),
        ad.param(rng.uniform(0.2, 5.0, size=(points, 1))),
    ]
    ys = rng.uniform(-3.0, 3.0, size=(points, 1))
    return compare(lambda ls: ad.sum(nll_loss(ys, NigOutput(*ls))), leaves)


def suite_mmd(seed: int = 0) -> float:
    from .alignment import KernelBank, mmd2_biased, posterior_vector
    from .evidential import nig_from_raw
    rng = np.random.default_rng(seed)
    bank = KernelBank((0.5, 1.0, 2.0))
    X = ad.param(rng.normal(size=(6, 3)))
    Y = ad.param(rng.normal(size=(5, 3)))
    worst = compare(lambda ls: mmd2_biased(ls[0], ls[1], bank), [X, Y])

    raw_s = ad.param(rng.normal(size=(7, 4)))
    raw_t = ad.param(rng.normal(size=(6, 4)))

    def posterior_gap(ls):
        ps = posterior_vector(nig_from_raw(ls[0]))
        pt = posterior_vector(nig_from_raw(ls[1]))
        return mmd2_biased(ps, pt, bank)

    return max(worst, compare(posterior_gap, [raw_s, raw_t]))


def _model_loss_builder(bundle, xs, ys):
    from .evidential import evidential_loss
    from .models import model_forward

    def build(_leaves):
        _z, p = model_forward(xs, bundle)
        return evidential_loss(ys, p, lambda_evi=1.0)

    return build


def suite_mlp(seed: int = 0) -> float:
    from .models import MlpSpec, build_bundle
    rng = np.random.default_rng(seed)
    spec = MlpSpec(layer_widths=(3, 6, 4), dropout_p=0.0)
    bundle = build_bundle(spec, seed=seed)
    xs = rng.normal(size=(8, 3))
    ys = rng.normal(size=(8, 1))
    return compare(_model_loss_builder(bundle, xs, ys), bundle.parameters())


def suite_lstm(seed: int = 0, window_len: int = 10) -> float:
    from .models import SeqEncoderSpec, build_bundle
    rng = np.random.default_rng(seed)
    spec = SeqEncoderSpec(num_layers=2, hidden_dim=3, input_dim=2,
                          window_len=window_len)
    bundle = build_bundle(spec, seed=seed)
    xs = rng.normal(size=(2, window_len, 2))
    ys = rng.normal(size=(2, 1))
    return compare(_model_loss_builder(bundle, xs, ys), bundle.parameters())


def run_all(seed: int = 0) -> list[CheckResult]:
    """Every gradient suite with its tolerance; recurrent paths get 1e-4."""
    return [
        CheckResult("primitives", suite_primitives(seed), 1e-5),
        CheckResult("evidential_nll", suite_nll(seed), 1e-5),
        CheckResult("mmd", suite_mmd(seed), 1e-5),
        CheckResult("mlp_model", suite_mlp(seed), 1e-5),
        CheckResult("lstm_model", suite_lstm(seed, window_len=10), 1e-4),
        CheckResult("lstm_model_100step", suite_lstm(seed, window_len=100), 1e-4),
    ]
