"""Finite-difference gradient verification.

`scaled_error` compares an autodiff gradient against central differences
entry by entry, scaling by max(1, |g|) so the criterion is relative for
large entries and absolute below magnitude one. The suites at the bottom
cover every differentiable surface: raw primitives, the evidential loss,
kernel discrepancies, and full miniature models.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import pickle
import signal
import threading
import time
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad

DEFAULT_STEP = 1e-4
# Least estimated probe time worth a part of its own. Forking the 40 MB
# gradcheck process, piping a part's values back and reaping the child take
# about 3 ms (2-core x86 VM, Python 3.11), so a part carries at least 3x that.
PART_MIN_S = 0.01


def central_difference(
    f: Callable[[], float], leaves: Sequence[ad.Tensor], h: float = DEFAULT_STEP
) -> list[np.ndarray]:
    """Numerical gradient of the scalar `f()` w.r.t. each leaf's entries.

    `f` must re-evaluate the forward pass from the leaves' current data.
    The first entry is probed here and timed. Where the rest would take at
    least PART_MIN_S per part, they are split into contiguous parts, one per
    available CPU: this process probes the first part and a forked child
    each other part. So `f` may run in a child, and a side effect of such a
    call is not seen here. Every entry comes from the same expression on
    the same perturbed data either way. A child's exception is raised here
    with its type and message, the earliest part's first; a child that ends
    without a result raises `RuntimeError`. No child outlives the call.
    """
    count = sum(leaf.data.size for leaf in leaves)
    entries = ((leaf.data, idx) for leaf in leaves
               for idx in np.ndindex(leaf.data.shape))
    values = []
    if count:
        started = time.perf_counter()
        values.append(_difference(f, *next(entries), h))
        parts = _part_count(count - 1, time.perf_counter() - started)
        values += _run_parts(f, entries, count - 1, h, parts)
    grads, start = [], 0
    for leaf in leaves:
        stop = start + leaf.data.size
        grads.append(np.array(values[start:stop], leaf.data.dtype)
                     .reshape(leaf.data.shape))
        start = stop
    return grads


def _difference(f, data: np.ndarray, idx: tuple, h: float):
    """(f(x + h) - f(x - h)) / 2h at `data[idx]`, which is restored after."""
    orig = data[idx]
    try:
        data[idx] = orig + h
        hi = f()
        data[idx] = orig - h
        lo = f()
    finally:
        data[idx] = orig
    return (hi - lo) / (2.0 * h)


def _part_count(rest: int, first_s: float) -> int:
    """One part per available CPU, each worth PART_MIN_S by the first
    entry's time; one where forking is unavailable or unsafe (threads)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) \
            or threading.active_count() != 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), rest,
                      int(rest * first_s / PART_MIN_S)))


def _run_parts(f, entries, count: int, h: float, parts: int) -> list:
    """Differences of the `count` entries left in `entries`, in order: the
    first of `parts` contiguous parts probed here, each other in a forked
    child. Children fork before this process draws from `entries`, so each
    child's copy skips to its own part."""
    bounds = [count * k // parts for k in range(parts + 1)]
    children = {}                       # pid -> its pipe, until reaped
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            pid, read_end = _fork_part(f, itertools.islice(entries, lo, hi), h)
            children[pid] = os.fdopen(read_end, "rb")
        values = [_difference(f, data, idx, h)
                  for data, idx in itertools.islice(entries, bounds[1])]
        for pid in list(children):
            payload = children[pid].read()
            status = os.waitpid(pid, 0)[1]
            children.pop(pid).close()
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                raise RuntimeError(f"probe worker {pid} exited with status "
                                   f"{code} without a result")
            ok, result = pickle.loads(payload)
            if not ok:
                raise result
            values += result
        return values
    finally:
        for pid, pipe in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()


def _fork_part(f, entries, h: float) -> tuple[int, int]:
    """Fork a child that pickles (True, differences) or (False, its first
    exception) into a pipe and exits; returns its pid and the read end."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError as e:
        os.close(read_end)
        os.close(write_end)
        raise RuntimeError(f"cannot start a probe worker: {e}") from None
    if pid:
        os.close(write_end)
        return pid, read_end
    code = 1
    try:
        try:
            result = (True, [_difference(f, data, idx, h) for data, idx in entries])
        except BaseException as e:
            result = (False, e)
        with os.fdopen(write_end, "wb") as out:
            out.write(pickle.dumps(result))
        code = 0
    finally:
        os._exit(code)


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
    # |d + 1.5| has its kink at -1.5; an entry within the probes' reach would
    # be differenced across it (seeds 917, 4282), so it is moved off.
    d.data[np.abs(d.data + 1.5) < 1e-3] += 2e-3
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
