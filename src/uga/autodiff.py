"""Reverse-mode automatic differentiation over dense float64 arrays.

Every operation records its parent tensors and a backward rule at execution
time; creation order doubles as a topological order, so one `backward` call
walks the recorded graph exactly once in reverse and accumulates gradients
into the `.grad` buffers of the leaves that require them.

Shape rules are deliberately small: elementwise ops require equal shapes or
a size-1 operand (scalar broadcast), matmul is strictly 2-D. Row expansion
is an explicit op: `add_row` adds a (1, d) row to every row of an (n, d)
tensor.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor", "ShapeError", "DomainError", "no_grad", "constant", "param",
    "add", "sub", "mul", "exp", "log", "tanh", "sigmoid", "softplus", "abs",
    "sum", "mean", "add_row", "concat", "slice_last", "slice_rows", "matmul",
    "transpose", "lgamma", "nig", "nig_nll", "lstm", "mmd", "backward", "ones",
]

class ShapeError(ValueError):
    """Operand shapes do not conform to the operation's shape rule."""


class DomainError(ValueError):
    """Input values fall outside the operation's mathematical domain."""


# Floats per chunk: unrecorded mmd rows per bandwidth, median screen, lstm BPTT.
BLOCK_FLOATS = 1 << 16

_node_ids = itertools.count()
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (forward-only evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """Dense float64 array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_nid")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None
        self._nid = next(_node_ids)

    @classmethod
    def _from_op(cls, data, parents, backward_fn):
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out._nid = next(_node_ids)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward_fn
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    # -- inspection ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- operators ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__


def constant(data) -> Tensor:
    """Leaf tensor that never receives gradients."""
    return Tensor(data)


def param(data) -> Tensor:
    """Leaf tensor that accumulates gradients (a trainable parameter)."""
    return Tensor(data, requires_grad=True)


def ones(*shape) -> Tensor:
    return Tensor(np.ones(shape))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _check_elementwise(a: Tensor, b: Tensor) -> None:
    if a.data.shape == b.data.shape or 1 in (a.data.size, b.data.size):
        return
    raise ShapeError(
        f"elementwise operands must share a shape or be scalar, "
        f"got {a.data.shape} and {b.data.shape}"
    )


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Only scalar-against-tensor broadcast exists, so the reduction is a
    # full sum back to the size-1 operand.
    if grad.shape == shape:
        return grad
    return np.sum(grad).reshape(shape)


# -- elementwise arithmetic --------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise(a, b)

    def backward_fn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return Tensor._from_op(a.data + b.data, (a, b), backward_fn)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise(a, b)

    def backward_fn(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return Tensor._from_op(a.data - b.data, (a, b), backward_fn)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise(a, b)

    def backward_fn(g):
        return (
            _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
        )

    return Tensor._from_op(a.data * b.data, (a, b), backward_fn)


# -- elementwise nonlinearities ----------------------------------------------

def exp(a) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.data)

    def backward_fn(g):
        return (g * out,)

    return Tensor._from_op(out, (a,), backward_fn)


def log(a) -> Tensor:
    a = _as_tensor(a)
    if np.any(a.data <= 0.0):
        raise DomainError("log requires strictly positive input")

    def backward_fn(g):
        return (g / a.data,)

    return Tensor._from_op(np.log(a.data), (a,), backward_fn)


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    out = np.tanh(a.data)

    def backward_fn(g):
        return (g * (1.0 - out * out),)

    return Tensor._from_op(out, (a,), backward_fn)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below: exp never overflows.
    # softplus's backward keeps this form rather than the tanh form of
    # `sigmoid`: its bits reach every evidential gradient, and the headline
    # comparison is sensitive to a 1-ulp change in those.
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(a) -> Tensor:
    """1 / (1 + e^-x), computed as tanh(x/2)/2 + 1/2.

    tanh saturates instead of overflowing, so no sign split is needed, and
    the absolute error stays within 2^-51.  `lstm` relies on this form: it
    evaluates all four gates with one tanh.
    """
    a = _as_tensor(a)
    out = 0.5 * np.tanh(0.5 * a.data) + 0.5

    def backward_fn(g):
        return (g * out * (1.0 - out),)

    return Tensor._from_op(out, (a,), backward_fn)


def softplus(a) -> Tensor:
    """log(1 + exp(x)), evaluated in the overflow-safe split form."""
    a = _as_tensor(a)
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    def backward_fn(g):
        return (g * _sigmoid(x),)

    return Tensor._from_op(out, (a,), backward_fn)


def abs(a) -> Tensor:
    """|x| with subgradient 0 at x = 0."""
    a = _as_tensor(a)
    sign = np.sign(a.data)

    def backward_fn(g):
        return (g * sign,)

    return Tensor._from_op(np.abs(a.data), (a,), backward_fn)


# Asymptotic series for digamma: -B_{2n} / (2n x^{2n}), n = 1..7.
_DIGAMMA_SERIES = (-1.0 / 12.0, 1.0 / 120.0, -1.0 / 252.0, 1.0 / 240.0,
                   -1.0 / 132.0, 691.0 / 32760.0, -1.0 / 12.0)
_DIGAMMA_SHIFT = 10.0


# scipy.special.psi is about 30x faster (4.6 against 135 us on 256 entries in
# [1, 12), one x86 core) but rounds differently, and these bits reach every
# evidential gradient: the swap waits on the gate's margin (ROADMAP item 1).
def _digamma(x: np.ndarray) -> np.ndarray:
    """psi(x) = d/dx ln Gamma(x), elementwise over an array x > 0, accurate
    to ~1e-13 on [1e-3, 1e6]: upward recurrence psi(x) = psi(x+1) - 1/x
    until x >= 10, then the Bernoulli asymptotic series through 1/x^14.
    """
    work = np.array(x, ndmin=1)   # a copy: the loop updates it in place
    acc = np.zeros_like(work)
    inv = np.empty_like(work)
    mask = work < _DIGAMMA_SHIFT
    while mask.any():
        np.subtract(acc, np.divide(1.0, work, out=inv, where=mask), out=acc, where=mask)
        np.add(work, 1.0, out=work, where=mask)
        np.less(work, _DIGAMMA_SHIFT, out=mask)
    inv2 = 1.0 / (work * work)
    series = np.zeros_like(work)
    power = inv2.copy()
    for coeff in _DIGAMMA_SERIES:
        series += coeff * power
        power = power * inv2
    return (acc + np.log(work) - 0.5 / work + series).reshape(x.shape)


def _lgamma_or_inf(x: float) -> float:
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def lgamma(a) -> Tensor:
    """ln Gamma(x) elementwise for x > 0; derivative is digamma (`_digamma`).

    Values come from the standard library's `math.lgamma`, element by
    element, and agree with `scipy.special.gammaln` to a few ulps. Above
    about 2.55e305 they overflow to +inf, as gammaln's do; for subnormal x
    they are the finite -ln x, where gammaln returns +inf.
    """
    a = _as_tensor(a)
    if np.any(~np.isfinite(a.data)) or np.any(a.data <= 0.0):
        raise DomainError("lgamma requires strictly positive finite input")

    def backward_fn(g):
        return (g * _digamma(a.data),)

    return Tensor._from_op(_lgamma(a.data), (a,), backward_fn)


def _lgamma(x: np.ndarray) -> np.ndarray:
    try:
        out = np.fromiter(map(math.lgamma, x.flat), np.float64, x.size)
    except OverflowError:
        out = np.fromiter(map(_lgamma_or_inf, x.flat), np.float64, x.size)
    return out.reshape(x.shape)


# -- reductions and structure ------------------------------------------------

def sum(a) -> Tensor:
    a = _as_tensor(a)

    def backward_fn(g):
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return Tensor._from_op(np.sum(a.data), (a,), backward_fn)


def mean(a) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size

    def backward_fn(g):
        return (np.broadcast_to(g / n, a.data.shape).copy(),)

    return Tensor._from_op(np.mean(a.data), (a,), backward_fn)


def add_row(a, row) -> Tensor:
    """Add the (1, d) `row` to every row of the (n, d) tensor `a`."""
    a, row = _as_tensor(a), _as_tensor(row)
    if a.data.ndim != 2 or row.data.shape != (1, a.data.shape[1]):
        raise ShapeError(f"add_row needs (n, d) and (1, d) operands, "
                         f"got {a.data.shape} and {row.data.shape}")

    def backward_fn(g):
        # A ones-row product, not np.sum: np.sum rounds differently, and these
        # bits reach every bias gradient.
        return g, (np.ones((1, g.shape[0])) @ g) if row.requires_grad else None

    return Tensor._from_op(a.data + row.data, (a, row), backward_fn)


def concat(tensors: Sequence) -> Tensor:
    """Concatenate along the last axis."""
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat of an empty sequence")
    lead = ts[0].data.shape[:-1]
    if any(t.data.ndim == 0 for t in ts) or any(t.data.shape[:-1] != lead for t in ts):
        raise ShapeError("concat operands must agree on all but the last axis")
    widths = [t.data.shape[-1] for t in ts]
    offsets = np.cumsum([0] + widths)

    def backward_fn(g):
        return tuple(g[..., offsets[i]:offsets[i + 1]] for i in range(len(ts)))

    return Tensor._from_op(np.concatenate([t.data for t in ts], axis=-1), ts, backward_fn)


def _slice(a, axis: int, start: int, stop: int) -> Tensor:
    a = _as_tensor(a)
    if a.data.ndim == 0:
        raise ShapeError("cannot slice a 0-d tensor")
    size = a.data.shape[axis]
    if not (0 <= start <= stop <= size):
        raise ShapeError(f"slice [{start}:{stop}] out of bounds for axis of size {size}")
    index = (slice(None),) * (axis % a.data.ndim) + (slice(start, stop),)

    def backward_fn(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return (full,)

    return Tensor._from_op(a.data[index].copy(), (a,), backward_fn)


def slice_last(a, start: int, stop: int) -> Tensor:
    """Slice [start:stop] along the last axis."""
    return _slice(a, -1, start, stop)


def slice_rows(a, start: int, stop: int) -> Tensor:
    """Slice [start:stop] along the first axis."""
    return _slice(a, 0, start, stop)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul requires two 2-D tensors")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul inner dimensions differ: {a.data.shape} @ {b.data.shape}"
        )

    def backward_fn(g):
        # dA is computed as (B g^T)^T rather than g B^T: the same sums, but
        # the gemm's output columns are then g's rows (the batch) instead of
        # a's columns.  Multithreaded OpenBLAS gemm rounds differently from
        # the one-thread path when the output is wider than 128 columns and
        # not a multiple of 8, as the 132-wide augmented embedding (128
        # features + 4 NIG parameters) in the MMD distances is.  With batches
        # of at most 128 rows, or a multiple of 8, this layout gives the
        # one-thread bits at any thread count.
        return ((b.data @ g.T).T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return Tensor._from_op(a.data @ b.data, (a, b), backward_fn)


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError("transpose requires a 2-D tensor")

    def backward_fn(g):
        return (g.T.copy(),)

    return Tensor._from_op(a.data.T.copy(), (a,), backward_fn)


# -- fused evidential head and loss -------------------------------------------

def nig(raw) -> Tensor:
    """NIG parameters [gamma, nu, alpha, beta] from (B, 4) raw head outputs
    as one (B, 4) node: raw_0, softplus(raw_1), softplus(raw_2) + 1 + 1e-15
    and softplus(raw_3), with the bits of the slice_last, softplus and add
    composition it replaces.  Its gradient goes through + 0.0, as the sum of
    the four zero-padded slice gradients did.
    """
    raw = _as_tensor(raw)
    if raw.data.ndim != 2 or raw.data.shape[1] != 4:
        raise ShapeError(f"nig needs a (B, 4) tensor, got {raw.data.shape}")
    x = raw.data[:, 1:].copy()
    out = np.array(raw.data, order="C")
    out[:, 1:] = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    # The extra 1e-15 keeps alpha strictly above 1 even when softplus
    # underflows (raw_2 < -37 makes 1 + softplus round to exactly 1.0).
    out[:, 2] += 1.0 + 1e-15

    def backward_fn(g):
        return (g * np.hstack([np.ones((len(x), 1)), _sigmoid(x)]) + 0.0,)

    return Tensor._from_op(out, (raw,), backward_fn)


def nig_nll(y, gamma, nu, alpha, beta, lambda_evi: float) -> Tensor:
    """Per-sample NIG negative log-likelihood (see `evidential.nll_loss`) of
    (B, 1) columns against constant labels y, plus lambda_evi |y - gamma|
    (2 nu + alpha) when lambda_evi != 0, as one (B, 1) node.

    Forward and backward repeat in order the float expressions of the sub,
    mul, add, log, lgamma and abs composition it replaces, so value and
    gradients keep its bits; ln Gamma and psi each run once over alpha
    stacked on alpha + 1/2.  A column is a parent once per op that consumed
    it there, last consumer first, so the engine adds its contributions in
    the composition's order, also after those of a later concat.
    """
    gamma, nu, alpha, beta = (_as_tensor(t) for t in (gamma, nu, alpha, beta))
    y, c, n, a, b = (_as_tensor(y).data, gamma.data, nu.data, alpha.data, beta.data)
    if n.ndim != 2 or n.shape[1] != 1 or any(v.shape != n.shape for v in (y, c, a, b)):
        raise ShapeError("nig_nll needs (B, 1) operands, got "
                         f"{[v.shape for v in (y, c, n, a, b)]}")
    if not (np.isfinite(a).all() and (a > 0).all() and (n > 0).all() and (b > 0).all()):
        raise DomainError("nig_nll needs finite alpha > 0, nu > 0 and beta > 0")
    batch, lam = n.shape[0], float(lambda_evi)
    two_beta, one_nu, resid, a_half = b * 2.0, n + 1.0, y - c, a + 0.5
    omega, sq, stack = two_beta * one_nu, resid * resid, np.concatenate([a, a_half])
    inner = sq * n + omega
    lg, log_omega, log_inner = _lgamma(stack), np.log(omega), np.log(inner)
    out = ((math.log(math.pi) - np.log(n)) * 0.5 - a * log_omega + lg[:batch]
           - lg[batch:] + a_half * log_inner)
    parents = (nu, alpha, alpha, alpha, alpha, nu, gamma, nu, beta)
    if lam != 0.0:
        dist, weight = np.abs(resid), n * 2.0 + a
        out = out + (dist * weight) * lam
        parents = (alpha, nu, gamma) + parents

    def backward_fn(g):
        psi = _digamma(stack)
        neg = -g
        g_inner = (g * a_half) / inner
        g_resid = (g_inner * n) * resid
        g_omega = g_inner + (neg * a) / omega
        grads = (g_inner * sq, g * log_inner, neg * psi[batch:], g * psi[:batch],
                 neg * log_omega, -(g * 0.5) / n, -(g_resid + g_resid),
                 g_omega * two_beta, (g_omega * one_nu) * 2.0)
        if lam == 0.0:
            return grads
        g_weight, g_dist = (g * lam) * dist, (g * lam) * weight
        return (g_weight, g_weight * 2.0, -(g_dist * np.sign(resid)), *grads)

    return Tensor._from_op(out, parents, backward_fn)


# -- fused recurrent encoder -------------------------------------------------

def lstm(x, layers: Sequence[tuple]) -> Tensor:
    """Stacked LSTM over a (B, T, in) window; returns the top layer's final
    hidden state (B, h) as a single tape node.

    `layers` holds one (Wx (in, 4h), Wh (h, 4h), b (1, 4h)) triple per
    layer, gate blocks ordered input, forget, cell, output; h and c start
    at zero.  Each call restacks Wx, Wh and b gate-major as (4, ., h)
    stacks, halving the input, forget and output gates, so a step takes one
    stacked h Wh matmul and one tanh over contiguous (4, B, h) gate slabs
    and maps the sigmoid gates to tanh/2 + 1/2, the form of `sigmoid`.
    Halving is exact and each gate column sums the same products, so the
    forward values are bit-identical to the per-step composition of matmul,
    slice_last, sigmoid, tanh, mul and add.  A recorded call projects all T
    steps' inputs with one stacked matmul straight into its gate history and
    keeps each step's gates, i g, f c and tanh c; an unrecorded call runs
    the same code with one step of history.  Backward is plain
    backpropagation through time over them, with the gates' (1 - a) factor
    applied in time blocks of BLOCK_FLOATS; it agrees with the per-step
    tape's gradients to rounding.
    """
    x = _as_tensor(x)
    if x.data.ndim != 3 or min(x.data.shape[:2]) < 1:
        raise ShapeError(f"lstm expects a (B, T, in) window with B, T >= 1, "
                         f"got {x.data.shape}")
    if not layers:
        raise ShapeError("lstm needs at least one layer")
    batch, steps, width = x.data.shape
    triples = [tuple(_as_tensor(p) for p in layer) for layer in layers]
    for Wx, Wh, b in triples:
        h = Wh.data.shape[0]
        if (Wx.data.shape != (width, 4 * h) or Wh.data.shape != (h, 4 * h)
                or b.data.shape != (1, 4 * h)):
            raise ShapeError(
                f"lstm layer on width {width} needs Wx ({width}, 4h), Wh (h, 4h), "
                f"b (1, 4h); got {Wx.data.shape}, {Wh.data.shape}, {b.data.shape}")
        width = h
    parents = (x, *(p for layer in triples for p in layer))
    record = _grad_enabled and any(p.requires_grad for p in parents)

    seq = np.ascontiguousarray(x.data.transpose(1, 0, 2))  # (T, B, in)
    kept = steps if record else 1   # steps of gate history held
    cache = []
    for Wx, Wh, b in triples:
        h = Wh.data.shape[0]
        # Gate-major stacks, slabs i, f, g, o: pre-activation scale, then tanh
        # -> activation as t * scale + (1 - scale): sigmoid on i, f, o, tanh on
        # g.  Full slabs: numpy runs same-shape operands faster than a broadcast.
        scale = np.full((4, batch, h), 0.5)
        scale[2] = 1.0
        shift = 1.0 - scale
        wx, wh, bias = (np.ascontiguousarray(p.data.reshape(-1, 4, h).transpose(
            1, 0, 2)) * scale[:, :1] for p in (Wx, Wh, b))
        hs = np.zeros((steps + 1, batch, h))   # hs[t + 1] is h_t; hs[0] = 0
        c = np.zeros((batch, h))
        rec = np.empty((4, batch, h))          # h_{t-1} Wh, per gate
        gates = np.empty((kept, 4, batch, h))
        ig = np.empty((kept, batch, h))        # i_t g_t
        fc = np.empty((kept, batch, h))        # f_t c_{t-1}
        tanh_c = np.empty((kept, batch, h))
        # Stacked, not one (T*B, in) gemm: numpy computes a one-row product
        # as a gemv, which rounds differently from the gemm at batch 1.
        for t in range(steps):
            k = t % kept
            if k == 0:   # project the next `kept` steps' inputs into the gates
                np.matmul(seq[t:t + kept, None], wx, out=gates)
                gates += bias
            act = gates[k]
            np.matmul(hs[t], wh, out=rec)
            act += rec
            np.tanh(act, out=act)
            act *= scale
            act += shift
            np.multiply(act[1], c, out=fc[k])
            np.multiply(act[0], act[2], out=ig[k])
            np.add(fc[k], ig[k], out=c)
            np.tanh(c, out=tanh_c[k])
            np.multiply(act[3], tanh_c[k], out=hs[t + 1])
        if record:
            cache.append((seq, hs, gates, ig, fc, tanh_c))
        seq = hs[1:]
    out = hs[-1].copy()

    def backward_fn(grad):
        grads = []
        d_in = None   # (T, B, h): gradient reaching each step's h from above
        for layer in range(len(triples) - 1, -1, -1):
            Wx, Wh, _ = triples[layer]
            inp, hs, gates, ig, fc, tanh_c = cache[layer]
            h = Wh.data.shape[0]
            # d act / d pre is (1 - a) a on the sigmoid gates and
            # (1 - g)(1 + g) on the cell gate.  Times the factor each gate
            # meets in c_t = f c_{t-1} + i g and h_t = o tanh(c_t), that is
            # (1 - a) times [i g, f c_{t-1}, i + i g, h_t]: d c_t / d pre
            # for i, f, g and d h_t / d pre for o.  (1 - a) is applied in
            # time blocks of at most BLOCK_FLOATS; the loop scales step t in
            # place into d loss / d pre_t.
            dpres = np.empty((steps, batch, 4 * h))
            by_gate = dpres.reshape(steps, batch, 4, h)
            by_gate[:, :, 0], by_gate[:, :, 1], by_gate[:, :, 3] = ig, fc, hs[1:]
            np.add(gates[:, 0], ig, out=by_gate[:, :, 2])
            span = max(1, BLOCK_FLOATS // gates[0].size)
            for t in range(0, steps, span):
                by_gate[t:t + span] *= (1.0 - gates[t:t + span]).transpose(0, 2, 1, 3)
            # d h_t / d c_t = o (1 - tanh^2 c_t) = o - h_t tanh c_t
            dc_dh = hs[1:] * tanh_c
            np.subtract(gates[:, 3], dc_dh, out=dc_dh)
            carry = np.empty((batch, 4 * h))         # [dc, dc, dc, dh]
            carry_by_gate = carry.reshape(batch, 4, h)
            dh = grad if d_in is None else d_in[-1]
            dc = np.zeros((batch, h))
            for t in range(steps - 1, -1, -1):
                dc += dh * dc_dh[t]
                carry_by_gate[:, :3] = dc[:, None]
                carry_by_gate[:, 3] = dh
                dpre = dpres[t]
                dpre *= carry
                dc *= gates[t, 1]
                dh = dpre @ Wh.data.T
                if d_in is not None and t > 0:
                    dh += d_in[t - 1]
            dpres = dpres.reshape(steps * batch, 4 * h)
            grads.append((inp.reshape(steps * batch, -1).T @ dpres,
                          hs[:-1].reshape(steps * batch, h).T @ dpres,
                          np.ones((1, steps * batch)) @ dpres))
            d_in = ((dpres @ Wx.data.T).reshape(steps, batch, -1)
                    if layer > 0 or x.requires_grad else None)
        dx = d_in.transpose(1, 0, 2).copy() if x.requires_grad else None
        return (dx, *(g for layer in reversed(grads) for g in layer))

    return Tensor._from_op(out, parents, backward_fn)


# -- fused multi-kernel MMD --------------------------------------------------

def sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared row norms of a (rows, d) array as a (rows, 1) column: the
    squares summed by one matrix-vector product with a ones column."""
    return (a * a) @ np.ones((a.shape[1], 1))


def gram_dists(a, bt, sqa, sqb, out=None) -> np.ndarray:
    """Squared distances |a_i|^2 + |b_j|^2 - 2 a_i.b_j between the rows of a
    and the columns of bt, from the squared norms sqa (rows, 1) and sqb
    (cols, 1), written into out when given (a C-ordered array keeps the bits
    of a fresh product)."""
    dist = np.matmul(a, bt, out=out)
    dist *= 2.0
    return np.subtract(sqa + sqb.T, dist, out=dist)


def _mmd_operands(x, y):
    """(a, b^T, |a|^2, |b|^2) of the blocks xy, yy and xx, in backward order."""
    if x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[1]:
        raise ShapeError(f"expected (n, d) and (m, d) samples, got {x.shape} and {y.shape}")
    sqx, sqy = sq_norms(x), sq_norms(y)
    xt, yt = x.T.copy(), y.T.copy()
    return (x, yt, sqx, sqy), (y, yt, sqy, sqy), (x, xt, sqx, sqx)


def _dist_blocks(D, n: int, m: int):
    """The blocks xx, xy, yx and yy of an mmd_dists buffer D as views, and
    their layout: per block (start in D, first row of [x; y], first column,
    rows, width)."""
    nn, nm = n * n, n * m
    layout = np.array([(0, 0, 0, n, n), (nn, 0, n, n, m),
                       (nn + nm, n, 0, m, n), (nn + 2 * nm, n, n, m, m)])
    return [D[s:s + r * w].reshape(r, w) for s, _, _, r, w in layout], layout


def mmd_dists(x: np.ndarray, y: np.ndarray):
    """(D, sq, pairs): the squared distances of the pool [x; y] as mmd reads
    them.  D holds the blocks xx, xy, yx and yy, each contiguous and
    row-major, one after another; xy, yy and xx are mmd's own gram_dists
    products and yx is xy transposed.  sq holds the squared norms of [x; y]
    and pairs(flat) the rows (i, j) of [x; y] whose distance is D[flat]."""
    operands = _mmd_operands(x, y)
    n, m = len(x), len(y)
    D = np.empty((n + m) ** 2)
    (xx, xy, yx, yy), layout = _dist_blocks(D, n, m)
    for (a, bt, sqa, sqb), out in zip(operands, (xy, yy, xx)):
        gram_dists(a, bt, sqa, sqb, out=out)
    yx[...] = xy.T
    start, row, col, _, width = layout.T

    def pairs(flat):
        k = np.searchsorted(start, flat, side="right") - 1
        i, j = np.divmod(flat - start[k], width[k])
        return i + row[k], j + col[k]

    return D, np.concatenate(operands[0][2:]), pairs


def mmd(x, y, bandwidths: Sequence[float], dists=None) -> Tensor:
    """Biased squared MMD between sample sets x (n, d) and y (m, d) with
    Gaussian kernels exp(-|u - v|^2 / (2 s2)), averaged over the bandwidths
    s2, as a single tape node.

    Per bandwidth: mean k(x, x) + mean k(y, y) - 2 mean k(x, y).  Forward
    and backward repeat the float order of the composition of mul, matmul
    (ones-matmul broadcasts and sums), transpose, exp, add and sub it
    replaces, so the value and both input gradients are bit-identical to
    it: the same BLAS calls on the same layouts, the per-bandwidth kernel
    gradients added last bandwidth first, and the input gradients added
    block by block (xy, yy, xx), each block as the cross term, its
    transpose, then the squared norms of its right and left operand, each
    added twice.  Each block's kernels are one (bandwidths, rows, cols)
    stack per row chunk, and the chunks' column sums add up: a recorded
    call takes the block whole and keeps its stack for backward to read;
    an unrecorded one takes max(1, BLOCK_FLOATS // cols) rows at a time,
    so the bits differ only for blocks of several chunks.

    dists, the buffer mmd_dists(x, y) returns, supplies the blocks instead,
    read by the same chunk rule; it holds all (n + m)^2 distances even
    under no_grad, so it suits small pools.
    """
    x, y = _as_tensor(x), _as_tensor(y)
    blocks = _mmd_operands(x.data, y.data)
    n, m = x.data.shape[0], y.data.shape[0]
    if n < 1 or m < 1:
        raise ShapeError("mmd needs at least one sample per set")
    if dists is not None and np.shape(dists) != ((n + m) ** 2,):
        raise ShapeError(f"mmd needs {(n + m) ** 2} distances, got {np.shape(dists)}")
    record = _grad_enabled and (x.requires_grad or y.requires_grad)
    if dists is not None:
        xx, xy, _, yy = _dist_blocks(dists, n, m)[0]
        dists = (xy, yy, xx)
    if not bandwidths or any(not s2 > 0 for s2 in bandwidths):
        raise ValueError("mmd needs at least one positive bandwidth")
    coefs = np.array([-1.0 / (2.0 * s2) for s2 in bandwidths])

    means = []     # per block: the bandwidths' kernel means
    cache = []     # per block: the kernel stack when recorded
    for block, (a, bt, sqa, sqb) in enumerate(blocks):
        rows, cols = a.shape[0], bt.shape[1]
        step = rows if record else max(1, BLOCK_FLOATS // cols)
        sums = None   # (bandwidths, 1, cols) column sums
        for start in range(0, rows, step):
            dist = dists[block][start:start + step] if dists else gram_dists(
                a[start:start + step], bt, sqa[start:start + step], sqb)
            kernels = np.multiply(dist, coefs[:, None, None])
            np.exp(kernels, out=kernels)
            part = np.ones((1, dist.shape[0])) @ kernels
            sums = part if sums is None else sums + part
        means.append((sums @ np.ones((cols, 1))).ravel() * (1.0 / (rows * cols)))
        cache.append(kernels if record else None)
    mxy, myy, mxx = means   # per bandwidth; the terms add up in bank order
    acc = np.add.accumulate((mxx + myy) - mxy * 2.0)[-1]
    out = np.asarray(acc * (1.0 / len(coefs)))

    def backward_fn(g):
        g_term = g * (1.0 / len(coefs))
        grads = {x: None, y: None}   # one entry when x is y

        def push(t, contribution):
            if grads[t] is None:   # a fresh product, made C-ordered to add into
                grads[t] = np.ascontiguousarray(contribution)
            else:
                grads[t] += contribution

        for i, ((a, bt, _, _), kernels, ta, tb) in enumerate(
                zip(blocks, cache, (x, y, x), (y, y, x))):
            if not (ta.requires_grad or tb.requires_grad):
                continue
            b = tb.data
            rows, cols = a.shape[0], b.shape[0]
            # d(out)/d(kernel sum): the xy means enter the bank sum as -2 mean
            v = (g_term if i else (-g_term) * 2.0) * (1.0 / (rows * cols))
            # Bandwidth-weighted kernels (k v) c, summed last bandwidth first
            # through one scratch array: the cached kernels stay as they are.
            gd = np.multiply(kernels[-1], v)
            gd *= coefs[-1]
            scratch = np.empty_like(gd)
            for k, c in zip(kernels[-2::-1], coefs[-2::-1]):
                np.multiply(k, v, out=scratch)
                scratch *= c
                gd += scratch
            g_sqa = (np.ones((1, cols)) @ gd.T).T
            g_sqb = (np.ones((rows, 1)).T @ gd).T
            g_cross = np.multiply(np.negative(gd, out=gd), 2.0, out=gd)
            if ta.requires_grad:
                # (B g^T)^T keeps the batch on the output's column axis, as
                # matmul's backward does, so BLAS threads cannot change bits.
                push(ta, (bt @ g_cross.T).T)
            if tb.requires_grad:
                push(tb, (a.T @ g_cross).T)
                t = g_sqb * b
                push(tb, t)
                push(tb, t)
            if ta.requires_grad:
                t = g_sqa * a
                push(ta, t)
                push(ta, t)
        return grads[x], None if x is y else grads[y]

    return Tensor._from_op(out, (x, y), backward_fn)


# -- backward pass -----------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into `.grad` of every leaf that requires
    grad; intermediate results keep `.grad` None.

    Requires a single-element loss reachable from at least one tensor with
    requires_grad; repeated calls without `zero_grad` keep accumulating.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ShapeError("backward requires a scalar loss")
    if not loss.requires_grad:
        raise ValueError("loss is detached: no differentiable input reaches it")

    # Each node is created after its parents, so popping the largest pending
    # id visits consumers before what they consume, and each gradient is
    # summed in decreasing creation order of its contributions.
    pending = {loss._nid: (loss, np.ones_like(loss.data))}
    heap = [-loss._nid]
    while heap:
        node, g = pending.pop(-heapq.heappop(heap))
        if node._backward is None:
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            entry = pending.get(parent._nid)
            if entry is None:
                heapq.heappush(heap, -parent._nid)
            else:
                pg = entry[1] + pg
            pending[parent._nid] = (parent, pg)
