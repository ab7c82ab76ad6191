import os
import time

import numpy as np
import pytest
import scipy.special

from uga import autodiff as ad
from uga import gradcheck as gc

# High-precision reference values (mpmath, 40 digits).
LN_SQRT_PI = 0.5723649429247000870717137
EULER_MASCHERONI = 0.5772156649015328606065121
DIGAMMA_HALF = -1.9635100260214234794409763
LN2 = 0.6931471805599453094172321


class TestForwardPrimitives:
    def test_matmul_shape(self):
        a = ad.constant(np.ones((2, 3)))
        b = ad.constant(np.ones((3, 4)))
        assert ad.matmul(a, b).shape == (2, 4)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((4, 2))))

    def test_softplus_at_zero(self):
        assert ad.softplus(ad.constant(0.0)).item() == pytest.approx(LN2, abs=1e-12)

    def test_concat_lengths(self):
        v = ad.concat([ad.constant(np.zeros(5)), ad.constant(np.zeros(4))])
        assert v.shape == (9,)

    def test_concat_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.concat([ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((3, 3)))])

    def test_elementwise_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.add(ad.constant(np.zeros(3)), ad.constant(np.zeros(4)))

    def test_scalar_broadcast(self):
        t = ad.constant(np.arange(6.0).reshape(2, 3))
        out = t * 2.0 + 1.0
        np.testing.assert_array_equal(out.data, np.arange(6.0).reshape(2, 3) * 2 + 1)

    def test_log_domain(self):
        with pytest.raises(ad.DomainError):
            ad.log(ad.constant(np.array([1.0, -1.0])))

    def test_slice_last(self):
        t = ad.constant(np.arange(12.0).reshape(3, 4))
        s = ad.slice_last(t, 1, 3)
        np.testing.assert_array_equal(s.data, np.arange(12.0).reshape(3, 4)[:, 1:3])

    def test_slice_rows(self):
        t = ad.param(np.arange(12.0).reshape(3, 4))
        s = ad.slice_rows(t, 1, 3)
        np.testing.assert_array_equal(s.data, np.arange(12.0).reshape(3, 4)[1:3])
        ad.backward(ad.sum(s * 2.0))
        np.testing.assert_array_equal(t.grad, [[0.0] * 4, [2.0] * 4, [2.0] * 4])

    @pytest.mark.parametrize("shape,start,stop", [
        ((3, 4), -1, 2), ((3, 4), 2, 1), ((3, 4), 0, 4), ((), 0, 0)])
    def test_slice_rows_rejects_bad_bounds(self, shape, start, stop):
        with pytest.raises(ad.ShapeError):
            ad.slice_rows(ad.constant(np.zeros(shape)), start, stop)

    def test_finite_outputs(self):
        rng = np.random.default_rng(3)
        x = ad.constant(rng.normal(scale=5.0, size=(4, 4)))
        for op in (ad.exp, ad.tanh, ad.sigmoid, ad.softplus, ad.abs):
            assert np.all(np.isfinite(op(x).data))

    _SIGMOID_GRID = np.concatenate([np.linspace(-50.0, 50.0, 200_001),
                                    [-745.0, 745.0, -1e308, 1e308,
                                     -1e-300, 1e-300]])

    def test_sigmoid_matches_expit(self):
        err = np.abs(ad.sigmoid(self._SIGMOID_GRID).data
                     - scipy.special.expit(self._SIGMOID_GRID))
        assert err.max() <= 2.0 ** -51

    def test_sigmoid_raises_no_floating_point_warning(self):
        x = ad.param(self._SIGMOID_GRID)
        with np.errstate(all="raise"):
            out = ad.sigmoid(x)
            ad.backward(ad.sum(out))
        assert np.all((out.data >= 0.0) & (out.data <= 1.0))
        assert np.all(np.isfinite(x.grad))


class TestSpecialFunctions:
    def test_lgamma_trivial_zeros(self):
        assert ad.lgamma(1.0).item() == pytest.approx(0.0, abs=5e-14)
        assert ad.lgamma(2.0).item() == pytest.approx(0.0, abs=5e-14)

    def test_lgamma_half(self):
        assert ad.lgamma(0.5).item() == pytest.approx(LN_SQRT_PI, abs=1e-13)

    def test_lgamma_recurrence(self):
        xs = np.linspace(0.5, 100.0, 4000)
        lhs = ad.lgamma(xs + 1.0).data - ad.lgamma(xs).data
        err = np.abs(lhs - np.log(xs)) / np.maximum(1.0, np.abs(np.log(xs)))
        assert err.max() < 1e-10

    def test_lgamma_matches_scipy_gammaln(self):
        rng = np.random.default_rng(19)
        xs = 10.0 ** rng.uniform(-3, 6, size=10_000)
        ref = scipy.special.gammaln(xs)
        err = np.abs(ad.lgamma(xs).data - ref) / np.maximum(1.0, np.abs(ref))
        assert err.max() <= 4e-15

    def test_lgamma_overflows_to_inf(self):
        # math.lgamma raises OverflowError there; gammaln returns +inf.
        big = [2.6e305, 1e306, np.finfo(float).max]
        out = ad.lgamma(np.array([2.0, *big])).data
        assert out[0] == 0.0
        assert np.all(out[1:] == np.inf)
        for x in big:
            assert ad.lgamma(x).item() == np.inf

    def test_lgamma_subnormal_is_finite(self):
        # ln Gamma(x) ~ -ln x for tiny x; gammaln returns +inf for subnormals.
        xs = np.array([5e-324, 1e-310])
        assert np.all(scipy.special.gammaln(xs) == np.inf)
        np.testing.assert_allclose(ad.lgamma(xs).data, -np.log(xs), rtol=1e-15)

    def test_lgamma_rejects_nonpositive(self):
        for bad in (0.0, -1.5, np.array([1.0, np.inf]), np.array([np.nan])):
            with pytest.raises(ValueError):
                ad.lgamma(bad)

    @staticmethod
    def digamma(xs):
        """psi as lgamma's backward computes it: the gradient of sum(lgamma)."""
        x = ad.param(xs)
        ad.backward(ad.sum(ad.lgamma(x)))
        return x.grad

    def test_digamma_values(self):
        assert float(self.digamma(1.0)) == pytest.approx(-EULER_MASCHERONI, abs=1e-12)
        assert float(self.digamma(2.0)) == pytest.approx(1.0 - EULER_MASCHERONI,
                                                         abs=1e-12)
        assert float(self.digamma(0.5)) == pytest.approx(DIGAMMA_HALF, abs=1e-12)

    def test_digamma_accuracy_sweep(self):
        rng = np.random.default_rng(13)
        xs = 10.0 ** rng.uniform(-3, 6, size=5000)
        ref = scipy.special.digamma(xs)
        err = np.abs(self.digamma(xs) - ref) / np.maximum(1.0, np.abs(ref))
        assert err.max() < 1e-10


def digamma_masked(x):
    """The mask-and-scatter recurrence `ad._digamma` had before its loop ran
    on `where=` ufuncs: the reference for its bits."""
    work = np.array(x, ndmin=1)
    acc = np.zeros_like(work)
    while True:
        mask = work < 10.0
        if not mask.any():
            break
        acc[mask] -= 1.0 / work[mask]
        work[mask] += 1.0
    inv2 = 1.0 / (work * work)
    series = np.zeros_like(work)
    power = inv2.copy()
    for coeff in (-1.0 / 12.0, 1.0 / 120.0, -1.0 / 252.0, 1.0 / 240.0,
                  -1.0 / 132.0, 691.0 / 32760.0, -1.0 / 12.0):
        series += coeff * power
        power = power * inv2
    return (acc + np.log(work) - 0.5 / work + series).reshape(x.shape)


class TestDigammaBits:
    # (0, 1e-3], [1, 10) and [10, 1e6]: many recurrence steps, up to nine,
    # and none before the asymptotic series.
    GRID = np.concatenate([np.geomspace(1e-300, 1e-3, 701),
                           np.linspace(1.0, 10.0, 900, endpoint=False),
                           np.geomspace(10.0, 1e6, 700)])

    def test_grid_matches_masked_recurrence(self):
        assert ad._digamma(self.GRID).tobytes() == digamma_masked(self.GRID).tobytes()

    @pytest.mark.parametrize("shape", [(2301,), (59, 39), (2301, 1)])
    def test_mixed_ranges_match_masked_recurrence(self, shape):
        x = np.random.default_rng(17).permutation(self.GRID).reshape(shape)
        assert ad._digamma(x).tobytes() == digamma_masked(x).tobytes()

    def test_scalar_input(self):
        for v in (1e-3, 0.5, 3.0, 10.0, 1e6):
            x = np.array(v)
            assert ad._digamma(x).shape == ()
            assert ad._digamma(x).tobytes() == digamma_masked(x).tobytes()

    def test_stacked_equals_stack_of_parts(self):
        # nig_nll runs psi once over alpha stacked on alpha + 1/2.
        rng = np.random.default_rng(19)
        alpha = rng.uniform(1.0, 12.0, size=(128, 1))
        for a, b in ((alpha, alpha + 0.5), (self.GRID, rng.permutation(self.GRID))):
            stacked = ad._digamma(np.concatenate([a, b]))
            parts = np.concatenate([ad._digamma(a), ad._digamma(b)])
            assert stacked.tobytes() == parts.tobytes()


class TestBackward:
    def test_square(self):
        x = ad.param(3.0)
        ad.backward(x * x)
        assert float(x.grad) == pytest.approx(6.0)

    @pytest.mark.parametrize("loss", [lambda a, b, c: (a + b) + c,
                                      lambda a, b, c: c + (b + a)],
                             ids=["left_fold", "right_fold"])
    def test_gradients_summed_in_decreasing_creation_order(self, loss):
        # 1 + 1e16 rounds back to 1e16: creation order would sum to 0, while
        # the latest consumer first gives 1, whatever the loss's shape.
        x = ad.param(1.0)
        consumers = x * 1.0, x * 1e16, x * -1e16
        ad.backward(loss(*consumers))
        assert float(x.grad) == (-1e16 + 1e16) + 1.0 == 1.0

    def test_lgamma_gradient_is_digamma(self):
        x = ad.param(2.0)
        ad.backward(ad.lgamma(x))
        assert float(x.grad) == pytest.approx(1.0 - EULER_MASCHERONI, abs=1e-10)

    def test_matmul_chain_vs_finite_differences(self):
        rng = np.random.default_rng(5)
        leaves = [ad.param(rng.normal(size=(3, 3))) for _ in range(3)]

        def build(ls):
            return ad.sum(ad.tanh(ad.matmul(ad.matmul(ls[0], ls[1]), ls[2])))

        assert gc.compare(build, leaves) < 1e-5

    def test_constant_operand_gets_no_gradient(self):
        rng = np.random.default_rng(7)
        x = ad.param(rng.normal(size=(3, 2)))
        c = ad.constant(rng.normal(size=(2, 4)))
        g = np.ones((3, 4))
        dx, dc = ad.matmul(x, c)._backward(g)
        assert dc is None and dx.tobytes() == (c.data @ g.T).T.tobytes()
        dc, dx = ad.matmul(ad.ones(4, 3), x)._backward(np.ones((4, 2)))
        assert dc is None and dx.shape == (3, 2)
        dx, ds = ad.mul(x, 0.5)._backward(np.ones((3, 2)))
        assert ds is None and np.all(dx == 0.5)
        ds, dx = ad.mul(ad.constant(2.0), x)._backward(np.ones((3, 2)))
        assert ds is None and np.all(dx == 2.0)

    def test_non_scalar_loss_rejected(self):
        x = ad.param(np.ones(3))
        with pytest.raises(ad.ShapeError):
            ad.backward(x * 2.0)

    def test_detached_loss_rejected(self):
        c = ad.constant(2.0)
        with pytest.raises(ValueError):
            ad.backward(c * c)

    def test_grad_accumulates_on_rerun(self):
        x = ad.param(2.0)
        y = x * x
        ad.backward(y)
        ad.backward(y)
        assert float(x.grad) == pytest.approx(8.0)

    def test_shared_subexpression(self):
        x = ad.param(1.5)
        y = x * x
        z = y + y  # d/dx 2x^2 = 4x
        ad.backward(z)
        assert float(x.grad) == pytest.approx(6.0)

    def test_grad_kept_on_leaves_only(self):
        x = ad.param(np.array([[1.5, -0.5]]))
        c = ad.constant(np.array([[2.0, 3.0]]))
        y = ad.tanh(x * c)
        ad.backward(ad.sum(y))
        assert y.grad is None
        assert c.grad is None
        np.testing.assert_array_equal(
            x.grad, np.array([[2.0, 3.0]]) * (1.0 - np.tanh(np.array([[3.0, -1.5]])) ** 2))

    def test_no_grad_context(self):
        with ad.no_grad():
            x = ad.param(1.0)
            y = x * x
        assert not y.requires_grad
        with pytest.raises(ValueError):
            ad.backward(y)

    def test_linearity(self):
        rng = np.random.default_rng(17)
        base = rng.normal(size=(2, 2))
        a, b = 1.7, -0.4

        def grad_of(fn):
            x = ad.param(base.copy())
            ad.backward(fn(x))
            return x.grad

        gf = grad_of(lambda x: ad.sum(ad.tanh(x)))
        gg = grad_of(lambda x: ad.mean(x * x))
        combined = grad_of(
            lambda x: a * ad.sum(ad.tanh(x)) + b * ad.mean(x * x)
        )
        np.testing.assert_allclose(combined, a * gf + b * gg, rtol=1e-12, atol=1e-12)


class TestRowOps:
    def test_shape_errors(self):
        a = ad.constant(np.zeros((4, 3)))
        for row in (np.zeros((2, 3)), np.zeros((1, 4)), np.zeros(3)):
            with pytest.raises(ad.ShapeError):
                ad.add_row(a, row)
        with pytest.raises(ad.ShapeError):
            ad.add_row(np.zeros(3), np.zeros((1, 3)))

    @staticmethod
    def _values_and_grads(build, leaves):
        for leaf in leaves:
            leaf.zero_grad()
        out = build()
        ad.backward(ad.sum(ad.tanh(out)))
        return [out.data.tobytes()] + [leaf.grad.tobytes() for leaf in leaves]

    def test_bias_row_bits_equal_ones_matmul(self):
        # 128 x 128 is a size at which np.sum would round the bias gradient
        # differently from the ones-row product.
        rng = np.random.default_rng(5)
        x = ad.param(rng.normal(size=(128, 128)))
        W = ad.param(rng.normal(size=(128, 128)) * 0.1)
        b = ad.param(rng.normal(size=(1, 128)))
        leaves = [x, W, b]
        op = self._values_and_grads(
            lambda: ad.add_row(ad.matmul(x, W), b), leaves)
        ref = self._values_and_grads(
            lambda: ad.matmul(x, W) + ad.matmul(ad.ones(128, 1), b), leaves)
        assert op == ref

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        a = ad.param(rng.normal(size=(5, 3)))
        row = ad.param(rng.normal(size=(1, 3)))

        def build(_):
            col_sums = ad.matmul(ad.ones(1, 5), a * a)
            return ad.sum(ad.tanh(ad.add_row(a, col_sums * 0.3 + row)))

        assert gc.compare(build, [a, row]) < 1e-6


def _random_composition(rng):
    """Random scalar-valued composition over every primitive's valid domain."""
    leaves = [ad.param(rng.normal(size=(2, 2))) for _ in range(3)]
    leaves.append(ad.param(rng.normal()))

    def positive(t):
        return ad.softplus(t) + 0.5

    def build(ls):
        pool = list(ls[:3])
        scalar = ls[3]
        for _ in range(6):
            op = rng.integers(0, 12)
            pick = lambda: pool[rng.integers(0, len(pool))]
            if op == 0:
                pool.append(pick() + pick())
            elif op == 1:
                pool.append(pick() - pick())
            elif op == 2:
                pool.append(ad.tanh(pick()) * ad.sigmoid(pick()))
            elif op == 3:
                pool.append(ad.add_row(pick(), ad.slice_rows(pick(), 1, 2)))
            elif op == 4:
                pool.append(pick() * ad.sum(ad.softplus(pick())))
            elif op == 5:
                pool.append(ad.exp(ad.tanh(pick())))
            elif op == 6:
                pool.append(ad.log(positive(pick())))
            elif op == 7:
                pool.append(ad.lgamma(positive(pick())))
            elif op == 8:
                pool.append(ad.abs(pick() + 1.7))
            elif op == 9:
                pool.append(ad.matmul(ad.tanh(pick()), ad.tanh(pick())))
            elif op == 10:
                pool.append(ad.slice_last(ad.concat([pick(), pick()]), 1, 3))
            else:
                pool.append(ad.transpose(pick()) * scalar)
        out = ad.concat([ad.tanh(t) for t in pool[-3:]])
        anchor = ad.mean(pool[0]) + ad.mean(pool[1]) + ad.mean(pool[2])
        return ad.mean(out) * ad.sigmoid(scalar) + 0.1 * anchor

    return build, leaves


def test_random_compositions_match_finite_differences():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        build, leaves = _random_composition(rng)
        # Freeze the op sequence so the finite-difference re-evaluations see
        # the identical graph: re-seed a child generator per composition.
        state = rng.bit_generator.state
        def frozen(ls, _state=state, _build=build):
            rng.bit_generator.state = _state
            return _build(ls)
        err = gc.compare(frozen, leaves)
        worst = max(worst, err)
    assert worst < 1e-5


# Names in __all__ that record no node of their own (leaves, the engine) and
# the fused ops that the evidential, mmd and model suites cover; `ones` stays
# public only for the benchmark's tests.
_NOT_IN_PRIMITIVES = {"Tensor", "ShapeError", "DomainError", "no_grad", "constant",
                      "param", "backward", "ones", "nig", "nig_nll", "lstm", "mmd"}


def test_primitives_suite_reaches_every_op(monkeypatch):
    reached = set()

    def counted(name, op):
        def wrapper(*args, **kwargs):
            reached.add(name)
            return op(*args, **kwargs)
        return wrapper

    for name in set(ad.__all__) - _NOT_IN_PRIMITIVES:
        monkeypatch.setattr(ad, name, counted(name, getattr(ad, name)))
    assert gc.suite_primitives(0) < 1e-5
    assert sorted(set(ad.__all__) - _NOT_IN_PRIMITIVES - reached) == []


def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(99)
        build, leaves = _random_composition(rng)
        loss = build(leaves)
        ad.backward(loss)
        return loss.item(), [l.grad.copy() for l in leaves]

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2
    for a, b in zip(g1, g2):
        assert np.array_equal(a, b)


def test_central_difference_restores_leaf_when_f_raises():
    leaf = ad.param(np.random.default_rng(5).normal(size=(2, 3)))
    before = leaf.data.tobytes()
    calls = []

    def f():
        calls.append(None)
        if len(calls) == 2:   # the first entry's "orig - h" probe
            raise RuntimeError("probe failed")
        return float(np.sum(leaf.data))

    with pytest.raises(RuntimeError, match="probe failed"):
        gc.central_difference(f, [leaf])
    assert len(calls) == 2
    assert leaf.data.tobytes() == before


@pytest.mark.parametrize("seed", [917, 4282])
def test_primitives_suite_keeps_off_the_abs_kink(seed):
    # Each seed draws an entry within 1e-4 of |x + 1.5|'s kink.
    assert gc.suite_primitives(seed) < 1e-5


def test_central_difference_probes_a_transposed_leaf():
    leaf = ad.param(np.random.default_rng(6).normal(size=(3, 2)).T)
    assert not leaf.data.flags.c_contiguous
    (g,) = gc.central_difference(lambda: float(np.sum(leaf.data * leaf.data)), [leaf])
    np.testing.assert_allclose(g, 2 * leaf.data, rtol=1e-8)
    assert gc.compare(lambda ls: ad.sum(ls[0] * ls[0]), [leaf]) < 1e-8


# The probes split across forked children only where fork exists and a
# second CPU is available; the tests below check that split.
needs_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
         and len(os.sched_getaffinity(0)) > 1),
    reason="needs os.fork and a second available CPU")


class ChildProbeError(Exception):
    pass


@pytest.fixture()
def forks(monkeypatch):
    """The caller's os.fork calls, counted."""
    calls, real = [], os.fork

    def counting_fork():
        calls.append(None)
        return real()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def _slow_sum(leaf, fails_in_child, fails_here_after=None):
    # 20 entries at ~4 ms each: far more than a fork round trip, so the
    # probes after the first are split between this process and a child.
    parent, calls = os.getpid(), []

    def f():
        time.sleep(0.002)
        calls.append(None)
        if os.getpid() != parent and fails_in_child:
            raise ChildProbeError("probe failed in a child")
        if os.getpid() == parent and fails_here_after == len(calls):
            raise RuntimeError("probe failed in the caller")
        return float(np.sum(leaf.data))
    return f


@needs_fork
def test_run_all_bits_same_in_one_process(monkeypatch, forks):
    def bits():
        return [(r.name, r.error.hex(), r.tol.hex()) for r in gc.run_all(seed=0)]

    forked = bits()
    assert forks
    monkeypatch.delattr(os, "fork")
    assert bits() == forked


@needs_fork
def test_lstm_100step_suite_forks(forks):
    gc.suite_lstm(0, window_len=100)
    assert 1 <= len(forks) <= len(os.sched_getaffinity(0)) - 1


@needs_fork
def test_child_probe_error_reaches_caller(forks):
    leaf = ad.param(np.random.default_rng(7).normal(size=(4, 5)))
    before = leaf.data.tobytes()
    with pytest.raises(ChildProbeError, match="^probe failed in a child$"):
        gc.central_difference(_slow_sum(leaf, fails_in_child=True), [leaf])
    assert forks
    assert leaf.data.tobytes() == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_caller_part_error_wins_and_kills_children(forks):
    # Both parts fail; the caller's part holds the earlier entries.
    leaf = ad.param(np.random.default_rng(8).normal(size=(4, 5)))
    before = leaf.data.tobytes()
    f = _slow_sum(leaf, fails_in_child=True, fails_here_after=4)
    with pytest.raises(RuntimeError, match="^probe failed in the caller$"):
        gc.central_difference(f, [leaf])
    assert forks
    assert leaf.data.tobytes() == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
