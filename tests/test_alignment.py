import math
import tracemalloc

import numpy as np
import pytest
import scipy.spatial.distance

from uga import autodiff as ad
from uga import gradcheck as gc
from uga.alignment import (
    BANK_FACTORS,
    KernelBank,
    augmented_embedding,
    median_bandwidth,
    mmd2_biased,
    posterior_vector,
    rbf_kernel,
)
from uga.evidential import NigOutput, nig_from_raw

E_INV = 0.3678794411714423216
LN2 = 0.6931471805599453094


def mmd2_double_loop(X, Y, bandwidths):
    """Brute-force O(n*m) oracle, independent of the vectorized estimator."""
    n, m = len(X), len(Y)
    total = 0.0
    for s2 in bandwidths:
        sxx = sum(rbf_kernel(X[i], X[j], s2) for i in range(n) for j in range(n))
        syy = sum(rbf_kernel(Y[i], Y[j], s2) for i in range(m) for j in range(m))
        sxy = sum(rbf_kernel(X[i], Y[j], s2) for i in range(n) for j in range(m))
        total += sxx / n**2 + syy / m**2 - 2.0 * sxy / (n * m)
    return total / len(bandwidths)


class TestKernel:
    def test_identical_points(self):
        assert rbf_kernel([1.0, 2.0], [1.0, 2.0], 3.0) == 1.0

    def test_distance_equals_two_sigma2(self):
        # |x-y|^2 = 1, sigma2 = 0.5
        assert rbf_kernel([0.0], [1.0], 0.5) == pytest.approx(E_INV, abs=1e-12)

    def test_flat_kernel_limit(self):
        assert rbf_kernel([0.0], [5.0], 1e12) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            rbf_kernel([0.0], [1.0], 0.0)
        with pytest.raises(ad.ShapeError):
            rbf_kernel([0.0, 1.0], [1.0], 1.0)


class TestMedianBandwidth:
    def test_single_pair(self):
        assert median_bandwidth([[0.0]], [[3.0]]) == 9.0

    def test_three_points(self):
        # squared distances {1, 4, 9}: median 4
        assert median_bandwidth([[0.0], [1.0]], [[3.0]]) == 4.0

    def test_identical_points_fallback(self):
        assert median_bandwidth([[2.0], [2.0]], [[2.0]]) == 1.0

    def test_zero_columns_fallback(self):
        assert median_bandwidth(np.zeros((3, 0)), np.zeros((2, 0))) == 1.0

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            median_bandwidth(np.zeros((1, 2)), np.zeros((0, 2)))

    def test_pool_order_invariant(self):
        rng = np.random.default_rng(3)
        X, Y = rng.normal(size=(6, 3)), rng.normal(size=(9, 3))
        assert median_bandwidth(X, Y) == median_bandwidth(Y, X)
        # thinned: both orders keep rows 0, 3, 6, ... of each side
        X, Y = rng.normal(size=(300, 3)), rng.normal(size=(400, 3))
        assert median_bandwidth(X, Y) == median_bandwidth(Y, X)

    def test_nonfinite_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                median_bandwidth([[0.0], [bad]], [[1.0]])


SCREEN_ROWS = math.isqrt(ad.BLOCK_FLOATS)


def thinned(X, Y):
    """The rows median_bandwidth keeps: every s-th row of each side, with
    s = ceil((n + m) / SCREEN_ROWS), so pools of up to 256 rows stay whole."""
    s = -(-(len(X) + len(Y)) // SCREEN_ROWS)
    return X[::s], Y[::s]


def median_bandwidth_ref(X, Y):
    """The copying formula the in-place selection replaces."""
    X = np.asarray(X, dtype=np.float64).reshape(len(X), -1)
    Y = np.asarray(Y, dtype=np.float64).reshape(len(Y), -1)
    d2 = scipy.spatial.distance.pdist(np.concatenate([X, Y]), "sqeuclidean")
    d2 = d2[d2 > 0]
    return 1.0 if d2.size == 0 else float(np.median(d2))


class TestInPlaceMedian:
    """median_bandwidth against np.median(d2[d2 > 0]) of the thinned pool:
    same bits."""

    @staticmethod
    def assert_bits(X, Y):
        got, want = median_bandwidth(X, Y), median_bandwidth_ref(*thinned(X, Y))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        return got

    def test_duplicate_points_odd_and_even_counts(self):
        # Grid points repeat, so many distances are zero; the pool sizes
        # give both parities of the nonzero count.
        rng = np.random.default_rng(61)
        parities = set()
        for _ in range(400):
            n, m, d = rng.integers(1, 10), rng.integers(1, 10), rng.integers(1, 4)
            X = rng.integers(0, 3, size=(n, d)) * 0.7
            Y = rng.integers(0, 3, size=(m, d)) * 0.7
            pool = np.concatenate([X, Y])
            nonzero = np.count_nonzero(scipy.spatial.distance.pdist(pool, "sqeuclidean"))
            if nonzero:
                parities.add(nonzero % 2)
            self.assert_bits(X, Y)
        assert parities == {0, 1}

    def test_lower_middle_is_the_largest_entry_below_k(self):
        # After partition(k) the entries below k are unordered; at 780
        # distances the one at k - 1 is sometimes not the lower middle.
        rng = np.random.default_rng(83)
        for _ in range(300):
            self.assert_bits(rng.normal(size=(20, 2)), rng.normal(size=(20, 2)))

    def test_even_count_averages_the_two_middles(self):
        # 14 nonzero squared distances (the repeated 0 adds a zero one);
        # the middle two are 16 and 25
        X = [[0.0], [0.0], [1.0]]
        assert self.assert_bits(X, [[3.0], [6.0], [10.0]]) == 20.5

    def test_all_zero_fallback(self):
        assert self.assert_bits(np.full((4, 2), 0.3), np.full((3, 2), 0.3)) == 1.0

    @pytest.mark.parametrize("xs, ys", [((128, 132), (128, 132)),
                                        ((2000, 3), (2000, 3))])
    def test_training_and_evaluation_shapes(self, xs, ys):
        rng = np.random.default_rng(71)
        X = rng.normal(size=xs)
        Y = rng.normal(loc=0.5, size=ys)
        Y[:10] = X[:10]  # a few exact cross-domain duplicates
        self.assert_bits(X, Y)

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            with ad.no_grad():
                fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_no_grad_mmd_peak_memory(self):
        # evaluate's posterior gap: 2,000 + 2,000 rows of [nu, alpha, beta].
        # A pdist vector of these rows would be 64 MB and a 2,000 x 2,000
        # kernel matrix 32 MB; the row-blocked median and MMD hold neither.
        rng = np.random.default_rng(73)
        X = rng.normal(size=(2000, 3))
        Y = rng.normal(loc=0.5, size=(2000, 3))
        assert self.traced_peak(lambda: mmd2_biased(X, Y)) < 16e6

    def test_median_bandwidth_peak_memory(self):
        rng = np.random.default_rng(79)
        for rows in (2000, 8000):
            X = rng.normal(size=(rows, 3))
            Y = rng.normal(loc=0.5, size=(rows, 3))
            assert self.traced_peak(lambda: median_bandwidth(X, Y)) < 2e6

    def test_pools_above_the_screen_are_thinned(self):
        # 4,000 pooled rows: stride ceil(4000 / 256) = 16 on both sides
        rng = np.random.default_rng(107)
        X, Y = rng.normal(size=(2000, 3)), rng.normal(size=(2000, 3))
        got = median_bandwidth(X, Y)
        assert got == median_bandwidth_ref(X[::16], Y[::16])
        assert got != median_bandwidth_ref(X, Y)


class TestScreenedMedian:
    """The Gram-screened median against pdist's, bit for bit, across the
    thinning boundary, in d, with ties, and where squares underflow or
    squared norms overflow."""

    @staticmethod
    def pools(rng, total, d):
        n = total // 2
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
        Y = rng.normal(loc=0.5, size=(total - n, d)) * rng.uniform(0.1, 10.0, size=d)
        return X, Y

    # Pools of 256 rows are screened whole, 257 rows are thinned to 129.
    @pytest.mark.parametrize("total", [SCREEN_ROWS, SCREEN_ROWS + 1])
    @pytest.mark.parametrize("d", [1, 3, 20, 132])
    def test_bits_across_the_block_boundary(self, total, d):
        rng = np.random.default_rng(89 + d)
        X, Y = self.pools(rng, total, d)
        TestInPlaceMedian.assert_bits(X, Y)
        Y[:7] = X[:7]  # cross-domain duplicates
        X[3:6] = X[2]
        TestInPlaceMedian.assert_bits(X, Y)
        # grid rows: many ties at the middle
        TestInPlaceMedian.assert_bits(np.round(X), np.round(Y))
        assert TestInPlaceMedian.assert_bits(np.full_like(X, 0.3), np.full_like(Y, 0.3)) == 1.0

    @pytest.mark.parametrize("total", [40, SCREEN_ROWS + 1])
    @pytest.mark.parametrize("scale", [1e-170, 1e-161, 1e-158])
    def test_bits_where_squares_underflow(self, total, scale):
        rng = np.random.default_rng(97)
        for d in (1, 3, 20):
            X, Y = self.pools(rng, total, d)
            TestInPlaceMedian.assert_bits(X * scale, Y * scale)

    @pytest.mark.parametrize("total", [40, SCREEN_ROWS + 1])
    @pytest.mark.parametrize("spread", [1e152, 1e160])
    def test_bits_where_squared_norms_overflow(self, total, spread):
        # Rows near 1e160: the squared norms overflow; the distances stay
        # finite at a spread of 1e152 and mostly overflow at 1e160.
        rng = np.random.default_rng(101)
        for d in (1, 3, 20):
            X, Y = self.pools(rng, total, d)
            X, Y = 1e160 + X * spread, 1e160 + Y * spread
            assert np.isinf(np.einsum("ij,ij->i", X, X)).all()
            TestInPlaceMedian.assert_bits(X, Y)
            Y[:5] = X[:5]
            TestInPlaceMedian.assert_bits(X, Y)

    def test_bits_when_the_sampled_window_misses(self, monkeypatch):
        # A zero margin around the sampled middle makes the first windows
        # miss; each retry widens it until the middle ranks are inside.
        monkeypatch.setattr("uga.alignment.math.isqrt", lambda v: 0)
        rng = np.random.default_rng(103)
        for total in (60, SCREEN_ROWS + 1, 700):
            X, Y = self.pools(rng, total, 3)
            TestInPlaceMedian.assert_bits(X, Y)
            TestInPlaceMedian.assert_bits(np.round(X), np.round(Y))


class TestKernelBank:
    def test_median_scaled_factors(self):
        bank = KernelBank.median_scaled([[0.0]], [[3.0]])
        assert bank.bandwidths == (2.25, 4.5, 9.0, 18.0, 36.0)

    def test_rejects_empty_or_nonpositive(self):
        with pytest.raises(ValueError):
            KernelBank(())
        with pytest.raises(ValueError):
            KernelBank((1.0, -2.0))


class TestMmd:
    def test_single_pair_frozen_value(self):
        v = mmd2_biased([[0.0]], [[1.0]], KernelBank((0.5,)))
        assert v.item() == pytest.approx(2.0 - 2.0 * E_INV, abs=1e-12)

    def test_identical_sets_zero(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(7, 3))
        assert mmd2_biased(X, X.copy()).item() == 0.0

    def test_permuted_multiset_near_zero(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(8, 2))
        v = mmd2_biased(X, X[::-1].copy()).item()
        assert abs(v) < 1e-12

    def test_symmetric_bit_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            X = rng.normal(size=(rng.integers(1, 9), 4))
            Y = rng.normal(size=(rng.integers(1, 9), 4))
            assert mmd2_biased(X, Y).item() == mmd2_biased(Y, X).item()
        # thinned for the bandwidth: both orders keep the same rows
        X, Y = rng.normal(size=(300, 4)), rng.normal(size=(400, 4))
        assert mmd2_biased(X, Y).item() == mmd2_biased(Y, X).item()

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(100):
            n, m = rng.integers(1, 9), rng.integers(1, 9)
            d = rng.integers(1, 6)
            X = rng.normal(size=(n, d))
            Y = rng.normal(size=(m, d))
            bank = KernelBank.median_scaled(X, Y)
            got = mmd2_biased(X, Y, bank).item()
            want = mmd2_double_loop(X, Y, bank.bandwidths)
            worst = max(worst, abs(got - want))
            assert got >= 0.0 or abs(got) < 1e-15
        assert worst < 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            X = rng.normal(size=(rng.integers(2, 12), 3))
            Y = rng.normal(loc=rng.normal(), size=(rng.integers(2, 12), 3))
            assert mmd2_biased(X, Y).item() >= 0.0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            mmd2_biased(np.zeros((0, 2)), np.zeros((3, 2)))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ad.ShapeError):
            mmd2_biased(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_vector_samples_rejected(self):
        for X, Y in ((np.zeros(3), np.zeros((2, 1))),
                     (ad.constant(np.zeros((2, 1))), ad.constant(np.zeros(2)))):
            with pytest.raises(ad.ShapeError):
                mmd2_biased(X, Y)
        with pytest.raises(ad.ShapeError):
            median_bandwidth(np.zeros(3), np.zeros((2, 1)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(19)
        bank = KernelBank((0.5, 1.0, 2.0))
        X = ad.param(rng.normal(size=(5, 3)))
        Y = ad.param(rng.normal(size=(4, 3)))

        def build(ls):
            return mmd2_biased(ls[0], ls[1], bank)

        assert gc.compare(build, [X, Y]) < 1e-5


def _pairwise_sq_dists(A, B):
    """The tape composition ad.mmd replaces, kept as its bit-level reference."""
    n, d = A.shape
    m = B.shape[0]
    col = ad.ones(d, 1)
    sqa = ad.matmul(A * A, col)
    sqb = ad.matmul(B * B, col)
    cross = ad.matmul(A, ad.transpose(B))
    return (ad.matmul(sqa, ad.ones(1, m))
            + ad.matmul(ad.ones(n, 1), ad.transpose(sqb))
            - 2.0 * cross)


def _mean_kernel(D, sigma2):
    n, m = D.shape
    k = ad.exp(D * (-1.0 / (2.0 * sigma2)))
    total = ad.matmul(ad.matmul(ad.ones(1, n), k), ad.ones(m, 1))
    return ad.sum(total) * (1.0 / (n * m))


def mmd_tape(X, Y, bandwidths):
    dxx = _pairwise_sq_dists(X, X)
    dyy = _pairwise_sq_dists(Y, Y)
    dxy = _pairwise_sq_dists(X, Y)
    acc = None
    for s2 in bandwidths:
        term = (_mean_kernel(dxx, s2) + _mean_kernel(dyy, s2)
                - 2.0 * _mean_kernel(dxy, s2))
        acc = term if acc is None else acc + term
    return acc * (1.0 / len(bandwidths))


ONE_CHUNK = math.isqrt(ad.BLOCK_FLOATS)


class TestFusedMmd:
    """ad.mmd against the tape composition: same bits, value and gradients."""

    CASES = [((128, 132), (128, 132)), ((128, 3), (128, 3)),
             ((32, 20), (32, 20)), ((7, 4), (6, 4)), ((5, 4), (9, 4))]

    @staticmethod
    def samples(seed, xs, ys):
        rng = np.random.default_rng(seed)
        scale = rng.uniform(0.1, 40.0, size=xs[1])
        X = rng.normal(size=xs) * scale
        Y = rng.normal(loc=0.5, size=ys) * scale
        return X, Y, KernelBank.median_scaled(X, Y).bandwidths

    @staticmethod
    def run(op, X, Y, bandwidths, grad_x=True, grad_y=True, same=False):
        x = ad.param(X) if grad_x else ad.constant(X)
        y = x if same else (ad.param(Y) if grad_y else ad.constant(Y))
        out = op(x, y, bandwidths)
        ad.backward(out * 0.37)
        return out.data, x.grad, None if same else y.grad

    @staticmethod
    def assert_bits(got, want):
        for g, w in zip(got, want):
            if w is None:
                assert g is None
            else:
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

    @pytest.mark.parametrize("xs, ys", CASES)
    def test_bit_identical_to_tape(self, xs, ys):
        X, Y, bw = self.samples(43, xs, ys)
        for a, b in ((X, Y), (Y, X)):
            self.assert_bits(self.run(ad.mmd, a, b, bw), self.run(mmd_tape, a, b, bw))

    @pytest.mark.parametrize("grad_x, grad_y", [(True, False), (False, True)])
    def test_one_side_requires_grad(self, grad_x, grad_y):
        X, Y, bw = self.samples(47, (32, 20), (24, 20))
        got = self.run(ad.mmd, X, Y, bw, grad_x, grad_y)
        self.assert_bits(got, self.run(mmd_tape, X, Y, bw, grad_x, grad_y))
        assert (got[1] is None) != grad_x and (got[2] is None) != grad_y

    @pytest.mark.parametrize("xs, ys", CASES)
    def test_second_backward_doubles_gradients(self, xs, ys):
        # Backward only reads the cached kernel stack, so a second walk of
        # the same graph adds exactly the same gradients again.
        X, Y, bw = self.samples(67, xs, ys)
        x, y = ad.param(X), ad.param(Y)
        loss = ad.mmd(x, y, bw) * 0.37
        ad.backward(loss)
        once = x.grad.copy(), y.grad.copy()
        ad.backward(loss)
        for got, first in zip((x.grad, y.grad), once):
            assert got.tobytes() == (first * 2.0).tobytes()

    @pytest.mark.parametrize("grad_x, grad_y, same", [
        (True, True, False), (True, False, False), (False, True, False),
        (True, True, True)])
    def test_gradients_are_c_contiguous(self, grad_x, grad_y, same):
        X, Y, bw = self.samples(71, (12, 5), (9, 5))
        x = ad.param(X) if grad_x else ad.constant(X)
        y = x if same else (ad.param(Y) if grad_y else ad.constant(Y))
        grads = ad.mmd(x, y, bw)._backward(np.array(1.0))
        wanted = (grad_x, grad_y and not same)
        assert [g is not None for g in grads] == list(wanted)
        assert all(g.flags.c_contiguous for g in grads if g is not None)

    def test_same_tensor_both_sides(self):
        X, _, bw = self.samples(53, (16, 5), (16, 5))
        got = self.run(ad.mmd, X, X, bw, same=True)
        self.assert_bits(got, self.run(mmd_tape, X, X, bw, same=True))
        assert got[0] == 0.0

    # The last shape is the largest n x n call whose blocks each fit one
    # BLOCK_FLOATS chunk, so its value keeps the tape's bits.
    @pytest.mark.parametrize("xs, ys", [((128, 3), (96, 3)), ((200, 3), (150, 3)),
                                        ((ONE_CHUNK, 3), (ONE_CHUNK, 3))])
    def test_no_grad_value_and_no_backward_rule(self, xs, ys):
        X, Y, bw = self.samples(59, xs, ys)
        with ad.no_grad():
            out = ad.mmd(ad.param(X), ad.param(Y), bw)
            want = mmd_tape(ad.constant(X), ad.constant(Y), bw)
        assert out._backward is None and out._parents == ()
        assert out.data.tobytes() == np.asarray(want.data).tobytes()

    def test_no_grad_several_chunks_close_to_tape(self):
        X, Y, bw = self.samples(61, (1000, 3), (900, 3))
        with ad.no_grad():
            got = ad.mmd(X, Y, bw).item()
            want = mmd_tape(ad.constant(X), ad.constant(Y), bw).item()
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ad.ShapeError):
            ad.mmd(np.zeros((3, 2)), np.zeros((3, 4)), (1.0,))
        with pytest.raises(ad.ShapeError):
            ad.mmd(np.zeros((0, 2)), np.zeros((3, 2)), (1.0,))
        with pytest.raises(ValueError):
            ad.mmd(np.zeros((3, 2)), np.zeros((3, 2)), ())
        with pytest.raises(ValueError):
            ad.mmd(np.zeros((3, 2)), np.zeros((3, 2)), (1.0, 0.0))


class TestFusedBandwidth:
    """mmd2_biased without a bank, on pools of up to 256 rows, takes the
    median from the distance buffer ad.mmd reads: value and both gradients
    have the bits of the explicit median_scaled bank."""

    @staticmethod
    def run(X, Y, bank=None, same=False):
        x = ad.param(X)
        y = x if same else ad.param(Y)
        out = mmd2_biased(x, y, bank)
        ad.backward(out * 0.37)
        return out.data, x.grad, None if same else y.grad

    @classmethod
    def assert_bits(cls, X, Y, same=False):
        with np.errstate(over="ignore", invalid="ignore"):
            got = cls.run(X, Y, same=same)
            want = cls.run(X, Y, KernelBank.median_scaled(X, X if same else Y), same=same)
        TestFusedMmd.assert_bits(got, want)

    @pytest.fixture
    def banks(self, mmd_calls):
        """Called after the runs: the banks the fused path chose, in call
        order.  Each fused call computed its three distance blocks once,
        before ad.mmd, and ad.mmd then computed none."""
        def fused():
            calls = [c for c in mmd_calls if c.fused]
            assert [(c.grams_before, c.grams_inside) for c in calls] == [(3, 0)] * len(calls)
            return [c.bandwidths for c in calls]
        return fused

    @pytest.mark.parametrize("d", [1, 3, 20, 132])
    def test_training_pools(self, banks, d):
        rng = np.random.default_rng(89 + d)
        X, Y = TestScreenedMedian.pools(rng, SCREEN_ROWS, d)
        self.assert_bits(X, Y)
        Y[:7] = X[:7]  # cross-domain duplicates
        X[3:6] = X[2]
        self.assert_bits(X, Y)
        self.assert_bits(np.round(X), np.round(Y))  # grid rows, ties at the middle
        self.assert_bits(np.full_like(X, 0.3), np.full_like(Y, 0.3))
        assert len(banks()) == 4
        assert banks()[-1] == KernelBank.median_scaled([[0.0]], [[1.0]]).bandwidths

    @pytest.mark.parametrize("scale", [1e-170, 1e-161, 1e-158])
    def test_squares_underflow(self, scale):
        rng = np.random.default_rng(97)
        for d in (1, 3, 20):
            X, Y = TestScreenedMedian.pools(rng, 40, d)
            self.assert_bits(X * scale, Y * scale)

    @pytest.mark.parametrize("spread", [1e152, 1e160])
    def test_squared_norms_overflow(self, spread):
        rng = np.random.default_rng(101)
        for d in (1, 3, 20):
            X, Y = TestScreenedMedian.pools(rng, 40, d)
            X, Y = 1e160 + X * spread, 1e160 + Y * spread
            self.assert_bits(X, Y)
            Y[:5] = X[:5]
            self.assert_bits(X, Y)

    def test_same_samples_and_single_rows(self, banks):
        rng = np.random.default_rng(109)
        X, Y = rng.normal(size=(128, 5)), rng.normal(loc=0.5, size=(128, 5))
        self.assert_bits(X, X, same=True)
        self.assert_bits(X, X.copy())
        for a, b in ((X[:1], Y), (X, Y[:1]), (X[:1], Y[:1])):
            self.assert_bits(a, b)
        assert len(banks()) == 5

    @pytest.mark.parametrize("spread", [1e-9, 1e-6])
    def test_tight_pools_take_pdists_median(self, banks, spread):
        # Two 128-row pools around one point: the bandwidth has pdist's bits.
        # (The MMD value itself loses its precision on such pools.)
        rng = np.random.default_rng(113)
        centre = np.array([0.01, 1.0, 1e-5])
        X = centre + spread * rng.normal(size=(128, 3))
        Y = centre + spread * rng.normal(size=(128, 3))
        self.assert_bits(X, Y)
        want = np.float64(median_bandwidth_ref(X, Y))
        assert np.float64(banks()[0][BANK_FACTORS.index(1.0)]).tobytes() == want.tobytes()

    def test_larger_pools_take_the_standalone_median(self, banks):
        rng = np.random.default_rng(127)
        self.assert_bits(rng.normal(size=(130, 3)), rng.normal(size=(127, 3)))
        assert banks() == []

    def test_unrecorded_pools(self, banks):
        rng = np.random.default_rng(131)
        for n, m in ((128, 128), (1, 255), (97, 3)):
            X, Y = rng.normal(size=(n, 4)), rng.normal(loc=0.5, size=(m, 4))
            with ad.no_grad():
                got = mmd2_biased(X, Y)
                want = mmd2_biased(X, Y, KernelBank.median_scaled(X, Y))
            assert got.data.tobytes() == want.data.tobytes()
        assert len(banks()) == 3

    def test_nonfinite_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="mmd2_biased needs finite"):
                mmd2_biased([[0.0], [bad]], [[1.0]])

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the Gram form's "
                       "cancellation swamps kernels whose bandwidth is that small")
    def test_tight_pools_keep_the_value(self):
        # ROADMAP M11: two pools of spread 1e-9 around one point.
        rng = np.random.default_rng(113)
        centre = np.array([0.01, 1.0, 1e-5])
        X = centre + 1e-9 * rng.normal(size=(128, 3))
        Y = centre + 1e-9 * rng.normal(size=(128, 3))
        got = mmd2_biased(X, Y).item()
        assert 0.0 <= got <= 2.0
        want = mmd2_double_loop(X, Y, KernelBank.median_scaled(X, Y).bandwidths)
        assert got == pytest.approx(want, abs=1e-9)


class TestAugmentedEmbedding:
    def test_output_dim(self):
        p = nig_from_raw(ad.constant(np.zeros((2, 4))))
        z = ad.constant(np.zeros((2, 16)))
        assert augmented_embedding(z, p).shape == (2, 20)

    def test_zero_raw_block(self):
        p = nig_from_raw(ad.constant(np.zeros((1, 4))))
        out = augmented_embedding(ad.constant(np.zeros((1, 3))), p)
        np.testing.assert_allclose(
            out.data[0], [0, 0, 0, 0, LN2, 1 + LN2, LN2], atol=1e-12)

    def test_gamma_position(self):
        rng = np.random.default_rng(23)
        p = nig_from_raw(ad.constant(rng.normal(size=(6, 4))))
        z = ad.constant(rng.normal(size=(6, 5)))
        out = augmented_embedding(z, p)
        np.testing.assert_array_equal(out.data[:, 5:6], p.gamma.data)

    def test_aug_weight_scales_block_only(self):
        rng = np.random.default_rng(29)
        p = nig_from_raw(ad.constant(rng.normal(size=(3, 4))))
        z = ad.constant(rng.normal(size=(3, 2)))
        a = augmented_embedding(z, p, aug_weight=1.0)
        b = augmented_embedding(z, p, aug_weight=2.5)
        np.testing.assert_array_equal(b.data[:, :2], a.data[:, :2])
        np.testing.assert_allclose(b.data[:, 2:], 2.5 * a.data[:, 2:], rtol=1e-15)

    def test_rejects_nonfinite_features(self):
        p = nig_from_raw(ad.constant(np.zeros((1, 4))))
        with pytest.raises(ValueError):
            augmented_embedding(np.array([[np.inf]]), p)


class TestPosteriorVector:
    def test_order_and_gamma_exclusion(self):
        p = NigOutput.from_values(7.0, 1.0, 2.0, 3.0)
        np.testing.assert_array_equal(posterior_vector(p).data, [[1.0, 2.0, 3.0]])

    def test_gamma_invariance(self):
        a = NigOutput.from_values(0.0, 1.0, 2.0, 3.0)
        b = NigOutput.from_values(-5.0, 1.0, 2.0, 3.0)
        np.testing.assert_array_equal(posterior_vector(a).data,
                                      posterior_vector(b).data)

    def test_from_zero_raw(self):
        p = nig_from_raw(ad.constant(np.zeros((1, 4))))
        np.testing.assert_allclose(posterior_vector(p).data,
                                   [[LN2, 1 + LN2, LN2]], atol=1e-12)

