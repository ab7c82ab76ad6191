"""Two-sample discrepancies used to align source and target domains.

The workhorse is a biased (V-statistic) multi-kernel MMD estimator over a
bandwidth bank centered on the median heuristic.  On top of it sit the two
uncertainty-guided objectives: feature alignment over embeddings augmented
with the evidential parameters, and posterior alignment over [nu, alpha,
beta] alone.
"""

from __future__ import annotations

import dataclasses
import enum
import math

import numpy as np

from . import autodiff as ad
from .evidential import NigOutput

__all__ = [
    "AlignmentKind",
    "KernelBank",
    "rbf_kernel",
    "median_bandwidth",
    "mmd2_biased",
    "augmented_embedding",
    "posterior_vector",
]

BANK_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0)
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).smallest_subnormal
_SCREEN_ROWS = math.isqrt(ad.BLOCK_FLOATS)   # median_bandwidth's pool cap


class AlignmentKind(enum.Enum):
    NONE = "none"
    UGA_FEATURE = "uga_feature"
    UGA_POSTERIOR = "uga_posterior"


@dataclasses.dataclass(frozen=True)
class KernelBank:
    """Bandwidths (sigma^2, squared-distance units) averaged by the MMD."""

    bandwidths: tuple[float, ...]

    def __post_init__(self):
        if len(self.bandwidths) == 0:
            raise ValueError("KernelBank needs at least one bandwidth")
        if any(s2 <= 0 for s2 in self.bandwidths):
            raise ValueError("bandwidths must be positive")

    @classmethod
    def median_scaled(cls, X, Y) -> "KernelBank":
        """Median-heuristic bandwidth scaled by powers of two (1/4 .. 4)."""
        s2 = median_bandwidth(X, Y)
        return cls(tuple(s2 * f for f in BANK_FACTORS))


def _as_matrix(X) -> np.ndarray:
    a = X.data if isinstance(X, ad.Tensor) else np.asarray(X, dtype=np.float64)
    if a.ndim != 2:
        raise ad.ShapeError(f"expected a 2-D sample matrix, got shape {a.shape}")
    return a


def rbf_kernel(x, y, sigma2: float) -> float:
    """Gaussian kernel exp(-|x - y|^2 / (2 sigma^2)) for a single pair."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if x.shape != y.shape:
        raise ad.ShapeError(f"kernel arguments differ in shape: {x.shape} vs {y.shape}")
    d2 = float(np.sum((x - y) ** 2))
    return float(np.exp(-d2 / (2.0 * sigma2)))


@np.errstate(over="ignore", invalid="ignore")   # squared norms may overflow
def median_bandwidth(X, Y) -> float:
    """Median of nonzero pairwise squared distances over the pooled samples.

    Self-pairs are excluded; 1.0 if every pairwise distance is zero.  A pool
    of more than 256 rows keeps X[::s] and Y[::s], s = ceil((n + m) / 256),
    so (X, Y) and (Y, X) keep the same rows.  The result has the bits of
    np.median(d2[d2 > 0]) over pdist(kept pool, "sqeuclidean"): a Gram screen
    |a|^2 + |b|^2 - 2a.b bounds each pair within tol, and only pairs that may
    be zero or meet the middle are recomputed.  Memory does not grow with n.
    """
    X, Y = _as_matrix(X), _as_matrix(Y)
    if len(X) + len(Y) < 2:
        raise ValueError("median_bandwidth needs at least 2 points")
    _check_finite("median_bandwidth", X, Y)
    s = -(-(len(X) + len(Y)) // _SCREEN_ROWS)
    X, Y = X[::s], Y[::s]
    return _median_of_screen(np.concatenate([X, Y]), *ad.mmd_dists(X, Y))


def _check_finite(who, *samples) -> None:
    if not all(np.isfinite(a).all() for a in samples):
        raise ValueError(f"{who} needs finite samples")


def _screen_tol(sq, d: int) -> float:
    """Bound on |screen - pdist| over the pairs of a pool with squared norms sq.

    With M = max|x|^2 and every rounding counted as at most eps relative: the
    screen's norms are gemv sums of d products (each within d eps M), fl(2a.b)
    is within 2d eps M, and its two adds round values up to 2M and 4M; pdist's
    (a - b)^2, summed in order, is within about 4(d + 2) eps M of the exact
    distance.  The gap is thus about 8(d + 2) eps M, pdist's own rounding
    included, and tol = 16(d + 2) eps M doubles it, which also absorbs M
    being a rounded norm.  Roundings that underflow lose up to one smallest
    subnormal each, fewer than 8(d + 1) per pair; an eightfold M that
    overflows gives no bound (inf).
    """
    top = 8.0 * sq.max()
    return 2.0 * (d + 2) * _EPS * top + 8.0 * (d + 1) * _TINY if top < np.inf else np.inf


def _median_of_screen(pool, D, sq, pairs) -> float:
    """median_bandwidth's selection over a screen D of all n^2 ordered pairs
    of the pool, D[f] screening the pair pairs(f)."""
    n = len(pool)
    tol = _screen_tol(sq, pool.shape[1])

    # D holds every pair twice and n zero self-pairs, so pair rank r is
    # screen rank n + 2r.  A sample, its stride prime to n to reach every
    # column of a square, places the window [a, b] around the middle ranks.
    p, q = pairs(np.flatnonzero(~(D > tol)))
    off = p != q
    zeros = np.count_nonzero(off) - np.count_nonzero(_sq_dists(pool, p[off], q[off]))
    m = n * (n - 1) // 2 - zeros // 2
    if m == 0:
        return 1.0
    hi_rank = n + zeros + m // 2 * 2
    lo_rank = hi_rank - 2 + m % 2 * 2
    stride = max(8, round(n ** (2 / 3) / 2))
    while math.gcd(stride, n) > 1:
        stride += 1
    sample = np.sort(D[::stride])
    margin = math.isqrt(sample.size) + 2 if tol < np.inf else sample.size
    while True:
        i = lo_rank * sample.size // (n * n) - margin
        j = hi_rank * sample.size // (n * n) + margin + 1
        # Padded by 2 tol, so that ties at an edge do not fail the check.
        a = sample[i] - 2.0 * tol if i >= 0 else -np.inf
        b = sample[j] + 2.0 * tol if j < sample.size else np.inf
        below, flat = _split(D, a, b)
        vals = D[flat]
        r1, r2 = lo_rank - below, hi_rank - below
        if r1 >= 0 and r2 < vals.size:
            part = np.partition(vals, r1)
            lo = part[r1] - 2.0 * tol
            hi = np.partition(part[r1:], r2 - r1)[r2 - r1] + 2.0 * tol
            # Every pair whose bound meets [lo + tol, hi - tol] must be in.
            if not (lo < a or hi > b):
                break
        margin *= 4
    # The middles lie in [lo + tol, hi - tol]: pairs screened below lo and
    # exact values below lo + tol lie below them.
    count, keep = _split(vals, lo, hi)
    exact = _sq_dists(pool, *pairs(flat[keep]))
    below_exact, inside = _split(exact, lo + tol, hi - tol)
    middle = np.sort(exact[inside])
    below += count + below_exact
    upper = middle[hi_rank - below]
    return float(upper if m % 2 else (middle[lo_rank - below] + upper) / 2.0)


def _split(v, lo, hi):
    """(count of v below lo, flat positions of the rest up to hi or NaN)."""
    out = v < lo
    below = np.count_nonzero(out)
    out |= v > hi
    return below, np.flatnonzero(~out)


def _sq_dists(pool, i, j):
    """pdist's bits for the pairs (i, j) of pool rows: squares summed in order."""
    out = np.zeros(i.size)   # zero-column samples stay at zero
    step = ad.BLOCK_FLOATS // max(1, pool.shape[1])
    for s in range(0, i.size if pool.shape[1] else 0, step):
        diff = pool[i[s:s + step]] - pool[j[s:s + step]]
        out[s:s + step] = np.add.accumulate(diff * diff, axis=1)[:, -1]
    return out


def mmd2_biased(X, Y, bank: KernelBank | None = None) -> ad.Tensor:
    """Biased squared MMD between two sample sets, averaged over the bank.

    (1/n^2) sum k(x_i, x_j) + (1/m^2) sum k(y_i, y_j)
    - (2/nm) sum k(x_i, y_j), per bandwidth, then the bank mean.  Bandwidths
    are plain constants: no gradient flows through the median heuristic.
    The two arguments are ordered canonically before any arithmetic so the
    result is symmetric bit-for-bit.
    """
    X = X if isinstance(X, ad.Tensor) else ad.constant(_as_matrix(X))
    Y = Y if isinstance(Y, ad.Tensor) else ad.constant(_as_matrix(Y))
    # Canonical argument order (shape, then content) makes the float
    # summation sequence identical for (X, Y) and (Y, X).
    kx = (X.shape[0], X.data.tobytes())
    ky = (Y.shape[0], Y.data.tobytes())
    if ky < kx:
        X, Y = Y, X

    dists = None
    if bank is not None:
        bandwidths = bank.bandwidths
    elif X.shape[0] + Y.shape[0] > _SCREEN_ROWS:
        bandwidths = KernelBank.median_scaled(X.data, Y.data).bandwidths
    else:   # the median from the distances ad.mmd reads
        _check_finite("mmd2_biased", X.data, Y.data)
        with np.errstate(over="ignore", invalid="ignore"):
            dists, sq, pairs = ad.mmd_dists(X.data, Y.data)
            s2 = _median_of_screen(np.concatenate([X.data, Y.data]), dists, sq, pairs)
        bandwidths = tuple(s2 * f for f in BANK_FACTORS)
    return ad.mmd(X, Y, bandwidths, dists)


def augmented_embedding(z, p: NigOutput, aug_weight: float = 1.0) -> ad.Tensor:
    """Concatenate features with the four NIG parameters: [z; g; nu; a; b].

    aug_weight scales the appended parameter block (1.0 leaves it as-is).
    Output has dim(z) + 4 columns; column dim(z) is always gamma.
    """
    z = z if isinstance(z, ad.Tensor) else ad.constant(_as_matrix(z))
    if not np.all(np.isfinite(z.data)):
        raise ValueError("non-finite feature input")
    if z.shape[0] != p.batch_size:
        raise ad.ShapeError(
            f"feature batch {z.shape[0]} != parameter batch {p.batch_size}")
    block = ad.concat([p.gamma, p.nu, p.alpha, p.beta])
    if aug_weight != 1.0:
        block = block * float(aug_weight)
    return ad.concat([z, block])


def posterior_vector(p: NigOutput) -> ad.Tensor:
    """Rows [nu, alpha, beta]; gamma deliberately excluded."""
    return ad.concat([p.nu, p.alpha, p.beta])
