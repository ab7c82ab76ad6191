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

import numpy as np
import scipy.spatial.distance

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


def median_bandwidth(X, Y) -> float:
    """Median of nonzero pairwise squared distances over the pooled samples.

    Self-pairs are excluded; if every pairwise distance is zero the declared
    fallback value 1.0 is returned.  The result has the bits of
    np.median(d2[d2 > 0]), but the median is selected in place in the
    array pdist returns, without the two copies that form would make.
    """
    X, Y = _as_matrix(X), _as_matrix(Y)
    if X.shape[1] != Y.shape[1]:
        raise ad.ShapeError(
            f"sample dimensions differ: {X.shape[1]} vs {Y.shape[1]}")
    pool = np.concatenate([X, Y], axis=0)
    if pool.shape[0] < 2:
        raise ValueError("median_bandwidth needs at least 2 points")
    if not np.all(np.isfinite(pool)):
        raise ValueError("median_bandwidth needs finite samples")
    d2 = scipy.spatial.distance.pdist(pool, metric="sqeuclidean")
    # Every entry is >= 0, so the zeros sort first and the nonzero median
    # sits m // 2 places after them.
    zeros = d2.size - np.count_nonzero(d2)
    m = d2.size - zeros
    if m == 0:
        return 1.0
    k = zeros + m // 2
    d2.partition(k)
    hi = d2[k]
    if m % 2:
        return float(hi)
    # Even count: join the two middles the way np.median's mean does.
    return float((d2[:k].max() + hi) / 2.0)


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
    if bank is None:
        bank = KernelBank.median_scaled(X.data, Y.data)

    # Canonical argument order (shape, then content) makes the float
    # summation sequence identical for (X, Y) and (Y, X).
    kx = (X.shape[0], X.data.tobytes())
    ky = (Y.shape[0], Y.data.tobytes())
    if ky < kx:
        X, Y = Y, X

    return ad.mmd(X, Y, bank.bandwidths)


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
