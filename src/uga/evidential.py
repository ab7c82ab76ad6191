"""Normal-Inverse-Gamma evidential head.

The model predicts four parameters (gamma, nu, alpha, beta) per sample.
gamma is the predicted mean; nu, alpha, beta control how much evidence the
model claims for that prediction.  The negative log-likelihood of the
marginal (Student-t) predictive plus an evidence penalty on wrong
predictions make up the training loss.  Aleatoric and epistemic variances
and Student-t predictive intervals are read off the same four parameters.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import autodiff as ad

__all__ = [
    "NigOutput",
    "nig_from_raw",
    "nll_loss",
    "evidential_loss",
    "uncertainties",
    "predictive_interval",
]


@dataclasses.dataclass(frozen=True)
class NigOutput:
    """A batch of Normal-Inverse-Gamma parameter sets, one row per sample.

    Each field is a (B, 1) tensor.  Construction checks that every value is
    finite and that nu > 0, alpha > 1, beta > 0, so an invalid NigOutput
    cannot exist.
    """

    gamma: ad.Tensor
    nu: ad.Tensor
    alpha: ad.Tensor
    beta: ad.Tensor

    def __post_init__(self):
        for name in ("gamma", "nu", "alpha", "beta"):
            if not np.isfinite(getattr(self, name).data).all():
                raise ValueError(f"non-finite {name} in NigOutput")
        if (self.nu.data <= 0).any():
            raise ValueError("NigOutput requires nu > 0")
        if (self.alpha.data <= 1).any():
            raise ValueError("NigOutput requires alpha > 1")
        if (self.beta.data <= 0).any():
            raise ValueError("NigOutput requires beta > 0")

    @classmethod
    def from_values(cls, gamma, nu, alpha, beta) -> "NigOutput":
        """Wrap plain numbers/arrays as constant tensors (no gradients)."""
        cols = [_as_column_array(v) for v in (gamma, nu, alpha, beta)]
        n = max(c.shape[0] for c in cols)
        cols = [np.broadcast_to(c, (n, 1)).copy() for c in cols]
        return cls(*(ad.constant(c) for c in cols))

    @property
    def batch_size(self) -> int:
        return self.gamma.shape[0]


def _as_column_array(v) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    elif a.ndim != 2 or a.shape[1] != 1:
        raise ad.ShapeError(f"expected scalar, vector, or column, got {a.shape}")
    return a


def _labels(y, batch_size: int) -> np.ndarray:
    a = _as_column_array(y)
    if a.shape[0] == 1 and batch_size > 1:
        a = np.broadcast_to(a, (batch_size, 1)).copy()
    if a.shape[0] != batch_size:
        raise ad.ShapeError(f"{a.shape[0]} labels for batch of {batch_size}")
    if not np.isfinite(a).all():
        raise ValueError("labels must be finite")
    return a


def nig_from_raw(raw: ad.Tensor) -> NigOutput:
    """Map the (B, 4) tensor of raw head outputs to valid NIG parameters.

    gamma = raw[:,0]; nu = softplus(raw[:,1]); alpha = softplus(raw[:,2]) + 1;
    beta = softplus(raw[:,3]), the columns of one `ad.nig` node.  alpha > 1
    holds for any finite raw input; softplus underflows to 0 below -745, so
    a raw nu or beta that low fails NigOutput's check with a ValueError.
    """
    if len(raw.shape) != 2 or raw.shape[1] != 4:
        raise ad.ShapeError(f"raw head output must be (B, 4), got {raw.shape}")
    if not np.isfinite(raw.data).all():
        raise ValueError("non-finite raw head output")
    block = ad.nig(raw)
    return NigOutput(*(ad.slice_last(block, i, i + 1) for i in range(4)))


def nll_loss(y, p: NigOutput) -> ad.Tensor:
    """Per-sample NIG negative log-likelihood, shape (B, 1).

    0.5*log(pi/nu) - alpha*log(2*beta*(1+nu)) + lgamma(alpha)
    - lgamma(alpha+0.5) + (alpha+0.5)*log((y-gamma)^2*nu + 2*beta*(1+nu))
    """
    return ad.nig_nll(_labels(y, p.batch_size), p.gamma, p.nu, p.alpha, p.beta, 0.0)


def evidential_loss(ys, ps: NigOutput, lambda_evi: float = 1.0) -> ad.Tensor:
    """Batch mean of the per-sample NLL plus lambda_evi times the evidence
    penalty |y - gamma| * (2*nu + alpha) (scalar)."""
    # Comparisons with nan are false, so this bound also rejects nan.
    if not 0 <= lambda_evi < math.inf:
        raise ValueError(f"lambda_evi must be finite and >= 0, got {lambda_evi!r}")
    if ps.batch_size < 1:
        raise ValueError("empty batch")
    return ad.mean(ad.nig_nll(_labels(ys, ps.batch_size), ps.gamma, ps.nu,
                              ps.alpha, ps.beta, lambda_evi))


def uncertainties(p: NigOutput) -> tuple[np.ndarray, np.ndarray]:
    """(aleatoric, epistemic) variances as flat arrays of length B.

    aleatoric = beta/(alpha-1) is the expected noise variance; epistemic =
    beta/(nu*(alpha-1)) is the variance of the predicted mean.
    """
    alpha = p.alpha.data.ravel()
    beta = p.beta.data.ravel()
    nu = p.nu.data.ravel()
    aleatoric = beta / (alpha - 1.0)
    epistemic = beta / (nu * (alpha - 1.0))
    return aleatoric, epistemic


def predictive_interval(p: NigOutput, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Central predictive interval at the given two-sided level.

    The NIG posterior predictive is Student-t with 2*alpha degrees of
    freedom, location gamma, and scale sqrt(beta*(1+nu)/(nu*alpha)).
    Returns (lo, hi) arrays of length B. The quantile is
    `scipy.special.stdtrit`, which gives the bits of `scipy.stats.t.ppf`;
    scipy.special is imported here, on the first call with a valid level,
    so importing the package loads no scipy module.
    """
    if not 0.0 <= level < 1.0:
        raise ValueError("level must be in [0, 1)")
    import scipy.special

    gamma = p.gamma.data.ravel()
    nu = p.nu.data.ravel()
    alpha = p.alpha.data.ravel()
    beta = p.beta.data.ravel()
    scale = np.sqrt(beta * (1.0 + nu) / (nu * alpha))
    q = scipy.special.stdtrit(2.0 * alpha, 0.5 * (1.0 + level))
    return gamma - q * scale, gamma + q * scale



# coverage90 needs the Student-t quantile at p = 0.95 only (the upper end of
# the central 90% interval).  For every df > 2 it lies between the normal
# quantile and the 2-df one, 0.9/sqrt(2p(1 - p)).
_Z95 = 1.6448536269514722
_T95_DF2 = 2.9199855803537242
# From this df up, Cornish-Fisher's expansion through 1/df^4 is good to 1e-12.
_CORNISH_FISHER_MIN_DF = 100.0 * (1.0 + _Z95 * _Z95)
_CF_TERMS = 400


def _t95_cornish_fisher(df: np.ndarray) -> np.ndarray:
    """The Student-t quantile at 0.95 for df >= _CORNISH_FISHER_MIN_DF."""
    z, s = _Z95, _Z95 * _Z95
    g = (((((79 * s + 776) * s + 1482) * s - 1920) * s - 945) / (92160 * df)
         + (((3 * s + 19) * s + 17) * s - 15) / 384)
    return z + z * ((s + 1) / 4 + (((5 * s + 16) * s + 3) / 96 + g / df) / df) / df


def _t_tail(t: np.ndarray, df: np.ndarray) -> np.ndarray:
    """P(T > t) for Student-t with df > 2 degrees of freedom and t > 0, as
    0.5 I_x(df/2, 1/2) with x = df/(df + t^2); within about 3e-12 relative
    of scipy's `stdtr` for df below _CORNISH_FISHER_MIN_DF, and nan where the
    fraction does not converge."""
    a = 0.5 * df
    x, y = df / (df + t * t), t * t / (df + t * t)
    lnb = ad._lgamma(a) + math.lgamma(0.5) - ad._lgamma(a + 0.5)   # ln B(a, 1/2)
    bt = np.exp(a * np.log(x) + 0.5 * np.log(y) - lnb)
    swap = x > (a + 1.0) / (a + 2.5)   # I_x(a, b) = 1 - I_{1-x}(b, a)
    cf = _beta_cf(np.where(swap, 0.5, a), np.where(swap, a, 0.5), np.where(swap, y, x))
    return np.where(swap, 0.5 - bt * cf, 0.5 * bt * cf / a)


def _beta_cf(a, b, x) -> np.ndarray:
    """The continued fraction of I_x(a, b) (x^a (1-x)^b / (a B(a, b)) times
    it), by Lentz's method; nan where _CF_TERMS terms do not converge."""
    qab = a + b
    c = np.ones_like(x)
    d = 1.0 / (1.0 - qab * x / (a + 1.0))
    h = d
    for m in range(1, _CF_TERMS + 1):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (qab + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / (1.0 + num * d)
            c = 1.0 + num / c
            h = h * (d * c)
        done = np.abs(d * c - 1.0) < 1e-15
        if done.all():
            break
    return np.where(done, h, np.nan)
