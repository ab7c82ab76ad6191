"""Joint source/target training with uncertainty-guided alignment.

Every iteration draws one labeled source and one unlabeled target
minibatch (with replacement), runs both through the shared extractor
(the recurrent one in a single pass over the two stacked batches), and
minimizes  supervised + lambda(p) * alignment  where p is training
progress and lambda follows the saturating ramp 2/(1+exp(-10p)) - 1.  The
supervised term is the evidential loss; the alignment term is the MMD
between the two domains' augmented embeddings (uga_feature) or posterior
vectors (uga_posterior).
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers

import numpy as np

from . import autodiff as ad
from .alignment import (
    AlignmentKind,
    augmented_embedding,
    mmd2_biased,
    posterior_vector,
)
from .data import LabeledSet, _refuse_non_finite
from .evidential import NigOutput, evidential_loss
from .models import ModelBundle, build_bundle, model_forward

__all__ = [
    "TrainConfig",
    "HistoryRow",
    "lambda_schedule",
    "AdamOptimizer",
    "assemble_loss",
    "train_uga",
]

HISTORY_COLUMNS = ("iteration", "supervised", "alignment", "lambda")


@dataclasses.dataclass
class TrainConfig:
    """Full run recipe; serializes to/from a flat JSON object.

    Training uses Adam with the single learning rate lr.  clip_norm bounds
    the global gradient norm; null in JSON disables clipping.  With
    alignment on, the MMD bandwidth comes from the MMD's own distances for
    batches of up to 128 per side; a batch_size above 128 runs
    median_bandwidth's standalone screen, which thins the pool of source and
    target rows the bandwidth is taken from.  A batch_size above 128 that is
    not a multiple of 8 makes results depend on the BLAS thread count
    (OpenBLAS rounds one input-gradient product differently per thread count
    at those sizes); smaller batches and multiples of 8 do not.
    """

    alignment: AlignmentKind = AlignmentKind.NONE
    lambda_evi: float = 1.0
    lr: float = 1e-3
    iterations: int = 500
    batch_size: int = 64
    seed: int = 0
    aug_weight: float = 1.0
    clip_norm: float | None = 10.0

    def __post_init__(self):
        self.alignment = AlignmentKind(self.alignment)
        for name in ("iterations", "batch_size", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.iterations < 1 or self.batch_size < 1:
            raise ValueError("iterations and batch_size must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        for name in ("lambda_evi", "lr", "aug_weight", "clip_norm"):
            value = getattr(self, name)
            if name == "clip_norm" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
        # Comparisons with nan are false, so these bounds also reject nan.
        for name in ("lambda_evi", "aug_weight"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and positive, got {self.lr!r}")
        if self.clip_norm is not None and not 0 < self.clip_norm < math.inf:
            raise ValueError(
                f"clip_norm must be finite and positive or null, got {self.clip_norm!r}")

    def to_json(self) -> str:
        d = dataclasses.asdict(self)
        d["alignment"] = self.alignment.value
        return json.dumps(d, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TrainConfig":
        try:
            d = json.loads(text)
        except RecursionError:
            raise ValueError("config JSON nests too deeply") from None
        if not isinstance(d, dict):
            raise ValueError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


@dataclasses.dataclass(frozen=True)
class HistoryRow:
    iteration: int
    supervised: float
    alignment: float
    lam: float


def lambda_schedule(p: float) -> float:
    """Alignment ramp 2/(1+exp(-10p)) - 1; 0 at p=0, saturating toward 1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("training progress p must be in [0, 1]")
    return 2.0 / (1.0 + math.exp(-10.0 * p)) - 1.0


# -- optimizer --------------------------------------------------------------

class AdamOptimizer:
    """Bias-corrected Adam over one list of parameters with one learning
    rate.  A missing gradient counts as zero; every shape is checked before
    any parameter moves."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = float(lr)
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data)
                 for p in self.params]
        for p, g in zip(self.params, grads):
            if p.data.shape != g.shape:
                raise ad.ShapeError(f"param {p.data.shape} vs grad {g.shape}")
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self._m, self._v):
            m[...] = self.beta1 * m + (1.0 - self.beta1) * g
            v[...] = self.beta2 * v + (1.0 - self.beta2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


# -- loss assembly ----------------------------------------------------------

def assemble_loss(src_batch: LabeledSet, tgt_batch: np.ndarray,
                  bundle: ModelBundle, cfg: TrainConfig, p: float,
                  training: bool = False, src_rng=None, tgt_rng=None):
    """Returns (total loss tensor, supervised value, alignment value).

    tgt_batch holds target inputs only.  The supervised term sees source
    labels only; the alignment term pairs the two domains per cfg.alignment
    and is scaled by lambda_schedule(p).  The MLP extractor runs once per
    domain, each with its own dropout stream.  The recurrent extractor has
    no dropout, so with alignment on it runs once over the source rows
    followed by the target rows, and its outputs are split back per domain.
    """
    if len(src_batch) == 0:
        raise ValueError("empty source batch")
    aligned = cfg.alignment is not AlignmentKind.NONE
    if aligned and len(tgt_batch) == 0:
        raise ValueError("empty target batch")

    stacked = aligned and bundle.extractor_kind == "seq"
    if stacked:
        n = len(src_batch)
        z, head = model_forward(np.concatenate([src_batch.inputs, tgt_batch]),
                                bundle)
        (z_s, head_s), (z_t, head_t) = (_rows(z, head, 0, n),
                                        _rows(z, head, n, z.shape[0]))
    else:
        z_s, head_s = model_forward(src_batch.inputs, bundle,
                                    training=training, rng=src_rng)
    sup = evidential_loss(src_batch.labels, head_s, cfg.lambda_evi)

    lam = lambda_schedule(p)
    if not aligned:
        return sup, sup.item(), 0.0

    if not stacked:
        z_t, head_t = model_forward(tgt_batch, bundle,
                                    training=training, rng=tgt_rng)
    if cfg.alignment is AlignmentKind.UGA_FEATURE:
        align = mmd2_biased(augmented_embedding(z_s, head_s, cfg.aug_weight),
                            augmented_embedding(z_t, head_t, cfg.aug_weight))
    else:
        align = mmd2_biased(posterior_vector(head_s), posterior_vector(head_t))
    total = sup + lam * align
    return total, sup.item(), align.item()


def _rows(z: ad.Tensor, head: NigOutput, start: int, stop: int):
    """Rows [start:stop] of the features and of each NIG column."""
    return ad.slice_rows(z, start, stop), NigOutput(
        *(ad.slice_rows(t, start, stop)
          for t in (head.gamma, head.nu, head.alpha, head.beta)))


def _global_grad_norm(tensors) -> float:
    total = 0.0
    for t in tensors:
        if t.grad is not None:
            total += float(np.sum(t.grad * t.grad))
    return math.sqrt(total)


def _free_one_mapped_block() -> None:
    """Free one 1 MiB array, so later arrays below that size come from the heap.

    glibc's malloc maps each block above its mmap threshold (128 KiB at
    process start) with its own mmap and raises the threshold to the size
    of a mapped block when one is freed. A (128, 128) float64 activation
    sits just above the start value, so until a larger array has been freed
    each one costs a map, an unmap and fresh page faults: in a new process,
    400 iterations of the cubic `none` arm (batch 128, hidden 128) took ten
    times the minor faults and about a sixth longer. Other allocators
    ignore this.
    """
    np.empty(1 << 17)


def train_uga(source: LabeledSet, target: np.ndarray, cfg: TrainConfig,
              model_spec) -> tuple[ModelBundle, list[HistoryRow]]:
    """Run the full loop on labeled source data and an array of target
    inputs; returns the trained bundle and per-iteration history
    (supervised loss, alignment loss, lambda).  A nan or an infinity in the
    source, or in the target of an aligned arm, is refused before training
    with the array's name and the first bad row."""
    if len(source) == 0:
        raise ValueError("empty source set")
    target = np.asarray(target, dtype=np.float64)
    needs_target = cfg.alignment is not AlignmentKind.NONE
    if needs_target and len(target) == 0:
        raise ValueError("adaptation run needs a non-empty target set")
    _refuse_non_finite("source inputs", source.inputs)
    _refuse_non_finite("source labels", source.labels)
    if needs_target:
        _refuse_non_finite("target inputs", target)

    _free_one_mapped_block()
    bundle = build_bundle(model_spec, seed=cfg.seed)
    optimizer = AdamOptimizer(bundle.parameters(), cfg.lr)

    # Independent streams so a source-only run and an alignment run with a
    # zero lambda consume identical randomness for the shared draws.
    root = np.random.SeedSequence(cfg.seed)
    ss_sample, ss_src_drop, ss_tgt_drop = root.spawn(3)
    rng_sample = np.random.default_rng(ss_sample)
    rng_src = np.random.default_rng(ss_src_drop)
    rng_tgt = np.random.default_rng(ss_tgt_drop)

    tgt_batch = target   # stays empty without a target: the `none` arm
    history: list[HistoryRow] = []
    for i in range(1, cfg.iterations + 1):
        idx_s = rng_sample.integers(0, len(source), size=cfg.batch_size)
        src_batch = LabeledSet(source.inputs[idx_s], source.labels[idx_s])
        if len(target):
            idx_t = rng_sample.integers(0, len(target), size=cfg.batch_size)
            tgt_batch = target[idx_t]

        p = i / cfg.iterations
        bundle.zero_grad()
        loss, sup_v, align_v = assemble_loss(
            src_batch, tgt_batch, bundle, cfg, p,
            training=True, src_rng=rng_src, tgt_rng=rng_tgt)
        lam = lambda_schedule(p)
        if not (math.isfinite(sup_v) and math.isfinite(align_v)):
            raise RuntimeError(
                f"non-finite loss at iteration {i}: "
                f"supervised={sup_v}, alignment={align_v}, lambda={lam}")
        ad.backward(loss)
        params = bundle.parameters()
        norm = _global_grad_norm(params)
        if not math.isfinite(norm):
            raise RuntimeError(f"non-finite gradient at iteration {i}")
        if cfg.clip_norm is not None and norm > cfg.clip_norm:
            scale = cfg.clip_norm / norm
            for t in params:
                if t.grad is not None:
                    t.grad = t.grad * scale
        optimizer.step()
        history.append(HistoryRow(i, sup_v, align_v, lam))
    return bundle, history
