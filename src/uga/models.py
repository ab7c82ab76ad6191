"""Feature extractors and the regression head, bundled with their parameters.

Two extractor families: an MLP over vector inputs and a stacked LSTM over
fixed-length windows.  Either feeds a single affine head producing the four
raw evidential outputs.  Bundles carry named parameter tensors and
serialize to a versioned checkpoint file.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os

import numpy as np

from . import autodiff as ad
from .evidential import NigOutput, nig_from_raw

__all__ = [
    "MlpSpec",
    "SeqEncoderSpec",
    "ModelBundle",
    "build_bundle",
    "mlp_forward",
    "seq_forward",
    "model_forward",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_MAGIC = "UGA-CHECKPOINT"
CHECKPOINT_VERSION = 1


@dataclasses.dataclass(frozen=True)
class MlpSpec:
    """Fully connected tanh extractor: input -> hidden... -> feature widths."""

    layer_widths: tuple[int, ...]
    dropout_p: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if len(self.layer_widths) < 2:
            raise ValueError("MlpSpec needs an input and at least one layer width")
        if any(w <= 0 for w in self.layer_widths):
            raise ValueError("layer widths must be positive")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must be in [0, 1)")

    @property
    def feature_dim(self) -> int:
        return self.layer_widths[-1]


@dataclasses.dataclass(frozen=True)
class SeqEncoderSpec:
    """Stacked LSTM over (window_len, input_dim) windows."""

    num_layers: int = 2
    hidden_dim: int = 64
    input_dim: int = 3
    window_len: int = 100

    def __post_init__(self):
        for name in ("num_layers", "hidden_dim", "input_dim", "window_len"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def feature_dim(self) -> int:
        return self.hidden_dim


@dataclasses.dataclass
class ModelBundle:
    """Extractor + evidential head parameters with a fixed naming order;
    the head's 4 raw outputs go through the NIG parameter mapping."""

    spec: MlpSpec | SeqEncoderSpec
    params: dict[str, ad.Tensor]

    @property
    def extractor_kind(self) -> str:
        return "mlp" if isinstance(self.spec, MlpSpec) else "seq"

    def parameters(self) -> list[ad.Tensor]:
        return list(self.params.values())

    def named_parameters(self) -> list[tuple[str, ad.Tensor]]:
        return list(self.params.items())

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None


def _uniform_init(rng, fan_in: int, shape) -> np.ndarray:
    a = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-a, a, size=shape)


def _param_shapes(spec):
    """Yield (name, shape) of every parameter in initialization and
    checkpoint order."""
    if isinstance(spec, MlpSpec):
        widths = spec.layer_widths
        for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
            yield f"mlp.{i}.W", (fan_in, fan_out)
            yield f"mlp.{i}.b", (1, fan_out)
    elif isinstance(spec, SeqEncoderSpec):
        h = spec.hidden_dim
        for layer in range(spec.num_layers):
            in_dim = spec.input_dim if layer == 0 else h
            yield f"lstm.{layer}.Wx", (in_dim, 4 * h)
            yield f"lstm.{layer}.Wh", (h, 4 * h)
            yield f"lstm.{layer}.b", (1, 4 * h)
    else:
        raise TypeError(f"unsupported spec type {type(spec).__name__}")
    yield "head.W", (spec.feature_dim, 4)
    yield "head.b", (1, 4)


def build_bundle(spec, seed: int = 0) -> ModelBundle:
    """Initialize all parameters from the seed; fixed draw order.

    Weights are uniform(-a, a) with a = 1/sqrt(fan_in); biases are zero
    except the LSTM forget gate, which starts at 1.0.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, ad.Tensor] = {}
    for name, shape in _param_shapes(spec):
        if name.endswith(".b"):
            value = np.zeros(shape)
            if name.startswith("lstm."):
                h = shape[1] // 4
                value[0, h:2 * h] = 1.0  # forget gate
        else:
            value = _uniform_init(rng, shape[0], shape)
        params[name] = ad.param(value)
    return ModelBundle(spec=spec, params=params)


def _as_batch(x, dim: int) -> ad.Tensor:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != dim:
        raise ad.ShapeError(f"expected (B, {dim}) input, got {a.shape}")
    return ad.constant(a)


def _affine(x: ad.Tensor, W: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    return ad.add_row(ad.matmul(x, W), b)


def mlp_forward(x, bundle: ModelBundle, training: bool = False, rng=None) -> ad.Tensor:
    """Affine + tanh per layer; inverted dropout after each layer when
    training."""
    spec = bundle.spec
    if not isinstance(spec, MlpSpec):
        raise TypeError("mlp_forward needs an MlpSpec bundle")
    h = _as_batch(x, spec.layer_widths[0])
    use_dropout = training and spec.dropout_p > 0.0
    if use_dropout and rng is None:
        raise ValueError("training with dropout needs an rng")
    for i in range(len(spec.layer_widths) - 1):
        h = ad.tanh(_affine(h, bundle.params[f"mlp.{i}.W"], bundle.params[f"mlp.{i}.b"]))
        if use_dropout:
            keep = (rng.random(h.shape) >= spec.dropout_p) / (1.0 - spec.dropout_p)
            h = h * ad.constant(keep)
    return h


def seq_forward(window, bundle: ModelBundle) -> ad.Tensor:
    """Run the stacked LSTM; returns the top layer's final hidden state."""
    spec = bundle.spec
    if not isinstance(spec, SeqEncoderSpec):
        raise TypeError("seq_forward needs a SeqEncoderSpec bundle")
    w = np.asarray(window, dtype=np.float64)
    if w.ndim != 3 or w.shape[1] != spec.window_len or w.shape[2] != spec.input_dim:
        raise ad.ShapeError(
            f"expected (B, {spec.window_len}, {spec.input_dim}) window, got {w.shape}")
    return ad.lstm(w, [tuple(bundle.params[f"lstm.{layer}.{name}"]
                             for name in ("Wx", "Wh", "b"))
                       for layer in range(spec.num_layers)])


def model_forward(x, bundle: ModelBundle, training: bool = False,
                  rng=None) -> tuple[ad.Tensor, NigOutput]:
    """(features z, NIG head output)."""
    if bundle.extractor_kind == "mlp":
        z = mlp_forward(x, bundle, training=training, rng=rng)
    else:
        z = seq_forward(x, bundle)
    raw = _affine(z, bundle.params["head.W"], bundle.params["head.b"])
    return z, nig_from_raw(raw)


# -- checkpoint I/O ---------------------------------------------------------

def _spec_to_dict(spec) -> dict:
    d = dataclasses.asdict(spec)
    if isinstance(spec, MlpSpec):
        d["layer_widths"] = list(d["layer_widths"])
    return d


def _spec_field_ok(name: str, value) -> bool:
    def is_int(v):
        return isinstance(v, int) and not isinstance(v, bool)
    if name == "layer_widths":
        return isinstance(value, list) and all(is_int(w) for w in value)
    if name == "dropout_p":
        return is_int(value) or isinstance(value, float)
    return is_int(value)  # the SeqEncoderSpec sizes


def _spec_from_dict(kind: str, d) -> MlpSpec | SeqEncoderSpec:
    """Rebuild a spec from checkpoint JSON; a missing, extra or mistyped
    field raises ValueError."""
    cls = {"mlp": MlpSpec, "seq": SeqEncoderSpec}.get(kind)
    if cls is None:
        raise ValueError(f"unknown extractor kind {kind!r}")
    names = {f.name for f in dataclasses.fields(cls)}
    if not isinstance(d, dict):
        raise ValueError(f"{kind} spec needs exactly the fields {sorted(names)}")
    if set(d) != names:
        raise ValueError(f"{kind} spec needs exactly the fields {sorted(names)}, "
                         f"not {sorted(d)}")
    for name, value in d.items():
        if not _spec_field_ok(name, value):
            raise ValueError(f"{kind} spec field {name!r} has bad value {value!r}")
    return cls(**d)


def save_checkpoint(bundle: ModelBundle, path) -> None:
    """Plain-text header + parameter values as little-endian float64."""
    lines = [
        f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}",
        f"extractor {bundle.extractor_kind}",
        "head evidential",
        "spec " + json.dumps(_spec_to_dict(bundle.spec), sort_keys=True),
        f"params {len(bundle.params)}",
    ]
    for name, t in bundle.named_parameters():
        shape = ",".join(str(s) for s in t.shape)
        lines.append(f"{name} {shape}")
    lines.append("END")
    header = ("\n".join(lines) + "\n").encode("utf-8")
    blob = b"".join(np.ascontiguousarray(t.data, dtype="<f8").tobytes()
                    for t in bundle.parameters())
    tmp = f"{path}.tmp"
    f = open(tmp, "wb")
    try:
        with f:
            f.write(header)
            f.write(blob)
        os.replace(tmp, path)
    except OSError:
        # A failed write or rename leaves no temp file behind.
        os.remove(tmp)
        raise


def load_checkpoint(path) -> ModelBundle:
    """Read a save_checkpoint file; malformed content raises ValueError."""
    with open(path, "rb") as f:
        raw = f.read()
    end = raw.find(b"END\n")
    if end < 0:
        raise ValueError("corrupt checkpoint: missing END marker")
    header = raw[:end].decode("utf-8").splitlines()
    blob = raw[end + 4:]
    if not header or header[0] != f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}":
        raise ValueError(f"unsupported checkpoint header {header[:1]!r}")
    fields = dict(line.split(" ", 1) for line in header[1:5] if " " in line)
    for key in ("extractor", "head", "spec", "params"):
        if key not in fields:
            raise ValueError(f"corrupt checkpoint: header has no {key!r} line")
    if fields["head"] != "evidential":
        raise ValueError(f"unsupported head {fields['head']!r}")
    try:
        spec = _spec_from_dict(fields["extractor"], json.loads(fields["spec"]))
    except RecursionError:
        raise ValueError("corrupt checkpoint: spec JSON nests too deeply") from None
    listed = header[5:]
    if fields["params"] != str(len(listed)):
        raise ValueError(f"corrupt checkpoint: params {fields['params']!r} "
                         f"but {len(listed)} parameter lines")
    # At most one more than listed, so a corrupt spec cannot make this long.
    layout = list(itertools.islice(_param_shapes(spec),
                                   len(listed) + 1))
    expected = [f"{name} {','.join(map(str, shape))}" for name, shape in layout]
    if listed != expected:
        raise ValueError("corrupt checkpoint: parameter lines do not match the spec")
    if 8 * sum(math.prod(shape) for _name, shape in layout) != len(blob):
        raise ValueError("corrupt checkpoint: trailing or missing data")
    params: dict[str, ad.Tensor] = {}
    offset = 0
    for name, shape in layout:
        n = math.prod(shape)
        vals = np.frombuffer(blob, dtype="<f8", count=n, offset=offset)
        offset += n * 8
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"non-finite value in parameter {name}")
        params[name] = ad.param(vals.reshape(shape).astype(np.float64))
    return ModelBundle(spec=spec, params=params)
