import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uga import autodiff as ad
from uga import gradcheck as gc
from uga.evidential import NigOutput
from uga.models import (
    MlpSpec,
    ModelBundle,
    SeqEncoderSpec,
    build_bundle,
    load_checkpoint,
    mlp_forward,
    model_forward,
    save_checkpoint,
    seq_forward,
)


def zero_params(bundle):
    for t in bundle.params.values():
        t.data[...] = 0.0
    return bundle


class TestSpecs:
    def test_mlp_spec_validation(self):
        with pytest.raises(ValueError):
            MlpSpec(layer_widths=(3,))
        with pytest.raises(ValueError):
            MlpSpec(layer_widths=(3, 0))
        with pytest.raises(ValueError):
            MlpSpec(layer_widths=(3, 4), dropout_p=1.0)

    def test_seq_spec_defaults(self):
        spec = SeqEncoderSpec()
        assert (spec.num_layers, spec.hidden_dim, spec.input_dim,
                spec.window_len) == (2, 64, 3, 100)

    def test_seq_spec_validation(self):
        with pytest.raises(ValueError):
            SeqEncoderSpec(hidden_dim=0)


class TestParameterCounts:
    def test_mlp_formula(self):
        widths = (3, 5, 4)
        bundle = build_bundle(MlpSpec(layer_widths=widths), seed=1)
        got = sum(t.data.size for n, t in bundle.named_parameters()
                  if n.startswith("mlp."))
        want = sum(a * b + b for a, b in zip(widths, widths[1:]))
        assert got == want == 44

    def test_lstm_formula(self):
        spec = SeqEncoderSpec()
        bundle = build_bundle(spec, seed=1)
        h, d = spec.hidden_dim, spec.input_dim
        per_layer = [4 * (h * (d + h) + h), 4 * (h * (h + h) + h)]
        for layer, want in enumerate(per_layer):
            got = sum(t.data.size for n, t in bundle.named_parameters()
                      if n.startswith(f"lstm.{layer}."))
            assert got == want
        assert per_layer == [17408, 33024]

    def test_head_dims(self):
        spec = MlpSpec(layer_widths=(3, 4))
        assert build_bundle(spec).params["head.W"].shape == (4, 4)


class TestInitialization:
    def test_seeded_reproducibility(self):
        a = build_bundle(MlpSpec(layer_widths=(3, 8, 4)), seed=7)
        b = build_bundle(MlpSpec(layer_widths=(3, 8, 4)), seed=7)
        for (na, ta), (nb, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)
        c = build_bundle(MlpSpec(layer_widths=(3, 8, 4)), seed=8)
        assert not np.array_equal(a.params["mlp.0.W"].data,
                                  c.params["mlp.0.W"].data)

    def test_weight_range(self):
        bundle = build_bundle(MlpSpec(layer_widths=(16, 8)), seed=3)
        w = bundle.params["mlp.0.W"].data
        assert np.all(np.abs(w) <= 1.0 / 4.0)

    def test_forget_gate_bias(self):
        spec = SeqEncoderSpec(hidden_dim=5, input_dim=2, window_len=4)
        bundle = build_bundle(spec, seed=0)
        b = bundle.params["lstm.0.b"].data[0]
        np.testing.assert_array_equal(b[5:10], np.ones(5))
        np.testing.assert_array_equal(b[:5], np.zeros(5))
        np.testing.assert_array_equal(b[10:], np.zeros(10))


class TestMlpForward:
    def test_zero_weights_constant_map(self):
        bundle = zero_params(build_bundle(MlpSpec(layer_widths=(3, 4)), seed=0))
        z = mlp_forward(np.random.default_rng(0).normal(size=(2, 3)), bundle)
        np.testing.assert_array_equal(z.data, np.zeros((2, 4)))

    def test_dropout_disabled_matches(self):
        bundle = build_bundle(MlpSpec(layer_widths=(3, 6, 4), dropout_p=0.0), seed=2)
        x = np.random.default_rng(0).normal(size=(5, 3))
        train = mlp_forward(x, bundle, training=True,
                            rng=np.random.default_rng(1))
        eval_ = mlp_forward(x, bundle, training=False)
        np.testing.assert_array_equal(train.data, eval_.data)

    def test_inverted_dropout_scale(self):
        bundle = build_bundle(MlpSpec(layer_widths=(3, 50), dropout_p=0.5), seed=2)
        x = np.random.default_rng(0).normal(size=(4, 3))
        base = mlp_forward(x, bundle, training=False)
        dropped = mlp_forward(x, bundle, training=True,
                              rng=np.random.default_rng(9))
        ratio = np.where(base.data != 0, dropped.data / base.data, 0.0)
        kept = ratio[dropped.data != 0]
        np.testing.assert_allclose(kept, 2.0, rtol=1e-12)
        assert np.any(dropped.data == 0)

    def test_dropout_needs_rng(self):
        bundle = build_bundle(MlpSpec(layer_widths=(3, 4), dropout_p=0.1), seed=2)
        with pytest.raises(ValueError):
            mlp_forward(np.zeros((1, 3)), bundle, training=True)

    def test_input_dim_check(self):
        bundle = build_bundle(MlpSpec(layer_widths=(3, 4)), seed=2)
        with pytest.raises(ad.ShapeError):
            mlp_forward(np.zeros((2, 5)), bundle)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        bundle = build_bundle(MlpSpec(layer_widths=(3, 8, 4), dropout_p=0.0), seed=4)
        x = rng.normal(size=(6, 3))

        def build(_):
            return ad.sum(ad.tanh(mlp_forward(x, bundle)))

        assert gc.compare(build, bundle.parameters()) < 1e-5


class TestSeqForward:
    def miniature(self, **kw):
        spec = SeqEncoderSpec(num_layers=2, hidden_dim=3, input_dim=2,
                              window_len=8, **kw)
        return spec, build_bundle(spec, seed=5)

    def test_zero_weights_zero_output(self):
        spec, bundle = self.miniature()
        zero_params(bundle)
        z = seq_forward(np.random.default_rng(0).normal(size=(2, 8, 2)), bundle)
        np.testing.assert_array_equal(z.data, np.zeros((2, 3)))

    def test_constant_window_time_reversal_invariant(self):
        spec, bundle = self.miniature()
        w = np.tile(np.array([0.3, -0.7]), (1, 8, 1))
        z_fwd = seq_forward(w, bundle)
        z_rev = seq_forward(w[:, ::-1].copy(), bundle)
        np.testing.assert_array_equal(z_fwd.data, z_rev.data)

    def test_varying_window_reversal_differs(self):
        spec, bundle = self.miniature()
        rng = np.random.default_rng(3)
        w = rng.normal(size=(1, 8, 2))
        assert not np.allclose(seq_forward(w, bundle).data,
                               seq_forward(w[:, ::-1].copy(), bundle).data)

    def test_window_shape_check(self):
        spec, bundle = self.miniature()
        with pytest.raises(ad.ShapeError):
            seq_forward(np.zeros((2, 7, 2)), bundle)
        with pytest.raises(ad.ShapeError):
            seq_forward(np.zeros((2, 8, 3)), bundle)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        spec = SeqEncoderSpec(num_layers=2, hidden_dim=3, input_dim=2,
                              window_len=10)
        bundle = build_bundle(spec, seed=6)
        w = rng.normal(size=(2, 10, 2))

        def build(_):
            return ad.sum(seq_forward(w, bundle))

        assert gc.compare(build, bundle.parameters()) < 1e-4


class TestModelForward:
    def test_constant_head_on_zero_weights(self):
        bundle = zero_params(build_bundle(MlpSpec(layer_widths=(2, 3)), seed=0))
        bundle.params["head.b"].data[...] = np.array([[0.5, 0.1, -0.2, 0.3]])
        rng = np.random.default_rng(1)
        _z, p = model_forward(rng.normal(size=(4, 2)), bundle)
        assert np.allclose(p.gamma.data, 0.5)
        assert p.nu.data.std() == 0.0

    def test_output_invariants_random(self):
        rng = np.random.default_rng(17)
        bundle = build_bundle(MlpSpec(layer_widths=(3, 6, 4)), seed=9)
        _z, p = model_forward(rng.normal(size=(32, 3)), bundle)
        # NigOutput checks nu > 0, alpha > 1, beta > 0 when it is built.
        assert isinstance(p, NigOutput)

    def test_batch_order_preserved(self):
        rng = np.random.default_rng(19)
        bundle = build_bundle(MlpSpec(layer_widths=(3, 5, 4)), seed=10)
        xs = rng.normal(size=(6, 3))
        _z, p_batch = model_forward(xs, bundle)
        singles = [model_forward(xs[i:i + 1], bundle)[1].gamma.item()
                   for i in range(6)]
        np.testing.assert_allclose(p_batch.gamma.data.ravel(), singles, rtol=1e-12)


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        bundle = build_bundle(MlpSpec(layer_widths=(3, 6, 4)), seed=21)
        path = tmp_path / "model.ckpt"
        save_checkpoint(bundle, path)
        loaded = load_checkpoint(path)
        assert loaded.spec == bundle.spec
        for (na, ta), (nb, tb) in zip(bundle.named_parameters(),
                                      loaded.named_parameters()):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)

    def test_failed_replace_leaves_no_temp_file(self, tmp_path):
        bundle = build_bundle(MlpSpec(layer_widths=(3, 6, 4)), seed=21)
        path = tmp_path / "checkpoint.bin"
        path.mkdir()
        with pytest.raises(IsADirectoryError):
            save_checkpoint(bundle, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.bin"]

    def test_round_trip_seq(self, tmp_path):
        spec = SeqEncoderSpec(num_layers=2, hidden_dim=4, input_dim=3,
                              window_len=6)
        bundle = build_bundle(spec, seed=22)
        path = tmp_path / "seq.ckpt"
        save_checkpoint(bundle, path)
        loaded = load_checkpoint(path)
        assert loaded.spec == spec
        out_a = seq_forward(np.ones((1, 6, 3)), bundle)
        out_b = seq_forward(np.ones((1, 6, 3)), loaded)
        np.testing.assert_array_equal(out_a.data, out_b.data)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["spec", "head", "params"])
    def test_header_missing_field_rejected(self, tmp_path, field):
        bundle = build_bundle(MlpSpec(layer_widths=(2, 3)), seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(bundle, path)
        lines = path.read_bytes().split(b"\n")
        path.write_bytes(b"\n".join(l for l in lines
                                     if not l.startswith(field.encode() + b" ")))
        with pytest.raises(ValueError, match=repr(field)):
            load_checkpoint(path)

    def test_point_head_rejected(self, tmp_path):
        bundle = build_bundle(MlpSpec(layer_widths=(2, 3)), seed=0)
        path = tmp_path / "point.ckpt"
        save_checkpoint(bundle, path)
        data = path.read_bytes()
        assert b"\nhead evidential\n" in data
        path.write_bytes(data.replace(b"\nhead evidential\n", b"\nhead point\n"))
        with pytest.raises(ValueError, match="head 'point'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        bundle = build_bundle(MlpSpec(layer_widths=(2, 3)), seed=0)
        bundle.params["head.W"].data[1, 2] = bad
        path = tmp_path / "nan.ckpt"
        save_checkpoint(bundle, path)
        with pytest.raises(ValueError, match="non-finite value in parameter head.W"):
            load_checkpoint(path)

    def test_truncated_blob_rejected(self, tmp_path):
        bundle = build_bundle(MlpSpec(layer_widths=(2, 3)), seed=0)
        path = tmp_path / "trunc.ckpt"
        save_checkpoint(bundle, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError):
            load_checkpoint(path)


_JSON_VALUES = [0, 1, 8, -3, 2.5, float("nan"), 1e300, True, None, "8",
                "tanh", "relu", [], [8], [1, 2], [1.5, 2], ["1", 2], {},
                {"a": 1}]


@st.composite
def _corrupted_header(draw, valid: bytes) -> bytes:
    """Mutate the header of a valid checkpoint: either its spec JSON
    (drop, add or retype a field) or its raw bytes (truncate, overwrite,
    insert, delete)."""
    end = valid.index(b"END\n") + 4
    header, blob = bytearray(valid[:end]), valid[end:]
    if draw(st.booleans()):
        lines = bytes(header).split(b"\n")
        i = next(k for k, l in enumerate(lines) if l.startswith(b"spec "))
        spec = json.loads(lines[i][5:])
        key = draw(st.sampled_from(sorted(spec) + ["extra"]))
        if draw(st.booleans()) and key in spec:
            del spec[key]
        else:
            spec[key] = draw(st.sampled_from(_JSON_VALUES))
        lines[i] = b"spec " + json.dumps(spec).encode()
        return b"\n".join(lines) + blob
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(header)))
        edit = draw(st.sampled_from(["truncate", "overwrite", "insert", "delete"]))
        if edit == "truncate":
            del header[pos:]
        elif edit == "overwrite" and pos < len(header):
            header[pos] = draw(st.integers(0, 255))
        elif edit == "insert":
            header[pos:pos] = draw(st.binary(min_size=1, max_size=6))
        else:
            del header[pos:pos + draw(st.integers(1, 6))]
    return bytes(header) + blob


class TestCheckpointFuzz:
    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        bundles = [
            build_bundle(MlpSpec(layer_widths=(2, 3, 2)), seed=5),
            build_bundle(SeqEncoderSpec(num_layers=2, hidden_dim=2, input_dim=1,
                                        window_len=3), seed=6),
        ]
        blobs = []
        for k, bundle in enumerate(bundles):
            path = tmp_path_factory.mktemp("fuzz") / f"valid{k}.ckpt"
            save_checkpoint(bundle, path)
            blobs.append(path.read_bytes())
        return blobs

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_corrupt_header_loads_or_raises_value_error(self, valid, tmp_path,
                                                        data):
        raw = data.draw(_corrupted_header(data.draw(st.sampled_from(valid))))
        path = tmp_path / "fuzzed.ckpt"
        path.write_bytes(raw)
        try:
            bundle = load_checkpoint(path)
        except ValueError:
            return
        # whatever loads is a consistent bundle: it saves and reloads as is
        save_checkpoint(bundle, path)
        again = load_checkpoint(path)
        assert again.spec == bundle.spec
        for (na, ta), (nb, tb) in zip(bundle.named_parameters(),
                                      again.named_parameters()):
            assert na == nb and ta.data.tobytes() == tb.data.tobytes()

    @pytest.mark.parametrize("spec_json, match", [
        ('{"dropout_p": 0.1}', "exactly the fields"),
        ('{"dropout_p": 0.1, "layer_widths": 8}', "layer_widths"),
        ('{"dropout_p": 0.1, "layer_widths": [2, "3"]}', "layer_widths"),
        # the spec of an MLP checkpoint from before tanh became fixed
        ('{"activation": "tanh", "dropout_p": 0.1, "layer_widths": [2, 3]}',
         "exactly the fields"),
        # an old-format spec names its stray field in the error
        ('{"activation": ["tanh"], "dropout_p": 0.1, "layer_widths": [2, 3]}',
         "activation"),
        ('[2, 3]', "exactly the fields"),
    ])
    def test_malformed_spec_raises_value_error(self, tmp_path, spec_json, match):
        bundle = build_bundle(MlpSpec(layer_widths=(2, 3)), seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(bundle, path)
        lines = path.read_bytes().split(b"\n")
        i = next(k for k, l in enumerate(lines) if l.startswith(b"spec "))
        lines[i] = b"spec " + spec_json.encode()
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path)

    def test_parameter_lines_must_match_spec(self, tmp_path):
        bundle = build_bundle(MlpSpec(layer_widths=(2, 3)), seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(bundle, path)
        path.write_bytes(path.read_bytes().replace(b"mlp.0.W 2,3",
                                                   b"mlp.0.W 3,2"))
        with pytest.raises(ValueError, match="do not match the spec"):
            load_checkpoint(path)


# Reference for the fused `ad.lstm` op: the per-step composition of
# elementwise tape ops the op replaces.  The op's forward matches it bit for
# bit; its BPTT gradients match it to rounding.
def _affine_ref(x, W, b):
    return ad.matmul(x, W) + ad.matmul(ad.ones(x.shape[0], 1), b)


def _lstm_layer_ref(steps, Wx, Wh, b, hidden):
    batch = steps[0].shape[0]
    h = ad.constant(np.zeros((batch, hidden)))
    c = ad.constant(np.zeros((batch, hidden)))
    out = []
    for x_t in steps:
        pre = _affine_ref(x_t, Wx, b) + ad.matmul(h, Wh)
        i_g = ad.sigmoid(ad.slice_last(pre, 0, hidden))
        f_g = ad.sigmoid(ad.slice_last(pre, hidden, 2 * hidden))
        g_g = ad.tanh(ad.slice_last(pre, 2 * hidden, 3 * hidden))
        o_g = ad.sigmoid(ad.slice_last(pre, 3 * hidden, 4 * hidden))
        c = f_g * c + i_g * g_g
        h = o_g * ad.tanh(c)
        out.append(h)
    return out


def _seq_forward_ref(w, bundle):
    spec = bundle.spec
    steps = [ad.constant(w[:, t, :]) for t in range(spec.window_len)]
    for layer in range(spec.num_layers):
        steps = _lstm_layer_ref(steps, bundle.params[f"lstm.{layer}.Wx"],
                                bundle.params[f"lstm.{layer}.Wh"],
                                bundle.params[f"lstm.{layer}.b"], spec.hidden_dim)
    return steps[-1]


class TestFusedLstm:
    @pytest.mark.parametrize("num_layers", [1, 2])
    @pytest.mark.parametrize("batch", [1, 2, 7, 32, 64])
    def test_bit_identical_to_per_step_tape(self, num_layers, batch):
        """Forward bytes equal the per-step tape's; gradients agree within
        1e-12 of each gradient's largest entry."""
        spec = SeqEncoderSpec(num_layers=num_layers, hidden_dim=16, input_dim=3,
                              window_len=100)
        bundle = build_bundle(spec, seed=3)
        rng = np.random.default_rng(batch + num_layers)
        w = rng.normal(size=(batch, 100, 3))
        head = rng.normal(size=(16, 1))
        results = []
        for forward in (seq_forward, _seq_forward_ref):
            bundle.zero_grad()
            z = forward(w, bundle)
            ad.backward(ad.sum(ad.tanh(ad.matmul(z, ad.constant(head)))))
            results.append((z.data.copy(),
                            [t.grad.copy() for t in bundle.parameters()
                             if t.grad is not None]))
        (z_op, g_op), (z_ref, g_ref) = results
        assert z_op.tobytes() == z_ref.tobytes()
        with ad.no_grad():   # the unrecorded path projects step by step
            assert seq_forward(w, bundle).data.tobytes() == z_ref.tobytes()
        assert len(g_op) == len(g_ref) == 3 * num_layers
        for a, b in zip(g_op, g_ref):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_no_grad_output_has_no_backward_rule(self):
        spec = SeqEncoderSpec(num_layers=2, hidden_dim=4, input_dim=3,
                              window_len=6)
        bundle = build_bundle(spec, seed=0)
        w = np.random.default_rng(0).normal(size=(5, 6, 3))
        with ad.no_grad():
            z = seq_forward(w, bundle)
        assert not z.requires_grad
        assert z._backward is None and z._parents == ()
        np.testing.assert_array_equal(z.data, seq_forward(w, bundle).data)

    def test_no_grad_allocates_no_projection_for_all_steps(self):
        """Unrecorded, the op's peak allocation stays well below one
        (T, B, 4h) array: evaluation memory does not scale with it."""
        batch, steps, h = 64, 100, 16
        bundle = build_bundle(SeqEncoderSpec(num_layers=1, hidden_dim=h,
                                             input_dim=3, window_len=steps), seed=0)
        w = np.random.default_rng(0).normal(size=(batch, steps, 3))
        tracemalloc.start()
        try:
            with ad.no_grad():
                seq_forward(w, bundle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < steps * batch * 4 * h * 8 / 2

    def test_recorded_call_and_backward_hold_no_whole_sequence_copies(self):
        """A recorded call keeps its gate history (one (T, B, 4h) array)
        plus i g, f c, tanh c and h (one more); backward adds the (T, B, 4h)
        gate derivatives and one (T, B, h) factor.  Projecting into the gate
        history and applying (1 - a) in time blocks keeps the peak under 3.6
        such arrays; a separate projection, a concatenation and a whole
        `1 - gates` would add about one more."""
        batch, steps, h = 64, 100, 16
        bundle = build_bundle(SeqEncoderSpec(num_layers=1, hidden_dim=h,
                                             input_dim=3, window_len=steps), seed=0)
        w = np.random.default_rng(0).normal(size=(batch, steps, 3))
        tracemalloc.start()
        try:
            ad.backward(ad.sum(seq_forward(w, bundle)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.6 * steps * batch * 4 * h * 8

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        layers = [tuple(ad.param(rng.normal(size=s) * 0.5)
                        for s in ((2, 12), (3, 12), (1, 12))),
                  tuple(ad.param(rng.normal(size=s) * 0.5)
                        for s in ((3, 12), (3, 12), (1, 12)))]
        x = ad.param(rng.normal(size=(2, 5, 2)))
        leaves = [x] + [p for layer in layers for p in layer]

        def build(_):
            return ad.sum(ad.tanh(ad.lstm(x, layers)))

        assert gc.compare(build, leaves) < 1e-6

    def test_shape_checks(self):
        Wx, Wh, b = np.zeros((3, 8)), np.zeros((2, 8)), np.zeros((1, 8))
        with pytest.raises(ad.ShapeError):
            ad.lstm(np.zeros((4, 3)), [(Wx, Wh, b)])
        with pytest.raises(ad.ShapeError):
            ad.lstm(np.zeros((1, 4, 2)), [(Wx, Wh, b)])
        with pytest.raises(ad.ShapeError):
            ad.lstm(np.zeros((1, 4, 3)), [(Wx, Wh, np.zeros((8,)))])
        with pytest.raises(ad.ShapeError):
            ad.lstm(np.zeros((1, 4, 3)), [])

    @pytest.mark.parametrize("shape", [(4, 0, 3), (0, 4, 3)])
    def test_empty_window_rejected(self, shape):
        layer = tuple(ad.param(np.zeros(s)) for s in ((3, 8), (2, 8), (1, 8)))
        with pytest.raises(ad.ShapeError, match=re.escape(str(shape))):
            ad.lstm(np.zeros(shape), [layer])
