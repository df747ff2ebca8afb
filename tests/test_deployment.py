import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from qsat import deployment as dep
from qsat.data import make_blobs
from qsat.network import build_preset
from qsat.quant import PactBackward, RescaleMode
from qsat.tensor import Tensor, no_grad
from qsat.training import SGD, cross_entropy


def trained_quant_model(seed=5, bits=8, act_bits=8, steps=10, preset="convnet-bn"):
    model = build_preset(preset, weight_bits=bits, act_bits=act_bits,
                         rescale=RescaleMode.CONSTANT, pact_mode=PactBackward.CG,
                         seed=seed)
    rng = np.random.default_rng(seed)
    x = Tensor(rng.integers(0, 256, size=(16, 3, 32, 32)).astype(np.float32))
    labels = rng.integers(0, 10, size=16)
    opt = SGD(model.parameters())
    for _ in range(steps):
        opt.zero_grad()
        loss = cross_entropy(model.forward(x, training=True), labels)
        loss.backward()
        opt.step(0.01)
        for s in model.pact_states():
            s.clamp_alpha()
    return model


class TestCheckpointContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        model = trained_quant_model(seed=1, steps=3)
        path = tmp_path / "m.ckpt"
        dep.save_checkpoint(model, path, config_hash="abc")
        ckpt = dep.load_checkpoint(path)
        assert ckpt.kind == "model"
        assert ckpt.config_hash == "abc"
        for name, _, arr in model.state_arrays():
            npt.assert_array_equal(ckpt.tensors[name], arr)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        model = trained_quant_model(seed=2, steps=3)
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        dep.save_checkpoint(model, first, config_hash="h")
        other = build_preset("convnet-bn", weight_bits=8, act_bits=8,
                             rescale=RescaleMode.CONSTANT, seed=77)
        dep.load_model_checkpoint(first, other)
        dep.save_checkpoint(other, second, config_hash="h")
        assert first.read_bytes() == second.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(dep.CheckpointError, match="magic"):
            dep.load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        model = trained_quant_model(seed=3, steps=1)
        path = tmp_path / "m.ckpt"
        dep.save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(dep.CheckpointError, match="version"):
            dep.load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        model = trained_quant_model(seed=3, steps=1)
        path = tmp_path / "m.ckpt"
        dep.save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(dep.CheckpointError, match="payload"):
            dep.load_checkpoint(path)

    def test_corrupt_byte_changes_values_not_structure(self, tmp_path):
        model = trained_quant_model(seed=4, steps=1)
        path = tmp_path / "m.ckpt"
        dep.save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF  # flip inside the last tensor's payload
        (tmp_path / "c.ckpt").write_bytes(bytes(blob))
        clean = dep.load_checkpoint(path)
        dirty = dep.load_checkpoint(tmp_path / "c.ckpt")
        diffs = [
            name
            for name in clean.tensors
            if not np.array_equal(clean.tensors[name], dirty.tensors[name])
        ]
        assert diffs  # round-trip comparison catches the flip

    @staticmethod
    def with_manifest(tmp_path, edit):
        model = trained_quant_model(seed=3, steps=0)
        path = tmp_path / "m.ckpt"
        dep.save_checkpoint(model, path)
        ckpt = dep.load_checkpoint(path)
        arrays = [ckpt.tensors[t["name"]] for t in ckpt.manifest["tensors"]]
        dep._write_container(path, edit(ckpt.manifest), arrays)
        return path

    def test_list_manifest_rejected(self, tmp_path):
        path = self.with_manifest(tmp_path, lambda m: m["tensors"])
        with pytest.raises(dep.CheckpointError, match="'tensors' list"):
            dep.load_checkpoint(path)

    def test_missing_tensors_key_rejected(self, tmp_path):
        path = self.with_manifest(
            tmp_path, lambda m: {k: v for k, v in m.items() if k != "tensors"})
        with pytest.raises(dep.CheckpointError, match="'tensors' list"):
            dep.load_checkpoint(path)

    @pytest.mark.parametrize("shape", [[16, "3", 3, 3], [16, 3.0, 3, 3], "16x3x3x3", [-16, 3, 3, 3]])
    def test_non_integer_shape_rejected(self, tmp_path, shape):
        def edit(m):
            m["tensors"][0]["shape"] = shape
            return m

        with pytest.raises(dep.CheckpointError, match="shape"):
            dep.load_checkpoint(self.with_manifest(tmp_path, edit))

    def test_duplicate_tensor_names_rejected(self, tmp_path):
        def edit(m):
            m["tensors"][1]["name"] = m["tensors"][0]["name"]
            return m

        with pytest.raises(dep.CheckpointError, match="duplicate"):
            dep.load_checkpoint(self.with_manifest(tmp_path, edit))

    def test_fp_checkpoint_loads_into_quantized_config(self, tmp_path):
        fp = build_preset("convnet-bn", weight_bits="fp",
                          rescale=RescaleMode.CONSTANT, seed=6)
        path = tmp_path / "fp.ckpt"
        dep.save_checkpoint(fp, path, config_hash="fp-hash")
        q = build_preset("convnet-bn", weight_bits=4, act_bits=4,
                         rescale=RescaleMode.CONSTANT, seed=60)
        dep.load_model_checkpoint(path, q, expect_hash="q4-hash")  # warns only
        npt.assert_array_equal(q.blocks[0].conv.w.data, fp.blocks[0].conv.w.data)
        # alphas keep their fresh initialization
        assert q.blocks[0].pact.alpha_value == pytest.approx(8.0)


class TestFoldBn:
    def test_transparent_bn_folds_to_plain_clip(self):
        model = trained_quant_model(seed=7, steps=0)
        for block in model.blocks:
            bn = block.bn
            bn.gamma.data = np.ones_like(bn.gamma.data)
            bn.beta.data = np.zeros_like(bn.beta.data)
            bn.running_mean[...] = 0.0
            bn.running_var[...] = 1.0 - bn.eps
        folded = dep.fold_bn(model)
        for layer in folded.layers:
            npt.assert_allclose(layer.offset, 0.0, atol=1e-10)
            # float32 running-stat storage leaves ~1e-8 relative noise
            npt.assert_allclose(
                layer.clip, layer.out_alpha / layer.in_scale, rtol=1e-6
            )

    def test_differential_against_unfolded(self):
        model = trained_quant_model(seed=8, steps=10)
        folded = dep.fold_bn(model)
        rng = np.random.default_rng(80)
        images = rng.integers(0, 256, size=(100, 3, 32, 32)).astype(np.float32)
        with no_grad():
            ref = model.forward(Tensor(images.astype(np.float64)), training=False).data
        got, margin = folded.forward_float(images, return_margin=True)
        keep = margin > 1e-6
        assert keep.sum() >= 90
        assert np.max(np.abs(got - ref)[keep]) <= 1e-5

    def test_argmax_preserved_without_ties(self):
        model = trained_quant_model(seed=9, steps=10)
        folded = dep.fold_bn(model)
        rng = np.random.default_rng(90)
        images = rng.integers(0, 256, size=(64, 3, 32, 32)).astype(np.float32)
        with no_grad():
            ref = model.forward(Tensor(images.astype(np.float64)), training=False).data
        got, margin = folded.forward_float(images, return_margin=True)
        keep = margin > 1e-6
        npt.assert_array_equal(got[keep].argmax(1), ref[keep].argmax(1))

    def test_negative_gamma_channels_fold_by_sign_flip(self):
        model = trained_quant_model(seed=10, steps=5)
        bn = model.blocks[2].bn
        bn.gamma.data[::2] *= -1.0
        folded = dep.fold_bn(model)
        rng = np.random.default_rng(100)
        images = rng.integers(0, 256, size=(32, 3, 32, 32)).astype(np.float32)
        with no_grad():
            ref = model.forward(Tensor(images.astype(np.float64)), training=False).data
        got, margin = folded.forward_float(images, return_margin=True)
        keep = margin > 1e-6
        assert np.max(np.abs(got - ref)[keep]) <= 1e-5

    def test_zero_gamma_channel_rejected(self):
        model = trained_quant_model(seed=11, steps=0)
        model.blocks[1].bn.gamma.data[3] = 0.0
        with pytest.raises(dep.FoldError, match="channel 3"):
            dep.fold_bn(model)

    def test_preresnet_rejected(self):
        model = build_preset("preresnet-toy", weight_bits=8, act_bits=8,
                             rescale=RescaleMode.CONSTANT, seed=12)
        with pytest.raises(dep.FoldError, match="skip"):
            dep.fold_bn(model)

    def test_fp_weights_rejected(self):
        model = build_preset("convnet-bn", weight_bits="fp", act_bits=8,
                             rescale=RescaleMode.CONSTANT, seed=13)
        with pytest.raises(dep.FoldError, match="unquantized"):
            dep.fold_bn(model)

    def test_missing_activation_quantizer_rejected(self):
        model = build_preset("convnet-bn", weight_bits=8, act_bits="fp",
                             rescale=RescaleMode.CONSTANT, seed=14)
        with pytest.raises(dep.FoldError, match="activation"):
            dep.fold_bn(model)

    def test_double_fold_rejected(self):
        folded = dep.fold_bn(trained_quant_model(seed=15, steps=2))
        with pytest.raises(dep.FoldError, match="already folded"):
            dep.fold_bn(folded)

    def test_last_layer_rescale_dropped_in_integer_path(self):
        model = trained_quant_model(seed=16, steps=5)
        folded = dep.fold_bn(model)
        assert folded.logit_scale != pytest.approx(1.0)
        rng = np.random.default_rng(160)
        images = rng.integers(0, 256, size=(32, 3, 32, 32)).astype(np.float32)
        via_float = folded.forward_float(images)
        via_int = folded.forward_int(images)
        # the positive factor scales logits without moving the argmax
        npt.assert_array_equal(via_float.argmax(1), via_int.argmax(1))
        # the ratio centers on the dropped factor; grid-quantized offsets
        # in the integer path leave percent-level per-logit deviations
        ratio = np.median(via_float / via_int)
        assert ratio == pytest.approx(folded.logit_scale, rel=0.05)


class TestIntegerForward:
    def test_zero_input_propagates_only_offsets(self):
        model = trained_quant_model(seed=17, steps=5)
        folded = dep.fold_bn(model)
        zeros = np.zeros((2, 3, 32, 32), dtype=np.float32)
        via_int = folded.forward_int(zeros)
        via_float = folded.forward_float(zeros) / folded.logit_scale
        npt.assert_allclose(via_int, via_float, atol=2e-2)

    def test_exact_when_requant_scales_are_powers_of_two(self):
        model = trained_quant_model(seed=18, steps=0)
        folded = dep.fold_bn(model)
        # force every folded parameter onto exactly representable values
        for layer in folded.layers:
            co = len(layer.offset)
            layer.offset[...] = np.rint(layer.offset)
            layer.clip[...] = np.rint(np.maximum(layer.clip, 1.0))
            layer.requant[...] = 2.0 ** np.floor(np.log2(layer.requant))
        rng = np.random.default_rng(180)
        images = rng.integers(0, 256, size=(8, 3, 32, 32)).astype(np.float32)
        via_int = folded.forward_int(images).astype(np.float64)
        via_float = folded.forward_float(images) / folded.logit_scale
        npt.assert_allclose(via_int, via_float, rtol=1e-12, atol=1e-9)

    def test_top1_agreement_with_float_path(self):
        model = trained_quant_model(seed=19, steps=10)
        folded = dep.fold_bn(model)
        _, val = make_blobs(n_train=10, n_val=1000, seed=19)
        agree = 0
        for start in range(0, 1000, 250):
            chunk = val.images[start : start + 250]
            ints = folded.forward_int(chunk).argmax(1)
            floats = folded.forward_float(chunk).argmax(1)
            agree += int(np.sum(ints == floats))
        assert agree / 1000 >= 0.99

    def test_out_of_range_input_rejected(self):
        folded = dep.fold_bn(trained_quant_model(seed=20, steps=1))
        with pytest.raises(ValueError, match="grid range"):
            folded.forward_int(np.full((1, 3, 32, 32), 300.0))


class TestFoldedContainer:
    def test_folded_round_trip(self, tmp_path):
        folded = dep.fold_bn(trained_quant_model(seed=21, steps=4))
        path = tmp_path / "f.ckpt"
        dep.save_folded(folded, path, config_hash="q8")
        again = dep.load_folded(path)
        rng = np.random.default_rng(210)
        images = rng.integers(0, 256, size=(8, 3, 32, 32)).astype(np.float32)
        npt.assert_allclose(
            folded.forward_int(images), again.forward_int(images), rtol=1e-6
        )
        roles = {t["role"] for t in dep.load_checkpoint(path).manifest["tensors"]}
        assert roles == {"int_weight", "offset", "clip", "scale", "weight"}

    def test_model_loader_rejects_folded_file(self, tmp_path):
        folded = dep.fold_bn(trained_quant_model(seed=22, steps=1))
        path = tmp_path / "f.ckpt"
        dep.save_folded(folded, path)
        model = build_preset("convnet-bn", weight_bits=8, act_bits=8,
                             rescale=RescaleMode.CONSTANT, seed=22)
        with pytest.raises(dep.CheckpointError, match="model checkpoint"):
            dep.load_model_checkpoint(path, model)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        folded = dep.fold_bn(trained_quant_model(seed=23, steps=2))
        dep.save_folded(folded, tmp_path / "a.ckpt", config_hash="q8")
        dep.save_folded(dep.load_folded(tmp_path / "a.ckpt"), tmp_path / "b.ckpt",
                        config_hash="q8")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


class TestFoldedValidation:
    """load_folded rejects every field the exact integer path relies on."""

    @pytest.fixture
    def folded(self):
        return dep.fold_bn(trained_quant_model(seed=24, steps=0))

    @staticmethod
    def rejected(tmp_path, folded, match, edit_manifest=None):
        path = tmp_path / "f.ckpt"
        dep.save_folded(folded, path)
        if edit_manifest is not None:
            ckpt = dep.load_checkpoint(path)
            edit_manifest(ckpt.manifest)
            arrays = [ckpt.tensors[t["name"]] for t in ckpt.manifest["tensors"]]
            dep._write_container(path, ckpt.manifest, arrays)
        with pytest.raises(dep.CheckpointError, match=match):
            dep.load_folded(path)

    def test_missing_meta(self, tmp_path, folded):
        self.rejected(tmp_path, folded, "'meta'", lambda m: m.pop("meta"))

    def test_missing_layer_key(self, tmp_path, folded):
        self.rejected(tmp_path, folded, "'pool_k'",
                      lambda m: m["meta"]["layers"][1].pop("pool_k"))

    def test_non_integral_weight_index(self, tmp_path, folded):
        folded.layers[2].weight_idx[0, 0, 0, 0] = 2.5
        self.rejected(tmp_path, folded, "int_weight")

    def test_weight_index_outside_grid(self, tmp_path, folded):
        layer = folded.layers[2]
        layer.weight_idx[0, 0, 0, 0] = layer.weight_levels + 1
        self.rejected(tmp_path, folded, "int_weight")

    def test_channel_sign_not_unit(self, tmp_path, folded):
        folded.layers[1].channel_sign[3] = 2.0
        self.rejected(tmp_path, folded, "channel_sign")

    def test_per_channel_length_mismatch(self, tmp_path, folded):
        folded.layers[1].offset = folded.layers[1].offset[:-1]
        self.rejected(tmp_path, folded, "per-channel")

    def test_in_levels_breaks_the_chain(self, tmp_path, folded):
        folded.layers[3].in_levels += 1
        self.rejected(tmp_path, folded, "in_levels")


# -- exact integer GEMMs ---------------------------------------------------------


def int64_conv(x, w, stride, pad):
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    k = w.shape[-1]
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    return np.einsum("nchwij,ocij->nohw", win, w)


def int64_forward(folded, images):
    """forward_int's arithmetic in int64, written out from the stored fields."""
    n = images.astype(np.int64)
    for layer in folded.layers:
        idx = layer.weight_idx.astype(np.int64)
        sign = layer.channel_sign.astype(np.int64).reshape(-1, 1, 1, 1)
        acc = int64_conv(n, (2 * idx - layer.weight_levels) * sign, layer.stride, layer.pad)
        per_channel = lambda a: a.reshape(1, -1, 1, 1)
        offset = np.rint(layer.weight_levels * per_channel(layer.offset)).astype(np.int64)
        clip = np.rint(layer.weight_levels * per_channel(layer.clip)).astype(np.int64)
        r = per_channel(layer.requant) * np.clip(acc + offset, 0, clip)
        n = np.clip(np.floor(r + 0.5), 0, layer.out_levels).astype(np.int64)
        b, c, h, w = n.shape
        p = layer.pool_k
        n = n.reshape(b, c, h // p, p, w // p, p).sum(axis=(3, 5))
    return n.reshape(len(images), -1) @ folded.fc_weight.astype(np.int64)


def random_folded(rng, in_levels, specs, size):
    """Folded chain of ``specs`` ending at ``size`` x ``size``, with random
    integer weights, offsets and clips that make both clip ends bind, and
    integer classifier weights so that the logits are exact integers.

    Returns the model and its input size, or None when a layer would need
    an empty input."""
    sizes = [size]
    for spec in reversed(specs):
        out = sizes[0] * spec["pool"]
        sizes.insert(0, (out - 1) * spec["stride"] + spec["k"] - 2 * spec["pad"])
    if min(sizes) < 1:
        return None
    layers = []
    ci = int(rng.integers(1, 4))
    for i, spec in enumerate(specs):
        co, levels = spec["co"], spec["levels"]
        idx = rng.integers(0, levels + 1, size=(co, ci, spec["k"], spec["k"])).astype(float)
        sign = rng.choice([-1.0, 1.0], size=co)
        scale = np.abs(2 * idx - levels).reshape(co, -1).sum(axis=1) * in_levels / 2 + 1
        clip = np.maximum(np.rint(rng.uniform(0.1, 2.0, co) * scale), 1.0)
        layers.append(dep.FoldedLayer(
            name=f"conv{i}", weight_idx=idx, channel_sign=sign, weight_levels=levels,
            stride=spec["stride"], pad=spec["pad"], in_scale=1.0, in_levels=in_levels,
            offset=rng.uniform(-1.0, 1.0, co) * scale / levels, clip=clip / levels,
            requant=spec["out_levels"] * rng.uniform(0.5, 2.0, co) / clip,
            out_alpha=1.0, out_levels=spec["out_levels"], pool_k=spec["pool"],
        ))
        in_levels = spec["out_levels"] * spec["pool"] ** 2
        ci = co
    width = ci * size * size
    fc = rng.integers(-3, 4, size=(width, 5)).astype(float)
    model = dep.FoldedModel(layers=layers, fc_weight=fc, fc_in_scale=1.0, logit_scale=0.5)
    return model, sizes[0]


LAYER_SPEC = st.fixed_dictionaries({
    "k": st.sampled_from([1, 2, 3]),
    "stride": st.sampled_from([1, 2]),
    "pad": st.sampled_from([0, 1]),
    "pool": st.sampled_from([1, 2]),
    "co": st.integers(1, 4),
    "levels": st.integers(1, 255),
    # up to the accumulator's own range, so that requant factors near 1
    # pass a unit error in any partial sum through to the output
    "out_levels": st.integers(1, 2**24),
})
WIDE = {"k": 3, "stride": 1, "pad": 1, "pool": 1, "co": 3, "levels": 255, "out_levels": 2**24}


class TestExactIntegerGemm:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), in_levels=st.integers(1, 2**16),
           specs=st.lists(LAYER_SPEC, min_size=1, max_size=2), size=st.integers(1, 3))
    @example(seed=1, in_levels=2**16, specs=[WIDE], size=3)  # bound past 2^24: float64
    @example(seed=2, in_levels=255, specs=[dict(WIDE, out_levels=255)] * 2, size=2)  # float32
    def test_forward_int_equals_int64_oracle(self, seed, in_levels, specs, size):
        rng = np.random.default_rng(seed)
        built = random_folded(rng, in_levels, specs, size)
        assume(built is not None)
        folded, side = built
        ci = folded.layers[0].weight_idx.shape[1]
        images = rng.integers(0, in_levels + 1, size=(2, ci, side, side)).astype(float)
        want = int64_forward(folded, images)
        got = folded.forward_int(images)
        assert np.array_equal(got, want.astype(np.float64))

    def test_sums_past_float32_stay_exact(self):
        # B = 3 * 2^23 needs float64; float32 would return 2^24 for 2^24 + 1
        ones = np.ones(1)
        layer = dep.FoldedLayer(
            name="wide", weight_idx=np.ones((1, 3, 1, 1)), channel_sign=ones,
            weight_levels=1, stride=1, pad=0, in_scale=1.0, in_levels=2**23,
            offset=0 * ones, clip=ones * 2**25, requant=ones, out_alpha=1.0,
            out_levels=2**25, pool_k=1,
        )
        folded = dep.FoldedModel(layers=[layer], fc_weight=np.ones((1, 1)),
                                 fc_in_scale=1.0, logit_scale=1.0)
        images = np.array([2**23, 2**23 - 1, 2], dtype=float).reshape(1, 3, 1, 1)
        assert folded.forward_int(images)[0, 0] == 2**24 + 1

    def test_accumulator_bound_past_float64_rejected(self):
        ones = np.ones(1)
        layer = dep.FoldedLayer(
            name="huge", weight_idx=np.ones((1, 2, 1, 1)), channel_sign=ones,
            weight_levels=1, stride=1, pad=0, in_scale=1.0, in_levels=2**53,
            offset=0 * ones, clip=ones, requant=ones, out_alpha=1.0,
            out_levels=1, pool_k=1,
        )
        folded = dep.FoldedModel(layers=[layer], fc_weight=np.ones((1, 1)),
                                 fc_in_scale=1.0, logit_scale=1.0)
        images = np.full((1, 2, 1, 1), 2.0**53 - 2)
        with pytest.raises(dep.FoldError, match="2\\^53"):
            folded.forward_int(images)
