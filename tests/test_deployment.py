import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from qsat import deployment as dep
from qsat import tensor
from qsat.data import make_blobs
from qsat.network import BN_EPS, BatchNorm2d, build_preset
from qsat.quant import PactBackward, PactState, RescaleMode
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
        for name, _, t in model.named_state():
            npt.assert_array_equal(ckpt.tensors[name], t.data)

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
        npt.assert_array_equal(q.layer_table[0].layer.w.data, fp.layer_table[0].layer.w.data)
        # alphas keep their fresh initialization
        assert q.layer_table[0].find(PactState).alpha_value == pytest.approx(8.0)

    @pytest.mark.parametrize("bits", ["fp", 4])
    def test_all_zero_clamped_weight_rejected(self, bits):
        state = {name: t.data.copy() for name, _, t in build_preset(
            "convnet-bn", weight_bits="raw", seed=6).named_state()}
        state["block3.weight"][...] = 0.0
        model = build_preset("convnet-bn", weight_bits=bits, act_bits=4,
                             rescale=RescaleMode.CONSTANT, seed=60)
        with pytest.raises(dep.CheckpointError, match="'block3.weight' is all zero"):
            dep.load_model_state(model, state)

    @pytest.mark.parametrize("name,value", [
        ("block2.pact.alpha", -1.0), ("block2.pact.alpha", 0.0),
        ("block3.bn.running_var", -5.0), ("block3.weight", 0.0), ("fc.weight", 0.0),
    ])
    def test_rejected_state_leaves_the_model_as_it_was(self, name, value):
        # every tensor but the bad one would load; none may be assigned
        source = build_preset("convnet-bn", weight_bits=4, act_bits=4,
                              rescale=RescaleMode.CONSTANT, seed=5)
        state = {n: t.data.copy() for n, _, t in source.named_state()}
        for arr in state.values():
            arr += 0.5
        state[name][...] = value
        model = build_preset("convnet-bn", weight_bits=4, act_bits=4,
                             rescale=RescaleMode.CONSTANT, seed=60)
        before = [(n, t.data.tobytes()) for n, _, t in model.named_state()]
        with pytest.raises(dep.CheckpointError, match=name):
            dep.load_model_state(model, state)
        assert [(n, t.data.tobytes()) for n, _, t in model.named_state()] == before

    def test_all_zero_raw_weight_loads(self):
        # a raw layer uses its weight as it is; nothing divides by its spread
        raw = build_preset("convnet-bn", weight_bits="raw", seed=6)
        state = {name: t.data.copy() for name, _, t in raw.named_state()}
        state["block3.weight"][...] = 0.0
        dep.load_model_state(raw, state)
        assert not np.any(raw.layer_table[2].layer.w.data)


class TestFoldBn:
    def test_transparent_bn_folds_to_plain_clip(self):
        model = trained_quant_model(seed=7, steps=0)
        for record in model.layer_table[:-1]:
            bn = record.find(BatchNorm2d)
            bn.gamma.data = np.ones_like(bn.gamma.data)
            bn.beta.data = np.zeros_like(bn.beta.data)
            bn.running_mean.data[...] = 0.0
            bn.running_var.data[...] = 1.0 - BN_EPS
        folded = dep.fold_bn(model)
        for layer in folded.layers:
            npt.assert_allclose(layer.offset, 0.0, atol=1e-10)
            # float32 running-stat storage leaves ~1e-8 relative noise
            npt.assert_allclose(
                layer.clip, layer.out_alpha / layer.in_scale, rtol=1e-6
            )

    # convnet-nobn-tail's last conv has no BN to fold: its offsets are zero
    # and its rescale factor alone scales the clip
    @pytest.mark.parametrize("preset, bits", [("convnet-bn", 8), ("convnet-nobn-tail", 4)])
    def test_differential_against_unfolded(self, preset, bits):
        model = trained_quant_model(seed=8, bits=bits, act_bits=bits, steps=10, preset=preset)
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
        bn = model.layer_table[2].find(BatchNorm2d)
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
        model.layer_table[1].find(BatchNorm2d).gamma.data[3] = 0.0
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

    def test_nan_pixel_rejected(self):
        folded = dep.fold_bn(trained_quant_model(seed=20, steps=1))
        images = np.zeros((2, 3, 32, 32))
        images[1, 2, 3, 4] = np.nan
        with pytest.raises(ValueError, match="grid range"):
            folded.forward_int(images)

    def test_float_path_ranges_change_no_bit(self, monkeypatch):
        # grid weights times integer activations sum exactly in float64, so
        # neither the ranges nor the kernel BLAS picks for a GEMM of a few
        # rows (block6's last range holds 3 of the 21 images) moves a bit
        folded = dep.fold_bn(trained_quant_model(seed=25, steps=3))
        rng = np.random.default_rng(250)
        images = rng.integers(0, 256, size=(21, 3, 32, 32)).astype(np.float32)
        ranged = folded.forward_float(images, return_margin=True)
        monkeypatch.setattr(tensor, "_LOWERING_CHUNK_BYTES", 2**40)
        whole = folded.forward_float(images, return_margin=True)
        assert all(np.array_equal(a, b) for a, b in zip(ranged, whole))

    def test_in_scale_and_out_alpha_are_not_read(self):
        # both record the fold's scales; the forwards read only the
        # offsets, clips and requant factors made from them
        folded = dep.fold_bn(trained_quant_model(seed=26, steps=2))
        rng = np.random.default_rng(260)
        images = rng.integers(0, 256, size=(9, 3, 32, 32)).astype(np.float32)
        before = (folded.forward_int(images), *folded.forward_float(images, return_margin=True))
        for layer in folded.layers:
            layer.in_scale, layer.out_alpha = 123.0, -7.0
        after = (folded.forward_int(images), *folded.forward_float(images, return_margin=True))
        assert all(np.array_equal(a, b) for a, b in zip(before, after))


class TestFoldedContainer:
    def test_folded_round_trip(self, tmp_path):
        folded = dep.fold_bn(trained_quant_model(seed=21, steps=4))
        path = tmp_path / "f.ckpt"
        dep.save_folded(folded, path, config_hash="q8")
        again = dep.load_folded(path)
        rng = np.random.default_rng(210)
        images = rng.integers(0, 256, size=(8, 3, 32, 32)).astype(np.float32)
        # the fold holds the float32 values its file stores, so both paths,
        # margins included, run bit for bit alike
        fresh, loaded = ((m.forward_int(images), *m.forward_float(images, return_margin=True))
                         for m in (folded, again))
        assert all(np.array_equal(a, b) for a, b in zip(fresh, loaded))
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

    @pytest.mark.parametrize("layer,key,value", [(1, "stride", 0), (1, "pad", -1),
                                                 (5, "pool_k", 0)])
    def test_geometry_out_of_range(self, tmp_path, folded, layer, key, value):
        self.rejected(tmp_path, folded, key,
                      lambda m: m["meta"]["layers"][layer].__setitem__(key, value))

    def test_non_square_kernel(self, tmp_path, folded):
        folded.layers[2].weight_idx = folded.layers[2].weight_idx[..., :2]
        self.rejected(tmp_path, folded, "square")

    def test_last_layer_without_output_channels(self, tmp_path, folded):
        # the chain checks cannot catch it: no layer follows, and an empty
        # fc_weight takes its zero activations
        layer = folded.layers[-1]
        for field in ("weight_idx", "channel_sign", "offset", "clip", "requant"):
            setattr(layer, field, getattr(layer, field)[:0])
        folded.fc_weight = folded.fc_weight[:0]
        self.rejected(tmp_path, folded, "nonempty")

    def test_input_channels_break_the_chain(self, tmp_path, folded):
        folded.layers[2].weight_idx = folded.layers[2].weight_idx[:, 1:]
        self.rejected(tmp_path, folded, "input channels")

    @pytest.mark.parametrize("field,value", [("clip", -1.0), ("requant", np.nan),
                                             ("requant", -0.5), ("offset", np.inf)])
    def test_epilogue_value_out_of_range(self, tmp_path, folded, field, value):
        getattr(folded.layers[1], field)[3] = value
        # the checkpoint reader rejects a non-finite payload value first;
        # requant is stored under the role "scale"
        role = "scale" if field == "requant" else field
        self.rejected(tmp_path, folded, "clip or requant is negative, or a value"
                      if np.isfinite(value) else f"'L1.{role}' holds a non-finite value")

    @pytest.mark.parametrize("key", ["fc_in_scale", "logit_scale"])
    def test_non_finite_classifier_scale(self, tmp_path, folded, key):
        self.rejected(tmp_path, folded, f"{key} is not finite",
                      lambda m: m["meta"].__setitem__(key, float("nan")))

    @pytest.mark.parametrize("key", ["in_scale", "out_alpha"])
    def test_non_finite_layer_scale(self, tmp_path, folded, key):
        self.rejected(tmp_path, folded, "in_scale or out_alpha is not finite",
                      lambda m: m["meta"]["layers"][2].__setitem__(key, float("inf")))

    def test_non_finite_classifier_weight(self, tmp_path, folded):
        folded.fc_weight[1, 0] = np.nan
        self.rejected(tmp_path, folded, "tensor 'fc.weight' holds a non-finite value")

    def test_check_input_walks_the_geometry(self, folded):
        folded.check_input((3, 32, 32))
        # 28 pixels reach 7 before the third pool; 30 reach 15 before the
        # second; one channel is not the three the first kernel takes
        for shape in ((3, 28, 28), (3, 30, 30), (1, 32, 32)):
            with pytest.raises(dep.CheckpointError, match="does not tile"):
                folded.check_input(shape)
        folded.fc_weight = folded.fc_weight[1:]
        with pytest.raises(dep.CheckpointError, match="fc_weight"):
            folded.check_input((3, 32, 32))


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


def float32_image_bytes(folded, side):
    """Bytes of one image's float32 patch rows, layer by layer."""
    sizes = []
    for layer in folded.layers:
        _, ci, k, _ = layer.weight_idx.shape
        out = (side + 2 * layer.pad - k) // layer.stride + 1
        sizes.append(out * out * ci * k * k * 4)
        side = out // layer.pool_k
    return sizes


class TestExactIntegerGemm:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), in_levels=st.integers(1, 2**16),
           specs=st.lists(LAYER_SPEC, min_size=1, max_size=2), size=st.integers(1, 3),
           batch=st.integers(1, 9), per_range=st.integers(1, 3))
    @example(seed=1, in_levels=2**16, specs=[WIDE], size=3, batch=7,
             per_range=3)  # bound past 2^24: float64
    @example(seed=2, in_levels=255, specs=[dict(WIDE, out_levels=255)] * 2, size=2, batch=5,
             per_range=2)  # float32
    # pooled sums up to 2^25 feed the second layer, so they are float64
    @example(seed=10, in_levels=255, specs=[dict(WIDE, pool=2, out_levels=2**23), WIDE], size=2,
             batch=8, per_range=3)
    # three input channels at stride 2, pad 1: each kernel-row window skips
    # the columns between its output positions, and the pad border enters
    @example(seed=3, in_levels=255, specs=[dict(WIDE, stride=2)] * 2, size=2, batch=6,
             per_range=2)
    def test_forward_int_equals_int64_oracle(self, seed, in_levels, specs, size, batch,
                                             per_range):
        rng = np.random.default_rng(seed)
        built = random_folded(rng, in_levels, specs, size)
        assume(built is not None)
        folded, side = built
        ci = folded.layers[0].weight_idx.shape[1]
        images = rng.integers(0, in_levels + 1, size=(batch, ci, side, side)).astype(float)
        want = int64_forward(folded, images)
        # ranges of 1 to per_range images: exactly per_range in the layer with
        # the fewest bytes per image, when it runs in float32
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor, "_LOWERING_CHUNK_BYTES",
                       per_range * min(float32_image_bytes(folded, side)))
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

    def test_offset_past_float32_stays_exact(self):
        # B = 2^24 - 1 alone fits float32, but the offset takes the
        # accumulator to 2^24 + 1, which float32 would round to 2^24
        ones = np.ones(1)
        layer = dep.FoldedLayer(
            name="shifted", weight_idx=np.ones((1, 1, 1, 1)), channel_sign=ones,
            weight_levels=1, stride=1, pad=0, in_scale=1.0, in_levels=2**24 - 1,
            offset=2 * ones, clip=ones * 2**25, requant=ones, out_alpha=1.0,
            out_levels=2**25, pool_k=1,
        )
        folded = dep.FoldedModel(layers=[layer], fc_weight=np.ones((1, 1)),
                                 fc_in_scale=1.0, logit_scale=1.0)
        images = np.full((1, 1, 1, 1), 2.0**24 - 1)
        assert folded.forward_int(images)[0, 0] == 2**24 + 1

    def test_clip_ends_and_rounding_ties_at_the_cap(self):
        # a 1x1 kernel of +1 weights, so each channel's accumulator is its
        # channel sign times the pixel; power-of-two requant factors keep
        # every product exact, so (acc + offset) * requant + 0.5 lands on
        # integers, at the cap among them
        layer = dep.FoldedLayer(
            name="edges", weight_idx=np.ones((3, 1, 1, 1)),
            channel_sign=np.array([1.0, -1.0, 1.0]), weight_levels=1, stride=1, pad=0,
            in_scale=1.0, in_levels=64, offset=np.array([-10.0, 40.0, -3.0]),
            clip=np.array([18.0, 20.0, 30.0]), requant=np.array([0.25, 0.125, 0.5]),
            out_alpha=1.0, out_levels=7, pool_k=1,
        )
        pixels = np.arange(65.0)
        shifted = pixels * layer.channel_sign[:, None] + layer.offset[:, None]
        assert np.all((shifted < 0).any(axis=1) & (shifted > layer.clip[:, None]).any(axis=1))
        # channel 0 reaches its cap of 5 from its clip, 18 * 0.25 + 0.5 == 5,
        # channel 1 reaches 3 from its clip (20 * 0.125 + 0.5), channel 2
        # reaches out_levels, 7, before its clip
        assert np.any(shifted[0] * 0.25 + 0.5 == 5) and np.any(shifted[1] * 0.125 + 0.5 == 3)
        folded = dep.FoldedModel(layers=[layer], fc_weight=np.eye(3 * 65), fc_in_scale=1.0,
                                 logit_scale=1.0)
        images = pixels.reshape(1, 1, 5, 13)
        got = folded.forward_int(images)
        assert np.array_equal(got, int64_forward(folded, images).astype(np.float64))
        levels = got.reshape(3, 65)
        assert list(levels.max(axis=1)) == [5, 3, 7] and not levels.min(axis=1).any()

    def test_accumulator_bound_past_float64_rejected(self):
        ones = np.ones(1)
        layer = dep.FoldedLayer(
            name="huge", weight_idx=np.ones((1, 2, 1, 1)), channel_sign=ones,
            weight_levels=1, stride=1, pad=0, in_scale=1.0, in_levels=2**53,
            offset=0 * ones, clip=ones, requant=ones, out_alpha=1.0,
            out_levels=1, pool_k=1,
        )
        # the model's check runs when it is made, so no forward ever sees it
        with pytest.raises(dep.FoldError, match="2\\^53"):
            dep.FoldedModel(layers=[layer], fc_weight=np.ones((1, 1)),
                            fc_in_scale=1.0, logit_scale=1.0)
