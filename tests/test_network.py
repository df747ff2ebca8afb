import logging

import numpy as np
import numpy.testing as npt
import pytest

from conftest import finite_difference_check, nchw, nchw_memory, project
from qsat.network import (
    BN_EPS,
    BatchNorm2d,
    Conv2dLayer,
    DenseLayer,
    LayerRecord,
    Pool,
    PRESETS,
    build_preset,
    run_table,
    validate_model,
)
from qsat import tensor as tensor_module
from qsat.quant import PactBackward, PactState, QuantScheme, RescaleMode, pact_quantize
from qsat.tensor import (
    DomainError,
    ShapeError,
    Tensor,
    mean_square_value,
    no_grad,
    relu,
)


def rand(shape, seed, scale=1.0):
    return np.random.default_rng(seed).normal(0.0, scale, size=shape)


class TestBatchNorm:
    def test_standardized_input_passes_through(self):
        bn = BatchNorm2d(3, dtype=np.float64)
        x = rand((64, 5, 5, 3), seed=0)
        x = (x - x.mean(axis=(0, 1, 2), keepdims=True)) / x.std(
            axis=(0, 1, 2), keepdims=True
        )
        out = bn(Tensor(x), training=True)
        npt.assert_allclose(out.data, x, atol=1e-4)

    def test_training_output_statistics(self):
        bn = BatchNorm2d(4, dtype=np.float64)
        out = bn(Tensor(rand((8, 6, 6, 4), seed=1, scale=3.0)), training=True).data
        npt.assert_allclose(out.mean(axis=(0, 1, 2)), 0.0, atol=1e-6)
        npt.assert_allclose(
            np.mean(out * out, axis=(0, 1, 2)), 1.0, atol=1e-4
        )

    def test_batch_of_one_rejected_in_training(self):
        bn = BatchNorm2d(2)
        with pytest.raises(DomainError):
            bn(Tensor(np.zeros((1, 4, 4, 2))), training=True)

    def test_backward_vs_finite_differences(self):
        xv = rand((4, 5, 5, 3), seed=2)
        up = rand((4, 5, 5, 3), seed=6)

        def run(t):
            bn = BatchNorm2d(3, dtype=np.float64)
            bn.gamma.data = np.array([1.5, 0.5, 2.0])
            bn.beta.data = np.array([0.1, -0.2, 0.0])
            return project(bn(t, training=True), up)

        assert finite_difference_check(run, Tensor(xv)) <= 1e-4

    def test_gamma_beta_gradients(self):
        bn = BatchNorm2d(2, dtype=np.float64)
        x = Tensor(rand((4, 3, 3, 2), seed=3), requires_grad=True)
        project(bn(x, training=True)).backward()
        # sum of normalized values is ~0, so dgamma ~ 0 and dbeta = count
        npt.assert_allclose(bn.gamma.grad, 0.0, atol=1e-9)
        npt.assert_allclose(bn.beta.grad, 4 * 9.0)

    def test_running_stats_updated_and_used_in_eval(self):
        bn = BatchNorm2d(1, dtype=np.float64)
        x = rand((16, 4, 4, 1), seed=4, scale=2.0) + 3.0
        for _ in range(200):
            bn(Tensor(x), training=True)
        npt.assert_allclose(bn.running_mean.data, x.mean(), rtol=1e-3)
        with no_grad():
            out = bn(Tensor(x), training=False).data
        expected = (x - x.mean()) / np.sqrt(x.var() + BN_EPS)
        npt.assert_allclose(out, expected, atol=1e-3)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            BatchNorm2d(3)(Tensor(np.zeros((2, 3, 3, 4))), training=True)


def run_record(modules, x, training):
    """The forward of one layer record holding ``modules``."""
    return run_table([LayerRecord(modules)], x, training)


class TestForwardBlock:
    def test_transparent_block_is_relu(self):
        conv = Conv2dLayer("c", 1, 1, 1, scheme=None)
        conv.w.data = np.ones((1, 1, 1, 1), dtype=np.float32)
        bn = BatchNorm2d(1)  # eval mode with fresh running stats: mu=0, var=1
        x = Tensor(rand((2, 4, 4, 1), seed=5).astype(np.float32))
        out = run_record([("c", conv), ("c.bn", bn), ("", relu)], x, training=False)
        npt.assert_allclose(out.data, np.maximum(x.data, 0.0), atol=1e-4)

    def test_avg_pool_preserves_constants(self):
        conv = Conv2dLayer("c", 1, 1, 1, scheme=None)
        conv.w.data = np.ones((1, 1, 1, 1), dtype=np.float32)
        out = run_record([("c", conv), ("", Pool(2))],
                         Tensor(np.full((1, 4, 4, 1), 2.5)), training=False)
        npt.assert_allclose(out.data, np.full((1, 2, 2, 1), 2.5))

    def test_relu_halves_second_moment_after_bn(self):
        # zero-mean unit-variance pre-activation, gamma scales it: the record
        # output mean-square lands near gamma^2 / 2
        gamma = 1.7
        conv = Conv2dLayer("c", 8, 8, 3, pad=1, scheme=None, rng=np.random.default_rng(6))
        bn = BatchNorm2d(8)
        bn.gamma.data = np.full(8, gamma, dtype=np.float32)
        x = Tensor(rand((32, 16, 16, 8), seed=7).astype(np.float32))
        out = run_record([("c", conv), ("c.bn", bn), ("", relu)], x, training=True)
        assert mean_square_value(out) == pytest.approx(gamma**2 / 2, rel=0.15)

    def test_geometry_mismatch(self):
        conv = Conv2dLayer("c", 3, 4, 3)
        with pytest.raises(ShapeError):
            run_record([("c", conv), ("", relu)], Tensor(np.zeros((1, 8, 8, 5))),
                       training=False)


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


def run_and_record(forward, x, params):
    """Forward, the ops it put on the tape, then gradients of a fixed loss."""
    t = Tensor(x, requires_grad=True)
    out = forward(t)
    ops = [node.op for node in tensor_module._tape]
    project(out, rand(out.shape, seed=99).astype(np.float32)).backward()
    return ops, [out.data, t.grad] + [p.grad for p in params]


class TestPactSubsumesRelu:
    """With PACT after it, the ReLU is left out; outputs and gradients
    equal those of ReLU followed by PACT to the bit."""

    @staticmethod
    def pact(mode):
        return PactState.create(4, mode, init=1.5)

    @pytest.mark.parametrize("mode", [PactBackward.CG, PactBackward.LEGACY])
    def test_convnet_bn_block(self, mode):
        def make():
            conv = Conv2dLayer("c", 3, 8, 3, pad=1, scheme=QuantScheme(4),
                               rng=np.random.default_rng(40))
            return LayerRecord([("c", conv), ("c.bn", BatchNorm2d(8)),
                                ("c.pact", self.pact(mode)), ("", Pool(2))])

        def reference(r, t):
            h = r.find(BatchNorm2d)(r.layer(t), True)
            return r.find(Pool)(pact_quantize(relu(h), r.find(PactState)))

        def params(r):
            bn = r.find(BatchNorm2d)
            return [r.layer.w, bn.gamma, bn.beta, r.find(PactState).alpha]

        x = rand((4, 8, 8, 3), seed=41).astype(np.float32)
        r1, r2 = make(), make()
        ops, got = run_and_record(lambda t: run_table([r1], t, True), x, params(r1))
        _, want = run_and_record(lambda t: reference(r2, t), x, params(r2))
        assert "relu" not in ops and "pact_quantize" in ops
        assert all(same_bits(a, b) for a, b in zip(got, want))
        assert same_bits(r1.find(BatchNorm2d).running_var.data,
                         r2.find(BatchNorm2d).running_var.data)

    @pytest.mark.parametrize("mode", [PactBackward.CG, PactBackward.LEGACY])
    def test_preresnet_block(self, mode):
        # res2's two records: a whole pre-activation block with no pool
        def make():
            model = build_preset("preresnet-toy", weight_bits=4, act_bits=4,
                                 rescale=RescaleMode.CONSTANT, pact_mode=mode, seed=42)
            return model.layer_table[3:5]

        def reference(records, t):
            h = t
            for r in records:
                h = r.layer(pact_quantize(relu(r.find(BatchNorm2d)(h, True)),
                                          r.find(PactState)))
            return t + h

        def params(records):
            return [p for r in records for p in (
                r.find(BatchNorm2d).gamma, r.find(BatchNorm2d).beta,
                r.find(PactState).alpha, r.layer.w)]

        x = rand((4, 8, 8, 16), seed=43).astype(np.float32)
        b1, b2 = make(), make()
        ops, got = run_and_record(lambda t: run_table(b1, t, True), x, params(b1))
        _, want = run_and_record(lambda t: reference(b2, t), x, params(b2))
        assert "relu" not in ops and ops.count("pact_quantize") == 2
        assert all(same_bits(a, b) for a, b in zip(got, want))

    def test_relu_kept_without_pact(self):
        model = build_preset("preresnet-toy", weight_bits="raw", seed=44)
        ops, _ = run_and_record(lambda t: run_table(model.layer_table[3:5], t, True),
                                rand((2, 8, 8, 16), seed=45).astype(np.float32), [])
        assert ops.count("relu") == 2


class TestPresets:
    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            build_preset("resnet-152")

    @pytest.mark.parametrize("name", PRESETS)
    @pytest.mark.parametrize("size", [32, 28])
    def test_forward_shapes(self, name, size):
        model = build_preset(name, image_size=size, in_channels=3, classes=10,
                             weight_bits="fp")
        x = Tensor(np.random.default_rng(8).integers(0, 256, (4, 3, size, size))
                   .astype(np.float32))
        assert model.forward(x, training=True).shape == (4, 10)

    def test_convnet_bn_rescales_only_the_final_fc(self):
        model = build_preset("convnet-bn", weight_bits="fp",
                             rescale=RescaleMode.CONSTANT)
        infos = model.linear_infos()
        for info in infos[:-1]:
            assert info.layer.scheme.rescale is RescaleMode.NONE
        assert infos[-1].layer.scheme.rescale is RescaleMode.CONSTANT
        assert validate_model(model) == []

    def test_nobn_tail_gets_rescale_by_default(self):
        model = build_preset("convnet-nobn-tail", weight_bits="fp",
                             rescale=RescaleMode.CONSTANT)
        tail = model.linear_infos()[-2]
        assert not tail.follows_bn
        assert tail.layer.scheme.rescale is RescaleMode.CONSTANT

    def test_preresnet_with_fc_only_rescale_is_flagged(self):
        model = build_preset(
            "preresnet-toy", weight_bits="fp", rescale=RescaleMode.CONSTANT,
            layer_overrides={0: {"rescale": RescaleMode.NONE},
                             2: {"rescale": RescaleMode.NONE},
                             4: {"rescale": RescaleMode.NONE}},
        )
        flags = validate_model(model)
        assert any("no following BN" in f for f in flags)

    def test_clamp_without_rescale_is_flagged_on_nobn_tail(self):
        model = build_preset("convnet-nobn-tail", weight_bits="fp",
                             rescale=RescaleMode.NONE)
        flags = validate_model(model)
        assert any("block6" in f for f in flags)

    def test_first_and_last_layers_keep_eight_bits(self):
        model = build_preset("convnet-bn", weight_bits=2, act_bits=2,
                             rescale=RescaleMode.CONSTANT)
        infos = model.linear_infos()
        assert infos[0].layer.scheme.bits == 8
        assert infos[-1].layer.scheme.bits == 8
        for info in infos[1:-1]:
            assert info.layer.scheme.bits == 2
        assert validate_model(model) == []

    def test_uniform_edge_bits_opt_in(self):
        model = build_preset("convnet-bn", weight_bits=2, act_bits=2,
                             first_last_bits="uniform")
        infos = model.linear_infos()
        assert infos[0].layer.scheme.bits == 2
        assert infos[-1].layer.scheme.bits == 2
        assert any("quantized below" in f for f in validate_model(model))

    def test_build_is_deterministic(self):
        a = build_preset("convnet-bn", seed=3)
        b = build_preset("convnet-bn", seed=3)
        for (n1, _, t1), (n2, _, t2) in zip(a.named_state(), b.named_state()):
            assert n1 == n2
            npt.assert_array_equal(t1.data, t2.data)

    def test_kaiming_style_init_variance(self):
        model = build_preset("convnet-bn", weight_bits="raw", seed=9)
        for info in model.linear_infos():
            w = info.layer.w.data
            npt.assert_allclose(
                mean_square_value(w), 1.0 / info.layer.n_hat,
                rtol=0.35,
            )


class TestResidual:
    def test_zeroed_branch_reproduces_the_skip_exactly(self):
        model = build_preset("preresnet-toy", weight_bits="raw", seed=10)
        block = model.layer_table[3:5]
        for record in block:
            record.layer.w.data = np.zeros_like(record.layer.w.data)
        x = Tensor(rand((2, 8, 8, 16), seed=11).astype(np.float32))
        out = run_table(block, x, training=True)
        npt.assert_array_equal(out.data, x.data)

    @pytest.mark.parametrize("name,bits", [("preresnet-toy", "fp"), ("convnet-bn", 4)])
    def test_eval_forward_is_batch_order_independent(self, name, bits):
        model = build_preset(name, weight_bits=bits, act_bits=bits, seed=12)
        x = np.random.default_rng(13).integers(0, 256, (8, 3, 32, 32)).astype(np.float32)
        perm = np.random.default_rng(14).permutation(8)
        with no_grad():
            straight = model.forward(Tensor(x), training=False).data
            permuted = model.forward(Tensor(x[perm]), training=False).data
        npt.assert_array_equal(straight[perm], permuted)


class TestLogitScaleChain:
    def setup_model(self, seed=0):
        model = build_preset("convnet-bn", weight_bits="raw", seed=seed)
        fc = model.layer_table[-1].layer
        k = model.linear_infos()[-1].preceding_pool_k
        pred = fc.n_in * mean_square_value(fc.w.data) / k**2
        rng = np.random.default_rng(100 + seed)
        measured = []
        for _ in range(10):
            x = rng.integers(0, 256, (64, 3, 32, 32)).astype(np.float32)
            with no_grad():
                z = model.forward(Tensor(x), training=True).data
            measured.append(mean_square_value(z))
        return float(np.mean(measured)), pred

    def test_weight_product_step_is_tight(self):
        # the z = Xi x contraction itself: logit mean-square equals
        # n_L * VAR[Xi] * E[x^2] closely (weights independent of inputs)
        model = build_preset("convnet-bn", weight_bits="raw", seed=0)
        rng = np.random.default_rng(200)
        x = rng.integers(0, 256, (64, 3, 32, 32)).astype(np.float32)
        with no_grad():
            feats = run_table(model.layer_table[:-1], Tensor(x.transpose(0, 2, 3, 1)),
                              training=True).data.reshape(64, -1)
            z = model.forward(Tensor(x), training=True).data
        fc = model.layer_table[-1].layer
        pred = fc.n_in * mean_square_value(fc.w.data) * mean_square_value(feats)
        assert mean_square_value(z) == pytest.approx(pred, rel=0.5)

    @pytest.mark.xfail(
        strict=False,
        reason="global pooling of positive-mean activations sits right at the "
        "factor-3 boundary of the semi-quantitative chain (measured ~3-4.4x); "
        "the small-class geometry required to keep the last layer out of "
        "saturation forces a large pool kernel",
    )
    def test_chain_prediction_within_factor_three(self):
        measured, pred = self.setup_model(seed=0)
        ratio = measured / pred
        assert 1.0 / 3.0 <= ratio <= 3.0


class TestStateRoundTrip:
    @pytest.mark.parametrize("name", PRESETS)
    def test_state_dict_round_trip_identity(self, name):
        model = build_preset(name, weight_bits=4, act_bits=4,
                             rescale=RescaleMode.CONSTANT, seed=15)
        entries = model.named_state()
        snapshot = {n: t.data.copy() for n, _, t in entries}
        other = build_preset(name, weight_bits=4, act_bits=4,
                             rescale=RescaleMode.CONSTANT, seed=99)
        other.load_state(snapshot)
        for (n1, _, t1), (n2, _, t2) in zip(entries, other.named_state()):
            assert n1 == n2
            npt.assert_array_equal(t1.data, t2.data)

    def test_extra_tensors_ignored_with_warning(self, caplog):
        model = build_preset("convnet-bn", seed=16)
        state = {n: t.data + 1.0 for n, _, t in model.named_state()}
        with caplog.at_level(logging.WARNING, logger="qsat.network"):
            model.load_state({**state, "bogus": np.zeros(3)})
        assert "ignoring 1 checkpoint tensors with no model slot: ['bogus']" in caplog.text
        for n, _, t in model.named_state():
            npt.assert_array_equal(t.data, state[n])

    def test_other_shape_rejected_before_any_tensor_loads(self):
        model = build_preset("convnet-bn", seed=16)
        before = {n: t.data.copy() for n, _, t in model.named_state()}
        state = {n: a + 1.0 for n, a in before.items()}
        state["block3.bn.running_var"] = np.ones(5, np.float32)
        with pytest.raises(ShapeError, match=r"'block3.bn.running_var': checkpoint shape \(5,\)"):
            model.load_state(state)
        for n, _, t in model.named_state():
            npt.assert_array_equal(t.data, before[n])

    def test_mismatched_names_rejected(self):
        model = build_preset("convnet-bn", seed=16)
        with pytest.raises(KeyError):
            model.load_state({"bogus": np.zeros(3)})


def bn_reference(xd, gamma, beta, running_mean, running_var, g, momentum=0.1, eps=1e-5):
    """Training-mode batch norm in its plain NCHW formulas: output, input,
    gamma and beta gradients, and the updated running statistics."""
    n, c, h, w = xd.shape
    m = n * h * w
    mean = np.mean(xd, axis=(0, 2, 3), dtype=np.float64)
    var = np.mean(np.square(xd, dtype=np.float64), axis=(0, 2, 3)) - mean**2
    var = np.maximum(var, 0.0)
    rm = ((1.0 - momentum) * running_mean + momentum * mean).astype(running_mean.dtype)
    rv = ((1.0 - momentum) * running_var + momentum * var).astype(running_var.dtype)
    sigma = np.sqrt(var + eps).astype(xd.dtype)
    gshape = (1, c, 1, 1)
    xhat = (xd - mean.astype(xd.dtype).reshape(gshape)) / sigma.reshape(gshape)
    out = gamma.reshape(gshape) * xhat + beta.reshape(gshape)
    dbeta = np.sum(g, axis=(0, 2, 3), dtype=np.float64)
    dgamma = np.sum(g * xhat, axis=(0, 2, 3), dtype=np.float64)
    coeff = (gamma / sigma).reshape(gshape)
    dx = coeff * (
        g
        - (dbeta / m).astype(g.dtype).reshape(gshape)
        - xhat * (dgamma / m).astype(g.dtype).reshape(gshape)
    )
    return out, dx, dgamma.astype(gamma.dtype), dbeta.astype(beta.dtype), rm, rv


class TestBatchNormBitIdentity:
    """BatchNorm2d on (n*h, w*C) rows makes the plain formulas' float32 ops
    in their order; output, gradients and running statistics match them to
    the bit at every convnet-bn BN shape, on either memory layout.  The
    NCHW reference sees the NHWC arrays through one transpose."""

    SHAPES = [(32, 32, 32, 16), (32, 16, 16, 24), (32, 16, 16, 32),
              (32, 8, 8, 32), (32, 8, 8, 24), (32, 4, 4, 12)]

    @staticmethod
    def bn_with_params(c, seed):
        bn = BatchNorm2d(c)
        rng = np.random.default_rng(seed)
        bn.gamma.data = rng.normal(1.0, 0.3, c).astype(np.float32)
        bn.beta.data = rng.normal(0.0, 0.5, c).astype(np.float32)
        bn.running_mean.data = rng.normal(0.0, 1.0, c).astype(np.float32)
        bn.running_var.data = rng.uniform(0.5, 2.0, c).astype(np.float32)
        return bn

    @pytest.mark.parametrize("layout", ["contiguous", "nchw_memory"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_training_matches_plain_formulas(self, shape, layout):
        n, h, w, c = shape
        seed = c * h
        # a per-channel offset and magnitudes over several decades, so the
        # float32 ops and their order show in the bits
        x = (rand(shape, seed) * 10.0 ** rand((1, 1, 1, c), seed + 1)
             + 3.0 * rand((1, 1, 1, c), seed + 2)).astype(np.float32)
        g = (rand(shape, seed + 3) * 10.0 ** rand(shape, seed + 4)).astype(np.float32)
        if layout == "nchw_memory":
            x, g = nchw_memory(x), nchw_memory(g)
        bn = self.bn_with_params(c, seed)
        want = bn_reference(nchw(x), bn.gamma.data, bn.beta.data, bn.running_mean.data,
                            bn.running_var.data, nchw(g))
        t = Tensor(x, requires_grad=True)
        out = bn(t, training=True)
        project(out, g).backward()
        got = (nchw(out.data), nchw(t.grad), bn.gamma.grad, bn.beta.grad,
               bn.running_mean.data, bn.running_var.data)
        for name, a, b in zip(("out", "dx", "dgamma", "dbeta", "mean", "var"), got, want):
            assert same_bits(a, b), name

    @pytest.mark.parametrize("layout", ["contiguous", "nchw_memory"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_eval_forward_is_x_times_scale_plus_shift(self, shape, layout):
        n, h, w, c = shape
        x = (rand(shape, c) * 10.0 ** rand((1, 1, 1, c), c + 1)).astype(np.float32)
        if layout == "nchw_memory":
            x = nchw_memory(x)
        bn = self.bn_with_params(c, c + 2)
        inv = 1.0 / np.sqrt(bn.running_var.data.astype(np.float64) + BN_EPS)
        scale = bn.gamma.data * inv.astype(np.float32)
        shift = bn.beta.data - scale * bn.running_mean.data
        want = nchw(x) * scale.reshape(1, c, 1, 1) + shift.reshape(1, c, 1, 1)
        with no_grad():
            assert same_bits(nchw(bn(Tensor(x), training=False).data), want)
        # with gradients on, the same bytes come from one op on the tape
        tensor_module._tape.clear()
        t = Tensor(x, requires_grad=True)
        out = bn(t, training=False)
        assert [node.op for node in tensor_module._tape] == ["batch_norm2d_eval"]
        tensor_module._tape.clear()
        assert same_bits(nchw(out.data), want)

    @pytest.mark.parametrize("layout", ["contiguous", "nchw_memory"])
    def test_eval_backward_vs_finite_differences(self, layout):
        shape = (3, 5, 6, 4)
        up = rand(shape, seed=41)
        bn = BatchNorm2d(4, dtype=np.float64)
        bn.gamma.data = np.array([1.5, 0.5, -2.0, 1.0])
        bn.beta.data = np.array([0.1, -0.2, 0.0, 0.3])
        bn.running_mean.data = np.array([0.5, -1.0, 0.0, 2.0])
        bn.running_var.data = np.array([0.8, 1.5, 2.0, 0.3])
        x = rand(shape, seed=42, scale=2.0)
        if layout == "nchw_memory":
            x = nchw_memory(x)

        def through_x(t):
            return project(bn(t, training=False), up)

        def through(param):
            def fn(t):
                setattr(bn, param, t)
                return project(bn(Tensor(x), training=False), up)
            return fn

        assert finite_difference_check(through_x, Tensor(x)) <= 1e-6
        assert finite_difference_check(through("gamma"), Tensor(bn.gamma.data.copy())) <= 1e-6
        assert finite_difference_check(through("beta"), Tensor(bn.beta.data.copy())) <= 1e-6
