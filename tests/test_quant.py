import math

import numpy as np
import numpy.testing as npt
import pytest

from qsat.quant import (
    DegenerateLayerError,
    PactBackward,
    PactState,
    QuantScheme,
    RescaleMode,
    dorefa_clamp,
    effective_weight,
    pact_quantize,
    qk,
    quantize_weight,
    rescale,
    rescale_scalar,
    signed_clamped,
)
from qsat.tensor import (
    DomainError,
    Tensor,
    mean_square,
    mean_square_value,
    no_grad,
    register_custom_backward,
    sqrt,
)


def rand(shape, seed, scale=1.0):
    return np.random.default_rng(seed).normal(0.0, scale, size=shape)


def grads_of(fn, value):
    t = Tensor(np.asarray(value, dtype=float), requires_grad=True)
    fn(t).backward()
    return t.grad


class TestQk:
    @pytest.mark.parametrize("b", [1, 2, 4, 8])
    def test_endpoints_fixed(self, b):
        out = qk(Tensor([0.0, 1.0]), b)
        npt.assert_array_equal(out.data, [0.0, 1.0])

    def test_b2_value(self):
        # a = 3, round(3 * 0.4) = 1
        assert qk(Tensor([0.4]), 2).item() == pytest.approx(1.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("b", [1, 2, 4, 8])
    def test_idempotent_on_grid(self, b):
        x = Tensor(np.random.default_rng(b).uniform(0.0, 1.0, size=1000))
        once = qk(x, b)
        twice = qk(once, b)
        npt.assert_array_equal(once.data, twice.data)

    @pytest.mark.parametrize("b", [1, 2, 4, 8])
    def test_monotone_and_on_grid(self, b):
        x = np.sort(np.random.default_rng(100 + b).uniform(0.0, 1.0, size=1000))
        out = qk(Tensor(x), b).data
        assert np.all(np.diff(out) >= 0)
        a = 2**b - 1
        idx = out * a
        npt.assert_array_equal(idx, np.rint(idx))

    def test_tie_rounds_half_up(self):
        # a*x = 1.5 exactly for b=2, x=0.5
        assert qk(Tensor([0.5]), 2).item() == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_domain_error_beyond_tolerance(self):
        with pytest.raises(DomainError):
            qk(Tensor([1.1]), 2)
        # within tolerance is clipped, not an error
        assert qk(Tensor([1.0000005]), 2).item() == 1.0

    def test_ste_identity_backward(self):
        g = grads_of(lambda t: qk(t, 2).sum(), [0.1, 0.4, 0.9])
        npt.assert_array_equal(g, np.ones(3))


class TestDorefaClamp:
    def test_extremal_elements(self):
        w = Tensor([3.0, -3.0, 0.0])
        out = dorefa_clamp(w)
        assert out.data[0] == pytest.approx(1.0)
        assert out.data[1] == pytest.approx(0.0)
        assert out.data[2] == pytest.approx(0.5)

    def test_all_zero_is_degenerate(self):
        with pytest.raises(DegenerateLayerError):
            dorefa_clamp(Tensor(np.zeros(4)))

    def test_backward_vs_finite_differences_max_held_fixed(self):
        from qsat.tensor import finite_difference_check

        w = rand(64, seed=8, scale=0.4)
        argmax = int(np.argmax(np.abs(np.tanh(w))))
        coords = [i for i in range(64) if i != argmax]
        err = finite_difference_check(
            lambda t: mean_square(dorefa_clamp(t)), Tensor(w), coords=coords
        )
        assert err <= 1e-5


class TestSignedClamped:
    def test_midpoint_and_endpoints(self):
        out = signed_clamped(Tensor([0.5, 0.0, 1.0]))
        npt.assert_array_equal(out.data, [0.0, -1.0, 1.0])

    def test_uniform_moment(self):
        # uniform on [0,1] maps to uniform on [-1,1]: second moment 1/3
        wt = Tensor(np.random.default_rng(0).uniform(0.0, 1.0, size=100_000))
        ms = mean_square_value(signed_clamped(wt))
        assert ms == pytest.approx(1.0 / 3.0, rel=0.02)

    def test_gradient_factor_two(self):
        g = grads_of(lambda t: signed_clamped(t).sum(), [0.3, 0.7])
        npt.assert_array_equal(g, [2.0, 2.0])


class TestQuantizeWeight:
    def test_binary_case(self):
        out = quantize_weight(Tensor([0.2, 0.8]), 1)
        npt.assert_array_equal(out.data, [-1.0, 1.0])

    def test_b2_value(self):
        # 2 * (1/3) - 1
        assert quantize_weight(Tensor([0.4]), 2).item() == pytest.approx(-1.0 / 3.0)

    @pytest.mark.parametrize("b", [1, 2, 4, 8])
    def test_grid_fixed_points_match_signed_clamp(self, b):
        a = 2**b - 1
        grid = Tensor(np.arange(a + 1) / a)
        npt.assert_array_equal(
            quantize_weight(grid, b).data, signed_clamped(grid).data
        )


def constant_rescale(x, fan_out):
    return rescale(x, QuantScheme(bits=None, rescale=RescaleMode.CONSTANT, fan_out=fan_out), x)


def stddev_rescale(w_eff, w_orig):
    return rescale(w_eff, QuantScheme(bits=None, rescale=RescaleMode.STDDEV), w_orig)


class TestConstantRescale:
    def test_sign_pattern_value(self):
        x = Tensor(np.where(rand(256, seed=3) > 0, 1.0, -1.0))
        out = constant_rescale(x, 1000)
        npt.assert_allclose(np.abs(out.data), 1.0 / math.sqrt(1000.0), rtol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_postcondition(self, seed):
        x = Tensor(rand(300, seed=seed, scale=2.0))
        out = constant_rescale(x, 7)
        assert abs(mean_square_value(out) * 7 - 1.0) <= 1e-10

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateLayerError):
            constant_rescale(Tensor(np.zeros(4)), 5)

    def test_backward_is_pure_division_by_the_detached_scalar(self):
        v = rand(32, seed=4)
        scale = math.sqrt(9 * mean_square_value(v))
        t = Tensor(v, requires_grad=True)
        constant_rescale(t, 9).sum().backward()
        npt.assert_array_equal(t.grad, np.ones(32) / scale)

    def test_detached_rule_differs_from_full_autodiff(self):
        # the same formula differentiated through the variance term gives a
        # different gradient; the detached rule must win
        v = np.array([1.0, 2.0, 2.0, 3.0])
        t = Tensor(v, requires_grad=True)
        constant_rescale(t, 5).sum().backward()
        detached = t.grad.copy()

        t2 = Tensor(v, requires_grad=True)
        full = t2 / sqrt(mean_square(t2) * 5.0)
        full.sum().backward()
        autodiff = t2.grad.copy()

        assert np.max(np.abs(detached - autodiff)) > 1e-3
        # forward values agree; only the backward rule differs
        npt.assert_allclose(
            constant_rescale(Tensor(v), 5).data, full.data, rtol=1e-12
        )


class TestStddevRescale:
    def test_identity_when_equal(self):
        v = rand(64, seed=6)
        out = stddev_rescale(Tensor(v), Tensor(v))
        npt.assert_allclose(out.data, v, rtol=1e-12)

    def test_preserves_original_moment(self):
        w = Tensor(rand(128, seed=7, scale=0.05))
        eff = Tensor(rand(128, seed=8, scale=3.0))
        out = stddev_rescale(eff, w)
        assert abs(mean_square_value(out) - mean_square_value(w)) <= 1e-10

    def test_agrees_with_constant_rescale_at_matched_variance(self):
        # Gaussian weights at the 1/fan_out variance point: both rescales
        # shrink the clamped weights by nearly the same factor
        n_hat = 1000
        w = Tensor(rand(20_000, seed=9, scale=1.0 / math.sqrt(n_hat)))
        with no_grad():
            eff = signed_clamped(dorefa_clamp(w))
            via_const = constant_rescale(eff, n_hat)
            via_std = stddev_rescale(eff, w)
        ratio = mean_square_value(via_const) / mean_square_value(via_std)
        assert math.sqrt(ratio) == pytest.approx(1.0, abs=0.05)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateLayerError):
            stddev_rescale(Tensor(np.zeros(4)), Tensor(np.ones(4)))


class TestEffectiveWeight:
    def test_fp_none_is_the_clamp_configuration(self):
        w = Tensor(rand(100, seed=10))
        out = effective_weight(w, QuantScheme(bits=None))
        with no_grad():
            expected = signed_clamped(dorefa_clamp(Tensor(w.data)))
        npt.assert_array_equal(out.data, expected.data)

    def test_fp_constant_normalizes(self):
        w = Tensor(rand(100, seed=11))
        out = effective_weight(
            w, QuantScheme(bits=None, rescale=RescaleMode.CONSTANT, fan_out=50)
        )
        assert mean_square_value(out) * 50 == pytest.approx(1.0, abs=1e-10)

    def test_8bit_variance_matches_fp_within_one_percent(self):
        w = Tensor(rand(10_000, seed=12, scale=0.06))
        fp = effective_weight(w, QuantScheme(bits=None))
        q8 = effective_weight(w, QuantScheme(bits=8))
        ratio = mean_square_value(q8) / mean_square_value(fp)
        assert ratio == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize(
        "scheme",
        [
            QuantScheme(bits=None),
            QuantScheme(bits=2),
            QuantScheme(bits=4, rescale=RescaleMode.CONSTANT, fan_out=90),
            QuantScheme(bits=None, rescale=RescaleMode.STDDEV),
        ],
        ids=["fp", "q2", "q4-const", "fp-stddev"],
    )
    def test_bounded_by_rescale_factor(self, scheme):
        w = Tensor(rand(500, seed=13, scale=0.1))
        out = effective_weight(w, scheme)
        if scheme.rescale is RescaleMode.NONE:
            bound = 1.0
        else:
            with no_grad():
                pre = (
                    quantize_weight(dorefa_clamp(Tensor(w.data)), scheme.bits)
                    if scheme.is_quantized
                    else signed_clamped(dorefa_clamp(Tensor(w.data)))
                )
            scalar = rescale_scalar(pre, scheme, w)
            bound = 1.0 / scalar if scheme.rescale is RescaleMode.CONSTANT else scalar
        assert np.max(np.abs(out.data)) <= bound * (1 + 1e-12)

    def test_quantized_rescale_uses_post_quantization_variance(self):
        # at 1 bit the quantized values are +-1, so the constant rescale
        # factor must be exactly 1/sqrt(fan_out)
        w = Tensor(rand(400, seed=14, scale=0.05))
        out = effective_weight(
            w, QuantScheme(bits=1, rescale=RescaleMode.CONSTANT, fan_out=25)
        )
        npt.assert_allclose(np.abs(out.data), 0.2, rtol=1e-6)

    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            QuantScheme(bits=0)
        with pytest.raises(ValueError):
            QuantScheme(bits=4, rescale=RescaleMode.CONSTANT, fan_out=None)


def pact(bits, mode, alpha=2.0):
    return PactState(
        Tensor(np.asarray(alpha, dtype=np.float64), requires_grad=True), bits, mode
    )


def alpha_grad(x_values, state):
    x = Tensor(np.asarray(x_values, dtype=float), requires_grad=True)
    pact_quantize(x, state).sum().backward()
    return float(state.alpha.grad), x.grad


class TestPactQuantize:
    @pytest.mark.parametrize("mode", [PactBackward.CG, PactBackward.LEGACY])
    @pytest.mark.parametrize("b", [1, 2, 4])
    def test_saturated_value_and_alpha_grad(self, mode, b):
        state = pact(b, mode)
        ga, _ = alpha_grad([3.0], state)
        assert ga == pytest.approx(1.0)
        out = pact_quantize(Tensor([3.0]), pact(b, mode))
        assert out.item() == pytest.approx(2.0)

    def test_interior_value_cg_vs_legacy(self):
        # x = 0.8, alpha = 2 puts the clipped ratio at 0.4: q = 2/3 at b=2
        out = pact_quantize(Tensor([0.8]), pact(2, PactBackward.CG))
        assert out.item() == pytest.approx(2.0 / 3.0)
        ga_cg, _ = alpha_grad([0.8], pact(2, PactBackward.CG))
        assert ga_cg == pytest.approx(1.0 / 3.0 - 0.4, abs=1e-12)
        ga_legacy, _ = alpha_grad([0.8], pact(2, PactBackward.LEGACY))
        assert ga_legacy == 0.0

    def test_zero_input(self):
        out = pact_quantize(Tensor([0.0]), pact(2, PactBackward.CG))
        assert out.item() == 0.0
        ga, _ = alpha_grad([0.0], pact(2, PactBackward.CG))
        assert ga == 0.0

    def test_boundary_belongs_to_saturated_branch(self):
        for mode in (PactBackward.CG, PactBackward.LEGACY):
            ga, gx = alpha_grad([2.0], pact(2, mode))
            assert ga == pytest.approx(1.0)
            npt.assert_array_equal(gx, [0.0])

    def test_input_gradient_is_clip_indicator(self):
        _, gx = alpha_grad([-0.5, 0.7, 2.5], pact(2, PactBackward.CG))
        npt.assert_array_equal(gx, [0.0, 1.0, 0.0])

    def test_cg_and_legacy_differ_by_exactly_the_rounding_error(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(-1.0, 5.0, size=200)
        b, alpha = 2, 2.0
        ga_cg, _ = alpha_grad(x, pact(b, PactBackward.CG, alpha))
        ga_legacy, _ = alpha_grad(x, pact(b, PactBackward.LEGACY, alpha))
        a = 2**b - 1
        ratio = np.clip(x, 0.0, alpha) / alpha
        err = np.floor(ratio * a + 0.5) / a - ratio
        expected = float(np.sum(np.where(x < alpha, err, 0.0)))
        assert ga_cg - ga_legacy == pytest.approx(expected, abs=1e-12)

    def test_16bit_limit_is_hard_clip(self):
        alpha = 1.5
        x = Tensor(np.random.default_rng(16).uniform(-1.0, 3.0, size=2000))
        q = pact_quantize(x, pact(16, PactBackward.CG, alpha))
        clip = np.clip(x.data, 0.0, alpha)
        assert np.max(np.abs(q.data - clip)) <= alpha / 2**16

    def test_alpha_positive_enforced(self):
        with pytest.raises(DomainError):
            pact_quantize(Tensor([1.0]), pact(2, PactBackward.CG, alpha=-1.0))
        state = pact(2, PactBackward.CG, alpha=1e-9)
        state.clamp_alpha()
        assert state.alpha_value == pytest.approx(1e-3)


def pact_reference(xd, a_val, bits, mode, g):
    """The plain PACT expressions: output, input gradient, alpha gradient."""
    levels = 2**bits - 1
    clipped = np.minimum(np.maximum(xd, 0.0), a_val)
    ratio = clipped / a_val
    q_ratio = np.floor(ratio * levels + 0.5) / levels
    out = np.asarray(a_val * q_ratio, dtype=xd.dtype)
    below = xd < a_val
    in_window = (xd > 0) & below
    if mode is PactBackward.CG:
        per_elem = np.where(below, q_ratio - ratio, 1.0)
    else:
        per_elem = np.where(below, 0.0, 1.0)
    ga = float(np.sum(g * per_elem, dtype=np.float64))
    return out, g * in_window, np.asarray(ga, dtype=xd.dtype), ratio * levels + 0.5


def backward_from(out, g):
    """Backward pass that hands ``out`` exactly ``g``, memory layout included."""
    inject = register_custom_backward(lambda a: a, lambda grad, a: g, name="inject")
    inject(out).sum().backward()


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.uint8), b.view(np.uint8)
    )


class TestPactBitIdentity:
    """pact_quantize makes the plain expressions' float ops in their order,
    so its output and both gradients equal them to the bit."""

    @staticmethod
    def inputs(bits, alpha, dtype):
        levels = 2**bits - 1
        rng = np.random.default_rng(bits)
        # past numpy's 8192-element cast buffer, so that a float64 sum over
        # float32 products and one over float64 products differ
        x = rng.uniform(-0.5 * alpha, 1.5 * alpha, size=(4, 8, 24, 24))
        flat = x.reshape(-1)
        flat[:40] = alpha * (np.arange(40) % levels + 0.5) / levels   # ties
        flat[40:50] = alpha                                          # the clip
        flat[50:55] = 0.0
        flat[55:60] = -0.0
        flat[60:70] = -rng.uniform(0.0, alpha, 10)
        x = x.astype(dtype)
        g = (rng.normal(size=x.shape) * 10.0 ** rng.normal(size=x.shape)).astype(dtype)
        # channels-last memory under NCHW shape, as conv outputs have
        cl = lambda a: np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        return [(x, g), (cl(x), cl(g))]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", [PactBackward.CG, PactBackward.LEGACY])
    @pytest.mark.parametrize("bits", [2, 4, 8, 16])
    def test_matches_plain_expressions(self, bits, mode, dtype):
        alpha = np.asarray(1.7, dtype=dtype)
        for x, g in self.inputs(bits, float(alpha), dtype):
            want_out, want_gx, want_ga, scaled = pact_reference(
                x, float(alpha), bits, mode, g)
            assert np.any(scaled == np.floor(scaled)), "no rounding tie"
            state = PactState(Tensor(alpha.copy(), requires_grad=True), bits, mode)
            t = Tensor(x, requires_grad=True)
            out = pact_quantize(t, state)
            backward_from(out, g)
            assert same_bits(out.data, want_out)
            assert same_bits(t.grad, want_gx)
            assert same_bits(state.alpha.grad, want_ga)
            with no_grad():
                assert same_bits(pact_quantize(Tensor(x), state).data, want_out)


class TestPactSaturatedFactor:
    """The CG alpha factor adds the saturated mask to ``q - ratio``, which
    is exactly 0 at or above the clip, where the plain expressions set 1."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bits", [2, 4, 16])
    def test_at_and_above_the_clip_and_at_inf(self, bits, dtype):
        alpha = np.asarray(1.7, dtype=dtype)
        x = np.array([alpha, alpha, 1.0001 * alpha, 5.0, 1e30, np.inf, 0.3, -1.0],
                     dtype=dtype).reshape(1, 2, 2, 2)
        g = np.random.default_rng(bits).normal(size=x.shape).astype(dtype)
        want_out, want_gx, want_ga, _ = pact_reference(
            x, float(alpha), bits, PactBackward.CG, g)
        state = PactState(Tensor(alpha.copy(), requires_grad=True), bits, PactBackward.CG)
        t = Tensor(x, requires_grad=True)
        out = pact_quantize(t, state)
        backward_from(out, g)
        assert same_bits(out.data, want_out)
        assert same_bits(t.grad, want_gx)
        assert same_bits(state.alpha.grad, want_ga)

    def test_nan_input_gives_nan_alpha_gradient(self):
        # NaN is neither below the clip nor saturated: q - ratio is NaN, so
        # the factor stays NaN (the plain expressions set it to 1)
        x = np.array([0.5, np.nan, 3.0, -1.0], dtype=np.float32)
        state = PactState(Tensor(np.float32(2.0), requires_grad=True), 4, PactBackward.CG)
        t = Tensor(x, requires_grad=True)
        out = pact_quantize(t, state)
        out.sum().backward()
        assert np.isnan(state.alpha.grad)
        assert np.isnan(out.data[1])
        npt.assert_array_equal(t.grad, [1.0, 0.0, 0.0, 0.0])


class TestAlphaGradReduce:
    """The per-element clip-level gradients summed into the scalar alpha
    gradient, through ``pact_quantize``'s backward."""

    def test_zeros(self):
        ga, _ = alpha_grad(np.zeros(10), pact(2, PactBackward.CG))
        assert ga == 0.0

    def test_single_element(self):
        x = np.zeros(10)
        x[3] = 3.0  # the one element at or above the clip
        ga, _ = alpha_grad(x, pact(2, PactBackward.CG))
        assert ga == 1.0

    def test_matches_finite_difference_in_saturated_region(self):
        # every element above the clip: d(sum q)/d(alpha) = element count
        x = np.random.default_rng(17).uniform(3.0, 6.0, size=50)
        eps = 1e-6
        state = pact(2, PactBackward.CG, alpha=2.0)
        ga, _ = alpha_grad(x, state)
        with no_grad():
            hi = pact_quantize(Tensor(x), pact(2, PactBackward.CG, 2.0 + eps)).data.sum()
            lo = pact_quantize(Tensor(x), pact(2, PactBackward.CG, 2.0 - eps)).data.sum()
        fd = (hi - lo) / (2 * eps)
        assert abs(ga - fd) / abs(fd) <= 1e-5


class TestArgmaxInvariance:
    def test_positive_rescaling_never_changes_argmax(self):
        rng = np.random.default_rng(18)
        logits = rng.normal(size=(50, 10))
        for scale in (1e-3, 0.5, 7.0, 1e3):
            npt.assert_array_equal(
                logits.argmax(axis=1), (scale * logits).argmax(axis=1)
            )
