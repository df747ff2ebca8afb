import math

import numpy as np
import numpy.testing as npt
import pytest

from conftest import finite_difference_check, project
from qsat import tensor
from qsat.quant import (
    DegenerateLayerError,
    PactBackward,
    PactState,
    QuantScheme,
    RescaleMode,
    effective_weight,
    pact_quantize,
    rescale_scalar,
    weight_grid,
)
from qsat.tensor import (
    DomainError,
    Tensor,
    mean_square_value,
    no_grad,
)


def rand(shape, seed, scale=1.0):
    return np.random.default_rng(seed).normal(0.0, scale, size=shape)


def grads_of(fn, value):
    t = Tensor(np.asarray(value, dtype=float), requires_grad=True)
    fn(t).backward()
    return t.grad


FP = QuantScheme(bits=None)
ANCHOR = 2.0


def weights_at(x):
    """Raw weights whose clamp puts each element at ``x`` on [0, 1], up to
    the rounding of tanh and arctanh: arctanh((2x - 1) tanh(2)), followed
    by one weight of 2 that holds max|tanh| at tanh(2).  Callers drop the
    last element of what they compute from these weights."""
    m = np.tanh(ANCHOR)
    return np.append(np.arctanh((2.0 * np.asarray(x, dtype=float) - 1.0) * m), ANCHOR)


def grid_at(x, bits):
    """``weight_grid``'s [0, 1] values at the clamped positions ``x``."""
    return weight_grid(weights_at(x), bits)[0][:-1]


def effective_at(x, scheme):
    return effective_weight(Tensor(weights_at(x)), scheme).data[:-1]


class TestGridRounding:
    @pytest.mark.parametrize("b", [1, 2, 4, 8])
    def test_endpoints_fixed(self, b):
        npt.assert_array_equal(grid_at([0.0, 1.0], b), [0.0, 1.0])

    def test_b2_value(self):
        # a = 3, round(3 * 0.4) = 1
        assert grid_at([0.4], 2)[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("b", [1, 2, 4, 8])
    def test_idempotent_on_grid(self, b):
        x = np.random.default_rng(b).uniform(0.0, 1.0, size=1000)
        once = grid_at(x, b)
        twice = grid_at(once, b)
        npt.assert_array_equal(once, twice)

    @pytest.mark.parametrize("b", [1, 2, 4, 8])
    def test_monotone_and_on_grid(self, b):
        w = np.sort(np.random.default_rng(100 + b).normal(0.0, 1.0, size=1000))
        out = weight_grid(w, b)[0]
        assert np.all(np.diff(out) >= 0)
        a = 2**b - 1
        idx = out * a
        npt.assert_array_equal(idx, np.rint(idx))

    def test_tie_rounds_half_up(self):
        # a*x = 1.5 exactly for b=2, x=0.5 (a zero weight)
        assert grid_at([0.5], 2)[0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_ste_identity_backward(self):
        # straight-through: rounding adds nothing to the gradient, so the
        # 4-bit scheme's gradient is the full-precision scheme's
        w = rand(64, seed=2, scale=0.5)
        q4 = grads_of(lambda t: project(effective_weight(t, QuantScheme(bits=4))), w)
        fp = grads_of(lambda t: project(effective_weight(t, FP)), w)
        npt.assert_array_equal(q4, fp)


class TestClamp:
    def test_extremal_elements(self):
        out = weight_grid(np.array([3.0, -3.0, 0.0]), None)[0]
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0)
        assert out[2] == pytest.approx(0.5)

    def test_all_zero_is_degenerate(self):
        with pytest.raises(DegenerateLayerError):
            weight_grid(np.zeros(4), None)
        with pytest.raises(DegenerateLayerError):
            effective_weight(Tensor(np.zeros(4), requires_grad=True), QuantScheme(bits=4))

    def test_backward_vs_finite_differences_max_held_fixed(self):
        w = rand(64, seed=8, scale=0.4)
        up = rand(64, seed=9)
        argmax = int(np.argmax(np.abs(np.tanh(w))))
        coords = [i for i in range(64) if i != argmax]
        err = finite_difference_check(
            lambda t: project(effective_weight(t, FP), up), Tensor(w), coords=coords
        )
        assert err <= 1e-5


class TestSignedClamp:
    def test_midpoint_and_endpoints(self):
        out = effective_weight(Tensor([0.0, -3.0, 3.0]), FP)
        npt.assert_array_equal(out.data, [0.0, -1.0, 1.0])

    def test_uniform_moment(self):
        # tanh uniform on [-0.9, 0.9] puts the clamp uniform on [0,1], which
        # maps to uniform on [-1,1]: second moment 1/3
        w = np.arctanh(np.random.default_rng(0).uniform(-0.9, 0.9, size=100_000))
        ms = mean_square_value(effective_weight(Tensor(w), FP))
        assert ms == pytest.approx(1.0 / 3.0, rel=0.02)

    def test_gradient_factor_two(self):
        # the map onto [-1, 1] doubles the clamp's gradient (1 - t^2) / (2m)
        w = np.array([0.3, -0.7])
        t = np.tanh(w)
        m = float(np.max(np.abs(t)))
        g = grads_of(lambda v: project(effective_weight(v, FP)), w)
        npt.assert_allclose(g, 2.0 * (1.0 - t * t) / (2.0 * m), rtol=1e-15)


class TestQuantizedGrid:
    def test_binary_case(self):
        npt.assert_array_equal(effective_at([0.2, 0.8], QuantScheme(bits=1)), [-1.0, 1.0])

    def test_b2_value(self):
        # 2 * (1/3) - 1
        assert effective_at([0.4], QuantScheme(bits=2))[0] == pytest.approx(-1.0 / 3.0)

    @pytest.mark.parametrize("b", [1, 2, 4, 8])
    def test_grid_fixed_points_match_signed_clamp(self, b):
        a = 2**b - 1
        grid = np.arange(a + 1) / a
        npt.assert_array_equal(effective_at(grid, QuantScheme(bits=b)), grid * 2.0 - 1.0)
        npt.assert_allclose(effective_at(grid, FP), grid * 2.0 - 1.0, atol=1e-12)


def constant(fan_out, bits=None):
    return QuantScheme(bits=bits, rescale=RescaleMode.CONSTANT, fan_out=fan_out)


STDDEV = QuantScheme(bits=None, rescale=RescaleMode.STDDEV)


class TestConstantRescale:
    def test_sign_pattern_value(self):
        # one bit puts every weight at +-1 before the rescale
        out = effective_weight(Tensor(rand(256, seed=3)), constant(1000, bits=1))
        npt.assert_allclose(np.abs(out.data), 1.0 / math.sqrt(1000.0), rtol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_postcondition(self, seed):
        out = effective_weight(Tensor(rand(300, seed=seed, scale=2.0)), constant(7))
        assert abs(mean_square_value(out) * 7 - 1.0) <= 1e-10

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateLayerError):
            rescale_scalar(np.zeros(4), constant(5), np.zeros(4))

    def test_backward_is_pure_division_by_the_detached_scalar(self):
        # fed the scalar itself, the rescale's backward hands on exactly 1,
        # so the gradient is the unrescaled scheme's gradient of ones
        v = rand(32, seed=4)
        q = effective_weight(Tensor(v), FP).data
        scale = math.sqrt(9 * mean_square_value(q))
        t = Tensor(v, requires_grad=True)
        project(effective_weight(t, constant(9)), np.full(32, scale)).backward()
        npt.assert_array_equal(t.grad, grads_of(lambda u: project(effective_weight(u, FP)), v))

    def test_detached_rule_differs_from_full_autodiff(self):
        # the same formula differentiated through the variance term gives a
        # different gradient; the detached rule must win
        v = np.array([1.0, 2.0, 2.0, 3.0])
        t = Tensor(v, requires_grad=True)
        project(effective_weight(t, constant(5))).backward()
        detached = t.grad.copy()

        # sum(q / s) with s = sqrt(5 E[q^2]) depending on q too, by hand
        q = effective_weight(Tensor(v), FP).data
        s = math.sqrt(5.0 * mean_square_value(q))
        dq = 1.0 / s - q.sum() * 5.0 * q / (q.size * s**3)
        tv = np.tanh(v)
        autodiff = dq * 2.0 * (1.0 - tv * tv) / (2.0 * np.max(np.abs(tv)))

        assert np.max(np.abs(detached - autodiff)) > 1e-3
        # forward values agree; only the backward rule differs
        npt.assert_allclose(effective_weight(Tensor(v), constant(5)).data, q / s, rtol=1e-12)


class TestStddevRescale:
    def test_identity_when_equal(self):
        # weights at +-1 clamp to themselves, so the rescale is the identity
        v = np.where(rand(64, seed=6) > 0, 1.0, -1.0)
        out = effective_weight(Tensor(v), STDDEV)
        npt.assert_allclose(out.data, v, rtol=1e-12)

    def test_preserves_original_moment(self):
        w = Tensor(rand(128, seed=7, scale=0.05))
        out = effective_weight(w, STDDEV)
        assert abs(mean_square_value(out) - mean_square_value(w)) <= 1e-10

    def test_agrees_with_constant_rescale_at_matched_variance(self):
        # Gaussian weights at the 1/fan_out variance point: both rescales
        # shrink the clamped weights by nearly the same factor
        n_hat = 1000
        w = Tensor(rand(20_000, seed=9, scale=1.0 / math.sqrt(n_hat)))
        with no_grad():
            via_const = effective_weight(w, constant(n_hat))
            via_std = effective_weight(w, STDDEV)
        ratio = mean_square_value(via_const) / mean_square_value(via_std)
        assert math.sqrt(ratio) == pytest.approx(1.0, abs=0.05)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateLayerError):
            rescale_scalar(np.zeros(4), STDDEV, np.ones(4))


class TestEffectiveWeight:
    def test_fp_none_is_the_clamp_configuration(self):
        w = Tensor(rand(100, seed=10))
        out = effective_weight(w, FP)
        expected = weight_grid(w.data, None)[0] * 2.0 - 1.0
        npt.assert_array_equal(out.data, expected)

    def test_fp_constant_normalizes(self):
        w = Tensor(rand(100, seed=11))
        out = effective_weight(w, constant(50))
        assert mean_square_value(out) * 50 == pytest.approx(1.0, abs=1e-10)

    def test_8bit_variance_matches_fp_within_one_percent(self):
        w = Tensor(rand(10_000, seed=12, scale=0.06))
        fp = effective_weight(w, FP)
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
            pre = weight_grid(w.data, scheme.bits)[0] * 2.0 - 1.0
            scalar = rescale_scalar(pre, scheme, w)
            bound = 1.0 / scalar if scheme.rescale is RescaleMode.CONSTANT else scalar
        assert np.max(np.abs(out.data)) <= bound * (1 + 1e-12)

    def test_quantized_rescale_uses_post_quantization_variance(self):
        # at 1 bit the quantized values are +-1, so the constant rescale
        # factor must be exactly 1/sqrt(fan_out)
        w = Tensor(rand(400, seed=14, scale=0.05))
        out = effective_weight(w, constant(25, bits=1))
        npt.assert_allclose(np.abs(out.data), 0.2, rtol=1e-6)

    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            QuantScheme(bits=0)
        with pytest.raises(ValueError):
            QuantScheme(bits=4, rescale=RescaleMode.CONSTANT, fan_out=None)

    def test_one_node_on_the_tape(self):
        tensor._tape.clear()
        w = Tensor(rand((4, 3, 3, 3), seed=15), requires_grad=True)
        effective_weight(w, constant(36, bits=4))
        assert [node.op for node in tensor._tape] == ["effective_weight"]
        tensor._tape.clear()


def effective_reference(w, scheme, g):
    """The op-by-op chain the effective weight was recorded as before it
    became one op, in numpy: the clamp, the rounding (quantized schemes
    only), times 2, minus 1, then divided or multiplied by the scalar, each
    against a 0-d operand of the weight's dtype as the engine's elementwise
    ops coerce it.  Returns the output and the gradient of ``w`` for the
    output gradient ``g``, each backward step in the chain's reverse order.
    """
    c = lambda v: np.asarray(v, dtype=w.dtype)
    ms = lambda v: float(np.mean(np.square(v, dtype=np.float64), dtype=np.float64))
    t = np.tanh(w)
    m = float(np.max(np.abs(t)))
    x = t / (2.0 * m) + 0.5
    if scheme.bits is not None:
        a = 2**scheme.bits - 1
        x = np.floor(np.clip(x, 0.0, 1.0) * a + 0.5) / a
    q = x * c(2.0) - c(1.0)
    if scheme.rescale is RescaleMode.CONSTANT:
        s = c(math.sqrt(scheme.fan_out * ms(q)))
        q, g = q / s, g / s
    elif scheme.rescale is RescaleMode.STDDEV:
        s = c(math.sqrt(ms(w) / ms(q)))
        q, g = q * s, g * s
    g = g * c(2.0)
    return q, g * (1.0 - t * t) / (2.0 * m)


class TestEffectiveWeightBitIdentity:
    """The one op makes the old chain's float ops in their order, so its
    output, the weight's gradient and its own gradient equal the chain's
    to the bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rescale", list(RescaleMode))
    @pytest.mark.parametrize("bits", [None, 1, 2, 4, 8])
    def test_matches_the_op_by_op_chain(self, bits, rescale, dtype):
        rng = np.random.default_rng([bits or 0, len(rescale.value)])
        w = (rng.normal(size=(16, 8, 3, 3)) * 0.2).astype(dtype)
        # gradients over several decades, so that a reordered product or
        # quotient rounds differently
        g = (rng.normal(size=w.shape) * 10.0 ** rng.normal(size=w.shape)).astype(dtype)
        scheme = QuantScheme(bits=bits, rescale=rescale,
                             fan_out=72 if rescale is RescaleMode.CONSTANT else None)
        want_out, want_grad = effective_reference(w, scheme, g)
        t = Tensor(w, requires_grad=True)
        out = effective_weight(t, scheme)
        project(out, g).backward()
        assert same_bits(out.data, want_out)
        assert same_bits(t.grad, want_grad)
        assert same_bits(out.grad, g)


def pact(bits, mode, alpha=2.0):
    return PactState(
        Tensor(np.asarray(alpha, dtype=np.float64), requires_grad=True), bits, mode
    )


def alpha_grad(x_values, state):
    x = Tensor(np.asarray(x_values, dtype=float), requires_grad=True)
    project(pact_quantize(x, state)).backward()
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
        # the same values in channels-last memory, the memory order of the
        # NHWC activations that PACT quantizes
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
            project(out, g).backward()
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
        project(out, g).backward()
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
        project(out).backward()
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
