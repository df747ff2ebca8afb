import numpy as np
import numpy.testing as npt
import pytest

from qsat import tensor as T
from qsat.tensor import (
    DomainError,
    OpConstructionError,
    ShapeError,
    Tensor,
    avg_pool2d,
    conv2d,
    finite_difference_check,
    matmul,
    max_pool2d,
    mean_square,
    mean_square_value,
    no_grad,
    register_custom_backward,
    relu,
    sqrt,
    tanh,
)
from qsat.network import BatchNorm2d, build_preset
from qsat.training import cross_entropy


def rand(shape, seed, scale=1.0):
    return np.random.default_rng(seed).normal(0.0, scale, size=shape)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        npt.assert_array_equal(matmul(a, b).data, b.data)

    def test_orthogonal_rows(self):
        out = matmul(Tensor([[1.0, 0.0]]), Tensor([[0.0], [1.0]]))
        npt.assert_array_equal(out.data, [[0.0]])

    def test_backward_vs_finite_differences(self):
        b = Tensor(rand((4, 2), seed=11))
        point = Tensor(rand((3, 4), seed=10))
        err = finite_difference_check(lambda t: mean_square(matmul(t, b)), point)
        assert err <= 1e-6
        a = Tensor(rand((3, 4), seed=10))
        err = finite_difference_check(lambda t: mean_square(matmul(a, t)), Tensor(b.data))
        assert err <= 1e-6

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(3, 2\)"):
            matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 2))))


class TestConv2d:
    def test_scalar_kernel_on_ones(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.full((1, 1, 1, 1), 2.0))
        out = conv2d(x, w)
        npt.assert_array_equal(out.data, np.full((1, 1, 3, 3), 2.0))

    def test_impulse_response_is_cross_correlation(self):
        # a centered delta reproduces the kernel without flipping
        x = np.zeros((1, 1, 5, 5))
        x[0, 0, 2, 2] = 1.0
        w = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        out = conv2d(Tensor(x), Tensor(w), stride=1, pad=0)
        # output[i,j] = sum_k w[k] x[i+k] places w reversed around the impulse
        npt.assert_array_equal(out.data[0, 0], w[0, 0, ::-1, ::-1])

    def test_output_geometry(self):
        out = conv2d(Tensor(np.zeros((2, 3, 9, 9))), Tensor(np.zeros((4, 3, 3, 3))),
                     stride=2, pad=1)
        # (9 + 2*1 - 3) / 2 + 1
        assert out.shape == (2, 4, 5, 5)

    def test_non_integral_extent_rejected(self):
        with pytest.raises(ShapeError, match="not integral"):
            conv2d(Tensor(np.zeros((1, 1, 5, 5))), Tensor(np.zeros((1, 1, 2, 2))),
                   stride=2, pad=0)
        with pytest.raises(ShapeError, match="not integral"):
            conv2d(Tensor(np.zeros((2, 3, 8, 8))), Tensor(np.zeros((4, 3, 3, 3))),
                   stride=2, pad=1)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="channel mismatch"):
            conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 4, 3, 3))))

    def test_backward_vs_finite_differences(self):
        xv = rand((2, 3, 8, 8), seed=1)
        wv = rand((4, 3, 3, 3), seed=2)
        w = Tensor(wv)
        err = finite_difference_check(
            lambda t: mean_square(conv2d(t, w, stride=1, pad=1)), Tensor(xv)
        )
        assert err <= 1e-5
        x = Tensor(xv)
        err = finite_difference_check(
            lambda t: mean_square(conv2d(x, t, stride=1, pad=1)), Tensor(wv)
        )
        assert err <= 1e-5


    @pytest.mark.parametrize("stride,pad,size", [(2, 1, 7), (1, 0, 6), (2, 0, 7)],
                             ids=["stride2", "pad0", "stride2-pad0"])
    def test_backward_vs_finite_differences_stride_and_pad(self, stride, pad, size):
        xv = rand((2, 3, size, size), seed=3)
        wv = rand((4, 3, 3, 3), seed=4)
        w = Tensor(wv)
        err = finite_difference_check(
            lambda t: mean_square(conv2d(t, w, stride=stride, pad=pad)), Tensor(xv)
        )
        assert err <= 1e-5
        x = Tensor(xv)
        err = finite_difference_check(
            lambda t: mean_square(conv2d(x, t, stride=stride, pad=pad)), Tensor(wv)
        )
        assert err <= 1e-5

    def test_input_without_grad_skips_input_gradient(self, monkeypatch):
        def no_scatter(*args):
            raise AssertionError("_col2im called for an input that needs no gradient")

        monkeypatch.setattr(T, "_col2im", no_scatter)
        x = Tensor(rand((2, 3, 8, 8), seed=5))
        w = Tensor(rand((4, 3, 3, 3), seed=6), requires_grad=True)
        mean_square(conv2d(x, w, stride=1, pad=1)).backward()
        assert x.grad is None
        assert w.grad is not None and np.any(w.grad != 0)


def channels_last(a):
    """Copy of an NCHW array whose memory runs channels-last, shape unchanged."""
    out = np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    assert out.shape == a.shape and not out.flags.c_contiguous
    return out


class TestLayoutInvariance:
    """Memory layout is invisible: an NCHW-contiguous input and its
    channels-last copy give bit-identical outputs and gradients."""

    @staticmethod
    def both_layouts(run, x):
        first = run(np.ascontiguousarray(x))
        second = run(channels_last(x))
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.shape == b.shape
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("stride,pad,size", [(1, 1, 8), (2, 1, 9), (1, 0, 8)])
    def test_conv2d(self, stride, pad, size):
        wv = rand((5, 3, 3, 3), seed=51).astype(np.float32)
        up = rand((4, 5, (size + 2 * pad - 3) // stride + 1,
                   (size + 2 * pad - 3) // stride + 1), seed=52).astype(np.float32)

        def run(xv):
            x = Tensor(xv, requires_grad=True)
            w = Tensor(wv, requires_grad=True)
            out = conv2d(x, w, stride=stride, pad=pad)
            (out * Tensor(up)).sum().backward()
            return out.data, x.grad, w.grad

        self.both_layouts(run, rand((4, 3, size, size), seed=50).astype(np.float32))

    def test_batch_norm(self):
        up = rand((4, 6, 8, 8), seed=54).astype(np.float32)

        def run(xv):
            bn = BatchNorm2d(6)
            bn.gamma.data = (1.0 + 0.1 * rand(6, seed=55)).astype(np.float32)
            bn.beta.data = rand(6, seed=56).astype(np.float32)
            x = Tensor(xv, requires_grad=True)
            out = bn(x, training=True)
            (out * Tensor(up)).sum().backward()
            with no_grad():
                frozen = bn(Tensor(xv), training=False)
            return (out.data, x.grad, bn.gamma.grad, bn.beta.grad,
                    bn.running_mean, bn.running_var, frozen.data)

        self.both_layouts(run, rand((4, 6, 8, 8), seed=53, scale=2.0).astype(np.float32))

    @pytest.mark.parametrize("k", [2, 4])
    def test_avg_pool(self, k):
        up = rand((3, 5, 8 // k, 8 // k), seed=58).astype(np.float32)

        def run(xv):
            x = Tensor(xv, requires_grad=True)
            out = avg_pool2d(x, k)
            (out * Tensor(up)).sum().backward()
            return out.data, x.grad

        # float32 means over windows of mixed magnitudes round differently
        # when summed in a different order
        xv = rand((3, 5, 8, 8), seed=57) * 10.0 ** rand((3, 5, 8, 8), seed=59)
        self.both_layouts(run, xv.astype(np.float32))

    def test_convnet_bn_4bit_training_step(self):
        images = rand((4, 3, 32, 32), seed=60).astype(np.float32)
        labels = np.array([0, 3, 7, 9])

        def run(xv):
            model = build_preset("convnet-bn", weight_bits=4, act_bits=4, seed=61)
            logits = model.forward(Tensor(xv), training=True)
            loss = cross_entropy(logits, labels)
            loss.backward()
            return [logits.data, loss.data] + [p.grad for p in model.parameters()]

        self.both_layouts(run, images)


def pool_reference(x, k, g):
    """The NCHW-copy mean and its backward, as plain numpy expressions."""
    n, c, h, w = x.shape
    out = np.ascontiguousarray(x).reshape(n, c, h // k, k, w // k, k).mean(axis=(3, 5))
    spread = (g * (1.0 / (k * k)))[:, :, :, None, :, None]
    gx = np.broadcast_to(spread, (n, c, h // k, k, w // k, k)).reshape(x.shape)
    return out, gx


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint32), np.ascontiguousarray(b).view(np.uint32)
    )


class TestAvgPoolBitIdentity:
    """Pooling sums in a fixed order, equal to the bit to numpy's mean over
    an NCHW copy, whatever the memory layout of its input."""

    @staticmethod
    def mixed(shape, seed, k=2):
        # magnitudes spread over eight decades, so any change of summation
        # order shows in the last bit; an all -0.0 window pins the +0 start
        # and a window mixing +0.0 and -0.0 the zero-sign rules
        x = rand(shape, seed) * 10.0 ** (4 * rand(shape, seed + 1))
        x = x.astype(np.float32)
        x[0, 0, :k, :k] = -0.0
        x[-1, -1, -k:, -k:] = 0.0
        x[-1, -1, -k:, -k::2] = -0.0
        return x

    @pytest.mark.parametrize("layout", ["nchw", "channels_last"])
    @pytest.mark.parametrize("k,h,w", [
        (2, 8, 6), (3, 9, 12), (4, 8, 16), (2, 2, 8),   # smaller windows
        (4, 4, 4), (7, 7, 7), (8, 8, 8),                # global
        (3, 6, 3), (2, 4, 2),                           # full width: one run
        (8, 16, 16),                                    # wide, not global
    ])
    def test_forward_and_backward(self, k, h, w, layout):
        x = self.mixed((3, 5, h, w), seed=70 + k, k=k)
        g = self.mixed((3, 5, h // k, w // k), seed=80 + k, k=1)
        if layout == "channels_last":
            x = channels_last(x)
            if g.shape[2:] != (1, 1):
                g = channels_last(g)
        want_out, want_gx = pool_reference(x, k, g)
        t = Tensor(x, requires_grad=True)
        out = avg_pool2d(t, k)
        (out * Tensor(g)).sum().backward()
        assert same_bits(out.data, want_out)
        assert same_bits(t.grad, want_gx)
        if k < 8 and w > k:
            assert out.data.transpose(0, 2, 3, 1).flags.c_contiguous

    def test_single_image_single_channel(self):
        x = self.mixed((1, 1, 6, 8), seed=90)
        g = self.mixed((1, 1, 3, 4), seed=91, k=1)
        t = Tensor(x, requires_grad=True)
        out = avg_pool2d(t, 2)
        (out * Tensor(g)).sum().backward()
        want_out, want_gx = pool_reference(x, 2, g)
        assert same_bits(out.data, want_out)
        assert same_bits(t.grad, want_gx)

    def test_zero_signs_follow_numpy(self):
        x = np.zeros((2, 3, 4, 4), dtype=np.float32)
        x[0] = -0.0
        x[1, :, :, ::2] = -0.0
        out = avg_pool2d(Tensor(x), 2).data
        want, _ = pool_reference(x, 2, np.zeros((2, 3, 2, 2), np.float32))
        assert same_bits(out, want)


class TestMeanSquare:
    def test_unit_magnitudes(self):
        assert mean_square(Tensor([1.0, -1.0, 1.0, -1.0])).item() == 1.0

    def test_zero(self):
        assert mean_square(Tensor([0.0, 0.0])).item() == 0.0

    def test_three_four(self):
        # (9 + 16) / 2
        assert mean_square(Tensor([3.0, 4.0])).item() == pytest.approx(12.5)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            mean_square(Tensor(np.zeros(0)))

    @pytest.mark.parametrize("c", [0.5, 2.0, -3.0])
    def test_scaling_property(self, c):
        t = rand(64, seed=5)
        npt.assert_allclose(
            mean_square_value(c * t), c * c * mean_square_value(t), rtol=1e-12
        )

    def test_float32_storage_accumulates_in_float64(self):
        # many small float32 values whose naive float32 sum drifts
        t = Tensor(np.full(10_000_000, 1e-4, dtype=np.float32))
        assert mean_square_value(t) == pytest.approx(1e-8, rel=1e-6)


class TestCustomBackward:
    def test_round_with_identity_gradient(self):
        round_ste = register_custom_backward(
            lambda x: np.round(x), lambda g, x: g, name="round_ste"
        )
        t = Tensor(np.array([0.2, 0.7, 1.4]), requires_grad=True)
        out = round_ste(t).sum()
        out.backward()
        npt.assert_array_equal(t.grad, np.ones(3))

    def test_detach_semantics(self):
        stop = register_custom_backward(lambda x: x, lambda g, x: np.zeros_like(g))
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        stop(t).sum().backward()
        npt.assert_array_equal(t.grad, np.zeros(2))

    def test_square_matches_builtin_autodiff(self):
        square = register_custom_backward(lambda x: x * x, lambda g, x: 2.0 * x * g)
        v = rand(16, seed=3)
        t1 = Tensor(v, requires_grad=True)
        square(t1).sum().backward()
        t2 = Tensor(v, requires_grad=True)
        (t2 * t2).sum().backward()
        npt.assert_allclose(t1.grad, t2.grad, rtol=1e-12)

    def test_arity_mismatch_is_a_construction_error(self):
        with pytest.raises(OpConstructionError):
            register_custom_backward(lambda x, y: x + y, lambda g, x: g)

    def test_wrong_gradient_count_at_runtime(self):
        bad = register_custom_backward(
            lambda *xs: xs[0] + xs[1], lambda g, *xs: (g,), name="bad"
        )
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        out = bad(a, b).sum()
        with pytest.raises(OpConstructionError):
            out.backward()


class TestFiniteDifferenceCheck:
    def test_sum_is_exact_at_integer_points(self):
        # integer values with eps=0.5 keep every evaluation exact in floats
        point = Tensor(np.arange(1.0, 7.0))
        err = finite_difference_check(lambda t: t.sum(), point, eps=0.5)
        assert err == 0.0

    def test_mean_square_gradient(self):
        err = finite_difference_check(mean_square, Tensor([3.0, 4.0]), eps=1e-5)
        assert err <= 1e-6

    def test_coords_subset(self):
        point = Tensor(rand(6, seed=9))
        err = finite_difference_check(mean_square, point, coords=[0, 3])
        assert err <= 1e-6


class TestElementwiseAndPooling:
    def test_relu_forward_backward(self):
        t = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
        relu(t).sum().backward()
        npt.assert_array_equal(t.grad, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize(
        "fn", [tanh, sqrt, relu], ids=["tanh", "sqrt", "relu"]
    )
    def test_gradients_match_finite_differences(self, fn):
        # positive offset keeps sqrt in-domain and relu away from its kink
        point = Tensor(np.abs(rand(20, seed=21)) + 0.5)
        err = finite_difference_check(lambda t: mean_square(fn(t)), point)
        assert err <= 1e-6

    def test_sqrt_domain(self):
        with pytest.raises(DomainError):
            sqrt(Tensor([-1.0]))

    def test_avg_pool_preserves_constants(self):
        out = avg_pool2d(Tensor(np.full((1, 2, 4, 4), 3.25)), 2)
        npt.assert_array_equal(out.data, np.full((1, 2, 2, 2), 3.25))

    def test_avg_pool_backward_spreads_evenly(self):
        t = Tensor(rand((1, 1, 4, 4), seed=2), requires_grad=True)
        avg_pool2d(t, 2).sum().backward()
        npt.assert_allclose(t.grad, np.full((1, 1, 4, 4), 0.25))

    def test_max_pool_forward_and_routing(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        t = Tensor(x, requires_grad=True)
        out = max_pool2d(t, 2)
        npt.assert_array_equal(out.data, [[[[4.0]]]])
        out.sum().backward()
        npt.assert_array_equal(t.grad, [[[[0.0, 0.0], [0.0, 1.0]]]])

    def test_pool_shape_errors(self):
        with pytest.raises(ShapeError):
            avg_pool2d(Tensor(np.zeros((1, 1, 5, 5))), 2)

    def test_channel_broadcast(self):
        x = Tensor(rand((2, 3, 4, 4), seed=7), requires_grad=True)
        v = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        (x * v).sum().backward()
        expected = np.zeros(3)
        for c in range(3):
            expected[c] = x.data[:, c].sum()
        npt.assert_allclose(v.grad, expected, rtol=1e-12)
        npt.assert_allclose(
            x.grad, np.broadcast_to(v.data.reshape(1, 3, 1, 1), x.shape)
        )

    def test_unsupported_broadcast_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3))) + Tensor(np.zeros(3))


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            (t * 2.0).backward()

    def test_gradient_accumulates_over_reuse(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        ((t * 3.0) + (t * 4.0)).sum().backward()
        npt.assert_array_equal(t.grad, [7.0])

    def test_tape_freed_after_backward(self):
        t = Tensor(np.ones(4), requires_grad=True)
        mean_square(t).backward()
        assert T._tape_size() == 0

    def test_no_grad_records_nothing(self):
        t = Tensor(np.ones(4), requires_grad=True)
        with no_grad():
            out = mean_square(t)
        assert not out.requires_grad
        assert T._tape_size() == 0

    def test_linearity_of_backward(self):
        v = rand(12, seed=31)
        a, b = 2.5, -1.25

        def grad_of(fn):
            t = Tensor(v, requires_grad=True)
            fn(t).backward()
            return t.grad

        combined = grad_of(lambda t: a * mean_square(t) + b * t.sum())
        separate = a * grad_of(mean_square) + b * grad_of(lambda t: t.sum())
        npt.assert_allclose(combined, separate, rtol=1e-12)

    def test_determinism_bit_identical(self):
        def run():
            x = Tensor(rand((4, 3, 8, 8), seed=40), requires_grad=True)
            w = Tensor(rand((5, 3, 3, 3), seed=41), requires_grad=True)
            out = mean_square(relu(conv2d(x, w, pad=1)))
            out.backward()
            return out.data.copy(), x.grad.copy(), w.grad.copy()

        first = run()
        second = run()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_dtype_preserved_through_ops(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32))
        assert (x * 2.0).dtype == np.float32
        assert matmul(x, x).dtype == np.float32
