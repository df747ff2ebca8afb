import numpy as np
import numpy.testing as npt
import pytest

from conftest import finite_difference_check, nchw, nchw_memory, project
from qsat import tensor as T
from qsat.tensor import (
    DomainError,
    OpConstructionError,
    ShapeError,
    Tensor,
    add,
    avg_pool2d,
    conv2d,
    matmul,
    mean_square_value,
    no_grad,
    register_custom_backward,
    relu,
    reshape,
)
from qsat.network import BatchNorm2d, build_preset
from qsat.training import cross_entropy


def rand(shape, seed, scale=1.0):
    return np.random.default_rng(seed).normal(0.0, scale, size=shape)


def sum_of_squares(t):
    """sum(t * t) of a tensor of any shape, as reshape and matmul record it."""
    return matmul(reshape(t, (1, -1)), reshape(t, (-1, 1)))


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
        up = rand((3, 2), seed=12)
        point = Tensor(rand((3, 4), seed=10))
        err = finite_difference_check(lambda t: project(matmul(t, b), up), point)
        assert err <= 1e-6
        a = Tensor(rand((3, 4), seed=10))
        err = finite_difference_check(lambda t: project(matmul(a, t), up), Tensor(b.data))
        assert err <= 1e-6

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(3, 2\)"):
            matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 2))))


class TestConv2d:
    def test_scalar_kernel_on_ones(self):
        x = Tensor(np.ones((1, 3, 3, 1)))
        w = Tensor(np.full((1, 1, 1, 1), 2.0))
        out = conv2d(x, w)
        npt.assert_array_equal(out.data, np.full((1, 3, 3, 1), 2.0))

    def test_impulse_response_is_cross_correlation(self):
        # a centered delta reproduces the kernel without flipping
        x = np.zeros((1, 5, 5, 1))
        x[0, 2, 2, 0] = 1.0
        w = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        out = conv2d(Tensor(x), Tensor(w), stride=1, pad=0)
        # output[i,j] = sum_k w[k] x[i+k] places w reversed around the impulse
        npt.assert_array_equal(out.data[0, :, :, 0], w[0, 0, ::-1, ::-1])

    def test_output_geometry(self):
        out = conv2d(Tensor(np.zeros((2, 9, 9, 3))), Tensor(np.zeros((4, 3, 3, 3))),
                     stride=2, pad=1)
        # (9 + 2*1 - 3) / 2 + 1
        assert out.shape == (2, 5, 5, 4)

    def test_non_integral_extent_rejected(self):
        with pytest.raises(ShapeError, match="not integral"):
            conv2d(Tensor(np.zeros((1, 5, 5, 1))), Tensor(np.zeros((1, 1, 2, 2))),
                   stride=2, pad=0)
        with pytest.raises(ShapeError, match="not integral"):
            conv2d(Tensor(np.zeros((2, 8, 8, 3))), Tensor(np.zeros((4, 3, 3, 3))),
                   stride=2, pad=1)

    @pytest.mark.parametrize("recorded", [False, True], ids=["unrecorded", "recorded"])
    @pytest.mark.parametrize("k,stride,pad", [
        (3, 0, 1), (3, -1, 1), (3, 1, -1), (0, 1, 0), (5, 1, 0), (7, 2, 1),
    ], ids=["stride0", "stride-1", "pad-1", "kernel0", "kernel-past-input", "kernel-past-pad"])
    def test_bad_geometry_rejected(self, k, stride, pad, recorded):
        x = Tensor(np.zeros((2, 4, 4, 3)), requires_grad=recorded)
        with pytest.raises(ShapeError, match="conv geometry"):
            conv2d(x, Tensor(np.zeros((2, 3, k, k))), stride=stride, pad=pad)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="channel mismatch"):
            conv2d(Tensor(np.zeros((1, 4, 4, 3))), Tensor(np.zeros((2, 4, 3, 3))))

    def test_backward_vs_finite_differences(self):
        xv = rand((2, 8, 8, 3), seed=1)
        wv = rand((4, 3, 3, 3), seed=2)
        up = rand((2, 8, 8, 4), seed=7)
        w = Tensor(wv)
        err = finite_difference_check(
            lambda t: project(conv2d(t, w, stride=1, pad=1), up), Tensor(xv)
        )
        assert err <= 1e-5
        x = Tensor(xv)
        err = finite_difference_check(
            lambda t: project(conv2d(x, t, stride=1, pad=1), up), Tensor(wv)
        )
        assert err <= 1e-5


    @pytest.mark.parametrize("stride,pad,size", [(2, 1, 7), (1, 0, 6), (2, 0, 7)],
                             ids=["stride2", "pad0", "stride2-pad0"])
    def test_backward_vs_finite_differences_stride_and_pad(self, stride, pad, size):
        xv = rand((2, size, size, 3), seed=3)
        wv = rand((4, 3, 3, 3), seed=4)
        ho = (size + 2 * pad - 3) // stride + 1
        up = rand((2, ho, ho, 4), seed=8)
        w = Tensor(wv)
        err = finite_difference_check(
            lambda t: project(conv2d(t, w, stride=stride, pad=pad), up), Tensor(xv)
        )
        assert err <= 1e-5
        x = Tensor(xv)
        err = finite_difference_check(
            lambda t: project(conv2d(x, t, stride=stride, pad=pad), up), Tensor(wv)
        )
        assert err <= 1e-5

    def test_input_without_grad_skips_input_gradient(self, monkeypatch):
        def no_scatter(*args):
            raise AssertionError("_col2im called for an input that needs no gradient")

        monkeypatch.setattr(T, "_col2im", no_scatter)
        x = Tensor(rand((2, 8, 8, 3), seed=5))
        w = Tensor(rand((4, 3, 3, 3), seed=6), requires_grad=True)
        project(conv2d(x, w, stride=1, pad=1)).backward()
        assert x.grad is None
        assert w.grad is not None and np.any(w.grad != 0)


class TestLayoutInvariance:
    """Memory layout is invisible: a C-contiguous NHWC input and its copy
    whose memory runs NCHW give bit-identical outputs and gradients."""

    @staticmethod
    def both_layouts(run, x):
        first = run(np.ascontiguousarray(x))
        second = run(nchw_memory(x))
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.shape == b.shape
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("stride,pad,size", [(1, 1, 8), (2, 1, 9), (1, 0, 8)])
    def test_conv2d(self, stride, pad, size):
        wv = rand((5, 3, 3, 3), seed=51).astype(np.float32)
        up = rand((4, (size + 2 * pad - 3) // stride + 1,
                   (size + 2 * pad - 3) // stride + 1, 5), seed=52).astype(np.float32)

        def run(xv):
            x = Tensor(xv, requires_grad=True)
            w = Tensor(wv, requires_grad=True)
            out = conv2d(x, w, stride=stride, pad=pad)
            project(out, up).backward()
            return out.data, x.grad, w.grad

        self.both_layouts(run, rand((4, size, size, 3), seed=50).astype(np.float32))

    def test_batch_norm(self):
        up = rand((4, 8, 8, 6), seed=54).astype(np.float32)

        def run(xv):
            bn = BatchNorm2d(6)
            bn.gamma.data = (1.0 + 0.1 * rand(6, seed=55)).astype(np.float32)
            bn.beta.data = rand(6, seed=56).astype(np.float32)
            x = Tensor(xv, requires_grad=True)
            out = bn(x, training=True)
            project(out, up).backward()
            with no_grad():
                frozen = bn(Tensor(xv), training=False)
            return (out.data, x.grad, bn.gamma.grad, bn.beta.grad,
                    bn.running_mean.data, bn.running_var.data, frozen.data)

        self.both_layouts(run, rand((4, 8, 8, 6), seed=53, scale=2.0).astype(np.float32))

    @pytest.mark.parametrize("k", [2, 4])
    def test_avg_pool(self, k):
        up = rand((3, 8 // k, 8 // k, 5), seed=58).astype(np.float32)

        def run(xv):
            x = Tensor(xv, requires_grad=True)
            out = avg_pool2d(x, k)
            project(out, up).backward()
            return out.data, x.grad

        # float32 means over windows of mixed magnitudes round differently
        # when summed in a different order
        xv = rand((3, 8, 8, 5), seed=57) * 10.0 ** rand((3, 8, 8, 5), seed=59)
        self.both_layouts(run, xv.astype(np.float32))

    def test_convnet_bn_4bit_training_step(self):
        images = rand((4, 32, 32, 3), seed=60).astype(np.float32)
        labels = np.array([0, 3, 7, 9])

        def run(xv):
            model = build_preset("convnet-bn", weight_bits=4, act_bits=4, seed=61)
            # the model takes NCHW images and runs them as an NHWC view
            logits = model.forward(Tensor(xv.transpose(0, 3, 1, 2)), training=True)
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
    an NCHW copy, whatever the memory layout of its input.  The NCHW
    reference sees the NHWC arrays through one transpose."""

    @staticmethod
    def mixed(shape, seed, k=2):
        # magnitudes spread over eight decades, so any change of summation
        # order shows in the last bit; an all -0.0 window pins the +0 start
        # and a window mixing +0.0 and -0.0 the zero-sign rules
        x = rand(shape, seed) * 10.0 ** (4 * rand(shape, seed + 1))
        x = x.astype(np.float32)
        x[0, :k, :k, 0] = -0.0
        x[-1, -k:, -k:, -1] = 0.0
        x[-1, -k:, -k::2, -1] = -0.0
        return x

    @pytest.mark.parametrize("layout", ["contiguous", "nchw_memory"])
    @pytest.mark.parametrize("k,h,w", [
        (2, 8, 6), (3, 9, 12), (4, 8, 16), (2, 2, 8),   # smaller windows
        (4, 4, 4), (7, 7, 7), (8, 8, 8),                # global
        (3, 6, 3), (2, 4, 2),                           # full width: one run
        (8, 16, 16),                                    # wide, not global
    ])
    def test_forward_and_backward(self, k, h, w, layout):
        x = self.mixed((3, h, w, 5), seed=70 + k, k=k)
        g = self.mixed((3, h // k, w // k, 5), seed=80 + k, k=1)
        if layout == "nchw_memory":
            x = nchw_memory(x)
            if g.shape[1:3] != (1, 1):
                g = nchw_memory(g)
        want_out, want_gx = pool_reference(nchw(x), k, nchw(g))
        t = Tensor(x, requires_grad=True)
        out = avg_pool2d(t, k)
        project(out, g).backward()
        assert same_bits(nchw(out.data), want_out)
        assert same_bits(nchw(t.grad), want_gx)
        if k < 8 and w > k:
            assert out.data.flags.c_contiguous

    def test_single_image_single_channel(self):
        x = self.mixed((1, 6, 8, 1), seed=90)
        g = self.mixed((1, 3, 4, 1), seed=91, k=1)
        t = Tensor(x, requires_grad=True)
        out = avg_pool2d(t, 2)
        project(out, g).backward()
        want_out, want_gx = pool_reference(nchw(x), 2, nchw(g))
        assert same_bits(nchw(out.data), want_out)
        assert same_bits(nchw(t.grad), want_gx)

    def test_zero_signs_follow_numpy(self):
        x = np.zeros((2, 4, 4, 3), dtype=np.float32)
        x[0] = -0.0
        x[1, :, ::2] = -0.0
        out = avg_pool2d(Tensor(x), 2).data
        want, _ = pool_reference(nchw(x), 2, np.zeros((2, 3, 2, 2), np.float32))
        assert same_bits(nchw(out), want)


def im2col_reference(x, k, stride, pad):
    """The lowering in one pass over the batch: one padded copy, then one
    slice copy per kernel offset."""
    n, c, h, w = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    ho, wo = (hp - k) // stride + 1, (wp - k) // stride + 1
    xp = np.zeros((n, hp, wp, c), dtype=x.dtype)
    xp[:, pad : pad + h, pad : pad + w] = x.transpose(0, 2, 3, 1)
    col = np.empty((n, ho, wo, c, k, k), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            col[..., i, j] = xp[:, i : i + stride * ho : stride, j : j + stride * wo : stride]
    return col.reshape(n * ho * wo, c * k * k), ho, wo, (hp, wp)


def col2im_reference(dcol, x_shape, k, stride, pad, ho, wo, padded_shape):
    """The scatter-add in one pass over the batch, offsets in (i, j) order."""
    n, c, h, w = x_shape
    hp, wp = padded_shape
    dxp = np.zeros((n, hp, wp, c), dtype=dcol.dtype)
    d6 = dcol.reshape(n, ho, wo, c, k, k)
    for i in range(k):
        for j in range(k):
            dxp[:, i : i + stride * ho : stride, j : j + stride * wo : stride] += d6[..., i, j]
    return dxp[:, pad : hp - pad, pad : wp - pad].transpose(0, 3, 1, 2)


class TestLoweringBitIdentity:
    """The lowering copies and scatter-adds run image range by image range;
    their bytes equal one pass over the whole batch, and conv2d still runs
    one GEMM over all patch rows.  The NCHW references see the NHWC arrays
    through one transpose."""

    @staticmethod
    def check(x, k, stride, pad):
        col, ho, wo, padded = T._im2col(x, k, stride, pad)
        want_col, want_ho, want_wo, want_padded = im2col_reference(nchw(x), k, stride, pad)
        assert (ho, wo, padded) == (want_ho, want_wo, want_padded)
        assert same_bits(col, want_col)
        # magnitudes over eight decades: any change in the order of the
        # overlapping adds shows in the last bit
        dcol = (rand(col.shape, seed=71) * 10.0 ** (4 * rand(col.shape, seed=72))).astype(x.dtype)
        dx = T._col2im(dcol, x.shape, k, stride, pad, ho, wo, padded)
        want_dx = col2im_reference(dcol, nchw(x).shape, k, stride, pad, ho, wo, padded)
        assert same_bits(nchw(dx), want_dx)

    @staticmethod
    def layout(x, name):
        return nchw_memory(x) if name == "nchw_memory" else x

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout_name", ["contiguous", "nchw_memory"])
    def test_several_chunks_and_a_partial_one(self, layout_name, dtype):
        x = rand((37, 32, 32, 3), seed=70, scale=3.0).astype(dtype)
        image_bytes = 32 * 32 * 3 * 9 * x.itemsize
        step = T._images_per_chunk(image_bytes)
        assert 1 < step < 37 and 37 % step
        self.check(self.layout(x, layout_name), 3, 1, 1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout_name", ["contiguous", "nchw_memory"])
    @pytest.mark.parametrize("k,stride,pad", [
        (1, 1, 0), (1, 2, 0), (1, 1, 1), (3, 1, 1), (3, 2, 1), (3, 1, 0), (3, 2, 0),
    ])
    @pytest.mark.parametrize("n", [1, 3, 37])
    def test_kernels_strides_and_pads(self, n, k, stride, pad, layout_name, dtype,
                                      monkeypatch):
        size = 9 if stride == 2 else 8
        x = rand((n, size, size, 5), seed=73, scale=3.0).astype(dtype)
        ho = (size + 2 * pad - k) // stride + 1
        image_bytes = ho * ho * 5 * k * k * x.itemsize
        # five images per chunk: 37 is seven chunks and a partial one
        monkeypatch.setattr(T, "_LOWERING_CHUNK_BYTES", 5 * image_bytes + image_bytes // 2)
        assert T._images_per_chunk(image_bytes) == 5
        self.check(self.layout(x, layout_name), k, stride, pad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ci,size,co", [(3, 32, 16), (16, 4, 12), (24, 8, 32)])
    def test_conv2d_runs_one_gemm_over_all_rows(self, ci, size, co, dtype, monkeypatch):
        # OpenBLAS gives other bits for a GEMM over fewer rows at some of
        # these shapes, so a GEMM per chunk would show here
        n = 37
        image_bytes = size * size * ci * 9 * np.dtype(dtype).itemsize
        monkeypatch.setattr(T, "_LOWERING_CHUNK_BYTES", 5 * image_bytes)
        shape = (n, size, size, ci)
        x = (rand(shape, seed=74) * 10.0 ** rand(shape, seed=77)).astype(dtype)
        wv = rand((co, ci, 3, 3), seed=75).astype(dtype)
        up = rand((n, size, size, co), seed=76).astype(dtype)
        xt, wt = Tensor(x, requires_grad=True), Tensor(wv, requires_grad=True)
        out = conv2d(xt, wt, stride=1, pad=1)
        project(out, up).backward()
        col, ho, wo, padded = im2col_reference(nchw(x), 3, 1, 1)
        wmat = wv.reshape(co, ci * 9)
        gcol = up.reshape(-1, co)
        want = (col @ wmat.T).reshape(n, size, size, co)
        assert same_bits(out.data, want)
        assert same_bits(wt.grad, (gcol.T @ col).reshape(wv.shape))
        want_dx = col2im_reference(gcol @ wmat, nchw(x).shape, 3, 1, 1, ho, wo, padded)
        assert same_bits(nchw(xt.grad), want_dx)


def kernel_row_reference(x, k, stride, pad):
    """Patch rows with columns in (ki, kj, c) order, in one pass over the
    batch: one padded copy, then one slice copy per kernel offset."""
    n, h, w, c = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    ho, wo = (hp - k) // stride + 1, (wp - k) // stride + 1
    xp = np.zeros((n, hp, wp, c), dtype=x.dtype)
    xp[:, pad : pad + h, pad : pad + w] = x
    col = np.empty((n, ho, wo, k, k, c), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            col[:, :, :, i, j] = xp[:, i : i + stride * ho : stride, j : j + stride * wo : stride]
    return col.reshape(n * ho * wo, k * k * c), ho, wo


class TestUnrecordedConv:
    """A convolution that goes on no tape lowers its rows in (ki, kj, c)
    order, range by range, and runs one GEMM over all of them against the
    weight permuted to (c_out, k, k, c_in)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout_name", ["contiguous", "nchw_memory"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("ci,size,co", [(3, 32, 16), (16, 4, 12), (24, 8, 32)])
    def test_one_gemm_over_kernel_rows(self, ci, size, co, stride, layout_name, dtype,
                                       monkeypatch):
        n, size = 37, size + stride - 1
        ho = (size + 2 - 3) // stride + 1
        image_bytes = ho * ho * ci * 9 * np.dtype(dtype).itemsize
        # five images per chunk: 37 is seven chunks and a partial one
        monkeypatch.setattr(T, "_LOWERING_CHUNK_BYTES", 5 * image_bytes + image_bytes // 2)
        assert T._images_per_chunk(image_bytes) == 5
        shape = (n, size, size, ci)
        x = (rand(shape, seed=81) * 10.0 ** rand(shape, seed=82)).astype(dtype)
        wv = rand((co, ci, 3, 3), seed=83).astype(dtype)
        with no_grad():
            out = conv2d(Tensor(TestLoweringBitIdentity.layout(x, layout_name)),
                         Tensor(wv, requires_grad=True), stride=stride, pad=1)
        col, ho, wo = kernel_row_reference(x, 3, stride, 1)
        want = col @ wv.transpose(0, 2, 3, 1).reshape(co, -1).T
        assert same_bits(out.data, want.reshape(n, ho, wo, co))

    @pytest.mark.parametrize("c", [1, 3, 16])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_equals_the_recorded_conv_on_exact_sums(self, stride, pad, k, c):
        # small integers: every partial sum is exact in float32, so the two
        # column orders give one result
        rng = np.random.default_rng(84)
        size = 9 if stride == 2 else 8
        x = rng.integers(-8, 9, (6, size, size, c)).astype(np.float32)
        wv = rng.integers(-4, 5, (5, c, k, k)).astype(np.float32)
        recorded = conv2d(Tensor(x, requires_grad=True), Tensor(wv), stride=stride, pad=pad)
        assert recorded.requires_grad
        with no_grad():
            unrecorded = conv2d(Tensor(x), Tensor(wv, requires_grad=True), stride=stride, pad=pad)
        npt.assert_array_equal(unrecorded.data, recorded.data)

    def test_appends_nothing_to_the_tape(self):
        xv, wv = rand((2, 8, 8, 3), seed=85), rand((4, 3, 3, 3), seed=86)
        with no_grad():
            out = conv2d(Tensor(xv, requires_grad=True), Tensor(wv, requires_grad=True), pad=1)
        assert not out.requires_grad and not T._tape
        out = conv2d(Tensor(xv), Tensor(wv), pad=1)
        assert T.is_grad_enabled() and not out.requires_grad and not T._tape


class TestMeanSquare:
    def test_unit_magnitudes(self):
        assert mean_square_value(Tensor([1.0, -1.0, 1.0, -1.0])) == 1.0

    def test_zero(self):
        assert mean_square_value(Tensor([0.0, 0.0])) == 0.0

    def test_three_four(self):
        # (9 + 16) / 2
        assert mean_square_value(np.array([3.0, 4.0])) == 12.5

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            mean_square_value(Tensor(np.zeros(0)))

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
        project(round_ste(t)).backward()
        npt.assert_array_equal(t.grad, np.ones(3))

    def test_detach_semantics(self):
        stop = register_custom_backward(lambda x: x, lambda g, x: np.zeros_like(g))
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        project(stop(t)).backward()
        npt.assert_array_equal(t.grad, np.zeros(2))

    def test_square_matches_builtin_autodiff(self):
        square = register_custom_backward(lambda x: x * x, lambda g, x: 2.0 * x * g)
        v = rand(16, seed=3)
        t1 = Tensor(v, requires_grad=True)
        project(square(t1)).backward()
        t2 = Tensor(v, requires_grad=True)
        sum_of_squares(t2).backward()
        npt.assert_allclose(t1.grad, t2.grad, rtol=1e-12)

    def test_wrong_gradient_count_at_runtime(self):
        bad = register_custom_backward(
            lambda *xs: xs[0] + xs[1], lambda g, *xs: (g,), name="bad"
        )
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        out = project(bad(a, b))
        with pytest.raises(OpConstructionError):
            out.backward()


class TestFiniteDifferenceCheck:
    def test_sum_is_exact_at_integer_points(self):
        # integer values with eps=0.5 keep every evaluation exact in floats
        point = Tensor(np.arange(1.0, 7.0))
        err = finite_difference_check(project, point, eps=0.5)
        assert err == 0.0

    def test_sum_of_squares_gradient(self):
        err = finite_difference_check(sum_of_squares, Tensor([3.0, 4.0]), eps=1e-5)
        assert err <= 1e-6

    def test_coords_subset(self):
        point = Tensor(rand(6, seed=9))
        err = finite_difference_check(sum_of_squares, point, coords=[0, 3])
        assert err <= 1e-6


class TestElementwiseAndPooling:
    def test_relu_forward_backward(self):
        t = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
        project(relu(t)).backward()
        npt.assert_array_equal(t.grad, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("fn", [relu], ids=["relu"])
    def test_gradients_match_finite_differences(self, fn):
        # positive offset keeps relu away from its kink
        point = Tensor(np.abs(rand(20, seed=21)) + 0.5)
        up = rand(20, seed=22)
        err = finite_difference_check(lambda t: project(fn(t), up), point)
        assert err <= 1e-6

    def test_avg_pool_preserves_constants(self):
        out = avg_pool2d(Tensor(np.full((1, 4, 4, 2), 3.25)), 2)
        npt.assert_array_equal(out.data, np.full((1, 2, 2, 2), 3.25))

    def test_avg_pool_backward_spreads_evenly(self):
        t = Tensor(rand((1, 4, 4, 1), seed=2), requires_grad=True)
        project(avg_pool2d(t, 2)).backward()
        npt.assert_allclose(t.grad, np.full((1, 4, 4, 1), 0.25))

    def test_pool_shape_errors(self):
        with pytest.raises(ShapeError):
            avg_pool2d(Tensor(np.zeros((1, 5, 5, 1))), 2)

    @pytest.mark.parametrize("k", [0, -2])
    def test_pool_window_below_one_rejected(self, k):
        with pytest.raises(ShapeError, match="window of at least 1"):
            avg_pool2d(Tensor(np.zeros((1, 4, 4, 1))), k)

    def test_add_forward_backward(self):
        a = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        b = Tensor(np.array([0.5, 4.0]), requires_grad=True)
        out = a + b
        npt.assert_array_equal(out.data, [1.5, 2.0])
        project(out, [3.0, -1.0]).backward()
        npt.assert_array_equal(a.grad, [3.0, -1.0])
        npt.assert_array_equal(b.grad, [3.0, -1.0])

    def test_unsupported_broadcast_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3))) + Tensor(np.zeros(3))


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            relu(t).backward()

    def test_gradient_accumulates_over_reuse(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        project(add(t, t), [3.5]).backward()
        npt.assert_array_equal(t.grad, [7.0])

    def test_tape_freed_after_backward(self):
        t = Tensor(np.ones(4), requires_grad=True)
        project(t).backward()
        assert len(T._tape) == 0

    def test_no_grad_records_nothing(self):
        t = Tensor(np.ones(4), requires_grad=True)
        with no_grad():
            out = project(relu(t))
        assert not out.requires_grad
        assert len(T._tape) == 0

    def test_linearity_of_backward(self):
        v = rand(12, seed=31)
        up = rand(12, seed=32)
        a, b = 2.5, -1.25

        def grad_of(fn):
            t = Tensor(v, requires_grad=True)
            fn(t).backward()
            return t.grad

        combined = grad_of(lambda t: project(relu(t), a * up) + project(t, np.full(12, b)))
        separate = a * grad_of(lambda t: project(relu(t), up)) + b * grad_of(project)
        npt.assert_allclose(combined, separate, rtol=1e-12)

    def test_determinism_bit_identical(self):
        def run():
            x = Tensor(rand((4, 8, 8, 3), seed=40), requires_grad=True)
            w = Tensor(rand((5, 3, 3, 3), seed=41), requires_grad=True)
            out = project(relu(conv2d(x, w, pad=1)), rand((4, 8, 8, 5), seed=42))
            out.backward()
            return out.data.copy(), x.grad.copy(), w.grad.copy()

        first = run()
        second = run()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_dtype_preserved_through_ops(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32))
        assert (x + x).dtype == np.float32
        assert relu(x).dtype == np.float32
        assert matmul(x, x).dtype == np.float32
