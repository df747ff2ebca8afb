"""Dense-tensor algebra with reverse-mode automatic differentiation.

A deliberately small engine: numpy float32/float64 arrays, a global tape
recorded in construction order, and only the ops a model's forward
records: ``add`` (same shape, for residual blocks), ``matmul``,
``reshape``, ``relu``, ``conv2d`` and ``avg_pool2d``.  Fused ops elsewhere
(the effective weight, activation quantization, batch normalization, the
loss) record their own hand-written backward rules with ``_record``;
``register_custom_backward`` wraps a pair of array functions as such an op,
and ``Tensor.backward`` raises ``OpConstructionError`` when a rule returns
the wrong number of gradients.  ``mean_square_value`` is the weight
statistics' second moment, taken off the graph in float64 so that
it stays stable across layers of very different sizes.

The tape is freed after every ``backward()`` call; training loops rebuild
the graph each step.

4-D activations and their gradients are NHWC, (n, h, w, c); weights keep
their (c_out, c_in, k, k) layout.  Float32 sums follow memory order, so
average pooling fixes its summation order explicitly instead of relying on
the layout it is given.

Convolution lowers to one GEMM over patch rows.  A convolution that goes
on the tape orders its columns (c, ki, kj): that order fixes the float32
bits of every trained weight, and its gradient scatter is the inverse
gather.  One that goes on no tape (under ``no_grad``, or when no operand
requires grad, as in every evaluation) has no backward and no trained
byte to keep, so it orders its columns (ki, kj, c), which copies k*c-long
contiguous runs of the NHWC input; the folded inference paths lower the
same way.  Its float32 sums may round differently from the recorded
order's.  The copies that build the rows, and the scatter-adds that fold
their gradient back, run over ranges of whole images sized to stay in
cache; they only move data, so the chunking changes no byte.  The GEMM
always sees the whole buffer, since BLAS results can depend on the
operand shape.
"""

from __future__ import annotations

import contextlib

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Tensor",
    "ShapeError",
    "DomainError",
    "OpConstructionError",
    "no_grad",
    "is_grad_enabled",
    "add",
    "matmul",
    "reshape",
    "relu",
    "conv2d",
    "avg_pool2d",
    "mean_square_value",
    "register_custom_backward",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """Input values lie outside the operation's domain."""


class OpConstructionError(TypeError):
    """A backward rule returned a gradient count other than its op's
    input count."""


_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_tape: list["_Node"] = []
_grad_enabled: bool = True


def is_grad_enabled() -> bool:
    return _grad_enabled


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the context (evaluation mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class _Node:
    """One tape entry: op id, output, inputs, and the backward rule."""

    __slots__ = ("op", "out", "parents", "backward")

    def __init__(self, op, out, parents, backward):
        self.op = op
        self.out = out
        self.parents = parents
        self.backward = backward


class Tensor:
    """Dense n-dimensional real array with an optional gradient slot."""

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output; frees the tape."""
        if self.data.size != 1:
            raise ShapeError(
                f"backward() requires a scalar output, got shape {self.shape}"
            )
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that is not part of a graph")
        self.grad = np.ones_like(self.data)
        # Construction order is a topological order, so the reversed tape
        # visits every node after all of its consumers.
        try:
            for node in reversed(_tape):
                out_grad = node.out.grad
                if out_grad is None:
                    continue
                grads = node.backward(out_grad)
                if not isinstance(grads, tuple):
                    grads = (grads,)
                if len(grads) != len(node.parents):
                    raise OpConstructionError(
                        f"op '{node.op}' produced {len(grads)} gradients for "
                        f"{len(node.parents)} inputs"
                    )
                for parent, g in zip(node.parents, grads):
                    if g is None or not parent.requires_grad:
                        continue
                    g = np.asarray(g, dtype=parent.data.dtype)
                    if g.shape != parent.data.shape:
                        raise ShapeError(
                            f"op '{node.op}' produced gradient of shape {g.shape} "
                            f"for input of shape {parent.data.shape}"
                        )
                    if parent.grad is None:
                        # order="K" keeps a gradient's memory order
                        parent.grad = g.copy(order="K")
                    else:
                        parent.grad += g
        finally:
            _tape.clear()

    def __add__(self, other):
        return add(self, other)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"


def _records(parents: tuple[Tensor, ...]) -> bool:
    """Whether an op on ``parents`` goes on the tape."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _record(op: str, out: Tensor, parents: tuple[Tensor, ...], backward) -> Tensor:
    if _records(parents):
        out.requires_grad = True
        _tape.append(_Node(op, out, parents, backward))
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    if a.shape != b.shape:
        raise ShapeError(f"add expects operands of one shape, got {a.shape} and {b.shape}")
    out = Tensor(a.data + b.data)
    return _record("add", out, (a, b), lambda g: (g, g))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product with the standard transpose-product backward."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    out = Tensor(a.data @ b.data)

    def backward(g):
        return (g @ b.data.T, a.data.T @ g)

    return _record("matmul", out, (a, b), backward)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    return _record("reshape", out, (a,), lambda g: (g.reshape(a.shape),))


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0))

    def backward(g):
        return (g * (a.data > 0),)

    return _record("relu", out, (a,), backward)


def mean_square_value(arr) -> float:
    """Float64 mean of squares of a raw array or Tensor, off the graph."""
    data = arr.data if isinstance(arr, Tensor) else np.asarray(arr)
    if data.size == 0:
        raise DomainError("mean_square_value of an empty tensor")
    return float(np.mean(np.square(data, dtype=np.float64), dtype=np.float64))


# -- convolution / pooling ---------------------------------------------


# The k*k slice copies and adds of the lowering run over ranges of whole
# images whose patch rows fill about this many bytes, so that the rows a
# slice writes are still in L2 when the next slice writes beside them.
_LOWERING_CHUNK_BYTES = 512 * 1024


def _images_per_chunk(image_bytes: int) -> int:
    return max(1, _LOWERING_CHUNK_BYTES // max(1, image_bytes))


def _im2col(x: np.ndarray, k: int, stride: int, pad: int, kernel_rows: bool = False):
    """Patch rows of an NHWC array of any memory layout.

    Rows run over (n, ho, wo).  Columns run over (c, ki, kj), or over
    (ki, kj, c) with ``kernel_rows``.  The input is read into a padded NHWC
    buffer; (c, ki, kj) columns are then one slice copy per kernel offset,
    and (ki, kj, c) columns one copy of ``_patch_windows``' view.  Both
    steps run over ranges of whole images whose patch rows fill about
    ``_LOWERING_CHUNK_BYTES``, so each range is padded and gathered while
    it is still in cache.  Every element gets the same copy as in one pass
    over the batch, and callers run one GEMM on the whole buffer.
    """
    n, h, w, c = x.shape
    ho, wo, hp, wp = _conv_extent(h, w, k, stride, pad)
    col = np.empty((n, ho, wo, k, k * c) if kernel_rows else (n, ho, wo, c, k, k), dtype=x.dtype)
    step = _images_per_chunk(ho * wo * c * k * k * x.itemsize)
    # one padded buffer for a whole chunk; its border stays zero
    xp = np.zeros((min(n, step), hp, wp, c), dtype=x.dtype)
    windows = _patch_windows(xp, k, stride) if kernel_rows else None
    for s in range(0, n, step):
        cs = col[s : s + step]
        xs = xp[: len(cs)]
        xs[:, pad : pad + h, pad : pad + w] = x[s : s + step]
        if kernel_rows:
            cs[...] = windows[: len(cs)]
        else:
            for i in range(k):
                for j in range(k):
                    cs[..., i, j] = xs[:, i : i + stride * ho : stride, j : j + stride * wo : stride]
    return col.reshape(n * ho * wo, c * k * k), ho, wo, (hp, wp)


def _patch_windows(xp: np.ndarray, k: int, stride: int) -> np.ndarray:
    """A read-only (n, ho, wo, k, k*c) view of ``xp``, a C-contiguous padded
    channels-last buffer: the patch rows of its images with columns in
    (ki, kj, c) order.

    Along a padded row, the k*c values under kernel row ki at output
    column j are one contiguous run starting at j*stride*c, so the view is
    a window of k rows by k*c values, stepped by stride rows and stride*c
    values.  Copying it into a buffer of its shape lowers the images with
    k*c-long contiguous runs, where the (c, ki, kj) order stores c-long
    runs at a stride of k*k.
    """
    n, hp, wp, c = xp.shape
    rows = xp.reshape(n, hp, wp * c)
    return sliding_window_view(rows, (k, k * c), axis=(1, 2))[:, ::stride, :: stride * c]


def _conv_extent(h: int, w: int, k: int, stride: int, pad: int):
    """Output and padded extents (ho, wo, hp, wp) of a k x k conv."""
    hp, wp = h + 2 * pad, w + 2 * pad
    if stride < 1 or pad < 0 or not 1 <= k <= min(hp, wp):
        raise ShapeError(
            f"conv geometry needs stride >= 1, pad >= 0 and 1 <= kernel <= padded "
            f"extent: input {h}x{w}, kernel {k}, stride {stride}, pad {pad}"
        )
    if (hp - k) % stride or (wp - k) % stride:
        raise ShapeError(
            f"conv output extent not integral: input {h}x{w}, kernel {k}, "
            f"stride {stride}, pad {pad}"
        )
    return (hp - k) // stride + 1, (wp - k) // stride + 1, hp, wp


def _col2im(dcol, x_shape, k, stride, pad, ho, wo, padded_shape):
    """Scatter-add patch-row gradients back to an NHWC array; the inverse
    of ``_im2col``'s gather.

    The k*k slice adds run image range by image range, as in ``_im2col``;
    every element still receives its adds in the same (i, j) order.
    """
    n, h, w, c = x_shape
    hp, wp = padded_shape
    dxp = np.zeros((n, hp, wp, c), dtype=dcol.dtype)
    d6 = dcol.reshape(n, ho, wo, c, k, k)
    step = _images_per_chunk(ho * wo * c * k * k * dcol.itemsize)
    for s in range(0, n, step):
        ds, gs = dxp[s : s + step], d6[s : s + step]
        for i in range(k):
            for j in range(k):
                ds[:, i : i + stride * ho : stride, j : j + stride * wo : stride] += gs[..., i, j]
    return dxp[:, pad : hp - pad, pad : wp - pad]


def conv2d(x: Tensor, w: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation of NxHxWxC input with C'xCxkxk kernels, no bias.

    A convolution that goes on the tape lowers its patch rows in (c, ki, kj)
    order, which fixes the float32 bits of every trained weight; backward
    reads those rows for the weight gradient and scatters the input
    gradient back through ``_col2im``.  One that does not (under
    ``no_grad``, or when no operand requires grad) has no backward, so it
    takes the faster (ki, kj, c) order against the weight permuted to
    (C', k, k, C).  Either way one GEMM runs over all rows, and the
    (n, ho, wo, C') output is its (n*ho*wo, C') result reshaped, not
    copied.  Backward reads its gradient as (n*ho*wo, C') rows the same way
    and skips the input gradient when ``x`` needs none.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D operands, got {x.shape} and {w.shape}")
    co, ci, k, k2 = w.shape
    if k != k2:
        raise ShapeError(f"conv2d kernels must be square, got {w.shape}")
    if ci != x.shape[3]:
        raise ShapeError(
            f"conv2d channel mismatch: input {x.shape} vs kernel {w.shape}"
        )
    n = x.shape[0]
    kernel_rows = not _records((x, w))
    col, ho, wo, padded = _im2col(x.data, k, stride, pad, kernel_rows)
    wmat = (w.data.transpose(0, 2, 3, 1) if kernel_rows else w.data).reshape(co, ci * k * k)
    out = Tensor((col @ wmat.T).reshape(n, ho, wo, co))

    def backward(g):
        gcol = g.reshape(-1, co)
        dw = (gcol.T @ col).reshape(w.shape)
        if not x.requires_grad:
            return (None, dw)
        dx = _col2im(gcol @ wmat, x.shape, k, stride, pad, ho, wo, padded)
        return (dx, dw)

    return _record("conv2d", out, (x, w), backward)


def avg_pool2d(x: Tensor, k: int) -> Tensor:
    """Non-overlapping kxk mean pooling (window average, stride k).

    Windows narrower than 8 and than the plane are summed on the NHWC
    input in numpy's own order for ``mean(axis=(3, 5))`` over an NCHW
    copy: each window row left to right, then the row sums top to bottom
    onto +0.  Wider windows, and windows as wide as the plane (one
    contiguous run in that copy, which numpy sums as such), take that mean
    directly; their output is an NHWC view of it.
    """
    if x.ndim != 4:
        raise ShapeError(f"avg_pool2d expects a 4-D input, got {x.shape}")
    n, h, w, c = x.shape
    if k < 1:
        raise ShapeError(f"avg_pool2d needs a window of at least 1, got {k}")
    if h % k or w % k:
        raise ShapeError(f"avg_pool2d: spatial dims {h}x{w} not divisible by {k}")
    ho, wo = h // k, w // k
    if k >= 8 or wo == 1:
        win = np.ascontiguousarray(x.data.transpose(0, 3, 1, 2)).reshape(n, c, ho, k, wo, k)
        data = win.mean(axis=(3, 5)).transpose(0, 2, 3, 1)
    else:
        data = np.zeros((n, ho, wo, c), dtype=x.dtype)
        row = np.empty_like(data)
        for i in range(k):
            np.copyto(row, x.data[:, i::k, 0::k])
            for j in range(1, k):
                row += x.data[:, i::k, j::k]
            data += row
        # numpy's mean divides by the intp item count
        np.true_divide(data, np.intp(k * k), out=data, casting="unsafe")
    out = Tensor(data)
    inv = 1.0 / (k * k)

    def backward(g):
        gx = np.empty((n, ho, k, wo, k, c), dtype=x.dtype)
        gx[...] = (g * inv)[:, :, None, :, None, :]
        return (gx.reshape(n, h, w, c),)

    return _record("avg_pool2d", out, (x,), backward)


# -- custom backward registration ---------------------------------------


def register_custom_backward(forward_fn, backward_fn, name: str | None = None):
    """Build an op whose gradient is ``backward_fn``, verbatim.

    ``forward_fn(*input_arrays) -> array`` computes the value;
    ``backward_fn(out_grad, *input_arrays)`` must return one gradient array
    per input (a bare array is accepted for single-input ops).  The node
    created by the returned op routes gradients through ``backward_fn``
    and never differentiates ``forward_fn`` itself.  A call with the wrong
    number of inputs fails in ``forward_fn`` or ``backward_fn`` itself.
    """
    op_name = name or getattr(forward_fn, "__name__", "custom")

    def op(*tensors: Tensor) -> Tensor:
        arrays = tuple(t.data for t in tensors)
        out = Tensor(np.asarray(forward_fn(*arrays)))
        return _record(op_name, out, tensors, lambda g: backward_fn(g, *arrays))

    return op
