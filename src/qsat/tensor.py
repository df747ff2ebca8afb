"""Dense-tensor algebra with reverse-mode automatic differentiation.

A deliberately small engine: numpy float32/float64 arrays, a global tape
recorded in construction order, and a registration hook for ops that need
hand-written backward rules (straight-through rounding, detached scale
factors, fused normalization gradients).

The tape is freed after every ``backward()`` call; training loops rebuild
the graph each step.  Reductions accumulate in float64 regardless of the
storage dtype so that variance statistics taken across layers of very
different sizes stay stable.

4-D tensors always have NCHW shape, but convolution and pooling outputs
and the gradients flowing back into them are channels-last in memory.
Float32 sums follow memory order, so average pooling fixes its summation
order explicitly instead of relying on the layout it is given.
"""

from __future__ import annotations

import contextlib
import inspect
from typing import Callable

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "DomainError",
    "OpConstructionError",
    "no_grad",
    "is_grad_enabled",
    "matmul",
    "conv2d",
    "avg_pool2d",
    "max_pool2d",
    "relu",
    "tanh",
    "sqrt",
    "mean_square",
    "mean_square_value",
    "register_custom_backward",
    "finite_difference_check",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """Input values lie outside the operation's domain."""


class OpConstructionError(TypeError):
    """A custom op was registered or invoked with mismatched arity."""


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

    def detach(self) -> "Tensor":
        """View of the same storage, cut out of the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

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
                        # order="K" keeps a channels-last gradient channels-last
                        parent.grad = g.copy(order="K")
                    else:
                        parent.grad += g
        finally:
            _tape.clear()

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_coerce(other, like=self), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self):
        return tensor_sum(self)

    def mean_square(self):
        return mean_square(self)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def relu(self):
        return relu(self)

    def tanh(self):
        return tanh(self)

    def sqrt(self):
        return sqrt(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, requires_grad={self.requires_grad})"


def _coerce(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def _record(op: str, out: Tensor, parents: tuple[Tensor, ...], backward) -> Tensor:
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        _tape.append(_Node(op, out, parents, backward))
    return out


def _tape_size() -> int:
    return len(_tape)


# -- broadcasting -------------------------------------------------------
#
# Supported operand pairs for elementwise ops:
#   * identical shapes
#   * tensor vs scalar (0-d)
#   * NxCxHxW tensor vs per-channel vector of length C
# Anything else is a ShapeError; general broadcasting is out of scope.


def _broadcast_views(a: Tensor, b: Tensor):
    sa, sb = a.data.shape, b.data.shape
    if sa == sb:
        return a.data, b.data, None, None
    if sb == ():
        return a.data, b.data, None, "scalar"
    if sa == ():
        return a.data, b.data, "scalar", None
    if len(sa) == 4 and len(sb) == 1 and sb[0] == sa[1]:
        return a.data, b.data.reshape(1, sb[0], 1, 1), None, "channel"
    if len(sb) == 4 and len(sa) == 1 and sa[0] == sb[1]:
        return a.data.reshape(1, sa[0], 1, 1), b.data, "channel", None
    raise ShapeError(f"incompatible shapes for elementwise op: {sa} vs {sb}")


def _reduce_grad(g: np.ndarray, mode: str | None, shape: tuple[int, ...]) -> np.ndarray:
    if mode is None:
        return g
    if mode == "scalar":
        return np.asarray(np.sum(g, dtype=np.float64)).reshape(shape)
    # per-channel vector against NxCxHxW
    return np.sum(g, axis=(0, 2, 3), dtype=np.float64)


def add(a: Tensor, b) -> Tensor:
    b = _coerce(b, like=a)
    da, db, ma, mb = _broadcast_views(a, b)
    out = Tensor(da + db)

    def backward(g):
        return (_reduce_grad(g, ma, a.shape), _reduce_grad(g, mb, b.shape))

    return _record("add", out, (a, b), backward)


def sub(a: Tensor, b) -> Tensor:
    b = _coerce(b, like=a)
    da, db, ma, mb = _broadcast_views(a, b)
    out = Tensor(da - db)

    def backward(g):
        return (_reduce_grad(g, ma, a.shape), -_reduce_grad(g, mb, b.shape))

    return _record("sub", out, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    b = _coerce(b, like=a)
    da, db, ma, mb = _broadcast_views(a, b)
    out = Tensor(da * db)

    def backward(g):
        return (_reduce_grad(g * db, ma, a.shape), _reduce_grad(g * da, mb, b.shape))

    return _record("mul", out, (a, b), backward)


def div(a: Tensor, b) -> Tensor:
    b = _coerce(b, like=a)
    da, db, ma, mb = _broadcast_views(a, b)
    out = Tensor(da / db)

    def backward(g):
        ga = _reduce_grad(g / db, ma, a.shape)
        gb = _reduce_grad(-g * da / (db * db), mb, b.shape)
        return (ga, gb)

    return _record("div", out, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    return _record("neg", out, (a,), lambda g: (-g,))


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


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)
    out = Tensor(t)

    def backward(g):
        return (g * (1.0 - t * t),)

    return _record("tanh", out, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    if a.data.size and a.data.min() < 0:
        raise DomainError("sqrt of negative values")
    r = np.sqrt(a.data)
    out = Tensor(r)

    def backward(g):
        return (g / (2.0 * r),)

    return _record("sqrt", out, (a,), backward)


def tensor_sum(a: Tensor) -> Tensor:
    total = np.sum(a.data, dtype=np.float64)
    out = Tensor(np.asarray(total, dtype=a.data.dtype))

    def backward(g):
        return (np.broadcast_to(g, a.shape).astype(a.data.dtype),)

    return _record("sum", out, (a,), backward)


def mean_square(a: Tensor) -> Tensor:
    """Uncentered second moment: mean of squared elements.

    This is the variance convention used throughout the weight statistics;
    no mean subtraction is performed anywhere weights are involved.
    """
    if a.data.size == 0:
        raise DomainError("mean_square of an empty tensor")
    ms = np.mean(np.square(a.data, dtype=np.float64), dtype=np.float64)
    out = Tensor(np.asarray(ms, dtype=a.data.dtype))
    scale = 2.0 / a.data.size

    def backward(g):
        return ((scale * g) * a.data,)

    return _record("mean_square", out, (a,), backward)


def mean_square_value(arr) -> float:
    """Float64 mean of squares of a raw array or Tensor, off the graph."""
    data = arr.data if isinstance(arr, Tensor) else np.asarray(arr)
    if data.size == 0:
        raise DomainError("mean_square of an empty tensor")
    return float(np.mean(np.square(data, dtype=np.float64), dtype=np.float64))


# -- convolution / pooling ---------------------------------------------


def _im2col(x: np.ndarray, k: int, stride: int, pad: int):
    """Patch rows of an NCHW-shaped array of any memory layout.

    Rows run over (n, ho, wo) and columns over (c, ki, kj).  The input is
    read once into a padded channels-last buffer; each of the k*k kernel
    offsets is then one slice copy into the rows.
    """
    n, c, h, w = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    if (hp - k) % stride or (wp - k) % stride:
        raise ShapeError(
            f"conv output extent not integral: input {h}x{w}, kernel {k}, "
            f"stride {stride}, pad {pad}"
        )
    ho = (hp - k) // stride + 1
    wo = (wp - k) // stride + 1
    xp = np.zeros((n, hp, wp, c), dtype=x.dtype)
    xp[:, pad : pad + h, pad : pad + w] = x.transpose(0, 2, 3, 1)
    col = np.empty((n, ho, wo, c, k, k), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            col[..., i, j] = xp[:, i : i + stride * ho : stride, j : j + stride * wo : stride]
    return col.reshape(n * ho * wo, c * k * k), ho, wo, (hp, wp)


def _col2im(dcol, x_shape, k, stride, pad, ho, wo, padded_shape):
    """Scatter-add patch-row gradients back to an NCHW-shaped view of a
    channels-last array; the inverse of ``_im2col``'s gather."""
    n, c, h, w = x_shape
    hp, wp = padded_shape
    dxp = np.zeros((n, hp, wp, c), dtype=dcol.dtype)
    d6 = dcol.reshape(n, ho, wo, c, k, k)
    for i in range(k):
        for j in range(k):
            dxp[:, i : i + stride * ho : stride, j : j + stride * wo : stride] += d6[..., i, j]
    return dxp[:, pad : hp - pad, pad : wp - pad].transpose(0, 3, 1, 2)


def conv2d(x: Tensor, w: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation of NxCxHxW input with C'xCxkxk kernels, no bias.

    The output has NCHW shape and channels-last memory: it is the GEMM's
    (n*ho*wo, C') result viewed, not copied.  Backward reads its gradient
    the same way and skips the input gradient when ``x`` needs none.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D operands, got {x.shape} and {w.shape}")
    co, ci, k, k2 = w.shape
    if k != k2:
        raise ShapeError(f"conv2d kernels must be square, got {w.shape}")
    if ci != x.shape[1]:
        raise ShapeError(
            f"conv2d channel mismatch: input {x.shape} vs kernel {w.shape}"
        )
    n = x.shape[0]
    col, ho, wo, padded = _im2col(x.data, k, stride, pad)
    wmat = w.data.reshape(co, ci * k * k)
    out = Tensor((col @ wmat.T).reshape(n, ho, wo, co).transpose(0, 3, 1, 2))

    def backward(g):
        gcol = g.transpose(0, 2, 3, 1).reshape(-1, co)
        dw = (gcol.T @ col).reshape(w.shape)
        if not x.requires_grad:
            return (None, dw)
        dx = _col2im(gcol @ wmat, x.shape, k, stride, pad, ho, wo, padded)
        return (dx, dw)

    return _record("conv2d", out, (x, w), backward)


def avg_pool2d(x: Tensor, k: int) -> Tensor:
    """Non-overlapping kxk mean pooling (window average, stride k).

    Windows narrower than 8 and than the plane are summed on the
    channels-last view in numpy's own order for ``mean(axis=(3, 5))`` over
    an NCHW copy: each window row left to right, then the row sums top to
    bottom onto +0.  The output is channels-last.  Wider windows, and
    windows as wide as the plane (one contiguous run in that copy, which
    numpy sums as such), take that mean directly.
    """
    if x.ndim != 4:
        raise ShapeError(f"avg_pool2d expects a 4-D input, got {x.shape}")
    n, c, h, w = x.shape
    if h % k or w % k:
        raise ShapeError(f"avg_pool2d: spatial dims {h}x{w} not divisible by {k}")
    ho, wo = h // k, w // k
    if k >= 8 or wo == 1:
        win = np.ascontiguousarray(x.data).reshape(n, c, ho, k, wo, k)
        data = win.mean(axis=(3, 5))
    else:
        xv = x.data.transpose(0, 2, 3, 1)
        acc = np.zeros((n, ho, wo, c), dtype=x.dtype)
        row = np.empty_like(acc)
        for i in range(k):
            np.copyto(row, xv[:, i::k, 0::k])
            for j in range(1, k):
                row += xv[:, i::k, j::k]
            acc += row
        # numpy's mean divides by the intp item count
        np.true_divide(acc, np.intp(k * k), out=acc, casting="unsafe")
        data = acc.transpose(0, 3, 1, 2)
    out = Tensor(data)
    inv = 1.0 / (k * k)

    def backward(g):
        gx = np.empty((n, ho, k, wo, k, c), dtype=x.dtype)
        gx[...] = (g * inv).transpose(0, 2, 3, 1)[:, :, None, :, None, :]
        return (gx.reshape(n, h, w, c).transpose(0, 3, 1, 2),)

    return _record("avg_pool2d", out, (x,), backward)


def max_pool2d(x: Tensor, k: int) -> Tensor:
    """Non-overlapping kxk max pooling; ties route to the first maximum."""
    if x.ndim != 4:
        raise ShapeError(f"max_pool2d expects a 4-D input, got {x.shape}")
    n, c, h, w = x.shape
    if h % k or w % k:
        raise ShapeError(f"max_pool2d: spatial dims {h}x{w} not divisible by {k}")
    win = x.data.reshape(n, c, h // k, k, w // k, k).transpose(0, 1, 2, 4, 3, 5)
    flat = np.ascontiguousarray(win).reshape(n, c, h // k, w // k, k * k)
    idx = flat.argmax(axis=-1)
    out = Tensor(np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0])

    def backward(g):
        gflat = np.zeros_like(flat)
        np.put_along_axis(gflat, idx[..., None], g[..., None], axis=-1)
        gx = gflat.reshape(n, c, h // k, w // k, k, k).transpose(0, 1, 2, 4, 3, 5)
        return (np.ascontiguousarray(gx).reshape(x.shape),)

    return _record("max_pool2d", out, (x,), backward)


# -- custom backward registration ---------------------------------------


def _positional_arity(fn) -> int | None:
    """Number of positional parameters, or None if *args is accepted."""
    sig = inspect.signature(fn)
    count = 0
    for p in sig.parameters.values():
        if p.kind == inspect.Parameter.VAR_POSITIONAL:
            return None
        if p.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            count += 1
    return count


def register_custom_backward(
    forward_fn: Callable, backward_fn: Callable, name: str | None = None
) -> Callable:
    """Build an op whose gradient is ``backward_fn``, verbatim.

    ``forward_fn(*input_arrays) -> array`` computes the value;
    ``backward_fn(out_grad, *input_arrays)`` must return one gradient array
    per input (a bare array is accepted for single-input ops).  The node
    created by the returned op routes gradients through ``backward_fn``
    and never differentiates ``forward_fn`` itself.
    """
    n_in = _positional_arity(forward_fn)
    n_bw = _positional_arity(backward_fn)
    if n_in is not None and n_bw is not None and n_bw != n_in + 1:
        raise OpConstructionError(
            f"backward must accept (out_grad, *{n_in} inputs); "
            f"it declares {n_bw} positional parameters"
        )
    op_name = name or getattr(forward_fn, "__name__", "custom")

    def op(*tensors: Tensor) -> Tensor:
        if n_in is not None and len(tensors) != n_in:
            raise OpConstructionError(
                f"op '{op_name}' expects {n_in} inputs, got {len(tensors)}"
            )
        arrays = tuple(t.data for t in tensors)
        out = Tensor(np.asarray(forward_fn(*arrays)))

        def backward(g):
            grads = backward_fn(g, *arrays)
            return grads if isinstance(grads, tuple) else (grads,)

        return _record(op_name, out, tensors, backward)

    return op


# -- gradient checking ---------------------------------------------------


def finite_difference_check(
    fn: Callable[[Tensor], Tensor],
    point: Tensor,
    eps: float = 1e-5,
    coords=None,
) -> float:
    """Max relative error between reverse-mode and central differences.

    ``fn`` must map a tensor to a scalar and be continuous at ``point``
    (ops with rounding in them are only checked away from their rounding
    boundaries; that is the caller's responsibility).  ``coords`` optionally
    restricts the comparison to a subset of flat indices, e.g. to hold a
    detached max out of the sweep.  The error is normalized by the largest
    numeric-gradient magnitude.
    """
    probe = Tensor(point.data.astype(np.float64), requires_grad=True)
    out = fn(probe)
    out.backward()
    analytic = probe.grad.reshape(-1).copy()

    flat = point.data.astype(np.float64).reshape(-1)
    indices = range(flat.size) if coords is None else coords
    numeric = np.zeros_like(flat)
    mask = np.zeros(flat.size, dtype=bool)
    with no_grad():
        for i in indices:
            mask[i] = True
            bumped = flat.copy()
            bumped[i] = flat[i] + eps
            hi = fn(Tensor(bumped.reshape(point.shape))).item()
            bumped[i] = flat[i] - eps
            lo = fn(Tensor(bumped.reshape(point.shape))).item()
            numeric[i] = (hi - lo) / (2.0 * eps)
    diff = np.abs(analytic - numeric)[mask]
    scale = max(float(np.max(np.abs(numeric[mask]), initial=0.0)), 1e-12)
    return float(np.max(diff, initial=0.0) / scale)
