import gzip

import numpy as np
import pytest

from qsat import tensor


@pytest.fixture(autouse=True)
def fresh_tape():
    """Forward-only tests leave recorded nodes behind; isolate them."""
    tensor._tape.clear()
    yield
    tensor._tape.clear()


_project = tensor.register_custom_backward(
    lambda x, up: np.sum(x * up, dtype=np.float64),
    lambda g, x, up: (g * up, None),
    name="project",
)


def project(out: tensor.Tensor, up=None) -> tensor.Tensor:
    """The scalar loss sum(out * up), a test's way to start a backward pass.

    Its gradient into ``out`` is ``up`` itself: the same values, cast to
    ``out``'s dtype, in ``up``'s memory layout.  ``up`` defaults to ones,
    which makes the loss the plain sum of ``out``.
    """
    up = np.ones_like(out.data) if up is None else up
    return _project(out, tensor.Tensor(up))


def nchw(a):
    """The NCHW view of an NHWC array, as the references take it."""
    return a.transpose(0, 3, 1, 2)


def nchw_memory(a):
    """Copy of an NHWC array whose memory runs NCHW, shape unchanged."""
    out = np.ascontiguousarray(a.transpose(0, 3, 1, 2)).transpose(0, 2, 3, 1)
    assert out.shape == a.shape and not out.flags.c_contiguous
    return out


def finite_difference_check(fn, point: tensor.Tensor, eps: float = 1e-5, coords=None) -> float:
    """Max relative error between reverse-mode and central differences.

    ``fn`` must map a tensor to a scalar and be continuous at ``point``
    (ops with rounding in them are only checked away from their rounding
    boundaries; that is the caller's responsibility).  ``coords`` optionally
    restricts the comparison to a subset of flat indices, e.g. to hold a
    detached max out of the sweep.  The error is normalized by the largest
    numeric-gradient magnitude.
    """
    probe = tensor.Tensor(point.data.astype(np.float64), requires_grad=True)
    out = fn(probe)
    out.backward()
    analytic = probe.grad.reshape(-1).copy()

    flat = point.data.astype(np.float64).reshape(-1)
    indices = range(flat.size) if coords is None else coords
    numeric = np.zeros_like(flat)
    mask = np.zeros(flat.size, dtype=bool)
    with tensor.no_grad():
        for i in indices:
            mask[i] = True
            bumped = flat.copy()
            bumped[i] = flat[i] + eps
            hi = fn(tensor.Tensor(bumped.reshape(point.shape))).item()
            bumped[i] = flat[i] - eps
            lo = fn(tensor.Tensor(bumped.reshape(point.shape))).item()
            numeric[i] = (hi - lo) / (2.0 * eps)
    diff = np.abs(analytic - numeric)[mask]
    scale = max(float(np.max(np.abs(numeric[mask]), initial=0.0)), 1e-12)
    return float(np.max(diff, initial=0.0) / scale)


def write_idx(path, array, gz=False):
    """An IDX file of unsigned bytes, gzipped (with a fixed header time)
    when ``gz`` is set."""
    header = (0x0800 | array.ndim).to_bytes(4, "big")
    header += b"".join(d.to_bytes(4, "big") for d in array.shape)
    blob = header + array.astype(np.uint8).tobytes()
    path.write_bytes(gzip.compress(blob, mtime=0) if gz else blob)


def write_mnist(directory, counts=(20, 10)):
    """The four MNIST files of ``counts`` training and test images, the
    test split gzipped; returns the directory."""
    rng = np.random.default_rng(0)
    directory.mkdir(parents=True, exist_ok=True)
    for split, count in zip(("train", "t10k"), counts):
        gz = split == "t10k"
        suffix = ".gz" if gz else ""
        write_idx(directory / f"{split}-images-idx3-ubyte{suffix}",
                  rng.integers(0, 256, (count, 28, 28)), gz)
        write_idx(directory / f"{split}-labels-idx1-ubyte{suffix}", np.arange(count) % 10, gz)
    return directory


def write_cifar(directory, counts=(20, 10)):
    """A CIFAR-10 directory: one training batch file and the test batch
    file, of ``counts`` records; returns the directory."""
    rng = np.random.default_rng(0)
    directory.mkdir(parents=True, exist_ok=True)
    for name, count in zip(("data_batch_1.bin", "test_batch.bin"), counts):
        rows = rng.integers(0, 256, (count, 1 + 3 * 32 * 32), dtype=np.uint8)
        rows[:, 0] = np.arange(count) % 10
        (directory / name).write_bytes(rows.tobytes())
    return directory
