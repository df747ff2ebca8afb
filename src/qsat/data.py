"""Datasets: a deterministic synthetic generator for desk-scale runs plus
readers for the published MNIST (IDX) and CIFAR-10 (binary batch) formats.

Every split is an ``ArrayDataset``, whose construction is the one check of
what a split holds, whichever way it was made.  Images are kept as
uint8-valued reals in [0, 255]; no demeaning or normalization is applied
anywhere in the pipeline.  A dataset file that cannot be read or parsed
raises ``DatasetError`` with its path.
"""

from __future__ import annotations

import gzip
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DatasetError",
    "Batch",
    "ArrayDataset",
    "make_blobs",
    "load_mnist",
    "load_cifar10",
    "load_dataset",
    "DATASETS",
]

# the dataset names of run configs, which ``load_dataset`` dispatches on; a
# blobs dataset is generated, not read, so it takes no path
DATASETS = ("blobs32", "blobs28", "mnist", "cifar10")


class DatasetError(ValueError):
    """Dataset missing, malformed, or empty."""


@dataclass
class Batch:
    """One minibatch of a split: its images and labels, which the split's
    ``ArrayDataset`` has checked."""

    images: np.ndarray
    labels: np.ndarray


class ArrayDataset:
    """In-memory split of images (float32, 0..255) and int64 labels.

    Construction checks what a split must hold: at least one NxCxHxW image,
    every pixel in [0, 255] (a NaN fails), and one non-negative integer
    label per image.  It raises ``DatasetError`` otherwise.
    """

    def __init__(self, images: np.ndarray, labels: np.ndarray):
        if images.ndim != 4 or images.size == 0:
            raise DatasetError(f"a split needs at least one NxCxHxW image, got shape {images.shape}")
        if (labels.shape != images.shape[:1] or not np.issubdtype(labels.dtype, np.integer)
                or labels.min() < 0):
            raise DatasetError(f"{len(images)} images need one non-negative integer label each, "
                               f"got {labels.dtype} labels of shape {labels.shape}")
        self.images = images.astype(np.float32, copy=False)
        self.labels = labels.astype(np.int64, copy=False)
        lo, hi = float(self.images.min()), float(self.images.max())
        # written so that a NaN pixel fails it
        if not (lo >= 0.0 and hi <= 255.0):
            raise DatasetError(f"image values outside [0, 255]: min {lo}, max {hi}")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return tuple(self.images.shape[1:])

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1


def _upsample_nearest(coarse: np.ndarray, size: int) -> np.ndarray:
    # cropped, for a grid that does not divide the size (28 pixels, grid 3)
    factor = -(-size // coarse.shape[-1])
    return np.kron(coarse, np.ones((1, factor, factor)))[:, :size, :size]


# make_blobs' class count, and the spread of its class templates and of its
# per-sample noise around them, in pixel levels
_BLOB_CLASSES = 10
_BLOB_CONTRAST = 28.0
_BLOB_NOISE = 60.0


def make_blobs(
    n_train: int = 1280,
    n_val: int = 320,
    image_size: int = 32,
    channels: int = 3,
    seed: int = 0,
) -> tuple[ArrayDataset, ArrayDataset]:
    """Deterministic synthetic image classes: ``_BLOB_CLASSES`` coarse random
    templates of spread ``_BLOB_CONTRAST`` around mid-grey, plus per-sample
    Gaussian noise of spread ``_BLOB_NOISE``, clipped and rounded to the
    uint8 range.  Each split holds as many images of every class.

    Generation depends only on the arguments, never on global RNG state,
    so two runs with the same seed see byte-identical data.
    """
    if n_train % _BLOB_CLASSES or n_val % _BLOB_CLASSES:
        raise DatasetError("sample counts must be divisible by the class count")
    rng = np.random.default_rng([seed, 0xB10B5])
    grid = max(image_size // 8, 2)
    templates = []
    for _ in range(_BLOB_CLASSES):
        coarse = rng.standard_normal((channels, grid, grid))
        templates.append(128.0 + _BLOB_CONTRAST * _upsample_nearest(coarse, image_size))

    def draw(count_per_class: int):
        # one class's float64 samples at a time, in one buffer made once and
        # after the images: fresh buffers per class, or one below the images
        # in the heap, stay resident once freed and raise the peak RSS
        images = np.empty((_BLOB_CLASSES, count_per_class, channels, image_size, image_size),
                          np.float32)
        z = np.empty(images.shape[1:])
        for template, out in zip(templates, images):
            np.add(np.multiply(rng.standard_normal(out=z), _BLOB_NOISE, out=z), template, out=z)
            np.clip(np.rint(z, out=z), 0.0, 255.0, out=out)
        del z
        # each class fills one block of images, so an index's block is its label
        order = rng.permutation(_BLOB_CLASSES * count_per_class)
        return ArrayDataset(images.reshape(-1, *images.shape[2:])[order], order // count_per_class)

    return draw(n_train // _BLOB_CLASSES), draw(n_val // _BLOB_CLASSES)


# -- published binary formats ----------------------------------------------


@contextmanager
def _reading(*paths):
    """Report a failure to read or parse the files at ``paths``, or to make
    a split of them, as a ``DatasetError`` that starts with their paths."""
    try:
        yield
    # a DatasetError is a ValueError, so a check's message gains the paths too
    except (OSError, EOFError, zlib.error, struct.error, ValueError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise DatasetError(f"{', '.join(map(str, paths))}: {reason}") from exc


def _read_idx(path: Path, item_shape=None) -> np.ndarray:
    """The array of an IDX file, gunzipped when its name ends in ``.gz``,
    whose items (the rows of its first axis) must be of ``item_shape`` when
    one is given."""
    with _reading(path), (gzip.open if path.suffix == ".gz" else open)(path, "rb") as fh:
        magic = struct.unpack(">I", fh.read(4))[0]
        kind = (magic >> 8) & 0xFF
        ndim = magic & 0xFF
        if kind != 0x08:
            raise DatasetError(f"unsupported IDX element type {kind:#x}")
        dims = struct.unpack(f">{ndim}I", fh.read(4 * ndim))
        data = np.frombuffer(fh.read(), dtype=np.uint8).reshape(dims)
        if item_shape is not None and data.shape[1:] != item_shape:
            raise DatasetError(f"items of shape {data.shape[1:]}, not {item_shape}")
        return data


def _find_idx(directory: Path, stem: str) -> Path:
    for suffix in ("", ".gz"):
        candidate = directory / f"{stem}{suffix}"
        if candidate.exists():
            return candidate
    raise DatasetError(f"missing dataset file {stem} under {directory}")


def load_mnist(directory) -> tuple[ArrayDataset, ArrayDataset]:
    """Read the four IDX files (optionally gzipped) from a directory."""
    directory = Path(directory)
    out = []
    for split in ("train", "t10k"):
        image_path = _find_idx(directory, f"{split}-images-idx3-ubyte")
        label_path = _find_idx(directory, f"{split}-labels-idx1-ubyte")
        images, labels = _read_idx(image_path, (28, 28))[:, None], _read_idx(label_path)
        with _reading(image_path, label_path):
            out.append(ArrayDataset(images, labels))
    return out[0], out[1]


def load_cifar10(directory) -> tuple[ArrayDataset, ArrayDataset]:
    """Read CIFAR-10 binary batches (data_batch_*.bin, test_batch.bin)."""
    directory = Path(directory)
    record = 1 + 3 * 32 * 32

    def read_batches(paths):
        rows = []
        for path in paths:
            with _reading(path):
                raw = np.frombuffer(path.read_bytes(), dtype=np.uint8)
                if raw.size == 0 or raw.size % record:
                    raise DatasetError(f"size {raw.size} not a whole batch")
            rows.append(raw.reshape(-1, record))
        rows = np.concatenate(rows)
        return ArrayDataset(rows[:, 1:].reshape(-1, 3, 32, 32), rows[:, 0])

    train_paths = sorted(directory.glob("data_batch_*.bin"))
    test_path = directory / "test_batch.bin"
    if not train_paths or not test_path.exists():
        raise DatasetError(f"no CIFAR-10 batch files under {directory}")
    return read_batches(train_paths), read_batches([test_path])


def load_dataset(name: str, path=None, seed: int = 0,
                 train_size: int = 1280, val_size: int = 320):
    """Dispatch on the dataset name used in run configs, one of
    ``DATASETS``.  The blobs datasets are generated from ``seed`` and the
    sizes; the published ones are read from ``path``."""
    if name == "blobs32":
        return make_blobs(train_size, val_size, image_size=32, channels=3, seed=seed)
    if name == "blobs28":
        return make_blobs(train_size, val_size, image_size=28, channels=1, seed=seed)
    if name == "mnist":
        if path is None:
            raise DatasetError("mnist requires a dataset path")
        return load_mnist(path)
    if name == "cifar10":
        if path is None:
            raise DatasetError("cifar10 requires a dataset path")
        return load_cifar10(path)
    raise DatasetError(f"unknown dataset '{name}'")
