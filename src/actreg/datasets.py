"""Dataset loading: IDX image files and seeded synthetic blobs.

IDX files are the big-endian binary format MNIST ships in; gzipped
files are detected by magic bytes and decompressed transparently.
Pixels are scaled to [0, 1]. Synthetic blobs are Gaussian clusters at
seeded random centers, split 80/20 into train and test by a seeded
shuffle, so a (seed, parameters) pair names one exact dataset.
"""

from __future__ import annotations

import gzip
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .records import plain_int, plain_number
from .rng import Seed, make_generator


@dataclass
class DatasetHandle:
    """Train and test splits with flat float64 features.

    ``image_shape`` is set when the features are flattened images, so
    convolutional models can restore the spatial layout.
    """

    name: str
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    classes: int
    image_shape: tuple[int, int, int] | None = None

    def __post_init__(self):
        # the name is part of every record's filename
        if (not isinstance(self.name, str) or not self.name
                or "/" in self.name or os.sep in self.name):
            raise ValidationError(f"dataset name must be a non-empty string "
                                  f"without a path separator, got {self.name!r}")
        self.classes = plain_int("classes", self.classes, 2)
        if self.train_x.ndim != 2 or self.test_x.ndim != 2:
            raise ValidationError("features must be 2-D (n, input_dim)")
        if self.train_x.shape[1] != self.test_x.shape[1]:
            raise ValidationError(f"train and test widths differ: "
                                  f"{self.train_x.shape[1]} vs {self.test_x.shape[1]}")
        if (self.train_x.shape[0] != self.train_y.shape[0]
                or self.test_x.shape[0] != self.test_y.shape[0]):
            raise ValidationError("feature and label counts differ")
        if self.train_x.shape[0] == 0 or self.test_x.shape[0] == 0:
            raise ValidationError("both splits must be nonempty")
        # a NaN here would otherwise surface as a "diverged" run
        for split, x in (("train", self.train_x), ("test", self.test_x)):
            if not np.isfinite(x).all():
                raise ValidationError(f"{split} features contain non-finite values")
        for y in (self.train_y, self.test_y):
            if y.size and (y.min() < 0 or y.max() >= self.classes):
                raise ValidationError(f"labels outside [0, {self.classes})")

    @property
    def input_dim(self) -> int:
        return self.train_x.shape[1]


def _read_idx(path, ndim: int) -> np.ndarray:
    """The uint8 array of a raw or gzipped IDX file of unsigned bytes in
    ``ndim`` dimensions, in the shape its header states."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:2] == b"\x1f\x8b":
        buf = gzip.decompress(buf)
    header = 4 + 4 * ndim
    if len(buf) < header:
        raise ParseError(f"{path}: header truncated", offset=len(buf))
    magic, *shape = struct.unpack_from(f">{1 + ndim}I", buf, 0)
    expected = 0x00000800 + ndim
    if magic != expected:
        raise ParseError(f"{path}: bad magic 0x{magic:08x}, expected "
                         f"0x{expected:08x}", offset=0)
    size = math.prod(shape)
    if len(buf) < header + size:
        raise ParseError(f"{path}: payload truncated, expected "
                         f"{header + size} bytes", offset=len(buf))
    return np.frombuffer(buf, dtype=np.uint8, count=size,
                         offset=header).reshape(shape)


def load_idx_images(path) -> np.ndarray:
    """Read an IDX image file into (n, 1, rows, cols) float64 in [0, 1]."""
    return _read_idx(path, 3)[:, None].astype(np.float64) / 255.0


def load_idx_labels(path) -> np.ndarray:
    """Read an IDX label file into an (n,) int64 array."""
    return _read_idx(path, 1).astype(np.int64)


def load_idx_pair(images_path, labels_path) -> tuple[np.ndarray, np.ndarray,
                                                     tuple[int, int, int]]:
    """Load matching image and label files as flat features plus labels."""
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise ValidationError(f"{images.shape[0]} images but {labels.shape[0]} "
                              f"labels")
    n, c, rows, cols = images.shape
    return images.reshape(n, c * rows * cols), labels, (c, rows, cols)


_IDX_NAMES = {
    "train_images": ("train-images-idx3-ubyte", "train-images.idx3-ubyte"),
    "train_labels": ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte"),
    "test_images": ("t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte"),
    "test_labels": ("t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte"),
}


def find_idx_files(directory) -> dict[str, Path] | None:
    """Locate the four standard IDX files (raw or .gz) or return None."""
    d = Path(directory)
    found = {key: next((d / (stem + suffix) for stem in stems
                        for suffix in ("", ".gz")
                        if (d / (stem + suffix)).is_file()), None)
             for key, stems in _IDX_NAMES.items()}
    return None if None in found.values() else found


def load_idx_dataset(directory, name: str = "mnist") -> DatasetHandle:
    """Assemble a DatasetHandle from a directory of standard IDX files."""
    files = find_idx_files(directory)
    if files is None:
        raise ValidationError(f"no complete IDX file set under {directory}")
    train_x, train_y, shape = load_idx_pair(files["train_images"],
                                            files["train_labels"])
    test_x, test_y, test_shape = load_idx_pair(files["test_images"],
                                               files["test_labels"])
    if shape != test_shape:
        raise ValidationError(f"train images {shape} but test images {test_shape}")
    classes = int(max(train_y.max(), test_y.max())) + 1
    return DatasetHandle(name, train_x, train_y, test_x, test_y, classes,
                         image_shape=shape)


def synth_blobs(classes: int, dim: int, n_per_class: int, separation: float,
                seed: Seed, name: str = "synth") -> DatasetHandle:
    """Gaussian clusters at seeded random centers, 80/20 split.

    Cluster centers are drawn from a normal scaled so that the expected
    distance between two centers is about ``separation * sqrt(dim)``
    while within-cluster noise stays unit, so separation 0 collapses all
    classes onto one cloud.
    """
    classes = plain_int("classes", classes, 2)
    dim = plain_int("dim", dim, 1)
    n_per_class = plain_int("n_per_class", n_per_class, 2)
    separation = plain_number("separation", separation, 0)
    gen = make_generator(seed)
    centers = gen.normal(size=(classes, dim)) * (separation / np.sqrt(2.0))
    labels = np.repeat(np.arange(classes, dtype=np.int64), n_per_class)
    features = centers[labels] + gen.normal(size=(labels.size, dim))
    perm = gen.permutation(labels.size)
    features, labels = features[perm], labels[perm]
    n_train = int(round(0.8 * labels.size))
    n_train = min(max(n_train, 1), labels.size - 1)
    return DatasetHandle(name, features[:n_train], labels[:n_train],
                         features[n_train:], labels[n_train:], classes)
