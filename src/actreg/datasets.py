"""Dataset loading: IDX image files and seeded synthetic blobs.

IDX files are the big-endian binary format MNIST ships in; gzipped
files are detected by magic bytes and decompressed transparently.
Pixels are scaled to [0, 1]. Synthetic blobs are Gaussian clusters at
seeded random centers, split 80/20 into train and test by a seeded
shuffle, so a (seed, parameters) pair names one exact dataset.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .rng import Seed, make_generator

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


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
        if self.classes < 2:
            raise ValidationError(f"need at least 2 classes, got {self.classes}")
        for y in (self.train_y, self.test_y):
            if y.size and (y.min() < 0 or y.max() >= self.classes):
                raise ValidationError(f"labels outside [0, {self.classes})")

    @property
    def input_dim(self) -> int:
        return self.train_x.shape[1]


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:2] == b"\x1f\x8b":
        buf = gzip.decompress(buf)
    return buf


def load_idx_images(path) -> np.ndarray:
    """Read an IDX image file into (n, 1, rows, cols) float64 in [0, 1]."""
    buf = _read_bytes(path)
    if len(buf) < 16:
        raise ParseError(f"{path}: header truncated", offset=len(buf))
    magic, n, rows, cols = struct.unpack_from(">IIII", buf, 0)
    if magic != IMAGES_MAGIC:
        raise ParseError(f"{path}: bad magic 0x{magic:08x}, expected "
                         f"0x{IMAGES_MAGIC:08x}", offset=0)
    expected = 16 + n * rows * cols
    if len(buf) < expected:
        raise ParseError(f"{path}: payload truncated, expected {expected} bytes",
                         offset=len(buf))
    pixels = np.frombuffer(buf, dtype=np.uint8, count=n * rows * cols, offset=16)
    return pixels.reshape(n, 1, rows, cols).astype(np.float64) / 255.0


def load_idx_labels(path) -> np.ndarray:
    """Read an IDX label file into an (n,) int64 array."""
    buf = _read_bytes(path)
    if len(buf) < 8:
        raise ParseError(f"{path}: header truncated", offset=len(buf))
    magic, n = struct.unpack_from(">II", buf, 0)
    if magic != LABELS_MAGIC:
        raise ParseError(f"{path}: bad magic 0x{magic:08x}, expected "
                         f"0x{LABELS_MAGIC:08x}", offset=0)
    if len(buf) < 8 + n:
        raise ParseError(f"{path}: payload truncated, expected {8 + n} bytes",
                         offset=len(buf))
    return np.frombuffer(buf, dtype=np.uint8, count=n, offset=8).astype(np.int64)


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
    found: dict[str, Path] = {}
    for key, stems in _IDX_NAMES.items():
        for stem in stems:
            for suffix in ("", ".gz"):
                candidate = d / (stem + suffix)
                if candidate.is_file():
                    found[key] = candidate
                    break
            if key in found:
                break
        if key not in found:
            return None
    return found


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
    if classes < 2:
        raise ValidationError(f"need at least 2 classes, got {classes}")
    if dim < 1 or n_per_class < 2:
        raise ValidationError("dim must be >= 1 and n_per_class >= 2")
    if not (np.isfinite(separation) and separation >= 0):
        raise ValidationError(f"separation must be finite and >= 0, "
                              f"got {separation}")
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
