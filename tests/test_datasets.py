"""IDX parsing against hand-built byte fixtures, plus the synthetic blobs."""

import gzip
import struct

import numpy as np
import pytest

from actreg.cli import main
from actreg.datasets import (DatasetHandle, find_idx_files, load_idx_dataset,
                             load_idx_images, load_idx_labels, load_idx_pair,
                             synth_blobs)
from actreg.errors import ParseError, ValidationError


def _idx_images(arrays):
    # big-endian magic 0x00000803, then dims, then raw bytes
    n = len(arrays)
    rows, cols = arrays[0].shape
    blob = struct.pack(">IIII", 0x00000803, n, rows, cols)
    for a in arrays:
        blob += bytes(a.astype(np.uint8).ravel())
    return blob


def _idx_labels(values):
    return struct.pack(">II", 0x00000801, len(values)) + bytes(values)


IMG_A = np.array([[0, 51], [102, 204]], dtype=np.uint8)
IMG_B = np.array([[255, 0], [0, 255]], dtype=np.uint8)


def test_images_fixture_shape_and_scaling(tmp_path):
    path = tmp_path / "imgs.idx"
    path.write_bytes(_idx_images([IMG_A, IMG_B]))
    x = load_idx_images(path)
    assert x.shape == (2, 1, 2, 2)
    assert x.dtype == np.float64
    # pixel bytes divide by 255 exactly
    np.testing.assert_allclose(x[0, 0], IMG_A / 255.0, rtol=0, atol=0)
    assert x.max() == 1.0 and x.min() == 0.0


def test_labels_fixture(tmp_path):
    path = tmp_path / "labels.idx"
    path.write_bytes(_idx_labels([3, 1, 4]))
    y = load_idx_labels(path)
    np.testing.assert_array_equal(y, [3, 1, 4])
    assert y.dtype == np.int64


def test_gzip_transparency(tmp_path):
    path = tmp_path / "imgs.idx.gz"
    path.write_bytes(gzip.compress(_idx_images([IMG_A])))
    x = load_idx_images(path)
    assert x.shape == (1, 1, 2, 2)
    path = tmp_path / "labels.idx.gz"
    path.write_bytes(gzip.compress(_idx_labels([2, 7, 1])))
    np.testing.assert_array_equal(load_idx_labels(path), [2, 7, 1])


def test_wrong_magic_is_rejected(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">IIII", 0x00000901, 1, 2, 2) + bytes(4))
    with pytest.raises(ParseError, match="magic"):
        load_idx_images(path)
    # an images file fed to the label loader must also fail, and the
    # other way round
    path.write_bytes(_idx_images([IMG_A]))
    with pytest.raises(ParseError, match="magic"):
        load_idx_labels(path)
    path.write_bytes(_idx_labels(list(range(20))))
    with pytest.raises(ParseError, match="magic"):
        load_idx_images(path)


def test_truncated_payload_reports_offset(tmp_path):
    path = tmp_path / "short.idx"
    blob = _idx_images([IMG_A, IMG_B])
    path.write_bytes(blob[:-3])
    with pytest.raises(ParseError):
        load_idx_images(path)
    # header alone is not enough either
    path.write_bytes(blob[:10])
    with pytest.raises(ParseError):
        load_idx_images(path)


def test_image_layout_comes_from_the_header(tmp_path):
    # 2 x 3, not square: six features, rows and columns as the file says
    img = np.arange(6, dtype=np.uint8).reshape(2, 3)
    (tmp_path / "i.idx").write_bytes(_idx_images([img, img[::-1]]))
    (tmp_path / "l.idx").write_bytes(_idx_labels([0, 1]))
    x, _, shape = load_idx_pair(tmp_path / "i.idx", tmp_path / "l.idx")
    assert x.shape == (2, 6) and shape == (1, 2, 3)
    np.testing.assert_array_equal(x[1].reshape(2, 3), img[::-1] / 255.0)


def test_pair_count_mismatch(tmp_path):
    (tmp_path / "i.idx").write_bytes(_idx_images([IMG_A, IMG_B]))
    (tmp_path / "l.idx").write_bytes(_idx_labels([1]))
    with pytest.raises(ValidationError, match="2.*1"):
        load_idx_pair(tmp_path / "i.idx", tmp_path / "l.idx")


def test_pair_returns_flat_features(tmp_path):
    (tmp_path / "i.idx").write_bytes(_idx_images([IMG_A, IMG_B]))
    (tmp_path / "l.idx").write_bytes(_idx_labels([0, 1]))
    x, y, shape = load_idx_pair(tmp_path / "i.idx", tmp_path / "l.idx")
    assert x.shape == (2, 4)
    assert shape == (1, 2, 2)
    np.testing.assert_array_equal(y, [0, 1])


def test_directory_discovery_and_full_load(tmp_path):
    names = {
        "train-images-idx3-ubyte": _idx_images([IMG_A, IMG_B, IMG_A, IMG_B]),
        "train-labels-idx1-ubyte": _idx_labels([0, 1, 0, 1]),
        "t10k-images-idx3-ubyte": _idx_images([IMG_B]),
        "t10k-labels-idx1-ubyte": _idx_labels([1]),
    }
    for name, blob in names.items():
        (tmp_path / name).write_bytes(blob)
    found = find_idx_files(tmp_path)
    assert found is not None and len(found) == 4
    data = load_idx_dataset(tmp_path, name="tiny")
    assert data.name == "tiny"
    assert data.train_x.shape == (4, 4)
    assert data.test_x.shape == (1, 4)
    assert data.classes == 2
    assert data.image_shape == (1, 2, 2)
    assert data.input_dim == 4


def test_discovery_returns_none_when_absent(tmp_path):
    assert find_idx_files(tmp_path) is None
    with pytest.raises(ValidationError):
        load_idx_dataset(tmp_path)


# ---------------------------------------------------------------- synthetic

def test_blobs_shapes_and_split():
    data = synth_blobs(classes=3, dim=5, n_per_class=50, separation=2.0, seed=0)
    assert data.train_x.shape == (120, 5)  # 80% of 150
    assert data.test_x.shape == (30, 5)
    assert data.classes == 3
    assert sorted(np.unique(data.train_y)) == [0, 1, 2]
    assert data.name == "synth"


def test_blobs_determinism():
    a = synth_blobs(4, 8, 25, 1.5, seed=11)
    b = synth_blobs(4, 8, 25, 1.5, seed=11)
    np.testing.assert_array_equal(a.train_x, b.train_x)
    np.testing.assert_array_equal(a.test_y, b.test_y)
    c = synth_blobs(4, 8, 25, 1.5, seed=12)
    assert np.any(a.train_x != c.train_x)


def test_blobs_wide_separation_is_nearly_solvable():
    # separation 10 in 2-d: nearest-centroid should be near perfect
    # (centers are random, so the layout is pinned by the seed)
    data = synth_blobs(3, 2, 100, separation=10.0, seed=7)
    centroids = np.stack([data.train_x[data.train_y == k].mean(axis=0)
                          for k in range(3)])
    d2 = ((data.test_x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    accuracy = np.mean(d2.argmin(axis=1) == data.test_y)
    assert accuracy >= 0.99


def test_blobs_zero_separation_is_chance():
    data = synth_blobs(4, 6, 200, separation=0.0, seed=5)
    centroids = np.stack([data.train_x[data.train_y == k].mean(axis=0)
                          for k in range(4)])
    d2 = ((data.test_x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    accuracy = np.mean(d2.argmin(axis=1) == data.test_y)
    assert accuracy < 0.45  # 4 classes, chance is 0.25


def test_blobs_validation():
    with pytest.raises(ValidationError):
        synth_blobs(1, 4, 10, 1.0, 0)  # needs at least two classes
    with pytest.raises(ValidationError):
        synth_blobs(3, 4, 1, 1.0, 0)  # too few examples per class
    with pytest.raises(ValidationError):
        synth_blobs(3, 4, 10, -1.0, 0)


@pytest.mark.parametrize("name", [5, None, "", "a/b"])
def test_a_name_no_record_filename_can_hold_is_refused(name, tmp_path):
    # such a name used to train, and then save_record failed on it
    with pytest.raises(ValidationError, match="name"):
        synth_blobs(3, 4, 10, 1.0, 7, name=name)
    if isinstance(name, str) and name:
        assert main(["run", "--hidden-dim", "8", "--max-epochs", "1",
                     "--patience", "1", "--per-class", "20",
                     "--dataset-name", name,
                     "--records-dir", str(tmp_path)]) == 1
        assert not any(tmp_path.iterdir())


def test_handle_validation():
    x = np.zeros((4, 3))
    y = np.array([0, 1, 0, 1])
    with pytest.raises(ValidationError):
        DatasetHandle("d", x, y[:3], x, y, classes=2)
    with pytest.raises(ValidationError):
        DatasetHandle("d", x, y, x, np.array([0, 1, 0, 5]), classes=2)


@pytest.mark.parametrize("split", ["train", "test"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_handle_rejects_non_finite_features(split, bad):
    # a NaN feature is a data error, not a training run that diverged
    x = np.zeros((4, 3))
    y = np.array([0, 1, 0, 1])
    broken = x.copy()
    broken[2, 1] = bad
    splits = {"train_x": x, "test_x": x, f"{split}_x": broken}
    with pytest.raises(ValidationError, match=f"^{split} features .*non-finite"):
        DatasetHandle("d", splits["train_x"], y, splits["test_x"], y, classes=2)
