import gzip
import struct

import numpy as np
import pytest

from mmgan.config import DATASETS
from mmgan.data import (
    GRID25_SIGMA,
    IDX_IMAGES_MAGIC,
    RING8_SIGMA,
    RINGS2_CENTERS_PER_RING,
    RINGS2_SIGMA,
    load_idx,
    make_dataset,
    sample_batch,
    scale_pixels,
)


def test_ring8_centers():
    h = make_dataset("ring8")
    assert h.dim == 2 and h.mode_sigma == RING8_SIGMA
    assert h.mode_centers.shape == (8, 2)
    np.testing.assert_allclose(np.linalg.norm(h.mode_centers, axis=1), 2.0)
    np.testing.assert_allclose(h.mode_centers[0], [2.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(h.mode_centers[1], [np.sqrt(2.0), np.sqrt(2.0)],
                               atol=1e-12)
    # equally spaced: consecutive angular gaps of pi/4
    ang = np.arctan2(h.mode_centers[:, 1], h.mode_centers[:, 0])
    gaps = np.diff(np.unwrap(ang))
    np.testing.assert_allclose(gaps, np.pi / 4, atol=1e-12)


def test_grid25_centers():
    h = make_dataset("grid25")
    assert h.mode_centers.shape == (25, 2) and h.mode_sigma == GRID25_SIGMA
    want = {(float(x), float(y))
            for x in [-2, -1, 0, 1, 2] for y in [-2, -1, 0, 1, 2]}
    got = {(float(a), float(b)) for a, b in h.mode_centers}
    assert got == want


def test_rings2_centers_discretize_both_circles():
    h = make_dataset("rings2")
    assert h.mode_centers.shape == (2 * RINGS2_CENTERS_PER_RING, 2)
    norms = np.linalg.norm(h.mode_centers, axis=1)
    np.testing.assert_allclose(np.sort(np.unique(np.round(norms, 9))), [1.0, 2.0])
    assert h.mode_sigma == RINGS2_SIGMA


def test_make_dataset_rejects_unknown():
    with pytest.raises(ValueError, match="unknown dataset"):
        make_dataset("spiral")


@pytest.mark.parametrize("kind", [k for k in DATASETS if k != "idx"])
def test_sample_batch_shape_and_determinism(kind):
    h = make_dataset(kind)
    a = sample_batch(h, 33, np.random.default_rng(42))
    b = sample_batch(h, 33, np.random.default_rng(42))
    assert a.shape == (33, 2)
    np.testing.assert_array_equal(a, b)
    c = sample_batch(h, 33, np.random.default_rng(43))
    assert not np.array_equal(a, c)


def test_sample_batch_rejects_empty():
    with pytest.raises(ValueError):
        sample_batch(make_dataset("ring8"), 0, np.random.default_rng(0))


def test_ring8_samples_hug_the_modes():
    h = make_dataset("ring8")
    s = sample_batch(h, 512, np.random.default_rng(7))
    d = np.linalg.norm(s[:, None, :] - h.mode_centers[None], axis=2).min(axis=1)
    assert d.max() < 6 * RING8_SIGMA


def test_rings2_samples_sit_on_the_circles():
    h = make_dataset("rings2")
    s = sample_batch(h, 512, np.random.default_rng(8))
    r = np.linalg.norm(s, axis=1)
    off = np.minimum(np.abs(r - 1.0), np.abs(r - 2.0))
    assert off.max() < 6 * RINGS2_SIGMA
    # both rings actually get samples
    assert (np.abs(r - 1.0) < 0.1).any() and (np.abs(r - 2.0) < 0.1).any()


def test_scale_pixels_endpoints():
    got = scale_pixels(np.array([0, 51, 204, 255], dtype=np.uint8))
    np.testing.assert_allclose(got, [-1.0, -0.6, 0.6, 1.0], atol=1e-15)


# -- idx fixtures ----------------------------------------------------------


def idx_images_bytes(images: np.ndarray) -> bytes:
    n, r, c = images.shape
    return struct.pack(">IIII", IDX_IMAGES_MAGIC, n, r, c) + images.astype(
        np.uint8).tobytes()


PIXELS = np.array([[[0, 51], [204, 255]],
                   [[255, 0], [0, 255]]], dtype=np.uint8)


def test_load_idx_parses_and_scales(tmp_path):
    p = tmp_path / "imgs.idx"
    p.write_bytes(idx_images_bytes(PIXELS))
    h = load_idx(p)
    assert h.kind == "idx" and h.dim == 4 and h.images.shape == (2, 4)
    assert h.mode_centers is None
    np.testing.assert_allclose(h.images[0], [-1.0, -0.6, 0.6, 1.0], atol=1e-15)
    np.testing.assert_allclose(h.images[1], [1.0, -1.0, -1.0, 1.0], atol=1e-15)


def test_load_idx_gzip_by_suffix(tmp_path):
    p = tmp_path / "imgs.idx.gz"
    p.write_bytes(gzip.compress(idx_images_bytes(PIXELS)))
    h = load_idx(p)
    np.testing.assert_allclose(h.images[0], [-1.0, -0.6, 0.6, 1.0], atol=1e-15)


def test_load_idx_rejects_wrong_magic(tmp_path):
    p = tmp_path / "bad.idx"
    # 2049 is the IDX label-file magic
    p.write_bytes(struct.pack(">IIII", 2049, 1, 2, 2) + bytes(4))
    with pytest.raises(ValueError, match="magic"):
        load_idx(p)


def test_load_idx_rejects_truncations(tmp_path):
    full = idx_images_bytes(PIXELS)
    for cut in (2, 10, len(full) - 1):
        p = tmp_path / f"cut{cut}.idx"
        p.write_bytes(full[:cut])
        with pytest.raises(ValueError, match="truncated"):
            load_idx(p)


def test_load_idx_ignores_trailing_bytes(tmp_path):
    p = tmp_path / "i.idx"
    p.write_bytes(idx_images_bytes(PIXELS) + bytes(3))
    np.testing.assert_array_equal(load_idx(p).images,
                                  scale_pixels(PIXELS.reshape(2, 4)))


def test_sample_batch_from_idx(tmp_path):
    p = tmp_path / "i.idx"
    p.write_bytes(idx_images_bytes(PIXELS))
    h = load_idx(p)
    s = sample_batch(h, 10, np.random.default_rng(0))
    assert s.shape == (10, 4)
    for row in s:
        assert any(np.allclose(row, img) for img in h.images)
