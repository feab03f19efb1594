"""Synthetic 2-D mixture datasets and a reader for IDX image files.

The synthetic families are the usual mode-collapse benches: 8 gaussians on
a circle, a 5x5 gaussian grid, and two concentric noisy rings. Each handle
carries the mode centers and noise scale that the coverage metrics need; for
the continuous rings the "centers" are a fine discretization of each circle.
"""

from __future__ import annotations

import gzip
import struct
import zlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RING8_SIGMA",
    "GRID25_SIGMA",
    "RINGS2_SIGMA",
    "RINGS2_CENTERS_PER_RING",
    "IDX_IMAGES_MAGIC",
    "DatasetHandle",
    "make_dataset",
    "sample_batch",
    "load_idx",
    "scale_pixels",
]

RING8_RADIUS = 2.0
RING8_SIGMA = 0.02
GRID25_SIGMA = 0.05
RINGS2_RADII = (1.0, 2.0)
RINGS2_SIGMA = 0.02
RINGS2_CENTERS_PER_RING = 128

IDX_IMAGES_MAGIC = 2051
# magic, image count, rows, cols
_IDX_HEADER = struct.Struct(">IIII")


@dataclass
class DatasetHandle:
    """Everything sampling and metrics need to know about one dataset.

    mode_centers is None for image data, where coverage metrics do not
    apply. pixels holds image data as stored, uint8 (count, dim) at one
    byte a pixel; sample_batch scales only the rows it draws.
    """

    kind: str
    dim: int
    mode_centers: np.ndarray | None
    mode_sigma: float
    pixels: np.ndarray | None = None


def _ring8_centers() -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(8) / 8.0
    return RING8_RADIUS * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _grid25_centers() -> np.ndarray:
    axis = np.linspace(-2.0, 2.0, 5)
    gx, gy = np.meshgrid(axis, axis)
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def _rings2_centers() -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(RINGS2_CENTERS_PER_RING) / RINGS2_CENTERS_PER_RING
    unit = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return np.concatenate([r * unit for r in RINGS2_RADII], axis=0)


def make_dataset(kind: str) -> DatasetHandle:
    if kind == "ring8":
        return DatasetHandle("ring8", 2, _ring8_centers(), RING8_SIGMA)
    if kind == "grid25":
        return DatasetHandle("grid25", 2, _grid25_centers(), GRID25_SIGMA)
    if kind == "rings2":
        return DatasetHandle("rings2", 2, _rings2_centers(), RINGS2_SIGMA)
    raise ValueError(f"unknown dataset kind {kind!r}")


def sample_batch(handle: DatasetHandle, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n samples. Consumes the rng, so repeated calls differ but a
    reseeded rng replays the exact sequence."""
    if n < 1:
        raise ValueError(f"batch size must be >= 1, got {n}")
    if handle.kind in ("ring8", "grid25"):
        idx = rng.integers(0, len(handle.mode_centers), size=n)
        return handle.mode_centers[idx] + rng.normal(0.0, handle.mode_sigma, size=(n, 2))
    if handle.kind == "rings2":
        ring = rng.integers(0, len(RINGS2_RADII), size=n)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        radii = np.asarray(RINGS2_RADII)[ring]
        pts = radii[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return pts + rng.normal(0.0, handle.mode_sigma, size=(n, 2))
    if handle.pixels is not None:
        rows = rng.integers(0, len(handle.pixels), size=n)
        return scale_pixels(handle.pixels[rows])
    raise ValueError(f"cannot sample from dataset kind {handle.kind!r}")


def scale_pixels(raw: np.ndarray) -> np.ndarray:
    """uint8 pixels to [-1, 1]: v/127.5 - 1, so 0 -> -1 and 255 -> +1."""
    return np.asarray(raw, dtype=np.float64) / 127.5 - 1.0


def _open_maybe_gz(path):
    p = str(path)
    return gzip.open(p, "rb") if p.endswith(".gz") else open(p, "rb")


def load_idx(images_path) -> DatasetHandle:
    """Read a big-endian IDX image file, gzipped or not.

    The magic number 2051 is enforced, and the payload must hold the
    header's count x rows x cols bytes. Pixels stay uint8, a read-only
    (count, rows*cols) view of the bytes read; batches are scaled as drawn.
    """
    # read what the file holds, never what the header claims: a forged
    # header may name more bytes than any buffer can hold
    try:
        with _open_maybe_gz(images_path) as f:
            raw = f.read()
    except (EOFError, zlib.error, gzip.BadGzipFile) as e:  # a damaged .gz
        raise ValueError(f"damaged gzip data in {images_path}: {e}") from e
    if len(raw) < _IDX_HEADER.size:
        raise ValueError(f"{images_path}: truncated idx header")
    magic, count, rows, cols = _IDX_HEADER.unpack_from(raw)
    if magic != IDX_IMAGES_MAGIC:
        raise ValueError(f"{images_path}: bad images magic {magic}, "
                         f"expected {IDX_IMAGES_MAGIC}")
    # r_g correlates generated images across their pixels, which takes at
    # least 2 pixels an image
    if count < 1 or rows * cols < 2:
        raise ValueError(f"{images_path}: degenerate idx dimensions "
                         f"{count}x{rows}x{cols}")
    size = count * rows * cols
    if len(raw) - _IDX_HEADER.size < size:
        raise ValueError(f"{images_path}: truncated idx image payload")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=size,
                           offset=_IDX_HEADER.size)
    return DatasetHandle("idx", rows * cols, None, 0.0,
                         pixels=pixels.reshape(count, rows * cols))
