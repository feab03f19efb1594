"""Sphere summaries of point clouds and their moving-average trackers.

A batch of representations is summarized by the sphere through its centroid
with radius equal to the mean distance from the centroid to the points. Two
distributions are considered matched when both the centroid gap and the
radius gap vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mmgan.neural import NumericalError

__all__ = [
    "SphereManifold",
    "centroid",
    "radius",
    "estimate",
    "ManifoldTracker",
    "tracker_update",
]


@dataclass(frozen=True)
class SphereManifold:
    """Centroid (1-D array) and non-negative scalar radius."""

    centroid: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.centroid, dtype=np.float64)
        if c.ndim != 1:
            raise ValueError(f"centroid must be 1-D, got shape {c.shape}")
        object.__setattr__(self, "centroid", c)
        object.__setattr__(self, "radius", float(self.radius))
        if not np.isfinite(c).all() or not np.isfinite(self.radius):
            raise NumericalError("manifold statistics must be finite")
        if self.radius < 0.0:
            raise ValueError(f"radius must be non-negative, got {self.radius}")

    @property
    def dim(self) -> int:
        return self.centroid.shape[0]


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"expected (n, d) points, got shape {pts.shape}")
    if pts.shape[0] < 1:
        raise ValueError("empty point set")
    return pts


def centroid(points) -> np.ndarray:
    return _as_points(points).mean(axis=0)


def radius(points, c) -> float:
    """Mean euclidean distance from c to the points (not RMS, not max)."""
    pts = _as_points(points)
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (pts.shape[1],):
        raise ValueError(f"centroid shape {c.shape} does not match points {pts.shape}")
    return float(np.sqrt(((pts - c) ** 2).sum(axis=1)).mean())


def estimate(points) -> SphereManifold:
    c = centroid(points)
    return SphereManifold(c, radius(points, c))


class ManifoldTracker:
    """Exponentially weighted moving average of per-batch sphere statistics.

    delta weighs history: new = delta * old + (1 - delta) * mini. The first
    update adopts the mini-batch statistic unchanged. delta=0 reduces to
    plain per-batch statistics.
    """

    def __init__(self, delta: float = 0.9):
        if not 0.0 <= delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {delta}")
        self.delta = float(delta)
        self.current: SphereManifold | None = None

    def update(self, mini: SphereManifold) -> SphereManifold:
        return tracker_update(self, mini)


def tracker_update(tracker: ManifoldTracker, mini: SphereManifold) -> SphereManifold:
    """Fold one mini-batch summary into the tracker; returns the new state."""
    if tracker.current is None:
        tracker.current = mini
        return mini
    old = tracker.current
    if old.dim != mini.dim:
        raise ValueError(f"dimension mismatch: tracker {old.dim}, mini {mini.dim}")
    d = tracker.delta
    new = SphereManifold(d * old.centroid + (1.0 - d) * mini.centroid,
                         d * old.radius + (1.0 - d) * mini.radius)
    tracker.current = new
    return new
