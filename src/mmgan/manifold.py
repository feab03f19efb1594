"""Sphere summaries of point clouds and their moving-average trackers.

A batch of representations is summarized by the sphere through its centroid
with radius equal to the mean distance from the centroid to the points. Two
distributions are considered matched when both the centroid gap and the
radius gap vanish. `centroid` and `radius` are the one formula of both, in
Tensor ops: graph nodes in, nodes out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mmgan.neural import NumericalError, Tensor

__all__ = [
    "SphereManifold",
    "centroid",
    "radius",
    "ManifoldTracker",
    "tracker_update",
]


@dataclass(frozen=True)
class SphereManifold:
    """Centroid (1-D array, or None where only the radius is kept) and
    non-negative scalar radius."""

    centroid: np.ndarray | None
    radius: float

    def __post_init__(self):
        c = self.centroid
        if c is not None:
            c = np.asarray(c, dtype=np.float64)
            if c.ndim != 1:
                raise ValueError(f"centroid must be 1-D, got shape {c.shape}")
            object.__setattr__(self, "centroid", c)
        object.__setattr__(self, "radius", float(self.radius))
        if (c is not None and not np.isfinite(c).all()) or not np.isfinite(self.radius):
            raise NumericalError("manifold statistics must be finite")
        if self.radius < 0.0:
            raise ValueError(f"radius must be non-negative, got {self.radius}")


def _as_points(points: Tensor) -> Tensor:
    if points.value.ndim != 2:
        raise ValueError(f"expected (n, d) points, got shape {points.shape}")
    if points.value.shape[0] < 1:
        raise ValueError("empty point set")
    return points


def centroid(points):
    """Mean point. Shape (d,)."""
    return _as_points(points).mean(axis=0)


def radius(points, c):
    """Mean euclidean distance from c to the points (not RMS, not max)."""
    pts = _as_points(points)
    if c.shape != (pts.shape[1],):
        raise ValueError(f"centroid shape {c.shape} does not match points {pts.shape}")
    diff = pts - c
    return (diff * diff).sum(axis=1).sqrt().mean()


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
        tracker_update(self, mini.centroid, mini.radius)
        return self.current


def tracker_update(tracker: ManifoldTracker, c, r) -> tuple:
    """Fold one mini-batch's centroid c (None: the tracker keeps the radius
    alone) and radius r, arrays and floats or graph nodes, into the
    tracker. Returns the blend (c, r), whose gradients flow through the
    mini-batch terms alone; the tracker's new state is its value."""
    old, d = tracker.current, tracker.delta
    c_value = c.value if isinstance(c, Tensor) else c
    if old is not None and np.shape(c_value) != np.shape(old.centroid):
        raise ValueError(f"dimension mismatch: tracker {np.shape(old.centroid)}, "
                         f"mini {np.shape(c_value)}")
    if old is not None and d != 0.0:
        r = d * old.radius + (1.0 - d) * r
        if c is not None:
            c = d * old.centroid + (1.0 - d) * c
    tracker.current = SphereManifold(c.value if isinstance(c, Tensor) else c,
                                     r.value if isinstance(r, Tensor) else r)
    return c, r
