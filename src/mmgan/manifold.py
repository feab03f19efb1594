"""Sphere summaries of point clouds and their moving-average trackers.

A batch of representations is summarized by the sphere through its centroid
with radius equal to the mean distance from the centroid to the points. Two
distributions are considered matched when both the centroid gap and the
radius gap vanish. `centroid` and `radius` are the one formula of both, in
Tensor ops: graph nodes in, nodes out. A `ManifoldTracker` holds the moving
averages of both as plain values, and `tracker_update` folds one
mini-batch's nodes into it and returns the blend as nodes.
"""

from __future__ import annotations

import math

import numpy as np

from mmgan.neural import NumericalError, Tensor

__all__ = [
    "centroid",
    "radius",
    "ManifoldTracker",
    "tracker_update",
]


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
    fold adopts the mini-batch statistic unchanged. delta=0 reduces to
    plain per-batch statistics. The state is the last fold's value:
    centroid, a 1-D array (None where only the radius is kept), and the
    non-negative float radius, None before the first fold.
    """

    def __init__(self, delta: float = 0.9):
        if not 0.0 <= delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {delta}")
        self.delta = float(delta)
        self.centroid: np.ndarray | None = None
        self.radius: float | None = None


def tracker_update(tracker: ManifoldTracker, c, r) -> tuple:
    """Fold one mini-batch's centroid node c (None: the tracker keeps the
    radius alone) and radius node r into the tracker. Returns the blend
    (c, r), whose gradients flow through the mini-batch terms alone; the
    tracker's new state is its value. A statistic that fails a check
    leaves the state as it was."""
    d, old_c = tracker.delta, tracker.centroid
    if tracker.radius is not None:
        shape = () if c is None else c.shape  # np.shape(None) is () too
        if shape != np.shape(old_c):
            raise ValueError(f"dimension mismatch: tracker {np.shape(old_c)}, "
                             f"mini {shape}")
        if d != 0.0:
            r = d * tracker.radius + (1.0 - d) * r
            if c is not None:
                c = d * old_c + (1.0 - d) * c
    c_value = None if c is None else c.value
    if c_value is not None and c_value.ndim != 1:
        raise ValueError(f"centroid must be 1-D, got shape {c_value.shape}")
    radius_value = r.item()
    if ((c_value is not None and not np.isfinite(c_value).all())
            or not math.isfinite(radius_value)):
        raise NumericalError("manifold statistics must be finite")
    if radius_value < 0.0:
        raise ValueError(f"radius must be non-negative, got {radius_value}")
    tracker.centroid, tracker.radius = c_value, radius_value
    return c, r
