"""Mode coverage and manifold-gap measurements for generated samples."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mmgan.manifold import SphereManifold

__all__ = ["MetricsRow", "mode_coverage", "manifold_gap",
           "HQ_SIGMA_MULTIPLIER", "COVERAGE_DIVISOR"]

# a sample is high quality within this many sigmas of its nearest mode
HQ_SIGMA_MULTIPLIER = 3.0
# a mode counts as covered with at least max(1, n / (divisor * n_modes))
# high-quality samples
COVERAGE_DIVISOR = 10.0


@dataclass(frozen=True)
class MetricsRow:
    """One evaluation snapshot. r_g_value scores the generated samples
    themselves as their own vector representations."""

    step: int
    modes_covered: int
    coverage_fraction: float
    hq_fraction: float
    centroid_gap: float
    radius_gap: float
    r_g_value: float


def mode_coverage(samples, centers, sigma: float) -> tuple:
    """(modes_covered, hq_fraction) for samples against gaussian modes.

    A sample is high quality iff it lies within HQ_SIGMA_MULTIPLIER * sigma
    of its nearest center; a mode is covered iff it owns at least
    max(1, n / (COVERAGE_DIVISOR * n_modes)) high-quality samples.
    """
    samples = np.asarray(samples, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 1:
        raise ValueError(f"expected non-empty (n, d) samples, got {samples.shape}")
    if centers.ndim != 2 or centers.shape[0] < 1:
        raise ValueError(f"expected non-empty (m, d) centers, got {centers.shape}")
    if samples.shape[1] != centers.shape[1]:
        raise ValueError(
            f"dimension mismatch: samples {samples.shape}, centers {centers.shape}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    n, m = samples.shape[0], centers.shape[0]
    d2 = ((samples[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    nearest = d2.argmin(axis=1)
    hq = np.sqrt(d2[np.arange(n), nearest]) <= HQ_SIGMA_MULTIPLIER * sigma
    counts = np.bincount(nearest[hq], minlength=m)
    need = max(1.0, n / (COVERAGE_DIVISOR * m))
    return int((counts >= need).sum()), float(hq.mean())


def manifold_gap(m_real: SphereManifold, m_fake: SphereManifold) -> tuple:
    """(centroid gap, radius gap) between two fitted spheres."""
    if m_real.dim != m_fake.dim:
        raise ValueError(f"dimension mismatch: {m_real.dim} vs {m_fake.dim}")
    return (float(np.linalg.norm(m_real.centroid - m_fake.centroid)),
            abs(m_real.radius - m_fake.radius))
