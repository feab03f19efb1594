"""Correlation penalty that pushes generated representations apart.

Treats each row of a (n, d) representation batch as one variable observed d
times, forms the n x n Pearson correlation matrix A, and penalizes
||I - A||_F. Perfectly decorrelated rows score 0; a mode-collapsed batch
(rows nearly identical, correlations near 1) scores close to the maximum
sqrt(n^2 - n).

Rows are normalized by max(||row - mean||, eps) rather than by a variance
with eps added inside, so the diagonal of A is exactly 1 for any
non-degenerate row and the penalty is exactly 0 on decorrelated input.

The generator objective does not use r_g raw: loss.rg_penalty divides it
by the ceiling sqrt(n^2 - n) and charges only the excess of the fake batch
over the real one, since rows of real data from one mode are nearly
identical too.
"""

from __future__ import annotations

import numpy as np

from mmgan.neural import accepts_arrays

__all__ = ["r_g", "EPS"]

EPS = 1e-8


@accepts_arrays
def r_g(reps, eps: float = EPS):
    """||I - A||_F with A the (smoothed) row-correlation matrix of reps.

    A Tensor in gives a differentiable Tensor out, an array in gives a
    float.
    """
    v = reps.value
    if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] < 2:
        raise ValueError(f"need at least 2 rows and 2 columns, got {v.shape}")
    centered = reps - reps.mean(axis=1, keepdims=True)
    sq = (centered * centered).sum(axis=1, keepdims=True)
    unit = centered / sq.sqrt().clamp_min(eps)
    a = unit @ unit.T
    diff = np.eye(v.shape[0]) - a
    return (diff * diff).sum().sqrt()
