"""Correlation penalty that pushes generated representations apart.

Treats each row of a (n, d) representation batch as one variable observed d
times, forms the n x n Pearson correlation matrix A, and penalizes
||I - A||_F. Perfectly decorrelated rows score 0; a mode-collapsed batch
(rows nearly identical, correlations near 1) scores close to the maximum
sqrt(n^2 - n).

Rows are normalized by max(||row - mean||, eps) rather than by a variance
with eps added inside, so the diagonal of A is exactly 1 for any
non-degenerate row and the penalty is exactly 0 on decorrelated input.

r_g is one graph node with a hand-written vector-Jacobian product: the
n x n matrix costs no per-entry graph bookkeeping. Its value is the bits
the same formula gives in composed Tensor ops, and its gradient takes
their subgradients: a row whose norm sits at the eps clamp passes no
gradient through its norm, and at r_g == 0 the gradient is 0.

The generator objective does not use r_g raw: loss.rg_penalty divides it
by the ceiling sqrt(n^2 - n) and charges only the excess of the fake batch
over the real one, since rows of real data from one mode are nearly
identical too.
"""

from __future__ import annotations

import numpy as np

from mmgan.neural import node

__all__ = ["r_g", "EPS"]

EPS = 1e-8


def r_g(reps, eps: float = EPS):
    """||I - A||_F with A the (smoothed) row-correlation matrix of reps,
    a Tensor."""
    v = reps.value
    if v.ndim != 2 or v.shape[0] < 2 or v.shape[1] < 2:
        raise ValueError(f"need at least 2 rows and 2 columns, got {v.shape}")
    n, d = v.shape
    centered = v - v.sum(axis=1, keepdims=True) / d
    norm = np.sqrt((centered * centered).sum(axis=1, keepdims=True))
    den = np.maximum(norm, eps)
    unit = centered / den
    diff = np.eye(n) - unit @ unit.T
    out = np.sqrt((diff * diff).sum())

    def vjp(g):
        if out == 0.0:  # subgradient 0 at the minimum, rather than 0/0
            return (np.zeros_like(v),)
        # d out / d A = -diff / out; A = unit unit^T
        ga = diff * (-g / out)
        gu = (ga + ga.T) @ unit
        # unit = centered / den, with den = norm only off the clamp
        gden = -(gu * centered).sum(axis=1, keepdims=True) / (den * den)
        gc = gu / den + centered * np.where(norm > eps, gden / den, 0.0)
        # centered = v - row mean
        return (gc - gc.sum(axis=1, keepdims=True) / d,)

    return node(out, (reps,), vjp)
