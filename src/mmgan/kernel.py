"""Kernel functions and the kernel trick for feature-space geometry.

Each formula is written once, in Tensor ops: graph nodes in, nodes out.

Feature-space geometry is computed without ever materializing the feature
map. The centroid of a mapped batch is its mean embedding
mu = (1/n) sum_i phi(s_i), the point that minimizes the summed squared
feature distance to the batch, just as the plain centroid does in input
space; phi(mean of s_i) is not that point unless phi is linear. All
distances reduce to mean kernel values over row pairs:
||mu_a - mu_b||^2 = <mu_a, mu_a> - 2 <mu_a, mu_b> + <mu_b, mu_b>, with
<mu_a, mu_b> = mean_ij K(a_i, b_j). For rbf and exp kernels K(x,x) = 1, so
per-point self terms are constants with zero gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mmgan.neural import constant, node

__all__ = [
    "KERNEL_KINDS",
    "KernelSpec",
    "mean_gram",
    "feature_sq_dist",
    "kernel_radius",
]

KERNEL_KINDS = ("linear", "rbf", "exp")

# below this, relative to the kernel values it is made of, a kernel-trick
# squared distance is a bug, not roundoff
_PSD_SLACK = -1e-12


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth.

    gamma=None means "resolve to 1/d from the input dimension at call time"
    (rbf and exp only; ignored by linear).
    """

    kind: str
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")

    def resolve_gamma(self, dim: int) -> float:
        return self.gamma if self.gamma is not None else 1.0 / dim


def mean_gram(spec: KernelSpec, a, b):
    """<mu_a, mu_b> = mean of K(a_i, b_j) over every row pair of an (n, d)
    and an (m, d) batch.

    One graph node with a hand-written vector-Jacobian product, so the
    n x m kernel matrix costs no per-entry graph bookkeeping.
    """
    va, vb = a.value, b.value
    if (va.ndim != 2 or vb.ndim != 2 or va.shape[1] != vb.shape[1]
            or va.shape[0] < 1 or vb.shape[0] < 1):
        raise ValueError(f"incompatible batches {va.shape} and {vb.shape}")
    w = 1.0 / (va.shape[0] * vb.shape[0])
    if spec.kind == "linear":
        k = va @ vb.T
    else:
        gamma = spec.resolve_gamma(va.shape[1])
        if spec.kind == "rbf":
            # expanded squared distances: roundoff of order eps * |s|^2,
            # harmless inside exp and far cheaper than n x m x d differences
            sq = ((va * va).sum(axis=1)[:, None] + (vb * vb).sum(axis=1)[None, :]
                  - 2.0 * (va @ vb.T))
            k = np.exp(-gamma * np.maximum(sq, 0.0))
        else:
            # exact differences: the square root would amplify that
            # roundoff to sqrt(eps) * |s| for coinciding points
            diff = va[:, None, :] - vb[None, :, :]
            dist = np.sqrt((diff * diff).sum(axis=2))
            k = np.exp(-gamma * dist)
    value = k.sum() * w

    def vjp(g):
        # linear kernel:    dK(a_i, b_j)/da_i = slope_ij b_j;
        # distance kernels: dK(a_i, b_j)/da_i = slope_ij (a_i - b_j);
        # and the mirror images for b_j. Value-only calls never form slope.
        if spec.kind == "linear":
            slope = np.ones_like(k)
        elif spec.kind == "rbf":
            slope = -2.0 * gamma * k
        else:
            slope = np.divide(-gamma * k, dist, out=np.zeros_like(k),
                              where=dist > 0.0)
        ga = gb = None
        if a.requires_grad:
            ga = slope @ vb
            if spec.kind in ("rbf", "exp"):
                ga = slope.sum(axis=1)[:, None] * va - ga
            ga = ga * (g * w)
        if b.requires_grad:
            gb = slope.T @ va
            if spec.kind in ("rbf", "exp"):
                gb = slope.sum(axis=0)[:, None] * vb - gb
            gb = gb * (g * w)
        return ga, gb

    return node(value, (a, b), vjp)


def _psd_checked(v, scale: float):
    """Clamp a kernel-trick squared distance at 0, raising if roundoff
    alone cannot explain a negative value."""
    raw = float(v.value)
    if raw < _PSD_SLACK * max(1.0, scale):
        raise ValueError(
            f"kernel trick produced {raw}, kernel not positive semidefinite")
    return v.clamp_min(0.0)


def feature_sq_dist(spec: KernelSpec, a, b, gram_a=None, gram_b=None):
    """||mu_a - mu_b||^2 between the feature-space centroids of a and b.
    Non-negative.

    Each argument is an (n, d) batch, whose centroid is its mean
    embedding; a batch of one row has phi of that row as its centroid.
    Between two batches this is the (biased) squared maximum mean
    discrepancy. gram_a and gram_b, if given, are the already built
    mean_gram(spec, a, a) and mean_gram(spec, b, b). Raises ValueError if
    roundoff alone cannot explain a negative value, since that means the
    kernel is not positive semidefinite here.
    """
    kaa = mean_gram(spec, a, a) if gram_a is None else gram_a
    kbb = mean_gram(spec, b, b) if gram_b is None else gram_b
    v = kaa - 2.0 * mean_gram(spec, a, b) + kbb
    return _psd_checked(v, float(kaa.value) + float(kbb.value))


def kernel_radius(spec: KernelSpec, points, gram=None):
    """Mean squared feature-space distance from the mapped points to their
    own centroid, the mean embedding mu: mean_i K(s_i, s_i) - <mu, mu>.
    gram, if given, is the already built <mu, mu> = mean_gram(spec,
    points, points).

    Note the squaring: the plain-space radius is a mean of distances, the
    kernelized one is a mean of squared distances. The two conventions are
    kept deliberately distinct.
    """
    vp = points.value
    if vp.ndim != 2 or vp.shape[0] < 1:
        raise ValueError(f"expected non-empty (n, d) points, got {vp.shape}")
    # mean_i K(s_i, s_i): |s_i|^2 for linear, the constant 1 for rbf/exp
    diag = ((points * points).sum(axis=1).mean() if spec.kind == "linear"
            else constant(1.0))
    if gram is None:
        gram = mean_gram(spec, points, points)
    return _psd_checked(diag - gram, float(diag.value))
