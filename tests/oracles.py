"""Independent numerical oracles shared by the test suite.

Deliberately implementation-naive: central finite differences, brute-force
loops, and hand algebra only. Only the composed references import the
package's autodiff machinery, so agreement between the others and the real
code is evidence, not tautology.

The composed references at the end take Tensors and write a fused graph
node's formula as a chain of primitive ops, each with its own
vector-Jacobian product: the hand-written VJP of the fused node must agree
with theirs. Primitives that no product graph runs (transpose, matmul,
Tensor / Tensor, log, clamp, negation) are built here as local
`neural.node` ops, and an array left of `-` enters as a `constant`.
"""

import numpy as np

from mmgan.neural import _unbroadcast, constant, node


def fd_gradients(f, arrays, h=1e-5):
    """Central-difference gradients of scalar f() w.r.t. each array.

    `arrays` maps name -> ndarray; f reads them by reference, so entries are
    perturbed in place and restored. Returns {name: ndarray}.
    """
    out = {}
    for name, a in arrays.items():
        g = np.zeros_like(a)
        flat = a.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = f()
            flat[i] = orig - h
            lo = f()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * h)
        out[name] = g
    return out


def rel_err(analytic, numeric, floor=1e-6):
    """inf-norm relative disagreement with a floor against 0/0."""
    a = np.asarray(analytic, dtype=float)
    n = np.asarray(numeric, dtype=float)
    num = np.max(np.abs(a - n)) if a.size else 0.0
    den = max(np.max(np.abs(a)) if a.size else 0.0,
              np.max(np.abs(n)) if n.size else 0.0, floor)
    return num / den


def max_rel_err(analytic_map, numeric_map, floor=1e-6):
    assert set(analytic_map) == set(numeric_map)
    return max(rel_err(analytic_map[k], numeric_map[k], floor) for k in analytic_map)


def brute_centroid(points):
    points = np.asarray(points, dtype=float)
    d = points.shape[1]
    c = np.zeros(d)
    for row in points:
        c = c + row
    return c / len(points)


def brute_mean_distance(points, c):
    points = np.asarray(points, dtype=float)
    total = 0.0
    for row in points:
        total += float(np.sqrt(np.sum((np.asarray(c) - row) ** 2)))
    return total / len(points)


def manifold_gap(real, fake) -> tuple:
    """(centroid gap, radius gap) between two spheres, each a (centroid,
    radius) pair: the reference sphere gaps acceptance criterion 4 judges
    a tracker by."""
    (c_real, r_real), (c_fake, r_fake) = real, fake
    c_real, c_fake = np.asarray(c_real, dtype=float), np.asarray(c_fake, dtype=float)
    if c_real.shape != c_fake.shape:
        raise ValueError(f"dimension mismatch: {c_real.shape} vs {c_fake.shape}")
    return float(np.linalg.norm(c_real - c_fake)), abs(r_real - r_fake)


def brute_corr(reps):
    """Pearson correlation matrix by the textbook formula, row variables."""
    reps = np.asarray(reps, dtype=float)
    n = reps.shape[0]
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            xi = reps[i] - reps[i].mean()
            xj = reps[j] - reps[j].mean()
            denom = np.sqrt(np.sum(xi ** 2)) * np.sqrt(np.sum(xj ** 2))
            a[i, j] = np.sum(xi * xj) / denom if denom > 0 else 0.0
    return a


def kernel_eval(spec, a, b):
    """K(a, b) for two d-vectors under a KernelSpec, one pair at a time:
    the per-pair reference for the batched kernel code."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError(f"kernel inputs must be 1-D, got {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if spec.kind == "linear":
        return float((a * b).sum())
    gamma = spec.resolve_gamma(a.shape[0])
    diff = a - b
    return float(np.exp(-gamma * (diff * diff).sum()))


def _transpose(t):
    return node(t.value.T, (t,), lambda g: (g.T,))


def _matmul(x, y):
    a, b = x.value, y.value
    return node(a @ b, (x, y), lambda g: (g @ b.T, a.T @ g))


def _div(x, y):
    """x / y of two Tensors, each gradient summed down to its shape."""
    a, b = x.value, y.value
    return node(a / b, (x, y),
                lambda g: (_unbroadcast(g / b, a.shape),
                           _unbroadcast(-g * a / (b * b), b.shape)))


def _neg(t):
    return node(-t.value, (t,), lambda g: (-g,))


def _log(t):
    a = t.value
    return node(np.log(a), (t,), lambda g: (g / a,))


def _clamp(t, lo: float, hi: float):
    """clip to [lo, hi]; gradient 0 outside the open interval."""
    a = t.value
    return node(np.clip(a, lo, hi), (t,),
                lambda g: (g * ((a > lo) & (a < hi)),))


def composed_r_g(reps, eps: float):
    """regularizer.r_g in primitive ops: ||I - A||_F with A the row
    correlations, each row normalized by max(||row - mean||, eps)."""
    centered = reps - reps.mean(axis=1, keepdims=True)
    sq = (centered * centered).sum(axis=1, keepdims=True)
    unit = _div(centered, sq.sqrt().clamp_min(eps))
    a = _matmul(unit, _transpose(unit))
    diff = constant(np.eye(reps.value.shape[0])) - a
    return (diff * diff).sum().sqrt()


def composed_l_d_final(d_real, d_fake, clamp: float):
    """loss.l_d_final in primitive ops: -(mean log D(real) +
    mean log(1 - D(fake))), probabilities clamped to [clamp, 1 - clamp]."""
    lo, hi = clamp, 1.0 - clamp
    return _neg(_log(_clamp(d_real, lo, hi)).mean()
                + _log(constant(1.0) - _clamp(d_fake, lo, hi)).mean())


def composed_l_g_baseline(d_fake, clamp: float):
    """loss.l_g_baseline in primitive ops: -mean log D(fake),
    probabilities clamped to [clamp, 1 - clamp]."""
    return _neg(_log(_clamp(d_fake, clamp, 1.0 - clamp)).mean())
