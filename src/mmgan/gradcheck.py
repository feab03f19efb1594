"""Finite-difference verification of the generator loss gradients.

Each variant assembles the full pipeline on tiny nets (G 2-16-8-2,
D 2-16-8-1 with the feature tap on the 8-wide hidden layer, batch 8) and
compares d(l_g_final)/d(G parameters) against central differences. Hidden
activations are tanh so the loss is smooth at the probe scale; relu kinks
would charge the comparison with subgradient noise unrelated to the graph
being checked.

The error metric per parameter tensor is
``max|analytic - fd| / max(max|analytic|, max|fd|, 1e-6)`` and a variant's
score is the worst tensor.

A ``+rg`` variant checks the correlation penalty's gradient only at seeds
where the fake batch is more correlated than the real one. Elsewhere the
penalty's hinge is 0, so the row repeats its base row: seed 1 is such a
seed, the default seed 0 is not.
"""

from __future__ import annotations

import numpy as np

from mmgan.kernel import KernelSpec
from mmgan.loss import LossConfig, generator_terms
from mmgan.neural import Network, constant, gradients, no_grad

__all__ = ["BASES", "TOLERANCE", "variant_names", "check_variant", "run_suite"]

BASES = ("plain", "linear", "rbf", "exp", "poly")
TOLERANCE = 1e-4
_BATCH = 8
_FD_STEP = 1e-5


def variant_names(kernel: str | None = None, beta: float | None = None) -> list:
    """The suite's variant grid, optionally narrowed to one kernel choice
    (``none`` selects the plain base) and, with beta == 0, to the
    regularizer-free rows."""
    bases = BASES
    if kernel is not None:
        bases = ("plain",) if kernel == "none" else (kernel,)
        if bases[0] not in BASES:
            raise ValueError(f"unknown kernel {kernel!r}")
    names = []
    for base in bases:
        names.append(base)
        if beta is None or beta != 0.0:
            names.append(base + "+rg")
    return names


def _config(name: str, alpha: float, beta: float,
            gamma: float | None) -> LossConfig:
    base, _, tail = name.partition("+")
    if base not in BASES or (tail and tail != "rg"):
        raise ValueError(f"unknown variant {name!r}")
    kernel = None if base == "plain" else KernelSpec(base, gamma=gamma)
    return LossConfig(alpha=alpha, beta=beta if tail else 0.0, kernel=kernel)


def _build(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    g_net = Network.create((2, 16, 8, 2), hidden_activation="tanh",
                           feature_tap_index=2, rng=rng)
    d_net = Network.create((2, 16, 8, 1), hidden_activation="tanh",
                           out_activation="sigmoid", rng=rng)
    z = rng.standard_normal((_BATCH, 2))
    x = rng.standard_normal((_BATCH, 2))
    return g_net, d_net, z, x


def _loss_value(cfg: LossConfig, g_net: Network, d_net: Network,
                z: np.ndarray, x: np.ndarray):
    fake_pts, _ = g_net.forward(constant(z))
    feat_real = d_net.forward(constant(x))[1]
    feat_fake = d_net.forward(fake_pts)[1]
    return generator_terms(cfg, feat_real, feat_fake).total


def check_variant(name: str, alpha: float = 1.0, beta: float = 1.0,
                  gamma: float | None = None, seed: int = 0,
                  inject_fault: bool = False) -> float:
    """Worst relative error between graph gradients and central
    differences for one variant. inject_fault corrupts one analytic
    entry so the failure path can be exercised."""
    cfg = _config(name, alpha, beta, gamma)
    g_net, d_net, z, x = _build(seed)
    params = g_net.parameters()
    analytic = gradients(_loss_value(cfg, g_net, d_net, z, x), params)
    if inject_fault:
        first = next(iter(analytic))
        analytic[first] = analytic[first] + 1e-2
    worst = 0.0
    for key, tensor in params.items():
        flat = tensor.value.reshape(-1)
        fd = np.empty_like(flat)
        with no_grad():
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + _FD_STEP
                hi = _loss_value(cfg, g_net, d_net, z, x).item()
                flat[i] = orig - _FD_STEP
                lo = _loss_value(cfg, g_net, d_net, z, x).item()
                flat[i] = orig
                fd[i] = (hi - lo) / (2.0 * _FD_STEP)
        a = analytic[key].reshape(-1)
        denom = max(np.abs(a).max(), np.abs(fd).max(), 1e-6)
        worst = max(worst, float(np.abs(a - fd).max() / denom))
    return worst


def run_suite(names=None, **options) -> list:
    """[(variant, max_rel_err, passed)] over the requested variants;
    options go to check_variant as keywords."""
    rows = []
    for name in (names if names is not None else variant_names()):
        err = check_variant(name, **options)
        rows.append((name, err, err < TOLERANCE))
    return rows
