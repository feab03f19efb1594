"""Finite-difference verification of the generator loss gradients.

Each variant assembles the generator's pipeline on tiny nets (G 2-16-8-2,
D's feature layers 2-16-8, batch 8) and compares
d(l_g_final)/d(G parameters) against central differences. Hidden
activations are tanh so the loss is smooth at the probe scale; relu kinks
would charge the comparison with subgradient noise unrelated to the graph
being checked.

The error metric per parameter tensor is
``max|analytic - fd| / max(max|analytic|, max|fd|, 1e-6)`` and a variant's
score is the worst tensor.

A ``+rg`` row would repeat its base row where the correlation penalty's
hinge is 0, so each seed's batches are redrawn from its generator until
the fake batch is more correlated than the real one (seed 0 needs one
draw). A non-finite error fails its row.

Each loss evaluation computes only what l_g_final reads. D is the net of
its layers but the last, as in training, since the objective never reads
D's output; the 8-1 output layer is still drawn from the seed's generator,
and dropped, so every seed keeps the batches it always drew. D's real
features, their statistics (`loss.batch_stats`, the form training builds)
and a ``+rg`` row's real rg_score depend on no parameter of G: each variant
computes them once, the same bits that recomputing them per evaluation gives.
"""

from __future__ import annotations

import numpy as np

from mmgan.kernel import KERNEL_KINDS, KernelSpec
from mmgan.loss import LossConfig, batch_stats, generator_terms, rg_score
from mmgan.neural import Network, Tensor, constant, gradients, no_grad

__all__ = ["BASES", "TOLERANCE", "variant_names", "check_variant", "run_suite"]

BASES = ("plain", *KERNEL_KINDS)
TOLERANCE = 1e-4
_BATCH = 8
_FD_STEP = 1e-5
# seeds 0-29999 need at most 35 draws
_MAX_DRAWS = 100


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
    g_net = Network.create((2, 16, 8, 2), hidden_activation="tanh", rng=rng)
    d_net = Network(Network.create((2, 16, 8, 1), hidden_activation="tanh",
                                   rng=rng).layers[:2])
    for _ in range(_MAX_DRAWS):
        z = rng.standard_normal((_BATCH, 2))
        x = rng.standard_normal((_BATCH, 2))
        fake = constant(d_net.forward_values(g_net.forward_values(z)))
        real = constant(d_net.forward_values(x))
        if rg_score(fake).item() > rg_score(real).item():
            return g_net, d_net, z, x
    raise ValueError(f"seed {seed}: no batches with an active correlation "
                     f"penalty in {_MAX_DRAWS} draws")


def _loss_value(cfg: LossConfig, g_net: Network, d_net: Network,
                z: np.ndarray, feat_real: Tensor, real: tuple, rg_real):
    feat_fake = d_net.forward(g_net.forward(constant(z)))
    return generator_terms(cfg, feat_real, feat_fake, real,
                           rg_real=rg_real).total


def check_variant(name: str, alpha: float = 1.0, beta: float = 1.0,
                  gamma: float | None = None, seed: int = 0,
                  inject_fault: bool = False) -> float:
    """Worst relative error between graph gradients and central
    differences for one variant. inject_fault corrupts one analytic
    entry so the failure path can be exercised."""
    cfg = _config(name, alpha, beta, gamma)
    g_net, d_net, z, x = _build(seed)
    # fixed under any G perturbation
    feat_real = constant(d_net.forward_values(x))
    args = (cfg, g_net, d_net, z, feat_real, batch_stats(cfg.kernel, feat_real),
            rg_score(feat_real) if cfg.beta > 0.0 else None)
    params = g_net.parameters()
    analytic = gradients(_loss_value(*args), params)
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
                hi = _loss_value(*args).item()
                flat[i] = orig - _FD_STEP
                lo = _loss_value(*args).item()
                flat[i] = orig
                fd[i] = (hi - lo) / (2.0 * _FD_STEP)
        a = analytic[key].reshape(-1)
        denom = max(np.abs(a).max(), np.abs(fd).max(), 1e-6)
        # np.maximum keeps a NaN, which max() would drop
        worst = np.maximum(worst, np.abs(a - fd).max() / denom)
    return float(worst)


def run_suite(names=None, **options) -> list:
    """[(variant, max_rel_err, passed)] over the requested variants;
    options go to check_variant as keywords."""
    rows = []
    for name in (names if names is not None else variant_names()):
        err = check_variant(name, **options)
        rows.append((name, err, err < TOLERANCE))
    return rows
