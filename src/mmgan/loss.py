"""Generator and discriminator objectives, each written once in Tensor ops.

`batch_stats` alone decides which statistics of a batch each geometry
compares. Two radius conventions coexist and must never be mixed: the
plain-space sphere radius is a mean of distances, while the kernelized
radius is a mean of squared feature-space distances. Which one a loss uses
is decided solely by whether its config carries a kernel.

The generator objective is
    manifold_term + alpha * radius_term + beta * rg_penalty(real, fake reps)
where manifold_term is the centroid gap and radius_term the absolute radius
gap. In plain space the centroid gap is the euclidean norm between the
(moving-average) centroids. In feature space the centroid of a batch is its
mean embedding, which has no finite coordinates to average across steps, so
the gap is the kernel-trick squared distance between the mean embeddings of
the real and the fake batch (the squared MMD); the moving averages enter
through the radii. alpha weighs the radius term only in the kernelized loss;
the plain loss carries it unweighted, exactly as the two printed forms
differ. The correlation penalty compares r_g, divided by its ceiling
sqrt(n^2 - n), between the fake and the real batch: it lies in [0, 1] like
the bounded kernel terms whatever the batch size, instead of outweighing
them n-fold, and it vanishes where the batches agree.

The discriminator minimizes the classification loss alone, a clamped
binary cross-entropy that the baseline generator's objective shares with
the fakes labelled real: D learns the representation in which the
manifolds are fitted, and only the generator plays the matching game.
When the discriminator also maximized the matching quantity, it won that
game by spreading its features until every cross-kernel value vanished,
and the generator, left without a matching gradient, lost the modes it
had found.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mmgan.kernel import KernelSpec, feature_sq_dist, kernel_radius, mean_gram
from mmgan.manifold import centroid, radius
from mmgan.neural import node
from mmgan.regularizer import r_g

__all__ = [
    "PROB_CLAMP",
    "LossConfig",
    "LossReport",
    "GeneratorTerms",
    "batch_stats",
    "rg_score",
    "rg_penalty",
    "generator_terms",
    "l_d_final",
    "l_g_baseline",
]

PROB_CLAMP = 1e-7


@dataclass(frozen=True)
class LossConfig:
    """Weights and the geometry switch of the generator objective.

    kernel=None selects plain sphere geometry.
    """

    alpha: float = 1.0
    beta: float = 1.0
    kernel: KernelSpec | None = None

    def __post_init__(self):
        if not (self.alpha >= 0 and self.beta >= 0):
            raise ValueError("alpha and beta must be non-negative")
        if self.kernel is not None and not isinstance(self.kernel, KernelSpec):
            raise ValueError("kernel must be a KernelSpec or None")


@dataclass(frozen=True)
class LossReport:
    """Per-step scalar record, the unit of history; its fields, in order,
    are the first columns of metrics.csv."""

    step: int
    loss_g: float
    loss_d: float
    manifold_term: float
    radius_term: float
    r_g: float


@dataclass
class GeneratorTerms:
    """Decomposed generator objective. Fields are Tensors; rg is rg_penalty
    and rg_fake the fake batch's rg_score it charges, both None when beta
    is 0."""

    manifold: object
    radius: object
    rg: object
    rg_fake: object
    total: object


def _cross_entropy(*batches):
    """Binary cross-entropy, one graph node, over (name, probabilities,
    labelled_real) batches, name for error messages: a real-labelled batch
    adds -mean log p, a fake-labelled one -mean log(1 - p). Probabilities
    are clamped to [1e-7, 1 - 1e-7] so the logs stay finite; one outside
    the open clamp interval gets gradient 0. Value and gradients are the
    bits of the composed clamp, log, mean and negate chain."""
    lo, hi = PROB_CLAMP, 1.0 - PROB_CLAMP
    terms = []
    for name, p, real in batches:
        v = p.value
        if v.size < 1:
            raise ValueError(f"{name} is empty")
        # written so that NaN fails it too
        if not (v.min() >= 0.0 and v.max() <= 1.0):
            raise ValueError(f"{name} must hold probabilities in [0, 1]")
        c = np.clip(v, lo, hi)
        terms.append((p, v, c if real else 1.0 - c, real))

    def vjp(g):
        # d(-log q)/dq = -1/q, and dq/dp is 1 for p, -1 for 1 - p
        return tuple(((-g if real else g) / v.size) / q * ((v > lo) & (v < hi))
                     if p.requires_grad else None
                     for p, v, q, real in terms)

    return node(-sum(np.log(q).sum() / q.size for _, _, q, _ in terms),
                tuple(t[0] for t in terms), vjp)


def l_d_final(d_real, d_fake):
    """The discriminator's objective, the classification loss
    -(mean log D(real) + mean log(1 - D(fake)))."""
    return _cross_entropy(("d_real", d_real, True), ("d_fake", d_fake, False))


def l_g_baseline(d_fake):
    """The baseline generator's non-saturating objective, -mean log
    D(fake): the same cross-entropy with the fakes labelled real, which
    pushes D(G(z)) toward 1."""
    return _cross_entropy(("d_fake", d_fake, True))


def batch_stats(spec: KernelSpec | None, reps) -> tuple:
    """(centroid, radius, mean_gram) of one batch of representations under
    the geometry spec selects, as Tensors.

    In plain space (spec None): the centroid, the mean distance to it, and
    no Gram. With a kernel: no centroid, since a batch's centroid is then
    its mean embedding, which has no finite coordinates; the mean squared
    feature distance to it; and the mean Gram <mu, mu>, the one node that
    both the radius and the MMD^2 read.
    """
    if spec is None:
        c = centroid(reps)
        return c, radius(reps, c), None
    gram = mean_gram(spec, reps, reps)
    return None, kernel_radius(spec, reps, gram), gram


def rg_score(reps):
    """r_g scaled by its ceiling sqrt(n^2 - n): near 1 for a collapsed
    batch, 0 for decorrelated rows."""
    n = reps.value.shape[0]
    return r_g(reps) * (1.0 / np.sqrt(n * n - n))


def rg_penalty(score_real, score_fake):
    """Excess correlation of the fake batch over the real one,
    max(0, score_fake - score_real), in [0, 1], from the two batches'
    rg_score. The real score enters as a constant.

    Real batches are correlated themselves (rows from one mode nearly
    coincide), so rg_score(fake) alone stays far from 0 at the data
    distribution and its gradient keeps pushing a matched generator off the
    modes. Measured against the real batch, the penalty vanishes where fake
    and real agree and acts when fakes are more alike than data are, which
    is mode collapse.
    """
    return (score_fake - score_real).clamp_min(0.0)


def generator_terms(cfg: LossConfig, reps_real, reps_fake,
                    real=None, fake=None, rg_real=None) -> GeneratorTerms:
    """The decomposed generator objective over two batches' Tensors, the
    real one a constant.

    real and fake are each a batch's (centroid, radius, mean_gram) triple
    in the form `batch_stats` returns; None means that batch's own
    mini-batch statistics. The trainer passes moving-average blends of the
    centroid and radius instead, with the mean Grams it has already built.
    The centroids shape the plain loss only; the kernelized centroid gap
    always compares the two batches' mean embeddings. rg_real is the
    already built rg_score(reps_real), which the penalty reads when beta
    is above 0; None scores reps_real here.
    """
    c_real, radius_real, gram_real = (batch_stats(cfg.kernel, reps_real)
                                      if real is None else real)
    c_fake, radius_fake, gram_fake = (batch_stats(cfg.kernel, reps_fake)
                                      if fake is None else fake)
    if cfg.kernel is None:
        diff = c_real - c_fake
        manifold = (diff * diff).sum().sqrt()
    else:
        manifold = feature_sq_dist(cfg.kernel, reps_real, reps_fake,
                                   gram_real, gram_fake)
    radius = (radius_real - radius_fake).abs()
    # alpha belongs to the kernelized radius gap only; the plain-space form
    # is an unweighted sum
    radius_weight = cfg.alpha if cfg.kernel is not None else 1.0
    total = manifold + radius_weight * radius
    rg = rg_fake = None
    if cfg.beta > 0.0:
        rg_fake = rg_score(reps_fake)
        rg = rg_penalty(rg_score(reps_real) if rg_real is None else rg_real,
                        rg_fake)
        total = total + cfg.beta * rg
    return GeneratorTerms(manifold=manifold, radius=radius, rg=rg,
                          rg_fake=rg_fake, total=total)

