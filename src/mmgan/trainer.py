"""Alternating GAN training with moving-average manifold matching.

Each step runs, in this exact order:
  1. one or more discriminator updates on fresh batches (classification
     loss only, in every mode), each building G's graph on its latent
     batch once and training D on that graph's value,
  2. one pass of the freshly updated discriminator over the last fake
     batch, as a graph on G's node with D's parameters as constants, so
     that G's backward stops at the fakes, and one over the last real
     batch, as values: on every step in the matcher, on report steps only
     in the baseline. D's vector representation is the net of its layers
     but the last, and these passes run only those, except the baseline's
     fake pass, which runs all of D: its objective reads D's output,
  3. the tracker refresh (matching objective only): both batches'
     statistics are folded into the real/fake moving-average trackers, the
     fake ones read off the graph of step 2,
  4. one generator update through the graph of step 2, using the
     post-update real statistics and a differentiable blend of the
     pre-update fake tracker with the current mini-batch statistic,
  5. on report steps only (every eval_interval steps and the last), the
     step's LossReport: the matcher reads the terms step 4 descended;
     the baseline, which never optimizes them, reads the plain sphere
     gaps of `generator_terms` over both batches' features, the fakes'
     from one more value pass (step 4 leaves D unchanged).

Every step checks loss_d and loss_g for finiteness, and a report step
every field of its report; the matcher's terms are non-negative, so a
finite total implies finite terms. Reporting does not steer training: the
weights are the same bits whatever eval_interval is.

Each value is computed once per step and shared: G's forward, D's pass
over the fakes, each batch's mean Gram (its radius and the MMD^2 both read
it) and the fake batch's rg_score (the penalty and the report).

The blend delta * stop_grad(tracked) + (1 - delta) * mini keeps gradients
flowing through the mini-batch term only, and the tracker state after step
3 is the blend's value: one fold (`manifold.tracker_update`) of the
mini-batch nodes computes both, on the real side as on the fake. A tracker
that has not seen any batch yet contributes nothing: the raw mini-batch
statistic is used. The trainer knows no geometry: which
statistics a batch contributes is `loss.batch_stats`'s decision (with a
kernel, the radius and the mean Gram but no centroid), and the trackers
fold whatever it returns.

After each generator update its parameters are folded into an exponential
moving average, and that average is the generator a run evaluates and
returns. The adversarial game keeps the raw iterate circling its
equilibrium: on ring8 rbf at step 20000 the raw generator of seeds 0-3
covered 2-7 modes with high-quality fractions of 0.16-0.45, and one run
fell from 7 modes to 2 within the last 2500 steps, while the average
covered 7-8 modes at 0.60-0.65. It is the estimator the manifold trackers
apply to batch statistics, applied to the weights.

d_step, update_trackers and g_step are module-level on purpose, so the
sequencing is observable (and patchable) from outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mmgan.config import RunConfig
from mmgan.data import DatasetHandle, sample_batch
from mmgan.kernel import KernelSpec
from mmgan.loss import (
    LossConfig,
    LossReport,
    batch_stats,
    generator_terms,
    l_d_final,
    l_g_baseline,
    rg_score,
)
from mmgan.manifold import ManifoldTracker, tracker_update
from mmgan.metrics import MetricsRow, mode_coverage
from mmgan.neural import (
    Layer,
    Network,
    NumericalError,
    SGD,
    Tensor,
    constant,
    gradients,
    parameter,
)
from mmgan.regularizer import r_g

__all__ = [
    "TrainResult",
    "train",
    "draw_eval_batch",
    "score_samples",
    "d_step",
    "g_step",
    "update_trackers",
]

_EVAL_STREAM_TAG = 59297
# Generator parameter average: new = d * old + (1 - d) * current, with d
# ramped up as min(G_AVERAGE_DECAY, (1 + t) / (10 + t)) so that short runs
# are not dominated by the initial weights.
G_AVERAGE_DECAY = 0.998
# the plain sphere gaps that the baseline's report and every evaluation read
_PLAIN = LossConfig(beta=0.0)


@dataclass
class TrainResult:
    """generator is the parameter average (see the module docstring), and
    history holds the reports of the report steps, one per eval."""

    generator: Network
    discriminator: Network
    history: list
    real_tracker: ManifoldTracker
    fake_tracker: ManifoldTracker


def d_step(g_net: Network, d_net: Network, opt_d: SGD,
           x: np.ndarray, z: np.ndarray) -> tuple:
    """One discriminator update on the classification loss, the same in
    every mode. Returns (loss_d, fake), fake being G's graph node on z:
    D trains on its value alone, so D's backward never walks G, and g_step
    differentiates the same node, since G does not change in between."""
    fake = g_net.forward(z)
    out_real = d_net.forward(x)
    out_fake = d_net.forward(fake.value)
    loss_node = l_d_final(out_real, out_fake)
    opt_d.step(gradients(loss_node, d_net.parameters()))
    return loss_node.item(), fake


def update_trackers(spec: KernelSpec | None, feat_real: Tensor,
                    feat_fake: Tensor, real_tracker: ManifoldTracker,
                    fake_tracker: ManifoldTracker) -> tuple:
    """Fold this batch's statistics (`loss.batch_stats`), measured with the
    updated discriminator in the geometry spec selects, into both trackers,
    and return the two blended (centroid, radius, mean_gram) triples that
    g_step reads, real first.

    Both trackers fold nodes, and each one's state is the value of the
    blend g_step reads. feat_real holds the real features as a constant,
    so the real triple is constant nodes; feat_fake holds the fake ones as
    the graph node g_step differentiates.
    """
    c, r, gram = batch_stats(spec, feat_real)
    side = "real"
    try:
        real = (*tracker_update(real_tracker, c, r), gram)
        side = "fake"
        c, r, gram = batch_stats(spec, feat_fake)
        return real, (*tracker_update(fake_tracker, c, r), gram)
    except NumericalError as e:
        raise NumericalError(f"{side} tracker: {e}") from e


def g_step(lc: LossConfig | None, opt_g: SGD, feat_real: Tensor | None,
           d_fake: Tensor, stats: tuple | None) -> tuple:
    """One generator update through the (fixed) discriminator's graph on
    this step's fake node d_fake: D's features on the matching objective lc
    with the blended (real, fake) statistics triples stats of
    update_trackers, or D's output with lc and stats None on the
    adversarial objective alone (the baseline, which does not read
    feat_real).

    Returns (loss_g, terms): the objective's value as a float, and the
    GeneratorTerms it was assembled from, None in the baseline, for the
    report to read.
    """
    if lc is None:
        loss_node = l_g_baseline(d_fake)
        opt_g.step(gradients(loss_node, opt_g.params))
        return loss_node.item(), None

    terms = generator_terms(lc, feat_real, d_fake, *stats)
    opt_g.step(gradients(terms.total, opt_g.params))
    return terms.total.item(), terms


def _require_finite(**values) -> None:
    for name, v in values.items():
        if not math.isfinite(v):
            raise NumericalError(f"non-finite {name}")


def _report(step: int, loss_d: float, loss_g: float, terms,
            real: Tensor, feat_fake: Tensor) -> LossReport:
    """The step's LossReport from what g_step returned, every field checked
    finite. The baseline (terms None) reads the _PLAIN terms of the two
    batches' features instead: the sphere gaps, measured for observability."""
    if terms is None:
        terms = generator_terms(_PLAIN, real, feat_fake)
    rg = (rg_score(feat_fake) if terms.rg_fake is None else terms.rg_fake).item()
    report = LossReport(step=step, loss_g=loss_g, loss_d=loss_d,
                        manifold_term=terms.manifold.item(),
                        radius_term=terms.radius.item(), r_g=rg)
    _require_finite(**vars(report))
    return report


def _rebuild(net: Network, leaf) -> Network:
    """net's layers over the leaves leaf(array) makes of its parameters."""
    return Network([Layer(leaf(layer.weight.value), leaf(layer.bias.value),
                          layer.activation)
                    for layer in net.layers], net.name)


def _fold_average(avg: Network, net: Network, step: int) -> None:
    d = min(G_AVERAGE_DECAY, (1.0 + step) / (10.0 + step))
    current = net.parameters()
    for name, p in avg.parameters().items():
        p.value *= d
        p.value += (1.0 - d) * current[name].value


def train(cfg: RunConfig, data: DatasetHandle, on_eval=None) -> TrainResult:
    """Run the full loop. on_eval(step, generator, report) fires on each
    report step (every eval_interval steps and the final step), with the
    averaged generator; the result's history holds those steps' reports.

    Raises NumericalError tagged with the step index if any loss term,
    activation, gradient or evaluation field goes non-finite, and ValueError
    tagged so if a kernel is not positive semidefinite on the features.
    """
    ss = np.random.SeedSequence(cfg.seed)
    ss_data, ss_latent, ss_g, ss_d = ss.spawn(4)
    rng_data = np.random.default_rng(ss_data)
    rng_latent = np.random.default_rng(ss_latent)

    g_net = Network.create((cfg.latent_dim, *cfg.g_hidden, data.dim),
                           hidden_activation="relu",
                           out_activation=cfg.g_out_activation,
                           rng=np.random.default_rng(ss_g), name="g")
    d_net = Network.create((data.dim, *cfg.d_hidden, 1),
                           hidden_activation="relu", out_activation="sigmoid",
                           rng=np.random.default_rng(ss_d), name="d")
    opt_g = SGD(g_net.parameters(), cfg.lr_g, cfg.momentum_g, g_net.name)
    opt_d = SGD(d_net.parameters(), cfg.lr_d, cfg.momentum_d, d_net.name)
    lc = None if cfg.baseline else cfg.loss_config()
    # D's vector representation: its layers but the last, the same objects
    d_feat = Network(d_net.layers[:-1], d_net.name)
    # what G's objective reads of D, as constants over D's own arrays, which
    # SGD updates in place: the pass g_step differentiates reads D's
    # current weights, and G's backward stops at the fakes instead of
    # forming D's weight gradients
    d_const = _rebuild(d_net if lc is None else d_feat, constant)
    real_tracker = ManifoldTracker(cfg.delta)
    fake_tracker = ManifoldTracker(cfg.delta)
    g_avg = _rebuild(g_net, lambda value: parameter(value.copy()))

    history: list = []
    for step in range(1, cfg.steps + 1):
        reporting = step % cfg.eval_interval == 0 or step == cfg.steps
        try:
            for _ in range(cfg.d_steps_per_g):
                x = sample_batch(data, cfg.batch, rng_data)
                z = rng_latent.standard_normal((cfg.batch, cfg.latent_dim))
                loss_d, fake = d_step(g_net, d_net, opt_d, x, z)
            # the updated discriminator's one pass over each batch it reads;
            # the trackers, the objective and the report share the real node
            real = (constant(d_feat.forward_values(x))
                    if lc is not None or reporting else None)
            d_fake = d_const.forward(fake)
            stats = None if lc is None else update_trackers(
                lc.kernel, real, d_fake, real_tracker, fake_tracker)
            loss_g, terms = g_step(lc, opt_g, real, d_fake, stats)
            _fold_average(g_avg, g_net, step)
            _require_finite(loss_g=loss_g, loss_d=loss_d)
            if reporting:
                # the baseline's objective read D's output, not its features
                feat_fake = d_fake if lc is not None else constant(
                    d_feat.forward_values(fake.value))
                history.append(_report(step, loss_d, loss_g, terms, real,
                                       feat_fake))
                if on_eval is not None:
                    on_eval(step, g_avg, history[-1])
        except NumericalError as e:
            raise NumericalError(f"{e} (step {step})") from e
        except ValueError as e:  # the kernel trick's PSD guard
            raise ValueError(f"{e} (step {step})") from e

    return TrainResult(g_avg, d_net, history, real_tracker, fake_tracker)


def draw_eval_batch(generator: Network, data: DatasetHandle, n_samples: int,
                    *, seed: int = 0, step: int = 0) -> tuple:
    """(fake, real) sample matrices from the evaluation stream, which is
    keyed by (seed, step) and independent of the training streams."""
    # RunConfig.eval_samples's lower bound, for callers without a RunConfig
    if n_samples < 2:
        raise ValueError("empty evaluation or one sample: n_samples must be >= 2")
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, step, _EVAL_STREAM_TAG]))
    z = rng.standard_normal((n_samples, generator.in_dim))
    fake = generator.forward_values(z)
    real = sample_batch(data, n_samples, rng)
    return fake, real


def score_samples(fake: np.ndarray, real: np.ndarray, data: DatasetHandle, *,
                  step: int = 0) -> MetricsRow:
    """Score one generated batch against a real one, fields checked finite.

    Mode metrics are zero for datasets without mode centers (images), and
    r_g is zero for those with them: on two columns every centred row is
    +-(1, -1)/sqrt(2), so r_g is the constant sqrt(n^2 - n) whatever the
    samples. The sphere gaps are the _PLAIN terms of the two batches in
    sample space, as the plain objective computes them, and always present.
    """
    terms = generator_terms(_PLAIN, constant(real), constant(fake))
    if data.mode_centers is not None:
        modes, hq = mode_coverage(fake, data.mode_centers, data.mode_sigma)
        frac, rg = modes / len(data.mode_centers), 0.0
    else:
        modes, hq, frac, rg = 0, 0.0, 0.0, r_g(constant(fake)).item()
    row = MetricsRow(step=step, modes_covered=modes, coverage_fraction=frac,
                     hq_fraction=hq, centroid_gap=terms.manifold.item(),
                     radius_gap=terms.radius.item(), r_g_value=rg)
    _require_finite(**vars(row))
    return row

