import time
from collections import Counter

import numpy as np
import pytest

import mmgan.gradcheck as gradcheck_mod
from mmgan.cli import main
from mmgan.gradcheck import (BASES, TOLERANCE, _build, _config,
                             check_variant, run_suite, variant_names)
import mmgan.loss as loss_mod
from mmgan.loss import generator_terms
from mmgan.manifold import ManifoldTracker
from mmgan.neural import Layer, Network, constant, gradients
from mmgan.trainer import update_trackers


def test_variant_grid():
    names = variant_names()
    assert names == ["plain", "plain+rg", "linear", "linear+rg",
                     "rbf", "rbf+rg"]


def test_variant_filtering():
    assert variant_names(kernel="linear") == ["linear", "linear+rg"]
    assert variant_names(kernel="none") == ["plain", "plain+rg"]
    assert variant_names(kernel="linear", beta=0.0) == ["linear"]
    with pytest.raises(ValueError):
        variant_names(kernel="cubic")


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        check_variant("plain+bogus")


def test_full_suite_passes_under_budget():
    t0 = time.time()
    rows = run_suite()
    elapsed = time.time() - t0
    assert len(rows) == 6
    for name, err, ok in rows:
        assert ok, f"{name}: {err:.2e}"
        assert err < TOLERANCE
    assert elapsed < 30.0


def test_fault_injection_fails():
    rows = run_suite(names=["plain"], inject_fault=True)
    assert rows[0][2] is False


def test_nan_gradient_fails_its_row(monkeypatch, capsys):
    # max(0.0, nan) is 0.0, so a NaN must not be folded away with max()
    exact = gradcheck_mod.gradients

    def planted(*args, **kwargs):
        grads = exact(*args, **kwargs)
        first = next(iter(grads))
        grads[first] = grads[first].copy()
        grads[first].flat[0] = np.nan
        return grads

    monkeypatch.setattr(gradcheck_mod, "gradients", planted)
    assert np.isnan(check_variant("plain"))
    assert main(["gradcheck", "--kernel", "none", "--beta", "0"]) == 4
    assert capsys.readouterr().out.split() == ["plain", "nan", "FAIL"]


def test_beta_zero_matches_base():
    # with beta forced to 0 the +rg variant collapses onto the base one
    base = check_variant("rbf", beta=0.0)
    tagged = check_variant("rbf+rg", beta=0.0)
    assert base == tagged


@pytest.mark.parametrize("name, seed", [
    pytest.param(name, seed, id=name if seed == 0 else f"{name}-seed{seed}")
    for name in variant_names() if name.endswith("+rg") for seed in range(4)])
def test_rg_variants_check_an_active_penalty(name, seed):
    # a zero hinge has no gradient, which would leave the +rg row checking
    # nothing beyond its base row
    g_net, d_net, z, x = _build(seed)
    fake = g_net.forward_values(z)
    terms = generator_terms(_config(name, 1.0, 1.0, None),
                            constant(d_net.forward_values(x)),
                            constant(d_net.forward_values(fake)))
    assert terms.rg.item() > 0


@pytest.mark.parametrize("base", BASES)
def test_gradcheck_checks_the_trainer_objective(base):
    # fresh trackers adopt the mini-batch statistics on their first fold,
    # so the objective the trainer builds from update_trackers is the one
    # gradcheck differentiates, bit for bit
    cfg = _config(base + "+rg", 1.0, 1.0, None)
    g_net, d_net, z, x = _build(0)
    fr = d_net.forward(constant(x))
    ff = d_net.forward(g_net.forward(constant(z)))
    trained = generator_terms(cfg, fr, ff, *update_trackers(
        cfg.kernel, constant(fr.value), ff, ManifoldTracker(0.9),
        ManifoldTracker(0.9)))
    checked = generator_terms(cfg, fr, ff)
    for name in ("total", "manifold", "radius"):
        assert np.array_equal(getattr(trained, name).value,
                              getattr(checked, name).value), name


def _recorded_loss_values(monkeypatch) -> list:
    """Record the arguments of every _loss_value call, the unit of work
    the benchmark counts."""
    exact = gradcheck_mod._loss_value
    calls = []

    def recorded(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(gradcheck_mod, "_loss_value", recorded)
    return calls


def test_loss_value_runs_once_per_loss_evaluation(monkeypatch):
    calls = _recorded_loss_values(monkeypatch)
    run_suite(seed=1)
    # one analytic evaluation and two per entry of G's 202 parameters
    per_variant = Counter(args[0] for args in calls)
    assert set(per_variant) == {_config(name, 1.0, 1.0, None)
                                for name in variant_names()}
    assert set(per_variant.values()) == {1 + 2 * 202}
    assert len(calls) == 2430


def _full_d(seed: int):
    """The seed's D with its 8-1 sigmoid output layer, drawn after G as
    gradcheck draws them, independently of _build."""
    rng = np.random.default_rng(seed)
    Network.create((2, 16, 8, 2), hidden_activation="tanh", rng=rng)
    return Network.create((2, 16, 8, 1), hidden_activation="tanh",
                          out_activation="sigmoid", rng=rng)


@pytest.mark.parametrize("name", variant_names())
def test_hoisted_real_side_gives_the_full_objective(monkeypatch, name):
    # the real side check_variant computes once, and D cut to its first
    # two layers, give the bits of the full objective over the
    # representation the trainer takes of the full D, its layers but the
    # last, which a G perturbation would recompute: value and G gradients
    calls = _recorded_loss_values(monkeypatch)
    check_variant(name, seed=1)
    cfg, g_net, d_net, z, feat_real, real, rg_real = calls[0]
    assert all(args[4] is feat_real and args[5] is real
               and args[6] is rg_real for args in calls)
    params = g_net.parameters()
    params["layer1.w"].value[3, 2] += 1e-3
    x = _build(1)[3]
    hoisted = gradcheck_mod._loss_value(*calls[0])
    d_full = _full_d(1)
    assert len(d_full.layers) == 3 and len(d_net.layers) == 2
    d_feat = Network(d_full.layers[:-1])
    full = generator_terms(cfg, d_feat.forward(constant(x)),
                           d_feat.forward(g_net.forward(constant(z))))
    assert hoisted.value.tobytes() == full.total.value.tobytes()
    want = gradients(full.total, params)
    for key, grad in gradients(hoisted, params).items():
        assert grad.tobytes() == want[key].tobytes(), key


@pytest.mark.parametrize("name", ["plain+rg", "rbf+rg"])
def test_each_loss_evaluation_runs_only_what_the_loss_reads(monkeypatch,
                                                             name):
    layer_calls, scored, evals = [], [], []
    exact_layer, exact_score = Layer.__call__, loss_mod.rg_score
    exact_loss = gradcheck_mod._loss_value

    def layer(self, x):
        layer_calls.append(self)
        return exact_layer(self, x)

    def score(reps):
        scored.append(reps)
        return exact_score(reps)

    def loss_value(*args):
        marks = len(layer_calls), len(scored)
        out = exact_loss(*args)
        evals.append((args, layer_calls[marks[0]:], scored[marks[1]:]))
        return out

    monkeypatch.setattr(Layer, "__call__", layer)
    monkeypatch.setattr(loss_mod, "rg_score", score)
    monkeypatch.setattr(gradcheck_mod, "rg_score", score)
    monkeypatch.setattr(gradcheck_mod, "_loss_value", loss_value)
    check_variant(name, seed=1)
    assert len(evals) == 1 + 2 * 202
    g_layers, d_layers = evals[0][0][1].layers, evals[0][0][2].layers
    feat_real = evals[0][0][4]
    for args, layers, scores in evals:
        # G's three layers, then D's two feature layers
        assert len(layers) == 5
        assert all(a is b for a, b in zip(layers, [*g_layers, *d_layers]))
        # the fake batch's score alone
        assert len(scores) == 1 and scores[0] is not feat_real
    assert sum(reps is feat_real for reps in scored) == 1
