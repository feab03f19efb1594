import re

import numpy as np
import pytest

import mmgan.kernel as kernel_mod
import mmgan.loss as loss_mod
import mmgan.neural as neural_mod
import mmgan.trainer as trainer_mod
from mmgan.config import RunConfig
from mmgan.data import DatasetHandle, make_dataset
from mmgan.kernel import KernelSpec, kernel_radius
from mmgan.loss import LossConfig, batch_stats, generator_terms, rg_score
from mmgan.manifold import ManifoldTracker, tracker_update
from mmgan.neural import (Layer, Network, NumericalError, SGD, Tensor,
                          constant, gradients, parameter)
from mmgan.trainer import (
    TrainResult,
    d_step,
    draw_eval_batch,
    g_step,
    score_samples,
    train,
    update_trackers,
)


def tiny_cfg(**kw):
    base = dict(steps=5, batch=8, latent_dim=2, g_hidden=(8,),
                d_hidden=(8,), lr_g=0.02, lr_d=0.02, eval_interval=2,
                eval_samples=50)
    base.update(kw)
    return RunConfig(**base)


def single_mode_dataset():
    return DatasetHandle("ring8", 2, np.array([[0.5, -0.25]]), 0.05)


def history_tuples(result):
    return [(r.step, r.loss_g, r.loss_d, r.manifold_term, r.radius_term,
             r.r_g) for r in result.history]


def test_train_smoke_and_result_shape():
    res = train(tiny_cfg(), make_dataset("ring8"))
    assert isinstance(res, TrainResult)
    # one report per report step: every eval_interval=2 steps and the last
    assert [r.step for r in res.history] == [2, 4, 5]
    for r, values in zip(res.history, history_tuples(res)):
        for v in values[1:]:
            assert np.isfinite(v)
        assert r.loss_d >= 0.0  # negated sum of log-probabilities
        assert r.r_g >= 0.0
    assert res.generator.in_dim == 2 and res.generator.layers[-1].fan_out == 2
    assert res.discriminator.layers[-1].fan_out == 1
    assert res.real_tracker.radius is not None
    assert res.fake_tracker.radius is not None


def test_train_is_deterministic_per_seed():
    data = make_dataset("ring8")
    a = train(tiny_cfg(seed=11), data)
    b = train(tiny_cfg(seed=11), data)
    assert history_tuples(a) == history_tuples(b)
    for k in a.generator.parameters():
        np.testing.assert_array_equal(a.generator.parameters()[k].value,
                                      b.generator.parameters()[k].value)
    c = train(tiny_cfg(seed=12), data)
    assert history_tuples(a) != history_tuples(c)


def test_longer_run_extends_shorter_run_exactly():
    # steps 1..k of a k+m step run must replay the k step run bit for bit
    data = make_dataset("grid25")
    short = train(tiny_cfg(steps=4, seed=3), data)
    long = train(tiny_cfg(steps=9, seed=3), data)
    # the reports of steps 2 and 4
    assert history_tuples(long)[:2] == history_tuples(short)


def test_step_ordering_is_d_then_trackers_then_g(monkeypatch):
    calls = []
    orig_d, orig_t, orig_g = d_step, update_trackers, g_step
    monkeypatch.setattr(trainer_mod, "d_step",
                        lambda *a, **k: (calls.append("d"), orig_d(*a, **k))[1])
    monkeypatch.setattr(trainer_mod, "update_trackers",
                        lambda *a, **k: (calls.append("t"), orig_t(*a, **k))[1])
    monkeypatch.setattr(trainer_mod, "g_step",
                        lambda *a, **k: (calls.append("g"), orig_g(*a, **k))[1])
    train(tiny_cfg(steps=3), make_dataset("ring8"))
    assert calls == ["d", "t", "g"] * 3


def test_d_steps_per_g_multiplies_d_updates(monkeypatch):
    calls = []
    orig_d, orig_g = d_step, g_step
    monkeypatch.setattr(trainer_mod, "d_step",
                        lambda *a, **k: (calls.append("d"), orig_d(*a, **k))[1])
    monkeypatch.setattr(trainer_mod, "g_step",
                        lambda *a, **k: (calls.append("g"), orig_g(*a, **k))[1])
    train(tiny_cfg(steps=2, d_steps_per_g=3), make_dataset("ring8"))
    assert calls == ["d", "d", "d", "g"] * 2


def test_tracker_states_follow_recorded_minis(monkeypatch):
    # recompute the EWMA from the mini statistics actually folded in
    minis = {"real": [], "fake": []}
    orig = update_trackers

    def spy(spec, feat_real, feat_fake, real_tracker, fake_tracker):
        for name, feats in (("real", feat_real.value), ("fake", feat_fake.value)):
            c, r, _ = batch_stats(spec, constant(feats))
            minis[name].append((c.value, r.item()))
        return orig(spec, feat_real, feat_fake, real_tracker, fake_tracker)

    monkeypatch.setattr(trainer_mod, "update_trackers", spy)
    delta = 0.9
    res = train(tiny_cfg(steps=4, delta=delta),
                make_dataset("ring8"))
    for name, tracker in (("real", res.real_tracker), ("fake", res.fake_tracker)):
        c, r = minis[name][0]
        for cm, rm in minis[name][1:]:
            c = delta * c + (1 - delta) * cm
            r = delta * r + (1 - delta) * rm
        np.testing.assert_allclose(tracker.centroid, c, rtol=1e-12)
        assert tracker.radius == pytest.approx(r, rel=1e-12)


def test_delta_zero_tracker_equals_last_mini(monkeypatch):
    minis = []
    orig = update_trackers

    def spy(spec, feat_real, feat_fake, real_tracker, fake_tracker):
        c, r, _ = batch_stats(spec, feat_real)
        minis.append((c.value, r.item()))
        return orig(spec, feat_real, feat_fake, real_tracker, fake_tracker)

    monkeypatch.setattr(trainer_mod, "update_trackers", spy)
    res = train(tiny_cfg(steps=3, delta=0.0),
                make_dataset("ring8"))
    np.testing.assert_allclose(res.real_tracker.centroid, minis[-1][0],
                               rtol=1e-12)
    assert res.real_tracker.radius == pytest.approx(minis[-1][1], rel=1e-12)


@pytest.mark.parametrize("loss_keys", [
    dict(delta=0.9, batch=24),
    dict(delta=0.9, kernel="rbf", gamma=0.5),
], ids=["plain", "rbf"])
def test_g_step_blend_value_coincides_with_tracker(monkeypatch, loss_keys):
    # the fake tracker's state is the value of the blend g_step reads, bit
    # for bit, also at a batch size that is not a power of two; with a
    # kernel neither tracker keeps a centroid
    seen = []
    trackers = []
    orig_t, orig_g = update_trackers, g_step

    def spy_t(spec, feat_real, feat_fake, rt, ft):
        trackers[:] = [rt, ft]
        return orig_t(spec, feat_real, feat_fake, rt, ft)

    def spy_g(lc, opt_g, feat_real, feat_fake, stats):
        rt, ft = trackers
        c_fake, r_fake, _ = stats[1]
        blend_c = None if c_fake is None else c_fake.value
        seen.append((blend_c, r_fake.item(), (ft.centroid, ft.radius),
                     rt.centroid))
        return orig_g(lc, opt_g, feat_real, feat_fake, stats)

    monkeypatch.setattr(trainer_mod, "update_trackers", spy_t)
    monkeypatch.setattr(trainer_mod, "g_step", spy_g)
    train(tiny_cfg(steps=4, **loss_keys), make_dataset("ring8"))
    assert len(seen) == 4
    for blend_c, blend_r, (fake_c, fake_r), real_c in seen:
        assert blend_r == fake_r
        if "kernel" in loss_keys:
            assert blend_c is None
            assert fake_c is None and real_c is None
        else:
            assert np.array_equal(blend_c, fake_c)


def test_baseline_mode_skips_manifold_machinery(monkeypatch):
    called = []
    monkeypatch.setattr(trainer_mod, "update_trackers",
                        lambda *a, **k: called.append(1))
    res = train(tiny_cfg(steps=4, baseline=True), make_dataset("ring8"))
    assert called == []
    assert res.real_tracker.radius is None
    assert [r.step for r in res.history] == [2, 4]
    assert all(np.isfinite(r.loss_g) for r in res.history)


def test_numerical_error_carries_step_index(monkeypatch):
    calls = []

    def bomb(*a, **k):
        calls.append(1)
        if len(calls) == 2:
            raise NumericalError("boom")
        return g_step(*a, **k)

    monkeypatch.setattr(trainer_mod, "g_step", bomb)
    with pytest.raises(NumericalError, match=r"boom \(step 2\)"):
        train(tiny_cfg(steps=5), make_dataset("ring8"))


@pytest.mark.parametrize("side", ["real", "fake"])
def test_nonfinite_tracker_statistics_name_the_side_and_step(monkeypatch,
                                                              side):
    exact = trainer_mod.batch_stats
    folds = []

    def blown(spec, reps):
        c, r, gram = exact(spec, reps)
        # the fake batch is G's graph node, the real one a constant
        if reps.requires_grad == (side == "fake"):
            folds.append(1)
            if len(folds) == 3:
                r = r + np.inf
        return c, r, gram

    monkeypatch.setattr(trainer_mod, "batch_stats", blown)
    with pytest.raises(NumericalError, match=rf"^{side} tracker: manifold "
                       r"statistics must be finite \(step 3\)$"):
        train(tiny_cfg(steps=5), make_dataset("ring8"))


ARMS = {"rbf": dict(kernel="rbf", beta=1.0),
        "rbf-beta0": dict(kernel="rbf", beta=0.0),
        "baseline": dict(baseline=True)}


@pytest.mark.parametrize("keys, per_step, report_extra, backward_nodes, tensors", [
    (ARMS["rbf"],
     dict(forward=5, forward_values=1, layer=8, mean_gram=3, kernel_radius=2,
          r_g=2),
     {}, [10, 27], (44, 44)),
    (ARMS["rbf-beta0"],
     dict(forward=5, forward_values=1, layer=8, mean_gram=3, kernel_radius=2,
          r_g=0),
     dict(r_g=1), [10, 21], (36, 38)),
    (ARMS["baseline"],
     dict(forward=4, forward_values=0, layer=8, mean_gram=0, kernel_radius=0,
          r_g=0),
     dict(forward=2, forward_values=2, layer=2, r_g=1), [10, 9], (14, 46)),
], ids=list(ARMS))
def test_work_per_step(monkeypatch, keys, per_step, report_extra,
                       backward_nodes, tensors):
    # each quantity is computed once per step: one G forward, one D pass
    # over each batch before D's update and over the fakes after it, each
    # batch's mean Gram shared by its radius and the MMD^2, and the fake
    # rg_score shared by the penalty and the report; r_g, l_orig and
    # l_g_baseline are one node each, and G's backward holds no D
    # parameter. After D's update the matcher runs D's feature layers
    # alone, on both batches. Only a report step does what the report alone
    # reads: the baseline's value passes of D's feature layers over both
    # batches and its matching terms, and the fake rg_score of the
    # baseline and of beta 0. Each rg_score reads its batch's node as
    # given, lifting no constant.
    counts = dict.fromkeys(per_step, 0)

    def count(owner, name, key):
        orig = getattr(owner, name)

        def counted(*a, **k):
            counts[key] += 1
            return orig(*a, **k)

        monkeypatch.setattr(owner, name, counted)

    # forward_values runs a forward too, which counts as one
    count(Network, "forward", "forward")
    count(Network, "forward_values", "forward_values")
    count(Layer, "__call__", "layer")
    # loss.batch_stats calls mean_gram under the loss module's name
    count(kernel_mod, "mean_gram", "mean_gram")
    count(loss_mod, "mean_gram", "mean_gram")
    count(loss_mod, "kernel_radius", "kernel_radius")
    count(loss_mod, "r_g", "r_g")

    # graph size: the nodes of each backward (D's, then G's), and the
    # Tensors made from one step's start to the next
    sizes, made, at_step_start = [], [0], []
    orig_topo, orig_init, orig_d = (neural_mod.topo_order, Tensor.__init__,
                                    trainer_mod.d_step)

    def spy_topo(root):
        order = orig_topo(root)
        sizes.append(len(order))
        return order

    def spy_init(self, *a, **k):
        made[0] += 1
        orig_init(self, *a, **k)

    def spy_d(*a):
        at_step_start.append((dict(counts), made[0]))
        return orig_d(*a)

    monkeypatch.setattr(neural_mod, "topo_order", spy_topo)
    monkeypatch.setattr(Tensor, "__init__", spy_init)
    monkeypatch.setattr(trainer_mod, "d_step", spy_d)
    # steps 1-3 report nothing, step 4 is the one report step
    steps = 4
    train(tiny_cfg(steps=steps, eval_interval=steps, **keys),
          make_dataset("ring8"))
    at_step_start.append((dict(counts), made[0]))
    per = [({k: b[k] - a[k] for k in a}, m - n)
           for (a, n), (b, m) in zip(at_step_start, at_step_start[1:])]
    report = {k: n + report_extra.get(k, 0) for k, n in per_step.items()}
    assert [c for c, _ in per] == [per_step] * (steps - 1) + [report]
    # from the second step on, when the trackers blend in history
    assert sizes[2:] == backward_nodes * (steps - 1)
    assert [t for _, t in per[1:]] == [tensors[0]] * (steps - 2) + [tensors[1]]


@pytest.mark.parametrize("keys, layer_calls", [
    (ARMS["rbf"], 1300), (ARMS["baseline"], 1204)], ids=["rbf", "baseline"])
def test_layer_calls_at_ring8_shapes(monkeypatch, keys, layer_calls):
    # at the default nets, G 2-64-64-2 and D 2-64-16-1, a step's D update
    # runs 9 layers: G's 3 and all of D's on each batch. The matcher then
    # runs D's 2 feature layers on each batch, and the baseline all of D on
    # the fakes alone, plus D's feature layers on both batches of the one
    # report step
    calls = []
    exact = Layer.__call__
    monkeypatch.setattr(Layer, "__call__",
                        lambda self, x: (calls.append(1), exact(self, x))[1])
    train(RunConfig(steps=100, seed=1, **keys), make_dataset("ring8"))
    assert len(calls) == layer_calls


@pytest.mark.parametrize("keys", ARMS.values(), ids=list(ARMS))
def test_reporting_does_not_steer_training(keys):
    # reporting on every step or on every fourth gives the same weights,
    # bit for bit, and the same reports where both report
    data = make_dataset("ring8")
    every = train(tiny_cfg(steps=12, eval_interval=1, **keys), data)
    fourth = train(tiny_cfg(steps=12, eval_interval=4, **keys), data)
    for net in ("generator", "discriminator"):
        a = getattr(every, net).parameters()
        b = getattr(fourth, net).parameters()
        for k in a:
            assert np.array_equal(a[k].value, b[k].value), (net, k)
    assert [r.step for r in fourth.history] == [4, 8, 12]
    assert history_tuples(every)[3::4] == history_tuples(fourth)


def _on_call(n, fn, before=lambda args: None, after=lambda args, out: out):
    """fn, except that its nth call runs before(args) first and returns
    after(args, result)."""
    calls = []

    def wrapped(*args):
        calls.append(1)
        if len(calls) != n:
            return fn(*args)
        before(args)
        return after(args, fn(*args))

    return wrapped


def _poison(net, layer):
    net.layers[layer].weight.value[0, 0] = np.nan


@pytest.mark.parametrize("keys", ARMS.values(), ids=list(ARMS))
def test_nonfinite_on_a_non_report_step_aborts_at_that_step(monkeypatch, keys):
    # step 6 reports nothing at eval_interval 4; the abort still names it.
    # A NaN put into D's feature layer after step 6's D update aborts step
    # 6's passes in every arm. One put into D's output layer aborts step 6
    # in the baseline, whose objective reads D's output, and step 7's D
    # update in the matcher, whose post-update passes run D's feature
    # layers alone
    cfg = tiny_cfg(steps=12, eval_interval=4, **keys)
    output_step = 6 if keys.get("baseline") else 7
    for layer, step in ((0, 6), (1, output_step)):
        def poison_updated_d(args, out, layer=layer):  # d_step(g, d, ...)
            _poison(args[1], layer)
            return out

        monkeypatch.setattr(trainer_mod, "d_step",
                            _on_call(6, d_step, after=poison_updated_d))
        with pytest.raises(NumericalError, match=(
                rf"^non-finite activation in d\.layer{layer} "
                rf"\(step {step}\)$")):
            train(cfg, make_dataset("ring8"))

    def nan_loss_g(args, out):
        return np.nan, out[1]

    monkeypatch.setattr(trainer_mod, "d_step", d_step)
    monkeypatch.setattr(trainer_mod, "g_step",
                        _on_call(6, g_step, after=nan_loss_g))
    with pytest.raises(NumericalError,
                       match=r"^non-finite loss_g \(step 6\)$"):
        train(cfg, make_dataset("ring8"))


@pytest.mark.parametrize("net, layer", [("g", 1), ("d", 0)])
def test_forward_abort_names_network_layer_and_step(monkeypatch, net, layer):
    # a NaN put into one weight before step 3's D update
    def poison(args):  # d_step(g_net, d_net, ...)
        _poison(dict(g=args[0], d=args[1])[net], layer)

    monkeypatch.setattr(trainer_mod, "d_step",
                        _on_call(3, d_step, before=poison))
    with pytest.raises(NumericalError, match=(
            rf"^non-finite activation in {net}\.layer{layer} \(step 3\)$")):
        train(tiny_cfg(steps=5), make_dataset("ring8"))


@pytest.mark.parametrize("call, name", [(5, "d.layer0.w"), (6, "g.layer1.w")])
def test_gradient_abort_names_network_parameter_and_step(monkeypatch, call,
                                                         name):
    # each step takes D's gradients, then G's: calls 5 and 6 are step 3's
    def poison_grad(args, grads):
        grads[name.split(".", 1)[1]][0, 0] = np.nan
        return grads

    monkeypatch.setattr(trainer_mod, "gradients", _on_call(
        call, trainer_mod.gradients, after=poison_grad))
    with pytest.raises(NumericalError, match=(
            rf"^non-finite gradient for {re.escape(name)} \(step 3\)$")):
        train(tiny_cfg(steps=5), make_dataset("ring8"))


def test_shared_values_equal_a_fresh_value_pass(monkeypatch):
    # the values a step shares instead of recomputing equal, bit for bit,
    # an independent value pass with the updated discriminator
    batches, minis = [], []
    orig_d, orig_fold = d_step, trainer_mod.tracker_update

    def spy_d(g_net, d_net, opt_d, x, z):
        out = orig_d(g_net, d_net, opt_d, x, z)
        batches.append((x, out[1].value))
        return out

    def spy_fold(tracker, c, r):
        minis.append(r)
        return orig_fold(tracker, c, r)

    monkeypatch.setattr(trainer_mod, "d_step", spy_d)
    monkeypatch.setattr(trainer_mod, "tracker_update", spy_fold)
    cfg = tiny_cfg(steps=3, kernel="rbf", gamma=0.5, beta=1.0)
    res = train(cfg, make_dataset("ring8"))
    spec = cfg.loss_config().kernel
    # the last step's batches, and its D, which g_step leaves unchanged
    x, fake = batches[-1]
    d = representation(res.discriminator)
    mini_real, mini_fake = minis[-2:]
    feat_fake = d.forward_values(fake)
    # each radius is the node the blend is built on
    feat_real = constant(d.forward_values(x))
    assert np.array_equal(mini_fake.value,
                          kernel_radius(spec, constant(feat_fake)).value)
    assert np.array_equal(mini_real.value, kernel_radius(spec, feat_real).value)
    assert np.array_equal(res.history[-1].r_g,
                          rg_score(constant(feat_fake)).item())


def test_baseline_report_equals_a_fresh_value_pass(monkeypatch):
    # the baseline's report reads the plain sphere gaps and the fake
    # rg_score of D's representation of the step's batches: bit for bit
    # those of an independent value pass of D's feature layers
    batches = []
    orig_d = d_step

    def spy_d(g_net, d_net, opt_d, x, z):
        out = orig_d(g_net, d_net, opt_d, x, z)
        batches.append((x, out[1].value))
        return out

    monkeypatch.setattr(trainer_mod, "d_step", spy_d)
    res = train(tiny_cfg(steps=3, baseline=True), make_dataset("ring8"))
    assert [r.step for r in res.history] == [2, 3]
    x, fake = batches[-1]
    d = representation(res.discriminator)
    feat_real = constant(d.forward_values(x))
    feat_fake = constant(d.forward_values(fake))
    terms = generator_terms(LossConfig(beta=0.0), feat_real, feat_fake)
    report = res.history[-1]
    assert report.manifold_term == terms.manifold.item()
    assert report.radius_term == terms.radius.item()
    assert report.r_g == rg_score(feat_fake).item()


@pytest.mark.parametrize("keys", [dict(kernel="rbf"), dict(baseline=True)],
                         ids=["rbf", "baseline"])
def test_g_backward_stops_at_the_fakes(monkeypatch, keys):
    # G's backward walks no D parameter, and the pass it differentiates
    # reads D's current weights: at every step it gives, bit for bit, what
    # a fresh pass of the updated D over the same fakes gives
    seen, tapes, same, g_tapes = {}, [], [], []
    orig_topo, orig_d, orig_g = neural_mod.topo_order, d_step, g_step

    def spy_topo(root):
        order = orig_topo(root)
        tapes.append({id(t) for t in order})
        return order

    def spy_d(g_net, d_net, *a):
        loss_d, fake = orig_d(g_net, d_net, *a)
        seen.update(g=g_net, d=d_net, fake=fake.value)
        return loss_d, fake

    def spy_g(lc, opt_g, feat_real, d_fake, stats):
        # the matcher's objective reads D's representation, the baseline's
        # D's output
        d = seen["d"] if lc is None else representation(seen["d"])
        same.append(np.array_equal(d.forward_values(seen["fake"]),
                                   d_fake.value))
        result = orig_g(lc, opt_g, feat_real, d_fake, stats)
        g_tapes.append(tapes[-1])
        return result

    monkeypatch.setattr(neural_mod, "topo_order", spy_topo)
    monkeypatch.setattr(trainer_mod, "d_step", spy_d)
    monkeypatch.setattr(trainer_mod, "g_step", spy_g)
    steps = 4
    train(tiny_cfg(steps=steps, **keys), make_dataset("ring8"))
    assert same == [True] * steps
    d_params = {id(p) for p in seen["d"].parameters().values()}
    g_params = {id(p) for p in seen["g"].parameters().values()}
    assert len(g_tapes) == steps
    for tape in g_tapes:
        assert g_params <= tape and not d_params & tape


def test_on_eval_fires_at_interval_and_final_step():
    fired = []
    train(tiny_cfg(steps=5, eval_interval=2),
          make_dataset("ring8"),
          on_eval=lambda step, g, rep: fired.append(step))
    assert fired == [2, 4, 5]


# -- seam-level unit tests --------------------------------------------------


def make_pair(seed=0):
    rng = np.random.default_rng(seed)
    g = Network.create((2, 8, 2), out_activation="identity", rng=rng)
    d = Network.create((2, 8, 1), out_activation="sigmoid", rng=rng)
    return g, d


def representation(d):
    """D's vector representation, as the trainer takes it: the net of its
    layers but the last."""
    return Network(d.layers[:-1], d.name)


def snapshot(net):
    return {k: p.value.copy() for k, p in net.parameters().items()}


def changed(net, snap):
    return any(not np.array_equal(p.value, snap[k])
               for k, p in net.parameters().items())


def test_d_step_touches_only_discriminator():
    cfg = tiny_cfg()
    g, d = make_pair()
    opt_d = SGD(d.parameters(), cfg.lr_d)
    rng = np.random.default_rng(1)
    x, z = rng.normal(size=(8, 2)), rng.normal(size=(8, 2))
    gs, ds = snapshot(g), snapshot(d)
    loss_d, fake = d_step(g, d, opt_d, x, z)
    assert changed(d, ds) and not changed(g, gs)
    assert np.isfinite(loss_d) and loss_d >= 0.0
    # G's graph node, for g_step to differentiate
    assert fake.shape == (8, 2) and fake.requires_grad


def test_g_step_touches_only_generator():
    cfg = tiny_cfg()
    g, d = make_pair()
    opt_g = SGD(g.parameters(), cfg.lr_g)
    rng = np.random.default_rng(2)
    x, z = rng.normal(size=(8, 2)), rng.normal(size=(8, 2))
    rt, ft = ManifoldTracker(0.9), ManifoldTracker(0.9)
    feats = representation(d)
    feat_real = constant(feats.forward_values(x))
    feat_fake = feats.forward(g.forward(z))
    stats = update_trackers(None, feat_real, feat_fake, rt, ft)
    gs, ds = snapshot(g), snapshot(d)
    loss_g, terms = g_step(cfg.loss_config(), opt_g, feat_real, feat_fake,
                           stats)
    assert changed(g, gs) and not changed(d, ds)
    # the objective's value, and the terms it was assembled from
    assert loss_g == terms.total.item()
    assert all(np.isfinite(t.item()) for t in
               (terms.manifold, terms.radius, terms.rg, terms.rg_fake))


def test_update_trackers_initializes_both():
    g, d = make_pair()
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 2))
    feats = representation(d)
    feat_real = constant(feats.forward_values(x))
    feat_fake = feats.forward(g.forward(rng.normal(size=(8, 2))))
    rt, ft = ManifoldTracker(0.9), ManifoldTracker(0.9)
    real, fake = update_trackers(None, feat_real, feat_fake, rt, ft)
    assert rt.radius is not None and ft.radius is not None
    # plain space: no mean Gram, and the real triple is the tracker's state
    assert real[2] is None and fake[2] is None
    assert np.array_equal(real[0].value, rt.centroid)
    assert real[1].item() == rt.radius
    np.testing.assert_allclose(rt.centroid, feat_real.value.mean(axis=0))
    np.testing.assert_allclose(ft.centroid, feat_fake.value.mean(axis=0))
    # a fresh tracker adopts the mini-batch statistic, which the returned
    # nodes then equal
    np.testing.assert_allclose(fake[0].value, ft.centroid)
    assert fake[1].item() == pytest.approx(ft.radius, rel=1e-12)
    assert fake[1].requires_grad


@pytest.mark.parametrize("spec", [None, KernelSpec("rbf")],
                         ids=["plain", "rbf"])
def test_real_side_folds_constant_nodes(spec):
    # the real triple is constant nodes, and folding them gives the bits
    # that float arithmetic on the mini-batch radius's value gives
    g, d = make_pair()
    feats = representation(d)
    rng = np.random.default_rng(4)
    rt, ft = ManifoldTracker(0.9), ManifoldTracker(0.9)
    for _ in range(3):
        feat_real = constant(feats.forward_values(rng.normal(size=(8, 2))))
        feat_fake = feats.forward(g.forward(rng.normal(size=(8, 2))))
        old = rt.radius
        r_mini = batch_stats(spec, feat_real)[1].item()
        real, fake = update_trackers(spec, feat_real, feat_fake, rt, ft)
        assert not real[1].requires_grad and fake[1].requires_grad
        assert real[0] is None if spec else not real[0].requires_grad
        want = r_mini if old is None else 0.9 * old + (1.0 - 0.9) * r_mini
        assert real[1].item() == want and rt.radius == want


def test_tracker_fold_uninitialized_passes_mini_through():
    t = ManifoldTracker(0.9)
    c_mini, r_mini = parameter(np.array([0.5, -1.0, 2.0])), parameter(0.75)
    c, r = tracker_update(t, c_mini, r_mini)
    assert c is c_mini and r is r_mini
    assert np.array_equal(t.centroid, c_mini.value)
    assert t.radius == 0.75


def test_tracker_fold_hand_case():
    feats = parameter(np.array([[1.0, 0.0], [3.0, 0.0]]))  # c_mini=(2,0), r_mini=1
    t = ManifoldTracker(0.9)
    t.centroid, t.radius = np.array([0.0, 0.0]), 3.0
    c_mini, r_mini, _ = batch_stats(None, feats)
    c, r = tracker_update(t, c_mini, r_mini)
    np.testing.assert_allclose(c.value, [0.2, 0.0])
    assert r.item() == pytest.approx(0.9 * 3.0 + 0.1 * 1.0)
    assert np.array_equal(t.centroid, c.value)
    assert t.radius == r.item()
    # gradients flow through the mini-batch term alone
    params = {"feats": feats}
    np.testing.assert_allclose(gradients(r, params)["feats"],
                               0.1 * gradients(r_mini, params)["feats"])
    # with a kernel only the radius is kept and blended, here the linear
    # kernel's mean squared distance 1
    t.centroid, t.radius = None, 3.0
    c, r = tracker_update(t, None, batch_stats(KernelSpec("linear"), feats)[1])
    assert c is None and t.centroid is None
    assert r.item() == pytest.approx(0.9 * 3.0 + 0.1 * 1.0)


def test_training_fits_a_single_gaussian():
    data = single_mode_dataset()
    cfg = tiny_cfg(steps=400, batch=32, g_hidden=(16, 16),
                   d_hidden=(16, 16), lr_g=0.05, lr_d=0.05, seed=5)
    res = train(cfg, data)
    row = score_samples(*draw_eval_batch(res.generator, data, 400, seed=5),
                        data)
    assert row.centroid_gap < 0.25
    assert row.radius_gap < 0.5


def test_train_config_validation():
    for kw in (dict(steps=0), dict(batch=1), dict(latent_dim=0),
               dict(d_steps_per_g=0), dict(eval_interval=0),
               dict(eval_samples=1), dict(seed=-1), dict(lr_g=0.0),
               dict(lr_d=-1.0), dict(lr_g=float("nan")),
               dict(momentum_g=1.0), dict(momentum_d=-0.5),
               dict(g_out_activation="foo"), dict(g_hidden=(0,)),
               dict(d_hidden=(8, 1)), dict(d_hidden=()),
               dict(alpha=float("nan")), dict(delta=1.0),
               dict(kernel="rbf", gamma=0.0)):
        with pytest.raises(ValueError):
            tiny_cfg(**kw)


def test_evaluate_deterministic_and_validates():
    g, _ = make_pair()
    data = make_dataset("ring8")
    a = score_samples(*draw_eval_batch(g, data, 200, seed=7, step=3), data)
    b = score_samples(*draw_eval_batch(g, data, 200, seed=7, step=3), data)
    assert a == b
    c = score_samples(*draw_eval_batch(g, data, 200, seed=7, step=4), data)
    assert a != c
    with pytest.raises(ValueError, match="empty evaluation"):
        draw_eval_batch(g, data, 0)


def test_evaluate_without_mode_centers_zeroes_mode_metrics():
    g = Network.create((2, 8, 4), rng=np.random.default_rng(0))
    pixels = np.zeros((10, 4), dtype=np.uint8)
    handle = DatasetHandle("idx", 4, None, 0.0, pixels=pixels)
    row = score_samples(*draw_eval_batch(g, handle, 50), handle)
    assert row.modes_covered == 0
    assert row.coverage_fraction == 0.0 and row.hq_fraction == 0.0
    assert np.isfinite(row.centroid_gap) and np.isfinite(row.radius_gap)
