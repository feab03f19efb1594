import numpy as np
import pytest

import mmgan.kernel as kernel_mod
import mmgan.loss as loss_mod
import mmgan.neural as neural_mod
import mmgan.trainer as trainer_mod
from mmgan.config import RunConfig
from mmgan.data import DatasetHandle, make_dataset
from mmgan.kernel import KernelSpec, kernel_radius
from mmgan.loss import batch_stats, rg_score
from mmgan.manifold import ManifoldTracker, SphereManifold, tracker_update
from mmgan.neural import (Network, NumericalError, SGD, Tensor, constant,
                          gradients, parameter)
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
    return [(r.step, r.loss_g, r.loss_d, r.l_orig, r.manifold_term,
             r.radius_term, r.r_g) for r in result.history]


def test_train_smoke_and_result_shape():
    res = train(tiny_cfg(), make_dataset("ring8"))
    assert isinstance(res, TrainResult)
    assert len(res.history) == 5
    assert [r.step for r in res.history] == [1, 2, 3, 4, 5]
    for r in res.history:
        for v in history_tuples(res)[r.step - 1][1:]:
            assert np.isfinite(v)
        assert r.l_orig <= 0.0  # sum of log-probabilities
        assert r.r_g >= 0.0
    assert res.generator.in_dim == 2 and res.generator.layers[-1].fan_out == 2
    assert res.discriminator.layers[-1].fan_out == 1
    assert res.real_tracker.current is not None
    assert res.fake_tracker.current is not None


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
    assert history_tuples(long)[:4] == history_tuples(short)


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
        for name, feats in (("real", feat_real), ("fake", feat_fake.value)):
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
        np.testing.assert_allclose(tracker.current.centroid, c, rtol=1e-12)
        assert tracker.current.radius == pytest.approx(r, rel=1e-12)


def test_delta_zero_tracker_equals_last_mini(monkeypatch):
    minis = []
    orig = update_trackers

    def spy(spec, feat_real, feat_fake, real_tracker, fake_tracker):
        c, r, _ = batch_stats(spec, constant(feat_real))
        minis.append((c.value, r.item()))
        return orig(spec, feat_real, feat_fake, real_tracker, fake_tracker)

    monkeypatch.setattr(trainer_mod, "update_trackers", spy)
    res = train(tiny_cfg(steps=3, delta=0.0),
                make_dataset("ring8"))
    np.testing.assert_allclose(res.real_tracker.current.centroid, minis[-1][0],
                               rtol=1e-12)
    assert res.real_tracker.current.radius == pytest.approx(minis[-1][1], rel=1e-12)


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

    def spy_g(lc, opt_g, feat_real, out_fake, feat_fake, stats):
        rt, ft = trackers
        c_fake, r_fake, _ = stats[1]
        blend_c = None if c_fake is None else c_fake.value
        seen.append((blend_c, r_fake.item(), ft.current, rt.current))
        return orig_g(lc, opt_g, feat_real, out_fake, feat_fake, stats)

    monkeypatch.setattr(trainer_mod, "update_trackers", spy_t)
    monkeypatch.setattr(trainer_mod, "g_step", spy_g)
    train(tiny_cfg(steps=4, **loss_keys), make_dataset("ring8"))
    assert len(seen) == 4
    for blend_c, blend_r, fake_state, real_state in seen:
        assert blend_r == fake_state.radius
        if "kernel" in loss_keys:
            assert blend_c is None
            assert fake_state.centroid is None and real_state.centroid is None
        else:
            assert np.array_equal(blend_c, fake_state.centroid)


def test_baseline_mode_skips_manifold_machinery(monkeypatch):
    called = []
    monkeypatch.setattr(trainer_mod, "update_trackers",
                        lambda *a, **k: called.append(1))
    res = train(tiny_cfg(steps=4, baseline=True), make_dataset("ring8"))
    assert called == []
    assert res.real_tracker.current is None
    assert len(res.history) == 4
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


@pytest.mark.parametrize("keys, per_step, backward_nodes, tensors", [
    (dict(kernel="rbf", beta=1.0),
     dict(forward=5, mean_gram=3, kernel_radius=2, r_g=2), [10, 29], 50),
    (dict(kernel="rbf", beta=0.0),
     dict(forward=5, mean_gram=3, kernel_radius=2, r_g=1), [10, 23], 44),
    (dict(baseline=True),
     dict(forward=5, mean_gram=0, kernel_radius=0, r_g=1), [10, 17], 46),
], ids=["rbf", "rbf-beta0", "baseline"])
def test_work_per_step(monkeypatch, keys, per_step, backward_nodes, tensors):
    # each quantity is computed once per step: one G forward, one D pass
    # over each batch before and after D's update, each batch's mean Gram
    # shared by its radius and the MMD^2, and the fake rg_score shared by
    # the penalty and the report; r_g and l_orig are one node each
    counts = dict.fromkeys(per_step, 0)

    def count(owner, name, key):
        orig = getattr(owner, name)

        def counted(*a, **k):
            counts[key] += 1
            return orig(*a, **k)

        monkeypatch.setattr(owner, name, counted)

    count(Network, "forward", "forward")
    # loss.batch_stats calls mean_gram under the loss module's name
    count(kernel_mod, "mean_gram", "mean_gram")
    count(loss_mod, "mean_gram", "mean_gram")
    count(loss_mod, "kernel_radius", "kernel_radius")
    count(loss_mod, "r_g", "r_g")

    # graph size: the nodes of each backward (D's, then G's), and the
    # Tensors made from one step's start to the next
    sizes, made, step_starts = [], [0], []
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
        step_starts.append(made[0])
        return orig_d(*a)

    monkeypatch.setattr(neural_mod, "topo_order", spy_topo)
    monkeypatch.setattr(Tensor, "__init__", spy_init)
    monkeypatch.setattr(trainer_mod, "d_step", spy_d)
    steps = 3
    train(tiny_cfg(steps=steps, **keys), make_dataset("ring8"))
    assert counts == {key: n * steps for key, n in per_step.items()}
    # from the second step on, when the trackers blend in history
    assert sizes[2:] == backward_nodes * (steps - 1)
    step_starts.append(made[0])
    assert np.diff(step_starts)[1:].tolist() == [tensors] * (steps - 1)


def test_shared_values_equal_a_fresh_value_pass(monkeypatch):
    # the values a step shares instead of recomputing equal, bit for bit,
    # an independent value pass with the updated discriminator
    batches, minis = [], []
    orig_d, orig_fold = d_step, trainer_mod.tracker_update

    def spy_d(g_net, d_net, opt_d, x, z):
        out = orig_d(g_net, d_net, opt_d, x, z)
        batches.append((x, out[2].value))
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
    d = res.discriminator
    mini_real, mini_fake = minis[-2:]
    feat_fake = d.forward_values(fake)[1]
    # the fake radius is the node the blend is built on, the real one a value
    assert np.array_equal(mini_fake.value, kernel_radius(spec, feat_fake))
    assert np.array_equal(mini_real, kernel_radius(spec, d.forward_values(x)[1]))
    assert np.array_equal(res.history[-1].r_g, rg_score(feat_fake))


def test_on_eval_fires_at_interval_and_final_step():
    fired = []
    train(tiny_cfg(steps=5, eval_interval=2),
          make_dataset("ring8"),
          on_eval=lambda step, g, rep: fired.append(step))
    assert fired == [2, 4, 5]


# -- seam-level unit tests --------------------------------------------------


def make_pair(seed=0):
    rng = np.random.default_rng(seed)
    g = Network.create((2, 8, 2), out_activation="identity",
                       feature_tap_index=1, rng=rng)
    d = Network.create((2, 8, 1), out_activation="sigmoid", rng=rng)
    return g, d


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
    loss_d, lo, fake = d_step(g, d, opt_d, x, z)
    assert changed(d, ds) and not changed(g, gs)
    assert np.isfinite(loss_d) and lo <= 0.0
    # G's graph node, for g_step to differentiate
    assert fake.shape == (8, 2) and fake.requires_grad


def test_g_step_touches_only_generator():
    cfg = tiny_cfg()
    g, d = make_pair()
    opt_g = SGD(g.parameters(), cfg.lr_g)
    rng = np.random.default_rng(2)
    x, z = rng.normal(size=(8, 2)), rng.normal(size=(8, 2))
    rt, ft = ManifoldTracker(0.9), ManifoldTracker(0.9)
    feat_real = d.forward_values(x)[1]
    out_fake, feat_fake = d.forward(g.forward(z)[0])
    stats = update_trackers(None, feat_real, feat_fake, rt, ft)
    gs, ds = snapshot(g), snapshot(d)
    out = g_step(cfg.loss_config(), opt_g, feat_real, out_fake, feat_fake, stats)
    assert changed(g, gs) and not changed(d, ds)
    assert all(np.isfinite(v) for v in out)


def test_update_trackers_initializes_both():
    g, d = make_pair()
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 2))
    feat_real = d.forward_values(x)[1]
    _, feat_fake = d.forward(g.forward(rng.normal(size=(8, 2)))[0])
    rt, ft = ManifoldTracker(0.9), ManifoldTracker(0.9)
    real, fake = update_trackers(None, feat_real, feat_fake, rt, ft)
    assert rt.current is not None and ft.current is not None
    # plain space: no mean Gram, and the real triple is the tracker's state
    assert real[2] is None and fake[2] is None
    assert np.array_equal(real[0].value, rt.current.centroid)
    assert real[1] == rt.current.radius
    np.testing.assert_allclose(rt.current.centroid, feat_real.mean(axis=0))
    np.testing.assert_allclose(ft.current.centroid, feat_fake.value.mean(axis=0))
    # a fresh tracker adopts the mini-batch statistic, which the returned
    # nodes then equal
    np.testing.assert_allclose(fake[0].value, ft.current.centroid)
    assert fake[1].item() == pytest.approx(ft.current.radius, rel=1e-12)
    assert fake[1].requires_grad


def test_tracker_fold_uninitialized_passes_mini_through():
    t = ManifoldTracker(0.9)
    c_mini, r_mini = parameter(np.array([0.5, -1.0, 2.0])), parameter(0.75)
    c, r = tracker_update(t, c_mini, r_mini)
    assert c is c_mini and r is r_mini
    assert np.array_equal(t.current.centroid, c_mini.value)
    assert t.current.radius == 0.75


def test_tracker_fold_hand_case():
    feats = parameter(np.array([[1.0, 0.0], [3.0, 0.0]]))  # c_mini=(2,0), r_mini=1
    t = ManifoldTracker(0.9)
    t.current = SphereManifold(np.array([0.0, 0.0]), 3.0)
    c_mini, r_mini, _ = batch_stats(None, feats)
    c, r = tracker_update(t, c_mini, r_mini)
    np.testing.assert_allclose(c.value, [0.2, 0.0])
    assert r.item() == pytest.approx(0.9 * 3.0 + 0.1 * 1.0)
    assert np.array_equal(t.current.centroid, c.value)
    assert t.current.radius == r.item()
    # gradients flow through the mini-batch term alone
    params = {"feats": feats}
    np.testing.assert_allclose(gradients(r, params)["feats"],
                               0.1 * gradients(r_mini, params)["feats"])
    # with a kernel only the radius is kept and blended, here the linear
    # kernel's mean squared distance 1
    t.current = SphereManifold(None, 3.0)
    c, r = tracker_update(t, None, batch_stats(KernelSpec("linear"), feats)[1])
    assert c is None and t.current.centroid is None
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
    g = Network.create((2, 8, 4), feature_tap_index=1,
                       rng=np.random.default_rng(0))
    images = np.zeros((10, 4))
    handle = DatasetHandle("idx", 4, None, 0.0, images=images)
    row = score_samples(*draw_eval_batch(g, handle, 50), handle)
    assert row.modes_covered == 0
    assert row.coverage_fraction == 0.0 and row.hq_fraction == 0.0
    assert np.isfinite(row.centroid_gap) and np.isfinite(row.radius_gap)
