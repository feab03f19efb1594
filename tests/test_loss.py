import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mmgan.kernel import KernelSpec
from mmgan.loss import (
    GeneratorTerms,
    LossConfig,
    LossReport,
    PROB_CLAMP,
    batch_stats,
    generator_terms,
    l_d_final,
    l_g_baseline,
    l_orig,
)
from mmgan.neural import constant, gradients, parameter
from mmgan.regularizer import r_g
from oracles import (composed_l_g_baseline, composed_l_orig, fd_gradients,
                     max_rel_err, rel_err)


def test_l_orig_hand_computed():
    want = (np.log(0.9) + np.log(0.8)) / 2 + (np.log(0.7) + np.log(0.9)) / 2
    got = l_orig(constant([0.9, 0.8]), constant([0.3, 0.1])).item()
    assert got == pytest.approx(want, rel=1e-12)


def test_l_orig_clamps_saturated_probabilities():
    got = l_orig(constant([1.0]), constant([0.0])).item()
    assert np.isfinite(got)
    assert got == pytest.approx(2 * np.log(1.0 - PROB_CLAMP), rel=1e-9)
    worst = l_orig(constant([0.0]), constant([1.0])).item()
    assert worst == pytest.approx(2 * np.log(PROB_CLAMP), rel=1e-9)


def test_l_orig_rejects_non_probabilities():
    with pytest.raises(ValueError, match="probabilities"):
        l_orig(constant([1.2]), constant([0.5]))
    with pytest.raises(ValueError, match="probabilities"):
        l_orig(constant([0.5]), constant([-0.1]))
    with pytest.raises(ValueError, match="empty"):
        l_orig(constant([]), constant([0.5]))


def test_l_orig_gradient_matches_finite_differences():
    dr = parameter(np.array([[0.6], [0.2], [0.9]]))
    df = parameter(np.array([[0.3], [0.7], [0.05]]))
    params = {"dr": dr, "df": df}
    analytic = gradients(l_orig(dr, df), params)
    numeric = fd_gradients(lambda: l_orig(dr, df).item(),
                           {k: p.value for k, p in params.items()}, h=1e-5)
    assert max_rel_err(analytic, numeric) < 1e-4


# probabilities with the clamp's edges and the saturated ends drawn often
PROBS = hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.just(1)),
                   elements=st.one_of(
                       st.sampled_from([0.0, 1.0, PROB_CLAMP, 1.0 - PROB_CLAMP]),
                       st.floats(0.0, 1.0)))


@settings(deadline=None, max_examples=200)
@given(PROBS, PROBS)
def test_fused_l_orig_matches_composed_ops(d_real, d_fake):
    # one node with a hand-written VJP: the composed ops' bits, and their
    # gradient
    assert (l_orig(constant(d_real), constant(d_fake)).item()
            == composed_l_orig(constant(d_real), constant(d_fake), PROB_CLAMP).item())
    fused = {"r": parameter(d_real), "f": parameter(d_fake)}
    composed = {"r": parameter(d_real), "f": parameter(d_fake)}
    g_fused = gradients(l_orig(fused["r"], fused["f"]), fused)
    g_composed = gradients(
        composed_l_orig(composed["r"], composed["f"], PROB_CLAMP), composed)
    for name in fused:
        assert rel_err(g_fused[name], g_composed[name]) < 1e-9


def test_fused_l_orig_gradient_is_zero_outside_the_open_clamp():
    edges = np.array([[0.0], [PROB_CLAMP], [1.0 - PROB_CLAMP], [1.0]])
    params = {"r": parameter(edges), "f": parameter(edges)}
    g = gradients(l_orig(params["r"], params["f"]), params)
    assert np.array_equal(g["r"], np.zeros_like(edges))
    assert np.array_equal(g["f"], np.zeros_like(edges))


def test_l_g_baseline_hand_computed_and_validated():
    got = l_g_baseline(constant([[0.9], [0.5]])).item()
    assert got == pytest.approx(-(np.log(0.9) + np.log(0.5)) / 2, rel=1e-12)
    assert (l_g_baseline(constant([0.0])).item()
            == pytest.approx(-np.log(PROB_CLAMP)))
    with pytest.raises(ValueError, match="probabilities"):
        l_g_baseline(constant([1.5]))
    with pytest.raises(ValueError, match="empty"):
        l_g_baseline(constant([]))


@settings(deadline=None, max_examples=200)
@given(PROBS)
def test_fused_l_g_baseline_is_the_composed_chain_bit_for_bit(d_fake):
    # one node in place of clamp, log, sum, divide and negate: their value
    # and their gradient, to the last bit
    fused, composed = parameter(d_fake), parameter(d_fake)
    node = l_g_baseline(fused)
    chain = composed_l_g_baseline(composed, PROB_CLAMP)
    assert np.array_equal(node.value, chain.value)
    g_fused = gradients(node, {"f": fused})["f"]
    g_chain = gradients(chain, {"f": composed})["f"]
    assert g_fused.shape == d_fake.shape
    assert np.array_equal(g_fused, g_chain)


def test_fused_l_g_baseline_gradient_is_zero_outside_the_open_clamp():
    edges = np.array([[0.0], [PROB_CLAMP], [1.0 - PROB_CLAMP], [1.0]])
    f = parameter(edges)
    assert np.array_equal(gradients(l_g_baseline(f), {"f": f})["f"],
                          np.zeros_like(edges))


def test_bce_is_negated_l_orig():
    dr, df = constant([0.7, 0.6]), constant([0.4, 0.2])
    assert (l_d_final(dr, df).item()
            == pytest.approx(-l_orig(dr, df).item(), rel=1e-15))


def test_batch_radius_conventions_differ():
    # points at distances 1, 1 and 2 from their centroid (1, 0): mean dist
    # 4/3, mean sq dist 2 (the linear mean embedding is that centroid)
    pts = constant(np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 0.0]]))
    c, r, gram = batch_stats(None, pts)
    assert np.array_equal(c.value, [1.0, 0.0]) and gram is None
    assert r.item() == pytest.approx(4.0 / 3.0)
    # with a kernel the centroid is the mean embedding: no coordinates
    c, r, gram = batch_stats(KernelSpec("linear"), pts)
    assert c is None and gram.item() == pytest.approx(1.0)
    assert r.item() == pytest.approx(2.0)


def test_l_g_kernel_linear_reduces_to_plain_geometry():
    rng = np.random.default_rng(1)
    real, fake = rng.normal(size=(8, 3)), rng.normal(size=(8, 3)) + 1.0
    cr, cf = real.mean(axis=0), fake.mean(axis=0)
    want = (np.sum((cr - cf) ** 2)
            + 0.5 * abs(((real - cr) ** 2).sum(axis=1).mean()
                        - ((fake - cf) ** 2).sum(axis=1).mean()))
    cfg = LossConfig(alpha=0.5, beta=0.0, kernel=KernelSpec("linear"))
    got = generator_terms(cfg, constant(real), constant(fake)).total
    assert got.item() == pytest.approx(want, rel=1e-12)


def test_generator_terms_decomposition_identity():
    rng = np.random.default_rng(2)
    real, fake = rng.normal(size=(6, 5)), rng.normal(size=(6, 5))
    for cfg in (LossConfig(alpha=1.0, beta=1.0),
                LossConfig(alpha=0.3, beta=2.0, kernel=KernelSpec("rbf", gamma=0.5)),
                LossConfig(alpha=2.0, beta=0.0, kernel=KernelSpec("linear"))):
        t = generator_terms(cfg, constant(real), constant(fake))
        rw = cfg.alpha if cfg.kernel is not None else 1.0
        rg = 0.0 if t.rg is None else t.rg.item()
        want = t.manifold.item() + rw * t.radius.item() + cfg.beta * rg
        assert t.total.item() == pytest.approx(want, abs=1e-10)


def test_alpha_ignored_without_kernel():
    rng = np.random.default_rng(12)
    real = constant(rng.normal(size=(6, 5)))
    fake = constant(rng.normal(size=(6, 5)))
    a = generator_terms(LossConfig(alpha=1.0, beta=0.0), real, fake).total
    b = generator_terms(LossConfig(alpha=5.0, beta=0.0), real, fake).total
    assert a.item() == pytest.approx(b.item(), rel=1e-15)
    # but scales the kernelized radius gap
    ka = generator_terms(LossConfig(alpha=1.0, beta=0.0,
                                    kernel=KernelSpec("linear")), real, fake).total
    kb = generator_terms(LossConfig(alpha=5.0, beta=0.0,
                                    kernel=KernelSpec("linear")), real, fake).total
    t = generator_terms(LossConfig(alpha=1.0, beta=0.0,
                                   kernel=KernelSpec("linear")), real, fake)
    assert (kb - ka).item() == pytest.approx(4.0 * t.radius.item(), rel=1e-9)


def test_generator_terms_beta_zero_skips_rg():
    rng = np.random.default_rng(3)
    real, fake = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    t = generator_terms(LossConfig(beta=0.0), constant(real), constant(fake))
    assert t.rg is None
    assert t.total.item() == pytest.approx(
        t.manifold.item() + t.radius.item(), rel=1e-15)


def test_rg_term_is_excess_of_fake_over_real():
    rng = np.random.default_rng(4)
    real = rng.normal(size=(5, 6))
    fake = rng.normal(size=(5, 6))
    fake[3] = fake[1]  # a duplicated row: fake more correlated than real
    t = generator_terms(LossConfig(beta=1.0), constant(real), constant(fake))
    # both scores scaled by the ceiling sqrt(n^2 - n) of r_g, n = 5 rows
    want = (r_g(constant(fake)).item() - r_g(constant(real)).item()) / np.sqrt(20.0)
    assert want > 0.0
    assert t.rg.item() == pytest.approx(want, rel=1e-12)
    # no penalty once fakes are no more alike than data
    swapped = generator_terms(LossConfig(beta=1.0), constant(fake), constant(real))
    assert swapped.rg.item() == 0.0
    gen = generator_terms(LossConfig(beta=1.0), constant(real), parameter(fake)).rg
    assert gen.item() == pytest.approx(want, rel=1e-12)


def test_stat_overrides_are_respected():
    rng = np.random.default_rng(5)
    real, fake = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
    cfg = LossConfig(beta=0.0)
    cr = np.zeros(3)
    t = generator_terms(cfg, constant(real), constant(fake),
                        real=(cr, 7.0, None))
    cf = fake.mean(axis=0)
    want_manifold = np.linalg.norm(cr - cf)
    want_radius = abs(7.0 - batch_stats(None, constant(fake))[1].item())
    assert t.manifold.item() == pytest.approx(want_manifold, rel=1e-12)
    assert t.radius.item() == pytest.approx(want_radius, rel=1e-12)


def test_matched_batches_give_zero_matching_terms():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(7, 3))
    for cfg in (LossConfig(beta=0.0), LossConfig(beta=0.0, kernel=KernelSpec("rbf"))):
        t = generator_terms(cfg, constant(pts), constant(pts.copy()))
        assert t.total.item() == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("cfg", [
    LossConfig(alpha=1.0, beta=1.0),
    LossConfig(alpha=0.5, beta=0.8, kernel=KernelSpec("linear")),
    LossConfig(alpha=1.0, beta=1.0, kernel=KernelSpec("rbf", gamma=0.6)),
    LossConfig(alpha=1.2, beta=0.4, kernel=KernelSpec("exp", gamma=0.4)),
], ids=lambda c: c.kernel.kind if c.kernel else "plain")
def test_generator_loss_gradient_fd(cfg):
    rng = np.random.default_rng(10)
    real = rng.normal(size=(6, 4))
    fake0 = rng.normal(size=(6, 4))
    params = {"fake": parameter(fake0)}

    def build():
        return generator_terms(cfg, constant(real), params["fake"]).total

    analytic = gradients(build(), params)
    numeric = fd_gradients(lambda: build().item(), {"fake": params["fake"].value},
                           h=1e-5)
    assert max_rel_err(analytic, numeric) < 1e-4


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        LossConfig(beta=-1.0)
    with pytest.raises(ValueError):
        LossConfig(kernel="rbf")


def test_loss_report_is_frozen_record():
    rep = LossReport(step=3, loss_g=1.0, loss_d=-1.0, manifold_term=0.4,
                     radius_term=0.3, r_g=0.3)
    with pytest.raises(AttributeError):
        rep.step = 4
