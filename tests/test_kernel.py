import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mmgan.kernel as kernel_mod
from mmgan.kernel import (
    KERNEL_KINDS,
    KernelSpec,
    feature_sq_dist,
    kernel_radius,
    mean_gram,
)
from mmgan.neural import constant, parameter, gradients
from oracles import fd_gradients, kernel_eval, max_rel_err

ALL_SPECS = [
    KernelSpec("linear"),
    KernelSpec("rbf", gamma=0.5),
]


def test_closed_form_values():
    a, b = np.array([1.0, 2.0]), np.array([3.0, 4.0])
    assert kernel_eval(KernelSpec("linear"), a, b) == pytest.approx(11.0)
    assert kernel_eval(KernelSpec("rbf", gamma=0.5),
                       np.zeros(2), np.ones(2)) == pytest.approx(np.exp(-1.0))


def test_rbf_self_similarity_is_one():
    a = np.array([0.3, -2.0, 5.5])
    assert kernel_eval(KernelSpec("rbf", gamma=1.3), a, a) == pytest.approx(1.0)


def test_gamma_defaults_to_inverse_dim():
    a, b = np.zeros(4), np.ones(4)
    implicit = kernel_eval(KernelSpec("rbf"), a, b)
    explicit = kernel_eval(KernelSpec("rbf", gamma=0.25), a, b)
    assert implicit == pytest.approx(explicit)
    assert implicit == pytest.approx(np.exp(-0.25 * 4.0))


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown kernel"):
        KernelSpec("cosine")
    with pytest.raises(ValueError, match="gamma"):
        KernelSpec("rbf", gamma=0.0)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        kernel_eval(KernelSpec("linear"), np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        mean_gram(KernelSpec("linear"), constant(np.zeros((4, 2))),
                  constant(np.zeros((3, 3))))
    # a single point enters as a batch of one row, not as a d-vector
    with pytest.raises(ValueError, match="incompatible batches"):
        feature_sq_dist(KernelSpec("linear"), constant(np.zeros(2)),
                        constant(np.zeros((1, 2))))


def test_linear_sq_dist_identity():
    # kernel trick with the linear kernel must reproduce plain geometry;
    # a batch of one row has phi of that row as its centroid
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.normal(size=4), rng.normal(size=4)
        got = feature_sq_dist(KernelSpec("linear"), constant(a[None]),
                              constant(b[None])).item()
        assert got == pytest.approx(np.sum((a - b) ** 2), rel=1e-12, abs=1e-12)


def test_rbf_sq_dist_identity():
    rng = np.random.default_rng(1)
    spec = KernelSpec("rbf", gamma=0.7)
    for _ in range(20):
        a, b = rng.normal(size=3), rng.normal(size=3)
        want = 2.0 - 2.0 * np.exp(-0.7 * np.sum((a - b) ** 2))
        got = feature_sq_dist(spec, constant(a[None]), constant(b[None])).item()
        assert got == pytest.approx(want, rel=1e-12)


def test_kernel_radius_linear_equals_mean_squared_distance():
    # the linear feature map is the identity, so the mean embedding is the
    # plain centroid
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(11, 3))
    c = pts.mean(axis=0)
    brute = 0.0
    for row in pts:
        brute += np.sum((row - c) ** 2)
    brute /= len(pts)
    got = kernel_radius(KernelSpec("linear"), constant(pts)).item()
    assert got == pytest.approx(brute, rel=1e-12)


def test_kernel_radius_rbf_closed_form():
    # ||phi(p_i) - mu||^2 = K(p_i, p_i) - 2 mean_j K(p_i, p_j)
    #                       + mean_jk K(p_j, p_k), with mu the mean embedding
    rng = np.random.default_rng(4)
    spec = KernelSpec("rbf", gamma=0.4)
    pts = rng.normal(size=(9, 2))

    def k(p, q):
        return np.exp(-0.4 * np.sum((p - q) ** 2))

    mu_sq = np.mean([[k(p, q) for q in pts] for p in pts])
    want = np.mean([1.0 - 2.0 * np.mean([k(p, q) for q in pts]) + mu_sq
                    for p in pts])
    got = kernel_radius(spec, constant(pts)).item()
    assert got == pytest.approx(want, rel=1e-12)
    # mu minimizes the mean squared feature distance, so the spread about
    # phi(plain centroid) can only be larger
    c = pts.mean(axis=0)
    about_phi_c = np.mean([2.0 - 2.0 * k(p, c) for p in pts])
    assert got < about_phi_c


def test_batch_eval_matches_loop():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(7, 3))
    other = pts[:4] + 0.5
    p_node, o_node = constant(pts), constant(other)
    for spec in ALL_SPECS:
        # the radius's self term mean_i K(p_i, p_i), read off radius + <mu, mu>
        diag = kernel_radius(spec, p_node) + mean_gram(spec, p_node, p_node)
        assert diag.item() == pytest.approx(
            np.mean([kernel_eval(spec, p, p) for p in pts]), rel=1e-12)
        loop = np.mean([[kernel_eval(spec, p, q) for q in other] for p in pts])
        assert (mean_gram(spec, p_node, o_node).item()
                == pytest.approx(loop, rel=1e-12))


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=4),
       st.lists(st.floats(-5, 5), min_size=2, max_size=4),
       st.sampled_from(range(len(ALL_SPECS))))
def test_symmetry_and_nonnegativity(xs, ys, spec_i):
    n = min(len(xs), len(ys))
    a, b = np.array(xs[:n]), np.array(ys[:n])
    spec = ALL_SPECS[spec_i]
    assert kernel_eval(spec, a, b) == pytest.approx(kernel_eval(spec, b, a), rel=1e-12)
    a1, b1 = constant(a[None]), constant(b[None])
    assert feature_sq_dist(spec, a1, b1).item() >= 0.0
    assert feature_sq_dist(spec, a1, a1).item() == pytest.approx(0.0, abs=1e-12)


def test_gram_matrices_are_psd():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(10, 2))
    for spec in ALL_SPECS:
        gram = np.array([[kernel_eval(spec, x, y) for y in pts] for x in pts])
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() > -1e-8, f"{spec.kind} gram not PSD: {eigs.min()}"


def test_psd_violation_detected(monkeypatch):
    # force K(a,a)=0, K(a,b)=1: the trick yields -2, which must be rejected
    monkeypatch.setattr(kernel_mod, "mean_gram",
                        lambda spec, a, b: constant(0.0 if a is b else 1.0))
    with pytest.raises(ValueError, match="positive semidefinite"):
        feature_sq_dist(KernelSpec("linear"), constant(np.zeros((1, 2))),
                        constant(np.ones((1, 2))))


def test_prebuilt_gram_gives_the_same_bits():
    rng = np.random.default_rng(8)
    pts, qts = constant(rng.normal(size=(6, 3))), constant(rng.normal(size=(5, 3)))
    for spec in ALL_SPECS:
        gram = mean_gram(spec, pts, pts)
        assert (kernel_radius(spec, pts, gram).item()
                == kernel_radius(spec, pts).item())
        assert (feature_sq_dist(spec, pts, qts, gram).item()
                == feature_sq_dist(spec, pts, qts).item())


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_gradients_through_kernel_ops(spec):
    rng = np.random.default_rng(8)
    arrays = {"a": rng.normal(size=(1, 4)), "b": rng.normal(size=(1, 4)),
              "pts": rng.normal(size=(5, 4)), "qts": rng.normal(size=(3, 4))}

    def build(params):
        return (feature_sq_dist(spec, params["a"], params["b"])
                + kernel_radius(spec, params["pts"])
                + feature_sq_dist(spec, params["pts"], params["qts"])
                + feature_sq_dist(spec, params["qts"], params["a"]))

    params = {k: parameter(v) for k, v in arrays.items()}
    analytic = gradients(build(params), params)
    numeric = fd_gradients(lambda: build(params).item(),
                           {k: p.value for k, p in params.items()}, h=1e-5)
    assert max_rel_err(analytic, numeric) < 1e-4


def test_kernel_kinds_is_complete():
    assert set(KERNEL_KINDS) == {"linear", "rbf"}
