import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mmgan.neural import constant, gradients, parameter
from mmgan.regularizer import EPS, r_g
from oracles import brute_corr, composed_r_g, fd_gradients, max_rel_err, rel_err

# zero-mean, mutually orthogonal rows: correlations vanish exactly
DECORRELATED = np.array([
    [1.0, -1.0, 1.0, -1.0],
    [1.0, 1.0, -1.0, -1.0],
    [1.0, -1.0, -1.0, 1.0],
])


def test_decorrelated_batch_scores_below_1e8():
    assert r_g(constant(DECORRELATED)).item() < 1e-8


def test_identical_rows_score_sqrt_n_sq_minus_n():
    row = np.array([0.3, -1.2, 2.0, 0.7])
    reps = np.tile(row, (4, 1))
    assert r_g(constant(reps)).item() == pytest.approx(np.sqrt(4 * 4 - 4), rel=1e-9)


def test_collapsed_scores_higher_than_spread():
    rng = np.random.default_rng(2)
    spread = rng.normal(size=(8, 16))
    collapsed = np.tile(rng.normal(size=16), (8, 1)) + 1e-3 * rng.normal(size=(8, 16))
    assert r_g(constant(collapsed)).item() > r_g(constant(spread)).item()


def test_constant_rows_fall_back_to_identity_norm():
    reps = np.ones((3, 5))  # zero variance rows: A becomes all zeros
    assert r_g(constant(reps)).item() == pytest.approx(np.sqrt(3.0), rel=1e-9)


def test_r_g_matches_exact_correlation_route():
    # two independent routes: smoothed graph formula vs textbook correlations
    rng = np.random.default_rng(3)
    reps = rng.normal(size=(7, 12))
    direct = r_g(constant(reps)).item()
    via_corr = np.linalg.norm(np.eye(7) - brute_corr(reps))
    assert direct == pytest.approx(via_corr, rel=1e-9)


def test_validation():
    with pytest.raises(ValueError):
        r_g(constant(np.zeros((1, 5))))
    with pytest.raises(ValueError):
        r_g(constant(np.zeros((5, 1))))
    with pytest.raises(ValueError):
        r_g(constant(np.zeros(5)))


def test_gradient_through_r_g():
    rng = np.random.default_rng(5)
    reps = rng.normal(size=(5, 6))
    params = {"reps": parameter(reps)}
    analytic = gradients(r_g(params["reps"]), params)
    numeric = fd_gradients(lambda: r_g(params["reps"]).item(),
                           {"reps": params["reps"].value}, h=1e-5)
    assert max_rel_err(analytic, numeric) < 1e-4


def test_gradient_pushes_collapsed_rows_apart():
    rng = np.random.default_rng(6)
    base = rng.normal(size=8)
    reps = np.tile(base, (4, 1)) + 1e-2 * rng.normal(size=(4, 8))
    p = parameter(reps)
    g = gradients(r_g(p), {"reps": p})["reps"]
    stepped = reps - 0.05 * g
    assert r_g(constant(stepped)).item() < r_g(constant(reps)).item()


@settings(deadline=None, max_examples=50)
@given(hnp.arrays(np.float64, st.tuples(st.integers(2, 6), st.integers(2, 6)),
                  elements=st.floats(-50, 50, allow_nan=False)))
def test_r_g_bounds_property(reps):
    n = reps.shape[0]
    val = r_g(constant(reps)).item()
    assert 0.0 <= val <= np.sqrt(n * (n - 1)) + np.sqrt(n) + 1e-9


@st.composite
def reps_with_constant_rows(draw, generic: bool):
    """(n, d) batches, n, d >= 3, with some rows constant or nearly so:
    their norm sits at the eps clamp. generic rows are gaussian and at
    least two of them stay live, so the gradient is not zero by symmetry
    (as it is when the live rows coincide), where agreement could only be
    judged on roundoff.
    """
    n, d = draw(st.integers(3, 8)), draw(st.integers(3, 8))
    if generic:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        reps = draw(st.floats(1e-3, 50)) * rng.standard_normal((n, d))
    else:
        reps = draw(hnp.arrays(np.float64, (n, d),
                               elements=st.floats(-50, 50, allow_subnormal=False)))
    constant_rows = st.sets(st.integers(0, n - 1),
                            max_size=n - 2 if generic else n)
    for i in draw(constant_rows):
        wobble = draw(st.sampled_from([0.0, 1e-9])) if generic else 0.0
        reps[i] = draw(st.floats(-50, 50)) + wobble * np.arange(d)
    return reps


@settings(deadline=None, max_examples=200)
@given(reps_with_constant_rows(generic=False))
def test_fused_r_g_value_is_the_composed_ops_bits(reps):
    assert r_g(constant(reps)).item() == composed_r_g(constant(reps), EPS).item()


@settings(deadline=None, max_examples=200)
@given(reps_with_constant_rows(generic=True))
def test_fused_r_g_gradient_matches_composed_ops(reps):
    fused, composed = parameter(reps), parameter(reps)
    g_fused = gradients(r_g(fused), {"reps": fused})["reps"]
    g_composed = gradients(composed_r_g(composed, EPS), {"reps": composed})["reps"]
    assert rel_err(g_fused, g_composed) < 1e-9


def test_fused_r_g_gradient_is_zero_at_zero():
    # two centred, orthogonal rows of norm 2: A = I exactly
    p = parameter(DECORRELATED[:2])
    out = r_g(p)
    assert out.item() == 0.0
    g = gradients(out, {"reps": p})["reps"]
    assert np.array_equal(g, np.zeros_like(g))


def test_fused_r_g_passes_no_gradient_through_a_clamped_norm():
    # the first row's norm, 5.7e-9, is below eps: its gradient is only the
    # direct share through unit = centered / eps
    reps = np.array([[0.0, 4e-9, -4e-9], [1.0, -2.0, 0.3], [0.2, 0.9, -1.1]])
    p = parameter(reps)
    g = gradients(r_g(p), {"reps": p})["reps"]
    q = parameter(reps)
    want = gradients(composed_r_g(q, EPS), {"reps": q})["reps"]
    assert np.all(np.isfinite(g))
    np.testing.assert_allclose(g, want, rtol=1e-9, atol=1e-12)
