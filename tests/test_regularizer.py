import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mmgan.neural import gradients, parameter
from mmgan.regularizer import r_g
from oracles import brute_corr, fd_gradients, max_rel_err

# zero-mean, mutually orthogonal rows: correlations vanish exactly
DECORRELATED = np.array([
    [1.0, -1.0, 1.0, -1.0],
    [1.0, 1.0, -1.0, -1.0],
    [1.0, -1.0, -1.0, 1.0],
])


def test_decorrelated_batch_scores_below_1e8():
    assert r_g(DECORRELATED) < 1e-8


def test_identical_rows_score_sqrt_n_sq_minus_n():
    row = np.array([0.3, -1.2, 2.0, 0.7])
    reps = np.tile(row, (4, 1))
    assert r_g(reps) == pytest.approx(np.sqrt(4 * 4 - 4), rel=1e-9)


def test_collapsed_scores_higher_than_spread():
    rng = np.random.default_rng(2)
    spread = rng.normal(size=(8, 16))
    collapsed = np.tile(rng.normal(size=16), (8, 1)) + 1e-3 * rng.normal(size=(8, 16))
    assert r_g(collapsed) > r_g(spread)


def test_constant_rows_fall_back_to_identity_norm():
    reps = np.ones((3, 5))  # zero variance rows: A becomes all zeros
    assert r_g(reps) == pytest.approx(np.sqrt(3.0), rel=1e-9)


def test_r_g_matches_exact_correlation_route():
    # two independent routes: smoothed graph formula vs textbook correlations
    rng = np.random.default_rng(3)
    reps = rng.normal(size=(7, 12))
    direct = r_g(reps)
    via_corr = np.linalg.norm(np.eye(7) - brute_corr(reps))
    assert direct == pytest.approx(via_corr, rel=1e-9)


def test_validation():
    with pytest.raises(ValueError):
        r_g(np.zeros((1, 5)))
    with pytest.raises(ValueError):
        r_g(np.zeros((5, 1)))
    with pytest.raises(ValueError):
        r_g(np.zeros(5))


def test_tensor_path_matches_numpy_path():
    rng = np.random.default_rng(4)
    reps = rng.normal(size=(6, 8))
    node = r_g(parameter(reps))
    assert node.item() == pytest.approx(r_g(reps), rel=1e-12)


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
    assert r_g(stepped) < r_g(reps)


@settings(deadline=None, max_examples=50)
@given(hnp.arrays(np.float64, st.tuples(st.integers(2, 6), st.integers(2, 6)),
                  elements=st.floats(-50, 50, allow_nan=False)))
def test_r_g_bounds_property(reps):
    n = reps.shape[0]
    val = r_g(reps)
    assert 0.0 <= val <= np.sqrt(n * (n - 1)) + np.sqrt(n) + 1e-9
