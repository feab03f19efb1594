import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mmgan.neural import NumericalError, constant
from mmgan.manifold import ManifoldTracker, centroid, radius, tracker_update
from oracles import brute_centroid, brute_mean_distance

SQUARE = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])


def fit(points) -> tuple:
    """The sphere of a point cloud: its centroid and the mean distance to
    it, as an array and a float."""
    pts = constant(points)
    c = centroid(pts)
    return c.value, radius(pts, c).item()


def test_centroid_of_square():
    np.testing.assert_allclose(centroid(constant(SQUARE)).value, [1.0, 1.0])


def test_radius_of_square_is_sqrt2():
    # all four corners sit at distance sqrt(2) from (1,1)
    got = radius(constant(SQUARE), constant([1.0, 1.0])).item()
    assert got == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_radius_is_mean_distance_not_rms():
    pts = constant([[0.0, 0.0], [4.0, 0.0]])
    c = centroid(pts)
    np.testing.assert_allclose(c.value, [2.0, 0.0])
    assert radius(pts, c).item() == pytest.approx(2.0)
    # a cloud with unequal distances: mean(1, 3) = 2, rms would be sqrt(5)
    pts = constant([[1.0, 0.0], [-1.0, 0.0], [3.0, 0.0], [-3.0, 0.0]])
    assert radius(pts, constant([0.0, 0.0])).item() == pytest.approx(2.0)


def test_against_brute_force_oracle():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(17, 5))
    c = centroid(constant(pts))
    np.testing.assert_allclose(c.value, brute_centroid(pts), rtol=1e-12)
    assert (radius(constant(pts), c).item()
            == pytest.approx(brute_mean_distance(pts, c.value), rel=1e-12))


def test_centroid_minimizes_sum_squared_distance():
    # grid search over candidate centers: the mean must win
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(12, 2))
    c = centroid(constant(pts)).value
    best = ((pts - c) ** 2).sum()
    for gx in np.linspace(-2, 2, 21):
        for gy in np.linspace(-2, 2, 21):
            cand = ((pts - np.array([gx, gy])) ** 2).sum()
            assert cand >= best - 1e-9


def test_tracker_state_bundles_both():
    pts = constant(SQUARE)
    c = centroid(pts)
    t = ManifoldTracker(delta=0.9)
    tracker_update(t, c, radius(pts, c))
    np.testing.assert_allclose(t.centroid, [1.0, 1.0])
    assert t.radius == pytest.approx(np.sqrt(2.0))
    assert t.centroid.shape == (2,) and type(t.radius) is float


def test_input_validation():
    with pytest.raises(ValueError, match="empty"):
        centroid(constant(np.zeros((0, 2))))
    with pytest.raises(ValueError):
        centroid(constant(np.zeros(3)))
    with pytest.raises(ValueError):
        radius(constant(SQUARE), constant(np.zeros(3)))
    # the checks of every fold; a rejected fold leaves the state alone
    t = ManifoldTracker(delta=0.5)
    with pytest.raises(ValueError, match="non-negative"):
        tracker_update(t, constant([1.0]), constant(-0.5))
    with pytest.raises(ValueError, match="1-D"):
        tracker_update(t, constant([[1.0]]), constant(0.5))
    with pytest.raises(NumericalError, match="^manifold statistics must be finite$"):
        tracker_update(t, constant([np.inf]), constant(0.5))
    with pytest.raises(NumericalError, match="^manifold statistics must be finite$"):
        tracker_update(t, constant([1.0]), constant(float("nan")))
    assert t.centroid is None and t.radius is None
    tracker_update(t, constant([1.0]), constant(0.5))
    with pytest.raises(ValueError, match="dimension mismatch"):
        tracker_update(t, constant([1.0, 2.0]), constant(0.5))
    # a blend that goes non-finite is caught too
    with pytest.raises(NumericalError):
        tracker_update(t, constant([1.0]), constant(np.inf))
    assert np.array_equal(t.centroid, [1.0]) and t.radius == 0.5


def test_tracker_first_update_adopts_mini():
    t = ManifoldTracker(delta=0.9)
    assert t.centroid is None and t.radius is None
    c, r = constant([0.0, 0.0]), constant(1.0)
    out = tracker_update(t, c, r)
    assert out[0] is c and out[1] is r
    assert np.array_equal(t.centroid, c.value) and t.radius == 1.0


def test_tracker_blend_sequence():
    t = ManifoldTracker(delta=0.9)
    tracker_update(t, constant([0.0, 0.0]), constant(1.0))
    c, r = tracker_update(t, constant([1.0, 1.0]), constant(2.0))
    np.testing.assert_allclose(c.value, [0.1, 0.1])
    assert r.item() == pytest.approx(1.1)
    # the state is the returned blend
    assert np.array_equal(t.centroid, c.value) and t.radius == r.item()


def test_tracker_delta_zero_tracks_mini_exactly():
    t = ManifoldTracker(delta=0.0)
    tracker_update(t, constant([5.0]), constant(3.0))
    c, r = tracker_update(t, constant([-2.0]), constant(0.5))
    np.testing.assert_allclose(c.value, [-2.0])
    assert r.item() == pytest.approx(0.5)


def test_tracker_validation():
    with pytest.raises(ValueError):
        ManifoldTracker(delta=1.0)
    with pytest.raises(ValueError):
        ManifoldTracker(delta=-0.1)
    t = ManifoldTracker(delta=0.5)
    one = constant(1.0)
    tracker_update(t, constant(np.zeros(2)), one)
    with pytest.raises(ValueError, match="dimension"):
        tracker_update(t, constant(np.zeros(3)), one)
    # a radius-only tracker takes no centroid, and the other way round
    with pytest.raises(ValueError, match="dimension"):
        tracker_update(t, None, one)
    t = ManifoldTracker(delta=0.5)
    tracker_update(t, None, one)
    with pytest.raises(ValueError, match="dimension"):
        tracker_update(t, constant(np.zeros(2)), one)


points_strategy = hnp.arrays(
    np.float64, st.tuples(st.integers(1, 8), st.integers(1, 4)),
    elements=st.floats(-10, 10, allow_nan=False))


@settings(deadline=None, max_examples=60)
@given(points_strategy)
def test_radius_nonnegative_and_zero_iff_identical(pts):
    _, r = fit(pts)
    assert r >= 0.0
    if np.ptp(pts, axis=0).max(initial=0.0) == 0.0:
        assert r == pytest.approx(0.0, abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(points_strategy, st.floats(-5, 5), st.floats(-5, 5))
def test_translation_equivariance(pts, tx, ty):
    shift = np.resize(np.array([tx, ty]), pts.shape[1])
    a_c, a_r = fit(pts)
    b_c, b_r = fit(pts + shift)
    np.testing.assert_allclose(b_c, a_c + shift, atol=1e-9)
    assert b_r == pytest.approx(a_r, abs=1e-9)


@settings(deadline=None, max_examples=60)
@given(points_strategy, st.floats(0.1, 7.0))
def test_radius_scales_linearly(pts, k):
    _, a_r = fit(pts)
    _, b_r = fit(pts * k)
    assert b_r == pytest.approx(k * a_r, rel=1e-9, abs=1e-9)


def test_radius_rotation_invariant():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(9, 2))
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    _, a_r = fit(pts)
    _, b_r = fit(pts @ rot.T)
    assert b_r == pytest.approx(a_r, rel=1e-12)
