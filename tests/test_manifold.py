import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mmgan.neural import NumericalError, constant
from mmgan.manifold import (
    ManifoldTracker,
    SphereManifold,
    centroid,
    radius,
    tracker_update,
)
from oracles import brute_centroid, brute_mean_distance

SQUARE = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])


def fit(points) -> SphereManifold:
    """The sphere of a point cloud: its centroid and the mean distance to it."""
    pts = constant(points)
    c = centroid(pts)
    return SphereManifold(c.value, radius(pts, c).item())


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


def test_sphere_manifold_bundles_both():
    m = fit(SQUARE)
    np.testing.assert_allclose(m.centroid, [1.0, 1.0])
    assert m.radius == pytest.approx(np.sqrt(2.0))
    assert m.centroid.shape == (2,)


def test_input_validation():
    with pytest.raises(ValueError, match="empty"):
        centroid(constant(np.zeros((0, 2))))
    with pytest.raises(ValueError):
        centroid(constant(np.zeros(3)))
    with pytest.raises(ValueError):
        radius(constant(SQUARE), constant(np.zeros(3)))
    with pytest.raises(ValueError):
        SphereManifold(np.array([1.0]), -0.5)
    with pytest.raises(ValueError):
        SphereManifold(np.array([[1.0]]), 0.5)
    with pytest.raises(NumericalError):
        SphereManifold(np.array([np.inf]), 0.5)
    with pytest.raises(NumericalError):
        SphereManifold(np.array([1.0]), float("nan"))


def test_tracker_first_update_adopts_mini():
    t = ManifoldTracker(delta=0.9)
    assert t.current is None
    c = np.array([0.0, 0.0])
    out = tracker_update(t, c, 1.0)
    assert out[0] is c and out[1] == 1.0
    assert np.array_equal(t.current.centroid, c) and t.current.radius == 1.0


def test_tracker_blend_sequence():
    t = ManifoldTracker(delta=0.9)
    tracker_update(t, np.array([0.0, 0.0]), 1.0)
    c, r = tracker_update(t, np.array([1.0, 1.0]), 2.0)
    np.testing.assert_allclose(c, [0.1, 0.1])
    assert r == pytest.approx(1.1)
    # the state is the returned blend
    assert np.array_equal(t.current.centroid, c) and t.current.radius == r


def test_tracker_delta_zero_tracks_mini_exactly():
    t = ManifoldTracker(delta=0.0)
    tracker_update(t, np.array([5.0]), 3.0)
    c, r = tracker_update(t, np.array([-2.0]), 0.5)
    np.testing.assert_allclose(c, [-2.0])
    assert r == pytest.approx(0.5)


def test_tracker_validation():
    with pytest.raises(ValueError):
        ManifoldTracker(delta=1.0)
    with pytest.raises(ValueError):
        ManifoldTracker(delta=-0.1)
    t = ManifoldTracker(delta=0.5)
    tracker_update(t, np.zeros(2), 1.0)
    with pytest.raises(ValueError, match="dimension"):
        tracker_update(t, np.zeros(3), 1.0)
    # a radius-only tracker takes no centroid, and the other way round
    with pytest.raises(ValueError, match="dimension"):
        tracker_update(t, None, 1.0)
    t = ManifoldTracker(delta=0.5)
    tracker_update(t, None, 1.0)
    with pytest.raises(ValueError, match="dimension"):
        tracker_update(t, np.zeros(2), 1.0)


def test_tracker_method_alias():
    t = ManifoldTracker(delta=0.5)
    t.update(SphereManifold(np.zeros(1), 2.0))
    out = t.update(SphereManifold(np.zeros(1), 4.0))
    assert out.radius == pytest.approx(3.0)


points_strategy = hnp.arrays(
    np.float64, st.tuples(st.integers(1, 8), st.integers(1, 4)),
    elements=st.floats(-10, 10, allow_nan=False))


@settings(deadline=None, max_examples=60)
@given(points_strategy)
def test_radius_nonnegative_and_zero_iff_identical(pts):
    m = fit(pts)
    assert m.radius >= 0.0
    if np.ptp(pts, axis=0).max(initial=0.0) == 0.0:
        assert m.radius == pytest.approx(0.0, abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(points_strategy, st.floats(-5, 5), st.floats(-5, 5))
def test_translation_equivariance(pts, tx, ty):
    shift = np.resize(np.array([tx, ty]), pts.shape[1])
    a = fit(pts)
    b = fit(pts + shift)
    np.testing.assert_allclose(b.centroid, a.centroid + shift, atol=1e-9)
    assert b.radius == pytest.approx(a.radius, abs=1e-9)


@settings(deadline=None, max_examples=60)
@given(points_strategy, st.floats(0.1, 7.0))
def test_radius_scales_linearly(pts, k):
    a = fit(pts)
    b = fit(pts * k)
    assert b.radius == pytest.approx(k * a.radius, rel=1e-9, abs=1e-9)


def test_radius_rotation_invariant():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(9, 2))
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    a = fit(pts)
    b = fit(pts @ rot.T)
    assert b.radius == pytest.approx(a.radius, rel=1e-12)
