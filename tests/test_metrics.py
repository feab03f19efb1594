import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mmgan.data import DatasetHandle, make_dataset
from mmgan.manifold import centroid, radius
from mmgan.metrics import (
    COVERAGE_DIVISOR,
    HQ_SIGMA_MULTIPLIER,
    MetricsRow,
    mode_coverage,
)
from mmgan.neural import constant
from mmgan.trainer import score_samples
from oracles import manifold_gap


def test_hand_built_coverage_case():
    # 8 modes, n=160 -> a mode needs >= max(1, 160/80) = 2 hq samples
    centers = make_dataset("ring8").mode_centers
    sigma = 0.02
    samples = [centers[0] + [0.001, 0.0]] * 3      # covered
    samples += [centers[1] + [0.0, 0.001]]          # hq but only 1: not covered
    samples += [[50.0, 50.0]] * 156                 # junk, not hq
    modes, hq = mode_coverage(np.array(samples), centers, sigma)
    assert modes == 1
    assert hq == pytest.approx(4 / 160)


def test_every_mode_hit_exactly():
    centers = make_dataset("grid25").mode_centers
    modes, hq = mode_coverage(centers.copy(), centers, 0.05)
    assert modes == 25 and hq == 1.0


def test_hq_boundary_is_inclusive():
    centers = np.array([[0.0, 0.0]])
    sigma = 0.1
    on_edge = np.array([[HQ_SIGMA_MULTIPLIER * sigma, 0.0]])
    modes, hq = mode_coverage(on_edge, centers, sigma)
    assert modes == 1 and hq == 1.0
    past = np.array([[HQ_SIGMA_MULTIPLIER * sigma + 1e-9, 0.0]])
    modes, hq = mode_coverage(past, centers, sigma)
    assert modes == 0 and hq == 0.0


def test_threshold_scales_with_sample_count():
    # n=800 over 8 modes -> each needs 10 hq samples
    centers = make_dataset("ring8").mode_centers
    samples = np.concatenate([
        np.tile(centers[0], (10, 1)),            # exactly at threshold
        np.tile(centers[1], (9, 1)),             # one short
        np.tile([40.0, 40.0], (781, 1)),
    ])
    modes, _ = mode_coverage(samples, centers, 0.02)
    assert modes == 1


def test_collapsed_generator_covers_one_mode():
    centers = make_dataset("ring8").mode_centers
    rng = np.random.default_rng(0)
    samples = centers[3] + rng.normal(0, 0.02, size=(200, 2))
    modes, hq = mode_coverage(samples, centers, 0.02)
    assert modes == 1
    assert hq > 0.95


def test_mode_coverage_validation():
    c = np.zeros((1, 2))
    with pytest.raises(ValueError):
        mode_coverage(np.zeros((0, 2)), c, 0.1)
    with pytest.raises(ValueError):
        mode_coverage(np.zeros((3, 2)), np.zeros((0, 2)), 0.1)
    with pytest.raises(ValueError):
        mode_coverage(np.zeros((3, 3)), c, 0.1)
    with pytest.raises(ValueError):
        mode_coverage(np.zeros((3, 2)), c, 0.0)


def test_manifold_gap_values():
    # the reference gaps of tests/oracles.py, by hand
    a = (np.array([0.0, 0.0]), 1.0)
    b = (np.array([3.0, 4.0]), 2.5)
    cg, rg = manifold_gap(a, b)
    assert cg == pytest.approx(5.0) and rg == pytest.approx(1.5)
    with pytest.raises(ValueError, match="dimension mismatch"):
        manifold_gap(a, (np.zeros(3), 1.0))


def _sphere(points) -> tuple:
    pts = constant(points)
    c = centroid(pts)
    return c.value, radius(pts, c).item()


@st.composite
def _batch_pair(draw):
    """A real and a fake batch of one width, 2 or 16 columns."""
    d = draw(st.sampled_from([2, 16]))
    batch = hnp.arrays(np.float64, st.tuples(st.integers(2, 40), st.just(d)),
                       elements=st.floats(-10, 10, allow_nan=False))
    return draw(batch), draw(batch)


@settings(deadline=None, max_examples=80)
@given(_batch_pair())
def test_product_gaps_agree_with_the_reference(pair):
    # the gaps every evaluation reports come from the objective's own
    # formula; criterion 4 judges by the oracle's manifold_gap, and the two
    # must agree
    real, fake = pair
    data = (make_dataset("ring8") if real.shape[1] == 2
            else DatasetHandle("idx", 16, None, 0.0))
    row = score_samples(fake, real, data)
    cg, rgap = manifold_gap(_sphere(real), _sphere(fake))
    assert row.centroid_gap == pytest.approx(cg, rel=1e-14, abs=0.0)
    assert row.radius_gap == rgap


def test_metrics_row_frozen():
    row = MetricsRow(step=1, modes_covered=8, coverage_fraction=1.0,
                     hq_fraction=0.9, centroid_gap=0.1, radius_gap=0.1,
                     r_g_value=2.0)
    with pytest.raises(AttributeError):
        row.modes_covered = 2


def test_default_constants():
    assert HQ_SIGMA_MULTIPLIER == 3.0
    assert COVERAGE_DIVISOR == 10.0
