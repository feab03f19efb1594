"""Acceptance gate: one test per shipping criterion, run with pytest -v.

Criteria 6 and 7 train 15 full ring8 runs (5 seeds x 3 arms) through the
real CLI at 20000 steps each, by `runs` of `scripts/run_ring8.py`, the
protocol's one implementation; everything they assert is read back from
the run directories the way a user would read them.
"""
import csv
import statistics
import struct
import time

import numpy as np
import pytest

from mmgan.cli import main as cli_main
from mmgan.kernel import KernelSpec, feature_sq_dist
from mmgan.manifold import ManifoldTracker, centroid, radius, tracker_update
from mmgan.neural import constant
from mmgan.gradcheck import TOLERANCE, run_suite, variant_names
from mmgan.persist import load_network, save_network
from mmgan.regularizer import r_g
from oracles import manifold_gap
from run_ring8 import medians, runs


def _median(values):
    return statistics.median(values)


def test_criterion_1_gradient_check_all_variants():
    t0 = time.monotonic()
    results = run_suite(variant_names())
    wall = time.monotonic() - t0
    worst = {name: err for name, err, _ in results}
    assert all(ok for _, _, ok in results), f"analytic gradients off: {worst}"
    assert max(worst.values()) < TOLERANCE
    assert wall < 30.0, f"gradient check took {wall:.1f}s"


def test_criterion_2_kernel_trick_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    linear = KernelSpec("linear")
    rbf = KernelSpec("rbf")
    for _ in range(1000):
        a = rng.standard_normal(8) * rng.uniform(0.1, 10.0)
        b = rng.standard_normal(8) * rng.uniform(0.1, 10.0)
        sq = float(((a - b) ** 2).sum())
        assert abs(feature_sq_dist(linear, constant(a[None]), constant(b[None])).item() - sq) <= 1e-10
        gamma = rbf.resolve_gamma(8)
        expect = 2.0 - 2.0 * np.exp(-gamma * sq)
        assert abs(feature_sq_dist(rbf, constant(a[None]), constant(b[None])).item() - expect) <= 1e-12
    assert time.monotonic() - t0 < 1.0


def test_criterion_3_sphere_statistics_optimality():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    for _ in range(50):
        pts = rng.uniform(-3.0, 3.0, size=(5, 2))
        c = centroid(constant(pts)).value
        r = radius(constant(pts), constant(c)).item()

        def spread(cand):
            return float(((pts - cand) ** 2).sum())

        best = spread(c)
        lo, hi = pts.min() - 1.0, pts.max() + 1.0
        for gx in np.linspace(lo, hi, 41):
            for gy in np.linspace(lo, hi, 41):
                assert best <= spread(np.array([gx, gy])) + 1e-12

        dists = np.sqrt(((pts - c) ** 2).sum(axis=1))

        def ring_misfit(cand):
            return float(((dists - cand) ** 2).sum())

        best_r = ring_misfit(r)
        for cand in np.linspace(0.0, dists.max() * 1.5, 1001):
            assert best_r <= ring_misfit(cand) + 1e-12
    assert time.monotonic() - t0 < 10.0


@pytest.mark.parametrize("delta", [0.9, 0.99])
def test_criterion_4_moving_average_geometric_law(delta):
    rng = np.random.default_rng(3)
    start = (rng.standard_normal(4), 2.5)
    target = (rng.standard_normal(4), 0.75)
    tracker = ManifoldTracker(delta)
    tracker_update(tracker, *map(constant, start))
    cg0, rg0 = manifold_gap((tracker.centroid, tracker.radius), target)
    gap0 = cg0 + rg0
    for k in range(1, 201):
        tracker_update(tracker, *map(constant, target))
        cg, rg = manifold_gap((tracker.centroid, tracker.radius), target)
        assert abs((cg + rg) - delta ** k * gap0) <= 1e-10, f"k={k}"


def test_criterion_5_decorrelation_penalty_direction():
    rng = np.random.default_rng(5)
    reps = rng.standard_normal((8, 16))
    reps[6] = reps[2]
    assert r_g(constant(reps)).item() > 0.0

    h = np.array([[1.0]])
    while h.shape[0] < 16:
        h = np.block([[h, h], [h, -h]])
    decorrelated = h[1:9]
    assert r_g(constant(decorrelated)).item() < 1e-8


RING8_STEPS = 20000
SEEDS = range(5)


@pytest.fixture(scope="module")
def ring8_runs(tmp_path_factory):
    """modes/hq/wall per (arm, seed), trained through the CLI."""
    table = {}
    for arm, _, modes, hq, wall in runs(SEEDS, RING8_STEPS,
                                        tmp_path_factory.mktemp("ring8")):
        table.setdefault(arm, []).append((modes, hq, wall))
    return table


def _coverage_summary(table):
    return "\n".join(
        f"{line} [seed modes/hq: "
        + ", ".join(f"{m}/{h:.2f}" for m, h, _ in rows) + "]"
        for line, rows in zip(medians(table), table.values()))


def test_criterion_6_ring8_mode_coverage_protocol(ring8_runs):
    summary = _coverage_summary(ring8_runs)
    matcher = ring8_runs["matcher"]
    base = ring8_runs["baseline"]
    assert all(w < 1200.0 for _, _, w in matcher), summary

    med_modes = _median([m for m, _, _ in matcher])
    med_hq = _median([h for _, h, _ in matcher])
    assert med_modes >= _median([m for m, _, _ in base]), summary
    assert med_modes >= 7, summary
    assert med_hq >= 0.6, summary
    assert sum(m >= 7 for m, _, _ in matcher) >= 3, summary


def test_criterion_7_penalty_ablation(ring8_runs):
    summary = _coverage_summary(ring8_runs)
    with_penalty = _median([m for m, _, _ in ring8_runs["matcher"]])
    without = _median([m for m, _, _ in ring8_runs["nopenalty"]])
    assert with_penalty >= without, summary


def test_criterion_8_bitwise_determinism(tmp_path):
    flags = ["train", "--dataset", "ring8", "--kernel", "rbf",
             "--steps", "400", "--eval-interval", "200", "--batch", "32",
             "--eval-samples", "100", "--seed", "13"]
    first = tmp_path / "first"
    assert cli_main([*flags, "--out", str(first)]) == 0
    second = tmp_path / "second"
    assert cli_main(["train", "--config", str(first / "manifest.txt"),
                     "--out", str(second)]) == 0
    assert (first / "metrics.csv").read_bytes() == \
        (second / "metrics.csv").read_bytes()
    assert (first / "generator.bin").read_bytes() == \
        (second / "generator.bin").read_bytes()

    net = load_network(first / "generator.bin")
    save_network(net, tmp_path / "copy.bin")
    assert (tmp_path / "copy.bin").read_bytes() == \
        (first / "generator.bin").read_bytes()


def test_criterion_9_image_idx_smoke(tmp_path):
    rng = np.random.default_rng(17)
    imgs = rng.integers(0, 256, size=(256, 28, 28), dtype=np.uint8)
    p = tmp_path / "digits.idx"
    p.write_bytes(struct.pack(">IIII", 2051, 256, 28, 28) + imgs.tobytes())

    out = tmp_path / "run"
    code = cli_main(["train", "--dataset", "idx", "--idx-images", str(p),
                     "--steps", "500", "--eval-interval", "250",
                     "--eval-samples", "128", "--out", str(out)])
    assert code == 0
    with open(out / "metrics.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    for row in rows:
        for key, cell in row.items():
            assert np.isfinite(float(cell)), f"{key} at step {row['step']}"
