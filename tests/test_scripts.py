"""The scripts under scripts/: run_ring8.py runs the protocol the
acceptance tests judge, bench.py writes the BENCH_<label>.json record."""
import csv
import json
import subprocess
from pathlib import Path

import pytest

import bench
import run_ring8

REPO = Path(__file__).resolve().parent.parent


def test_ring8_runs_yield_each_arms_final_row_and_wall(tmp_path):
    results = list(run_ring8.runs([0], 20, tmp_path))
    assert [arm for arm, *_ in results] == list(run_ring8.ARMS)
    for arm, seed, modes, hq, wall in results:
        with open(tmp_path / f"{arm}-s0" / "metrics.csv", newline="") as f:
            final = list(csv.DictReader(f))[-1]
        assert seed == 0 and final["step"] == "20"
        assert (modes, hq) == (int(final["modes_covered"]),
                               float(final["hq_fraction"]))
        assert wall > 0.0
    # a run that exits non-zero raises, so the fixture fails, not the process
    with pytest.raises(RuntimeError, match="matcher seed 0 exited 1"):
        next(run_ring8.runs([0], 0, tmp_path))


MACHINE = {"nproc": 2, "numpy": "2.4.6", "blas": {"name": "openblas"}}


def metric(value, unit):
    return {"value": value, "unit": unit}


def test_bench_assembles_the_record_from_perfbench_stdout():
    end_to_end = {"correct": True, "attempted": 48, "failed": 0, "metrics": {
        "ring8_matcher.train_steps_per_s": metric(563.1, "steps/s"),
        "gradcheck.peak_rss_mb": metric(39.2, "MB")}}
    e2e_stdout = "\n".join([
        "ring8_matcher host: {}",
        f"ring8_matcher machine: {json.dumps(MACHINE)}",
        "ring8_matcher train_steps_per_s: 563.1 steps/s",
        f"idx_baseline machine: {json.dumps(dict(MACHINE, nproc=8))}",
        "ops_failed_frac: 0.0 ratio (0/48)",
        json.dumps(end_to_end)])
    traced = {name: metric(float(i), "count")
              for i, name in enumerate(bench.COUNTERS)}
    traced.update({name: metric(0.5 + i, "ms")
                   for i, name in enumerate(bench.PHASES)})
    traced["neural.backward.ms"] = metric(0.49, "ms")
    counters_stdout = "\n".join([
        f"machine: {json.dumps(MACHINE)}",
        json.dumps({"correct": True, "attempted": 6, "failed": 0,
                    "metrics": traced})])
    # the traced gradcheck suite's counts, among its other metrics
    gradcheck_stdout = "\n".join([
        f"machine: {json.dumps(MACHINE)}",
        json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {
            "regularizer.r_g.calls": metric(1656.0, "count"),
            "neural.forward.calls": metric(6536.0, "count"),
            "neural.backward.calls": metric(8.0, "count"),
            "gradcheck.loss_evals": metric(3240, "count")}})])
    # the protocol prints each run's wall_s, then the medians
    protocol_stdout = "\n".join([
        "arm        seed  modes  hq_fraction  wall_s",
        "matcher       0      8  0.634        2.200",
        "matcher       1      7  0.612        1.800",
        "matcher       2      8  0.640        2.000",
        "baseline      0      0  0.000        1.600",
        "nopenalty     0      8  0.650        2.500",
        "",
        "matcher    median modes 8  median hq 0.634"])
    record = bench.assemble("pr8", {"commit": None, "parent": "abc1234"},
                            e2e_stdout, counters_stdout, gradcheck_stdout,
                            protocol_stdout, 21.5)
    # the schema of the committed BENCH files, which gained the phases, the
    # arms, the source size, the gradcheck counters and the protocol's wall
    assert list(record) == ["label", "commit", "parent", "commands", "machine",
                            "src_lines", "end_to_end", "ring8_matcher_counters",
                            "ring8_matcher_phases", "gradcheck_counters",
                            "ring8_arms", "protocol_wall_s"]
    assert record["label"] == "pr8" and record["parent"] == "abc1234"
    assert record["machine"] == MACHINE
    wc = subprocess.run("cat src/mmgan/*.py | wc -l", shell=True, check=True,
                        cwd=REPO, capture_output=True, text=True)
    assert record["src_lines"] == int(wc.stdout)
    assert record["end_to_end"] == end_to_end
    assert record["ring8_matcher_counters"] == {
        name: metric(float(i), "count") for i, name in enumerate(bench.COUNTERS)}
    assert record["ring8_matcher_phases"] == {
        "trainer.d_step.ms": metric(0.5, "ms"),
        "trainer.update_trackers.ms": metric(1.5, "ms"),
        "trainer.g_step.ms": metric(2.5, "ms"),
        "trainer.eval_callback.ms": metric(3.5, "ms")}
    assert record["gradcheck_counters"] == {
        "regularizer.r_g.calls": metric(1656.0, "count"),
        "neural.forward.calls": metric(6536.0, "count"),
        "gradcheck.loss_evals": metric(3240, "count")}
    # 1000 steps over the median of each arm's wall_s, in the order run
    assert record["ring8_arms"] == {"matcher": metric(500.0, "steps/s"),
                                    "baseline": metric(625.0, "steps/s"),
                                    "nopenalty": metric(400.0, "steps/s")}
    assert list(record["ring8_arms"]) == list(run_ring8.ARMS)
    assert record["protocol_wall_s"] == metric(21.5, "s")
    committed = json.loads((REPO / "BENCH_pr6.json").read_text())
    # the committed commands, plus the traced gradcheck run and the
    # protocol at 1000 steps, which gives the arms and the protocol's wall
    protocol = "python3 scripts/run_ring8.py --steps 1000"
    assert record["commands"] == {
        **committed["commands"],
        "gradcheck_counters": "python3 perfbench/run.py --workload gradcheck "
                              "--seed 1 --seconds 30 --trace 1",
        "ring8_arms": protocol, "protocol_wall_s": protocol}
    assert set(record["ring8_matcher_counters"]) == set(
        committed["ring8_matcher_counters"])


def test_bench_protocol_run_returns_its_wall_time():
    # the protocol on one seed at 20 steps, in the fresh process bench.py
    # times it in; later flags override the command's
    wall, stdout = bench.run_protocol(["--steps", "20", "--seeds", "0"])
    assert wall > 0.0
    rates = bench.arm_rates(stdout, 20)
    assert list(rates) == list(run_ring8.ARMS)
    assert all(rate["value"] > 0.0 for rate in rates.values())


def test_src_stays_within_its_size_budget():
    # the line budget of src/mmgan, counted as every BENCH record counts it
    assert bench.src_lines() <= 2500
