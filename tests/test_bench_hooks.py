"""The benchmark's hooks still fit the program they wrap.

perfbench/tracer.py wraps module attributes by name from outside the
program, and perfbench/run.py times `mmgan.cli.train` through its calling
convention; a change to either breaks only the benchmark run, so both are
checked here.
"""
import importlib.util
import struct
import sys
from pathlib import Path

from mmgan import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name, path, monkeypatch):
    """Execute the file at path as module name, listed in sys.modules for
    the test's duration (dataclasses look their module up there)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_exists(monkeypatch):
    tracer = load("perfbench_tracer", PERFBENCH / "tracer.py", monkeypatch)
    points = [(module, attr) for _, module, attr in tracer.WRAP_POINTS]
    points.append(tracer.LOSS_EVAL_POINT)
    # raises WrapPointMissing for an attribute that is gone
    with tracer.patched((module, attr, lambda original: original)
                        for module, attr in points):
        pass


def test_train_clock_times_a_cli_run(tmp_path, monkeypatch):
    # run.py imports tracer.py as a top-level module
    monkeypatch.syspath_prepend(str(PERFBENCH))
    clock = load("perfbench_run", PERFBENCH / "run.py", monkeypatch).TrainClock()
    monkeypatch.setattr(cli, "train", clock.make(cli.train))
    assert cli.main(["train", "--steps", "4", "--eval-interval", "2",
                     "--batch", "8", "--eval-samples", "16",
                     "--out", str(tmp_path / "run")]) == 0
    assert len(clock.records) == 1
    assert clock.records[0]["steps"] == 4
    assert clock.records[0]["eval_wall"] > 0


def check_traced_layers(workload, argvs, monkeypatch):
    """Run each argv through the CLI under the benchmark's tracer, then
    check that every layer the workload expects recorded a span.

    A refactor that stops calling a wrapped name through the module the
    trace patches would otherwise fail only the benchmark's --trace 1 run.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = load("perfbench_run", PERFBENCH / "run.py", monkeypatch)
    tr = run.tr
    tracer = tr.Tracer()
    with tr.patched(tracer.replacements()):
        for argv in argvs:
            assert cli.main(argv) == 0
    # run.py opens the train and eval-callback spans itself
    expected = [name for name in run.WORKLOADS[workload].expected
                if name not in (tr.TRAIN_SPAN, tr.EVAL_SPAN)]
    tr.check_called(tracer, expected)


def test_ring8_run_calls_every_traced_layer(tmp_path, monkeypatch):
    out = str(tmp_path / "run")
    check_traced_layers("ring8_matcher", [
        ["train", "--dataset", "ring8", "--kernel", "rbf", "--steps", "4",
         "--eval-interval", "2", "--batch", "8", "--eval-samples", "16",
         "--out", out],
        ["eval", "--out", out]], monkeypatch)


def test_idx_baseline_run_calls_every_traced_layer(tmp_path, monkeypatch):
    # the workload's shape at a tiny size: 64 images of 28x28
    images = tmp_path / "images.idx"
    pixels = bytes(range(256)) * (64 * 28 * 28 // 256)
    images.write_bytes(struct.pack(">IIII", 2051, 64, 28, 28) + pixels)
    out = str(tmp_path / "run")
    check_traced_layers("idx_baseline", [
        ["train", "--dataset", "idx", "--idx-images", str(images),
         "--baseline", "--steps", "4", "--eval-interval", "2",
         "--batch", "8", "--eval-samples", "16", "--out", out],
        ["eval", "--out", out]], monkeypatch)


def test_gradcheck_calls_every_traced_layer(monkeypatch):
    check_traced_layers("gradcheck", [
        ["gradcheck", "--kernel", "rbf", "--seed", "1"]], monkeypatch)
