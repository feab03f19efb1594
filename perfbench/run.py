"""Outside-in benchmark of the mmgan command line.

    python3 perfbench/run.py --workload ring8_matcher --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ./src. Each
workload calls `mmgan.cli.main` in this process, closed-loop, one
invocation after another with the same arguments, until --seconds have
passed (at least twice, so reruns can be compared). Every invocation's
outputs are checked. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced invocations and reports per-layer metrics from spans recorded
around the calls into each mmgan module (see tracer.py), plus the tracing
overhead. Reports and spans go to .perfbench_work/<workload>-t<trace>/.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import tracer as tr

WORK_ROOT = ".perfbench_work"
PROBE_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "setup_probe.py")
SETUP_PROBES = 15
IDX_IMAGES = 3000
EVAL_INTERVAL = 500
ROW_CHECK_COLUMNS = ("step", "modes_covered", "hq_fraction",
                     "centroid_gap", "radius_gap")

_NEURAL = ("neural.forward", "neural.gradients", "neural.backward",
           "neural.topo_order")
_TRAIN = _NEURAL + ("neural.forward_values", "neural.sgd_step",
                    tr.TRAIN_SPAN, tr.EVAL_SPAN, "trainer.d_step",
                    "trainer.g_step", "regularizer.r_g", "data.sample_batch",
                    "cli.write_samples", "metrics.score_samples",
                    "persist.save_network", "persist.load_network")


@dataclass(frozen=True)
class Workload:
    kind: str            # "train" or "gradcheck"
    steps: int           # training steps per invocation
    tiny_steps: int
    first_call: tuple    # (module, attr) that ends set-up
    expected: tuple      # layers the traced run must see called


WORKLOADS = {
    # the paper's headline arm: tiny nets, interpreter-bound step
    "ring8_matcher": Workload(
        "train", 1000, 60, ("mmgan.trainer", "d_step"),
        _TRAIN + ("trainer.update_trackers", "kernel.kernel_radius",
                  "kernel.feature_sq_dist", "loss.l_d_final",
                  "loss.generator_terms", "manifold.tracker_update",
                  "svgplot.scatter_svg")),
    # 784-wide layers and heavy artifacts; bypasses kernel and trackers
    "idx_baseline": Workload(
        "train", 500, 40, ("mmgan.trainer", "d_step"),
        _TRAIN + ("data.load_idx",)),
    # forward-only graph builds, no backward over them, no optimiser
    "gradcheck": Workload(
        "gradcheck", 0, 0, ("mmgan.gradcheck", "check_variant"),
        _NEURAL + ("loss.generator_terms", "kernel.kernel_radius",
                   "kernel.feature_sq_dist", "regularizer.r_g",
                   "gradcheck.check_variant")),
}


def mmgan_argv(name: str, seed: int, out_dir: str, idx_path: str,
               tiny: bool) -> list:
    w = WORKLOADS[name]
    if w.kind == "gradcheck":
        return ["gradcheck", "--seed", str(seed)] + (
            ["--kernel", "rbf"] if tiny else [])
    steps = w.tiny_steps if tiny else w.steps
    interval = steps // 2 if tiny else EVAL_INTERVAL
    if name == "ring8_matcher":
        data = ["--dataset", "ring8", "--kernel", "rbf", "--alpha", "1",
                "--beta", "1", "--delta", "0.9"]
    else:
        data = ["--dataset", "idx", "--idx-images", idx_path, "--baseline"]
    return ["train", *data, "--batch", "64", "--steps", str(steps),
            "--eval-interval", str(interval), "--seed", str(seed),
            "--out", out_dir]


def write_idx(path: str, seed: int, np) -> None:
    """Synthetic 28x28 uint8 images in the big-endian IDX image format."""
    rng = np.random.default_rng([seed, 2051])
    pixels = rng.integers(0, 256, size=(IDX_IMAGES, 28, 28), dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 2051, IDX_IMAGES, 28, 28))
        f.write(pixels.tobytes())


# -- host record ----------------------------------------------------------

def read_steal_s() -> float | None:
    """Cumulative steal time of the host in seconds (read only)."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
    except OSError:
        return None
    if fields[0] != "cpu" or len(fields) < 9:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


# A fixed interpreter loop and a fixed small matmul loop, in a fresh
# process so the benchmark's own heap and thread state do not colour it.
_HOST_PROBE = """
import statistics, time
import numpy as np
a = np.random.default_rng(0).standard_normal((64, 64))
py, blas = [], []
for _ in range(7):
    t0 = time.perf_counter()
    s = 0
    for i in range(30000):
        s += i * i
    t1 = time.perf_counter()
    for _ in range(300):
        a @ a
    py.append(t1 - t0)
    blas.append(time.perf_counter() - t1)
print(statistics.median(py) * 1e3, statistics.median(blas) * 1e3)
"""


def host_probe() -> dict:
    """Median ms of the fixed probe loops; tracks the host's speed phases."""
    proc = subprocess.run([sys.executable, "-c", _HOST_PROBE], capture_output=True,
                          text=True, timeout=120, check=True)
    py_ms, blas_ms = (float(v) for v in proc.stdout.split())
    return {"python_ms": py_ms, "blas_ms": blas_ms}


def machine_record(np) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_thread_cap": os.environ["OPENBLAS_NUM_THREADS"]}


# -- invocations ----------------------------------------------------------

class TrainClock:
    """Replacement for cli.train that times train() and its eval callback.

    With a tracer it also opens the train and eval-callback spans."""

    def __init__(self):
        self.records: list = []
        self.tracer: tr.Tracer | None = None

    def make(self, train):
        def timed_train(cfg, *args, **kwargs):
            rec = {"steps": cfg.steps, "eval_wall": 0.0, "eval_cpu": 0.0}
            on_eval = kwargs.get("on_eval")
            tracer = self.tracer
            if on_eval is not None:
                inner = tracer.wrap(tr.EVAL_SPAN, on_eval) if tracer else on_eval

                def timed_eval(*a, **k):
                    t0, c0 = time.perf_counter(), time.process_time()
                    try:
                        return inner(*a, **k)
                    finally:
                        rec["eval_wall"] += time.perf_counter() - t0
                        rec["eval_cpu"] += time.process_time() - c0
                kwargs["on_eval"] = timed_eval
            run = tracer.wrap(tr.TRAIN_SPAN, train) if tracer else train
            t0, c0 = time.perf_counter(), time.process_time()
            result = run(cfg, *args, **kwargs)
            rec["wall"] = time.perf_counter() - t0
            rec["cpu"] = time.process_time() - c0
            self.records.append(rec)
            return result
        return timed_train


class CallCounter:
    def __init__(self):
        self.calls = 0

    def make(self, fn):
        def counted(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)
        return counted


def call_main(cli, argv: list) -> tuple:
    """(exit code or None on an uncaught exception, wall s, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a traceback is a failed invocation, not a crash
        code = None
        err.write(traceback.format_exc())
    return code, time.perf_counter() - t0, out.getvalue(), err.getvalue()


def read_rows(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def check_train_outputs(out_dir: str, ref: dict | None) -> tuple:
    """(problems, outputs) for one training run directory."""
    problems = []
    outputs = {}
    for name in ("metrics.csv", "generator.bin"):
        try:
            with open(os.path.join(out_dir, name), "rb") as f:
                outputs[name] = f.read()
        except OSError as e:
            problems.append(f"missing {name}: {e}")
    if problems:
        return problems, outputs
    rows = read_rows(os.path.join(out_dir, "metrics.csv"))
    if not rows:
        problems.append("metrics.csv has no rows")
    for row in rows:
        for key, cell in row.items():
            try:
                finite = math.isfinite(float(cell))
            except (TypeError, ValueError):
                finite = False
            if not finite:
                problems.append(f"metrics.csv {key}={cell!r} at step {row['step']}")
    if ref is not None:
        for name, data in outputs.items():
            if data != ref[name]:
                problems.append(f"{name} differs from the first run of this seed")
    return problems, outputs


def check_eval(cli, out_dir: str) -> list:
    """mmgan eval must reproduce the run's final metrics.csv row exactly."""
    code, _, stdout, stderr = call_main(cli, ["eval", "--out", out_dir])
    if code != 0:
        return [f"eval exited {code}: {stderr.strip()[-500:]}"]
    lines = list(csv.DictReader(io.StringIO(stdout)))
    final = read_rows(os.path.join(out_dir, "metrics.csv"))[-1]
    if len(lines) != 1:
        return [f"eval printed {len(lines)} rows"]
    return [f"eval {col}={lines[0].get(col)!r} but metrics.csv has {final[col]!r}"
            for col in ROW_CHECK_COLUMNS if lines[0].get(col) != final[col]]


def check_gradcheck_output(stdout: str, ref: str | None, names: list,
                           tolerance: float) -> list:
    """Problems with one gradcheck table."""
    problems = []
    rows = [line.split() for line in stdout.splitlines() if line.strip()]
    if [r[0] for r in rows] != names:
        problems.append(f"variants {[r[0] for r in rows]} != {names}")
    for row in rows:
        if not (len(row) == 3 and float(row[1]) < tolerance and row[2] == "ok"):
            problems.append(f"variant {row[0]}: {row[1:]} not below {tolerance}")
    if ref is not None and stdout != ref:
        problems.append("gradcheck table differs from the first run of this seed")
    return problems


def setup_time(argv: list, first_call: tuple) -> float:
    """Seconds from a cold process to the workload's first unit of work."""
    proc = subprocess.run([sys.executable, PROBE_SCRIPT, *first_call, "--", *argv],
                          capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def check_outputs(kind: str, out_dir: str, stdout: str, ref, gc_names: list,
                  tolerance: float) -> tuple:
    """(problems, outputs to compare later runs of this seed against)."""
    if kind == "train":
        return check_train_outputs(out_dir, ref)
    return check_gradcheck_output(stdout, ref, gc_names, tolerance), stdout


def quality_record(kind: str, out_dir: str, stdout: str) -> dict:
    """Quality outputs for inspection only: perf changes may reorder floats."""
    if kind == "train":
        final = read_rows(os.path.join(out_dir, "metrics.csv"))[-1]
        return {k: final[k] for k in
                ("step", "modes_covered", "hq_fraction", "centroid_gap")}
    return {"worst_gradcheck_error": max(
        float(line.split()[1]) for line in stdout.splitlines() if line.strip())}


def artifact_sizes(out_dir: str) -> dict:
    return {"artifact_bytes": sum(os.path.getsize(os.path.join(out_dir, n))
                                  for n in os.listdir(out_dir)),
            "persist_bytes": os.path.getsize(os.path.join(out_dir, "generator.bin"))}


# -- the run ----------------------------------------------------------------

def run(args) -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mmgan", "cli.py")):
        print("perfbench: run from the repository root; src/mmgan not found",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import numpy as np
    from mmgan import cli
    from mmgan.gradcheck import TOLERANCE, variant_names

    w = WORKLOADS[args.workload]
    work = os.path.join(root, WORK_ROOT, f"{args.workload}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    idx_path = os.path.join(work, "images.idx")
    if args.workload == "idx_baseline":
        write_idx(idx_path, args.seed, np)

    def argv_for(out_dir):
        return mmgan_argv(args.workload, args.seed, out_dir, idx_path, args.tiny)

    steal_start = read_steal_s()
    host = {"probe_before": host_probe()}
    setup = []

    clock = TrainClock()
    loss_evals = CallCounter()
    tracer = tr.Tracer()
    gc_names = variant_names(kernel="rbf" if args.tiny else None)
    always = [("mmgan.cli", "train", clock.make),
              (*tr.LOSS_EVAL_POINT, loss_evals.make)]

    invocations = []
    problems_all = []
    ref = None
    quality = {}
    attempted = failed = 0
    traced_steps = traced_count = 0
    # Set-up probes are spread over the run, between invocations, so that
    # their median samples the same host-speed phases as the invocations.
    probes = 0 if args.trace else SETUP_PROBES
    probe_s = 0.0
    t_start = time.perf_counter()

    def elapsed():
        return time.perf_counter() - t_start - probe_s

    def take_probes(final=False):
        nonlocal probe_s
        while len(setup) < probes and (
                final or len(setup) * args.seconds <= elapsed() * probes):
            t0 = time.perf_counter()
            out_dir = os.path.join(work, "setup")
            setup.append(setup_time(argv_for(out_dir), w.first_call))
            shutil.rmtree(out_dir, ignore_errors=True)
            probe_s += time.perf_counter() - t0

    i = 0
    min_calls = 4 if args.trace else 2
    while i < min_calls or elapsed() < args.seconds:
        take_probes()
        traced = bool(args.trace) and i % 2 == 1
        out_dir = os.path.join(work, f"inv{i}")
        clock.records.clear()
        loss_evals.calls = 0
        clock.tracer = tracer if traced else None
        hooks = always + (list(tracer.replacements()) if traced else [])
        c0 = time.process_time()
        with tr.patched(hooks):
            code, wall, stdout, stderr = call_main(cli, argv_for(out_dir))
            cpu = time.process_time() - c0
            if code == 0:
                problems, outputs = check_outputs(w.kind, out_dir, stdout, ref,
                                                  gc_names, TOLERANCE)
            else:
                problems, outputs = [f"exit {code}: {stderr.strip()[-2000:]}"], None
            if ref is None and not problems:
                ref = outputs
                quality = quality_record(w.kind, out_dir, stdout)
            eval_problems = None
            if w.kind == "train" and i == 1 and code == 0:
                eval_problems = check_eval(cli, out_dir)
        clock.tracer = None
        sizes = artifact_sizes(out_dir) if w.kind == "train" and not problems \
            else {"artifact_bytes": 0, "persist_bytes": 0}
        shutil.rmtree(out_dir, ignore_errors=True)

        attempted += 1
        failed += bool(problems)
        problems_all += [f"invocation {i}: {p}" for p in problems]
        if eval_problems is not None:
            attempted += 1
            failed += bool(eval_problems)
            problems_all += [f"eval after invocation {i}: {p}" for p in eval_problems]
        if not problems:
            if w.kind == "train":
                rec = clock.records[-1]
                steps = rec["steps"]
                busy, busy_cpu = rec["wall"] - rec["eval_wall"], rec["cpu"] - rec["eval_cpu"]
            else:
                steps, busy, busy_cpu = loss_evals.calls, wall, cpu
            invocations.append({
                "traced": traced, "wall_s": wall, "steps": steps,
                "busy_s": busy, "busy_cpu_s": busy_cpu,
                "loss_evals": loss_evals.calls, **sizes})
            if traced:
                traced_steps += steps
                traced_count += 1
        i += 1

    take_probes(final=True)
    host["probe_after"] = host_probe()
    steal_end = read_steal_s()
    host["steal_s_delta"] = (None if steal_start is None or steal_end is None
                             else steal_end - steal_start)

    plain = [inv for inv in invocations if not inv["traced"]]
    done = [inv for inv in invocations if inv["traced"]]
    if not plain or (args.trace and not done):
        for p in problems_all:
            print(p, file=sys.stderr)
        print("perfbench: no invocation succeeded", file=sys.stderr)
        return 1

    def med(rows, key):
        return statistics.median(r[key] for r in rows)

    # Throughput is all steps over all busy time: under host-speed phases
    # that is steadier than the median of per-invocation rates.
    def rate(rows):
        return sum(r["steps"] for r in rows) / sum(r["busy_s"] for r in rows)

    if args.trace:
        tr.check_called(tracer, w.expected)
        metrics = tr.layer_metrics(tracer, traced_count, traced_steps)
        metrics["trace.untraced_steps_per_s"] = (rate(plain), "steps/s")
        metrics["trace.traced_steps_per_s"] = (rate(done), "steps/s")
        metrics["trace.overhead_frac"] = (rate(plain) / rate(done) - 1.0, "ratio")
        metrics["cli.artifact_bytes"] = (med(done, "artifact_bytes"), "bytes")
        metrics["persist.bytes"] = (med(done, "persist_bytes"), "bytes")
        metrics["gradcheck.loss_evals"] = (med(done, "loss_evals"), "count")
        tracer.write(os.path.join(work, "spans.jsonl"))
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "train_steps_per_s": (rate(plain), "steps/s"),
            "train_cpu_ms_per_step": (
                sum(r["busy_cpu_s"] for r in plain) * 1e3
                / sum(r["steps"] for r in plain), "ms"),
            "run_wall_s": (sum(r["wall_s"] for r in plain) / len(plain), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "tiny": args.tiny,
        "machine": machine_record(np),
        "host": host,
        "quality": quality,
        "setup_s_samples": setup,
        "ops_failed_frac": failed / attempted,
        "problems": problems_all,
        "invocations": invocations,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(work, "report.json"), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    for p in problems_all:
        print(f"problem: {p}")
    print(f"machine: {json.dumps(report['machine'])}")
    print(f"host: {json.dumps(host)}")
    print(f"quality (not gated): {json.dumps(quality)}")
    print(f"ops_failed_frac: {failed / attempted} ratio ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": report["metrics"]}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a process of its own. Their lines
    are printed prefixed with the workload; the last line combines their
    results, with each metric named <workload>.<metric>."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=600, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(f"{name} {line}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(f"ops_failed_frac: {combined['failed'] / combined['attempted']} ratio "
          f"({combined['failed']}/{combined['attempted']})")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                   help="one workload, or all of them in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="a few steps per invocation (smoke check)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    # BLAS threads are capped at the usable cores before numpy loads
    cap = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cap
    return run_all(args) if args.workload == "all" else run(args)


if __name__ == "__main__":
    raise SystemExit(main())
