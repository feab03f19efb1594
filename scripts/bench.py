#!/usr/bin/env python3
"""Record one point of the perf trajectory as BENCH_<label>.json.

    python3 scripts/bench.py LABEL

Run from the repository root. Runs the benchmark three times, at seed 1
and 30 seconds per workload as every BENCH file has: every workload
untraced, for the end-to-end metrics, then ring8_matcher traced, for its
deterministic work counters and its median ms per call of each phase,
then gradcheck traced, for its work counters over one suite.
Last it times the whole ring8 protocol at 1000 steps, `python3
scripts/run_ring8.py --steps 1000` (3 arms x 5 seeds, batch 64, the
default evaluation interval), as one fresh process with BLAS threads
capped at the usable cores as perfbench caps them, its run directories in
a temporary directory; the wall time includes the interpreter's start.
The same process gives each arm's steps/s: 1000 steps over the median of
the `wall_s` the script prints for that arm's runs.
The file records the machine, the end-to-end result, the ring8 counters
and phases, the gradcheck counters, the arms' steps/s and the protocol's
wall time, with the commands that produced them and the commit they were
measured on (`commit` is null, and `parent` names HEAD, when the working
tree has uncommitted changes). `src_lines` is the size of the measured
package: the line count of src/mmgan/*.py, as
`cat src/mmgan/*.py | wc -l` prints it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# the perfbench runs, by the record entry each one feeds
PERFBENCH = {
    "end_to_end": "python3 perfbench/run.py --workload all --seed 1 "
                  "--seconds 30 --trace 0",
    "counters": "python3 perfbench/run.py --workload ring8_matcher --seed 1 "
                "--seconds 30 --trace 1",
    "gradcheck_counters": "python3 perfbench/run.py --workload gradcheck "
                          "--seed 1 --seconds 30 --trace 1",
}
PROTOCOL_STEPS = 1000
PROTOCOL = f"python3 scripts/run_ring8.py --steps {PROTOCOL_STEPS}"
COMMANDS = {**PERFBENCH, "ring8_arms": PROTOCOL, "protocol_wall_s": PROTOCOL}
# the traced ring8 metrics a BENCH file keeps
COUNTERS = (
    "neural.forward.calls_per_step",
    "neural.forward_values.calls_per_step",
    "kernel.kernel_radius.calls_per_step",
    "regularizer.r_g.calls_per_step",
    "neural.nodes_per_backward",
    "trace.untraced_steps_per_s",
    "trace.traced_steps_per_s",
)
# the traced gradcheck metrics a BENCH file keeps: calls over one suite
GRADCHECK_COUNTERS = (
    "regularizer.r_g.calls",
    "neural.forward.calls",
    "gradcheck.loss_evals",
)
# the traced ring8 run's time per phase of a step, and of evaluation with
# its artifacts
PHASES = (
    "trainer.d_step.ms",
    "trainer.update_trackers.ms",
    "trainer.g_step.ms",
    "trainer.eval_callback.ms",
)

SCRIPTS = Path(__file__).resolve().parent
SRC = SCRIPTS.parent / "src"


def src_lines() -> int:
    """Newline count of src/mmgan/*.py, as wc -l counts it."""
    return sum(path.read_bytes().count(b"\n")
               for path in (SRC / "mmgan").glob("*.py"))


def parse_run(stdout: str) -> tuple:
    """(machine record, result) of one perfbench run: the first
    `machine:` line (prefixed by the workload under --workload all) and
    the JSON object on the last line."""
    lines = stdout.strip().splitlines()
    machine = next(json.loads(line.split("machine: ", 1)[1])
                   for line in lines if "machine: " in line)
    return machine, json.loads(lines[-1])


def arm_rates(stdout: str, steps: int = PROTOCOL_STEPS) -> dict:
    """steps/s of each arm, in the order run, from the protocol's stdout:
    steps over the median wall_s of its runs' (arm, seed, ...) lines."""
    walls = {}
    for cells in map(str.split, stdout.splitlines()):
        if len(cells) == 5 and cells[1].isdigit():
            walls.setdefault(cells[0], []).append(float(cells[4]))
    return {arm: {"value": steps / statistics.median(w), "unit": "steps/s"}
            for arm, w in walls.items()}


def assemble(label: str, revisions: dict, end_to_end_stdout: str,
             counters_stdout: str, gradcheck_stdout: str,
             protocol_stdout: str, protocol_wall: float) -> dict:
    """The BENCH record from the stdout of the three PERFBENCH runs and
    of PROTOCOL, and the protocol's wall seconds. revisions holds the
    `commit` and `parent` entries."""
    machine, end_to_end = parse_run(end_to_end_stdout)
    _, traced = parse_run(counters_stdout)
    _, gradcheck = parse_run(gradcheck_stdout)
    return {
        "label": label,
        **revisions,
        "commands": COMMANDS,
        "machine": machine,
        "src_lines": src_lines(),
        "end_to_end": end_to_end,
        "ring8_matcher_counters": {k: traced["metrics"][k] for k in COUNTERS},
        "ring8_matcher_phases": {k: traced["metrics"][k] for k in PHASES},
        "gradcheck_counters": {k: gradcheck["metrics"][k]
                               for k in GRADCHECK_COUNTERS},
        "ring8_arms": arm_rates(protocol_stdout),
        "protocol_wall_s": {"value": protocol_wall, "unit": "s"},
    }


def _git(*args) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def revisions() -> dict:
    head = _git("rev-parse", "--short", "HEAD")
    if _git("status", "--porcelain", "--untracked-files=no"):
        return {"commit": None, "parent": head}
    return {"commit": head, "parent": _git("rev-parse", "--short", "HEAD~1")}


def capped_env() -> dict:
    """The environment of a fresh process: BLAS threads capped at the
    usable cores, as perfbench caps them, and the package importable."""
    cap = str(len(os.sched_getaffinity(0)))
    return dict(os.environ, OPENBLAS_NUM_THREADS=cap, OMP_NUM_THREADS=cap,
                MKL_NUM_THREADS=cap,
                PYTHONPATH=os.pathsep.join(
                    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def run_protocol(flags=()) -> tuple:
    """(wall seconds, stdout) of PROTOCOL, with flags appended, in a fresh
    process whose run directories go to a temporary directory."""
    script, *args = PROTOCOL.split()[1:]
    with tempfile.TemporaryDirectory() as out:
        argv = [sys.executable, str(SCRIPTS.parent / script), *args, *flags,
                "--out", out]
        start = time.perf_counter()
        proc = subprocess.run(argv, env=capped_env(), capture_output=True,
                              text=True, check=False)
        wall = time.perf_counter() - start
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"ring8 protocol exited {proc.returncode}")
    return wall, proc.stdout


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("label", help="names the output file BENCH_<label>.json")
    label = ap.parse_args().label

    stdouts = {}
    for key, command in PERFBENCH.items():
        argv = [sys.executable, *command.split()[1:]]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"{command} exited {proc.returncode}")
        stdouts[key] = proc.stdout
    protocol_wall, protocol_stdout = run_protocol()
    record = assemble(label, revisions(), stdouts["end_to_end"],
                      stdouts["counters"], stdouts["gradcheck_counters"],
                      protocol_stdout, protocol_wall)
    path = f"BENCH_{label}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
