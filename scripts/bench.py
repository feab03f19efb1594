#!/usr/bin/env python3
"""Record one point of the perf trajectory as BENCH_<label>.json.

    python3 scripts/bench.py LABEL

Run from the repository root. Runs the benchmark twice, at seed 1 and 30
seconds per workload as every BENCH file has: every workload untraced,
for the end-to-end metrics, then ring8_matcher traced, for its
deterministic work counters and its median ms per call of each phase.
The file records the machine, the end-to-end result and the ring8
counters and phases, with the commands that produced them and the commit
they were measured on (`commit` is null, and `parent` names HEAD, when
the working tree has uncommitted changes).
"""
import argparse
import json
import subprocess
import sys

COMMANDS = {
    "end_to_end": "python3 perfbench/run.py --workload all --seed 1 "
                  "--seconds 30 --trace 0",
    "counters": "python3 perfbench/run.py --workload ring8_matcher --seed 1 "
                "--seconds 30 --trace 1",
}
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
# the traced ring8 run's time per phase of a step, and of evaluation with
# its artifacts
PHASES = (
    "trainer.d_step.ms",
    "trainer.update_trackers.ms",
    "trainer.g_step.ms",
    "trainer.eval_callback.ms",
)


def parse_run(stdout: str) -> tuple:
    """(machine record, result) of one perfbench run: the first
    `machine:` line (prefixed by the workload under --workload all) and
    the JSON object on the last line."""
    lines = stdout.strip().splitlines()
    machine = next(json.loads(line.split("machine: ", 1)[1])
                   for line in lines if "machine: " in line)
    return machine, json.loads(lines[-1])


def assemble(label: str, revisions: dict, end_to_end_stdout: str,
             counters_stdout: str) -> dict:
    """The BENCH record from the stdout of the two COMMANDS. revisions
    holds the `commit` and `parent` entries."""
    machine, end_to_end = parse_run(end_to_end_stdout)
    _, traced = parse_run(counters_stdout)
    return {
        "label": label,
        **revisions,
        "commands": COMMANDS,
        "machine": machine,
        "end_to_end": end_to_end,
        "ring8_matcher_counters": {k: traced["metrics"][k] for k in COUNTERS},
        "ring8_matcher_phases": {k: traced["metrics"][k] for k in PHASES},
    }


def _git(*args) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def revisions() -> dict:
    head = _git("rev-parse", "--short", "HEAD")
    if _git("status", "--porcelain", "--untracked-files=no"):
        return {"commit": None, "parent": head}
    return {"commit": head, "parent": _git("rev-parse", "--short", "HEAD~1")}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("label", help="names the output file BENCH_<label>.json")
    label = ap.parse_args().label

    stdouts = {}
    for key, command in COMMANDS.items():
        argv = [sys.executable, *command.split()[1:]]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"{command} exited {proc.returncode}")
        stdouts[key] = proc.stdout
    record = assemble(label, revisions(), stdouts["end_to_end"],
                      stdouts["counters"])
    path = f"BENCH_{label}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
