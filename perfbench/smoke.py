"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Run from the repository root. Runs every workload of BENCHMARK.json at a
tiny length with and without tracing and checks the printed result against
the schema: exactly the keys correct/attempted/failed/metrics, every
declared metric present with its declared unit, names matching
[A-Za-z0-9_.-]+. Then checks that a directory holding only BENCHMARK.json
and the benchmark fails without printing a result. Exits non-zero on the
first problem.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BARE_DIR = os.path.join(".perfbench_work", "bare")


def fail(message: str) -> None:
    print(f"smoke: {message}", file=sys.stderr)
    raise SystemExit(1)


def check_spec(spec: dict) -> None:
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            names.append(m["name"])
            if not UNIT.fullmatch(m["unit"]):
                fail(f"bad unit {m['unit']!r} for {m['name']}")
            if m["better"] not in ("lower", "higher"):
                fail(f"bad direction for {m['name']}")
    for name in names:
        if not NAME.fullmatch(name):
            fail(f"bad name {name!r}")
    if len(names) != len(set(names)):
        fail("a name is used twice")
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            fail(f"bound of {m['name']} outside (0, 0.25]")


def run_bench(command: list, workload: str, trace: int, cwd: str = ".") -> tuple:
    args = [*command, "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--tiny"]
    proc = subprocess.run(args, cwd=cwd, capture_output=True, text=True,
                          timeout=600, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def check_result(line: str, declared: list, label: str) -> None:
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail(f"{label}: last line is not JSON: {line[:200]!r}")
    if set(result) != RESULT_KEYS:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{label}: outputs failed their checks: {line[:300]}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        fail(f"{label}: attempted {result['attempted']!r}")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        fail(f"{label}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(metrics))}, "
             f"extra {sorted(set(metrics) - set(want))}")
    for name, m in metrics.items():
        if not NAME.fullmatch(name):
            fail(f"{label}: bad metric name {name!r}")
        if set(m) != {"value", "unit"} or m["unit"] != want[name]:
            fail(f"{label}: {name} carries {m}, unit should be {want[name]!r}")
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            fail(f"{label}: {name} value {m['value']!r}")


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    check_spec(spec)
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{w['name']} trace {trace}"
            code, out, err = run_bench(spec["command"], w["name"], trace)
            if code != 0:
                fail(f"{label}: exit {code}\n{err[-2000:]}")
            check_result(out.strip().splitlines()[-1], spec[group], label)
            print(f"ok  {label}")

    shutil.rmtree(BARE_DIR, ignore_errors=True)
    os.makedirs(BARE_DIR)
    shutil.copy("BENCHMARK.json", BARE_DIR)
    for path in spec["paths"]:
        shutil.copytree(path, os.path.join(BARE_DIR, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    name = spec["workloads"][0]["name"]
    code, out, _ = run_bench(spec["command"], name, 0, cwd=BARE_DIR)
    shutil.rmtree(BARE_DIR, ignore_errors=True)
    if code == 0 or '"correct"' in out:
        fail("a directory without the program still printed a result")
    print("ok  fails without the program")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
