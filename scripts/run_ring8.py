#!/usr/bin/env python3
"""The ring8 coverage protocol: the code acceptance criteria 6 and 7 run.

Trains three arms (rbf kernel matcher, plain adversarial baseline, matcher
without the correlation penalty) on each seed at batch 64, prints each
run's final modes covered, high-quality fraction and wall seconds as it
finishes, then the per-arm medians, which are the README's coverage table.
Run directories land under --out (default: ring8-runs).
"""
import argparse
import csv
import statistics
import time
from pathlib import Path

from mmgan.cli import main as mmgan

ARMS = {
    "matcher": ["--kernel", "rbf", "--alpha", "1", "--beta", "1",
                "--delta", "0.9"],
    "baseline": ["--baseline"],
    "nopenalty": ["--kernel", "rbf", "--alpha", "1", "--beta", "0",
                  "--delta", "0.9"],
}


def runs(seeds, steps, out_root):
    """Train each arm on each seed into <out_root>/<arm>-s<seed>; yield
    (arm, seed, modes, hq, wall_s) per run: its final metrics.csv row and
    the wall seconds of its `mmgan train` call. A non-zero exit raises."""
    for arm, flags in ARMS.items():
        for seed in seeds:
            out = Path(out_root) / f"{arm}-s{seed}"
            start = time.monotonic()
            code = mmgan(["train", "--dataset", "ring8", "--steps", str(steps),
                          "--batch", "64", "--seed", str(seed),
                          "--out", str(out), *flags])
            wall = time.monotonic() - start
            if code != 0:
                raise RuntimeError(f"{arm} seed {seed} exited {code}")
            with open(out / "metrics.csv", newline="") as f:
                row = list(csv.DictReader(f))[-1]
            yield (arm, seed, int(row["modes_covered"]),
                   float(row["hq_fraction"]), wall)


def medians(table) -> list:
    """One line per arm of {arm: [(modes, hq, ...), ...]}: the medians of
    its runs' modes and hq."""
    return [f"{arm:<10} median modes {statistics.median(r[0] for r in rows):g}"
            f"  median hq {statistics.median(r[1] for r in rows):.3f}"
            for arm, rows in table.items()]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(5)))
    ap.add_argument("--steps", type=int, default=20000)
    ap.add_argument("--out", default="ring8-runs")
    args = ap.parse_args()

    print("arm        seed  modes  hq_fraction  wall_s", flush=True)
    table = {}
    for arm, seed, modes, hq, wall in runs(args.seeds, args.steps, args.out):
        table.setdefault(arm, []).append((modes, hq))
        print(f"{arm:<10} {seed:>4}  {modes:>5}  {hq:<11.3f}  {wall:.3f}",
              flush=True)
    print()
    print("\n".join(medians(table)))


if __name__ == "__main__":
    main()
