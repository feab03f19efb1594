#!/usr/bin/env python3
"""The ring8 coverage protocol of the acceptance tests, from the command line.

Trains the three arms that criteria 6 and 7 compare (rbf kernel matcher,
plain adversarial baseline, matcher without the correlation penalty) on
each seed at batch 64, prints every run's modes covered and high-quality
fraction at the final step, then the per-arm medians, which are the
README's coverage table. Run directories land under --out (default:
ring8-runs).
"""
import argparse
import csv
import statistics
import sys
from pathlib import Path

from mmgan.cli import main as mmgan

# the arms of tests/test_acceptance.py; tests/test_scripts.py keeps them equal
ARMS = {
    "matcher": ["--kernel", "rbf", "--alpha", "1", "--beta", "1",
                "--delta", "0.9"],
    "baseline": ["--baseline"],
    "nopenalty": ["--kernel", "rbf", "--alpha", "1", "--beta", "0",
                  "--delta", "0.9"],
}


def final_row(run_dir: Path) -> dict:
    with open(run_dir / "metrics.csv", newline="") as f:
        return list(csv.DictReader(f))[-1]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(5)))
    ap.add_argument("--steps", type=int, default=20000)
    ap.add_argument("--out", default="ring8-runs")
    args = ap.parse_args()

    out_root = Path(args.out)
    print("arm        seed  modes  hq_fraction")
    results = {}
    for arm, flags in ARMS.items():
        rows = results[arm] = []
        for seed in args.seeds:
            out = out_root / f"{arm}-s{seed}"
            code = mmgan(["train", "--dataset", "ring8", "--steps",
                          str(args.steps), "--batch", "64", "--seed",
                          str(seed), "--out", str(out), *flags])
            if code != 0:
                sys.exit(f"{arm} seed {seed} exited {code}")
            row = final_row(out)
            rows.append((int(row["modes_covered"]), float(row["hq_fraction"])))
            print(f"{arm:<10} {seed:>4}  {rows[-1][0]:>5}  {rows[-1][1]:.3f}")

    print()
    for arm, rows in results.items():
        modes = statistics.median(m for m, _ in rows)
        hq = statistics.median(h for _, h in rows)
        print(f"{arm:<10} median modes {modes:g}  median hq {hq:.3f}")


if __name__ == "__main__":
    main()
