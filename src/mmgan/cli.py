"""Command line entry points: train, eval, gradcheck.

Exit codes: 0 success, 1 invalid config or usage, 2 unwritable output
directory or missing/corrupt saved parameters, 3 numerical abort during
training, 4 gradient check failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import re
import sys

import numpy as np

from mmgan.config import (
    DATASETS,
    KERNEL_CHOICES,
    TRAIN_KERNELS,
    RunConfig,
    manifest_text,
    parse_config_text,
    resolve_out_dir,
)
from mmgan.gradcheck import run_suite, variant_names
from mmgan.loss import LossReport
from mmgan.metrics import MetricsRow
from mmgan.neural import NumericalError
from mmgan.persist import load_network, save_network
from mmgan.svgplot import scatter_svg
from mmgan.trainer import draw_eval_batch, score_samples, train

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERIC = 3
EXIT_GRADCHECK = 4

METRICS_FILE = "metrics.csv"
MANIFEST_FILE = "manifest.txt"
PARAMS_FILE = "generator.bin"
# what _write_samples and _write_scatter name
_EVAL_ARTIFACT = re.compile(r"samples_\d+\.csv|scatter_\d+\.svg")


class _CliError(Exception):
    """Bad invocation; reported on stderr and mapped to exit 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which collides with the
    # exit code reserved for I/O failures; raise and map to 1 instead.
    def error(self, message):
        raise _CliError(message)


def _fmt(value) -> str:
    """Floats go through repr for exact round-trip and stable reruns."""
    return repr(float(value))


def _fields(record, skip=()) -> list:
    return [f for f in dataclasses.fields(record) if f.name not in skip]


# A metrics.csv row is the step's LossReport followed by its evaluation's
# MetricsRow less these fields, which only `mmgan eval` prints.
_EVAL_ONLY = ("step", "coverage_fraction", "r_g_value")
METRICS_COLUMNS = tuple(f.name for f in _fields(LossReport)
                        + _fields(MetricsRow, skip=_EVAL_ONLY))
EVAL_COLUMNS = tuple(f.name for f in _fields(MetricsRow))


def _cells(record, skip=()) -> list:
    """CSV cells of a record's fields: ints as written, floats by _fmt."""
    return [str(getattr(record, f.name)) if f.type == "int"
            else _fmt(getattr(record, f.name)) for f in _fields(record, skip)]


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file; flags override")
    p.add_argument("--dataset", choices=DATASETS)
    p.add_argument("--idx-images", dest="idx_images",
                   help="idx image file (idx dataset only; .gz accepted)")
    p.add_argument("--kernel", choices=TRAIN_KERNELS)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory (default under $MMGAN_OUT)")
    p.add_argument("--baseline", action="store_const", const=True,
                   default=None, help="train the GAN objective alone")
    p.add_argument("--d-steps-per-g", dest="d_steps_per_g", type=int)
    p.add_argument("--eval-interval", dest="eval_interval", type=int)
    p.add_argument("--eval-samples", dest="eval_samples", type=int)


def _overrides(args: argparse.Namespace) -> dict:
    """Flags the user actually passed that name RunConfig fields."""
    keys = {f.name for f in dataclasses.fields(RunConfig)}
    return {key: value for key, value in vars(args).items()
            if key in keys and value is not None}


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    text = ""
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            raise _CliError(f"cannot read config {args.config}: {e}") from e
    return parse_config_text(text, overrides=_overrides(args))


def _write_samples(out_dir: str, step: int, fake, artifacts: list) -> None:
    name = f"samples_{step}.csv"
    with open(os.path.join(out_dir, name), "w", newline="",
              encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow([f"x{i}" for i in range(fake.shape[1])])
        for row in fake:
            w.writerow([_fmt(v) for v in row])
    artifacts.append(name)


def _write_scatter(out_dir: str, step: int, real, fake,
                   artifacts: list) -> None:
    name = f"scatter_{step}.svg"
    with open(os.path.join(out_dir, name), "w", newline="\n",
              encoding="utf-8") as f:
        f.write(scatter_svg(real, fake))
    artifacts.append(name)


def _write_manifest(out_dir: str, cfg: RunConfig, artifacts: list) -> None:
    # The manifest lists itself so the artifact record is closed over the
    # directory contents.
    names = list(artifacts) + [MANIFEST_FILE]
    path = os.path.join(out_dir, MANIFEST_FILE)
    with open(path + ".tmp", "w", newline="\n", encoding="utf-8") as f:
        f.write(manifest_text(cfg, artifacts=names))
    os.replace(path + ".tmp", path)


def cmd_train(args: argparse.Namespace) -> int:
    try:
        cfg = _load_run_config(args)
        data = cfg.load_dataset()
    except (ValueError, OSError, _CliError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = resolve_out_dir(cfg)
    cfg = dataclasses.replace(cfg, out=out_dir)
    try:
        os.makedirs(out_dir, exist_ok=True)
        # The manifest marks a finished run; until this run writes its own,
        # no earlier run's manifest, parameters or eval artifacts may sit
        # beside its metrics.
        for name in os.listdir(out_dir):
            if (name in (MANIFEST_FILE, PARAMS_FILE)
                    or _EVAL_ARTIFACT.fullmatch(name)):
                os.remove(os.path.join(out_dir, name))
        metrics_f = open(os.path.join(out_dir, METRICS_FILE), "w",
                         newline="", encoding="utf-8")
    except OSError as e:
        print(f"error: cannot write to {out_dir}: {e}", file=sys.stderr)
        return EXIT_IO

    artifacts = [METRICS_FILE]
    writer = csv.writer(metrics_f, lineterminator="\n")
    writer.writerow(METRICS_COLUMNS)

    def on_eval(step, g_net, report):
        fake, real = draw_eval_batch(g_net, data, cfg.eval_samples,
                                     seed=cfg.seed, step=step)
        row = score_samples(fake, real, data, step=step)
        writer.writerow(_cells(report) + _cells(row, skip=_EVAL_ONLY))
        metrics_f.flush()
        _write_samples(out_dir, step, fake, artifacts)
        if data.dim == 2:
            _write_scatter(out_dir, step, real, fake, artifacts)

    try:
        try:
            # Blow-ups surface as a clean NumericalError below; numpy's
            # per-op overflow warnings would only repeat the news.
            with np.errstate(all="ignore"):
                result = train(cfg, data, on_eval=on_eval)
        finally:
            metrics_f.close()
        params = os.path.join(out_dir, PARAMS_FILE)
        save_network(result.generator, params + ".tmp")
        os.replace(params + ".tmp", params)
        artifacts.append(PARAMS_FILE)
        _write_manifest(out_dir, cfg, artifacts)
    except (NumericalError, ValueError) as e:
        # a ValueError mid-run is numerical too, e.g. the kernel trick's
        # PSD guard; config errors were all caught before the run began
        print(f"numerical abort: {e}", file=sys.stderr)
        try:
            _write_manifest(out_dir, cfg, artifacts)
        except OSError:
            pass
        return EXIT_NUMERIC
    except OSError as e:
        print(f"error: cannot write to {out_dir}: {e}", file=sys.stderr)
        return EXIT_IO
    print(f"run written to {out_dir}", file=sys.stderr)
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    if not args.out:
        print("error: eval needs --out <run dir>", file=sys.stderr)
        return EXIT_CONFIG

    try:
        with open(os.path.join(args.out, MANIFEST_FILE), encoding="utf-8") as f:
            cfg = parse_config_text(f.read())
        data = cfg.load_dataset()
    except OSError as e:
        print(f"error: missing run manifest: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        net = load_network(os.path.join(args.out, PARAMS_FILE))
    except (OSError, ValueError) as e:
        print(f"error: cannot load parameters: {e}", file=sys.stderr)
        return EXIT_IO

    n = cfg.eval_samples if args.samples is None else args.samples
    seed = cfg.seed if args.seed is None else args.seed
    step = cfg.steps if args.step is None else args.step
    try:
        fake, real = draw_eval_batch(net, data, n, seed=seed, step=step)
        row = score_samples(fake, real, data, step=step)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(EVAL_COLUMNS)
    w.writerow(_cells(row))
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace) -> int:
    try:
        names = variant_names(kernel=args.kernel, beta=args.beta)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    # only the flags given: check_variant owns the defaults
    given = {key: getattr(args, key)
             for key in ("alpha", "beta", "gamma", "seed")
             if getattr(args, key) is not None}
    rows = run_suite(names, inject_fault=args.inject_fault, **given)
    width = max(len(name) for name, _, _ in rows)
    for name, err, ok in rows:
        print(f"{name:<{width}}  {err:.3e}  {'ok' if ok else 'FAIL'}")
    failed = [name for name, _, ok in rows if not ok]
    if failed:
        print(f"gradcheck failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_GRADCHECK
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mmgan",
                     description="manifold-matching GAN trainer")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write a run "
                             "directory (metrics, samples, params, manifest)")
    _add_run_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score a saved generator; prints "
                            "one CSV metrics row")
    p_eval.add_argument("--out", help="run directory containing "
                        f"{MANIFEST_FILE} and {PARAMS_FILE}")
    p_eval.add_argument("--samples", type=int,
                        help="evaluation sample count (default from manifest)")
    p_eval.add_argument("--seed", type=int)
    p_eval.add_argument("--step", type=int,
                        help="evaluation stream index (default: trained steps)")
    p_eval.set_defaults(func=cmd_eval)

    p_gc = sub.add_parser("gradcheck", help="compare analytic gradients "
                          "against central differences")
    p_gc.add_argument("--kernel", choices=KERNEL_CHOICES,
                      help="check one loss family (default: all)")
    p_gc.add_argument("--alpha", type=float)
    p_gc.add_argument("--beta", type=float)
    p_gc.add_argument("--gamma", type=float)
    p_gc.add_argument("--seed", type=int)
    p_gc.add_argument("--inject-fault", dest="inject_fault",
                      action="store_true",
                      help="corrupt one analytic gradient to prove the "
                      "check can fail")
    p_gc.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
