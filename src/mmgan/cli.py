"""Command line entry points: train, eval, gradcheck.

Exit codes: 0 success, 1 invalid config or usage, 2 unwritable output
directory or missing/corrupt saved parameters, 3 numerical abort during
training or evaluation, 4 gradient check failure.
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
    CHOICES,
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


def _fmt_row(row: np.ndarray) -> str:
    """One CSV line of a float row, each cell as _fmt writes it: `tolist`
    yields Python floats, and their repr is _fmt's text. A repr holds no
    comma, quote or newline, so no cell needs quoting."""
    return ",".join(map(repr, row.tolist())) + "\n"


def _fields(record, skip=()) -> list:
    return [f for f in dataclasses.fields(record) if f.name not in skip]


# A metrics.csv row is the step's LossReport followed by its evaluation's
# MetricsRow less these fields, which only `mmgan eval` prints.
_EVAL_ONLY = ("step", "coverage_fraction")
METRICS_COLUMNS = tuple(f.name for f in _fields(LossReport)
                        + _fields(MetricsRow, skip=_EVAL_ONLY))
EVAL_COLUMNS = tuple(f.name for f in _fields(MetricsRow))


def _cells(record, skip=()) -> list:
    """CSV cells of a record's fields: ints as written, floats by _fmt."""
    return [str(getattr(record, f.name)) if f.type == "int"
            else _fmt(getattr(record, f.name)) for f in _fields(record, skip)]


_HELP = {"idx_images": "idx image file (idx dataset only; .gz accepted)",
         "out": "output directory (default under $MMGAN_OUT)",
         "baseline": "train the GAN objective alone"}


def _add_key_flags(p: argparse.ArgumentParser, keys, helps=_HELP) -> None:
    """One flag per RunConfig key, spelled with dashes. Values stay raw
    strings: parse_config_text reads them and RunConfig checks them."""
    for key in keys:
        # choices list the values in --help; a bare --baseline means true
        bare = {"nargs": "?", "const": "true"} if key == "baseline" else {}
        p.add_argument("--" + key.replace("_", "-"), choices=CHOICES.get(key),
                       help=helps.get(key), **bare)


def _overrides(args: argparse.Namespace) -> dict:
    """Flags the user passed that name RunConfig fields, as raw strings."""
    keys = {f.name for f in dataclasses.fields(RunConfig)}
    return {key: value for key, value in vars(args).items()
            if key in keys and value is not None}


def _write_samples(out_dir: str, step: int, fake, artifacts: list) -> None:
    name = f"samples_{step}.csv"
    with open(os.path.join(out_dir, name), "w", newline="",
              encoding="utf-8") as f:
        f.write(",".join(f"x{i}" for i in range(fake.shape[1])) + "\n")
        # a row at a time: the whole matrix as text would be many MB
        for row in fake:
            f.write(_fmt_row(row))
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
        text = ""
        if args.config:
            with open(args.config, encoding="utf-8") as f:
                text = f.read()
        cfg = parse_config_text(text, _overrides(args))
        data = cfg.load_dataset()
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = resolve_out_dir(cfg)
    # an absolute image path keeps the manifest valid from any directory
    cfg = dataclasses.replace(cfg, out=out_dir, idx_images=(
        cfg.idx_images and os.path.abspath(cfg.idx_images)))
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
        with open(os.path.join(args.out, MANIFEST_FILE), "rb") as f:
            raw = f.read()
    except OSError as e:
        print(f"error: missing run manifest: {e}", file=sys.stderr)
        return EXIT_IO
    # what the manifest names is a config error, as for train --config;
    # the flags override its evaluation settings
    try:
        cfg = parse_config_text(raw.decode("utf-8"), _overrides(args))
        data = cfg.load_dataset()
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        net = load_network(os.path.join(args.out, PARAMS_FILE))
        net.name = "g"  # the file holds the generator alone
    except (OSError, ValueError, NumericalError) as e:  # a non-finite weight
        print(f"error: cannot load parameters: {e}", file=sys.stderr)
        return EXIT_IO

    try:
        with np.errstate(all="ignore"):  # forward reports an overflow
            fake, real = draw_eval_batch(net, data, cfg.eval_samples,
                                         seed=cfg.seed, step=cfg.steps)
            row = score_samples(fake, real, data, step=cfg.steps)
    except NumericalError as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(EVAL_COLUMNS)
    w.writerow(_cells(row))
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace) -> int:
    # only the flags given: check_variant owns the defaults
    given = _overrides(args)
    try:
        cfg = parse_config_text("", given)
        options = {key: getattr(cfg, key) for key in given}
        names = variant_names(kernel=options.pop("kernel", None),
                              beta=options.get("beta"))
        with np.errstate(all="ignore"):  # an overflow fails its row
            rows = run_suite(names, inject_fault=args.inject_fault, **options)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
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
    p_train.add_argument("--config",
                         help="key = value config file; flags override")
    _add_key_flags(p_train, [f.name for f in dataclasses.fields(RunConfig)])
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score a saved generator; prints "
                            "one CSV metrics row")
    p_eval.add_argument("--out", help="run directory containing "
                        f"{MANIFEST_FILE} and {PARAMS_FILE}")
    _add_key_flags(p_eval, ("eval_samples", "seed", "steps"), helps={
        "eval_samples": "evaluation sample count (default from manifest)",
        "steps": "evaluation stream index (default: trained steps)"})
    p_eval.set_defaults(func=cmd_eval)

    p_gc = sub.add_parser("gradcheck", help="compare analytic gradients "
                          "against central differences")
    _add_key_flags(p_gc, ("kernel", "alpha", "beta", "gamma", "seed"), helps={
        "kernel": "check one loss family (default: all)"})
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
