"""Run configuration: flat key=value files, overrides, manifests.

The one config surface behind the command line. A file holds lines of
``key = value`` with ``#`` comments; unknown keys are errors so typos never
pass silently. The manifest a run writes is itself a valid config file,
so any run can be repeated with ``--config <run>/manifest.txt``. Artifact
names ride along as ``# artifact:`` comment lines, which keeps the
manifest loadable while still closing over the output directory.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from mmgan.data import DatasetHandle, load_idx, make_dataset
from mmgan.kernel import KERNEL_KINDS, KernelSpec
from mmgan.loss import LossConfig
from mmgan.neural import ACTIVATIONS

__all__ = ["RunConfig", "CHOICES", "DATASETS", "KERNEL_CHOICES", "OUT_ENV",
           "parse_config_text", "manifest_text", "resolve_out_dir"]

DATASETS = ("ring8", "grid25", "rings2", "idx")
KERNEL_CHOICES = ("none", *KERNEL_KINDS)
CHOICES = {"dataset": DATASETS, "kernel": KERNEL_CHOICES,
           "g_out_activation": ACTIVATIONS}
OUT_ENV = "MMGAN_OUT"
# Peaks below are tracemalloc's. An idx evaluation of n samples peaks at
# about 2 * n^2 * 8 bytes for r_g's n x n matrices plus 27 kB a sample for
# the n x 784 float64 batches (222 MB at n=3000): 1.9 GB at this bound.
# The dataset itself is 1 byte a pixel, uint8, scaled a batch at a time.
MAX_EVAL_SAMPLES = 10_000
# A training step peaks at about 8 * n^2 * 8 bytes at batch n under rbf
# (the kernel's Grams, r_g's matrices and their gradients; 75 MB at
# n=1024, 285 MB at n=2048): 1.1 GB at this bound.
MAX_BATCH = 4096
# A layer w wide on both sides holds about four w x w float64 arrays (the
# weights, their gradient, SGD's velocity and, in G, the average): 128 MB
# at this width, and a net at most 1 GB at this depth. latent_dim is G's
# first width.
MAX_WIDTH = 2048
MAX_HIDDEN_LAYERS = 8
_ARTIFACT_PREFIX = "# artifact:"


@dataclass
class RunConfig:
    """Everything one run needs besides the dataset itself, flattened to
    scalars so it can live in a key=value file: each field is a manifest
    key and a flag, read and written by its type annotation. Construction
    rejects values outside each field's range."""

    dataset: str = "ring8"
    idx_images: str | None = None
    out: str | None = None
    kernel: str = "none"
    alpha: float = 1.0
    beta: float = 1.0
    delta: float = 0.9
    gamma: float | None = None
    baseline: bool = False
    steps: int = 2000
    batch: int = 64
    seed: int = 0
    latent_dim: int = 2
    g_hidden: tuple = (64, 64)
    d_hidden: tuple = (64, 16)
    g_out_activation: str = "identity"
    # G runs hot (momentum): its only signal is the matching objective,
    # whose kernel terms are bounded by 2 and whose radius gap passes
    # gradient through the (1-delta) mini-batch share of the blend alone.
    # D runs plain. On ring8 rbf (20000 steps, seeds 0-4) lr_d 0.01 left
    # two runs at high-quality fractions of 0.30 and 0.44, while a D that
    # outpaces G (lr_d 0.03, or momentum 0.5) made one run lose most of the
    # modes it had found; so did lr_g 0.07.
    lr_g: float = 0.05
    lr_d: float = 0.02
    momentum_g: float = 0.9
    momentum_d: float = 0.0
    d_steps_per_g: int = 1
    eval_interval: int = 500
    eval_samples: int = 800

    def __post_init__(self):
        for key, choices in CHOICES.items():
            if getattr(self, key) not in choices:
                raise ValueError(f"unknown {key} {getattr(self, key)!r}; "
                                 f"choose from {choices}")
        if self.dataset == "idx" and not self.idx_images:
            raise ValueError("dataset idx needs idx_images")
        # r_g compares rows, so a batch and an evaluation need two of them
        for key, least in (("steps", 1), ("batch", 2), ("seed", 0),
                           ("latent_dim", 1), ("d_steps_per_g", 1),
                           ("eval_interval", 1), ("eval_samples", 2)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be >= {least}, "
                                 f"got {getattr(self, key)}")
        for key, most in (("eval_samples", MAX_EVAL_SAMPLES),
                          ("batch", MAX_BATCH), ("latent_dim", MAX_WIDTH)):
            if getattr(self, key) > most:
                raise ValueError(f"{key} must be <= {most}, "
                                 f"got {getattr(self, key)}")
        for key, least, below in (("alpha", 0, math.inf), ("beta", 0, math.inf),
                                  ("delta", 0, 1), ("momentum_g", 0, 1),
                                  ("momentum_d", 0, 1)):
            if not least <= getattr(self, key) < below:
                raise ValueError(f"{key} must be in [{least}, {below}), "
                                 f"got {getattr(self, key)}")
        for key in ("lr_g", "lr_d", "gamma"):  # gamma = none: 1/dim
            if getattr(self, key) is not None and not (
                    0 < getattr(self, key) < math.inf):
                raise ValueError(f"{key} must be positive and finite, "
                                 f"got {getattr(self, key)}")
        if any(not 1 <= width <= MAX_WIDTH
               for width in (*self.g_hidden, *self.d_hidden)):
            raise ValueError(f"hidden layer widths must be in [1, {MAX_WIDTH}]")
        for key in ("g_hidden", "d_hidden"):
            if len(getattr(self, key)) > MAX_HIDDEN_LAYERS:
                raise ValueError(f"{key} must have at most {MAX_HIDDEN_LAYERS} "
                                 f"layers, got {len(getattr(self, key))}")
        # D's last hidden layer holds the representations r_g correlates
        if not self.d_hidden or self.d_hidden[-1] < 2:
            raise ValueError("d_hidden must end in a feature width >= 2, "
                             f"got {self.d_hidden}")

    def loss_config(self) -> LossConfig:
        kernel = (None if self.kernel == "none"
                  else KernelSpec(self.kernel, gamma=self.gamma))
        return LossConfig(alpha=self.alpha, beta=self.beta, kernel=kernel)

    def load_dataset(self) -> DatasetHandle:
        if self.dataset == "idx":
            return load_idx(self.idx_images)
        return make_dataset(self.dataset)


# field name -> annotation, e.g. "int" or "float | None"
_FIELDS = {f.name: f.type for f in fields(RunConfig)}
_OPTIONAL = " | None"
# annotation -> (what a value must be, reader, writer); none is None
_KINDS = {
    "bool": ("true or false", {"true": True, "false": False}.__getitem__,
             lambda v: "true" if v else "false"),
    "tuple": ("comma-separated integers",
              lambda raw: tuple(int(p) for p in raw.split(",") if p.strip()),
              lambda v: ",".join(str(w) for w in v)),
    "int": ("an integer", int, str),
    "float": ("a number", float, lambda v: repr(float(v))),
    "str": ("a string", str, str),
}


def _parse_value(key: str, raw: str):
    """The value of a config line or a flag, read by the key's annotation."""
    kind = _FIELDS[key]
    if kind.endswith(_OPTIONAL):
        if raw == "none":
            return None
        kind = kind.removesuffix(_OPTIONAL)
    expected, read, _ = _KINDS[kind]
    try:
        return read(raw)
    except (KeyError, ValueError):
        raise ValueError(f"{key} must be {expected}, got {raw!r}") from None


def _format_value(key: str, value) -> str:
    if value is None:
        return "none"
    return _KINDS[_FIELDS[key].removesuffix(_OPTIONAL)][2](value)


def parse_config_text(text: str, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from file text, then apply overrides (raw values,
    spelled as in the file) on top. Bad keys, lines or values raise
    ValueError."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, raw = stripped.partition("=")
        if not eq:
            raise ValueError(f"line {lineno}: expected key = value, "
                             f"got {stripped!r}")
        key, raw = key.strip(), raw.strip()
        if key not in _FIELDS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw)
    if overrides:
        for key, value in overrides.items():
            if key not in _FIELDS:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = _parse_value(key, value)
    return RunConfig(**values)


def manifest_text(cfg: RunConfig, artifacts=()) -> str:
    """Render cfg (plus artifact records) as a rerunnable config file."""
    lines = ["# manifold-matching gan run manifest",
             "# rerun with: mmgan train --config <this file>"]
    for f in fields(RunConfig):
        lines.append(f"{f.name} = {_format_value(f.name, getattr(cfg, f.name))}")
    for name in artifacts:
        lines.append(f"{_ARTIFACT_PREFIX} {name}")
    return "\n".join(lines) + "\n"


def resolve_out_dir(cfg: RunConfig, env=os.environ) -> str:
    """--out wins; otherwise a deterministic name under $MMGAN_OUT (or
    ./runs). Deterministic so a rerun lands in the same place."""
    if cfg.out:
        return cfg.out
    root = env.get(OUT_ENV, "runs")
    arm = "baseline" if cfg.baseline else cfg.kernel
    return os.path.join(root, f"{cfg.dataset}-{arm}-s{cfg.seed}")
