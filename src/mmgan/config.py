"""Run configuration: flat key=value files, overrides, manifests.

The one config surface behind the command line. A file holds lines of
``key = value`` with ``#`` comments; unknown keys are errors so typos never
pass silently. The manifest a run writes is itself a valid config file,
so any run can be repeated with ``--config <run>/manifest.txt``. Artifact
names ride along as ``# artifact:`` comment lines, which keeps the
manifest loadable while still closing over the output directory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from mmgan.data import DatasetHandle, load_idx, make_dataset
from mmgan.kernel import KERNEL_KINDS, KernelSpec
from mmgan.loss import LossConfig
from mmgan.trainer import TrainConfig

__all__ = ["RunConfig", "DATASETS", "KERNEL_CHOICES", "OUT_ENV",
           "parse_config_text", "manifest_text", "resolve_out_dir"]

DATASETS = ("ring8", "grid25", "rings2", "idx")
KERNEL_CHOICES = ("none",) + tuple(k if k != "polynomial" else "poly"
                                   for k in KERNEL_KINDS)
OUT_ENV = "MMGAN_OUT"
_ARTIFACT_PREFIX = "# artifact:"


@dataclass
class RunConfig:
    """Everything a run needs, flattened to scalars so it can live in a
    key=value file. Mirrors TrainConfig/LossConfig defaults."""

    dataset: str = "ring8"
    idx_images: str | None = None
    idx_labels: str | None = None
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
    lr_g: float = 0.05
    lr_d: float = 0.02
    momentum_g: float = 0.9
    momentum_d: float = 0.0
    d_steps_per_g: int = 1
    eval_interval: int = 500
    eval_samples: int = 800

    def __post_init__(self):
        if self.dataset not in DATASETS:
            raise ValueError(f"unknown dataset {self.dataset!r}; "
                             f"choose from {DATASETS}")
        if self.kernel not in KERNEL_CHOICES:
            raise ValueError(f"unknown kernel {self.kernel!r}; "
                             f"choose from {KERNEL_CHOICES}")
        if self.dataset == "idx" and not self.idx_images:
            raise ValueError("dataset idx needs idx_images")

    def loss_config(self) -> LossConfig:
        kernel = (None if self.kernel == "none"
                  else KernelSpec(self.kernel, gamma=self.gamma))
        return LossConfig(alpha=self.alpha, beta=self.beta, delta=self.delta,
                          kernel=kernel)

    def train_config(self) -> TrainConfig:
        return TrainConfig(steps=self.steps, batch_size=self.batch,
                           latent_dim=self.latent_dim,
                           g_hidden=self.g_hidden, d_hidden=self.d_hidden,
                           g_out_activation=self.g_out_activation,
                           lr_g=self.lr_g, lr_d=self.lr_d,
                           momentum_g=self.momentum_g,
                           momentum_d=self.momentum_d,
                           d_steps_per_g=self.d_steps_per_g, seed=self.seed,
                           loss=self.loss_config(),
                           baseline_mode=self.baseline,
                           eval_interval=self.eval_interval,
                           eval_samples=self.eval_samples)

    def load_dataset(self) -> DatasetHandle:
        if self.dataset == "idx":
            return load_idx(self.idx_images, self.idx_labels)
        return make_dataset(self.dataset)


_FIELDS = {f.name: f.type for f in fields(RunConfig)}
_INTS = {"steps", "batch", "seed", "latent_dim", "d_steps_per_g",
         "eval_interval", "eval_samples"}
_FLOATS = {"alpha", "beta", "delta", "lr_g", "lr_d",
           "momentum_g", "momentum_d"}
_BOOLS = {"baseline"}
_OPT_FLOATS = {"gamma"}
_OPT_STRS = {"idx_images", "idx_labels", "out"}
_TUPLES = {"g_hidden", "d_hidden"}


def _parse_value(key: str, raw: str):
    if key in _BOOLS:
        if raw not in ("true", "false"):
            raise ValueError(f"{key} must be true or false, got {raw!r}")
        return raw == "true"
    if key in _INTS:
        return int(raw)
    if key in _FLOATS:
        return float(raw)
    if key in _OPT_FLOATS:
        return None if raw == "none" else float(raw)
    if key in _OPT_STRS:
        return None if raw == "none" else raw
    if key in _TUPLES:
        return tuple(int(part) for part in raw.split(",") if part.strip())
    return raw


def _format_value(key: str, value) -> str:
    if key in _BOOLS:
        return "true" if value else "false"
    if value is None:
        return "none"
    if key in _TUPLES:
        return ",".join(str(v) for v in value)
    if key in _FLOATS or key in _OPT_FLOATS:
        return repr(float(value))
    return str(value)


def parse_config_text(text: str, base: RunConfig | None = None,
                      overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from file text, then apply overrides on top.
    Unknown keys and malformed lines raise ValueError."""
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
    if base is not None:
        merged = {f.name: getattr(base, f.name) for f in fields(RunConfig)}
        merged.update(values)
        values = merged
    if overrides:
        for key, value in overrides.items():
            if key not in _FIELDS:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = value
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
