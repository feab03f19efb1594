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
from mmgan.neural import ACTIVATIONS

__all__ = ["RunConfig", "DATASETS", "KERNEL_CHOICES", "OUT_ENV",
           "parse_config_text", "manifest_text", "resolve_out_dir"]

DATASETS = ("ring8", "grid25", "rings2", "idx")
KERNEL_CHOICES = ("none", *KERNEL_KINDS)
OUT_ENV = "MMGAN_OUT"
_ARTIFACT_PREFIX = "# artifact:"


@dataclass
class RunConfig:
    """Everything one run needs besides the dataset itself, flattened to
    scalars so it can live in a key=value file: each field is a manifest
    key, parsed and formatted by its type annotation. Construction rejects
    values outside each field's range."""

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
        if self.dataset not in DATASETS:
            raise ValueError(f"unknown dataset {self.dataset!r}; "
                             f"choose from {DATASETS}")
        if self.kernel not in KERNEL_CHOICES:
            raise ValueError(f"unknown kernel {self.kernel!r}; "
                             f"choose from {KERNEL_CHOICES}")
        if self.dataset == "idx" and not self.idx_images:
            raise ValueError("dataset idx needs idx_images")
        # r_g compares rows, so a batch and an evaluation need two of them
        for key, least in (("steps", 1), ("batch", 2), ("seed", 0),
                           ("latent_dim", 1), ("d_steps_per_g", 1),
                           ("eval_interval", 1), ("eval_samples", 2)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be >= {least}, "
                                 f"got {getattr(self, key)}")
        for key in ("lr_g", "lr_d"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be positive, "
                                 f"got {getattr(self, key)}")
        for key in ("delta", "momentum_g", "momentum_d"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ValueError(f"{key} must be in [0, 1), "
                                 f"got {getattr(self, key)}")
        if self.g_out_activation not in ACTIVATIONS:
            raise ValueError(f"unknown g_out_activation "
                             f"{self.g_out_activation!r}; "
                             f"choose from {ACTIVATIONS}")
        if any(width < 1 for width in (*self.g_hidden, *self.d_hidden)):
            raise ValueError("hidden layer widths must be >= 1")
        # D's last hidden layer holds the representations r_g correlates
        if not self.d_hidden or self.d_hidden[-1] < 2:
            raise ValueError("d_hidden must end in a feature width >= 2, "
                             f"got {self.d_hidden}")
        self.loss_config()

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


def _parse_value(key: str, raw: str):
    kind = _FIELDS[key]
    if kind.endswith(_OPTIONAL):
        if raw == "none":
            return None
        kind = kind.removesuffix(_OPTIONAL)
    if kind == "bool":
        if raw not in ("true", "false"):
            raise ValueError(f"{key} must be true or false, got {raw!r}")
        return raw == "true"
    if kind == "tuple":
        return tuple(int(part) for part in raw.split(",") if part.strip())
    return {"int": int, "float": float, "str": str}[kind](raw)


def _format_value(key: str, value) -> str:
    kind = _FIELDS[key].removesuffix(_OPTIONAL)
    if value is None:
        return "none"
    if kind == "bool":
        return "true" if value else "false"
    if kind == "tuple":
        return ",".join(str(v) for v in value)
    if kind == "float":
        return repr(float(value))
    return str(value)


def parse_config_text(text: str, overrides: dict | None = None) -> RunConfig:
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
