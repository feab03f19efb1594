"""Spans around the calls into each mmgan module, recorded from outside.

The program is not edited. Each wrap point is a module (or class)
attribute that mmgan code looks up at call time, so replacing the
attribute for the length of one invocation records every call made through
it. A wrap point that no longer exists raises `WrapPointMissing`, and a
layer that a workload must exercise but never called raises in `check_called`:
both stop the traced run instead of reporting zeros.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager

# (layer metric prefix, module, attribute). Several rows may share a prefix
# when mmgan modules import the same function under their own names.
WRAP_POINTS = (
    ("neural.forward", "mmgan.neural", "Network.forward"),
    ("neural.forward_values", "mmgan.neural", "Network.forward_values"),
    ("neural.gradients", "mmgan.trainer", "gradients"),
    ("neural.gradients", "mmgan.gradcheck", "gradients"),
    ("neural.backward", "mmgan.neural", "backward"),
    ("neural.topo_order", "mmgan.neural", "topo_order"),
    ("neural.sgd_step", "mmgan.neural", "SGD.step"),
    ("trainer.d_step", "mmgan.trainer", "d_step"),
    ("trainer.update_trackers", "mmgan.trainer", "update_trackers"),
    ("trainer.g_step", "mmgan.trainer", "g_step"),
    ("kernel.kernel_radius", "mmgan.loss", "kernel_radius"),
    ("kernel.feature_sq_dist", "mmgan.loss", "feature_sq_dist"),
    ("loss.l_d_final", "mmgan.trainer", "l_d_final"),
    ("loss.generator_terms", "mmgan.trainer", "generator_terms"),
    ("loss.generator_terms", "mmgan.loss", "generator_terms"),
    ("loss.generator_terms", "mmgan.gradcheck", "generator_terms"),
    ("manifold.tracker_update", "mmgan.trainer", "tracker_update"),
    ("regularizer.r_g", "mmgan.trainer", "r_g"),
    ("regularizer.r_g", "mmgan.loss", "r_g"),
    ("data.sample_batch", "mmgan.trainer", "sample_batch"),
    ("data.load_idx", "mmgan.config", "load_idx"),
    ("cli.write_samples", "mmgan.cli", "_write_samples"),
    ("svgplot.scatter_svg", "mmgan.cli", "scatter_svg"),
    # score_samples is defined in trainer.py; its work is the metrics module's
    ("metrics.score_samples", "mmgan.cli", "score_samples"),
    ("persist.save_network", "mmgan.cli", "save_network"),
    ("persist.load_network", "mmgan.cli", "load_network"),
    ("gradcheck.check_variant", "mmgan.gradcheck", "check_variant"),
)

# Spans the benchmark opens itself, around cli.train and its eval callback.
TRAIN_SPAN = "trainer.train"
EVAL_SPAN = "trainer.eval_callback"
# The call that bounds one unit of work: a training step or one
# finite-difference loss evaluation (counted, not spanned).
LOSS_EVAL_POINT = ("mmgan.gradcheck", "_loss_value")

_STEP_SPANS = (TRAIN_SPAN, "gradcheck.check_variant")
SPAN_NAMES = tuple(dict.fromkeys(
    [p for p, _, _ in WRAP_POINTS] + [TRAIN_SPAN, EVAL_SPAN]))


class WrapPointMissing(LookupError):
    """An attribute the trace wraps is gone from the program."""


def _resolve(module: str, attr: str) -> tuple:
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise WrapPointMissing(f"{module}.{attr}: {part} does not exist")
    # vars() so a class attribute comes back as the plain function
    if name not in vars(owner):
        raise WrapPointMissing(f"{module}.{attr} does not exist")
    return owner, name


@contextmanager
def patched(replacements):
    """Swap in wrappers for the length of the block.

    replacements: iterable of (module, attr, make) where make(original)
    returns the wrapper. Every original is restored on exit.
    """
    saved = []
    try:
        for module, attr, make in replacements:
            owner, name = _resolve(module, attr)
            original = vars(owner)[name]
            saved.append((owner, name, original))
            setattr(owner, name, make(original))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


class Tracer:
    """In-memory span store, one list per field so that recording a span
    allocates no container the garbage collector has to walk.

    Span i has name[i], start[i], end[i] (perf_counter seconds), parent[i]
    (index, -1 at the top), child[i] (seconds covered by its child spans)
    and ctx[i]: "step" inside a training step or gradcheck variant, "eval"
    inside the eval callback, "" elsewhere.
    """

    def __init__(self):
        self.name: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.child: list = []
        self.ctx: list = []
        self.topo_sizes: list = []  # (ctx, node count) per topo_order call
        self._stack: list = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if name == EVAL_SPAN:
            ctx = "eval"
        elif name in _STEP_SPANS:
            ctx = "step"
        else:
            ctx = self.ctx[parent] if parent >= 0 else ""
        index = len(self.name)
        self.name.append(name)
        self.parent.append(parent)
        self.child.append(0.0)
        self.ctx.append(ctx)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter()
        self.end[index] = end
        self._stack.pop()
        parent = self.parent[index]
        if parent >= 0:
            self.child[parent] += end - self.start[index]

    def context(self) -> str:
        return self.ctx[self._stack[-1]] if self._stack else ""

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return wrapper

    def wrap_topo_order(self, fn):
        """topo_order's result length is the node count of one backward."""
        spanned = self.wrap("neural.topo_order", fn)

        @functools.wraps(fn)
        def wrapper(root):
            order = spanned(root)
            self.topo_sizes.append((self.context(), len(order)))
            return order
        return wrapper

    def replacements(self):
        for prefix, module, attr in WRAP_POINTS:
            if prefix == "neural.topo_order":
                yield module, attr, self.wrap_topo_order
            else:
                yield module, attr, functools.partial(self.wrap, prefix)

    def write(self, path: str) -> None:
        """One JSON array per line: name, start s, end s, parent index."""
        with open(path, "w", encoding="utf-8") as f:
            for row in zip(self.name, self.start, self.end, self.parent):
                f.write('["%s",%.7f,%.7f,%d]\n' % row)


def _p99(values: list) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def layer_metrics(tracer: Tracer, invocations: int, steps: int) -> dict:
    """Per-layer figures from the spans of `invocations` traced calls that
    ran `steps` units of work (training steps or loss evaluations) in all."""
    durations = {name: [] for name in SPAN_NAMES}
    selfs = {name: [] for name in SPAN_NAMES}
    in_step = dict.fromkeys(SPAN_NAMES, 0)
    step_time = covered = 0.0
    for name, start, end, child, ctx in zip(tracer.name, tracer.start, tracer.end,
                                            tracer.child, tracer.ctx):
        durations[name].append(end - start)
        selfs[name].append(end - start - child)
        if name in _STEP_SPANS:
            step_time += end - start
            covered += child
        elif name == EVAL_SPAN:
            step_time -= end - start
            covered -= end - start
        elif ctx == "step":
            in_step[name] += 1

    out = {}
    for name in SPAN_NAMES:
        d = durations[name]
        out[f"{name}.ms"] = (statistics.median(d) * 1e3 if d else 0.0, "ms")
        out[f"{name}.p99_ms"] = (_p99(d) * 1e3 if d else 0.0, "ms")
        out[f"{name}.calls"] = (len(d) / invocations, "count")
    for name in ("trainer.d_step", "trainer.update_trackers", "trainer.g_step"):
        s = selfs[name]
        out[f"{name}.self_ms"] = (statistics.median(s) * 1e3 if s else 0.0, "ms")
    for name in ("neural.forward", "neural.forward_values",
                 "kernel.kernel_radius", "regularizer.r_g"):
        out[f"{name}.calls_per_step"] = (in_step[name] / steps, "calls/step")
    sizes = [n for ctx, n in tracer.topo_sizes if ctx == "step"]
    out["neural.nodes_per_backward"] = (
        sum(sizes) / len(sizes) if sizes else 0.0, "count")
    out["trace.uncovered_frac"] = (
        (step_time - covered) / step_time if step_time > 0 else 0.0, "ratio")
    return out


def check_called(tracer: Tracer, expected) -> None:
    """Raise if a layer the workload must exercise recorded no span."""
    seen = set(tracer.name)
    missing = [name for name in expected if name not in seen]
    if missing:
        raise RuntimeError(
            "traced layers never called on this workload: " + ", ".join(missing))
