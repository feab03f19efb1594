"""The benchmark's trace hooks still find every attribute they wrap.

perfbench/tracer.py wraps module attributes by name from outside the
program; a rename or deletion of one of them breaks only the traced
benchmark run, so it is checked here with pass-through wrappers.
"""
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_exists():
    tracer = load_tracer()
    points = [(module, attr) for _, module, attr in tracer.WRAP_POINTS]
    points.append(tracer.LOSS_EVAL_POINT)
    # raises WrapPointMissing for an attribute that is gone
    with tracer.patched((module, attr, lambda original: original)
                        for module, attr in points):
        pass
