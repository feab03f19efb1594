"""Time one mmgan invocation from a cold process to its first unit of work.

    python3 perfbench/setup_probe.py MODULE ATTR -- MMGAN_ARGS...

The clock starts before numpy or mmgan is imported. MODULE.ATTR is the
first call of the work proper (trainer.d_step for training, gradcheck's
check_variant for the gradient check). The probe stops the invocation
there and prints the elapsed seconds. Run from the repository root.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402


class _Reached(Exception):
    pass


def main(argv: list) -> int:
    module_name, attr, sep, *mmgan_args = argv
    if sep != "--":
        print("usage: setup_probe.py MODULE ATTR -- MMGAN_ARGS...", file=sys.stderr)
        return 1
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import importlib
    from mmgan import cli

    module = importlib.import_module(module_name)
    if not callable(getattr(module, attr, None)):
        print(f"setup probe: {module_name}.{attr} does not exist", file=sys.stderr)
        return 1

    def stop(*args, **kwargs):
        raise _Reached(time.perf_counter() - _T0)

    setattr(module, attr, stop)
    try:
        code = cli.main(mmgan_args)
    except _Reached as reached:
        print(repr(reached.args[0]))
        return 0
    print(f"setup probe: mmgan exited {code} before {attr}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
