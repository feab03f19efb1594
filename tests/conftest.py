"""Suite-wide collection hooks.

Tests that use the ``ring8_runs`` fixture train the full ring8 protocol,
which takes most of the suite's wall time. They are marked ``slow`` so
that ``pytest -m "not slow"`` gives a fast local loop.
"""
import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        if "ring8_runs" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)
