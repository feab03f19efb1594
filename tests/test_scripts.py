"""scripts/run_ring8.py runs the protocol the acceptance tests judge."""
import importlib.util
from pathlib import Path

import test_acceptance

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_ring8.py"


def test_run_ring8_arms_match_acceptance_protocol():
    spec = importlib.util.spec_from_file_location("run_ring8", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.ARMS == test_acceptance.ARMS
