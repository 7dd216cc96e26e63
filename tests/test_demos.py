"""Smoke test: the quick demos run to completion as scripts.

03 and 04 are left out: they repeat the criterion runs of
tests/test_acceptance.py and take several seconds each.  The CI workflow
runs them as a step of their own.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", [
    "01_minimum_time.py",
    "02_gradient_check.py",
    "05_measurement_budget.py",
    "06_cli_walkthrough.py",
])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
