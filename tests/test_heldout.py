"""Checks for tools/heldout.py, the held-out seed report; the report itself runs no test."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("heldout", ROOT / "tools" / "heldout.py")
heldout = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(heldout)


@pytest.mark.parametrize("successes, interval", [
    (10, (0.299, 0.701)), (0, (0.0, 0.161)), (20, (0.839, 1.0)), (15, (0.531, 0.888)),
])
def test_wilson_interval_of_twenty_trials(successes, interval):
    low, high = heldout.wilson_interval(successes, 20)
    assert (round(low, 3), round(high, 3)) == interval
    assert 0.0 <= low <= successes / 20 <= high <= 1.0


@pytest.mark.parametrize("trials", range(1, 31))
def test_wilson_interval_stays_within_zero_and_one(trials):
    # at no or all successes an end can round 1 ulp outside, as at 0/2 and 9/9
    assert heldout.wilson_interval(0, trials)[0] >= 0.0
    assert heldout.wilson_interval(trials, trials)[1] <= 1.0
