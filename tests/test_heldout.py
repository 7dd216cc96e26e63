"""Checks for tools/heldout.py, the held-out seed report; the report itself runs no test."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from belltime import optimizer

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


def test_the_seed_range_defaults_to_the_held_out_seeds():
    assert heldout.seed_range([]) == range(5, 25)
    assert heldout.seed_range(["25", "74"]) == range(25, 75)
    assert heldout.seed_range(["3", "3"]) == range(3, 4)


@pytest.mark.parametrize("args, message", [
    (["9", "5"], "seed range 9..5 is empty or starts below 0"),
    (["-1", "4"], "seed range -1..4 is empty or starts below 0"),
    (["5"], "expected two seeds, FIRST LAST, got 1"),
    (["5", "2x"], "'2x' is not an integer as belltime spells one"),
])
def test_a_refused_seed_range_runs_no_optimization(monkeypatch, args, message):
    def run(*args, **kwargs):
        raise AssertionError("an optimization ran")

    monkeypatch.setattr(optimizer, "run_optimization", run)
    with pytest.raises(SystemExit) as refused:
        heldout.main(args)
    assert refused.value.code == f"usage: tools/heldout.py [FIRST LAST]: {message}"


def test_the_report_counts_each_condition_over_its_range(monkeypatch, capsys):
    # stub runs that meet criterion 3 but not criterion 4, and the lossy
    # line on seeds 7 and 8
    import test_acceptance

    def stub(full_fidelity):
        return SimpleNamespace(final_pulse=SimpleNamespace(duration_s=2.3e-3),
                               final_model_fidelity=0.999, final_full_fidelity=full_fidelity)

    run = stub(0.93)
    monkeypatch.setattr(optimizer, "run_optimization", lambda *args, **kwargs: run)
    monkeypatch.setattr(test_acceptance, "lossy_run",
                        lambda model, seed: run if seed < 9 else stub(0.9))
    monkeypatch.setattr(test_acceptance, "coherent_run", lambda model, seed: run)
    monkeypatch.setattr(test_acceptance, "criterion_5_holds",
                        lambda alone, lossy, seed: (seed == 8, "probed"))
    heldout.main(["7", "9"])
    summary = capsys.readouterr().out.splitlines()[-4:]
    assert [line.split(", 95%")[0] for line in summary] == [
        "criterion 3: 3/3 held", "criterion 4: 0/3 held",
        "criterion 5: 1/3 held", "lossy line: 2/3 held"]
    assert [line.split("fails on seeds ")[1] for line in summary] == [
        "none", "7 8 9", "7 9", "9"]
