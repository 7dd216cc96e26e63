"""Criteria 3, 4 and 5 on held-out pulse seeds: ``PYTHONPATH=src python tools/heldout.py``.

The acceptance criteria gate on pulse seeds 0-4.  This report runs the same fixtures from
``tests/test_acceptance.py`` on seeds 5-24, or on FIRST to LAST, both included, when it is run
as ``tools/heldout.py FIRST LAST``.  So a rule chosen while looking at seeds 0-24 is confirmed on
fresh seeds in one command, for example ``tools/heldout.py 25 74``.  A range that is not two
integers, is reversed or starts below 0 is refused before any run.  The runs take noise seeds
100 + s and criterion 5's probe at 500 + s as the criteria build them.  Per seed it prints
whether each condition holds: criterion 3 (model-only J >= 0.999 with T in [2.20, 2.40] ms),
criterion 4 (coherent fixture, full J >= 0.99 at T <= 2.45 ms), criterion 5 (the model-only
optimum degrades on the lossy apparatus and the balanced lossy run beats it), and the lossy line
(lossy fixture, full J >= 0.928 at T <= 2.4 ms).  Every run stops on its iteration budget.  Last
it prints each count with its 95% Wilson score interval.  A report, not a gate; the default 20
seeds take about a minute and a half of CPU.  belltime is imported from ``PYTHONPATH``, so
another checkout's ``src`` there reports its code on these fixtures.
"""

import math
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

SEEDS = range(5, 25)  # the held-out seeds, when no range is given
Z_95 = statistics.NormalDist().inv_cdf(0.975)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """The 95% Wilson score interval of a binomial proportion, ``successes`` of ``trials``."""
    z, p = Z_95, successes / trials
    scale = 1.0 + z * z / trials
    centre = (p + z * z / (2 * trials)) / scale
    half = z / scale * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials))
    # at no or all successes an end can round one ulp outside [0, 1]
    return max(0.0, centre - half), min(1.0, centre + half)


def lossy_line_holds(run) -> bool:
    """The lossy fixture's line: full J >= 0.928 at T <= 2.4 ms."""
    return run.final_full_fidelity >= 0.928 and run.final_pulse.duration_s <= 2.4e-3


def seed_range(args: list[str]) -> range:
    """The pulse seeds ``FIRST LAST`` name, both included, or ``SEEDS`` without them; else a
    ValueError."""
    if not args:
        return SEEDS
    if len(args) != 2:
        raise ValueError(f"expected two seeds, FIRST LAST, got {len(args)}")
    from belltime.dynamics import read_number
    first, last = (read_number(arg, int) for arg in args)
    if not 0 <= first <= last:
        raise ValueError(f"seed range {first}..{last} is empty or starts below 0")
    return range(first, last + 1)


def main(args: list[str]) -> None:
    try:
        pulse_seeds = seed_range(args)
    except ValueError as error:
        sys.exit(f"usage: tools/heldout.py [FIRST LAST]: {error}")
    from belltime.dynamics import SystemModel
    from belltime.optimizer import OptimizerConfig, run_optimization
    from test_acceptance import (
        G_HZ, coherent_run, criterion_3_holds, criterion_4_holds, criterion_5_holds, lossy_run)

    def values(run, j: float) -> str:
        return f"J {j:.4f} T {run.final_pulse.duration_s * 1e3:.4f} ms"

    model = SystemModel(g_hz=G_HZ)
    held = {}  # condition -> the seeds it holds on
    for s in pulse_seeds:
        alone = run_optimization("model-only", model, OptimizerConfig(), seed=s)
        lossy, coherent = lossy_run(model, s), coherent_run(model, s)
        conditions = {
            "criterion 3": (criterion_3_holds(alone), values(alone, alone.final_model_fidelity)),
            "criterion 4": (criterion_4_holds(coherent),
                            values(coherent, coherent.final_full_fidelity)),
            "criterion 5": criterion_5_holds(alone, lossy, s),
            "lossy line": (lossy_line_holds(lossy), values(lossy, lossy.final_full_fidelity)),
        }
        for name, (holds, _) in conditions.items():
            seeds = held.setdefault(name, [])
            if holds:
                seeds.append(s)
        lines = [f"{name} {'PASS' if holds else 'FAIL'} ({detail})"
                 for name, (holds, detail) in conditions.items()]
        print(f"seed {s:2d}: {'; '.join(lines)}", flush=True)
    for name, seeds in held.items():
        low, high = wilson_interval(len(seeds), len(pulse_seeds))
        failed = " ".join(str(s) for s in pulse_seeds if s not in seeds) or "none"
        print(f"{name}: {len(seeds)}/{len(pulse_seeds)} held, 95% Wilson interval "
              f"({low:.3f}, {high:.3f}); fails on seeds {failed}")


if __name__ == "__main__":
    main(sys.argv[1:])
