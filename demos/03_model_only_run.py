#!/usr/bin/env python3
"""A full model-only optimization, watched iteration by iteration.

Starting from a random 50-slice pulse at T = 5 ms, the optimizer first
climbs fidelity at fixed duration (step 1, Armijo-guarded gradient
ascent), then squeezes duration and amplitudes together (step 2) for as
long as fidelity stays above 99.9 percent of the incumbent, falling
back to step 1 whenever the scheduled lower threshold is crossed.  With
a perfect model the whole run is free: zero measurements are charged.
The final duration lands within a percent of the analytic floor
1/(2g) = 2.2999 ms; slightly below is legitimate because the floor
assumes J = 1 while the optimizer settles for J = 0.999.
"""

from belltime import (
    OptimizerConfig,
    SystemModel,
    minimum_time_bell,
    run_optimization,
)


def main():
    model = SystemModel(g_hz=217.4)
    result = run_optimization("model-only", model, OptimizerConfig(), seed=0)

    print("== Milestones ==")
    shown = set()
    for rec in result.records:
        t_ms = rec.t_seconds * 1e3
        key = None
        if rec.n == 0:
            key = "start"
        elif rec.phase == "step2" and "first_shrink" not in shown:
            key = "first_shrink"
        elif rec.accepted and t_ms < 3.0 and "below_3ms" not in shown:
            key = "below_3ms"
        elif rec.accepted and t_ms < 2.4 and "below_2.4ms" not in shown:
            key = "below_2.4ms"
        if key:
            shown.add(key)
            print(f"  n = {rec.n:4d}  {rec.phase:5s}  J = {rec.j_model:.6f}  "
                  f"T = {t_ms:.4f} ms  ({key.replace('_', ' ')})")
    last = result.records[-1]
    print(f"  n = {last.n:4d}  {last.phase:5s}  J = {last.j_model:.6f}  "
          f"T = {last.t_seconds * 1e3:.4f} ms  (last record)")

    print()
    print("== Outcome ==")
    t_floor = minimum_time_bell(model.g_hz)
    t_final = result.final_pulse.duration_s
    print(f"  iterations run: {len(result.records)}, the whole budget")
    print(f"  final J (exact model) = {result.final_model_fidelity:.6f}")
    print(f"  final T = {t_final * 1e3:.4f} ms vs floor {t_floor * 1e3:.4f} ms "
          f"({(t_final / t_floor - 1) * 100:+.2f}%)")
    print(f"  measurements charged: {result.ledger.total_measurements}")

    print()
    print("== Final pulse ==")
    amps = result.final_pulse.amplitudes_hz
    print(f"  {result.final_pulse.n_slices} slices x 4 channels, "
          f"|u| max = {abs(amps).max():.1f} Hz, mean = {abs(amps).mean():.1f} Hz")
    print("  channel peaks (Hz):", ", ".join(
        f"{name} {amps[:, k].max():+.0f}/{amps[:, k].min():+.0f}"
        for k, name in enumerate(("ux1", "uy1", "ux2", "uy2"))))


if __name__ == "__main__":
    main()
