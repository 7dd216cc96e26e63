#!/usr/bin/env python3
"""What model mismatch does to an open-loop pulse, and how the hybrid
mode recovers.

The emulated apparatus differs from the design model in four ways: the
coupling is 1 percent stronger, two control channels are scaled to 98
percent, the waveform passes through a 50 us low-pass filter, and the
spins relax (T1/T2 finite).  Readout adds Gaussian noise per observable.

A pulse optimized purely on the model is then measurably worse when
"played" on this apparatus.  The balanced mode fixes that while paying
only 3 measurements per iteration: it proposes steps from model
gradients but lets the measured fidelity accept or reject them.
"""

from belltime import (
    ExperimentBackend,
    ExperimentConfig,
    OptimizerConfig,
    SystemModel,
    ledger_report,
    run_optimization,
)
from belltime.experiment import SECONDS_PER_MEASUREMENT

MISMATCH = dict(
    true_g_hz=1.01 * 217.4,
    amplitude_scale=(0.98, 1.0, 0.98, 1.0),
    distortion_tau_s=50e-6,
    noise_sigma=1e-3,
    t1_s=(0.730, 0.096),
    t2_s=(0.0965, 0.0425),
)


def main():
    model = SystemModel(g_hz=217.4)

    print("== Open-loop pulse meets the real apparatus ==")
    pure = run_optimization("model-only", model, OptimizerConfig(), seed=0)
    probe = ExperimentBackend(ExperimentConfig(seed=500, **MISMATCH))
    measured = probe.fidelity_full(pure.final_pulse)
    print(f"  model says J = {pure.final_model_fidelity:.4f} at "
          f"T = {pure.final_pulse.duration_s * 1e3:.3f} ms")
    print(f"  full tomography on the mismatched apparatus says J = {measured:.4f}")
    print(f"  lost to mismatch and relaxation: {pure.final_model_fidelity - measured:.4f}")

    print()
    print("== Balanced hybrid on the same apparatus ==")
    scenario = OptimizerConfig(
        d1_init=1e3,
        target_fidelity=0.93,
        threshold_floor=0.90,
        threshold_drop=0.099,
        threshold_rate=300.0,
        max_iterations=2000,
    )
    hybrid = run_optimization(
        "balanced", model, scenario,
        experiment=ExperimentConfig(seed=100, **MISMATCH), seed=0,
    )
    print(f"  final measured J = {hybrid.final_full_fidelity:.4f} at "
          f"T = {hybrid.final_pulse.duration_s * 1e3:.3f} ms")
    print(f"  model's guess for the same pulse: {hybrid.final_model_fidelity:.4f} "
          "(the model is wrong, the measurement is not)")
    accepted = sum(1 for r in hybrid.records if r.accepted)
    print(f"  {len(hybrid.records)} iterations, {accepted} accepted, "
          f"{hybrid.ledger.total_measurements} measurements charged "
          f"({hybrid.ledger.total_measurements // len(hybrid.records)} per iteration)")
    hours = ledger_report(hybrid.ledger)["wall_clock_h"]
    print(f"  at {SECONDS_PER_MEASUREMENT:g} s per measurement that is {hours:.1f} h "
          "of bench time")

    print()
    print("== Why the measured J sits near 0.93 ==")
    print("  The scenario stops the climb at target_fidelity = 0.93 and trades")
    print("  what is left for time, so the final J is that target plus readout")
    print("  noise.  The apparatus allows more, though not 0.99: with these T1")
    print("  values a noiseless direct optimization of the true fidelity reaches")
    print("  at best 0.954-0.957 at 2.2-2.45 ms, and the 50 us low-pass alone")
    print("  holds model-optimal 2.45 ms pulses to at most 0.974.")

    print()
    print("== Verdict ==")
    better = hybrid.final_full_fidelity - measured
    print(f"  balanced beats the open-loop pulse by {better:+.4f} in measured J")
    print(f"  while still finishing at T = {hybrid.final_pulse.duration_s * 1e3:.3f} ms, "
          "within 5 percent of the entangling-time floor.")


if __name__ == "__main__":
    main()
