#!/usr/bin/env python3
"""Exact gradients versus finite differences.

The optimizer leans on two derivative families: dJ/du for every control
amplitude (computed through the eigendecomposition of each slice
propagator) and dJ/dT for a uniform stretch of the whole pulse.  Both
are exact, not finite-difference estimates.  Here we pit them against
central differences on a few random pulses and then show what the same
comparison costs in oracle calls when J can only be measured.
"""

import time

import numpy as np

from belltime import (
    ExperimentBackend,
    ExperimentConfig,
    SystemModel,
    fidelity_and_gradients,
    finite_diff_gradients,
    ket,
    model_fidelity,
    random_pulse,
    singlet_state,
)
from belltime.experiment import SECONDS_PER_MEASUREMENT


def main():
    model = SystemModel(g_hz=217.4)
    psi0, target = ket("00"), singlet_state()
    rng = np.random.default_rng(2)

    print("== Analytic vs central finite differences (noiseless) ==")
    for m in (1, 5, 50):
        pulse = random_pulse(m, rng.uniform(1e-3, 6e-3), 300.0, rng)
        bundle = fidelity_and_gradients(model, pulse, psi0, target)

        h = 0.05
        worst = 0.0
        for idx in np.ndindex(pulse.amplitudes_hz.shape):
            up = pulse.amplitudes_hz.copy()
            dn = pulse.amplitudes_hz.copy()
            up[idx] += h
            dn[idx] -= h
            fd = (model_fidelity(model, pulse.with_amplitudes(up), psi0, target)
                  - model_fidelity(model, pulse.with_amplitudes(dn), psi0, target)) / (2 * h)
            worst = max(worst, abs(fd - bundle.grad_amplitudes[idx]))
        ht = 1e-8
        fd_t = (model_fidelity(model, pulse.with_duration(pulse.duration_s + ht), psi0, target)
                - model_fidelity(model, pulse.with_duration(pulse.duration_s - ht), psi0, target)) / (2 * ht)
        print(f"  M = {m:2d}: J = {bundle.fidelity:.6f}, worst |analytic - FD| over "
              f"{4 * m} amplitudes = {worst:.2e}, duration gap = {abs(fd_t - bundle.grad_duration):.2e}")

    print()
    print("== The measured version of the same gradient ==")
    print("On hardware there is no wavefunction, so the gradient has to be")
    print("assembled from pairs of perturbed measurements.  The ledger below")
    print("counts every oracle call for one gradient of an M = 50 pulse.")
    backend = ExperimentBackend(ExperimentConfig(true_g_hz=217.4))
    pulse = random_pulse(50, 3e-3, 300.0, rng)
    j_here = backend.fidelity_partial(pulse)
    started = time.monotonic()
    finite_diff_gradients(backend, pulse, 0.1, 1e-8)
    elapsed = time.monotonic() - started
    counts = backend.ledger.as_dict()
    total = backend.ledger.total_measurements
    print(f"  measurements used: {total} "
          f"({counts['gradient_control']} for controls, "
          f"{counts['gradient_time']} for duration, "
          f"{counts['fidelity_partial']} for the baseline J)")
    print(f"  emulated at {SECONDS_PER_MEASUREMENT:.0f} s per measurement "
          f"that is {total * SECONDS_PER_MEASUREMENT / 3600:.2f} h of bench time")
    print(f"  (computed here in {elapsed:.2f} s; J at this pulse = {j_here:.4f})")

    print()
    print("== Noise floor ==")
    noisy = ExperimentBackend(ExperimentConfig(true_g_hz=217.4, noise_sigma=1e-3, seed=9))
    samples = [noisy.fidelity_partial(pulse) for _ in range(200)]
    print(f"  with sigma = 1e-3 per observable the 3-correlator estimate of J")
    print(f"  scatters with sd = {np.std(samples):.1e}; finite-difference steps have to")
    print("  clear that floor, which is why the optimizer grows and shrinks its")
    print("  step size instead of trusting any single measurement.")


if __name__ == "__main__":
    main()
