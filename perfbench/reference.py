"""Reference computations made apart from the program, and the checks on them.

Nothing here calls the package's propagators or emulator internals: the
Pauli matrices, slice Hamiltonians, propagators (``scipy.linalg.expm``),
the low-pass recursion and the relaxation superoperators are all built
in this module, so a fault in the package cannot hide in its own reference.
Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_ZZ = np.kron(_Z, _Z)
# Control operators in the package's channel order ux1, uy1, ux2, uy2.
_CONTROLS = (np.kron(_X, _I2), np.kron(_Y, _I2), np.kron(_I2, _X), np.kron(_I2, _Y))
_PSI0 = np.array([1, 0, 0, 0], dtype=complex)  # |00>
_SINGLET = np.array([0, -1, 1, 0], dtype=complex) / math.sqrt(2.0)  # (|10>-|01>)/sqrt2

# Agreement between two evaluations of the same exact quantity.
EXACT_TOL = 1e-10
# Full-tomography J against the true overlap: the three singlet
# correlators carry readout noise sigma_J = sqrt(3)/4 sigma, and the
# eigenvalue clipping that makes the estimate physical moves it by a few
# sigma more.  10 sigma is above 20 sigma_J.
TOMOGRAPHY_SIGMAS = 10.0
# Central differences with h = 0.1 Hz err by about h^2/6 |J'''|, far below
# these; the duration probes (h = 10 ns) are looser.
GRAD_AMP_ABS_TOL = 1e-9
GRAD_TIME_REL_TOL = 1e-5


def _slice_unitaries(g_hz: float, amplitudes_hz: np.ndarray, dt_s: float) -> list:
    unitaries = []
    for row in amplitudes_hz:
        ham = (math.pi / 2.0) * g_hz * _ZZ + math.pi * sum(
            u * op for u, op in zip(row, _CONTROLS)
        )
        unitaries.append(expm(-1j * dt_s * ham))
    return unitaries


def model_fidelity(g_hz: float, duration_s: float, amplitudes_hz: np.ndarray) -> float:
    """|<singlet| U_M ... U_1 |00>|^2 under the ideal design model."""
    psi = _PSI0
    for u in _slice_unitaries(g_hz, amplitudes_hz, duration_s / len(amplitudes_hz)):
        psi = u @ psi
    return float(abs(np.vdot(_SINGLET, psi)) ** 2)


def fidelity_ceiling(g_hz: float, duration_s: float) -> float:
    """Coupling speed limit (1 + sin(pi g T))/2, valid for T <= 1/(2g)."""
    if duration_s >= 1.0 / (2.0 * g_hz):
        return 1.0
    return 0.5 * (1.0 + math.sin(math.pi * g_hz * duration_s))


def _superop(kraus_ops) -> np.ndarray:
    """Row-major Liouville matrix of rho -> sum_k K rho K^dag."""
    return sum(np.kron(k, k.conj()) for k in kraus_ops)


def _spin_relaxation(t1_s: float, t2_s: float, dt_s: float, spin: int) -> np.ndarray:
    """Amplitude damping then pure dephasing of one spin over dt."""
    embed = (lambda k: np.kron(k, _I2)) if spin == 0 else (lambda k: np.kron(_I2, k))
    p = 1.0 - math.exp(-dt_s / t1_s)
    damping = _superop([
        embed(np.array([[1, 0], [0, math.sqrt(1 - p)]], dtype=complex)),
        embed(np.array([[0, math.sqrt(p)], [0, 0]], dtype=complex)),
    ])
    rate = 1.0 / t2_s - 0.5 / t1_s
    q = 0.5 * (1.0 - math.exp(-rate * dt_s)) if rate > 0 else 0.0
    dephasing = _superop([embed(math.sqrt(1 - q) * _I2), embed(math.sqrt(q) * _Z)])
    return dephasing @ damping


def true_fidelity(experiment, duration_s: float, amplitudes_hz: np.ndarray) -> float:
    """Singlet overlap of the pulse run on the emulated apparatus.

    Low-pass recursion y[m] = y[m-1] + (1 - exp(-dt/tau)) (u[m] - y[m-1])
    from y = 0, per-channel scales, then per slice the unitary followed by
    each spin's relaxation, all as 16 x 16 Liouville matrices.
    """
    m_slices = len(amplitudes_hz)
    dt = duration_s / m_slices
    applied = np.array(amplitudes_hz, dtype=float)
    if experiment.distortion_tau_s > 0:
        gain = 1.0 - math.exp(-dt / experiment.distortion_tau_s)
        y = np.zeros(4)
        for m in range(m_slices):
            y = y + gain * (applied[m] - y)
            applied[m] = y
    applied = applied * np.asarray(experiment.amplitude_scale)
    relax = np.eye(16, dtype=complex)
    for spin in range(2):
        relax = _spin_relaxation(experiment.t1_s[spin], experiment.t2_s[spin], dt, spin) @ relax
    vec = np.outer(_PSI0, _PSI0.conj()).reshape(16)
    for u in _slice_unitaries(experiment.true_g_hz, applied, dt):
        vec = relax @ (np.kron(u, u.conj()) @ vec)
    rho = vec.reshape(4, 4)
    return float(np.real(_SINGLET.conj() @ rho @ _SINGLET))


def check_final_pulse(design_g_hz, duration_s, amplitudes_hz, reported_model_j) -> list:
    """The reported model J reproduces, and it respects the speed limit."""
    fails = []
    j = model_fidelity(design_g_hz, duration_s, amplitudes_hz)
    if not abs(j - reported_model_j) <= EXACT_TOL:
        fails.append(f"model J {reported_model_j!r} != reference {j!r}")
    ceiling = fidelity_ceiling(design_g_hz, duration_s)
    if not j <= ceiling + EXACT_TOL:
        fails.append(f"model J {j!r} above the coupling limit {ceiling!r} at T={duration_s!r}")
    return fails


def check_measured_final(backend_true_j, full_j, experiment, duration_s, amplitudes_hz) -> list:
    """The emulator's true J reproduces; tomography J lies within its noise."""
    fails = []
    j = true_fidelity(experiment, duration_s, amplitudes_hz)
    if not abs(j - backend_true_j) <= EXACT_TOL:
        fails.append(f"true J {backend_true_j!r} != Liouville reference {j!r}")
    tol = TOMOGRAPHY_SIGMAS * experiment.noise_sigma + EXACT_TOL
    if not abs(full_j - j) <= tol:
        fails.append(f"full-tomography J {full_j!r} is {abs(full_j - j):.2e} from {j!r}")
    return fails


def check_ledger(mode: str, per_record: list, ledger: dict, m_slices: int) -> list:
    """Per-record readouts follow the mode's formula and sum to the ledger."""
    expected = {"model-only": 0, "balanced": 3, "experiment-only": 3 + 30 * m_slices}[mode]
    fails = [f"record {n}: {c} measurements, expected {expected}"
             for n, c in enumerate(per_record) if c != expected][:3]
    n = len(per_record)
    if sum(ledger.values()) != sum(per_record):
        fails.append(f"ledger total {sum(ledger.values())} != record sum {sum(per_record)}")
    want = {"fidelity_partial": 3 * n if mode != "model-only" else 0, "fidelity_full": 0,
            "gradient_control": 24 * m_slices * n if mode == "experiment-only" else 0,
            "gradient_time": 6 * m_slices * n if mode == "experiment-only" else 0}
    if ledger != want:
        fails.append(f"ledger split {ledger} != {want}")
    return fails


def check_gradients(measured, exact, amplitude_scale) -> list:
    """Noiseless central differences against the scaled chain-rule gradient."""
    fails = []
    chain = exact.grad_amplitudes * np.asarray(amplitude_scale)
    err = float(np.max(np.abs(measured.grad_amplitudes - chain)))
    if not err <= GRAD_AMP_ABS_TOL:
        fails.append(f"amplitude gradient off by {err:.2e}")
    rel = abs(measured.grad_duration - exact.grad_duration) / abs(exact.grad_duration)
    if not rel <= GRAD_TIME_REL_TOL:
        fails.append(f"dJ/dT off by {rel:.2e} relative")
    return fails
