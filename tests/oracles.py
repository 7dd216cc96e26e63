"""Reference routines that only the tests use.

Each is an independent route to a quantity the package computes another
way: a matrix exponential by eigendecomposition, the model's state
evolved one slice at a time, pure-state overlaps, expectation values, the
best tensor-product approximation of a two-spin operator, and the exact
model gradient in its slice-first form.  They validate their inputs with
the package's own checks, so garbage fails loudly here too.

The slow-path oracles (``reference_fidelity_and_gradients``,
``reference_model_fidelity``, ``reference_pulse_evolution``) share the
package's set-up and differ from it only in how they loop over slices:
one stacked ``@`` product, or ``np.matmul``, per step.  The package's
routines must equal them bit for bit.
"""

import math

import numpy as np

from belltime.dynamics import (
    _CONTROL_OPS,
    GradientBundle,
    PulseSequence,
    SystemModel,
    slice_propagators,
)
from belltime.experiment import _decay_factors, _low_pass, _relaxation_matrices, _relaxed
from belltime.linalg import pauli_string, require_density, require_hermitian, require_state


def expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H, via eigendecomposition.

    Exact up to the eigensolver, so it is safe for any t (no step-size
    or truncation assumptions).
    """
    h = require_hermitian(h)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def reference_state(model: SystemModel, pulse: PulseSequence, psi0: np.ndarray) -> np.ndarray:
    """U_M ... U_1 psi0, each slice Hamiltonian built and exponentiated on its own.

    H_m = (pi/2) g Z(x)Z + pi [ux1 X(x)I + uy1 Y(x)I + ux2 I(x)X + uy2 I(x)Y]
    from ``pauli_string``, and U_m = exp(-i H_m T/M) by ``expm_hermitian``;
    nothing of ``slice_propagators`` is shared.
    """
    drift = (np.pi / 2.0) * model.g_hz * pauli_string("Z", "Z")
    controls = [pauli_string(a, b) for a, b in ("XI", "YI", "IX", "IY")]
    psi = require_state(psi0)
    for row in pulse.amplitudes_hz:
        h = drift + np.pi * sum(u * op for u, op in zip(row, controls))
        psi = expm_hermitian(h, pulse.slice_duration_s) @ psi
    return psi


def reference_model_fidelity(
    model: SystemModel,
    pulse: PulseSequence,
    psi0: np.ndarray,
    target: np.ndarray,
    decomposition=None,
) -> float:
    """``model_fidelity`` with each slice applied as ``u_m @ psi``.

    The package's routine must equal this one bit for bit.
    """
    target = require_state(target)
    psi = require_state(psi0)
    if decomposition is None:
        decomposition = slice_propagators(model, pulse.amplitudes_hz, pulse.slice_duration_s)
    for u_m in decomposition[0]:
        psi = u_m @ psi
    return float(abs(np.vdot(target, psi)) ** 2)


def reference_pulse_evolution(backend, pulse: PulseSequence, dts: np.ndarray) -> np.ndarray:
    """``backend.evolve_open(pulse, dts)`` as a per-slice ``@`` loop.

    The waveform, propagators and relaxation table are built as the
    emulator builds them; each slice then applies ``u @ rho @ u^dag`` and
    the tabled relaxation through ``_relaxed``.  The package's routine
    must equal this one bit for bit.
    """
    cfg = backend.config
    tau = (cfg.distortion_tau_s,) if cfg.distortion_tau_s > 0.0 else ()
    t1_t2 = cfg.t1_s + tuple(min(two, 2.0 * one) for one, two in zip(cfg.t1_s, cfg.t2_s))
    if not any(math.isfinite(t) for t in t1_t2):
        t1_t2 = ()
    amplitudes = pulse.amplitudes_hz[None]
    relaxation = None
    if tau + t1_t2:
        factors, index = _decay_factors(dts[None], tau + t1_t2)
        if tau:
            amplitudes = _low_pass(amplitudes, factors[index, 0])
        if t1_t2:
            relaxation = _relaxation_matrices(factors[:, len(tau):])
    applied = amplitudes[0] * np.asarray(cfg.amplitude_scale)
    u = slice_propagators(SystemModel(cfg.true_g_hz), applied, dts)[0]
    rho = np.zeros((4, 4), dtype=np.complex128)
    rho[0, 0] = 1.0
    for m in range(len(dts)):
        rho = u[m] @ rho @ u[m].conj().T
        if relaxation is not None:
            rho = _relaxed(relaxation[index[0, m]], rho)
    return rho


def state_fidelity(psi: np.ndarray, phi: np.ndarray) -> float:
    """|<psi|phi>|^2 for normalized pure states."""
    psi = require_state(psi)
    phi = require_state(phi)
    return float(abs(np.vdot(psi, phi)) ** 2)


def expectation(rho: np.ndarray, observable: np.ndarray) -> float:
    """Tr(rho O) for a valid density matrix and Hermitian observable."""
    rho = require_density(rho)
    observable = require_hermitian(observable)
    return float(np.trace(rho @ observable).real)


def nearest_local_product(u: np.ndarray):
    """Best tensor-product approximation A (x) B of a 4x4 matrix.

    Returns (A, B, residual) where residual is the max-abs deviation of
    A (x) B from u.  For an exactly local unitary the residual is at
    numerical noise level.
    """
    u = np.asarray(u, dtype=np.complex128)
    r = u.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    uu, ss, vv = np.linalg.svd(r)
    a = (uu[:, 0] * np.sqrt(ss[0])).reshape(2, 2)
    b = (vv[0, :] * np.sqrt(ss[0])).reshape(2, 2)
    return a, b, float(np.max(np.abs(np.kron(a, b) - u)))


def reference_fidelity_and_gradients(
    model: SystemModel,
    pulse: PulseSequence,
    psi0: np.ndarray,
    target: np.ndarray,
    decomposition=None,
) -> GradientBundle:
    """``fidelity_and_gradients`` with the slice axis first and dense E_c.

    The package's routine must equal this one bit for bit.

    J = |c|^2 with c = <target| U_M ... U_1 |psi0>.  For the amplitude
    derivatives, the Fréchet derivative of each slice exponential in the
    eigenbasis of H_m is (V^dag E V) o Gamma with

        Gamma_kl = -i dt exp(-i dt (w_k + w_l)/2) sinc(dt (w_k - w_l)/2),

    which is smooth through eigenvalue degeneracies.  The duration
    derivative stretches all slices together: dU_m/dT = (-i H_m/M) U_m.
    ``decomposition`` is as in ``model_fidelity``; the result is the same
    bit for bit with or without it.
    """
    psi0 = require_state(psi0)
    target = require_state(target)
    m_slices = pulse.n_slices
    dt = pulse.slice_duration_s

    if decomposition is None:
        decomposition = slice_propagators(model, pulse.amplitudes_hz, dt)
    u, hams, w, v = decomposition

    # Forward states psi_m and backward costates chi_m with
    # c = chi_m^dag U_m psi_{m-1} for every m.
    fwd = np.empty((m_slices + 1, 4), dtype=np.complex128)
    fwd[0] = psi0
    for m in range(m_slices):
        fwd[m + 1] = u[m] @ fwd[m]
    bwd = np.empty((m_slices + 1, 4), dtype=np.complex128)
    bwd[m_slices] = target
    for m in range(m_slices, 0, -1):
        bwd[m - 1] = u[m - 1].conj().T @ bwd[m]

    c = np.vdot(target, fwd[-1])
    fidelity = float(abs(c) ** 2)

    # Divided-difference kernel Gamma per slice, shape (M, 4, 4).
    diff = w[:, :, None] - w[:, None, :]
    mean = w[:, :, None] + w[:, None, :]
    gamma = (-1j * dt) * np.exp(-0.5j * dt * mean) * np.sinc(dt * diff / (2.0 * np.pi))

    # E_c in each slice eigenbasis for all channels: (M, C, 4, 4).
    e_eig = np.einsum("mji,cjk,mkl->mcil", v.conj(), np.pi * _CONTROL_OPS, v)
    du = np.einsum("mij,mcjl,mkl->mcik", v, e_eig * gamma[:, None, :, :], v.conj())

    # dc/du[m, c] = chi_m^dag dU_mc psi_{m-1}.
    dc_amp = np.einsum("mi,mcij,mj->mc", bwd[1:].conj(), du, fwd[:-1])
    grad_amp = 2.0 * np.real(np.conj(c) * dc_amp)

    # dc/dT = sum_m chi_m^dag (-i H_m / M) psi_m.
    hpsi = np.einsum("mij,mj->mi", hams, fwd[1:])
    dc_t = np.sum(np.einsum("mi,mi->m", bwd[1:].conj(), (-1j / m_slices) * hpsi))
    grad_t = float(2.0 * np.real(np.conj(c) * dc_t))

    return GradientBundle(fidelity, grad_amp, grad_t)
