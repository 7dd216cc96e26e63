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
one stacked ``@`` product, or ``np.matmul``, per step; the emulator's
oracles take their propagators from ``closed_form_propagators``, as the
emulator does.  The forms the package's set-up replaced
(``reference_slice_propagators``, the ``einsum`` build of the slice
Hamiltonians, and ``reference_relaxation_matrices``, the relaxation map
``_relax`` applied in place to complex unit matrices, where the package
multiplies the two spins' maps) are kept beside them, and so are the probe
path over dense probe stacks (``reference_probe_evolution``) and the
density check by eigenvalues alone (``reference_require_density``).
The package's routines must equal all of these bit for bit, and the
density check must accept, reject and word its errors as its oracle does.
The readouts' trace of the stacked product (``reference_readouts``) is
the one oracle that the package meets to rounding only: its kernel is a
real contraction in another order.

A lab with no finite T1 or T2 carries kets, not densities, completes
its probes to the pulse's end rather than back-propagating the
correlators, and reads the correlators straight from its kets.  Its
bit-for-bit oracles are the ket forms (``reference_ket_evolution``,
``reference_ket_probe_evolution``), which hand back kets, and
``reference_partial`` reads such a lab's ket as ``fidelity_partial``
does; the density loops run on it too and agree with it to rounding.

The Bell problem's two symmetries, a common rotation of both spins'
(x, y) drives and the exchange of the spins, act on pulses and on an
apparatus through ``rotated_controls``, ``swapped_channels`` and
``swapped_spins``.

The emulator runs a pulse on one slice duration T/M and moves a
slice's duration only in a probe.  ``reference_pulse_evolution`` takes
slice durations of the test's choosing, and ``reference_partial`` reads
its state out through the backend's noise stream and ledger, so each
probe can be checked against its own whole evolution without the
backend's pulse loop.

Two helpers that several test modules share close the file: ``bits``,
the int64 words that tell two arrays bit for bit apart, and ``outcome``,
the message a check raises, or None.
"""

import dataclasses
import math

import numpy as np

from belltime.dynamics import (
    _CONTROL_OPS,
    _ZZ,
    GradientBundle,
    PulseSequence,
    SystemModel,
    _low_pass,
    _relaxation_table,
    _relaxed,
    closed_form_propagators,
    slice_propagators,
)
from belltime.experiment import _PARTIAL_OPS
from belltime.linalg import (
    DENSITY_TOL,
    ket,
    pauli_string,
    require_density,
    require_hermitian,
    require_state,
)


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


def reference_slice_propagators(model: SystemModel, amplitudes_hz: np.ndarray, dt):
    """``slice_propagators`` with the control terms summed by ``einsum``.

    The package's routine must equal this one bit for bit.
    """
    drift = (np.pi / 2.0) * model.g_hz * _ZZ
    ctrl = np.pi * np.einsum("mc,cij->mij", amplitudes_hz, _CONTROL_OPS)
    hams = drift[None, :, :] + ctrl
    w, v = np.linalg.eigh(hams)
    phases = np.exp(-1j * w * np.reshape(dt, (-1, 1)))
    u = np.einsum("mij,mj,mkj->mik", v, phases, v.conj())
    return u, hams, w, v


def _relax(rho: np.ndarray, factors: np.ndarray) -> None:
    """T1/T2 relaxation of both spins over one slice, in place, per row.

    ``rho`` is (B, 4, 4) or one 4 x 4 state, ``factors`` (B, 4): per row
    a_1, a_2, e_1, e_2 with a_s = exp(-dt/T1_s) and e_s = exp(-dt/T2_s).
    This is amplitude damping plus dephasing (Nielsen & Chuang, section
    8.3) in closed form on rho itself, one spin after the other: per
    spin, 1 - a_s of the |1> population decays to |0>, and the
    coherences between |0> and |1> shrink by e_s.
    """
    r = rho.reshape(-1, 2, 2, 2, 2)  # (row, ket spin 1, ket spin 2, bra spin 1, bra spin 2)
    for spin, spin_first in enumerate((r, r.transpose(0, 2, 1, 4, 3))):
        a, e = factors[:, spin, None, None], factors[:, 2 + spin, None, None]
        spin_first[:, 0, :, 0] += (1.0 - a) * spin_first[:, 1, :, 1]
        spin_first[:, 1, :, 1] *= a
        spin_first[:, 0, :, 1] *= e
        spin_first[:, 1, :, 0] *= e


def reference_relaxation_matrices(factors: np.ndarray) -> np.ndarray:
    """``_relaxation_matrices`` with ``_relax`` applied to complex unit matrices.

    The real parts of the mapped units are the columns.  The package's
    routine must equal this one bit for bit.
    """
    units = np.tile(np.eye(16, dtype=np.complex128), (len(factors), 1)).reshape(-1, 4, 4)
    _relax(units, np.repeat(factors, 16, axis=0))
    return np.ascontiguousarray(units.real.reshape(-1, 16, 16).swapaxes(1, 2))


def reference_model_fidelity(
    model: SystemModel,
    pulse: PulseSequence,
    psi0: np.ndarray,
    target: np.ndarray,
) -> float:
    """``model_fidelity`` with each slice applied as ``u_m @ psi``.

    The package's routine must equal this one bit for bit.
    """
    target = require_state(target)
    psi = require_state(psi0)
    for u_m in slice_propagators(model, pulse.amplitudes_hz, pulse.slice_duration_s)[0]:
        psi = u_m @ psi
    return float(abs(np.vdot(target, psi)) ** 2)


def lab_relaxation_times(config) -> tuple:
    """The two T1 and the two T2 times of an emulator config, empty where none is finite.

    T2 is capped at 2 T1 as the emulator caps it.
    """
    t1_t2 = config.t1_s + tuple(min(two, 2.0 * one) for one, two in zip(config.t1_s, config.t2_s))
    return t1_t2 if any(math.isfinite(t) for t in t1_t2) else ()


def _reference_slices(backend, pulse: PulseSequence, dts: np.ndarray):
    """(u, relaxation, index) of ``pulse`` over the (M,) slice durations ``dts``.

    The waveform, propagators and relaxation table are built as the
    emulator builds them: the (M, 4, 4) propagators, the table (None
    without T1/T2) and the (1, M) row of each slice in it.
    """
    cfg = backend.config
    t1_t2 = lab_relaxation_times(cfg)
    amplitudes = pulse.amplitudes_hz[None]
    if cfg.distortion_tau_s > 0.0:
        amplitudes = _low_pass(amplitudes, dts[None], cfg.distortion_tau_s)
    relaxation, index = _relaxation_table(dts[None], t1_t2) if t1_t2 else (None, None)
    applied = amplitudes[0] * np.asarray(cfg.amplitude_scale)
    return closed_form_propagators(SystemModel(cfg.true_g_hz), applied, dts), relaxation, index


def reference_pulse_evolution(backend, pulse: PulseSequence, dts: np.ndarray) -> np.ndarray:
    """``backend.evolve_open(pulse)`` over the (M,) slice durations ``dts``, slice by slice.

    The density loop: each slice applies ``u @ rho @ u^dag`` and the
    tabled relaxation through ``_relaxed``, one ``@`` product at a time,
    on any apparatus.  On durations T/M each, ``evolve_open`` of a lossy
    lab must equal this one bit for bit, and that of a relaxation-free
    lab, which carries kets (``reference_ket_evolution``), to rounding.
    """
    u, relaxation, index = _reference_slices(backend, pulse, dts)
    rho = np.zeros((4, 4), dtype=np.complex128)
    rho[0, 0] = 1.0
    for m in range(len(dts)):
        rho = u[m] @ rho @ u[m].conj().T
        if relaxation is not None:
            rho = _relaxed(relaxation[index[0, m]], rho)
    return rho


def reference_ket_evolution(backend, pulse: PulseSequence, dts: np.ndarray) -> np.ndarray:
    """``reference_pulse_evolution`` of a relaxation-free lab, on kets: the final ket.

    Each slice applies ``u @ psi`` from |00>.  On durations T/M each, the
    ``evolve_open`` of a relaxation-free lab must equal
    ``np.outer(psi, psi^*)`` of this ket bit for bit.
    """
    u, relaxation, _ = _reference_slices(backend, pulse, dts)
    if relaxation is not None:
        raise ValueError("a lab with T1 or T2 carries densities, not kets")
    psi = ket("00")
    for u_m in u:
        psi = u_m @ psi
    return psi


def reference_partial(backend, pulse: PulseSequence, dts: np.ndarray, category: str) -> float:
    """``backend.fidelity_partial(pulse)`` over the (M,) slice durations ``dts``.

    A lossy lab's state is ``reference_pulse_evolution``'s density and a
    relaxation-free lab's ``reference_ket_evolution``'s ket, each read
    out through the backend's ``_partial`` as ``fidelity_partial`` reads
    it, so the noise draws are those of ``fidelity_partial``; the three
    readouts are charged to ``category``.
    """
    if not lab_relaxation_times(backend.config):
        psi = reference_ket_evolution(backend, pulse, dts)
        return float(backend._partial(psi[None], None, {category: 1})[0])
    rho = reference_pulse_evolution(backend, pulse, dts)
    return float(backend._partial(rho[None], _PARTIAL_OPS, {category: 1})[0])


def _reference_probe_pairs(backend, amplitudes, dts, probe_amplitudes, probe_dts):
    """The set-up of the probe oracles: propagators, relaxation and windows.

    The pulse's waveform and the probes' are distorted and scaled as one
    (B + 1, 4M) stack and compared there; the propagators of the pulse's
    slices and of every (probe, slice) pair that differs, a pair whose
    duration alone differs included, come from one
    ``closed_form_propagators`` call.  Returns (u, relaxation, index,
    enter, leave, which): the propagators, the pulse's M first; the
    relaxation table (None without T1/T2) and the (B + 1, M) row of
    each slice in it, row 0 the pulse's; each probe's window
    [enter, leave), (M, M) where it differs nowhere; and the (B, M) row
    of u that each probe's slice takes, the pulse's where it does not
    differ.
    """
    cfg = backend.config
    m_slices = len(dts)
    t1_t2 = lab_relaxation_times(cfg)
    amplitudes = np.concatenate([amplitudes[None], probe_amplitudes])  # row 0: the pulse
    durations = np.concatenate([dts[None], probe_dts])
    if cfg.distortion_tau_s > 0.0:
        amplitudes = _low_pass(amplitudes, durations, cfg.distortion_tau_s)
    relaxation, index = _relaxation_table(durations, t1_t2) if t1_t2 else (None, None)
    flat = amplitudes.reshape(len(amplitudes), -1)
    np.multiply(flat, np.tile(cfg.amplitude_scale, m_slices), out=flat)
    applied = flat.reshape(-1, m_slices, 4)
    own = (applied[1:] != applied[0]).any(axis=2) | (probe_dts != dts)  # (B, M)
    u = closed_form_propagators(
        SystemModel(cfg.true_g_hz),
        np.concatenate([applied[0], applied[1:][own]]),
        np.concatenate([dts, probe_dts[own]]),
    )
    differs = own.any(axis=1)
    enter = np.where(differs, own.argmax(axis=1), m_slices)
    leave = np.where(differs, m_slices - own[:, ::-1].argmax(axis=1), m_slices)
    which = np.tile(np.arange(m_slices), (len(own), 1))
    which[own] = m_slices + np.arange(np.count_nonzero(own))
    return u, relaxation, index, enter, leave, which


def reference_probe_evolution(backend, amplitudes, dts, probe_amplitudes, probe_dts):
    """``backend.evolve_open`` and ``backend._evolve`` of probes as dense stacks, nothing kept.

    The density path on any apparatus, set up by
    ``_reference_probe_pairs``; a slice of a window that does not
    differ takes the pulse's propagator.  The windows advance step by
    step, each step gathering its propagators through a (B, M) table of
    rows, not from the package's step-major layout.  The pulse is
    evolved anew on each call.  Returns the pulse's final state, then
    the probes' states where their windows end and the observables
    back-propagated there, as ``_evolve`` documents them for a lossy
    lab.  The package's routines must equal this one bit for bit on a
    lossy lab, and agree with it to rounding on a relaxation-free one
    (``reference_ket_probe_evolution``).
    """
    m_slices = len(dts)
    u, relaxation, index, enter, leave, which = _reference_probe_pairs(
        backend, amplitudes, dts, probe_amplitudes, probe_dts
    )
    u_dag = u[:m_slices].conj().swapaxes(-1, -2)
    states = np.empty((m_slices + 1, 4, 4), dtype=np.complex128)
    states[0] = np.diag([1.0, 0.0, 0.0, 0.0])
    for m in range(m_slices):
        rho = u[m] @ states[m] @ u_dag[m]
        states[m + 1] = rho if relaxation is None else _relaxed(relaxation[index[0, m]], rho)
    rho = states[m_slices].copy()
    if not len(probe_dts):
        return rho, np.empty((0, 4, 4), dtype=np.complex128), np.empty((0, 3, 4, 4))

    order = np.argsort(enter - leave, kind="stable")
    lengths = (leave - enter)[order]
    stack = states[enter[order]]
    for step in range(lengths[0]):
        rows = order[: np.count_nonzero(lengths > step)]
        at = enter[rows] + step
        u_at = u[which[rows, at]]
        block = u_at @ stack[: len(rows)] @ u_at.conj().swapaxes(-1, -2)
        if relaxation is not None:
            durations = index[1 + rows, at]
            uniform = (durations == durations[0]).all()
            block = _relaxed(relaxation[durations[0] if uniform else durations], block)
        stack[: len(rows)] = block
    leaving = np.empty_like(stack)
    leaving[order] = stack

    observables = np.empty((m_slices + 1, 3, 4, 4), dtype=np.complex128)
    observables[m_slices] = o = np.stack([pauli_string(a, a) for a in "XYZ"])
    for m in range(m_slices - 1, leave.min() - 1, -1):
        if relaxation is not None:
            o = _relaxed(relaxation[index[0, m]].T, o)
        o = u_dag[m] @ o @ u[m]
        observables[m] = o
    return rho, leaving, observables[leave]


def reference_ket_probe_evolution(backend, amplitudes, dts, probe_amplitudes, probe_dts):
    """``reference_probe_evolution`` of a relaxation-free lab, on kets.

    Set up by ``_reference_probe_pairs``, the pulse's ket takes
    ``u @ psi`` per slice from |00>, and each probe's ket advances
    through its window as a stacked ``u @ psi[..., None]``, gathered
    step by step as there.  A window that ends before the pulse does is
    completed by the backward product W_m = W_{m+1} @ U_m, with
    W_{M-1} = U_{M-1}, at its end.  Returns the pulse's final ket and
    the probes' (B, 4) completed kets, as ``_evolve`` documents them for
    a relaxation-free lab (with no probes, nothing is evolved).  The
    package's routines must equal this one bit for bit: ``evolve_open``
    the ``np.outer(psi, psi^*)`` of the pulse's ket, and ``_evolve`` the
    probes' kets.
    """
    m_slices = len(dts)
    u, relaxation, _, enter, leave, which = _reference_probe_pairs(
        backend, amplitudes, dts, probe_amplitudes, probe_dts
    )
    if relaxation is not None:
        raise ValueError("a lab with T1 or T2 carries densities, not kets")
    kets = np.empty((m_slices + 1, 4), dtype=np.complex128)
    kets[0] = ket("00")
    for m in range(m_slices):
        kets[m + 1] = u[m] @ kets[m]
    if not len(probe_dts):
        return kets[m_slices], np.empty((0, 4), dtype=np.complex128)

    order = np.argsort(enter - leave, kind="stable")
    lengths = (leave - enter)[order]
    stack = kets[enter[order]]
    for step in range(lengths[0]):
        rows = order[: np.count_nonzero(lengths > step)]
        at = enter[rows] + step
        stack[: len(rows)] = (u[which[rows, at]] @ stack[: len(rows), :, None])[:, :, 0]
    leaving = np.empty_like(stack)
    leaving[order] = stack

    backward = np.empty((m_slices, 4, 4), dtype=np.complex128)
    backward[m_slices - 1] = u[m_slices - 1]
    for m in range(m_slices - 2, -1, -1):
        backward[m] = backward[m + 1] @ u[m]
    early = leave < m_slices
    leaving[early] = (backward[leave[early]] @ leaving[early, :, None])[:, :, 0]
    return kets[m_slices], leaving


def reference_readouts(rhos: np.ndarray, observables: np.ndarray) -> np.ndarray:
    """``_expectations`` as the real part of the trace of each stacked product rho O.

    ``rhos`` is (B, 4, 4) and ``observables`` (L, 4, 4) or (B, L, 4, 4),
    as there.  It builds every 4 x 4 product to keep its diagonal.  The
    package's kernel sums the same terms in another order, so it must
    agree with this one to rounding, not bit for bit.
    """
    return np.trace(rhos[:, None] @ observables, axis1=-2, axis2=-1).real


def reference_require_density(rho: np.ndarray) -> np.ndarray:
    """``require_density`` written out on its own, every matrix decided by ``eigvalsh``.

    The package's check must accept and reject exactly as this one does,
    with the same message.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2] or not rho.shape[-1]:
        raise ValueError(f"density matrix must be nonempty and square, got shape {rho.shape}")
    stack = rho.reshape((-1,) + rho.shape[-2:])
    with np.errstate(invalid="ignore", over="ignore"):
        herm_dev = np.max(np.abs(stack - stack.conj().swapaxes(-1, -2)), axis=(-2, -1))
        tr_dev = np.abs(np.trace(stack, axis1=-2, axis2=-1).real - 1.0)
    shaped = (herm_dev <= DENSITY_TOL) & (tr_dev <= DENSITY_TOL)
    lo = np.zeros(len(stack))
    lo[shaped] = np.linalg.eigvalsh(stack[shaped]).min(axis=-1)
    bad = ~shaped | ~(lo >= -DENSITY_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        name = "density matrix"
        if rho.ndim > 2:
            name += f" {list(map(int, np.unravel_index(i, rho.shape[:-2])))}"
        if not herm_dev[i] <= DENSITY_TOL:
            raise ValueError(f"{name} is not Hermitian: max |H - H^dag| = {herm_dev[i]:.3e}")
        if not tr_dev[i] <= DENSITY_TOL:
            raise ValueError(f"{name} trace deviates from 1 by {tr_dev[i]:.3e}")
        raise ValueError(f"{name} has negative eigenvalue {lo[i]:.3e}")
    return rho


def rotated_controls(amplitudes: np.ndarray, phi: float) -> np.ndarray:
    """(M, 4) amplitudes with both spins' (x, y) drives turned by ``phi`` together.

    Rz(phi) (x) Rz(phi) commutes with Z(x)Z, fixes |00> up to a phase and
    leaves the singlet alone, so the Bell problem's fidelity keeps its
    value on any apparatus whose x and y scales are equal per spin.
    """
    c, s = math.cos(phi), math.sin(phi)
    x, y = amplitudes[:, 0::2], amplitudes[:, 1::2]
    turned = np.empty_like(amplitudes)
    turned[:, 0::2] = c * x - s * y
    turned[:, 1::2] = s * x + c * y
    return turned


def swapped_channels(amplitudes: np.ndarray) -> np.ndarray:
    """(M, 4) amplitudes with spin 1's (x, y) drives and spin 2's exchanged.

    SWAP commutes with Z(x)Z, fixes |00> and flips the singlet's sign, so
    the Bell problem's fidelity keeps its value when the apparatus's
    spins are exchanged too (``swapped_spins``).
    """
    return amplitudes[:, [2, 3, 0, 1]]


def swapped_spins(apparatus):
    """A ``SystemModel`` or ``ExperimentConfig`` with its two spins' scales, T1 and T2 exchanged."""
    scale = apparatus.amplitude_scale
    return dataclasses.replace(
        apparatus, amplitude_scale=scale[2:] + scale[:2],
        t1_s=apparatus.t1_s[::-1], t2_s=apparatus.t2_s[::-1],
    )


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
) -> GradientBundle:
    """``fidelity_and_gradients`` with the slice axis first and dense E_c.

    The package's routine must equal this one bit for bit.

    J = |c|^2 with c = <target| U_M ... U_1 |psi0>.  For the amplitude
    derivatives, the Fréchet derivative of each slice exponential in the
    eigenbasis of H_m is (V^dag E V) o Gamma with

        Gamma_kl = -i dt exp(-i dt (w_k + w_l)/2) sinc(dt (w_k - w_l)/2),

    which is smooth through eigenvalue degeneracies.  The duration
    derivative stretches all slices together: dU_m/dT = (-i H_m/M) U_m.
    """
    psi0 = require_state(psi0)
    target = require_state(target)
    m_slices = pulse.n_slices
    dt = pulse.slice_duration_s

    u, hams, w, v = slice_propagators(model, pulse.amplitudes_hz, dt)

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


def bits(x):
    """The int64 words of a float or complex value or array: they tell -0.0 from +0.0."""
    return np.ascontiguousarray(x, dtype=np.result_type(x, np.float64)).view(np.int64)


def outcome(check, stack):
    """The error message of ``check(stack)``, or None when it passes."""
    try:
        check(stack)
    except ValueError as exc:
        return str(exc)
    return None
