"""Piecewise-constant pulse dynamics for two coupled spins.

The system is a pair of spin-1/2 nuclei with a fixed ZZ coupling and four
independent transverse control channels (x and y drive per spin).  A pulse
is an M x 4 grid of amplitudes in Hz held constant over equal slices of a
total duration T.  With g the coupling in Hz, the slice Hamiltonian in
angular frequency units is

    H_m = (pi/2) g Z(x)Z + pi [ux1 X(x)I + uy1 Y(x)I + ux2 I(x)X + uy2 I(x)Y]

and the slice propagator is exp(-i H_m T/M).

Fidelity gradients here are exact, not first order in the slice length:
each slice exponential is differentiated through its eigendecomposition
(divided-difference / Daleckii-Krein form), and the duration derivative
uses the uniform-stretch convention dU_m/dT = (-i H_m / M) U_m.  A central
finite-difference cross-check lives in the test suite.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .linalg import pauli_string, require_state

# Control operators in channel order; module-level so they are built once.
_CONTROL_OPS = np.stack(
    [
        pauli_string("X", "I"),
        pauli_string("Y", "I"),
        pauli_string("I", "X"),
        pauli_string("I", "Y"),
    ]
)
_ZZ = pauli_string("Z", "Z")
# Each row j of pi * E_c holds one nonzero entry: its column and its value,
# both (C, 4).  The amplitude gradient multiplies by these alone.
_CONTROL_COLUMNS = np.argmax(_CONTROL_OPS != 0, axis=2)
_CONTROL_VALUES = np.pi * np.take_along_axis(
    _CONTROL_OPS, _CONTROL_COLUMNS[:, :, None], axis=2
)[:, :, 0]

PULSE_HEADER = "slice,ux1_hz,uy1_hz,ux2_hz,uy2_hz"


def as_integer(value, name: str) -> int:
    """``value`` as an int; a bool or a non-integer raises a ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_real(value, name: str) -> float:
    """``value`` as a float; a bool or a non-real raises a ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SystemModel:
    """Nominal model of the two-spin system: just the ZZ coupling in Hz."""

    g_hz: float

    def __post_init__(self):
        g_hz = as_real(self.g_hz, "g_hz")
        if not (math.isfinite(g_hz) and g_hz > 0):
            raise ValueError(f"g_hz must be positive and finite, got {g_hz}")
        object.__setattr__(self, "g_hz", g_hz)


@dataclass(frozen=True)
class PulseSequence:
    """A duration T in seconds plus an (M, 4) amplitude grid in Hz.

    Channel order is ux1, uy1, ux2, uy2.  The duration is stored as a
    Python float, and the array is copied to float64 and frozen at
    construction; treat instances as immutable values.  A bool, complex or
    non-scalar duration and complex amplitudes are rejected, not cast.
    """

    duration_s: float
    amplitudes_hz: np.ndarray

    def __post_init__(self):
        duration = as_real(self.duration_s, "duration_s")
        if not (math.isfinite(duration) and duration > 0):
            raise ValueError(f"duration_s must be positive and finite, got {duration}")
        object.__setattr__(self, "duration_s", duration)
        if np.iscomplexobj(self.amplitudes_hz):
            raise ValueError("amplitudes_hz must be real, got complex entries")
        amps = np.array(self.amplitudes_hz, dtype=np.float64, copy=True)
        if amps.ndim != 2 or amps.shape[1] != 4 or amps.shape[0] < 1:
            raise ValueError(
                f"amplitudes_hz must have shape (M, 4) with M >= 1, got {amps.shape}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes_hz contains non-finite entries")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes_hz", amps)

    @property
    def n_slices(self) -> int:
        return self.amplitudes_hz.shape[0]

    @property
    def slice_duration_s(self) -> float:
        return self.duration_s / self.n_slices

    def with_amplitudes(self, amplitudes_hz: np.ndarray) -> "PulseSequence":
        return PulseSequence(self.duration_s, amplitudes_hz)

    def with_duration(self, duration_s: float) -> "PulseSequence":
        return PulseSequence(duration_s, self.amplitudes_hz)


@dataclass(frozen=True)
class GradientBundle:
    """Fidelity plus its derivatives for one pulse.

    ``fidelity_and_gradients`` fills all three exactly.  A measured bundle
    (``optimizer.finite_diff_gradients``) holds NaN as its fidelity: its
    probes never read out the pulse itself.
    """

    fidelity: float
    grad_amplitudes: np.ndarray = field(repr=False)  # (M, 4), dJ/du in 1/Hz
    grad_duration: float = 0.0  # dJ/dT in 1/s


def random_pulse(
    m_slices: int,
    duration_s: float,
    amplitude_hz: float,
    rng: np.random.Generator,
) -> PulseSequence:
    """Uniform random amplitudes in [-amplitude_hz, +amplitude_hz]."""
    amps = rng.uniform(-amplitude_hz, amplitude_hz, size=(m_slices, 4))
    return PulseSequence(duration_s, amps)


def slice_propagators(model: SystemModel, amplitudes_hz: np.ndarray, dt):
    """Slice propagators exp(-i H_m dt_m), with the Hamiltonians and eigensystems.

    ``amplitudes_hz`` is the (M, 4) grid of applied amplitudes and ``dt``
    the slice duration, a scalar or one value per slice.  Returns
    (U, H, w, v): propagators and Hamiltonians (rad/s), each (M, 4, 4),
    and the eigenvalues w (M, 4) and eigenvectors v (M, 4, 4) of H_m.
    """
    drift = (np.pi / 2.0) * model.g_hz * _ZZ
    ctrl = np.pi * np.einsum("mc,cij->mij", amplitudes_hz, _CONTROL_OPS)
    hams = drift[None, :, :] + ctrl
    w, v = np.linalg.eigh(hams)
    phases = np.exp(-1j * w * np.reshape(dt, (-1, 1)))
    u = np.einsum("mij,mj,mkj->mik", v, phases, v.conj())
    return u, hams, w, v


def model_fidelity(
    model: SystemModel,
    pulse: PulseSequence,
    psi0: np.ndarray,
    target: np.ndarray,
    decomposition=None,
) -> float:
    """|<target| U_M ... U_1 |psi0>|^2 under the nominal model.

    ``decomposition``, when given, is ``slice_propagators`` of this pulse
    (its applied amplitudes and slice duration), and is used as is.
    """
    target = require_state(target)
    psi = require_state(psi0)
    if decomposition is None:
        decomposition = slice_propagators(model, pulse.amplitudes_hz, pulse.slice_duration_s)
    for u_m in decomposition[0]:
        psi = u_m.dot(psi)
    return float(abs(np.vdot(target, psi)) ** 2)


def fidelity_and_gradients(
    model: SystemModel,
    pulse: PulseSequence,
    psi0: np.ndarray,
    target: np.ndarray,
    decomposition=None,
) -> GradientBundle:
    """Exact J, dJ/du (all M x 4 amplitudes) and dJ/dT in one pass.

    J = |c|^2 with c = <target| U_M ... U_1 |psi0>.  For the amplitude
    derivatives, the Fréchet derivative of each slice exponential in the
    eigenbasis of H_m is (V^dag E V) o Gamma with

        Gamma_kl = -i dt exp(-i dt (w_k + w_l)/2) sinc(dt (w_k - w_l)/2),

    which is smooth through eigenvalue degeneracies.  The duration
    derivative stretches all slices together: dU_m/dT = (-i H_m/M) U_m.
    ``decomposition`` is as in ``model_fidelity``; the result is the same
    bit for bit with or without it.

    The forward and backward sweeps apply each slice with 2-D
    ``ndarray.dot``, the BLAS call ``@`` makes on 2-D operands, so they
    keep the bits of the oracle's ``@`` loops.  The per-slice
    contractions hold the slice axis last and contiguous, so ``einsum``
    runs one long inner loop over slices while each output element still
    adds the same products in the same order as the slice-first form
    (``tests/oracles.py``); the result is the same bit for bit.  Each row
    of pi * E_c has one nonzero entry (``_CONTROL_COLUMNS``,
    ``_CONTROL_VALUES``): the other three products of a row are exact
    signed zeros that never change a partial sum, so V^dag E V is summed
    over that entry alone.  ``grad_amplitudes`` is C-ordered: the
    optimizer's step and step-size sums add in memory order, so an
    F-ordered array of equal values would move their bits.
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
        fwd[m + 1] = u[m].dot(fwd[m])
    u_dag = u.conj().transpose(0, 2, 1)
    bwd = np.empty((m_slices + 1, 4), dtype=np.complex128)
    bwd[m_slices] = target
    for m in range(m_slices, 0, -1):
        bwd[m - 1] = u_dag[m - 1].dot(bwd[m])

    c = np.vdot(target, fwd[-1])
    fidelity = float(abs(c) ** 2)

    # Divided-difference kernel Gamma per slice, shape (M, 4, 4).
    diff = w[:, :, None] - w[:, None, :]
    mean = w[:, :, None] + w[:, None, :]
    gamma = (-1j * dt) * np.exp(-0.5j * dt * mean) * np.sinc(dt * diff / (2.0 * np.pi))

    # Slice axis last: vt[k, l, m] = v[m, k, l], and likewise for gamma.
    vt = np.ascontiguousarray(v.transpose(1, 2, 0))
    vct = vt.conj()
    gamma_t = np.ascontiguousarray(gamma.transpose(1, 2, 0))

    # E_c in each slice eigenbasis for all channels: (C, 4, 4, M).
    e_eig = np.einsum("jim,cj,cjlm->cilm", vct, _CONTROL_VALUES, vt[_CONTROL_COLUMNS])
    du = np.einsum("ijm,cjlm,klm->cikm", vt, e_eig * gamma_t, vct)

    # dc/du[m, c] = chi_m^dag dU_mc psi_{m-1}.
    dc_amp = np.einsum("im,cijm,jm->mc", bwd[1:].conj().T, du, fwd[:-1].T, order="C")
    grad_amp = 2.0 * np.real(np.conj(c) * dc_amp)

    # dc/dT = sum_m chi_m^dag (-i H_m / M) psi_m.
    hpsi = np.einsum("mij,mj->mi", hams, fwd[1:])
    dc_t = np.sum(np.einsum("mi,mi->m", bwd[1:].conj(), (-1j / m_slices) * hpsi))
    grad_t = float(2.0 * np.real(np.conj(c) * dc_t))

    return GradientBundle(fidelity, grad_amp, grad_t)


def write_pulse_csv(pulse: PulseSequence, path) -> None:
    """Write a pulse as CSV with a metadata comment line.

    Format: a first line `# T_seconds=<repr> M=<int>`, then a header
    `slice,ux1_hz,uy1_hz,ux2_hz,uy2_hz` and one row per slice.  Floats are
    written with repr so a read-back is bit-exact.
    """
    lines = [f"# T_seconds={pulse.duration_s!r} M={pulse.n_slices}", PULSE_HEADER]
    for m in range(pulse.n_slices):
        row = ",".join(repr(float(x)) for x in pulse.amplitudes_hz[m])
        lines.append(f"{m},{row}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_pulse_csv(path) -> PulseSequence:
    """Read a pulse written by write_pulse_csv."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path}: missing '# T_seconds=... M=...' metadata line")
    meta = dict(
        item.split("=", 1) for item in lines[0].lstrip("#").split() if "=" in item
    )
    try:
        duration = float(meta["T_seconds"])
        m_slices = int(meta["M"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: bad metadata line {lines[0]!r}") from exc
    if lines[1:2] != [PULSE_HEADER]:
        found = repr(lines[1]) if len(lines) > 1 else "end of file"
        raise ValueError(f"{path}: expected header {PULSE_HEADER!r}, got {found}")
    rows = lines[2:]
    if len(rows) != m_slices:
        raise ValueError(f"{path}: metadata says M={m_slices} but found {len(rows)} rows")
    try:
        amps = np.empty((m_slices, 4), dtype=np.float64)
        for i, row in enumerate(rows):
            parts = row.split(",")
            if len(parts) != 5 or int(parts[0]) != i:
                raise ValueError(f"malformed row {i}: {row!r}")
            amps[i] = [float(x) for x in parts[1:]]
        return PulseSequence(duration, amps)
    except ValueError as exc:  # a value the file holds: name the file
        raise ValueError(f"{path}: {exc}") from exc
