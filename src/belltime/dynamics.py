"""Piecewise-constant pulse dynamics for two coupled spins.

The system is a pair of spin-1/2 nuclei with a fixed ZZ coupling and four
independent transverse control channels (x and y drive per spin).  A pulse
is an M x 4 grid of amplitudes in Hz held constant over equal slices of a
total duration T.  With g the coupling in Hz, the slice Hamiltonian in
angular frequency units is

    H_m = (pi/2) g Z(x)Z + pi [ux1 X(x)I + uy1 Y(x)I + ux2 I(x)X + uy2 I(x)Y]

and the slice propagator is exp(-i H_m T/M).

Which function owns what:

* ``SystemModel`` describes the apparatus, the design model's and the
  emulated lab's alike, and checks each of its parameters; its
  ``applied_waveforms`` is the apparatus's waveform map.
  ``DESIGN_FIELDS`` names the fields the design model knows, and
  ``require_ideal`` holds the design path to them.
* ``read_number`` is the one reader of a number in outside text: run
  documents (``runconfig``), command-line flags (``cli``) and pulse
  files (``read_pulse_csv``).  The range checks, ``as_positive``,
  ``as_nonnegative`` and ``as_positive_integer`` on ``as_real`` and
  ``as_integer``, serve every module that takes a number in.
* ``slice_propagators`` builds the model's propagators through each
  H_m's eigensystem (LAPACK ``eigh``), which the exact gradients need.
* ``closed_form_propagators`` builds the emulated lab's, which need no
  eigensystem, in closed form, and derives that form.
* The apparatus's two maps are functions of slice durations, with their
  factors exp(-dt/t) from ``_decay_factors``: ``_low_pass`` distorts
  programmed waveforms (for ``applied_waveforms``), and
  ``_relaxation_matrices`` is the T1/T2 map
  of one slice, which ``_relaxation_table`` tables per distinct
  duration and ``_relaxed`` applies to stacks.
* ``model_fidelity`` and ``fidelity_and_gradients`` evaluate a pulse on
  the design model, the second with exact gradients (the test suite
  cross-checks them by central differences).
* ``write_pulse_csv`` and ``read_pulse_csv`` store a pulse bit-exactly.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, field, fields

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

# The spellings of a number in outside text, which read_number alone accepts,
# each matched against the whole text: a real is an optionally signed ASCII
# decimal with an optional exponent, which takes every finite float's repr, or
# the repr of an infinity; an integer is optionally signed ASCII digits.
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|-?inf")
_INTEGER = re.compile(r"[+-]?[0-9]+")
# The whitespace read_pulse_csv trims around a line and splits the metadata
# line at: ASCII only, where str.strip() and str.split() take any Unicode space.
_ASCII_SPACE = " \t\n\r\f\v"

# The largest turn t lambda+ (rad) of a slice in closed_form_propagators.  Its U
# drifts from unitary as eps |H| dt, measured 1.8e-12 at 1e4 rad: 50 such slices
# stay within require_density's 1e-10.  The acceptance runs turn <= ~0.2 rad.
MAX_SLICE_TURN_RAD = 1e4


def read_number(text: str, kind: type = float):
    """``text`` as a ``kind``, float or int; a ValueError if it is spelled otherwise.

    The one reader of a number in outside text: a run document's string
    value, a command-line flag and a pulse file's.  A real must match
    ``_DECIMAL`` and an integer ``_INTEGER`` as a whole, so surrounding
    or inner spaces, underscores and non-ASCII digits, which ``float``
    and ``int`` would take, are refused.  So are ``nan`` and every
    spelling of an infinity but ``inf`` and ``-inf``, which
    ``RunConfig.as_document_dict`` writes.  The caller checks the range
    (``as_positive`` and its kin).
    """
    spelling, what = (_INTEGER, "an integer") if kind is int else (_DECIMAL, "a number")
    if spelling.fullmatch(text) is None:
        raise ValueError(f"{text!r} is not {what} as belltime spells one")
    return kind(text)


def as_integer(value, name: str) -> int:
    """``value`` as an int; a bool or a non-integer raises a ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_positive_integer(value, name: str) -> int:
    """``value`` as an int >= 1 (``as_integer``); else a ValueError naming ``name``."""
    value = as_integer(value, name)
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return value


def as_real(value, name: str) -> float:
    """``value`` as a float; a bool or a non-real raises a ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def as_positive(value, name: str) -> float:
    """``value`` as a positive, finite float (``as_real``); else a ValueError naming ``name``."""
    value = as_real(value, name)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def as_nonnegative(value, name: str) -> float:
    """``value`` as a finite float >= 0 (``as_real``); else a ValueError naming ``name``."""
    value = as_real(value, name)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _as_positives(value, name: str, count: int, finite: bool = False) -> tuple[float, ...]:
    """The ``count`` entries of a sequence ``value`` as positive floats, finite if ``finite``.

    Each entry is taken by ``as_real``; a ValueError names ``name``.
    """
    entries = value.tolist() if isinstance(value, np.ndarray) else value
    if not isinstance(entries, (tuple, list)) or len(entries) != count:
        raise ValueError(f"{name} must hold {count} values, got {value!r}")
    reals = tuple(as_real(v, name) for v in entries)
    if not all(v > 0 and (v < math.inf or not finite) for v in reals):
        raise ValueError(f"{name} needs {count} {'finite ' * finite}positive entries, got {reals}")
    return reals


@dataclass(frozen=True)
class SystemModel:
    """The two-spin apparatus: the design model's, or the emulated lab's hidden one.

    ``g_hz`` is the ZZ coupling, 217.4 Hz by default.  The other fields
    say how the apparatus departs from the ideal, and default to it:
    ``amplitude_scale`` multiplies the channels (ux1, uy1, ux2, uy2),
    ``distortion_tau_s`` is the time constant of the waveforms' low-pass
    (0: none), and ``t1_s`` and ``t2_s`` are the relaxation times of
    spin 1 and spin 2 (``math.inf``: none), with T2 <= 2 T1 + 1e-12 per
    spin.  Each field is checked here alone.  ``relaxation_times`` is
    derived from them: T1 of spin 1 and 2, then T2 capped at 2 T1, as
    ``_relaxation_table`` takes them, or () when none is finite and the
    apparatus skips relaxation.  ``ExperimentConfig`` builds its hidden
    apparatus as one, and the lab reads all of it.  ``SystemModel()`` is
    the default of both: of a run's design model and of the lab's
    apparatus.  The design model's propagation and gradients know only
    the ``DESIGN_FIELDS``: ``model_fidelity``, ``fidelity_and_gradients``
    and a run refuse a model whose other fields leave their defaults
    (``require_ideal``).
    """

    g_hz: float = 217.4
    amplitude_scale: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    distortion_tau_s: float = 0.0
    t1_s: tuple[float, float] = (math.inf, math.inf)
    t2_s: tuple[float, float] = (math.inf, math.inf)

    def __post_init__(self):
        scale = _as_positives(self.amplitude_scale, "amplitude_scale", 4, finite=True)
        tau = as_nonnegative(self.distortion_tau_s, "distortion_tau_s")
        t1, t2 = _as_positives(self.t1_s, "t1_s", 2), _as_positives(self.t2_s, "t2_s", 2)
        for spin, (one, two) in enumerate(zip(t1, t2), start=1):
            if two > 2.0 * one + 1e-12:
                raise ValueError(f"t2_s of spin {spin} is {two}, past 2 t1_s = {2 * one}")
        for f, value in zip(fields(self), (as_positive(self.g_hz, "g_hz"), scale, tau, t1, t2)):
            object.__setattr__(self, f.name, value)
        # derived, not a field: T2 may pass 2 T1 by the 1e-12 above, and the cap keeps a channel
        times = t1 + tuple(min(two, 2.0 * one) for one, two in zip(t1, t2))
        object.__setattr__(self, "relaxation_times", times if min(times) < math.inf else ())

    def applied_waveforms(self, programmed: np.ndarray, durations) -> np.ndarray:
        """The apparatus's waveform map: B programmed waveforms as the spins receive them.

        ``programmed`` is (B, M, 4) and ``durations`` the (B, M) slice
        durations, or one duration for every slice.  Each waveform is
        low-passed (``_low_pass``; not at ``distortion_tau_s`` 0), then
        each channel is multiplied by its ``amplitude_scale``.  Returns a
        new C-ordered (B, M, 4) array.  The scale is one product per
        entry, so a waveform has the same bits alone as in any stack.
        """
        if self.distortion_tau_s:
            programmed = _low_pass(programmed, durations, self.distortion_tau_s)
        return np.multiply(programmed, self.amplitude_scale, order="C")


# The SystemModel fields the design model knows.  Its propagation and
# gradients read them, a run document's ``model`` section holds them as its
# keys, and ``require_ideal`` refuses a model whose other fields leave their
# defaults.  Teaching the model a field of the apparatus adds it here.
DESIGN_FIELDS = ("g_hz",)


def require_ideal(model: SystemModel) -> SystemModel:
    """``model``, unless a field outside ``DESIGN_FIELDS`` leaves its default: a ValueError names it.

    The design model refuses a scale, low-pass or relaxation time it
    would ignore.  The message names the field under ``model``,
    ``model.distortion_tau_s`` say.
    """
    for f in fields(SystemModel):
        if f.name not in DESIGN_FIELDS and (value := getattr(model, f.name)) != f.default:
            raise ValueError(f"model.{f.name}: the design model takes only {f.default!r}, got {value!r}")
    return model


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
        object.__setattr__(self, "duration_s", as_positive(self.duration_s, "duration_s"))
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
    and the eigenvalues w (M, 4) and eigenvectors v (M, 4, 4) of H_m;
    U = V e^{-i W dt} V^dag.

    The control terms are one (M, 4) @ (4, 16) product.  Every entry of
    E_c is 0, +-1 or +-i, so each real and imaginary part of a sum holds
    one exact product and exact zeros, and adding the drift leaves the
    bits of the ``einsum`` form (``tests/oracles.py``).
    """
    drift = (np.pi / 2.0) * model.g_hz * _ZZ
    ctrl = np.pi * (amplitudes_hz @ _CONTROL_OPS.reshape(4, 16))
    hams = drift[None, :, :] + ctrl.reshape(-1, 4, 4)
    w, v = np.linalg.eigh(hams)
    phases = np.exp(-1j * w * np.reshape(dt, (-1, 1)))
    return np.einsum("mij,mj,mkj->mik", v, phases, v.conj()), hams, w, v


def closed_form_propagators(model: SystemModel, applied_hz: np.ndarray, dt) -> np.ndarray:
    """Slice propagators exp(-i H_m dt_m) in closed form, with no eigendecomposition.

    ``applied_hz`` is the (M, 4) grid of applied amplitudes and ``dt``
    the slice duration, a scalar or one value per slice; returns the
    (M, 4, 4) propagators of ``slice_propagators``, to rounding.

    The form rests on the structure of H = a Z(x)Z + A(x)I + I(x)B, with
    a = pi g/2, A = pi (ux1 X + uy1 Y) and B = pi (ux2 X + uy2 Y), so
    A^2 = p^2 and B^2 = q^2 (Khaneja, Brockett & Glaser, PRA 63, 032308
    (2001)).  Z(x)Z anticommutes with A(x)I and I(x)B, so H^2 = a^2 +
    p^2 + q^2 + 2R with R = A(x)B, which commutes with H and has the
    eigenvalues +-pq.  Hence

        U = exp(-i H t) = C(H^2) - i H S(H^2),  C(x) = cos(t sqrt x),
                                               S(x) = sin(t sqrt x)/sqrt x,

    each function of H^2 being f0 + f1 R with f0 = (f+ + f-)/2 and
    f1 = (f+ - f-)/(2pq), f+- its values at lambda+-^2 = a^2 + (p +- q)^2.
    With mu = (lambda+ + lambda-)/2 and delta = pq/mu = (lambda+ -
    lambda-)/2, C0 = cos(t mu) cos(t delta) and S0 = (S+ + S-)/2, where
    S+- = sin(t lambda+-)/lambda+-; the divided differences are written
    in product form:

        C1 = -sin(t mu) sin(t delta) / (delta mu),
        S1 = (cos(t mu) sin(t delta)/delta - S-) / (mu lambda+),

    so nothing cancels, and p = 0, q = 0 and p = q need no branch
    (lambda+- >= a > 0, and sin(t delta)/delta is t sinc(t delta/pi)).
    Expanded over the Pauli strings, U = C0 + C1 R - i H (S0 + S1 R) is,
    with x1 = pi ux1 and so on, k1 = S0 + q^2 S1 and k2 = S0 + p^2 S1,

        U = C0 II - i a S0 ZZ - i k1 (x1 XI + y1 YI) - i k2 (x2 IX + y2 IY)
            + C1 A(x)B - i a S1 (ZA)(x)(ZB),

    one term per entry class (which spins flip).  Only real elementwise
    arithmetic runs (``hypot``, ``sin`` and ``cos``, no LAPACK call),
    each row on its own values, so a row has the same bits alone as in
    any stack; it agrees with ``scipy.linalg.expm`` to about 1e-15.  The
    sines and cosines take separately rounded angles, so the error grows
    as eps |H_m| dt_m: unitary to 4e-16 at 1 rad, 2e-14 at 100 rad and
    2e-12 at 1e4 rad, where the eigendecomposition stays unitary.  A
    slice that turns through more than ``MAX_SLICE_TURN_RAD``, or through
    an angle that overflows, raises a ValueError before any product that
    could overflow; the emulator's slices turn through well under one
    radian.
    """
    a = (np.pi / 2.0) * model.g_hz
    t = np.reshape(dt, (-1,))
    with np.errstate(over="ignore"):  # an angle that overflows is rejected below
        x1, y1, x2, y2 = np.pi * np.asarray(applied_hz, dtype=np.float64).T
        p, q = np.hypot(x1, y1), np.hypot(x2, y2)
        lam_plus = np.hypot(a, p + q)
        turn = t * lam_plus
    if not np.all(turn <= MAX_SLICE_TURN_RAD):  # NaN fails too
        raise ValueError(
            f"a slice turns {np.max(turn):.3g} rad, past MAX_SLICE_TURN_RAD = {MAX_SLICE_TURN_RAD:g}"
        )
    lam_minus = np.hypot(a, p - q)
    mu = 0.5 * (lam_plus + lam_minus)
    delta = p * q / mu
    cos_mu, sin_mu = np.cos(t * mu), np.sin(t * mu)
    sin_delta = t * np.sinc(t * delta / np.pi)  # sin(t delta)/delta, t at delta = 0
    s_plus = np.sin(turn) / lam_plus
    s_minus = np.sin(t * lam_minus) / lam_minus
    c0 = cos_mu * np.cos(t * delta)
    c1 = -sin_mu * sin_delta / mu
    s0 = 0.5 * (s_plus + s_minus)
    s1 = (cos_mu * sin_delta - s_minus) / (mu * lam_plus)
    d, e = a * s0, a * s1
    k1, k2 = s0 + (q * q) * s1, s0 + (p * p) * s1
    k1x, k1y, k2x, k2y = k1 * x1, k1 * y1, k2 * x2, k2 * y2
    # with alpha = x1 + i y1 and beta = x2 + i y2, the A(x)B entries are
    # conj(alpha) conj(beta) = pp - i qq, conj(alpha) beta = pp2 + i qq2 and their conjugates
    pp, qq = x1 * x2 - y1 * y2, x1 * y2 + y1 * x2
    pp2, qq2 = x1 * x2 + y1 * y2, x1 * y2 - y1 * x2
    pc, qe, pe, qc = pp * c1, qq * e, pp * e, qq * c1
    pc2, qe2, pe2, qc2 = pp2 * c1, qq2 * e, pp2 * e, qq2 * c1
    parts = [  # real and imaginary part of each entry, row by row
        c0, -d, -k2y, -k2x, -k1y, -k1x, pc - qe, -(pe + qc),
        k2y, -k2x, c0, d, pc2 - qe2, pe2 + qc2, -k1y, -k1x,
        k1y, -k1x, pc2 + qe2, pe2 - qc2, c0, d, -k2y, -k2x,
        pc + qe, qc - pe, k1y, -k1x, k2y, -k2x, c0, -d,
    ]
    return np.ascontiguousarray(np.array(parts).T).view(np.complex128).reshape(-1, 4, 4)


def _decay_factors(durations, times_s) -> tuple[np.ndarray, np.ndarray]:
    """exp(-dt/t) for each distinct slice duration dt of ``durations`` and each time t.

    ``durations`` is one duration, as a pulse's slices share, or an array
    of them, as a batch of probes has.  Returns the (D, len(times_s))
    table over the D distinct durations and the row of each duration in
    it: 0 for one duration, else an array shaped like ``durations``.
    ``math.exp`` runs once per duration (``np.exp`` can round differently
    in the last bit), so a slice has the same factors alone as in any
    batch.  One duration skips ``np.unique``, which costs more than the
    rest of the table.  An array is tabled as ``np.unique`` tables it,
    sorted, but only the entries that differ from its first are sorted:
    almost every duration of a probe batch is the pulse's T/M, and the
    first is put in its place among the others.
    """
    if np.ndim(durations) == 0:
        distinct, index = [durations], 0
    elif not np.size(durations):
        distinct, index = [], np.zeros(np.shape(durations), dtype=np.intp)
    else:
        flat = np.ravel(durations)
        moved = flat != flat[0]
        others, inverse = np.unique(flat[moved], return_inverse=True)
        at = int(np.searchsorted(others, flat[0]))
        index = np.full(flat.shape, at)
        index[moved] = inverse + (inverse >= at)
        others = others.tolist()
        distinct = others[:at] + [float(flat[0])] + others[at:]
        index = index.reshape(np.shape(durations))
    table = np.array([[math.exp(-dt / t) for t in times_s] for dt in distinct])
    return table.reshape(len(distinct), len(times_s)), index  # (0, T) with no durations


def _low_pass(programmed: np.ndarray, durations, tau_s: float) -> np.ndarray:
    """First-order low-pass distortion of a stack of B programmed waveforms.

    ``programmed`` is (B, M, 4) and ``durations`` the (B, M) slice
    durations dt_m, or one duration for every slice.  With the factors
    k_m = exp(-dt_m/tau_s) of ``_decay_factors``, per waveform and channel
    y[m] = (1 - k_m) u[m] + k_m y[m-1] with y[-1] = 0.

    The recursion runs slice-major, on rows of 4B values with y[-1] as
    the first row, with two in-place ufunc calls per slice.  Each output
    takes the same two products and one sum as the formula, so a waveform
    has the same bits alone as in any stack.  Returns a (B, M, 4) view.
    """
    table, index = _decay_factors(durations, (tau_s,))
    n_rows, m_slices, _ = programmed.shape
    factors = np.empty((m_slices, n_rows, 4))
    factors[...] = table[index, 0].T[..., None]  # (M, B, 1), or one factor
    out = np.empty((m_slices + 1, n_rows, 4))
    out[0] = 0.0
    drive = np.subtract(1.0, factors, out=out[1:])
    np.multiply(drive, programmed.transpose(1, 0, 2), out=drive)
    rows = out.reshape(m_slices + 1, -1)
    carried = np.empty(4 * n_rows)
    for k_m, before, row in zip(factors.reshape(m_slices, -1), rows, rows[1:]):
        np.multiply(k_m, before, carried)
        np.add(row, carried, row)  # row: slice m's drive, then its output
    return drive.transpose(1, 0, 2)


def _relaxation_matrices(factors: np.ndarray) -> np.ndarray:
    """The T1/T2 map of both spins over one slice, one real 16 x 16 matrix per row of ``factors``.

    ``factors`` is (D, 4): per row a_1, a_2, e_1, e_2 with a_s =
    exp(-dt/T1_s) and e_s = exp(-dt/T2_s).  The map is amplitude damping
    plus dephasing (Nielsen & Chuang, section 8.3) in closed form: per
    spin, 1 - a_s of the |1> population decays to |0>, and the
    coherences between |0> and |1> shrink by e_s.  On one spin's (ket,
    bra) pair, in the order 00, 01, 10, 11, that is the 4 x 4 map

        [[1, 0, 0, 1 - a_s], [0, e_s, 0, 0], [0, 0, e_s, 0], [0, 0, 0, a_s]].

    A matrix acts on the row-major vec(rho), indexed (ket spin 1, ket
    spin 2, bra spin 1, bra spin 2), and is the elementwise product of
    the two spins' maps, each spread over the other spin's indices.
    Every entry is one product of two factors.
    """
    a, e = factors[:, :2, None], factors[:, 2:, None]
    spins = np.zeros((len(factors), 2, 16))  # (row, spin, the 4 x 4 map row-major)
    spins[..., [0, 3, 5, 10, 15]] = np.concatenate([np.ones_like(a), 1.0 - a, e, e, a], axis=-1)
    # (row, ket out, bra out, ket in, bra in) per spin
    one, two = np.moveaxis(spins.reshape(-1, 2, 2, 2, 2, 2), 1, 0)
    pairs = one[:, :, None, :, None, :, None, :, None] * two[:, None, :, None, :, None, :, None, :]
    return pairs.reshape(-1, 16, 16)


def _relaxation_table(durations, t1_t2) -> tuple[np.ndarray, np.ndarray]:
    """The T1/T2 map over each distinct slice duration, one 16 x 16 matrix each.

    ``durations`` is one duration or an array of them, and ``t1_t2`` the
    times (T1 of spin 1 and 2, then T2 of spin 1 and 2).  Returns the
    (D, 16, 16) ``_relaxation_matrices`` of ``_decay_factors``'s table
    and the row of each duration in it, as ``_decay_factors`` gives it.
    """
    factors, index = _decay_factors(durations, t1_t2)
    return _relaxation_matrices(factors), index


def _relaxed(matrices: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """C-contiguous ``rho`` (..., 4, 4) mapped by (..., 16, 16) relaxation matrices.

    The matrices are real, so they act on the real and imaginary parts
    of vec(rho) as the two columns of one (16, 2) real operand.  The
    emulator's probes and back-propagated observables use it on stacks;
    its pulse loop makes the same product with 2-D ``dot``.
    """
    parts = rho.view(np.float64).reshape(rho.shape[:-2] + (16, 2))
    return (matrices @ parts).view(np.complex128).reshape(rho.shape)


def model_fidelity(
    model: SystemModel, pulse: PulseSequence, psi0: np.ndarray, target: np.ndarray
) -> float:
    """|<target| U_M ... U_1 |psi0>|^2 under the ideal nominal model (``require_ideal``)."""
    target = require_state(target)
    psi0 = require_state(psi0)
    return _model_fidelity(require_ideal(model), pulse, psi0, target)[0]


def _model_fidelity(model, pulse, psi0, target):
    """``model_fidelity`` of checked complex states, for callers that checked them once.

    Returns (J, sweep).  The sweep is what the pulse's gradient needs of
    this evaluation: its ``slice_propagators`` decomposition (U, H, w, v)
    and the (M + 1, 4) forward states psi_0 = psi0, psi_m = U_m psi_{m-1}.
    ``_fidelity_and_gradients`` of the same pulse and states takes it.
    """
    decomposition = slice_propagators(model, pulse.amplitudes_hz, pulse.slice_duration_s)
    states = np.empty((pulse.n_slices + 1, 4), dtype=np.complex128)
    _sweep(decomposition[0], psi0, states)
    return float(abs(np.vdot(target, states[-1])) ** 2), (decomposition, states)


def _sweep(u: np.ndarray, start: np.ndarray, states: np.ndarray) -> None:
    """states[0] = start and states[m + 1] = u[m] states[m], in place.

    Each product is a 2-D ``ndarray.dot`` into its row of ``states``: the
    BLAS call ``@`` makes on 2-D operands, without the gufunc dispatch or
    a new array, so the bits are those of the ``@`` loop.
    """
    states[0] = psi = start
    for u_m, after in zip(u, states[1:]):
        psi = u_m.dot(psi, after)


def fidelity_and_gradients(
    model: SystemModel, pulse: PulseSequence, psi0: np.ndarray, target: np.ndarray
) -> GradientBundle:
    """Exact J, dJ/du (all M x 4 amplitudes) and dJ/dT in one pass.

    J = |c|^2 with c = <target| U_M ... U_1 |psi0>.  The derivatives are
    exact, not first order in the slice length.  For the amplitude
    derivatives, the Fréchet derivative of each slice exponential in the
    eigenbasis of H_m (the divided-difference, or Daleckii-Krein, form)
    is (V^dag E V) o Gamma with

        Gamma_kl = -i dt exp(-i dt (w_k + w_l)/2) sinc(dt (w_k - w_l)/2),

    which is smooth through eigenvalue degeneracies.  The duration
    derivative stretches all slices together: dU_m/dT = (-i H_m/M) U_m.

    The forward and backward sweeps apply each slice with 2-D
    ``ndarray.dot`` into a preallocated row (``_sweep``), so they keep
    the bits of the oracle's ``@`` loops.  The per-slice
    contractions hold the slice axis last and contiguous, so ``einsum``
    runs one long inner loop over slices while each output element still
    adds the same products in the same order as the slice-first form
    (``tests/oracles.py``); the result is the same bit for bit.  Each row
    of pi * E_c has one nonzero entry (``_CONTROL_COLUMNS``,
    ``_CONTROL_VALUES``): the other three products of a row are exact
    signed zeros that never change a partial sum, so V^dag E V is summed
    over that entry alone.  ``grad_amplitudes`` is C-ordered: the
    optimizer's step and step-size sums add in memory order, so an
    F-ordered array of equal values would move their bits.  The model
    must be ideal outside ``DESIGN_FIELDS`` (``require_ideal``).
    """
    psi0 = require_state(psi0)
    target = require_state(target)
    return _fidelity_and_gradients(require_ideal(model), pulse, psi0, target)


def _fidelity_and_gradients(model, pulse, psi0, target, sweep=None) -> GradientBundle:
    """``fidelity_and_gradients`` of checked complex states, for callers that checked them once.

    ``sweep`` is the second value of ``_model_fidelity`` of this pulse
    and these states; it is built here when not given.  The result is
    the same bit for bit either way.
    """
    m_slices = pulse.n_slices
    dt = pulse.slice_duration_s
    if sweep is None:
        sweep = _model_fidelity(model, pulse, psi0, target)[1]
    (u, hams, w, v), fwd = sweep

    # Forward states psi_m and backward costates chi_m with
    # c = chi_m^dag U_m psi_{m-1} for every m; bwd is swept from its end.
    bwd = np.empty((m_slices + 1, 4), dtype=np.complex128)
    _sweep(u[::-1].conj().transpose(0, 2, 1), target, bwd[::-1])

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
    """Read a pulse written by write_pulse_csv.

    Every error the file's contents cause is a ValueError that names the
    file: bytes that are not UTF-8, a metadata item that is not
    key=value, a key other than T_seconds and M or one given twice, a
    bad header, row or value.  The metadata line starts with exactly the
    one ``#`` that ``write_pulse_csv`` writes.  T, M and the amplitudes
    are read by ``read_number``, so underscores, inner spaces and
    non-ASCII digits, which ``float`` and ``int`` would take, are
    refused, and a row's index must read exactly as its position.  Only
    ASCII whitespace counts as space (``_ASCII_SPACE``): a line that
    starts or ends in a no-break or an em space is refused like any
    other stray character.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip(_ASCII_SPACE) for ln in fh if ln.strip(_ASCII_SPACE)]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not lines or not lines[0].startswith("#") or lines[0].startswith("##"):
        raise ValueError(f"{path}: missing '# T_seconds=... M=...' metadata line")
    meta = {}
    for item in re.findall(f"[^{_ASCII_SPACE}]+", lines[0][1:]):
        key, is_pair, value = item.partition("=")
        if not is_pair:
            raise ValueError(f"{path}: metadata item {item!r} is not key=value in {lines[0]!r}")
        if key not in ("T_seconds", "M"):
            raise ValueError(f"{path}: unknown metadata key {key!r} in {lines[0]!r}")
        if key in meta:
            raise ValueError(f"{path}: metadata key {key!r} is repeated in {lines[0]!r}")
        meta[key] = value
    try:
        duration = read_number(meta["T_seconds"])
        m_slices = read_number(meta["M"], int)
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
            if len(parts) != 5 or parts[0] != str(i):
                raise ValueError(f"malformed row {i}: {row!r}")
            amps[i] = [read_number(x) for x in parts[1:]]
        return PulseSequence(duration, amps)
    except ValueError as exc:  # a value the file holds: name the file
        raise ValueError(f"{path}: {exc}") from exc
