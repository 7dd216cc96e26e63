"""Emulated laboratory for closed-loop pulse optimization.

The backend evolves density matrices under a hidden "true" model that
deliberately differs from the design model: a miscalibrated coupling,
per-channel amplitude scale errors, a first-order low-pass distortion of
the programmed waveforms, and per-spin T1/T2 relaxation after each
slice's unitary.  Relaxation is defined once, as a closed-form
elementwise map on the density matrix (amplitude damping plus
dephasing, ``_relax``); being linear, it is applied as one real 16 x 16
matrix on vec(rho) per slice.  A pulse's slices share one duration T/M
and so one matrix; only a probe moves a slice's duration, and a batch
of probes tables one matrix per distinct duration.  Expectation values
are read out through a seeded Gaussian noise stream, and every readout
is charged to a measurement ledger so the wall-clock cost of an
optimization run can be audited afterwards.

Fidelity oracles:

* ``fidelity_partial`` estimates the overlap with the singlet target from
  the three correlators XX, YY, ZZ via (1 - <XX> - <YY> - <ZZ>)/4, at a
  cost of 3 measurements.
* ``fidelity_full`` reconstructs the full density matrix from all 15
  nontrivial two-spin Pauli expectations (15 measurements), projects it
  back onto the physical set, and returns the exact overlap with the
  target.

Measured gradients probe the fidelity hundreds of times at one pulse,
each probe setting one entry of the pulse's (M, 5) table [ux1, uy1,
ux2, uy2, slice duration]: a probe is a (slice, column, value) triple,
and a batch three arrays of them.  ``fidelity_partial_batch`` checks
them all before it evolves, draws or charges anything, then makes four
passes per call: it evolves the pulse forward once, keeping its state
before every slice; it back-propagates the three correlators through
the pulse's slices once, by the adjoint map (the Heisenberg picture of
GRAPE's backward sweep); it evolves each probe forward through its own
window only, the slices where it differs from the pulse, from the
pulse's state where the window starts; and it reads each probe out
where its window ends, against the correlators back-propagated to that
point.  A window is a run of (probe, slice) pairs, found by one of two
decoders: without the low-pass a probe's window is its own slice, read
off its entry; under it the probes are expanded into programmed
waveforms for the filter, and a window runs on until the change rounds
away.  One loop then advances every window, longest first, over pairs
laid out step-major, so each step's pairs are one contiguous run.

No slice is decomposed.  The pulse's slices and all of a batch's pairs
are exponentiated in closed form, each set in one
``closed_form_propagators`` call: elementwise ``sqrt``, ``sin`` and
``cos`` of the two-spin ZZ Hamiltonian's invariants (derived in
``dynamics``), within about 1e-15 of ``scipy.linalg.expm``, and the same
bits for a slice alone as in any stack.  The backend keeps its last
pulse evolution (propagators, applied amplitudes, relaxation matrix and
states), so the probes of a pulse just measured, or a repeated
measurement of it, do not evolve it again.  The probes' states are
validated once, by a Cholesky screen (``require_density``), and their
readout noise is drawn as one vector.  Noise stream and ledger are those
of one ``fidelity_partial`` call per probe, and values agree with it to
rounding (1e-12); single pulses keep their own bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import (
    PulseSequence,
    SystemModel,
    as_integer,
    as_real,
    closed_form_propagators,
)
from .linalg import pauli_string, require_density, require_hermitian, singlet_state

# All 15 nontrivial two-spin Pauli labels, in a fixed readout order.
TOMOGRAPHY_LABELS = tuple(
    (a, b) for a in "IXYZ" for b in "IXYZ" if (a, b) != ("I", "I")
)

# The three correlators of one fidelity_partial estimate, one readout each.
PARTIAL_LABELS = (("X", "X"), ("Y", "Y"), ("Z", "Z"))

# Bench time one readout costs, in seconds; ledgers are priced at it.
SECONDS_PER_MEASUREMENT = 10.0

# A probe's column in a pulse's (M, 5) table [ux1, uy1, ux2, uy2, slice duration]
# that holds the slice duration (fidelity_partial_batch).
DURATION_COLUMN = 4


def _as_reals(value, name: str, count: int) -> tuple[float, ...]:
    """The ``count`` entries of a sequence ``value`` as floats (``as_real``)."""
    entries = value.tolist() if isinstance(value, np.ndarray) else value
    if not isinstance(entries, (tuple, list)) or len(entries) != count:
        raise ValueError(f"{name} must hold {count} values, got {value!r}")
    return tuple(as_real(v, name) for v in entries)


@dataclass(frozen=True)
class ExperimentConfig:
    """Hidden true model plus readout characteristics of the emulated lab.

    Relaxation times are per spin, ordered (spin 1, spin 2); use
    ``math.inf`` to disable a decay channel.  ``distortion_tau_s = 0``
    disables waveform distortion.  Every readout costs
    ``SECONDS_PER_MEASUREMENT`` of bench time.
    """

    true_g_hz: float = 217.4
    amplitude_scale: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    distortion_tau_s: float = 0.0
    t1_s: tuple[float, float] = (math.inf, math.inf)
    t2_s: tuple[float, float] = (math.inf, math.inf)
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("true_g_hz", "distortion_tau_s", "noise_sigma"):
            value = as_real(getattr(self, name), name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if not self.true_g_hz > 0:
            raise ValueError(f"true_g_hz must be positive, got {self.true_g_hz}")
        scale = _as_reals(self.amplitude_scale, "amplitude_scale", 4)
        if not all(0.0 < s < math.inf for s in scale):
            raise ValueError(
                f"amplitude_scale needs 4 finite positive entries, got {self.amplitude_scale!r}"
            )
        object.__setattr__(self, "amplitude_scale", scale)
        if self.distortion_tau_s < 0:
            raise ValueError(f"distortion_tau_s must be >= 0, got {self.distortion_tau_s}")
        t1, t2 = _as_reals(self.t1_s, "t1_s", 2), _as_reals(self.t2_s, "t2_s", 2)
        for spin, (one, two) in enumerate(zip(t1, t2), start=1):
            if not (one > 0 and two > 0):
                raise ValueError(f"relaxation times of spin {spin} must be positive")
            if two > 2.0 * one + 1e-12:
                raise ValueError(
                    f"spin {spin} has t2 = {two} > 2*t1 = {2 * one}, not a valid channel"
                )
        object.__setattr__(self, "t1_s", t1)
        object.__setattr__(self, "t2_s", t2)
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        object.__setattr__(self, "seed", as_integer(self.seed, "seed"))
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class MeasurementLedger:
    """Counts of charged readouts, by purpose; its fields name the categories.

    An ``ExperimentBackend`` charges every readout it takes to its own
    ledger, and ``run_optimization`` reads a run's readouts, iteration by
    iteration and in total, off that ledger alone.
    """

    fidelity_partial: int = 0
    fidelity_full: int = 0
    gradient_control: int = 0
    gradient_time: int = 0

    def record(self, category: str, count: int) -> None:
        if category not in LEDGER_CATEGORIES:
            raise ValueError(f"unknown ledger category {category!r}")
        count = as_integer(count, "count")
        if count < 0:
            raise ValueError(f"a ledger count must be >= 0, got {count}")
        setattr(self, category, getattr(self, category) + count)

    @property
    def total_measurements(self) -> int:
        return sum(getattr(self, c) for c in LEDGER_CATEGORIES)

    def as_dict(self) -> dict:
        return {c: getattr(self, c) for c in LEDGER_CATEGORIES}


LEDGER_CATEGORIES = tuple(f.name for f in fields(MeasurementLedger))


def ledger_report(ledger: MeasurementLedger) -> dict:
    """Category counts plus total and wall-clock estimates (s and h)."""
    seconds = ledger.total_measurements * SECONDS_PER_MEASUREMENT
    report = ledger.as_dict()
    report.update(
        total_measurements=ledger.total_measurements,
        wall_clock_s=seconds,
        wall_clock_h=seconds / 3600.0,
    )
    return report


def _check_categories(categories) -> None:
    """Raise on the first name in ``categories`` that is not a ledger category."""
    if not set(categories).issubset(LEDGER_CATEGORIES):
        unknown = next(c for c in categories if c not in LEDGER_CATEGORIES)
        raise ValueError(f"unknown ledger category {unknown!r}")


def _probe_indices(value, name: str, bound: int) -> np.ndarray:
    """``value`` checked as a 1-D array of integers in [0, ``bound``)."""
    index = np.asarray(value)
    if index.size == 0:  # an empty list reads as floats
        index = index.astype(np.intp)
    if index.ndim != 1 or index.dtype.kind not in "iu":
        raise ValueError(
            f"{name} must be a 1-D array of integers, got {index.dtype} of shape {index.shape}"
        )
    if index.size and not (index.min() >= 0 and index.max() < bound):
        raise ValueError(f"{name} must lie in [0, {bound}), got {index.min()} to {index.max()}")
    return index


def _one_density(rho) -> np.ndarray:
    """``rho`` checked as one 4 x 4 density matrix."""
    rho = require_density(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"need one 4 x 4 density matrix, got shape {rho.shape}")
    return rho


def _decay_factors(dts: np.ndarray, times_s) -> tuple[np.ndarray, np.ndarray]:
    """exp(-dt/t) for each distinct duration of a batch's ``dts`` and each time t.

    Returns the (D, len(times_s)) table over the D distinct durations and
    the row of each duration in it, shaped like ``dts``.  ``math.exp``
    runs once per duration (``np.exp`` can round differently in the last
    bit), as for the pulse's own, so a slice has the same factors there.
    """
    distinct, index = np.unique(dts, return_inverse=True)
    table = np.array([[math.exp(-dt / t) for t in times_s] for dt in distinct.tolist()])
    table = table.reshape(len(distinct), len(times_s))  # also when there are no durations
    return table, index.reshape(dts.shape)


def _low_pass(amplitudes: np.ndarray, k: np.ndarray) -> np.ndarray:
    """First-order low-pass distortion of a stack of B programmed waveforms.

    ``amplitudes`` is (B, M, 4) and ``k`` the (B, M) factors
    k_m = exp(-dt_m/tau), dt_m the duration of slice m.  Per waveform and
    channel, y[m] = (1 - k_m) u[m] + k_m y[m-1] with y[-1] = 0.

    The recursion runs slice-major, on rows of 4B values with y[-1] as
    the first row, with two in-place ufunc calls per slice.  Each output
    takes the same two products and one sum as the formula, so a waveform
    has the same bits alone as in any stack.  Returns a (B, M, 4) view.
    """
    n_rows, m_slices = k.shape
    factors = np.empty((m_slices, n_rows, 4))
    factors[...] = k.T[:, :, None]
    out = np.empty((m_slices + 1, n_rows, 4))
    out[0] = 0.0
    drive = np.subtract(1.0, factors, out=out[1:])
    np.multiply(drive, amplitudes.transpose(1, 0, 2), out=drive)
    rows = out.reshape(m_slices + 1, -1)
    carried = np.empty(4 * n_rows)
    for k_m, before, row in zip(factors.reshape(m_slices, -1), rows, rows[1:]):
        np.multiply(k_m, before, carried)
        np.add(row, carried, row)  # row: slice m's drive, then its output
    return drive.transpose(1, 0, 2)


def _relax(rho: np.ndarray, factors: np.ndarray) -> None:
    """T1/T2 relaxation of both spins over one slice, in place, per row.

    ``rho`` is (B, 4, 4) or one 4 x 4 state, ``factors`` (B, 4): per row
    a_1, a_2, e_1, e_2 with a_s = exp(-dt/T1_s) and e_s = exp(-dt/T2_s).
    This is amplitude damping plus dephasing (Nielsen & Chuang, section
    8.3) in closed form: per spin, 1 - a_s of the |1> population decays
    to |0>, and the coherences between |0> and |1> shrink by e_s.
    """
    r = rho.reshape(-1, 2, 2, 2, 2)  # (row, ket spin 1, ket spin 2, bra spin 1, bra spin 2)
    for spin, spin_first in enumerate((r, r.transpose(0, 2, 1, 4, 3))):
        a, e = factors[:, spin, None, None], factors[:, 2 + spin, None, None]
        spin_first[:, 0, :, 0] += (1.0 - a) * spin_first[:, 1, :, 1]
        spin_first[:, 1, :, 1] *= a
        spin_first[:, 0, :, 1] *= e
        spin_first[:, 1, :, 0] *= e


# The 16 real unit matrices, in the row-major order of vec(rho).
_UNITS = np.eye(16).reshape(16, 4, 4)


def _relaxation_matrices(factors: np.ndarray) -> np.ndarray:
    """``_relax`` as one real 16 x 16 matrix per row of the (D, 4) factors.

    Each matrix acts on the row-major vec(rho); its column j is ``_relax``
    applied to the j-th unit matrix, so the map stays defined once.  The
    map is real, so it runs on real unit matrices: their entries meet the
    same products and sums as the real parts of complex ones.
    """
    units = np.tile(_UNITS, (len(factors), 1, 1))
    _relax(units, np.repeat(factors, 16, axis=0))
    return np.ascontiguousarray(units.reshape(-1, 16, 16).swapaxes(1, 2))


def _relaxed(matrices: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """C-contiguous ``rho`` (..., 4, 4) mapped by (..., 16, 16) relaxation matrices.

    The matrices are real, so they act on the real and imaginary parts
    of vec(rho) as the two columns of one (16, 2) real operand.  The
    probes and the back-propagated observables use it on stacks; the
    pulse's own slice loop makes the same product with 2-D ``dot``.
    """
    parts = rho.view(np.float64).reshape(rho.shape[:-2] + (16, 2))
    return (matrices @ parts).view(np.complex128).reshape(rho.shape)


def _advance(u: np.ndarray, rho: np.ndarray, table, durations) -> np.ndarray:
    """A stack of (B, 4, 4) states through one slice each: U rho U^dag, then relaxation.

    ``table`` holds relaxation matrices (None: no relaxation) and
    ``durations`` each state's row in it; one matrix serves the whole
    stack when every state takes the same.  The stack is never empty:
    ``_evolve``'s step s holds every window longer than s.
    """
    block = u @ rho @ u.conj().swapaxes(-1, -2)
    if table is None:
        return block
    uniform = (durations == durations[0]).all()
    return _relaxed(table[durations[0] if uniform else durations], block)


class ExperimentBackend:
    """Sequential driver of one emulated experiment.

    Owns a private seeded noise stream and a measurement ledger; identical
    (config, call sequence) pairs reproduce bit-identical readouts.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.ledger = MeasurementLedger()
        self._rng = np.random.default_rng(config.seed)
        self._model = SystemModel(g_hz=config.true_g_hz)
        self._target = singlet_state()
        self._pauli = {
            labels: require_hermitian(pauli_string(*labels))
            for labels in TOMOGRAPHY_LABELS
        }
        self._partial_ops = np.stack([self._pauli[labels] for labels in PARTIAL_LABELS])
        self._tomography_ops = np.stack(list(self._pauli.values()))
        self._ground = np.zeros((4, 4), dtype=np.complex128)
        self._ground[0, 0] = 1.0
        self._scale = np.array(config.amplitude_scale)
        self._tau = (config.distortion_tau_s,) if config.distortion_tau_s > 0.0 else ()
        # T2 may pass 2*T1 by the validator's 1e-12; decay stays a channel
        t1_t2 = config.t1_s + tuple(min(t2, 2.0 * t1) for t1, t2 in zip(config.t1_s, config.t2_s))
        # a coherent apparatus has none, and its slices skip relaxation
        self._t1_t2 = t1_t2 if any(math.isfinite(t) for t in t1_t2) else ()
        self._kept = None  # (key, evolution) of the last pulse (_pulse_evolution)

    def evolve_open(self, pulse: PulseSequence) -> np.ndarray:
        """Density matrix after running the pulse on the true model from |00><00|.

        The programmed waveform is distorted, then scaled per channel;
        each slice applies its unitary followed by per-spin relaxation
        over the slice duration T/M.
        """
        states = self._pulse_evolution(pulse.amplitudes_hz, pulse.slice_duration_s)[-1]
        return states[-1].copy()

    def _pulse_evolution(self, amplitudes: np.ndarray, dt: float):
        """One pulse's evolution from |00><00|, kept until the next pulse.

        The pulse is (M, 4) programmed amplitudes over slices of duration
        ``dt``.  Returns (u, u_dag, applied, relaxation, states): the M
        slice propagators and their adjoints, the (M, 4) applied
        amplitudes they were built from, the ``_relax`` map over ``dt`` as
        one 16 x 16 matrix (None without T1/T2), and the (M + 1, 4, 4)
        states before every slice.  The waveform is low-passed with one
        factor k = exp(-dt/tau), then scaled per channel, and the
        propagators are exponentiated in closed form
        (``closed_form_propagators``), with no eigendecomposition.  Each
        slice applies its unitary, then that matrix.  The loop makes each
        product with 2-D ``ndarray.dot``, which calls the same BLAS kernel
        as ``@`` on 2-D operands without the gufunc dispatch, and writes
        the last product of a slice straight into the next state (the
        relaxation's through that state's (16, 2) real view), so the bits
        are those of the ``@`` loop (``tests/oracles.py``).

        The evolution is noiseless, so the last one is kept, keyed by the
        bytes of the amplitudes and by ``dt``: a pulse measured and then
        probed, or measured twice in a row, is evolved once.  Callers
        copy what they hand out of it.
        """
        key = (amplitudes.tobytes(), dt)
        if self._kept is not None and self._kept[0] == key:
            return self._kept[1]
        factors = [math.exp(-dt / t) for t in self._tau + self._t1_t2]
        applied, relaxation = amplitudes, None
        if self._tau:
            applied = _low_pass(amplitudes[None], np.full((1, len(amplitudes)), factors[0]))[0]
        if self._t1_t2:
            relaxation = _relaxation_matrices(np.array([factors[len(self._tau):]]))[0]
        applied = applied * self._scale
        u = closed_form_propagators(self._model, applied, dt)
        u_dag = u.conj().swapaxes(-1, -2)
        states = np.empty((len(amplitudes) + 1, 4, 4), dtype=np.complex128)
        states[0] = rho = self._ground
        if relaxation is None:
            for u_m, u_dag_m, after in zip(u, u_dag, states[1:]):
                rho = u_m.dot(rho).dot(u_dag_m, after)
        else:  # the real map acts on (16, 2) views of vec(rho)'s real and imaginary parts
            rotated = np.empty((4, 4), dtype=np.complex128)
            rotated_parts = rotated.view(np.float64).reshape(16, 2)
            after_parts = states[1:].view(np.float64).reshape(len(amplitudes), 16, 2)
            for u_m, u_dag_m, after, parts in zip(u, u_dag, states[1:], after_parts):
                u_m.dot(rho).dot(u_dag_m, rotated)
                relaxation.dot(rotated_parts, parts)
                rho = after
        evolution = (u, u_dag, applied, relaxation, states)
        self._kept = (key, evolution)
        return evolution

    def _evolve(self, amplitudes: np.ndarray, dt: float, slices, columns, values):
        """B single-entry probes of one pulse, ready to read out.

        The pulse is (M, 4) amplitudes over slices of duration ``dt``,
        evolved by ``_pulse_evolution``.  Probe b sets the entry
        (slices[b], columns[b]) of the pulse's (M, 5) table [ux1, uy1,
        ux2, uy2, slice duration] to values[b] (``fidelity_partial_batch``).

        A probe's window runs from the first to the last slice where its
        applied (distorted and scaled) amplitudes or its duration differ
        from the pulse's; each of its slices is a (probe, slice) pair.
        It is evolved through its window only, from the pulse's state
        where the window starts, and read out where the window ends
        against the ``PARTIAL_LABELS`` observables back-propagated there
        through the pulse's remaining slices: O -> U^dag R^T(O) U per
        slice, the adjoint of the forward map.

        One of two decoders lists the pairs.  Without the low-pass an
        applied amplitude differs only where the programmed one does, so
        the entries alone give them (``_one_slice_pairs``): a probe's
        window is its own slice, or none where the channel scale rounds
        its change away.  Under the low-pass a change carries on into
        later slices (``_filtered_pairs``), and each probe's filtered
        waveform is compared with the pulse's kept applied amplitudes.
        Both decoders take the same arguments, and one loop serves both.
        Every pair's propagator is exponentiated in closed form from its
        own applied amplitudes and duration, all pairs in one
        ``closed_form_propagators`` call, with no eigendecomposition; a
        row has the same bits alone as in any stack, so a pair that
        equals the pulse's slice gets the pulse's propagator.  The pairs
        are laid out step-major: the windows advance longest first, the
        probes still inside theirs being a prefix, and each step's pairs
        are one contiguous run of the propagators and of their rows in
        the relaxation table, one matrix per distinct duration;
        one-slice windows advance in one stacked product.

        Returns copies: the probes' (B, 4, 4) states where their windows
        end (the pulse's final state for a probe that differs nowhere)
        and the (B, 3, 4, 4) observables back-propagated to those points;
        a probe's readout equals its own evolution's up to reordered
        rounding.  With no probes, nothing is evolved.
        """
        if not len(slices):
            return np.empty((0, 4, 4), dtype=np.complex128), np.empty((0, 3, 4, 4))
        u, u_dag, applied, relaxation, states = self._pulse_evolution(amplitudes, dt)
        m_slices = len(amplitudes)
        decode = self._filtered_pairs if self._tau else self._one_slice_pairs
        probe, at, durations, pair_amps = decode(amplitudes, applied, dt, slices, columns, values)
        # each probe's window: its first pair and its length (0: it differs nowhere)
        lengths = np.bincount(probe, minlength=len(slices))
        first = np.cumsum(lengths) - lengths
        windows = np.argsort(-lengths, kind="stable")[: np.count_nonzero(lengths)]  # longest first
        # step-major: step s holds, at start[s], the s-th pair of each of the first
        # inside[s] windows, in window order
        rank = np.empty(len(slices), dtype=np.intp)
        rank[windows] = np.arange(len(windows))
        step = np.arange(len(probe)) - first[probe]
        inside = np.bincount(step)
        start = np.cumsum(inside) - inside
        order = np.empty(len(probe), dtype=np.intp)
        order[start[step] + rank[probe]] = np.arange(len(probe))
        durations = durations[order]
        u_pairs = closed_form_propagators(self._model, pair_amps[order], durations)
        table = index = None
        if self._t1_t2:
            factors, index = _decay_factors(durations, self._t1_t2)
            table = _relaxation_matrices(factors)
        first, lengths = first[windows], lengths[windows]
        stack = states[at[first]]
        for lo, count in zip(start.tolist(), inside.tolist()):
            pair = slice(lo, lo + count)
            stack[:count] = _advance(
                u_pairs[pair], stack[:count], table, None if index is None else index[pair]
            )
        leaving = np.repeat(states[-1:], len(slices), axis=0)
        leaving[windows] = stack
        leave = np.full(len(slices), m_slices)
        leave[windows] = at[first] + lengths

        observables = np.empty((m_slices + 1, 3, 4, 4), dtype=np.complex128)
        observables[m_slices] = o = self._partial_ops
        for m in range(m_slices - 1, leave.min() - 1, -1):
            if relaxation is not None:
                o = _relaxed(relaxation.T, o)
            o = u_dag[m] @ o @ u[m]
            observables[m] = o
        return leaving, observables[leave]

    def _one_slice_pairs(self, amplitudes, applied, dt, slices, columns, values):
        """The (probe, slice) pairs of ``_evolve`` without the low-pass, from the entries alone.

        ``applied`` holds the pulse's (M, 4) applied amplitudes, kept by
        ``_pulse_evolution``; the other arguments are those of ``_evolve``,
        and ``amplitudes`` goes unused.  A probe changes at most its
        own slice: an amplitude probe its applied row, unless the channel
        scale rounds the change away, and a duration probe its duration.
        Returns, per pair in probe order: the probe, the slice, the
        duration and the (4,) applied amplitudes.
        """
        timed = columns == DURATION_COLUMN
        moved = np.flatnonzero(~timed)
        entry = moved, columns[moved]
        scaled = values[moved] * self._scale[entry[1]]
        applied = applied[slices]
        still = scaled != applied[entry]
        applied[entry] = scaled
        changed = timed & (values != dt)
        changed[moved[still]] = True
        probe = np.flatnonzero(changed)
        return probe, slices[probe], np.where(timed[probe], values[probe], dt), applied[probe]

    def _filtered_pairs(self, amplitudes, applied, dt, slices, columns, values):
        """``_one_slice_pairs`` under the low-pass, where a window can span many slices.

        Arguments are those of ``_one_slice_pairs``.  The probes are
        expanded into (B, M, 4) programmed waveforms and (B, M) durations,
        filtered as one stack and compared on flat (B, 4M) rows with the
        kept ``applied``, a slice's four flags read as one 4-byte word.  A
        waveform's filter has the same bits alone as in any stack, so a
        slice that a probe leaves alone compares equal.  Every slice from
        the first to the last that differs is a pair, in probe-major order.
        """
        n_probes, m_slices = len(slices), len(amplitudes)
        rows = np.arange(n_probes)
        timed = columns == DURATION_COLUMN
        programmed = np.repeat(amplitudes[None], n_probes, axis=0)
        programmed[rows[~timed], slices[~timed], columns[~timed]] = values[~timed]
        dts = np.full((n_probes, m_slices), dt)
        dts[rows[timed], slices[timed]] = values[timed]
        factors, index = _decay_factors(dts, self._tau)
        # flat (B, 4M) rows, in place: a copy of the low-pass's slice-major output
        flat = _low_pass(programmed, factors[index, 0]).reshape(n_probes, -1)
        np.multiply(flat, np.tile(self._scale, m_slices), out=flat)
        # each slice's 4 channel flags, as one 4-byte word: nonzero where any differs
        moved = (flat != applied.reshape(-1)).view(np.uint32).astype(bool)  # (B, M)
        own = moved | (dts != dt)
        # from the first slice that differs through the last
        window = np.logical_or.accumulate(own, axis=1)
        window &= np.logical_or.accumulate(own[:, ::-1], axis=1)[:, ::-1]
        probe, at = window.nonzero()
        return probe, at, dts[window], flat.reshape(n_probes, m_slices, 4)[window]

    def _readouts(self, rhos: np.ndarray, observables: np.ndarray, categories) -> np.ndarray:
        """Noisy expectations (B, L) of L observables in B checked states.

        ``observables`` is (L, 4, 4), the same for every state, or
        (B, L, 4, 4), one set per state.  The B*L noise samples are one
        draw from the stream, in the order of B*L scalar readouts (state
        by state, observable by observable); state b's L readouts are
        charged to categories[b].
        """
        values = np.trace(rhos[:, None] @ observables, axis1=-2, axis2=-1).real
        sigma = self.config.noise_sigma
        if sigma > 0.0:
            values = values + self._rng.normal(0.0, sigma, size=values.size).reshape(values.shape)
            values = np.clip(values, -1.0 - 5.0 * sigma, 1.0 + 5.0 * sigma)
        for category in dict.fromkeys(categories):
            self.ledger.record(category, categories.count(category) * values.shape[1])
        return values

    def _partial(self, rhos: np.ndarray, observables: np.ndarray, categories) -> np.ndarray:
        """Three-correlator fidelity estimates of B evolved states.

        ``observables`` are the ``PARTIAL_LABELS`` correlators, or per
        state their back-propagated images (``_evolve``).
        """
        values = self._readouts(require_density(rhos), observables, categories)
        # sum() over the columns adds in the order of a scalar sum of readouts
        return (1.0 - sum(values.T)) / 4.0

    def measure_pauli(self, rho: np.ndarray, labels, category: str) -> float:
        """One noisy expectation value of a Pauli string, charged to the ledger."""
        observable = self._pauli[tuple(labels)][None]
        _check_categories([category])
        return float(self._readouts(_one_density(rho)[None], observable, [category])[0, 0])

    def fidelity_partial(self, pulse: PulseSequence, category: str = "fidelity_partial") -> float:
        """Singlet-overlap estimate from 3 correlator measurements."""
        _check_categories([category])
        rho = self.evolve_open(pulse)
        return float(self._partial(rho[None], self._partial_ops, [category])[0])

    def fidelity_partial_batch(
        self,
        pulse: PulseSequence,
        slices,
        columns,
        values,
        categories,
    ) -> np.ndarray:
        """``fidelity_partial`` of B single-entry probes of ``pulse``, evolved together.

        Probe b is ``pulse`` with one entry of its (M, 5) table
        [ux1, uy1, ux2, uy2, slice duration] set: entry (slices[b],
        columns[b]) becomes values[b].  Columns 0-3 are programmed
        amplitudes in Hz, column ``DURATION_COLUMN`` the slice's duration
        in s (T/M on the pulse); probe b is charged to categories[b].
        Each probe is evolved only through the slices where it differs
        from the pulse, and read out against the correlators
        back-propagated through the pulse's remaining slices
        (``_evolve``).  Noise draws and ledger are those of B
        ``fidelity_partial`` calls in order; the values are theirs up to
        reordered rounding, within 1e-12.  Every argument is checked
        before anything is evolved, drawn or charged: indices in range,
        values finite, durations positive, one known category per probe.
        """
        slices = _probe_indices(slices, "slices", pulse.n_slices)
        columns = _probe_indices(columns, "columns", DURATION_COLUMN + 1)
        values = np.asarray(values)
        categories = list(categories)
        if values.ndim != 1 or not len(slices) == len(columns) == len(values):
            raise ValueError(
                f"need one slice, column and value per probe, got shapes "
                f"{slices.shape}, {columns.shape} and {values.shape}"
            )
        if len(categories) != len(values):
            raise ValueError(f"need {len(values)} ledger categories, got {len(categories)}")
        _check_categories(categories)
        if values.size and values.dtype.kind not in "iuf":
            raise ValueError(f"probe values must be real numbers, got {values.dtype}")
        values = values.astype(float)
        if not np.all(np.isfinite(values)):
            raise ValueError("probe values must be finite")
        if not np.all(values[columns == DURATION_COLUMN] > 0):
            raise ValueError("a probe's slice duration must be positive")
        evolved = self._evolve(pulse.amplitudes_hz, pulse.slice_duration_s, slices, columns, values)
        return self._partial(*evolved, categories)

    def fidelity_full(self, pulse: PulseSequence) -> float:
        """Target overlap from full 15-observable state reconstruction."""
        rho = require_density(self.evolve_open(pulse))
        values = self._readouts(rho[None], self._tomography_ops, ["fidelity_full"])[0]
        estimate = np.eye(4, dtype=np.complex128)
        for value, observable in zip(values.tolist(), self._tomography_ops):
            estimate = estimate + value * observable
        estimate /= 4.0
        w, v = np.linalg.eigh(estimate)
        w = np.clip(w, 0.0, None)
        w /= w.sum()
        projected = (v * w) @ v.conj().T
        return float(np.real(self._target.conj() @ projected @ self._target))

    def true_fidelity(self, pulse: PulseSequence) -> float:
        """Exact singlet overlap on the true model; free (no ledger charge).

        This is a simulator-only diagnostic: a real experiment could not
        evaluate it without measurements.
        """
        rho = self.evolve_open(pulse)
        return float(np.real(self._target.conj() @ rho @ self._target))
