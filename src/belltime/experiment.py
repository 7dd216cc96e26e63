"""Emulated laboratory for closed-loop pulse optimization.

The backend evolves density matrices under a hidden "true" model that
deliberately differs from the design model: a miscalibrated coupling,
per-channel amplitude scale errors, a first-order low-pass distortion of
the programmed waveforms, and per-spin T1/T2 relaxation after each
slice's unitary.  Relaxation is defined once, as a closed-form
elementwise map on the density matrix (amplitude damping plus
dephasing, ``_relax``); being linear, it is applied as one real 16 x 16
matrix on vec(rho) per slice, tabled from ``_relax`` once per distinct
slice duration of an evolution.  Expectation values are read out
through a seeded Gaussian noise stream, and every readout is charged to
a measurement ledger so the wall-clock cost of an optimization run can
be audited afterwards.

Fidelity oracles:

* ``fidelity_partial`` estimates the overlap with the singlet target from
  the three correlators XX, YY, ZZ via (1 - <XX> - <YY> - <ZZ>)/4, at a
  cost of 3 measurements.
* ``fidelity_full`` reconstructs the full density matrix from all 15
  nontrivial two-spin Pauli expectations (15 measurements), projects it
  back onto the physical set, and returns the exact overlap with the
  target.

Measured gradients probe the fidelity hundreds of times at one pulse,
each probe moving one slice's controls or duration.
``fidelity_partial_batch`` makes four passes per call: it evolves the
pulse forward once, keeping its state before every slice; it
back-propagates the three correlators through the pulse's slices once,
by the adjoint map (the Heisenberg picture of GRAPE's backward sweep);
it evolves each probe forward through its own window only, the slices
where it differs from the pulse, from the pulse's state where the
window starts; and it reads each probe out where its window ends,
against the correlators back-propagated to that point.  Only the
(probe, slice) pairs that differ get propagators of their own.  The
probes' states are validated once and their readout noise is drawn as
one vector.  Noise stream and ledger are those of one
``fidelity_partial`` call per probe, and values agree with it to
rounding (1e-12); single pulses keep their own bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import PulseSequence, SystemModel, as_integer, as_real, slice_propagators
from .linalg import pauli_string, require_density, require_hermitian, singlet_state

# All 15 nontrivial two-spin Pauli labels, in a fixed readout order.
TOMOGRAPHY_LABELS = tuple(
    (a, b) for a in "IXYZ" for b in "IXYZ" if (a, b) != ("I", "I")
)

# The three correlators of one fidelity_partial estimate, one readout each.
PARTIAL_LABELS = (("X", "X"), ("Y", "Y"), ("Z", "Z"))

# Bench time one readout costs, in seconds; ledgers are priced at it.
SECONDS_PER_MEASUREMENT = 10.0


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
        setattr(self, category, getattr(self, category) + int(count))

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


def _slice_durations(pulse: PulseSequence, slice_durations_s) -> np.ndarray:
    """The pulse's (M,) slice durations: uniform T/M unless given."""
    if slice_durations_s is None:
        return np.full(pulse.n_slices, pulse.slice_duration_s)
    dts = np.asarray(slice_durations_s, dtype=float)
    if dts.shape != (pulse.n_slices,) or not np.all(np.isfinite(dts) & (dts > 0)):
        raise ValueError("slice_durations_s must hold one positive finite value per slice")
    return dts


def _one_density(rho) -> np.ndarray:
    """``rho`` checked as one 4 x 4 density matrix."""
    rho = require_density(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"need one 4 x 4 density matrix, got shape {rho.shape}")
    return rho


def _decay_factors(dts: np.ndarray, times_s) -> tuple[np.ndarray, np.ndarray]:
    """exp(-dt/t) for each distinct duration of ``dts`` and each time t.

    Returns the (D, len(times_s)) table over the D distinct durations and
    the row of each duration in it, shaped like ``dts``.  ``math.exp``
    runs once per distinct duration (``np.exp`` can round differently in
    the last bit), so a pulse gets the same factors alone as in any stack.
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
    """
    k = k[..., None]
    out = (1.0 - k) * amplitudes  # each slice's drive, overwritten by its output
    y = np.zeros((amplitudes.shape[0], 4))
    for m in range(amplitudes.shape[1]):
        y = out[:, m] + k[:, m] * y
        out[:, m] = y
    return out


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


def _relaxation_matrices(factors: np.ndarray) -> np.ndarray:
    """``_relax`` as one real 16 x 16 matrix per row of the (D, 4) factors.

    Each matrix acts on the row-major vec(rho); its column j is ``_relax``
    applied to the j-th unit matrix, so the map stays defined once.
    """
    units = np.tile(np.eye(16, dtype=np.complex128), (len(factors), 1)).reshape(-1, 4, 4)
    _relax(units, np.repeat(factors, 16, axis=0))
    return np.ascontiguousarray(units.real.reshape(-1, 16, 16).swapaxes(1, 2))


def _relaxed(matrices: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """C-contiguous ``rho`` (..., 4, 4) mapped by (..., 16, 16) relaxation matrices.

    The matrices are real, so they act on the real and imaginary parts
    of vec(rho) as the two columns of one (16, 2) real operand.  The
    probes and the back-propagated observables use it on stacks; the
    pulse's own slice loop makes the same product with 2-D ``dot``.
    """
    parts = rho.view(np.float64).reshape(rho.shape[:-2] + (16, 2))
    return (matrices @ parts).view(np.complex128).reshape(rho.shape)


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

    def evolve_open(self, pulse: PulseSequence, slice_durations_s=None) -> np.ndarray:
        """Density matrix after running the pulse on the true model from |00><00|.

        The programmed waveform is distorted, then scaled per channel;
        each slice applies its unitary followed by per-spin relaxation
        over the slice duration (the uniform T/M unless
        ``slice_durations_s`` gives one per slice).
        """
        dts = _slice_durations(pulse, slice_durations_s)
        return self._evolve(pulse.amplitudes_hz, dts, self._ground)[0]

    def _evolve(
        self,
        amplitudes: np.ndarray,
        dts: np.ndarray,
        rho0: np.ndarray,
        probe_amplitudes: np.ndarray | None = None,
        probe_dts: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Final state of one pulse, and B probes of it ready to read out.

        The pulse is (M, 4) amplitudes over (M,) slice durations, the
        probes (B, M, 4) and (B, M).  The programmed waveforms are
        distorted, then scaled per channel.  Each slice applies its
        unitary, then relaxation as one tabled 16 x 16 product on
        vec(rho); the table holds one ``_relax`` matrix per distinct slice
        duration of the pulse and its probes.  The pulse is evolved once,
        keeping its state before every slice (stacked only when there are
        probes to start from them).  Its loop makes each product with
        2-D ``ndarray.dot``, which calls the same BLAS kernel as ``@`` on
        2-D operands without the gufunc dispatch, so the bits are those of
        the ``@`` loop (``tests/oracles.py``).

        A probe's window runs from the first to the last slice where its
        applied amplitudes or duration differ from the pulse's.  It is
        evolved through its window only, from the pulse's state where the
        window starts, and read out where the window ends against the
        ``PARTIAL_LABELS`` observables back-propagated there through the
        pulse's remaining slices: O -> U^dag R^T(O) U per slice, the
        adjoint of the forward map, with ``R^T`` taken from the same
        table.  Only the (probe, slice) pairs that differ get propagators
        of their own, built in one call with the pulse's.

        Returns the pulse's 4 x 4 final state, the probes' (B, 4, 4)
        states where their windows end (the pulse's final state for a
        probe that differs nowhere) and the (B, 3, 4, 4) observables
        back-propagated to those points.  The pulse's own state meets
        exactly the operations of ``evolve_open``; a probe's readout
        equals its own evolution's up to reordered rounding.
        """
        m_slices = len(dts)
        if probe_amplitudes is None:
            probe_amplitudes, probe_dts = np.empty((0, m_slices, 4)), np.empty((0, m_slices))
        amplitudes = np.concatenate([amplitudes[None], probe_amplitudes])  # row 0: the pulse
        cfg = self.config
        tau = (cfg.distortion_tau_s,) if cfg.distortion_tau_s > 0.0 else ()
        # T2 may pass 2*T1 by the validator's 1e-12; decay stays a channel
        t1_t2 = cfg.t1_s + tuple(min(two, 2.0 * one) for one, two in zip(cfg.t1_s, cfg.t2_s))
        if not any(math.isfinite(t) for t in t1_t2):
            t1_t2 = ()  # a coherent apparatus: its slices skip relaxation
        relaxation = None
        if tau + t1_t2:
            factors, index = _decay_factors(np.concatenate([dts[None], probe_dts]), tau + t1_t2)
            if tau:
                amplitudes = _low_pass(amplitudes, factors[index, 0])
            if t1_t2:
                relaxation = _relaxation_matrices(factors[:, len(tau):])
        # in place: ``amplitudes`` is this call's own copy by now
        applied = np.multiply(amplitudes, cfg.amplitude_scale, out=amplitudes)
        own = (applied[1:] != applied[0]).any(axis=2) | (probe_dts != dts)  # (B, M)
        # one decomposition: the pulse's slices, then each (probe, slice) pair that differs
        u = slice_propagators(
            self._model,
            np.concatenate([applied[0], applied[1:][own]]),
            np.concatenate([dts, probe_dts[own]]),
        )[0]
        u_dag = u[:m_slices].conj().swapaxes(-1, -2)
        pulse_relaxation = relaxation[index[0]] if relaxation is not None else [None] * m_slices
        rho = rho0
        states = [rho]
        for u_m, u_dag_m, r_m in zip(u, u_dag, pulse_relaxation):
            rho = u_m.dot(rho).dot(u_dag_m)
            if r_m is not None:  # the real map on vec(rho)'s real and imaginary parts
                parts = rho.view(np.float64).reshape(16, 2)
                rho = r_m.dot(parts).view(np.complex128).reshape(4, 4)
            states.append(rho)
        if not len(probe_dts):
            return rho, np.empty((0, 4, 4), dtype=np.complex128), np.empty((0, 3, 4, 4))

        states = np.stack(states)
        differs = own.any(axis=1)
        enter = np.where(differs, own.argmax(axis=1), m_slices)
        leave = np.where(differs, m_slices - own[:, ::-1].argmax(axis=1), m_slices)
        # propagator of each (probe, slice): the pulse's, or one of its own
        which = np.tile(np.arange(m_slices), (len(own), 1))
        which[own] = m_slices + np.arange(np.count_nonzero(own))
        order = np.argsort(enter - leave, kind="stable")  # longest window first
        lengths = (leave - enter)[order]
        stack = states[enter[order]]
        for step in range(lengths[0]):  # the probes still inside their window are a prefix
            rows = order[: np.count_nonzero(lengths > step)]
            at = enter[rows] + step
            u_at = u[which[rows, at]]
            block = u_at @ stack[: len(rows)] @ u_at.conj().swapaxes(-1, -2)
            if relaxation is not None:
                durations = index[1 + rows, at]  # one matrix for all, or one per row
                uniform = (durations == durations[0]).all()
                block = _relaxed(relaxation[durations[0] if uniform else durations], block)
            stack[: len(rows)] = block
        leaving = np.empty_like(stack)
        leaving[order] = stack

        observables = np.empty((m_slices + 1, 3, 4, 4), dtype=np.complex128)
        observables[m_slices] = o = self._partial_ops
        for m in range(m_slices - 1, leave.min() - 1, -1):
            if relaxation is not None:
                o = _relaxed(relaxation[index[0, m]].T, o)
            o = u_dag[m] @ o @ u[m]
            observables[m] = o
        return rho, leaving, observables[leave]

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
        return float(self._readouts(_one_density(rho)[None], observable, [category])[0, 0])

    def fidelity_partial(
        self,
        pulse: PulseSequence,
        category: str = "fidelity_partial",
        slice_durations_s=None,
    ) -> float:
        """Singlet-overlap estimate from 3 correlator measurements."""
        rho = self.evolve_open(pulse, slice_durations_s=slice_durations_s)
        return float(self._partial(rho[None], self._partial_ops, [category])[0])

    def fidelity_partial_batch(
        self,
        pulse: PulseSequence,
        amplitudes_hz: np.ndarray,
        slice_durations_s: np.ndarray,
        categories,
    ) -> np.ndarray:
        """``fidelity_partial`` of B probes of ``pulse``, evolved together.

        Probe b runs the (M, 4) amplitudes ``amplitudes_hz[b]`` over the
        slice durations ``slice_durations_s[b]`` and is charged to
        ``categories[b]``.  Each probe is evolved only through the slices
        where it differs from the pulse, and read out against the
        correlators back-propagated through the pulse's remaining slices
        (``_evolve``).  Noise draws and ledger are those of B
        ``fidelity_partial`` calls in order; the values are theirs up to
        reordered rounding, within 1e-12.
        """
        amps = np.asarray(amplitudes_hz, dtype=float)
        dts = np.asarray(slice_durations_s, dtype=float)
        categories = list(categories)
        m_slices = pulse.n_slices
        if amps.ndim != 3 or amps.shape[1:] != (m_slices, 4) or dts.shape != amps.shape[:2]:
            raise ValueError(
                f"need (B, {m_slices}, 4) amplitudes and (B, {m_slices}) slice durations "
                f"for a pulse of {m_slices} slices, got {amps.shape} and {dts.shape}"
            )
        if len(categories) != len(amps):
            raise ValueError(f"need {len(amps)} ledger categories, got {len(categories)}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes_hz must be finite")
        if not np.all(np.isfinite(dts) & (dts > 0)):
            raise ValueError("slice_durations_s must be positive and finite")
        uniform = _slice_durations(pulse, None)
        _, rhos, observables = self._evolve(pulse.amplitudes_hz, uniform, self._ground, amps, dts)
        return self._partial(rhos, observables, categories)

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
