"""Emulated laboratory for closed-loop pulse optimization.

The backend runs pulses on a hidden "true" apparatus that deliberately
differs from the design model: a miscalibrated coupling, per-channel
amplitude scale errors, a first-order low-pass distortion of the
programmed waveforms, and per-spin T1/T2 relaxation after each slice's
unitary.  Every readout is drawn through a seeded Gaussian noise stream
and charged to a measurement ledger, so the bench time of a run can be
audited afterwards.  A lab with no finite T1 or T2 prepares only pure
states and carries them as kets; a lossy lab carries density matrices.

Which function owns what:

* ``ExperimentConfig`` builds the hidden apparatus once, as a
  ``SystemModel``.  Its physics lives in ``dynamics``: the propagators
  (``closed_form_propagators``), the low-pass (``_low_pass``) and the
  relaxation map (``_relaxation_matrices``).
* ``MeasurementLedger`` counts the readouts, and ``ledger_report``
  prices them at ``SECONDS_PER_MEASUREMENT``.
* ``ExperimentBackend._pulse_evolution`` evolves one pulse and keeps the
  evolution for the next call.
* ``ExperimentBackend._evolve`` owns the probe path: it evolves a batch
  of single-entry probes of one pulse and readies them for readout.  The
  decoders ``_one_slice_pairs`` and ``_filtered_pairs`` list its
  windows, and ``_advance`` moves its states through one slice.
* A readout has one of two kernels: ``_ket_correlators`` reads a
  relaxation-free lab's kets, and ``_expectations`` every density.
  ``_measured`` adds the noise and charges the ledger for both.
* The oracles: ``fidelity_partial`` (3 readouts),
  ``fidelity_partial_batch`` (3 a probe), ``fidelity_full`` (15),
  ``measure_pauli`` (1) and ``true_fidelity`` (free, and simulator
  only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import (
    PulseSequence,
    SystemModel,
    _low_pass,
    _relaxation_table,
    _relaxed,
    _sweep,
    as_integer,
    as_nonnegative,
    as_positive,
    closed_form_propagators,
)
from .linalg import (
    DENSITY_TOL,
    ket,
    pauli_string,
    require_density,
    require_hermitian,
    singlet_state,
)

# All 15 nontrivial two-spin Pauli labels, in a fixed readout order.
TOMOGRAPHY_LABELS = tuple(
    (a, b) for a in "IXYZ" for b in "IXYZ" if (a, b) != ("I", "I")
)

# The three correlators of one fidelity_partial estimate, one readout each.
PARTIAL_LABELS = (("X", "X"), ("Y", "Y"), ("Z", "Z"))


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, no longer writeable: a module constant that every backend shares."""
    a.flags.writeable = False
    return a


# Every Pauli string the lab reads out, built once: by label, and stacked in
# the order of PARTIAL_LABELS and of TOMOGRAPHY_LABELS.
_PAULI = {
    labels: _read_only(require_hermitian(pauli_string(*labels))) for labels in TOMOGRAPHY_LABELS
}
_PARTIAL_OPS = _read_only(np.stack([_PAULI[labels] for labels in PARTIAL_LABELS]))
_TOMOGRAPHY_OPS = _read_only(np.stack(list(_PAULI.values())))

# Bench time one readout costs, in seconds; ledgers are priced at it.
SECONDS_PER_MEASUREMENT = 10.0

# A probe's column in a pulse's (M, 5) table [ux1, uy1, ux2, uy2, slice duration]
# that holds the slice duration (fidelity_partial_batch).
DURATION_COLUMN = 4


@dataclass(frozen=True)
class ExperimentConfig:
    """The run document's ``experiment`` section: the emulated lab's apparatus and readouts.

    Its first five fields describe the hidden apparatus, which
    ``__post_init__`` builds once as ``apparatus``, a ``SystemModel``
    that checks them: g is ``true_g_hz``, and ``amplitude_scale``,
    ``distortion_tau_s``, ``t1_s`` and ``t2_s`` keep their names (see
    ``SystemModel``).  ``apparatus`` is derived, not a field, so the
    section's keys are the seven below, and ``ExperimentBackend`` reads
    the physics from it alone.  ``noise_sigma`` is the readout noise and
    ``seed`` seeds its stream.  Every readout costs
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
        apparatus = SystemModel(as_positive(self.true_g_hz, "true_g_hz"), self.amplitude_scale,
                                self.distortion_tau_s, self.t1_s, self.t2_s)
        object.__setattr__(self, "true_g_hz", apparatus.g_hz)
        for f in fields(apparatus)[1:]:  # the other four, as checked
            object.__setattr__(self, f.name, getattr(apparatus, f.name))
        object.__setattr__(self, "apparatus", apparatus)
        object.__setattr__(self, "noise_sigma", as_nonnegative(self.noise_sigma, "noise_sigma"))
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


def _advance(u: np.ndarray, states: np.ndarray, table, durations) -> np.ndarray:
    """A stack of B states through one slice each.

    Without relaxation (``table`` None) the states are (B, 4) kets, and
    each takes U psi as a stacked ``matmul``, which gives a ket the same
    bits alone as in any stack.  Otherwise they are (B, 4, 4) densities:
    U rho U^dag, then relaxation, ``table`` holding its matrices and
    ``durations`` each state's row in it; one matrix serves the whole
    stack when every state takes the same.  The stack is never empty:
    ``_evolve``'s step s holds every window longer than s.
    """
    if table is None:
        return (u @ states[:, :, None])[:, :, 0]
    block = u @ states @ u.conj().swapaxes(-1, -2)
    uniform = (durations == durations[0]).all()
    return _relaxed(table[durations[0] if uniform else durations], block)


def _density(kets: np.ndarray) -> np.ndarray:
    """|psi><psi| of each ket of a (..., 4) stack, as (..., 4, 4).

    An elementwise product, so a ket has the same bits alone as in any
    stack.
    """
    return kets[..., :, None] * kets[..., None, :].conj()


def _ket_correlators(kets: np.ndarray) -> np.ndarray:
    """<XX>, <YY> and <ZZ> of each ket of a (B, 4) stack, as a (B, 3) real array, screened.

    A relaxation-free lab reads out only kets, and of the three tests
    that ``require_density`` would run on their |psi><psi| only the
    trace test can fail one.  The trace holds |a_i|^2 = (Re a_i)^2 +
    (Im a_i)^2, so a trace within DENSITY_TOL of one bounds every part
    of psi by about one; a NaN or infinite part, or a larger one, fails
    it.  Past it, every entry a_i a_j^* of |psi><psi| is finite and
    rounded by a few eps at most: it is Hermitian to a few eps, and its
    eigenvalues lie within a few eps of the exact projector's 0 and
    |psi|^2, so the Cholesky screen of |psi><psi| + (DENSITY_TOL/2) 1
    clears it, with DENSITY_TOL/2 to spare.  The kets are therefore
    tested by their trace alone, computed as ``trace_deviations``
    computes it on ``_density(kets)``: the complex products a_i a_i^*
    of its diagonal, added as one complex reduction of four, which
    gives its bits.  A stack that fails goes to
    ``require_density(_density(kets))``, which fails it too and names
    the first bad state with the message it gives unscreened.

    With a_i = x_i + i y_i over |00>, |01>, |10>, |11>, p = x_0 x_3 +
    y_0 y_3 = Re a_0^* a_3 and q = x_1 x_2 + y_1 y_2 = Re a_1^* a_2,

        <XX> = 2 (q + p),  <YY> = 2 (q - p),
        <ZZ> = (|a_0|^2 + |a_3|^2) - (|a_1|^2 + |a_2|^2),

    in real float64 arithmetic, elementwise over the rows, so a ket has
    the same bits alone as in any stack.  They agree with
    ``_expectations`` of ``_density(kets)`` against the three
    correlators to a few eps.
    """
    kets = np.ascontiguousarray(kets, dtype=np.complex128)
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite ket fails the trace
        traces = np.add.reduce(kets * kets.conj(), axis=-1).real
        if not (np.abs(traces - 1.0) <= DENSITY_TOL).all():
            require_density(_density(kets))
    parts = kets.view(np.float64).reshape(len(kets), 4, 2)  # (Re a_i, Im a_i) per row
    squares = parts * parts
    weights = squares[..., 0] + squares[..., 1]  # |a_i|^2
    crossed = parts[:, :2] * parts[:, 3:1:-1]  # a_0 with a_3, a_1 with a_2
    p, q = (crossed[..., 0] + crossed[..., 1]).T
    values = np.empty((len(kets), 3))
    np.add(q, p, out=values[:, 0])
    np.subtract(q, p, out=values[:, 1])
    values[:, :2] *= 2.0
    np.subtract(weights[:, 0] + weights[:, 3], weights[:, 1] + weights[:, 2], out=values[:, 2])
    return values


def _real_parts(a: np.ndarray) -> np.ndarray:
    """A stack of 4 x 4 complex matrices as rows of their 32 real and imaginary parts.

    The parts interleave, (Re a_00, Im a_00, Re a_01, ...), in one
    contiguous row per matrix; a stack that is not C-contiguous (a
    transposed state, say) is copied first.
    """
    a = np.ascontiguousarray(a, dtype=np.complex128)
    return a.view(np.float64).reshape(a.shape[:-2] + (32,))


def _expectations(rhos: np.ndarray, observables: np.ndarray) -> np.ndarray:
    """tr(rho O) of L observables in each of B states, as a (B, L) real array.

    ``rhos`` is (B, 4, 4); ``observables`` is (L, 4, 4), the same for
    every state, or (B, L, 4, 4), one set per state.  For Hermitian O,
    tr(rho O) = sum_ij (Re rho_ij Re O_ij + Im rho_ij Im O_ij) exactly,
    so a readout is one elementwise product of the two matrices' real
    parts (``_real_parts``) and one ``np.add.reduce`` over its 32
    contiguous values.  Every Pauli string passes ``require_hermitian``,
    and a back-propagated image U^dag R^T(O) U is Hermitian to rounding.
    Each readout takes the same operations in the same order wherever it
    sits, so a state has the same bits alone as in any stack, and an
    observable alone as in any set (``reference_readouts`` in
    ``tests/oracles.py`` keeps the trace of the stacked product).
    """
    return np.add.reduce(_real_parts(rhos)[:, None] * _real_parts(observables), axis=-1)


class ExperimentBackend:
    """Sequential driver of one emulated experiment.

    Owns a private seeded noise stream and a measurement ledger; identical
    (config, call sequence) pairs reproduce bit-identical readouts.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.ledger = MeasurementLedger()
        self._rng = np.random.default_rng(config.seed)
        self._apparatus = config.apparatus  # the physics: g, scales, low-pass, T1/T2
        self._target = singlet_state()
        self._ground = ket("00")
        self._kept = None  # (key, evolution) of the last pulse (_pulse_evolution)

    def evolve_open(self, pulse: PulseSequence) -> np.ndarray:
        """Density matrix after running the pulse on the true model from |00><00|.

        The programmed waveform is distorted, then scaled per channel;
        each slice applies its unitary followed by per-spin relaxation
        over the slice duration T/M.  A relaxation-free lab carries the
        pure state as a ket and returns its |psi><psi|.
        """
        *_, relaxation, states = self._pulse_evolution(pulse.amplitudes_hz, pulse.slice_duration_s)
        return _density(states[-1]) if relaxation is None else states[-1].copy()

    def _pulse_evolution(self, amplitudes: np.ndarray, dt: float):
        """One pulse's evolution from |00><00|, kept until the next pulse.

        The pulse is (M, 4) programmed amplitudes over slices of duration
        ``dt``.  Returns (u, u_dag, applied, relaxation, states): the M
        slice propagators and, under relaxation, their adjoints, the
        (M, 4) applied amplitudes they were built from, the relaxation
        over ``dt`` as one 16 x 16 matrix (``_relaxation_table``; None
        without T1/T2), and the states before every slice.  The waveform
        is low-passed over ``dt`` (``_low_pass``), then scaled per
        channel, and the propagators are exponentiated in closed form
        (``closed_form_propagators``), with no eigendecomposition.

        Without T1/T2 every state is pure: ``u_dag`` is None and the
        states are the (M + 1, 4) kets psi_{m+1} = U_m psi_m, swept by
        the design model's ``_sweep``.  Under relaxation they are the
        (M + 1, 4, 4) densities: each slice applies its unitary, then the
        relaxation matrix.  Both loops make each product with 2-D
        ``ndarray.dot``, which calls the same BLAS kernel as ``@`` on 2-D
        operands without the gufunc dispatch, and write the last product
        of a slice straight into the next state (the relaxation's through
        that state's (16, 2) real view), so the bits are those of the
        ``@`` loop (``tests/oracles.py``).

        The evolution is noiseless, so the last one is kept, keyed by the
        bytes of the amplitudes and by ``dt``: a pulse measured and then
        probed, or measured twice in a row, is evolved once.  Callers
        copy what they hand out of it.
        """
        key = (amplitudes.tobytes(), dt)
        if self._kept is not None and self._kept[0] == key:
            return self._kept[1]
        apparatus, applied = self._apparatus, amplitudes
        if apparatus.distortion_tau_s:
            applied = _low_pass(amplitudes[None], dt, apparatus.distortion_tau_s)[0]
        applied = applied * apparatus.amplitude_scale
        u = closed_form_propagators(apparatus, applied, dt)
        if not apparatus.relaxation_times:
            states = np.empty((len(amplitudes) + 1, 4), dtype=np.complex128)
            _sweep(u, self._ground, states)
            evolution = (u, None, applied, None, states)
        else:  # the real map acts on (16, 2) views of vec(rho)'s real and imaginary parts
            (relaxation,), _ = _relaxation_table(dt, apparatus.relaxation_times)
            u_dag = u.conj().swapaxes(-1, -2)
            states = np.empty((len(amplitudes) + 1, 4, 4), dtype=np.complex128)
            states[0] = rho = _density(self._ground)
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
        where the window starts (``_advance``).  A relaxation-free lab
        then completes each probe's ket to the pulse's end with the
        backward product W_m = U_{M-1} ... U_m at its window's end, one
        4 x 4 ``dot`` per slice to build and one stacked ``matmul`` to
        apply, as closed-system GRAPE carries state vectors end to end;
        ``_partial`` reads the completed kets against the plain
        ``PARTIAL_LABELS`` correlators.  A lossy lab reads each probe's
        density where its window ends, against those correlators
        back-propagated there through the pulse's remaining slices:
        O -> U^dag R^T(O) U per slice, the adjoint of the forward map
        (the Heisenberg picture of GRAPE's backward sweep, Khaneja et
        al., J. Magn. Reson. 172, 296 (2005)).  So a call makes four
        passes: the pulse forward once (kept), the probes through their
        windows, the backward products or images once, and the readouts.

        One of two decoders lists the pairs.  Without the low-pass an
        applied amplitude differs only where the programmed one does, so
        the entries alone give them (``_one_slice_pairs``): a probe's
        window is its own slice, or none where the channel scale rounds
        its change away.  Under the low-pass a change carries on into
        later slices (``_filtered_pairs``), and each probe's filtered
        waveform is compared with the pulse's kept applied amplitudes.
        Both decoders take the same arguments, and one loop serves both.
        Every pair's propagator comes from its own applied amplitudes
        and duration, all pairs in one ``closed_form_propagators`` call;
        a row has the same bits alone as in any stack there, so a pair
        that equals the pulse's slice gets the pulse's propagator.  The
        pairs are laid out step-major: the windows advance longest first,
        the probes still inside theirs being a prefix, and each step's
        pairs are one contiguous run of the propagators and of their rows
        in the relaxation table, one matrix per distinct duration;
        one-slice windows advance in one stacked product.

        Returns copies: the probes' states to read out (the pulse's final
        state for a probe that differs nowhere) and their observables.
        A relaxation-free lab's are the (B, 4) completed kets and None,
        for ``_partial`` reads kets with ``_ket_correlators``; a lossy
        lab's are the (B, 4, 4) densities and their (B, 3, 4, 4)
        back-propagated correlators.  A probe's readout equals its own
        evolution's up to reordered rounding.  With no probes, nothing is
        evolved.
        """
        t1_t2 = self._apparatus.relaxation_times
        if not len(slices):
            if not t1_t2:
                return np.empty((0, 4), dtype=np.complex128), None
            return np.empty((0, 4, 4), dtype=np.complex128), np.empty((0, 3, 4, 4))
        u, u_dag, applied, relaxation, states = self._pulse_evolution(amplitudes, dt)
        m_slices = len(amplitudes)
        decode = self._filtered_pairs if self._apparatus.distortion_tau_s else self._one_slice_pairs
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
        u_pairs = closed_form_propagators(self._apparatus, pair_amps[order], durations)
        table, index = _relaxation_table(durations, t1_t2) if t1_t2 else (None, None)
        first, lengths = first[windows], lengths[windows]
        stack = states[at[first]]
        for lo, count in zip(start.tolist(), inside.tolist()):
            pair = slice(lo, lo + count)
            stack[:count] = _advance(
                u_pairs[pair], stack[:count], table, None if index is None else index[pair]
            )
        leaving = np.repeat(states[-1:], len(slices), axis=0)
        leave = np.full(len(slices), m_slices)
        leave[windows] = at[first] + lengths

        if relaxation is None:
            # W_m = U_{M-1} ... U_m completes a ket from slice m to the pulse's end
            backward = np.empty((m_slices, 4, 4), dtype=np.complex128)
            w = backward[m_slices - 1] = u[m_slices - 1]
            for m in range(m_slices - 2, leave.min() - 1, -1):
                w = w.dot(u[m], backward[m])
            ends = leave[windows]
            early = ends < m_slices
            stack[early] = (backward[ends[early]] @ stack[early][:, :, None])[:, :, 0]
            leaving[windows] = stack
            return leaving, None

        leaving[windows] = stack
        observables = np.empty((m_slices + 1, 3, 4, 4), dtype=np.complex128)
        observables[m_slices] = o = _PARTIAL_OPS
        for m in range(m_slices - 1, leave.min() - 1, -1):
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
        scaled = values[moved] * np.array(self._apparatus.amplitude_scale)[entry[1]]
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
        # flat (B, 4M) rows, in place: a copy of the low-pass's slice-major output
        flat = _low_pass(programmed, dts, self._apparatus.distortion_tau_s).reshape(n_probes, -1)
        np.multiply(flat, np.tile(self._apparatus.amplitude_scale, m_slices), out=flat)
        # each slice's 4 channel flags, as one 4-byte word: nonzero where any differs
        moved = (flat != applied.reshape(-1)).view(np.uint32).astype(bool)  # (B, M)
        own = moved | (dts != dt)
        # from the first slice that differs through the last
        window = np.logical_or.accumulate(own, axis=1)
        window &= np.logical_or.accumulate(own[:, ::-1], axis=1)[:, ::-1]
        probe, at = window.nonzero()
        return probe, at, dts[window], flat.reshape(n_probes, m_slices, 4)[window]

    def _measured(self, values: np.ndarray, categories) -> np.ndarray:
        """Noisy readouts of the (B, L) noiseless values of L observables in B states.

        Every readout, of a ket or of a density, takes this one step.
        The B*L noise samples are one draw from the stream, in the order
        of B*L scalar readouts (state by state, observable by
        observable), and each readout is clipped to 5 sigma past [-1, 1];
        state b's L readouts are charged to categories[b].
        """
        sigma = self.config.noise_sigma
        if sigma > 0.0:
            values = values + self._rng.normal(0.0, sigma, size=values.size).reshape(values.shape)
            values = np.clip(values, -1.0 - 5.0 * sigma, 1.0 + 5.0 * sigma)
        for category in dict.fromkeys(categories):
            self.ledger.record(category, categories.count(category) * values.shape[1])
        return values

    def _partial(self, states: np.ndarray, observables, categories) -> np.ndarray:
        """Three-correlator fidelity estimates of B evolved states.

        A relaxation-free lab's states are (B, 4) kets, with
        ``observables`` None, screened and read by ``_ket_correlators``.
        A lossy lab's are (B, 4, 4) densities, checked by
        ``require_density`` and read against ``observables`` by
        ``_expectations``: the correlators, or per state their
        back-propagated images (``_evolve``).  Either check runs before
        anything is drawn or charged (``_measured``).
        """
        if observables is None:
            values = _ket_correlators(states)
        else:
            values = _expectations(require_density(states), observables)
        values = self._measured(values, categories)
        # sum() over the columns adds in the order of a scalar sum of readouts
        return (1.0 - sum(values.T)) / 4.0

    def measure_pauli(self, rho: np.ndarray, labels, category: str) -> float:
        """One noisy expectation value of a Pauli string, charged to the ledger."""
        observable = _PAULI[tuple(labels)][None]
        _check_categories([category])
        value = _expectations(_one_density(rho)[None], observable)
        return float(self._measured(value, [category])[0, 0])

    def fidelity_partial(self, pulse: PulseSequence, category: str = "fidelity_partial") -> float:
        """Singlet-overlap estimate from 3 correlator measurements.

        The singlet's projector is (II - XX - YY - ZZ)/4, so the estimate
        is (1 - <XX> - <YY> - <ZZ>)/4 of the three noisy readouts.  A
        relaxation-free lab reads the final ket of the pulse's kept
        evolution (``_pulse_evolution``); a lossy lab reads its density
        (``evolve_open``).
        """
        _check_categories([category])
        if self._apparatus.relaxation_times:
            return float(self._partial(self.evolve_open(pulse)[None], _PARTIAL_OPS, [category])[0])
        kets = self._pulse_evolution(pulse.amplitudes_hz, pulse.slice_duration_s)[-1]
        return float(self._partial(kets[-1:], None, [category])[0])

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
        The probes are evolved together (``_evolve``).  Noise draws and
        ledger are those of B ``fidelity_partial`` calls in order; the
        values are theirs up to reordered rounding, within 1e-12.  Every
        argument is checked before anything is evolved, drawn or charged:
        indices in range, values finite, durations positive, one known
        category per probe.  The evolved states are checked too, as one
        stack, before anything is drawn or charged (``_partial``).
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
        """Target overlap from full 15-observable state reconstruction.

        The 15 noisy Pauli expectations rebuild the density matrix, which
        is projected back onto the physical set (eigenvalues clipped at
        zero and renormalized) before its exact overlap with the target
        is taken.
        """
        rho = require_density(self.evolve_open(pulse))
        values = self._measured(_expectations(rho[None], _TOMOGRAPHY_OPS), ["fidelity_full"])[0]
        estimate = np.eye(4, dtype=np.complex128)
        for value, observable in zip(values.tolist(), _TOMOGRAPHY_OPS):
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
