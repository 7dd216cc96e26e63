"""Emulated laboratory for closed-loop pulse optimization.

The backend evolves density matrices under a hidden "true" model that
deliberately differs from the design model: a miscalibrated coupling,
per-channel amplitude scale errors, a first-order low-pass distortion of
the programmed waveforms, and per-spin relaxation.  Expectation values
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import PulseSequence, SystemModel, slice_propagators
from .linalg import expectation, pauli_string, require_density, singlet_state

LEDGER_CATEGORIES = (
    "fidelity_partial",
    "fidelity_full",
    "gradient_control",
    "gradient_time",
)

# All 15 nontrivial two-spin Pauli labels, in a fixed readout order.
TOMOGRAPHY_LABELS = tuple(
    (a, b) for a in "IXYZ" for b in "IXYZ" if (a, b) != ("I", "I")
)

# The three correlators of one fidelity_partial estimate, one readout each.
PARTIAL_LABELS = (("X", "X"), ("Y", "Y"), ("Z", "Z"))


def _as_duration_pair(value, name: str) -> tuple[float, float]:
    pair = tuple(float(v) for v in np.atleast_1d(value))
    if len(pair) != 2:
        raise ValueError(f"{name} must hold one value per spin, got {value!r}")
    return pair


@dataclass(frozen=True)
class ExperimentConfig:
    """Hidden true model plus readout characteristics of the emulated lab.

    Relaxation times are per spin, ordered (spin 1, spin 2); use
    ``math.inf`` to disable a decay channel.  ``distortion_tau_s = 0``
    disables waveform distortion.
    """

    true_g_hz: float = 217.4
    amplitude_scale: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    distortion_tau_s: float = 0.0
    t1_s: tuple[float, float] = (math.inf, math.inf)
    t2_s: tuple[float, float] = (math.inf, math.inf)
    noise_sigma: float = 0.0
    seconds_per_measurement: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if not self.true_g_hz > 0:
            raise ValueError(f"true_g_hz must be positive, got {self.true_g_hz}")
        scale = tuple(float(s) for s in np.atleast_1d(self.amplitude_scale))
        if len(scale) != 4 or any(s <= 0 for s in scale):
            raise ValueError(
                f"amplitude_scale needs 4 positive entries, got {self.amplitude_scale!r}"
            )
        object.__setattr__(self, "amplitude_scale", scale)
        if self.distortion_tau_s < 0:
            raise ValueError(f"distortion_tau_s must be >= 0, got {self.distortion_tau_s}")
        t1 = _as_duration_pair(self.t1_s, "t1_s")
        t2 = _as_duration_pair(self.t2_s, "t2_s")
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
        if not self.seconds_per_measurement > 0:
            raise ValueError(
                f"seconds_per_measurement must be positive, got {self.seconds_per_measurement}"
            )


@dataclass
class MeasurementLedger:
    """Counts of charged measurements, by purpose."""

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

    def wall_clock_s(self, seconds_per_measurement: float) -> float:
        return self.total_measurements * seconds_per_measurement

    def as_dict(self) -> dict:
        return {c: getattr(self, c) for c in LEDGER_CATEGORIES}


def ledger_report(ledger: MeasurementLedger, seconds_per_measurement: float) -> dict:
    """Category counts plus total and wall-clock estimates (s and h)."""
    seconds = ledger.wall_clock_s(seconds_per_measurement)
    report = ledger.as_dict()
    report.update(
        total_measurements=ledger.total_measurements,
        wall_clock_s=seconds,
        wall_clock_h=seconds / 3600.0,
    )
    return report


def distort_pulse(
    pulse: PulseSequence, tau_s: float, slice_durations_s=None
) -> PulseSequence:
    """First-order low-pass distortion of the programmed waveform.

    Per channel, y[m] = (1 - k_m) u[m] + k_m y[m-1] with
    k_m = exp(-dt_m/tau) and y[-1] = 0, where dt_m is the slice duration
    (the uniform T/M unless ``slice_durations_s`` gives one per slice);
    tau_s = 0 returns the input unchanged.
    """
    if tau_s < 0:
        raise ValueError(f"tau_s must be >= 0, got {tau_s}")
    if tau_s == 0.0:
        return pulse
    if slice_durations_s is None:
        dts = np.full(pulse.n_slices, pulse.slice_duration_s)
    else:
        dts = np.asarray(slice_durations_s, dtype=float)
        if dts.shape != (pulse.n_slices,):
            raise ValueError(
                f"need {pulse.n_slices} slice durations, got shape {dts.shape}"
            )
    distorted = np.empty_like(pulse.amplitudes_hz)
    y = np.zeros(4)
    for m, dt in enumerate(dts):
        k = math.exp(-dt / tau_s)
        y = (1.0 - k) * pulse.amplitudes_hz[m] + k * y
        distorted[m] = y
    return pulse.with_amplitudes(distorted)


def _relaxation_kraus(t1_s: float, t2_s: float, dt: float):
    """Single-spin Kraus operators for amplitude damping plus dephasing."""
    ops = []
    p = -math.expm1(-dt / t1_s)
    if p > 0.0:
        ops.append(
            [
                np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]], dtype=np.complex128),
                np.array([[0.0, math.sqrt(p)], [0.0, 0.0]], dtype=np.complex128),
            ]
        )
    gamma_phi = 1.0 / t2_s - 0.5 / t1_s
    q = 0.5 * -math.expm1(-gamma_phi * dt) if gamma_phi > 0 else 0.0
    if q > 0.0:
        eye = np.eye(2, dtype=np.complex128)
        z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
        ops.append([math.sqrt(1.0 - q) * eye, math.sqrt(q) * z])
    return ops


def _relaxation_channels(config: ExperimentConfig, dt: float):
    """Both spins' relaxation over dt as two-spin Kraus channels.

    One list of (K, K^dag) pairs per channel, in the order applied.
    """
    eye = np.eye(2, dtype=np.complex128)
    channels = []
    for spin in range(2):
        for ops in _relaxation_kraus(config.t1_s[spin], config.t2_s[spin], dt):
            lifted = [np.kron(k, eye) if spin == 0 else np.kron(eye, k) for k in ops]
            channels.append([(k, k.conj().T) for k in lifted])
    return channels


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
            labels: pauli_string(*labels) for labels in TOMOGRAPHY_LABELS
        }

    def evolve_open(
        self,
        pulse: PulseSequence,
        rho0: np.ndarray | None = None,
        slice_durations_s=None,
    ) -> np.ndarray:
        """Density matrix after running the pulse on the true model.

        The programmed waveform is distorted, then scaled per channel;
        each slice applies its unitary followed by per-spin relaxation
        channels over the slice duration.  rho0 defaults to |00><00|.
        """
        cfg = self.config
        if slice_durations_s is None:
            dts = np.full(pulse.n_slices, pulse.slice_duration_s)
        else:
            dts = np.asarray(slice_durations_s, dtype=float)
            if dts.shape != (pulse.n_slices,) or np.any(dts <= 0):
                raise ValueError("slice_durations_s must hold one positive value per slice")
        if rho0 is None:
            rho = np.zeros((4, 4), dtype=np.complex128)
            rho[0, 0] = 1.0
        else:
            rho = require_density(np.asarray(rho0, dtype=np.complex128)).copy()

        distorted = distort_pulse(pulse, cfg.distortion_tau_s, dts)
        applied = distorted.amplitudes_hz * np.asarray(cfg.amplitude_scale)
        props = slice_propagators(self._model, applied, dts)[0]

        relaxation = {}  # slice duration -> its Kraus channels, built once
        for u, dt in zip(props, dts):
            rho = u @ rho @ u.conj().T
            dt = float(dt)
            if dt not in relaxation:
                relaxation[dt] = _relaxation_channels(cfg, dt)
            for channel in relaxation[dt]:
                rho = sum(k @ rho @ k_dag for k, k_dag in channel)
        return rho

    def measure_pauli(self, rho: np.ndarray, labels, category: str) -> float:
        """One noisy expectation value of a Pauli string, charged to the ledger."""
        value = expectation(rho, self._pauli[tuple(labels)])
        sigma = self.config.noise_sigma
        if sigma > 0.0:
            value += self._rng.normal(0.0, sigma)
            value = float(np.clip(value, -1.0 - 5.0 * sigma, 1.0 + 5.0 * sigma))
        self.ledger.record(category, 1)
        return float(value)

    def fidelity_partial(
        self,
        pulse: PulseSequence,
        category: str = "fidelity_partial",
        slice_durations_s=None,
    ) -> float:
        """Singlet-overlap estimate from 3 correlator measurements."""
        rho = self.evolve_open(pulse, slice_durations_s=slice_durations_s)
        total = sum(
            self.measure_pauli(rho, labels, category) for labels in PARTIAL_LABELS
        )
        return (1.0 - total) / 4.0

    def fidelity_full(self, pulse: PulseSequence) -> float:
        """Target overlap from full 15-observable state reconstruction."""
        rho = self.evolve_open(pulse)
        estimate = np.eye(4, dtype=np.complex128)
        for labels in TOMOGRAPHY_LABELS:
            value = self.measure_pauli(rho, labels, "fidelity_full")
            estimate = estimate + value * self._pauli[labels]
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

    def ledger_report(self) -> dict:
        return ledger_report(self.ledger, self.config.seconds_per_measurement)
