"""Emulated-lab behavior: distortion, relaxation, noisy readout, ledger."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from belltime.cartan import fidelity_ceiling, minimum_time_bell
from belltime.dynamics import (
    PulseSequence,
    SystemModel,
    _decay_factors,
    _low_pass,
    _relax,
    _relaxation_matrices,
    _relaxation_table,
    _relaxed,
    model_fidelity,
    random_pulse,
    slice_propagators,
)
from belltime.experiment import (
    DURATION_COLUMN,
    LEDGER_CATEGORIES,
    PARTIAL_LABELS,
    TOMOGRAPHY_LABELS,
    ExperimentBackend,
    ExperimentConfig,
    MeasurementLedger,
    _density,
    _expectations,
    _ket_correlators,
    ledger_report,
)
from belltime.linalg import DENSITY_TOL, ket, pauli_string, require_density, singlet_state
from belltime.recipes import bell_recipe_pulse
from oracles import (
    lab_relaxation_times,
    reference_ket_evolution,
    reference_ket_probe_evolution,
    reference_partial,
    reference_probe_evolution,
    reference_pulse_evolution,
    reference_readouts,
    reference_relaxation_matrices,
    reference_state,
)

G_HZ = 217.4


def ideal_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig(true_g_hz=G_HZ, **overrides)


def bits(x):
    """The int64 words of a float array: they tell -0.0 from +0.0."""
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)


def same_bits(got, want) -> bool:
    """Whether two arrays, real or complex, hold the same words in the same shape, or both are None."""
    if got is None or want is None:
        return got is want
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def reference_distortion(amplitudes, tau_s, dts):
    """The low-pass recursion one slice at a time, for one waveform."""
    distorted = np.empty_like(amplitudes)
    y = np.zeros(4)
    for m, dt in enumerate(dts):
        k = math.exp(-dt / tau_s)
        y = (1.0 - k) * amplitudes[m] + k * y
        distorted[m] = y
    return distorted


def relaxation_kraus(t1_s: float, t2_s: float, dt: float):
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


def relax_kraus(rho, t1_s, t2_s, dt):
    """Both spins' relaxation over dt applied as two-spin Kraus channels."""
    eye = np.eye(2, dtype=np.complex128)
    for spin in range(2):
        for ops in relaxation_kraus(t1_s[spin], t2_s[spin], dt):
            lifted = [np.kron(k, eye) if spin == 0 else np.kron(eye, k) for k in ops]
            rho = sum(k @ rho @ k.conj().T for k in lifted)
    return rho


def reference_evolution(backend, pulse, dts):
    """One pulse's open evolution as a per-slice Kraus loop, from |00><00|."""
    cfg = backend.config
    distorted = pulse.amplitudes_hz
    if cfg.distortion_tau_s > 0.0:
        distorted = reference_distortion(distorted, cfg.distortion_tau_s, dts)
    applied = distorted * np.asarray(cfg.amplitude_scale)
    props = slice_propagators(SystemModel(cfg.true_g_hz), applied, dts)[0]
    rho = np.outer(ket("00"), ket("00").conj())
    for u, dt in zip(props, dts):
        rho = relax_kraus(u @ rho @ u.conj().T, cfg.t1_s, cfg.t2_s, float(dt))
    return rho


PARTIAL_OPS = np.stack([pauli_string(*labels) for labels in PARTIAL_LABELS])

# The ket readout against the density kernel on the same ket's |psi><psi|:
# both round a unit ket's correlators within a few eps of the exact value.
# That is about 3x the worst measured, 1.5 eps over a million random unit
# kets, some with an entry near or at zero.
KET_READOUT_TOL = 4.0 * np.finfo(float).eps


def readouts(rhos, observables=PARTIAL_OPS):
    """Noiseless (B, 3) correlators of B states, against the plain or per-state observables."""
    return reference_readouts(np.asarray(rhos), observables)


def probe_readouts(states, observables):
    """``readouts`` of ``_evolve``'s probes: kets, with observables None, or densities."""
    if observables is None:
        return readouts(np.einsum("bi,bj->bij", states, states.conj()))
    return readouts(states, observables)


def probe_stack(pulse, rng, n_rows):
    """n_rows perturbed copies of a pulse, each with one slice's duration moved."""
    amps = pulse.amplitudes_hz + rng.normal(0.0, 0.1, size=(n_rows,) + pulse.amplitudes_hz.shape)
    dts = np.full((n_rows, pulse.n_slices), pulse.slice_duration_s)
    moved = rng.integers(0, pulse.n_slices, size=n_rows)
    dts[np.arange(n_rows), moved] *= rng.choice([0.999, 1.001], size=n_rows)
    dts[::3] = pulse.slice_duration_s  # every third row keeps the uniform grid
    return amps, dts


def entry_probes(pulse, rng, n_rows):
    """n_rows single-entry probes of a pulse, as (slices, columns, values).

    Each sets one programmed amplitude, moved by about 0.1 Hz, or one
    slice duration, moved by 0.1%.
    """
    slices = rng.integers(0, pulse.n_slices, size=n_rows)
    columns = rng.integers(0, DURATION_COLUMN + 1, size=n_rows)
    timed = columns == DURATION_COLUMN
    amplitudes = pulse.amplitudes_hz[slices, np.minimum(columns, 3)]
    values = np.where(
        timed,
        pulse.slice_duration_s * rng.choice([0.999, 1.001], size=n_rows),
        amplitudes + rng.normal(0.0, 0.1, size=n_rows),
    )
    return slices, columns, values


def expand(amplitudes, dts, slices, columns, values):
    """Single-entry probes of a pulse as dense (B, M, 4) amplitudes and (B, M) durations."""
    amps = np.repeat(amplitudes[None], len(slices), axis=0)
    probe_dts = np.repeat(np.asarray(dts)[None], len(slices), axis=0)
    for row, (m, c, value) in enumerate(zip(slices, columns, values)):
        if c == DURATION_COLUMN:
            probe_dts[row, m] = value
        else:
            amps[row, m, c] = value
    return amps, probe_dts


def mismatch_config(**overrides) -> ExperimentConfig:
    base = dict(
        true_g_hz=1.01 * G_HZ,
        amplitude_scale=(0.98, 1.0, 0.98, 1.0),
        distortion_tau_s=50e-6,
        noise_sigma=1e-3,
        t1_s=(0.730, 0.096),
        t2_s=(0.0965, 0.0425),
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestDistortion:
    def test_first_slice_attenuation_closed_form(self):
        amps = np.full((30, 4), 80.0)
        tau = 50e-6
        dt = 3e-3 / 30
        out = _low_pass(amps[None], np.full((1, 30), dt), tau)[0]
        expected_first = (1.0 - math.exp(-dt / tau)) * 80.0
        assert np.allclose(out[0], expected_first, atol=1e-9)
        # approach to the constant is monotone and exponential (check the
        # first slices only; later deviations underflow to exactly zero)
        deviation = 80.0 - out[:, 0]
        assert np.all(np.diff(deviation[:10]) < 0)
        assert np.allclose(
            deviation, 80.0 * np.exp(-dt * np.arange(1, 31) / tau), atol=1e-9
        )

    def test_huge_tau_suppresses_everything(self):
        pulse = random_pulse(25, 2e-3, 150.0, np.random.default_rng(2))
        out = _low_pass(pulse.amplitudes_hz[None], pulse.slice_duration_s, 1e3)[0]
        assert np.max(np.abs(out)) < 1e-3

    def test_recursion_matches_lfilter_bit_for_bit(self):
        # scipy's IIR filter is the oracle of the per-slice recursion.
        from scipy.signal import lfilter
        rng = np.random.default_rng(17)
        for _ in range(200):
            pulse = random_pulse(
                int(rng.integers(1, 60)), rng.uniform(1e-4, 6e-3), 200.0, rng
            )
            tau = 10.0 ** rng.uniform(-6.0, -2.0)
            k = math.exp(-pulse.slice_duration_s / tau)
            expected = lfilter([1.0 - k], [1.0, -k], pulse.amplitudes_hz, axis=0)
            uniform = np.full((1, pulse.n_slices), pulse.slice_duration_s)
            distorted = _low_pass(pulse.amplitudes_hz[None], uniform, tau)[0]
            assert np.array_equal(bits(distorted), bits(expected))

    def test_recursion_matches_per_slice_reference(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            pulse = random_pulse(int(rng.integers(1, 40)), rng.uniform(1e-4, 6e-3), 200.0, rng)
            tau = 10.0 ** rng.uniform(-6.0, -2.0)
            dts = pulse.slice_duration_s * rng.uniform(0.5, 1.5, size=pulse.n_slices)
            expected = reference_distortion(pulse.amplitudes_hz, tau, dts)
            assert np.array_equal(_low_pass(pulse.amplitudes_hz[None], dts[None], tau)[0], expected)

    @pytest.mark.parametrize("m_slices, n_rows", [(30, 40), (50, 501)])
    def test_stacked_recursion_matches_per_pulse(self, m_slices, n_rows):
        # uniform rows and rows with one slice's duration moved, in one stack
        from scipy.signal import lfilter
        rng = np.random.default_rng(23)
        pulse = random_pulse(m_slices, 2.4e-3, 150.0, rng)
        amps, dts = probe_stack(pulse, rng, n_rows)
        tau = 50e-6
        stacked = _low_pass(amps, dts, tau)
        k = math.exp(-pulse.slice_duration_s / tau)
        for row, (a, d) in enumerate(zip(amps, dts)):
            assert np.array_equal(bits(stacked[row]), bits(_low_pass(a[None], d[None], tau)[0]))
            assert np.array_equal(bits(stacked[row]), bits(reference_distortion(a, tau, d)))
            if np.all(d == pulse.slice_duration_s):
                assert np.array_equal(stacked[row], lfilter([1.0 - k], [1.0, -k], a, axis=0))

    def test_signed_zero_drive_starts_from_positive_zero(self):
        # y[0] = (1 - k) u[0] + k y[-1] with y[-1] = +0.0: a -0.0 drive gives +0.0
        amps = np.array([[-0.0, 0.0, -0.0, 12.5], [-0.0, 3.0, 0.0, -0.0], [1.0, -0.0, -0.0, 0.0]])
        dts = np.array([1e-4, 3e-5, 1e-4])
        distorted = _low_pass(amps[None], dts[None], 50e-6)[0]
        assert np.all(bits(distorted[0, :3]) == bits(0.0)) and bits(distorted[1, 0]) == bits(0.0)
        stack = np.stack([amps, -amps, np.full_like(amps, -0.0)])
        for row, a in zip(_low_pass(stack, np.tile(dts, (3, 1)), 50e-6), stack):
            assert np.array_equal(bits(row), bits(reference_distortion(a, 50e-6, dts)))


class TestConfigValidation:
    def test_t2_bound(self):
        with pytest.raises(ValueError):
            ExperimentConfig(t1_s=(0.1, 0.1), t2_s=(0.25, 0.1))

    def test_amplitude_scale_shape_and_sign(self):
        with pytest.raises(ValueError):
            ExperimentConfig(amplitude_scale=(1.0, 1.0))
        with pytest.raises(ValueError):
            ExperimentConfig(amplitude_scale=(1.0, -1.0, 1.0, 1.0))

    def test_scalar_bounds(self):
        with pytest.raises(ValueError):
            ExperimentConfig(true_g_hz=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(noise_sigma=-1e-3)
        with pytest.raises(ValueError):
            ExperimentConfig(distortion_tau_s=-1e-6)


NO_RELAXATION = dict(t1_s=(math.inf, math.inf), t2_s=(math.inf, math.inf))
# the four emulator paths: with or without the low-pass, with or without relaxation
APPARATUS = {
    "coherent": dict(distortion_tau_s=0.0, **NO_RELAXATION),
    "filter only": NO_RELAXATION,
    "relaxation only": dict(distortion_tau_s=0.0),
    "lossy": {},
}


class TestOpenEvolution:
    def test_reduces_to_unitary_when_ideal(self):
        backend = ExperimentBackend(ideal_config())
        model = SystemModel(g_hz=G_HZ)
        rng = np.random.default_rng(5)
        for _ in range(5):
            pulse = random_pulse(20, rng.uniform(1e-3, 5e-3), 120.0, rng)
            rho = backend.evolve_open(pulse)
            psi = reference_state(model, pulse, ket("00"))
            assert np.max(np.abs(rho - np.outer(psi, psi.conj()))) < 1e-10

    def test_amplitude_damping_fixed_point(self):
        # 6 s of free evolution from |11><11|; the ZZ drift leaves diagonal states alone
        table, index = _relaxation_table(np.full(200, 0.03), (0.730, 0.096, 0.0965, 0.0425))
        rho = np.outer(ket("11"), ket("11").conj())
        for row in index:
            rho = _relaxed(table[row], rho)
        assert abs(rho[0, 0].real - 1.0) < 1e-3
        assert abs(np.trace(rho).real - 1.0) < 1e-10

    def test_spin1_coherence_decays_at_t2(self):
        t2c = 0.0965
        table, index = _relaxation_table(np.full(100, t2c / 100), (0.730, 0.096, t2c, 0.0425))
        plus_zero = (ket("00") + ket("10")) / np.sqrt(2.0)
        # over T2 of free evolution; the ZZ drift only turns the phase of rho[0, 2]
        rho = np.outer(plus_zero, plus_zero.conj())
        for row in index:
            rho = _relaxed(table[row], rho)
        assert abs(abs(rho[0, 2]) - 0.5 * math.exp(-1.0)) < 1e-6

    @pytest.mark.parametrize("noise_sigma", [0.0, 1e-3])
    def test_matches_per_slice_reference(self, noise_sigma):
        rng = np.random.default_rng(29)
        for config in (ideal_config(), mismatch_config(), mismatch_config(distortion_tau_s=0.0),
                       mismatch_config(t1_s=(math.inf, math.inf), t2_s=(0.05, 0.07))):
            backend = ExperimentBackend(dataclasses.replace(config, noise_sigma=noise_sigma))
            for m_slices in (1, 7, 50):
                pulse = random_pulse(m_slices, rng.uniform(1e-3, 5e-3), 150.0, rng)
                uniform = np.full(m_slices, pulse.slice_duration_s)
                # the closed-form map reorders the Kraus arithmetic: 1e-12, not bits
                expected = reference_evolution(backend, pulse, uniform)
                assert np.max(np.abs(backend.evolve_open(pulse) - expected)) <= 1e-12

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(apparatus=st.sampled_from(sorted(APPARATUS)), m_slices=st.integers(1, 60),
           duration=st.floats(1e-4, 6e-3), seed=st.integers(0, 2**32 - 1))
    def test_equals_matmul_loop_bit_for_bit(self, apparatus, m_slices, duration, seed):
        # a lossy lab has the density loop's bits; a relaxation-free lab
        # has the ket loop's, and the density loop's state within 1e-14
        backend = ExperimentBackend(mismatch_config(**APPARATUS[apparatus]))
        pulse = random_pulse(m_slices, duration, 150.0, np.random.default_rng(seed))
        rho = backend.evolve_open(pulse)
        uniform = np.full(m_slices, pulse.slice_duration_s)
        dense = reference_pulse_evolution(backend, pulse, uniform)
        expected = dense
        if not lab_relaxation_times(backend.config):
            psi = reference_ket_evolution(backend, pulse, uniform)
            expected = np.outer(psi, psi.conj())
            assert np.max(np.abs(rho - dense)) <= 1e-14
        assert np.array_equal(rho.view(np.int64), expected.view(np.int64))

    def test_t2_in_the_validators_slack_decays_as_the_kraus_channel(self):
        # T2 may exceed 2*T1 by 1e-12; coherence then decays at 1/(2*T1)
        backend = ExperimentBackend(ideal_config(t1_s=(1e-6, math.inf), t2_s=(2e-6 + 1e-12, 0.1)))
        pulse = random_pulse(5, 2e-6, 1e5, np.random.default_rng(37))
        uniform = np.full(5, pulse.slice_duration_s)
        rho = backend.evolve_open(pulse)
        assert np.max(np.abs(rho - reference_evolution(backend, pulse, uniform))) <= 1e-12

    def test_single_pulse_equals_its_row_of_a_stack(self):
        # the pulse keeps its bits next to probes; each probe's readout
        # through its window, then its completed ket or the back-propagated
        # observables, equals its own evolution's up to reordered rounding
        rng = np.random.default_rng(31)
        pulse = random_pulse(20, 2.4e-3, 150.0, rng)
        slices, columns, values = entry_probes(pulse, rng, 70)
        uniform = np.full(pulse.n_slices, pulse.slice_duration_s)
        # probes that differ nowhere: an amplitude and a duration set to the pulse's own
        columns[5:9] = [0, DURATION_COLUMN, 3, DURATION_COLUMN]
        values[5:9] = [pulse.amplitudes_hz[slices[5], 0], pulse.slice_duration_s,
                       pulse.amplitudes_hz[slices[7], 3], pulse.slice_duration_s]
        amps, dts = expand(pulse.amplitudes_hz, uniform, slices, columns, values)
        for config in (ideal_config(), mismatch_config(), mismatch_config(distortion_tau_s=0.0)):
            # a second, fresh backend: the first keeps the pulse's evolution
            backend, fresh = ExperimentBackend(config), ExperimentBackend(config)
            leaving, observables = backend._evolve(
                pulse.amplitudes_hz, pulse.slice_duration_s, slices, columns, values
            )
            rho = backend.evolve_open(pulse)
            assert np.array_equal(rho, fresh.evolve_open(pulse))
            final = rho
            if observables is None:  # a relaxation-free lab's completed kets
                final = reference_ket_evolution(fresh, pulse, uniform)
                assert same_bits(rho, np.outer(final, final.conj()))
            assert same_bits(leaving[5:9], np.repeat(final[None], 4, axis=0))
            alone = [reference_pulse_evolution(fresh, pulse.with_amplitudes(a), d)
                     for a, d in zip(amps, dts)]
            gap = probe_readouts(leaving, observables) - readouts(alone)
            assert np.max(np.abs(gap)) <= 1e-12

    @pytest.mark.parametrize("m_slices", [1, 7, 50])
    def test_back_propagated_readouts_equal_forward_evolution(self, m_slices):
        # Large steps of an amplitude or a slice duration under relaxation
        # and the low-pass: every probe read out against observables
        # back-propagated to the end of its window agrees with evolving it
        # whole, forward, to 1e-12.
        rng = np.random.default_rng(47 + m_slices)
        for config in (mismatch_config(), mismatch_config(distortion_tau_s=0.0),
                       mismatch_config(distortion_tau_s=5e-3, t1_s=(1e-3, 2e-3),
                                       t2_s=(1e-3, 4e-3))):
            # a second, fresh backend: the first keeps the pulse's evolution
            backend, fresh = ExperimentBackend(config), ExperimentBackend(config)
            for _ in range(3):
                pulse = random_pulse(m_slices, rng.uniform(1e-3, 5e-3), 150.0, rng)
                dt = pulse.slice_duration_s
                slices = rng.integers(0, m_slices, size=12)
                columns = rng.integers(0, DURATION_COLUMN + 1, size=12)
                values = np.where(  # large steps of an amplitude or a duration
                    columns == DURATION_COLUMN,
                    dt * rng.uniform(0.5, 1.5, size=12),
                    pulse.amplitudes_hz[slices, np.minimum(columns, 3)]
                    + rng.normal(0.0, 20.0, size=12),
                )
                probes = slices, columns, values
                amps, dts = expand(pulse.amplitudes_hz, np.full(m_slices, dt), *probes)
                leaving, observables = backend._evolve(pulse.amplitudes_hz, dt, *probes)
                assert np.array_equal(backend.evolve_open(pulse), fresh.evolve_open(pulse))
                forward = [reference_pulse_evolution(fresh, pulse.with_amplitudes(a), d)
                           for a, d in zip(amps, dts)]
                assert np.max(np.abs(readouts(leaving, observables) - readouts(forward))) <= 1e-12
                # the Kraus loop, independent of the tabled map and its transpose
                kraus = [reference_evolution(backend, pulse.with_amplitudes(a), d)
                         for a, d in zip(amps, dts)]
                assert np.max(np.abs(readouts(leaving, observables) - readouts(kraus))) <= 1e-12

    def test_a_kept_evolution_is_handed_out_as_copies(self):
        # a repeated pulse reuses its evolution; what a caller did to an
        # earlier result must not reach the later ones
        backend = ExperimentBackend(mismatch_config(noise_sigma=0.0))
        pulse = random_pulse(6, 1e-3, 100.0, np.random.default_rng(41))
        first = backend.evolve_open(pulse)
        expected = first.copy()
        first[:] = 0.0
        again = backend.evolve_open(pulse)
        assert np.array_equal(again, expected)
        probes = entry_probes(pulse, np.random.default_rng(42), 5)
        leaving, observables = backend._evolve(pulse.amplitudes_hz, pulse.slice_duration_s, *probes)
        for handed in (leaving, observables):
            handed[...] = 0.0
        assert np.array_equal(backend.evolve_open(pulse), expected)
        fresh = ExperimentBackend(backend.config)
        assert backend.fidelity_partial(pulse) == fresh.fidelity_partial(pulse)

    @pytest.mark.parametrize("apparatus", sorted(APPARATUS))
    def test_a_kept_evolution_is_keyed_by_its_slice_duration(self, apparatus):
        # the same amplitudes over another duration are another pulse: its
        # state and its probes' are a fresh backend's, bit for bit
        config = mismatch_config(**APPARATUS[apparatus])
        rng = np.random.default_rng(61)
        pulse = random_pulse(6, 1e-3, 100.0, rng)
        longer = pulse.with_duration(1.5e-3)
        probes = entry_probes(longer, rng, 7)
        backend, fresh = ExperimentBackend(config), ExperimentBackend(config)
        first = backend.evolve_open(pulse)
        second = backend.evolve_open(longer)
        assert not np.array_equal(second, first)
        assert np.array_equal(second.view(np.int64), fresh.evolve_open(longer).view(np.int64))
        backend.evolve_open(pulse)
        dt = longer.slice_duration_s
        evolved = backend._evolve(longer.amplitudes_hz, dt, *probes)
        expected = ExperimentBackend(config)._evolve(longer.amplitudes_hz, dt, *probes)
        for got, want in zip(evolved, expected):
            assert same_bits(got, want)

    def test_output_is_physical_under_mismatch(self):
        backend = ExperimentBackend(mismatch_config())
        pulse = bell_recipe_pulse(G_HZ)
        rho = backend.evolve_open(pulse)
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(rho).min() > -1e-9


RELAXATION_TIME = st.floats(1e-4, 10.0)


@st.composite
def relaxation_times(draw):
    """One spin's (T1, T2): T2 <= 2 T1, either one possibly infinite."""
    t1 = draw(RELAXATION_TIME | st.just(math.inf))
    if draw(st.booleans()):
        return t1, min(draw(RELAXATION_TIME | st.just(math.inf)), 2.0 * t1)
    return t1, 2.0 * t1 * draw(st.floats(1e-3, 1.0))


def density_from(parts, rank):
    """A rank-``rank`` density matrix from (2, 4, 4) real and imaginary parts."""
    a = (parts[0] + 1j * parts[1])[:, :rank]
    weight = np.sum(np.abs(a) ** 2)
    assume(weight > 1e-6)
    rho = a @ a.conj().T / weight
    return (rho + rho.conj().T) / 2.0


RELAXATION_CASES = dict(
    parts=arrays(np.float64, (2, 4, 4), elements=st.floats(-1.0, 1.0)),
    rank=st.integers(1, 4),
    dt=st.floats(1e-7, 1.0),
    spins=st.tuples(relaxation_times(), relaxation_times()),
)


class TestRelaxationMap:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(**RELAXATION_CASES)
    def test_is_the_kraus_channel(self, parts, rank, dt, spins):
        rho = density_from(parts, rank)
        t1, t2 = zip(*spins)
        relaxed = rho.copy()
        _relax(relaxed, _decay_factors(np.array([dt]), t1 + t2)[0])
        assert abs(np.trace(relaxed) - np.trace(rho)) <= 1e-12
        assert np.array_equal(relaxed, relaxed.conj().T)
        assert np.linalg.eigvalsh(relaxed).min() >= -1e-12
        assert np.max(np.abs(relaxed - relax_kraus(rho, t1, t2, dt))) <= 1e-12

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(**RELAXATION_CASES)
    def test_tabled_matrix_is_the_map(self, parts, rank, dt, spins):
        # the emulator applies _relax as one 16 x 16 product on vec(rho)
        rho = density_from(parts, rank)
        t1, t2 = zip(*spins)
        factors = _decay_factors(np.array([dt]), t1 + t2)[0]
        mapped = _relaxed(_relaxation_table(dt, t1 + t2)[0][0], rho)
        relaxed = rho.copy()
        _relax(relaxed, factors)
        assert np.max(np.abs(mapped - relaxed)) <= 1e-14
        assert np.max(np.abs(mapped - relax_kraus(rho, t1, t2, dt))) <= 1e-12
        assert abs(np.trace(mapped) - np.trace(rho)) <= 1e-14
        assert np.linalg.eigvalsh((mapped + mapped.conj().T) / 2.0).min() >= -1e-12

    def test_table_holds_one_matrix_per_distinct_duration(self):
        rng = np.random.default_rng(43)
        dts = rng.choice([1e-5, 2e-4, 3e-3], size=(6, 9))
        times = (0.73, 0.096, 0.0965, 0.0425)
        table, index = _relaxation_table(dts, times)
        assert table.shape == (3, 16, 16) and index.shape == dts.shape
        rho = np.outer(ket("11"), ket("11").conj())
        for dt, matrix in zip(np.unique(dts), table):
            (alone,), _ = _relaxation_table(dt, times)
            assert np.array_equal(matrix, alone)
            # |11> decays into |01> and |10>, each spin at its own T1
            populations = np.diag(_relaxed(matrix, rho)).real
            a1, a2 = math.exp(-dt / 0.73), math.exp(-dt / 0.096)
            assert populations == pytest.approx(
                [(1 - a1) * (1 - a2), (1 - a1) * a2, a1 * (1 - a2), a1 * a2], rel=1e-12
            )
        per_slice = np.stack([_relaxation_table(dt, times)[0][0] for dt in dts.ravel()])
        assert np.array_equal(table[index], per_slice.reshape(6, 9, 16, 16))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(dts=st.lists(st.floats(1e-9, 1.0), min_size=0, max_size=12), spins=RELAXATION_CASES["spins"])
    def test_real_units_equal_complex_units_bit_for_bit(self, dts, spins):
        # the map runs on real unit matrices; on complex ones its real parts are the same
        t1, t2 = zip(*spins)
        factors = _decay_factors(np.array(dts), t1 + t2)[0]
        table = _relaxation_table(np.array(dts), t1 + t2)[0]
        assert table.dtype == np.float64 and table.flags.c_contiguous
        assert np.array_equal(bits(table), bits(reference_relaxation_matrices(factors)))


@st.composite
def probes_of_a_pulse(draw):
    """A pulse and single-entry probes of it, plus one ledger category per probe.

    Probes are (slices, columns, values).  Each sets one amplitude, by a
    step from one ulp, which the channel scale can round away, through
    far below rounding to large, or one slice duration, or sets an entry
    to the pulse's own value; any slice and channel, slice 0 included,
    and some rows repeat others.
    """
    m_slices = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pulse = random_pulse(m_slices, draw(st.floats(1e-4, 5e-3)), 150.0, rng)
    # an infinite step stands for one ulp toward it
    step = st.sampled_from(
        [1e-13, 1e-9, 0.1, 30.0, -1e-13, -1e-9, -0.1, -30.0, math.inf, -math.inf, 0.0]
    )
    slices, columns, values = [], [], []
    for _ in range(draw(st.integers(0, 12))):
        m, c = draw(st.integers(0, m_slices - 1)), draw(st.integers(0, DURATION_COLUMN))
        if c == DURATION_COLUMN:
            value = pulse.slice_duration_s * draw(st.sampled_from([1.0, 0.5, 1.5, 1 + 1e-12]))
        else:
            value, by = pulse.amplitudes_hz[m, c], draw(step)
            value = np.nextafter(value, by) if math.isinf(by) else value + by
        slices.append(m)
        columns.append(c)
        values.append(float(value))
    if slices:
        for row in draw(st.lists(st.integers(0, len(slices) - 1), max_size=3)):
            for entries in (slices, columns, values):
                entries.append(entries[row])
    categories = draw(st.lists(st.sampled_from(LEDGER_CATEGORIES),
                               min_size=len(slices), max_size=len(slices)))
    probes = np.array(slices, dtype=np.intp), np.array(columns, dtype=np.intp), np.array(values)
    return pulse, probes, categories


BAD_DURATION = st.sampled_from([0.0, -0.0, -1e-4, -math.inf, math.inf, math.nan])
BAD_AMPLITUDE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def malformed_probes(draw):
    """Single-entry probes of a pulse with exactly one kind of fault, and their categories.

    The fault is a slice or column index out of range, an index array
    that does not hold integers, arrays that are not 1-D or of unequal
    length, a value that is not a finite real, a duration that is not
    positive and finite, a category list of the wrong length, or a name
    in it that is not a ledger category.
    """
    m_slices = draw(st.integers(1, 5))
    n_rows = draw(st.integers(1, 4))
    pulse = random_pulse(m_slices, 1e-3, 100.0, np.random.default_rng(draw(st.integers(0, 99))))
    slices = np.array([draw(st.integers(0, m_slices - 1)) for _ in range(n_rows)])
    columns = np.array([draw(st.integers(0, DURATION_COLUMN - 1)) for _ in range(n_rows)])
    values = pulse.amplitudes_hz[slices, columns] + 1.0
    categories = ["gradient_control"] * n_rows
    row = draw(st.integers(0, n_rows - 1))
    fault = draw(st.sampled_from(
        ["slice index", "column index", "not integers", "shape", "length", "value", "duration",
         "value type", "categories", "unknown category"]
    ))
    if fault == "slice index":
        slices[row] = draw(st.sampled_from([m_slices, m_slices + 7, -1, -m_slices]))
    elif fault == "column index":
        columns[row] = draw(st.sampled_from([DURATION_COLUMN + 1, 9, -1, -5]))
    elif fault == "not integers":
        bad = draw(st.sampled_from([np.float64, np.complex128, np.bool_, str]))
        if draw(st.booleans()):
            slices = slices.astype(bad)
        else:
            columns = columns.astype(bad)
    elif fault == "shape":
        which = draw(st.sampled_from(["slices", "columns", "values"]))
        arrays = dict(slices=slices, columns=columns, values=values)
        arrays[which] = draw(st.sampled_from([arrays[which][None], arrays[which][:, None],
                                              arrays[which][0]]))
        slices, columns, values = arrays["slices"], arrays["columns"], arrays["values"]
    elif fault == "length":
        which = draw(st.sampled_from(["slices", "columns", "values"]))
        arrays = dict(slices=slices, columns=columns, values=values)
        arrays[which] = draw(st.sampled_from([arrays[which][:-1],
                                              np.concatenate([arrays[which], arrays[which][:1]])]))
        slices, columns, values = arrays["slices"], arrays["columns"], arrays["values"]
    elif fault == "value":
        values[row] = draw(BAD_AMPLITUDE)
    elif fault == "duration":
        columns[row] = DURATION_COLUMN
        values[row] = draw(BAD_DURATION)
    elif fault == "value type":
        values = draw(st.sampled_from([values.astype(np.complex128), values.astype(str)]))
    elif fault == "unknown category":
        categories[row] = draw(st.sampled_from(["bogus", "calibration", "Gradient_control"]))
    else:
        categories = categories + ["gradient_time"] if draw(st.booleans()) else categories[1:]
    return pulse, (slices, columns, values), categories


class TestProbeEvolution:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(probes=probes_of_a_pulse(), low_pass=st.booleans(), relaxing=st.booleans(),
           seed=st.integers(0, 1000))
    def test_each_probe_equals_its_own_evolution(self, probes, low_pass, relaxing, seed):
        pulse, entries, categories = probes
        overrides = dict(seed=seed, distortion_tau_s=50e-6 if low_pass else 0.0)
        if not relaxing:
            overrides.update(NO_RELAXATION)
        batched = ExperimentBackend(mismatch_config(**overrides))
        single = ExperimentBackend(mismatch_config(**overrides))
        values = batched.fidelity_partial_batch(pulse, *entries, categories)
        uniform = np.full(pulse.n_slices, pulse.slice_duration_s)
        amps, dts = expand(pulse.amplitudes_hz, uniform, *entries)
        expected = [
            reference_partial(single, pulse.with_amplitudes(a), d, c)
            for a, d, c in zip(amps, dts, categories)
        ]
        # completed kets and back-propagated readouts reorder the arithmetic:
        # 1e-12, not bits
        np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-12)
        assert batched.ledger.as_dict() == single.ledger.as_dict()
        assert batched._rng.bit_generator.state == single._rng.bit_generator.state


    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(probes=probes_of_a_pulse(), apparatus=st.sampled_from(sorted(APPARATUS)),
           earlier=st.sampled_from(["none", "same", "equal", "different"]),
           seed=st.integers(0, 1000))
    def test_probes_equal_the_dense_path_bit_for_bit(self, probes, apparatus, earlier, seed):
        # After no readout, or one of the same pulse, an equal pulse or a
        # different one, the probes' states and observables have the bits
        # of the path that expands them into dense stacks, decomposes
        # every changed slice and keeps nothing, run on a fresh backend:
        # on kets for a relaxation-free lab, which hands its probes out as
        # completed kets, and whose readouts agree with the density path's
        # within 1e-12; readouts, ledger and noise stream follow.
        pulse, entries, categories = probes
        config = mismatch_config(seed=seed, **APPARATUS[apparatus])
        backend, fresh = ExperimentBackend(config), ExperimentBackend(config)
        uniform = np.full(pulse.n_slices, pulse.slice_duration_s)
        amps, dts = expand(pulse.amplitudes_hz, uniform, *entries)
        dense = reference_probe_evolution(fresh, pulse.amplitudes_hz, uniform, amps, dts)
        expected = dense
        if not lab_relaxation_times(config):
            psi, kets = reference_ket_probe_evolution(fresh, pulse.amplitudes_hz, uniform, amps, dts)
            expected = np.outer(psi, psi.conj()), kets, None
            assert np.max(np.abs(expected[0] - dense[0])) <= 1e-14
            if len(dts):
                gap = probe_readouts(kets, None) - readouts(dense[1], dense[2])
                assert np.max(np.abs(gap)) <= 1e-12
        if earlier != "none":
            before = {
                "same": pulse,
                "equal": PulseSequence(pulse.duration_s, pulse.amplitudes_hz.copy()),
                "different": random_pulse(1 + seed % 4, 1e-3, 150.0, np.random.default_rng(seed)),
            }[earlier]
            assert backend.fidelity_partial(before) == fresh.fidelity_partial(before)
        probed = backend._evolve(pulse.amplitudes_hz, pulse.slice_duration_s, *entries)
        evolved = (backend.evolve_open(pulse), *probed)
        for got, want in zip(evolved, expected):
            assert same_bits(got, want)
        values = backend.fidelity_partial_batch(pulse, *entries, categories)
        assert np.array_equal(bits(values), bits(fresh._partial(*expected[1:], categories)))
        assert backend.ledger.as_dict() == fresh.ledger.as_dict()
        assert backend._rng.bit_generator.state == fresh._rng.bit_generator.state


    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(probes=probes_of_a_pulse(), low_pass=st.booleans(), seed=st.integers(0, 1000))
    def test_ket_probes_keep_their_bits_in_any_stack(self, probes, low_pass, seed):
        # A relaxation-free lab completes each probe's ket to the pulse's
        # end: its ket and readout have the same bits alone as in any
        # stack and in any batch order, and its readout agrees with the
        # density loop's within 1e-12, through the noise stream and ledger
        # of one fidelity_partial call per probe.
        pulse, entries, categories = probes
        config = mismatch_config(seed=seed, distortion_tau_s=50e-6 if low_pass else 0.0,
                                 **NO_RELAXATION)
        backend, single = ExperimentBackend(config), ExperimentBackend(config)
        args = pulse.amplitudes_hz, pulse.slice_duration_s
        kets, observables = backend._evolve(*args, *entries)
        assert kets.shape == (len(categories), 4) and observables is None
        values = _ket_correlators(kets)
        order = np.random.default_rng(seed).permutation(len(categories))
        shuffled, _ = backend._evolve(*args, *(entry[order] for entry in entries))
        assert same_bits(shuffled, kets[order])
        assert np.array_equal(bits(_ket_correlators(shuffled)), bits(values[order]))
        for b in range(len(categories)):
            alone, _ = backend._evolve(*args, *(entry[b : b + 1] for entry in entries))
            assert same_bits(alone[0], kets[b])
            assert np.array_equal(bits(_ket_correlators(alone)[0]), bits(values[b]))
        estimates = backend.fidelity_partial_batch(pulse, *entries, categories)
        uniform = np.full(pulse.n_slices, pulse.slice_duration_s)
        amps, dts = expand(pulse.amplitudes_hz, uniform, *entries)
        expected = [
            reference_partial(single, pulse.with_amplitudes(a), d, c)
            for a, d, c in zip(amps, dts, categories)
        ]
        np.testing.assert_allclose(estimates, expected, rtol=0.0, atol=1e-12)
        assert backend.ledger.as_dict() == single.ledger.as_dict()
        assert backend._rng.bit_generator.state == single._rng.bit_generator.state

    def test_a_difference_the_scale_rounds_away_is_no_difference(self):
        # One ulp on a channel scaled by 0.98 sometimes rounds to the
        # pulse's applied amplitude; such a probe differs nowhere, as on
        # the dense path, which compares the scaled waveforms.
        config = mismatch_config(distortion_tau_s=0.0, **NO_RELAXATION)
        scale = np.asarray(config.amplitude_scale)
        rng = np.random.default_rng(53)
        rounded_away = 0
        for _ in range(60):
            m_slices = int(rng.integers(1, 8))
            pulse = random_pulse(m_slices, 2e-3, 150.0, rng)
            slices = rng.integers(0, m_slices, size=8)
            columns = rng.choice([0, 2], size=8)  # the 0.98 channels
            programmed = pulse.amplitudes_hz[slices, columns]
            values = np.nextafter(programmed, rng.choice([-np.inf, np.inf], size=8))
            rounded_away += np.count_nonzero(values * scale[columns] == programmed * scale[columns])
            dts = np.full(m_slices, pulse.slice_duration_s)
            evolved = ExperimentBackend(config)._evolve(
                pulse.amplitudes_hz, pulse.slice_duration_s, slices, columns, values
            )
            stacks = (pulse.amplitudes_hz, dts, *expand(pulse.amplitudes_hz, dts, slices, columns, values))
            _, kets = reference_ket_probe_evolution(ExperimentBackend(config), *stacks)
            assert same_bits(evolved[0], kets) and evolved[1] is None
            _, *density_path = reference_probe_evolution(ExperimentBackend(config), *stacks)
            assert np.max(np.abs(probe_readouts(*evolved) - readouts(*density_path))) <= 1e-12
        assert rounded_away > 0


@st.composite
def readout_stacks(draw):
    """B density matrices and L Hermitian observables, as the backend reads them out.

    The states have random ranks 1-4.  The observables are Pauli strings
    drawn from ``TOMOGRAPHY_LABELS``, or their back-propagated images
    U^dag R^T(P) U under random unitaries U and a random relaxation
    map R, built as ``_evolve`` builds them; they are (L, 4, 4), shared
    by every state, or (B, L, 4, 4), one set per state.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_states, n_observables = draw(st.integers(1, 40)), draw(st.integers(1, 15))
    per_state = draw(st.booleans())
    shape = (n_states, n_observables) if per_state else (n_observables,)
    labels = rng.integers(len(TOMOGRAPHY_LABELS), size=shape)
    observables = np.stack([pauli_string(*TOMOGRAPHY_LABELS[i]) for i in labels.ravel()])
    if draw(st.booleans()):
        factors = np.exp(-rng.uniform(0.0, 2.0, size=(1, 4)))
        observables = _relaxed(_relaxation_matrices(factors)[0].T, observables)
        z = rng.normal(size=(len(observables), 2, 4, 4))
        u = np.linalg.qr(z[:, 0] + 1j * z[:, 1])[0]
        observables = u.conj().swapaxes(-1, -2) @ observables @ u
    a = rng.normal(size=(n_states, 4, 4)) + 1j * rng.normal(size=(n_states, 4, 4))
    a[:, :, draw(st.integers(1, 4)):] = 0.0
    rhos = a @ a.conj().swapaxes(-1, -2)
    rhos /= np.trace(rhos, axis1=-2, axis2=-1).real[:, None, None]
    return rhos, observables.reshape(shape + (4, 4))


@st.composite
def unit_kets(draw):
    """1-40 unit kets; in some, one entry is zero or near it, or one part is zero."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kets = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    for _ in range(draw(st.integers(0, 4))):
        row, entry = draw(st.integers(0, n - 1)), draw(st.integers(0, 3))
        size = draw(st.sampled_from([0.0, 1e-300, 1e-8]))
        if draw(st.booleans()):
            kets[row, entry] *= size
        else:
            kets[row] = kets[row].real if draw(st.booleans()) else 1j * kets[row].imag
    norms = np.linalg.norm(kets, axis=1)
    assume(np.all(norms > 1e-150))  # a row zeroed, or too small to square, has no direction
    return kets / norms[:, None]


class TestReadout:
    # The kernel against the trace of the stacked product: 4 eps relative to
    # sum_ij |rho_ij| |O_ij|, the scale of a 32-term dot product's rounding.
    # That is about 3x the worst measured: 3.3e-16 on the emulator's probe
    # readouts (every apparatus, recipe and random pulses) and 3.4e-16 over
    # 4.5 million random states against Pauli strings and their images.
    READOUT_RTOL = 4.0 * np.finfo(float).eps

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(stack=readout_stacks(), picks=st.lists(st.integers(0, 39), min_size=1, max_size=8))
    def test_readout_kernel_is_the_trace_and_stack_invariant(self, stack, picks):
        rhos, observables = stack
        per_state = observables.ndim == 4
        values = _expectations(rhos, observables)
        assert values.shape == (len(rhos), observables.shape[-3])
        # the trace of the stacked product, to rounding
        scale = np.sum(abs(rhos[:, None]) * abs(observables), axis=(-2, -1))
        assert np.all(abs(values - reference_readouts(rhos, observables)) <= self.READOUT_RTOL * scale)
        # a state alone, or in any other stack, has its row's bits
        for b in range(len(rhos)):
            alone = _expectations(rhos[b : b + 1], observables[b : b + 1] if per_state else observables)
            assert np.array_equal(bits(alone[0]), bits(values[b]))
        rows = [b % len(rhos) for b in picks]
        restacked = _expectations(rhos[rows], observables[rows] if per_state else observables)
        assert np.array_equal(bits(restacked), bits(values[rows]))
        # an observable alone has its column's bits
        for col in range(observables.shape[-3]):
            alone = _expectations(rhos, observables[..., col : col + 1, :, :])
            assert np.array_equal(bits(alone[:, 0]), bits(values[:, col]))
        # shared observables read out as their broadcast, and a transposed
        # (non-contiguous) state as its copy
        if not per_state:
            broadcast = np.broadcast_to(observables, (len(rhos),) + observables.shape)
            assert np.array_equal(bits(_expectations(rhos, broadcast)), bits(values))
        flipped = rhos.transpose(0, 2, 1)
        assert np.array_equal(
            bits(_expectations(flipped, observables)), bits(_expectations(flipped.copy(), observables))
        )
        backend = ExperimentBackend(ideal_config())
        assert backend.measure_pauli(flipped[0], ("X", "Y"), "fidelity_full") == (
            backend.measure_pauli(flipped[0].copy(), ("X", "Y"), "fidelity_full")
        )

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(kets=unit_kets(), picks=st.lists(st.integers(0, 39), min_size=1, max_size=8),
           seed=st.integers(0, 2**32 - 1))
    def test_ket_readouts_are_stack_invariant_and_the_density_readouts(self, kets, picks, seed):
        # a ket's three correlators have the same bits alone as in any
        # stack and in any order, and agree with the density kernel's
        # readouts of its |psi><psi| to a few eps
        values = _ket_correlators(kets)
        assert values.shape == (len(kets), 3)
        for b in range(len(kets)):
            assert np.array_equal(bits(_ket_correlators(kets[b : b + 1])[0]), bits(values[b]))
        rows = [b % len(kets) for b in picks]
        assert np.array_equal(bits(_ket_correlators(kets[rows])), bits(values[rows]))
        order = np.random.default_rng(seed).permutation(len(kets))
        assert np.array_equal(bits(_ket_correlators(kets[order])), bits(values[order]))
        # a stack that is not contiguous reads as its copy
        strided = np.repeat(kets, 2, axis=0)[::2]
        assert np.array_equal(bits(_ket_correlators(strided)), bits(values))
        dense = _expectations(_density(kets), PARTIAL_OPS)
        assert np.max(np.abs(values - dense)) <= KET_READOUT_TOL

    def test_noiseless_zero_pulse_partial_fidelity(self):
        backend = ExperimentBackend(ideal_config())
        pulse = PulseSequence(duration_s=1e-3, amplitudes_hz=np.zeros((10, 4)))
        assert abs(backend.fidelity_partial(pulse)) < 1e-12

    def test_full_equals_partial_target_overlap_noiseless(self):
        backend = ExperimentBackend(mismatch_config(noise_sigma=0.0))
        pulse = bell_recipe_pulse(G_HZ)
        full = backend.fidelity_full(pulse)
        assert abs(full - backend.true_fidelity(pulse)) < 1e-10

    def test_oracle_equivalence_with_model(self):
        backend = ExperimentBackend(ideal_config())
        model = SystemModel(g_hz=G_HZ)
        rng = np.random.default_rng(8)
        for _ in range(3):
            pulse = random_pulse(30, rng.uniform(1e-3, 5e-3), 150.0, rng)
            j_model = model_fidelity(model, pulse, ket("00"), singlet_state())
            assert abs(backend.fidelity_full(pulse) - j_model) < 1e-10

    def test_designed_pulse_degrades_on_mismatched_lab(self):
        pulse = bell_recipe_pulse(G_HZ)
        j_model = model_fidelity(
            SystemModel(g_hz=G_HZ), pulse, ket("00"), singlet_state()
        )
        backend = ExperimentBackend(mismatch_config(noise_sigma=0.0))
        assert backend.true_fidelity(pulse) < j_model

    def test_measurement_stream_is_deterministic(self):
        runs = []
        for _ in range(2):
            backend = ExperimentBackend(mismatch_config(seed=42))
            pulse = bell_recipe_pulse(G_HZ)
            runs.append(
                [backend.fidelity_partial(pulse) for _ in range(4)]
                + [backend.fidelity_full(pulse)]
            )
        assert runs[0] == runs[1]
        other = ExperimentBackend(mismatch_config(seed=43))
        assert other.fidelity_partial(bell_recipe_pulse(G_HZ)) != runs[0][0]

    def test_noise_sample_mean_converges(self):
        backend = ExperimentBackend(ideal_config(noise_sigma=1e-2, seed=11))
        rho = np.outer(singlet_state(), singlet_state().conj())
        n = 10_000
        values = [
            backend.measure_pauli(rho, ("Z", "Z"), "fidelity_partial")
            for _ in range(n)
        ]
        assert abs(np.mean(values) - (-1.0)) < 4.0 * 1e-2 / math.sqrt(n)

    def test_noise_clamp(self):
        sigma = 0.5
        backend = ExperimentBackend(ideal_config(noise_sigma=sigma, seed=12))
        rho = np.outer(ket("00"), ket("00").conj())
        values = [
            backend.measure_pauli(rho, ("Z", "Z"), "fidelity_partial")
            for _ in range(2000)
        ]
        assert max(values) <= 1.0 + 5.0 * sigma
        assert min(values) >= -1.0 - 5.0 * sigma

    def test_partial_fidelity_noise_scale(self):
        # spread of the 3-correlator estimate follows (sqrt(3)/4) sigma
        sigma = 1e-3
        pulse = bell_recipe_pulse(G_HZ)
        clean = ExperimentBackend(ideal_config()).fidelity_partial(pulse)
        inside = 0
        trials = 300
        for seed in range(trials):
            noisy = ExperimentBackend(
                ideal_config(noise_sigma=sigma, seed=seed)
            ).fidelity_partial(pulse)
            if abs(noisy - clean) <= 3.0 * (math.sqrt(3.0) / 4.0) * sigma:
                inside += 1
        assert inside >= 0.97 * trials

    def test_normal_vector_equals_scalar_draws(self):
        # The batched readouts draw B*L noise samples at once; that they equal
        # B*L scalar draws, and leave the stream in the same state, is numpy's
        # behaviour, pinned here so an upgrade that changes it fails loudly.
        for sigma, n in ((1e-3, 1500), (0.5, 7), (2.0, 1)):
            vector, scalar = np.random.default_rng(41), np.random.default_rng(41)
            drawn = vector.normal(0.0, sigma, size=n)
            assert np.array_equal(drawn, [scalar.normal(0.0, sigma) for _ in range(n)])
            assert vector.bit_generator.state == scalar.bit_generator.state

    def test_partial_fidelity_equals_scalar_readouts(self):
        pulse = bell_recipe_pulse(G_HZ)
        batched = ExperimentBackend(mismatch_config(seed=21))
        scalar = ExperimentBackend(mismatch_config(seed=21))
        for _ in range(3):
            rho = scalar.evolve_open(pulse)
            total = sum(
                scalar.measure_pauli(rho, labels, "fidelity_partial") for labels in PARTIAL_LABELS
            )
            assert batched.fidelity_partial(pulse) == (1.0 - total) / 4.0
        assert batched.ledger.as_dict() == scalar.ledger.as_dict()
        assert batched._rng.bit_generator.state == scalar._rng.bit_generator.state

    def test_full_tomography_equals_scalar_readouts(self):
        pulse = bell_recipe_pulse(G_HZ)
        batched = ExperimentBackend(mismatch_config(noise_sigma=2e-2, seed=22))
        scalar = ExperimentBackend(mismatch_config(noise_sigma=2e-2, seed=22))
        for _ in range(3):
            rho = scalar.evolve_open(pulse)
            estimate = np.eye(4, dtype=np.complex128)
            for labels in TOMOGRAPHY_LABELS:
                value = scalar.measure_pauli(rho, labels, "fidelity_full")
                estimate = estimate + value * pauli_string(*labels)
            estimate /= 4.0
            w, v = np.linalg.eigh(estimate)
            w = np.clip(w, 0.0, None)
            w /= w.sum()
            projected = (v * w) @ v.conj().T
            psi = singlet_state()
            expected = float(np.real(psi.conj() @ projected @ psi))
            assert batched.fidelity_full(pulse) == expected
        assert batched.ledger.as_dict() == scalar.ledger.as_dict()
        assert batched._rng.bit_generator.state == scalar._rng.bit_generator.state

    def test_batch_equals_one_call_per_probe(self):
        rng = np.random.default_rng(37)
        pulse = random_pulse(10, 2.4e-3, 150.0, rng)
        probes = entry_probes(pulse, rng, 150)
        amps, dts = expand(pulse.amplitudes_hz, np.full(10, pulse.slice_duration_s), *probes)
        categories = ["gradient_control", "gradient_time", "fidelity_partial"] * 50
        batched = ExperimentBackend(mismatch_config(seed=24))
        single = ExperimentBackend(mismatch_config(seed=24))
        values = batched.fidelity_partial_batch(pulse, *probes, categories)
        expected = [
            reference_partial(single, pulse.with_amplitudes(a), d, c)
            for a, d, c in zip(amps, dts, categories)
        ]
        assert np.max(np.abs(values - expected)) <= 1e-12
        assert batched.ledger.as_dict() == single.ledger.as_dict()
        assert batched._rng.bit_generator.state == single._rng.bit_generator.state

    def test_batch_rejects_malformed_probes(self):
        backend = ExperimentBackend(ideal_config())
        pulse = random_pulse(5, 5e-4, 50.0, np.random.default_rng(11))
        slices, columns = np.array([0, 4, 2]), np.array([1, 3, DURATION_COLUMN])
        values = np.array([1.0, 2.0, 1e-4])
        categories = ["gradient_control"] * 3

        def rejects(match, *probes, categories=categories):
            with pytest.raises(ValueError, match=match):
                backend.fidelity_partial_batch(pulse, *probes, categories)

        rejects(r"slices must lie in \[0, 5\), got 0 to 5", [0, 5, 2], columns, values)
        rejects(r"slices must lie in \[0, 5\), got -1 to 4", [0, 4, -1], columns, values)
        rejects(r"columns must lie in \[0, 5\)", slices, [1, 5, 4], values)
        rejects("slices must be a 1-D array of integers, got float64", [0.0, 4.0, 2.0],
                columns, values)
        rejects("columns must be a 1-D array of integers", slices, columns[None], values)
        rejects("one slice, column and value per probe", slices, columns, values[:2])
        rejects("need 3 ledger categories, got 2", slices, columns, values,
                categories=categories[:2])
        rejects("unknown ledger category 'bogus'", slices, columns, values,
                categories=["gradient_control", "bogus", "gradient_time"])
        rejects("probe values must be real numbers", slices, columns, values.astype(complex))
        rejects("probe values must be finite", slices, columns, [1.0, math.nan, 1e-4])
        for bad in (0.0, -0.0, -1e-4):
            rejects("slice duration must be positive", slices, columns, [1.0, 2.0, bad])
        assert backend.ledger.total_measurements == 0

    def test_an_empty_batch_reads_nothing(self):
        backend = ExperimentBackend(mismatch_config())
        pulse = random_pulse(3, 5e-4, 50.0, np.random.default_rng(13))
        before = backend._rng.bit_generator.state
        values = backend.fidelity_partial_batch(pulse, [], [], [], [])
        assert values.shape == (0,)
        assert backend.ledger.total_measurements == 0
        assert backend._rng.bit_generator.state == before

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(probes=malformed_probes())
    def test_batch_rejects_any_malformed_input_untouched(self, probes):
        pulse, entries, categories = probes
        backend = ExperimentBackend(mismatch_config(seed=3))
        before = backend._rng.bit_generator.state

        def no_evolution(*args):
            raise AssertionError("a malformed batch reached the evolution")

        backend._evolve = no_evolution  # this backend only
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            backend.fidelity_partial_batch(pulse, *entries, categories)
        assert backend.ledger.total_measurements == 0
        assert backend._rng.bit_generator.state == before

    def test_single_readouts_reject_an_unknown_category_untouched(self):
        backend = ExperimentBackend(mismatch_config(seed=3))
        before = backend._rng.bit_generator.state
        pulse = random_pulse(4, 1e-3, 50.0, np.random.default_rng(12))
        with pytest.raises(ValueError, match="unknown ledger category 'bogus'"):
            backend.fidelity_partial(pulse, category="bogus")
        with pytest.raises(ValueError, match="unknown ledger category 'bogus'"):
            backend.measure_pauli(backend.evolve_open(pulse), ("Z", "Z"), "bogus")
        assert backend.ledger.total_measurements == 0
        assert backend._rng.bit_generator.state == before

    @pytest.mark.parametrize("corruption, apparatus", [
        pytest.param("non-Hermitian", "lossy", id="non-Hermitian"),
        pytest.param("trace", "coherent", id="trace"),
        pytest.param("trace", "lossy", id="trace-lossy"),
    ])
    def test_batch_rejects_a_bad_state(self, corruption, apparatus, monkeypatch):
        # One probe's state as read out is not a density matrix; the batch
        # must fail as one call for that probe would.  A relaxation-free
        # lab reads out the |psi><psi| of a completed ket, which cannot be
        # non-Hermitian, so only a lossy lab's state is corrupted that way.
        backend = ExperimentBackend(mismatch_config(**APPARATUS[apparatus]))
        evolve = backend._evolve

        def corrupt(*args):
            leaving, observables = evolve(*args)
            if corruption == "non-Hermitian":
                leaving[5, 0, 1] += 1e-6
            else:
                leaving[5] *= 1.0 + 1e-6
            return leaving, observables

        monkeypatch.setattr(backend, "_evolve", corrupt)
        pulse = random_pulse(4, 1e-3, 50.0, np.random.default_rng(10))
        slices, columns = np.arange(9) % 4, np.zeros(9, dtype=int)  # probe 5's window starts at slice 1
        values = pulse.amplitudes_hz[slices, 0] + 1.0
        match = r"\[5\] is not Hermitian" if corruption == "non-Hermitian" else r"\[5\] trace"
        with pytest.raises(ValueError, match=match):
            backend.fidelity_partial_batch(pulse, slices, columns, values, ["gradient_control"] * 9)
        assert backend.ledger.total_measurements == 0

    @pytest.mark.parametrize("apparatus", sorted(APPARATUS))
    @pytest.mark.parametrize("amplitude_hz", [1e10, 1e200])
    def test_a_slice_past_the_closed_forms_limit_is_rejected_untouched(
        self, apparatus, amplitude_hz
    ):
        # At 1e10 Hz the closed form drifts past the density check's
        # tolerance; at 1e200 Hz its products would overflow.  Both raise
        # the named limit before anything overflows, is drawn or charged.
        pulse = random_pulse(50, 5e-3, amplitude_hz, np.random.default_rng(59))
        backend = ExperimentBackend(mismatch_config(**APPARATUS[apparatus]))
        before = backend._rng.bit_generator.state
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="MAX_SLICE_TURN_RAD"):
                backend.fidelity_partial(pulse)
            with pytest.raises(ValueError, match="MAX_SLICE_TURN_RAD"):
                backend.fidelity_partial_batch(pulse, [3], [0], [1.0], ["gradient_control"])
        assert backend.ledger.total_measurements == 0
        assert backend._rng.bit_generator.state == before

    def test_measure_pauli_validates_its_state(self):
        backend = ExperimentBackend(ideal_config())
        with pytest.raises(ValueError, match="trace"):
            backend.measure_pauli(np.eye(4), ("Z", "Z"), "fidelity_partial")
        lopsided = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(ValueError, match="negative eigenvalue"):
            backend.measure_pauli(lopsided, ("Z", "Z"), "fidelity_partial")
        with pytest.raises(ValueError, match="4 x 4"):
            backend.measure_pauli(
                np.stack([np.diag([1.0, 0, 0, 0])] * 2), ("Z", "Z"), "fidelity_partial"
            )
        assert backend.ledger.total_measurements == 0

    def test_full_reconstruction_stays_physical_under_noise(self):
        backend = ExperimentBackend(mismatch_config(noise_sigma=5e-2, seed=13))
        value = backend.fidelity_full(bell_recipe_pulse(G_HZ))
        assert 0.0 <= value <= 1.0


# How a row of hostile_kets is made hostile: (kind, the sizes it draws from).
# Norms sit just inside and just outside 1 +- DENSITY_TOL, as |psi|^2 - 1 in
# units of the tolerance; magnitudes near 1e+-150, whose squares are near the
# ends of the float range, scale one entry or the whole ket.
HOSTILITY = {
    "non-finite": [np.nan, np.inf, -np.inf],
    "zero": [0.0],
    "norm": [-2.0, -1.000001, -0.999999, -0.5, 0.5, 0.999999, 1.000001, 2.0],
    "entry": [1e-160, 1e-150, 1e150, 1e160],
    "ket": [1e-160, 1e-150, 1e150, 1e160],
}


@st.composite
def hostile_kets(draw):
    """1-40 unit kets, up to five of them made hostile per ``HOSTILITY``."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kets = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    kets /= np.linalg.norm(kets, axis=1)[:, None]
    for _ in range(draw(st.integers(0, 5))):
        row, entry = draw(st.integers(0, n - 1)), draw(st.integers(0, 3))
        kind = draw(st.sampled_from(sorted(HOSTILITY)))
        size = draw(st.sampled_from(HOSTILITY[kind]))
        with np.errstate(all="ignore"):  # a row made hostile twice may overflow
            if kind == "non-finite":  # in the real or the imaginary part
                part = kets.real if draw(st.booleans()) else kets.imag
                part[row, entry] = size
            elif kind == "zero":
                kets[row] = 0.0
            elif kind == "norm":
                kets[row] *= math.sqrt(1.0 + size * DENSITY_TOL) / np.linalg.norm(kets[row])
            elif kind == "entry":
                kets[row, entry] *= size
            else:
                kets[row] *= size
    return kets


def outcome(check, stack):
    """The error message of ``check(stack)``, or None when it passes."""
    try:
        check(stack)
    except ValueError as exc:
        return str(exc)
    return None


class TestPureStateScreen:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(kets=hostile_kets())
    def test_trace_screen_decides_as_the_full_check(self, kets):
        # |psi><psi| of any ket fails require_density only where its trace
        # does: the ket screen raises exactly when the full check of the
        # kets' densities does, naming the same state with the same
        # message, and otherwise reads the kets out as those densities
        with np.errstate(all="ignore"):  # squares past the float range
            rhos = _density(kets)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = outcome(require_density, rhos)
            assert outcome(_ket_correlators, kets) == expected
            if expected is None:
                gap = _ket_correlators(kets) - _expectations(rhos, PARTIAL_OPS)
                assert np.max(np.abs(gap)) <= KET_READOUT_TOL

    def test_trace_screen_decides_at_the_tolerance_as_the_full_check(self):
        # Kets whose |psi|^2 sits a few ulps from 1 +- DENSITY_TOL, where
        # the order and fusing of the trace's roundings decide: the screen
        # must take the full check's bits to decide each ket as it does.
        rng = np.random.default_rng(71)
        n = 4000
        kets = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
        kets /= np.linalg.norm(kets, axis=1)[:, None]
        offsets = rng.choice([-1.0, 1.0], size=n) * DENSITY_TOL
        offsets += rng.integers(-8, 9, size=n) * np.finfo(float).eps
        kets *= np.sqrt(1.0 + offsets)[:, None]
        rhos = _density(kets)
        expected = [outcome(require_density, rhos[b : b + 1]) for b in range(n)]
        assert [outcome(_ket_correlators, kets[b : b + 1]) for b in range(n)] == expected
        assert 0 < expected.count(None) < n

    @pytest.mark.parametrize("apparatus", sorted(APPARATUS))
    def test_only_a_lossy_lab_runs_the_full_check(self, apparatus, monkeypatch):
        # a relaxation-free lab's readouts pass its states through the trace
        # screen alone; a lossy lab's through require_density, once a call
        config = mismatch_config(**APPARATUS[apparatus])
        backend, plain = ExperimentBackend(config), ExperimentBackend(config)
        calls = []

        def counted(rho):
            calls.append(len(rho))
            return require_density(rho)

        monkeypatch.setattr("belltime.experiment.require_density", counted)
        pulse = random_pulse(6, 1e-3, 100.0, np.random.default_rng(67))
        probes = entry_probes(pulse, np.random.default_rng(68), 9)
        categories = ["gradient_control"] * 9
        assert backend.fidelity_partial(pulse) == plain.fidelity_partial(pulse)
        batch = backend.fidelity_partial_batch(pulse, *probes, categories)
        assert np.array_equal(bits(batch), bits(plain.fidelity_partial_batch(pulse, *probes, categories)))
        assert calls == ([1, 1, 9, 9] if config.t1_s[0] < math.inf else [])


def compressed_recipe(g_hz: float, duration_s: float) -> PulseSequence:
    """``bell_recipe_pulse`` run in ``duration_s``, its rotation areas kept.

    Every amplitude grows as the pulse shrinks, so the local rotations
    are the recipe's and only the coupling's window is cut short.  Such
    pulses come within about 0.006 of the ceiling at a twentieth of the
    Bell time, closer still at shorter durations.
    """
    recipe = bell_recipe_pulse(g_hz)
    return PulseSequence(duration_s, recipe.amplitudes_hz * (recipe.duration_s / duration_s))


class TestCouplingSpeedLimit:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        amps=st.one_of(
            st.none(),  # a recipe, shortened
            st.integers(1, 60).flatmap(
                lambda m: arrays(np.float64, (m, 4), elements=st.floats(-1e4, 1e4))
            ),
        ),
        fraction=st.floats(1e-3, 1.0, exclude_max=True),
        low_pass=st.booleans(),
    )
    def test_no_pulse_beats_the_ceiling_in_the_model_or_the_lab(self, amps, fraction, low_pass):
        # Local controls of any strength, filtered and miscalibrated or not,
        # cannot entangle faster than the coupling allows: below 1/(2g) the
        # singlet fidelity stays under (1 + sin(pi g T))/2, on the design
        # coupling in the model and on the true one in a relaxation-free lab.
        config = mismatch_config(distortion_tau_s=50e-6 if low_pass else 0.0, **NO_RELAXATION)
        duration = fraction * minimum_time_bell(max(G_HZ, config.true_g_hz))
        pulse = compressed_recipe(G_HZ, duration) if amps is None else PulseSequence(duration, amps)
        j_model = model_fidelity(SystemModel(G_HZ), pulse, ket("00"), singlet_state())
        assert j_model <= fidelity_ceiling(G_HZ, duration) + 1e-12
        j_true = ExperimentBackend(config).true_fidelity(pulse)
        assert j_true <= fidelity_ceiling(config.true_g_hz, duration) + 1e-12

    def test_shortened_recipes_come_close_to_the_ceiling(self):
        # the property above is tight: it would catch a model or lab that
        # beat the ceiling by a few parts in a thousand
        for fraction in (0.01, 0.05):
            duration = fraction * minimum_time_bell(G_HZ)
            pulse = compressed_recipe(G_HZ, duration)
            gap = fidelity_ceiling(G_HZ, duration) - model_fidelity(
                SystemModel(G_HZ), pulse, ket("00"), singlet_state()
            )
            assert 0.0 <= gap <= 0.13 * fraction


class TestLedger:
    def test_costs_per_oracle(self):
        backend = ExperimentBackend(mismatch_config())
        pulse = bell_recipe_pulse(G_HZ)
        backend.fidelity_partial(pulse)
        assert backend.ledger.fidelity_partial == 3
        backend.fidelity_full(pulse)
        assert backend.ledger.fidelity_full == 15
        backend.fidelity_partial(pulse, category="gradient_control")
        backend.fidelity_partial(pulse, category="gradient_time")
        assert backend.ledger.gradient_control == 3
        assert backend.ledger.gradient_time == 3
        assert backend.ledger.total_measurements == 24

    def test_report_arithmetic(self):
        ledger = MeasurementLedger()
        ledger.record("fidelity_partial", 6000)
        report = ledger_report(ledger)
        assert report["total_measurements"] == 6000
        assert report["wall_clock_s"] == 60_000.0
        assert report["wall_clock_h"] == pytest.approx(16.7, abs=0.04)

    def test_fresh_ledger_is_empty(self):
        report = ledger_report(MeasurementLedger())
        assert report["total_measurements"] == 0
        assert report["wall_clock_s"] == 0.0

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            MeasurementLedger().record("calibration", 1)

    @pytest.mark.parametrize("count", [-3, -1, 2.0, 1.5, True, "3", None])
    def test_rejects_a_count_that_is_not_a_non_negative_integer(self, count):
        ledger = MeasurementLedger()
        ledger.record("fidelity_partial", 2)
        with pytest.raises(ValueError, match="count"):
            ledger.record("fidelity_partial", count)
        assert ledger.as_dict() == {c: 2 * (c == "fidelity_partial") for c in LEDGER_CATEGORIES}

    def test_counts_numpy_integers_and_zero(self):
        ledger = MeasurementLedger()
        ledger.record("gradient_time", np.int64(6))
        ledger.record("gradient_time", 0)
        assert ledger.gradient_time == 6 and type(ledger.gradient_time) is int
