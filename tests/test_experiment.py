"""Emulated-lab behavior: distortion, relaxation, noisy readout, ledger."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from belltime.dynamics import (
    PulseSequence,
    SystemModel,
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
    _decay_factors,
    _low_pass,
    _relax,
    _relaxation_matrices,
    _relaxed,
    ledger_report,
)
from belltime.linalg import ket, pauli_string, singlet_state
from belltime.recipes import bell_recipe_pulse
from oracles import (
    reference_probe_evolution,
    reference_pulse_evolution,
    reference_relaxation_matrices,
    reference_state,
)

G_HZ = 217.4


def ideal_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig(true_g_hz=G_HZ, **overrides)


def low_pass(amplitudes, tau_s, dts):
    """The emulator's low-pass filter of one (M, 4) waveform over (M,) slice durations."""
    factors, index = _decay_factors(dts, (tau_s,))
    return _low_pass(amplitudes[None], factors[index[None], 0])[0]


def bits(x):
    """The int64 words of a float array: they tell -0.0 from +0.0."""
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)


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


def relax_tabled(config, rho, dts):
    """rho after the emulator's tabled T1/T2 map of each slice, with no unitary."""
    factors, index = _decay_factors(dts, config.t1_s + config.t2_s)
    matrices = _relaxation_matrices(factors)
    for row in index:
        rho = _relaxed(matrices[row], rho)
    return rho


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


def readouts(rhos, observables=PARTIAL_OPS):
    """Noiseless (B, 3) correlators of B states, against the plain or per-state observables."""
    return np.trace(np.asarray(rhos)[:, None] @ observables, axis1=-2, axis2=-1).real


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
        out = low_pass(amps, tau, np.full(30, dt))
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
        out = low_pass(pulse.amplitudes_hz, 1e3, np.full(25, pulse.slice_duration_s))
        assert np.max(np.abs(out)) < 1e-3

    def test_per_slice_durations_match_uniform_path(self):
        # tabled factors of equal durations are the one scalar factor
        pulse = random_pulse(15, 2e-3, 90.0, np.random.default_rng(3))
        k = np.full((1, 15), math.exp(-pulse.slice_duration_s / 30e-6))
        a = _low_pass(pulse.amplitudes_hz[None], k)[0]
        b = low_pass(pulse.amplitudes_hz, 30e-6, np.full(15, pulse.slice_duration_s))
        assert np.array_equal(a, b)

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
            uniform = np.full(pulse.n_slices, pulse.slice_duration_s)
            assert np.array_equal(low_pass(pulse.amplitudes_hz, tau, uniform), expected)

    def test_recursion_matches_per_slice_reference(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            pulse = random_pulse(int(rng.integers(1, 40)), rng.uniform(1e-4, 6e-3), 200.0, rng)
            tau = 10.0 ** rng.uniform(-6.0, -2.0)
            dts = pulse.slice_duration_s * rng.uniform(0.5, 1.5, size=pulse.n_slices)
            expected = reference_distortion(pulse.amplitudes_hz, tau, dts)
            assert np.array_equal(low_pass(pulse.amplitudes_hz, tau, dts), expected)

    @pytest.mark.parametrize("m_slices, n_rows", [(30, 40), (50, 501)])
    def test_stacked_recursion_matches_per_pulse(self, m_slices, n_rows):
        # uniform rows and rows with one slice's duration moved, in one stack
        from scipy.signal import lfilter
        rng = np.random.default_rng(23)
        pulse = random_pulse(m_slices, 2.4e-3, 150.0, rng)
        amps, dts = probe_stack(pulse, rng, n_rows)
        tau = 50e-6
        factors, index = _decay_factors(dts, (tau,))
        stacked = _low_pass(amps, factors[index, 0])
        k = math.exp(-pulse.slice_duration_s / tau)
        for row, (a, d) in enumerate(zip(amps, dts)):
            assert np.array_equal(bits(stacked[row]), bits(low_pass(a, tau, d)))
            assert np.array_equal(bits(stacked[row]), bits(reference_distortion(a, tau, d)))
            if np.all(d == pulse.slice_duration_s):
                assert np.array_equal(stacked[row], lfilter([1.0 - k], [1.0, -k], a, axis=0))

    def test_signed_zero_drive_starts_from_positive_zero(self):
        # y[0] = (1 - k) u[0] + k y[-1] with y[-1] = +0.0: a -0.0 drive gives +0.0
        amps = np.array([[-0.0, 0.0, -0.0, 12.5], [-0.0, 3.0, 0.0, -0.0], [1.0, -0.0, -0.0, 0.0]])
        dts = np.array([1e-4, 3e-5, 1e-4])
        distorted = low_pass(amps, 50e-6, dts)
        assert np.all(bits(distorted[0, :3]) == bits(0.0)) and bits(distorted[1, 0]) == bits(0.0)
        stack = np.stack([amps, -amps, np.full_like(amps, -0.0)])
        factors, index = _decay_factors(np.tile(dts, (3, 1)), (50e-6,))
        for row, a in zip(_low_pass(stack, factors[index, 0]), stack):
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
        config = ideal_config(t1_s=(0.730, 0.096), t2_s=(0.0965, 0.0425))
        rho = relax_tabled(config, np.outer(ket("11"), ket("11").conj()), np.full(200, 0.03))
        assert abs(rho[0, 0].real - 1.0) < 1e-3
        assert abs(np.trace(rho).real - 1.0) < 1e-10

    def test_spin1_coherence_decays_at_t2(self):
        t2c = 0.0965
        config = ideal_config(t1_s=(0.730, 0.096), t2_s=(t2c, 0.0425))
        plus_zero = (ket("00") + ket("10")) / np.sqrt(2.0)
        # over T2 of free evolution; the ZZ drift only turns the phase of rho[0, 2]
        rho = relax_tabled(config, np.outer(plus_zero, plus_zero.conj()), np.full(100, t2c / 100))
        assert abs(abs(rho[0, 2]) - 0.5 * math.exp(-1.0)) < 1e-6

    def test_per_slice_durations_match_uniform(self):
        backend = ExperimentBackend(mismatch_config(noise_sigma=0.0))
        pulse = random_pulse(12, 2.5e-3, 100.0, np.random.default_rng(6))
        uniform = np.full(12, pulse.slice_duration_s)
        a = backend.evolve_open(pulse)
        b = backend.evolve_open(pulse, slice_durations_s=uniform)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("noise_sigma", [0.0, 1e-3])
    def test_matches_per_slice_reference(self, noise_sigma):
        rng = np.random.default_rng(29)
        for config in (ideal_config(), mismatch_config(), mismatch_config(distortion_tau_s=0.0),
                       mismatch_config(t1_s=(math.inf, math.inf), t2_s=(0.05, 0.07))):
            backend = ExperimentBackend(dataclasses.replace(config, noise_sigma=noise_sigma))
            for m_slices in (1, 7, 50):
                pulse = random_pulse(m_slices, rng.uniform(1e-3, 5e-3), 150.0, rng)
                dts = pulse.slice_duration_s * rng.uniform(0.5, 1.5, size=m_slices)
                uniform = np.full(m_slices, pulse.slice_duration_s)
                # the closed-form map reorders the Kraus arithmetic: 1e-12, not bits
                for rho, durations in ((backend.evolve_open(pulse), uniform),
                                       (backend.evolve_open(pulse, slice_durations_s=dts), dts)):
                    expected = reference_evolution(backend, pulse, durations)
                    assert np.max(np.abs(rho - expected)) <= 1e-12

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(apparatus=st.sampled_from(sorted(APPARATUS)), m_slices=st.integers(1, 60),
           duration=st.floats(1e-4, 6e-3), uniform=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_equals_matmul_loop_bit_for_bit(self, apparatus, m_slices, duration, uniform, seed):
        backend = ExperimentBackend(mismatch_config(**APPARATUS[apparatus]))
        rng = np.random.default_rng(seed)
        pulse = random_pulse(m_slices, duration, 150.0, rng)
        if uniform:
            dts = np.full(m_slices, pulse.slice_duration_s)
            rho = backend.evolve_open(pulse)
        else:
            dts = pulse.slice_duration_s * rng.uniform(0.5, 1.5, size=m_slices)
            rho = backend.evolve_open(pulse, slice_durations_s=dts)
        expected = reference_pulse_evolution(backend, pulse, dts)
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
        # through its window and the back-propagated observables equals
        # its own evolution's up to reordered rounding
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
            rho, leaving, observables = backend._evolve(
                pulse.amplitudes_hz, uniform, slices, columns, values
            )
            assert np.array_equal(rho, fresh.evolve_open(pulse))
            assert np.array_equal(leaving[5:9], np.repeat(rho[None], 4, axis=0))
            alone = [fresh.evolve_open(pulse.with_amplitudes(a), slice_durations_s=d)
                     for a, d in zip(amps, dts)]
            assert np.max(np.abs(readouts(leaving, observables) - readouts(alone))) <= 1e-12

    @pytest.mark.parametrize("m_slices", [1, 7, 50])
    def test_back_propagated_readouts_equal_forward_evolution(self, m_slices):
        # Non-uniform slices under relaxation and the low-pass: every probe
        # read out against observables back-propagated to the end of its
        # window agrees with evolving it whole, forward, to 1e-12.
        rng = np.random.default_rng(47 + m_slices)
        for config in (mismatch_config(), mismatch_config(distortion_tau_s=0.0),
                       mismatch_config(distortion_tau_s=5e-3, t1_s=(1e-3, 2e-3),
                                       t2_s=(1e-3, 4e-3))):
            # a second, fresh backend: the first keeps the pulse's evolution
            backend, fresh = ExperimentBackend(config), ExperimentBackend(config)
            for _ in range(3):
                pulse = random_pulse(m_slices, rng.uniform(1e-3, 5e-3), 150.0, rng)
                pulse_dts = pulse.slice_duration_s * rng.uniform(0.5, 1.5, size=m_slices)
                slices = rng.integers(0, m_slices, size=12)
                columns = rng.integers(0, DURATION_COLUMN + 1, size=12)
                values = np.where(  # large steps of an amplitude or a duration
                    columns == DURATION_COLUMN,
                    pulse_dts[slices] * rng.uniform(0.5, 1.5, size=12),
                    pulse.amplitudes_hz[slices, np.minimum(columns, 3)]
                    + rng.normal(0.0, 20.0, size=12),
                )
                amps, dts = expand(pulse.amplitudes_hz, pulse_dts, slices, columns, values)
                rho, leaving, observables = backend._evolve(
                    pulse.amplitudes_hz, pulse_dts, slices, columns, values
                )
                assert np.array_equal(
                    rho, fresh.evolve_open(pulse, slice_durations_s=pulse_dts)
                )
                forward = [fresh.evolve_open(pulse.with_amplitudes(a), slice_durations_s=d)
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
        uniform = np.full(pulse.n_slices, pulse.slice_duration_s)
        rho, leaving, observables = backend._evolve(pulse.amplitudes_hz, uniform, *probes)
        for handed in (rho, leaving, observables):
            handed[...] = 0.0
        assert np.array_equal(backend.evolve_open(pulse), expected)
        fresh = ExperimentBackend(backend.config)
        assert backend.fidelity_partial(pulse) == fresh.fidelity_partial(pulse)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
    def test_rejects_bad_slice_durations_by_name(self, bad):
        backend = ExperimentBackend(mismatch_config())
        pulse = random_pulse(4, 1e-3, 50.0, np.random.default_rng(9))
        dts = np.full(4, pulse.slice_duration_s)
        dts[2] = bad
        with pytest.raises(ValueError, match="slice_durations_s must"):
            backend.evolve_open(pulse, slice_durations_s=dts)
        with pytest.raises(ValueError, match="slice_durations_s must"):
            backend.fidelity_partial(pulse, slice_durations_s=dts)
        assert backend.ledger.total_measurements == 0

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
        mapped = _relaxed(_relaxation_matrices(factors)[0], rho)
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
        factors, index = _decay_factors(dts, times)
        table = _relaxation_matrices(factors)
        assert table.shape == (3, 16, 16) and index.shape == dts.shape
        rho = np.outer(ket("11"), ket("11").conj())
        for dt, matrix in zip(np.unique(dts), table):
            alone = _relaxation_matrices(_decay_factors(np.array([dt]), times)[0])[0]
            assert np.array_equal(matrix, alone)
            # |11> decays into |01> and |10>, each spin at its own T1
            populations = np.diag(_relaxed(matrix, rho)).real
            a1, a2 = math.exp(-dt / 0.73), math.exp(-dt / 0.096)
            assert populations == pytest.approx(
                [(1 - a1) * (1 - a2), (1 - a1) * a2, a1 * (1 - a2), a1 * a2], rel=1e-12
            )
        per_slice = _relaxation_matrices(factors[index.ravel()]).reshape(6, 9, 16, 16)
        assert np.array_equal(table[index], per_slice)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(dts=st.lists(st.floats(1e-9, 1.0), min_size=0, max_size=12), spins=RELAXATION_CASES["spins"])
    def test_real_units_equal_complex_units_bit_for_bit(self, dts, spins):
        # the map runs on real unit matrices; on complex ones its real parts are the same
        t1, t2 = zip(*spins)
        factors = _decay_factors(np.array(dts), t1 + t2)[0]
        table = _relaxation_matrices(factors)
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
            single.fidelity_partial(pulse.with_amplitudes(a), category=c, slice_durations_s=d)
            for a, d, c in zip(amps, dts, categories)
        ]
        # back-propagated readouts reorder the arithmetic: 1e-12, not bits
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
        # every changed slice and keeps nothing, run on a fresh backend;
        # readouts, ledger and noise stream follow.
        pulse, entries, categories = probes
        config = mismatch_config(seed=seed, **APPARATUS[apparatus])
        backend, fresh = ExperimentBackend(config), ExperimentBackend(config)
        uniform = np.full(pulse.n_slices, pulse.slice_duration_s)
        amps, dts = expand(pulse.amplitudes_hz, uniform, *entries)
        expected = reference_probe_evolution(fresh, pulse.amplitudes_hz, uniform, amps, dts)
        if earlier != "none":
            before = {
                "same": pulse,
                "equal": PulseSequence(pulse.duration_s, pulse.amplitudes_hz.copy()),
                "different": random_pulse(1 + seed % 4, 1e-3, 150.0, np.random.default_rng(seed)),
            }[earlier]
            assert backend.fidelity_partial(before) == fresh.fidelity_partial(before)
        evolved = backend._evolve(pulse.amplitudes_hz, uniform, *entries)
        for got, want in zip(evolved, expected):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        values = backend.fidelity_partial_batch(pulse, *entries, categories)
        assert np.array_equal(bits(values), bits(fresh._partial(*expected[1:], categories)))
        assert backend.ledger.as_dict() == fresh.ledger.as_dict()
        assert backend._rng.bit_generator.state == fresh._rng.bit_generator.state


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
                pulse.amplitudes_hz, dts, slices, columns, values
            )
            expected = reference_probe_evolution(
                ExperimentBackend(config), pulse.amplitudes_hz, dts,
                *expand(pulse.amplitudes_hz, dts, slices, columns, values),
            )
            for got, want in zip(evolved, expected):
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert rounded_away > 0


class TestReadout:
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
            single.fidelity_partial(pulse.with_amplitudes(a), category=c, slice_durations_s=d)
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

    @pytest.mark.parametrize("corruption", ["non-Hermitian", "trace"])
    def test_batch_rejects_a_bad_state(self, corruption, monkeypatch):
        # One probe's state where its window ends, the state it is read
        # out in, is not a density matrix; the batch must fail as one call
        # for that probe would.
        backend = ExperimentBackend(ideal_config(noise_sigma=1e-3))
        evolve = backend._evolve

        def corrupt(*args):
            rho, leaving, observables = evolve(*args)
            if corruption == "non-Hermitian":
                leaving[5, 0, 1] += 1e-6
            else:
                leaving[5] *= 1.0 + 1e-6
            return rho, leaving, observables

        monkeypatch.setattr(backend, "_evolve", corrupt)
        pulse = random_pulse(4, 1e-3, 50.0, np.random.default_rng(10))
        slices, columns = np.arange(9) % 4, np.zeros(9, dtype=int)  # probe 5's window is slice 1
        values = pulse.amplitudes_hz[slices, 0] + 1.0
        match = r"\[5\] is not Hermitian" if corruption == "non-Hermitian" else r"\[5\] trace"
        with pytest.raises(ValueError, match=match):
            backend.fidelity_partial_batch(pulse, slices, columns, values, ["gradient_control"] * 9)
        assert backend.ledger.total_measurements == 0

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
