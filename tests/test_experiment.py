"""Emulated-lab behavior: distortion, relaxation, noisy readout, ledger."""

import math

import numpy as np
import pytest

from belltime.dynamics import (
    PulseSequence,
    SystemModel,
    model_fidelity,
    propagate,
    random_pulse,
)
from belltime.experiment import (
    ExperimentBackend,
    ExperimentConfig,
    MeasurementLedger,
    distort_pulse,
    ledger_report,
)
from belltime.linalg import ket, singlet_state
from belltime.recipes import bell_recipe_pulse

G_HZ = 217.4


def ideal_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig(true_g_hz=G_HZ, **overrides)


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
    def test_zero_tau_is_identity(self):
        pulse = random_pulse(20, 3e-3, 100.0, np.random.default_rng(1))
        assert distort_pulse(pulse, 0.0) is pulse

    def test_first_slice_attenuation_closed_form(self):
        amps = np.full((30, 4), 80.0)
        pulse = PulseSequence(duration_s=3e-3, amplitudes_hz=amps)
        tau = 50e-6
        out = distort_pulse(pulse, tau)
        dt = pulse.slice_duration_s
        expected_first = (1.0 - math.exp(-dt / tau)) * 80.0
        assert np.allclose(out.amplitudes_hz[0], expected_first, atol=1e-9)
        # approach to the constant is monotone and exponential (check the
        # first slices only; later deviations underflow to exactly zero)
        deviation = 80.0 - out.amplitudes_hz[:, 0]
        assert np.all(np.diff(deviation[:10]) < 0)
        assert np.allclose(
            deviation, 80.0 * np.exp(-dt * np.arange(1, 31) / tau), atol=1e-9
        )

    def test_huge_tau_suppresses_everything(self):
        pulse = random_pulse(25, 2e-3, 150.0, np.random.default_rng(2))
        out = distort_pulse(pulse, 1e3)
        assert np.max(np.abs(out.amplitudes_hz)) < 1e-3

    def test_per_slice_durations_match_uniform_path(self):
        pulse = random_pulse(15, 2e-3, 90.0, np.random.default_rng(3))
        uniform = np.full(15, pulse.slice_duration_s)
        a = distort_pulse(pulse, 30e-6)
        b = distort_pulse(pulse, 30e-6, slice_durations_s=uniform)
        assert np.array_equal(a.amplitudes_hz, b.amplitudes_hz)

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
            assert np.array_equal(distort_pulse(pulse, tau).amplitudes_hz, expected)

    def test_rejects_bad_inputs(self):
        pulse = random_pulse(5, 1e-3, 10.0, np.random.default_rng(4))
        with pytest.raises(ValueError):
            distort_pulse(pulse, -1.0)
        with pytest.raises(ValueError):
            distort_pulse(pulse, 1e-5, slice_durations_s=np.ones(3) * 1e-4)


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
        with pytest.raises(ValueError):
            ExperimentConfig(seconds_per_measurement=0.0)


class TestOpenEvolution:
    def test_reduces_to_unitary_when_ideal(self):
        backend = ExperimentBackend(ideal_config())
        model = SystemModel(g_hz=G_HZ)
        rng = np.random.default_rng(5)
        for _ in range(5):
            pulse = random_pulse(20, rng.uniform(1e-3, 5e-3), 120.0, rng)
            rho = backend.evolve_open(pulse)
            psi = propagate(model, pulse, ket("00"))
            assert np.max(np.abs(rho - np.outer(psi, psi.conj()))) < 1e-10

    def test_amplitude_damping_fixed_point(self):
        config = ideal_config(t1_s=(0.730, 0.096), t2_s=(0.0965, 0.0425))
        backend = ExperimentBackend(config)
        pulse = PulseSequence(duration_s=6.0, amplitudes_hz=np.zeros((200, 4)))
        rho0 = np.outer(ket("11"), ket("11").conj())
        rho = backend.evolve_open(pulse, rho0=rho0)
        assert abs(rho[0, 0].real - 1.0) < 1e-3
        assert abs(np.trace(rho).real - 1.0) < 1e-10

    def test_spin1_coherence_decays_at_t2(self):
        t2c = 0.0965
        config = ideal_config(t1_s=(0.730, 0.096), t2_s=(t2c, 0.0425))
        backend = ExperimentBackend(config)
        pulse = PulseSequence(duration_s=t2c, amplitudes_hz=np.zeros((100, 4)))
        plus_zero = (ket("00") + ket("10")) / np.sqrt(2.0)
        rho = backend.evolve_open(pulse, rho0=np.outer(plus_zero, plus_zero.conj()))
        assert abs(abs(rho[0, 2]) - 0.5 * math.exp(-1.0)) < 1e-6

    def test_per_slice_durations_match_uniform(self):
        backend = ExperimentBackend(mismatch_config(noise_sigma=0.0))
        pulse = random_pulse(12, 2.5e-3, 100.0, np.random.default_rng(6))
        uniform = np.full(12, pulse.slice_duration_s)
        a = backend.evolve_open(pulse)
        b = backend.evolve_open(pulse, slice_durations_s=uniform)
        assert np.array_equal(a, b)

    def test_output_is_physical_under_mismatch(self):
        backend = ExperimentBackend(mismatch_config())
        pulse = bell_recipe_pulse(G_HZ)
        rho = backend.evolve_open(pulse)
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(rho).min() > -1e-9


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
        report = ledger_report(ledger, 10.0)
        assert report["total_measurements"] == 6000
        assert report["wall_clock_s"] == 60_000.0
        assert report["wall_clock_h"] == pytest.approx(16.7, abs=0.04)

    def test_fresh_ledger_is_empty(self):
        report = ledger_report(MeasurementLedger(), 10.0)
        assert report["total_measurements"] == 0
        assert report["wall_clock_s"] == 0.0

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            MeasurementLedger().record("calibration", 1)
