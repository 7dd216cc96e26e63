"""Dual-objective optimizer: phase machine, acceptance tests, cost accounting."""

import dataclasses
import math

import numpy as np
import pytest

from belltime.dynamics import (
    PulseSequence,
    SystemModel,
    fidelity_and_gradients,
    model_fidelity,
    random_pulse,
    slice_propagators,
)
from belltime import dynamics, experiment, optimizer
from belltime.cartan import fidelity_ceiling
from belltime.experiment import (
    LEDGER_CATEGORIES,
    SECONDS_PER_MEASUREMENT,
    ExperimentBackend,
    ExperimentConfig,
    ledger_report,
)
from belltime.linalg import ket, singlet_state
from belltime.optimizer import (
    EVENT_DEGENERATE_TIME_GRADIENT,
    EVENT_STALL_STEP1,
    MODES,
    STEP1,
    STEP2,
    OptimizerConfig,
    finite_diff_gradients,
    lower_threshold,
    readouts_per_iteration,
    run_optimization,
    verify_trace_invariants,
)
from belltime.runconfig import RunConfig

G_HZ = 217.4


def ideal_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig(true_g_hz=G_HZ, **overrides)


# The acceptance apparatus (tests/test_acceptance.py): all of MISMATCH, and
# COHERENT_MISMATCH, its coupling, amplitude scales and readout noise only.
COHERENT_MISMATCH = dict(
    true_g_hz=1.01 * G_HZ, amplitude_scale=(0.98, 1.0, 0.98, 1.0), noise_sigma=1e-3,
)
MISMATCH = dict(
    COHERENT_MISMATCH, distortion_tau_s=50e-6, t1_s=(0.730, 0.096), t2_s=(0.0965, 0.0425),
)


def sequential_finite_diff_gradients(backend, pulse, fd_step_amplitude_hz, fd_step_time_s):
    """Reference for finite_diff_gradients: one fidelity_partial call per probe."""
    amps = pulse.amplitudes_hz
    m_slices = pulse.n_slices
    grad_u = np.zeros_like(amps)
    h = fd_step_amplitude_hz
    for m in range(m_slices):
        for c in range(4):
            probe = amps.copy()
            probe[m, c] += h
            j_plus = backend.fidelity_partial(
                pulse.with_amplitudes(probe), category="gradient_control"
            )
            probe[m, c] -= 2.0 * h
            j_minus = backend.fidelity_partial(
                pulse.with_amplitudes(probe), category="gradient_control"
            )
            grad_u[m, c] = (j_plus - j_minus) / (2.0 * h)

    ht = fd_step_time_s
    base = pulse.slice_duration_s
    slope_sum = 0.0
    for m in range(m_slices):
        durations = np.full(m_slices, base)
        durations[m] = base + ht
        j_plus = backend.fidelity_partial(
            pulse, category="gradient_time", slice_durations_s=durations
        )
        durations[m] = base - ht
        j_minus = backend.fidelity_partial(
            pulse, category="gradient_time", slice_durations_s=durations
        )
        slope_sum += (j_plus - j_minus) / (2.0 * ht)
    return grad_u, slope_sum / m_slices


@pytest.fixture(scope="module")
def model():
    return SystemModel(g_hz=G_HZ)


@pytest.fixture(scope="module")
def model_run(model):
    """Reference full-length model-only run, shared across tests."""
    return run_optimization("model-only", model, OptimizerConfig(), seed=0)


class TestConfig:
    def test_defaults_are_valid(self):
        config = OptimizerConfig()
        assert config.target_fidelity == 0.999
        assert config.threshold_floor == 0.999
        assert config.threshold_drop == 0.099
        assert config.threshold_rate == 300.0
        assert config.max_iterations == 5000

    def test_search_constants_hold_their_values(self):
        assert (optimizer.ALPHA, optimizer.BETA) == (0.01, 0.999)
        assert (optimizer.D2_INIT, optimizer.D_MIN) == (1e-6, 1e-12)
        assert (optimizer.BACKTRACK_FACTOR, optimizer.MAX_BACKTRACKS) == (0.5, 30)
        assert (optimizer.STALL_WINDOW, optimizer.STALL_EPSILON_T_S) == (200, 1e-6)
        assert optimizer.STEP1_PATIENCE == 40
        assert optimizer.CONTROL_GRADIENT_FLOOR == optimizer.TIME_GRADIENT_FLOOR == 1e-8

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            OptimizerConfig(d1_init=1e-13)  # below D_MIN
        with pytest.raises(ValueError):
            OptimizerConfig(threshold_floor=1.2)
        with pytest.raises(ValueError):
            OptimizerConfig(max_iterations=0)
        with pytest.raises(ValueError):
            OptimizerConfig(m_slices=0)

    @pytest.mark.parametrize("config_class, field", [
        (OptimizerConfig, "max_iterations"),
        (OptimizerConfig, "m_slices"),
        (ExperimentConfig, "seed"),
        (RunConfig, "seed"),
    ])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, np.float64(4.0), "7", None])
    def test_count_fields_take_integers_only(self, config_class, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            config_class(**{field: value})
        config = config_class(**{field: np.int64(7)})
        assert getattr(config, field) == 7 and type(getattr(config, field)) is int

    @pytest.mark.parametrize("config_class, field, settings", [
        *[(OptimizerConfig, f.name, lambda v, name=f.name: {name: v})
          for f in dataclasses.fields(OptimizerConfig)
          if f.name not in ("max_iterations", "m_slices")],
        *[(ExperimentConfig, name, lambda v, name=name: {name: v})
          for name in ("true_g_hz", "distortion_tau_s", "noise_sigma")],
        (ExperimentConfig, "amplitude_scale", lambda v: {"amplitude_scale": (1.0, 1.0, v, 1.0)}),
        (ExperimentConfig, "t1_s", lambda v: {"t1_s": (v, math.inf), "t2_s": (v, math.inf)}),
        (ExperimentConfig, "t2_s", lambda v: {"t2_s": (math.inf, v)}),
        (SystemModel, "g_hz", lambda v: {"g_hz": v}),
    ])
    @pytest.mark.parametrize("value", [True, np.bool_(False), "0.5", 0.5j, None])
    def test_real_fields_take_real_numbers_only(self, config_class, field, settings, value):
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got "):
            config_class(**settings(value))
        stored = getattr(config_class(**settings(np.float32(0.5))), field)
        assert all(type(v) is float for v in (stored if isinstance(stored, tuple) else [stored]))

    def test_unknown_mode_rejected(self, model):
        with pytest.raises(ValueError):
            run_optimization("oracle-free", model, OptimizerConfig())

    def test_measured_modes_require_backend(self, model):
        for mode in ("experiment-only", "balanced"):
            with pytest.raises(ValueError):
                run_optimization(mode, model, OptimizerConfig())


class TestLowerThreshold:
    def test_tabulated_values(self):
        config = OptimizerConfig()
        assert lower_threshold(0, config) == pytest.approx(0.900, abs=1e-12)
        assert lower_threshold(300, config) == pytest.approx(
            0.999 - 0.099 / math.e, abs=1e-12
        )
        assert lower_threshold(300, config) == pytest.approx(0.96258, abs=5e-6)

    def test_limit_reaches_floor(self):
        config = OptimizerConfig()
        assert abs(lower_threshold(10 * 300, config) - 0.999) < 1e-5

    def test_monotone_increasing(self):
        config = OptimizerConfig()
        values = [lower_threshold(n, config) for n in range(0, 2000, 50)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestFiniteDifferenceGradients:
    def test_matches_analytic_on_noiseless_backend(self, model):
        rng = np.random.default_rng(11)
        backend = ExperimentBackend(ideal_config())
        pulse = random_pulse(3, 2e-3, 150.0, rng)
        exact = fidelity_and_gradients(
            model, pulse, ket("00"), singlet_state()
        )
        fd = finite_diff_gradients(backend, pulse, 0.1, 1e-8)
        scale = np.maximum(np.abs(exact.grad_amplitudes), 1e-8)
        rel = np.abs(fd.grad_amplitudes - exact.grad_amplitudes) / scale
        assert float(rel.max()) <= 1e-5
        rel_t = abs(fd.grad_duration - exact.grad_duration) / max(
            abs(exact.grad_duration), 1e-8
        )
        assert rel_t <= 1e-5
        assert math.isnan(fd.fidelity)  # no probe reads out the pulse itself

    def test_probe_ledger_split(self):
        backend = ExperimentBackend(ideal_config())
        pulse = random_pulse(3, 2e-3, 80.0, np.random.default_rng(2))
        finite_diff_gradients(backend, pulse, 0.1, 1e-8)
        counts = backend.ledger.as_dict()
        assert counts["gradient_control"] == 2 * 4 * 3 * 3
        assert counts["gradient_time"] == 2 * 3 * 3
        assert backend.ledger.total_measurements == 90

    @pytest.mark.parametrize("m_slices", [1, 3, 50])
    @pytest.mark.parametrize(
        "apparatus",
        [dict(true_g_hz=G_HZ), COHERENT_MISMATCH, MISMATCH],
        ids=["ideal", "coherent-mismatch", "mismatch"],
    )
    def test_batched_probes_equal_sequential_probes(self, apparatus, m_slices):
        pulse = random_pulse(m_slices, 2.4e-3, 150.0, np.random.default_rng(m_slices))
        batched = ExperimentBackend(ExperimentConfig(seed=9, **apparatus))
        sequential = ExperimentBackend(ExperimentConfig(seed=9, **apparatus))

        fd = finite_diff_gradients(batched, pulse, 0.1, 1e-8)
        grad_u, grad_t = sequential_finite_diff_gradients(sequential, pulse, 0.1, 1e-8)

        # each probe value is within 1e-12 of its own evolution's
        # (back-propagated readouts reorder the arithmetic), so each
        # central difference is within 1e-12 / (2 h)
        assert np.max(np.abs(fd.grad_amplitudes - grad_u)) <= 1e-12 / (2.0 * 0.1)
        assert abs(fd.grad_duration - grad_t) <= 1e-12 / (2.0 * 1e-8)
        assert batched.ledger.as_dict() == sequential.ledger.as_dict()
        assert batched._rng.bit_generator.state == sequential._rng.bit_generator.state

    @pytest.mark.parametrize("m_slices", [3, 50])
    def test_probes_decompose_only_the_slices_they_change(self, m_slices, monkeypatch):
        # Without the low-pass, a probe differs from the pulse in one slice:
        # its controls (8M probes) or its duration (2M probes).  A duration
        # probe's slice has the pulse's Hamiltonian, whose eigensystem it
        # takes.  One gradient on a fresh backend decomposes the pulse's M
        # slice Hamiltonians and one per control probe, M + 8M in all, not
        # the 10M * M of evolving every probe whole; after a readout of the
        # same pulse, whose evolution the backend keeps, 8M.
        decomposed = []

        def counting(model, amplitudes_hz, dt):
            decomposed.append(len(amplitudes_hz))
            return slice_propagators(model, amplitudes_hz, dt)

        monkeypatch.setattr(experiment, "slice_propagators", counting)
        pulse = random_pulse(m_slices, 2.4e-3, 150.0, np.random.default_rng(m_slices))
        backend = ExperimentBackend(ExperimentConfig(**dict(COHERENT_MISMATCH, noise_sigma=0.0)))
        finite_diff_gradients(backend, pulse, 0.1, 1e-8)
        assert sum(decomposed) == m_slices + 8 * m_slices
        backend = ExperimentBackend(backend.config)
        backend.fidelity_partial(pulse)
        decomposed.clear()
        finite_diff_gradients(backend, pulse, 0.1, 1e-8)
        assert sum(decomposed) == 8 * m_slices

    @pytest.mark.parametrize("fraction", [1.0, 1.5, math.inf, math.nan])
    def test_a_duration_step_past_the_slice_is_named_before_any_charge(self, fraction):
        # base - ht would leave a duration probe's slice no time: the
        # error names the setting and the slice duration, and no probe
        # is evolved, drawn or charged
        backend = ExperimentBackend(ideal_config(noise_sigma=1e-3, seed=6))
        pulse = random_pulse(4, 2e-3, 80.0, np.random.default_rng(8))
        before = backend._rng.bit_generator.state
        step = pulse.slice_duration_s * fraction
        with pytest.raises(ValueError, match=r"fd_step_time_s = .* slice duration T/M = 0\.0005 s"):
            finite_diff_gradients(backend, pulse, 0.1, step)
        assert backend.ledger.total_measurements == 0
        assert backend._rng.bit_generator.state == before

    def test_an_experiment_only_run_names_a_too_long_duration_step(self, model):
        config = OptimizerConfig(m_slices=4, initial_duration_s=2e-3, fd_step_time_s=5e-4,
                                 max_iterations=2)
        with pytest.raises(ValueError, match="fd_step_time_s"):
            run_optimization("experiment-only", model, config, experiment=ideal_config(), seed=1)

    def test_noise_spread_scales_with_probe_step(self):
        # std of a central-difference entry is sigma_J / (sqrt(2) h) with
        # sigma_J = (sqrt(3)/4) sigma for the three-observable estimate
        sigma = 1e-3
        h = 0.1
        backend = ExperimentBackend(ideal_config(noise_sigma=sigma, seed=3))
        pulse = random_pulse(8, 2e-3, 120.0, np.random.default_rng(4))
        exact = fidelity_and_gradients(
            SystemModel(g_hz=G_HZ), pulse, ket("00"), singlet_state()
        )
        fd = finite_diff_gradients(backend, pulse, h, 1e-8)
        spread = float(np.std(fd.grad_amplitudes - exact.grad_amplitudes))
        predicted = (math.sqrt(3.0) / 4.0) * sigma / (math.sqrt(2.0) * h)
        assert 0.5 * predicted < spread < 2.0 * predicted


class TestMeasurementAccounting:
    def test_model_only_costs_nothing(self, model_run):
        assert model_run.ledger.total_measurements == 0

    def test_experiment_only_two_iterations_cost_3006(self, model):
        backend = ExperimentBackend(ideal_config(seed=5))
        config = OptimizerConfig(max_iterations=2)
        result = run_optimization(
            "experiment-only", model, config, experiment=backend.config, seed=1
        )
        assert result.ledger.total_measurements == 2 * (3 + 1200 + 300)

    @pytest.mark.parametrize("m_slices", [1, 3])
    @pytest.mark.parametrize("mode", MODES)
    def test_every_iteration_costs_the_budget_figure(self, model, mode, m_slices):
        config = OptimizerConfig(max_iterations=2, m_slices=m_slices)
        result = run_optimization(
            mode, model, config, experiment=ideal_config(noise_sigma=1e-3, seed=4), seed=3
        )
        readouts = readouts_per_iteration(mode, m_slices)
        per_iter = sum(readouts.values())
        assert [r.measurements_this_iter for r in result.records] == [per_iter] * 2
        assert result.ledger.as_dict() == {
            c: 2 * readouts.get(c, 0) for c in LEDGER_CATEGORIES
        }

    def test_measured_gradients_are_remeasured_after_rejections(self, model):
        # Only model gradients are reused at an unchanged pulse; a measured
        # gradient is charged, and drawn from the noise stream, every time.
        n_iter, m_slices = 20, 3
        config = OptimizerConfig(max_iterations=n_iter, m_slices=m_slices)
        result = run_optimization(
            "experiment-only", model, config,
            experiment=ideal_config(noise_sigma=1e-3, seed=0), seed=0,
        )
        assert any(not r.accepted for r in result.records[:-1])
        readouts = readouts_per_iteration("experiment-only", m_slices)
        per_iter = sum(readouts.values())
        assert [r.measurements_this_iter for r in result.records] == [per_iter] * n_iter
        assert result.ledger.as_dict() == {
            c: n_iter * readouts.get(c, 0) for c in LEDGER_CATEGORIES
        }

    def test_balanced_costs_three_per_iteration(self, model):
        config = OptimizerConfig(max_iterations=40)
        result = run_optimization(
            "balanced", model, config, experiment=ideal_config(seed=6), seed=1
        )
        assert result.ledger.total_measurements == 3 * 40
        per_iter = [r.measurements_this_iter for r in result.records]
        assert set(per_iter) == {3}

    def test_wall_clock_projection(self, model):
        config = OptimizerConfig(max_iterations=10)
        result = run_optimization(
            "balanced", model, config, experiment=ideal_config(seed=8), seed=0
        )
        report = ledger_report(result.ledger)
        assert report["total_measurements"] == 30
        assert report["wall_clock_s"] == 30 * SECONDS_PER_MEASUREMENT == 300.0


class TestModelOnlyRun:
    def test_reaches_target_within_500_climb_iterations(self, model):
        config = OptimizerConfig(max_iterations=500)
        result = run_optimization("model-only", model, config, seed=0)
        hits = [r for r in result.records if r.j_oracle >= 0.999]
        assert hits, "climb never reached the target fidelity"
        assert hits[0].n < 500
        assert all(r.t_seconds == pytest.approx(5e-3) for r in result.records[:hits[0].n])

    def test_full_run_shrinks_into_band(self, model_run):
        t_final = model_run.final_pulse.duration_s
        assert model_run.final_model_fidelity >= 0.999
        assert 2.20e-3 <= t_final <= 2.40e-3

    def test_model_fidelity_within_the_coupling_speed_limit(self, model_run):
        # A rejected shrink trial is shorter than the retained t_seconds, and
        # the ceiling rises with T, so the retained duration bounds it too.
        for r in model_run.records:
            assert r.j_model <= fidelity_ceiling(G_HZ, r.t_seconds) + 1e-12

    def test_duration_never_below_speed_limit_floor(self, model_run):
        t_min = 1.0 / (2.0 * G_HZ)
        assert model_run.final_pulse.duration_s >= 0.95 * t_min

    def test_climb_is_monotone_while_accepted(self, model_run):
        j = -np.inf
        for rec in model_run.records:
            if rec.phase == STEP1 and rec.accepted and rec.step_size_used > 0:
                assert rec.j_oracle >= j
                j = rec.j_oracle
            elif not rec.accepted or rec.phase == STEP2:
                break

    def test_shrink_records_strictly_decrease_duration(self, model_run):
        records = model_run.records
        for prev, rec in zip(records, records[1:]):
            if rec.phase == STEP2 and rec.accepted and rec.step_size_used > 0:
                assert rec.t_seconds < prev.t_seconds

    def test_is_deterministic(self, model, model_run):
        again = run_optimization("model-only", model, OptimizerConfig(), seed=0)
        assert len(again.records) == len(model_run.records)
        for a, b in zip(again.records, model_run.records):
            assert a.j_oracle == b.j_oracle
            assert a.t_seconds == b.t_seconds
            assert a.accepted == b.accepted


class TestModeEquivalence:
    def test_perfect_backend_reproduces_model_decisions(self, model):
        config = OptimizerConfig(max_iterations=300)
        pure = run_optimization("model-only", model, config, seed=3)
        hybrid = run_optimization(
            "balanced", model, config, experiment=ideal_config(seed=9), seed=3
        )
        assert len(pure.records) == len(hybrid.records)
        for a, b in zip(pure.records, hybrid.records):
            assert a.accepted == b.accepted
            assert a.phase == b.phase
            assert abs(a.j_oracle - b.j_oracle) < 1e-10

    def test_balanced_model_fidelity_within_the_coupling_speed_limit(self, model):
        # Starts below 1/(2g) + 0.3 ms, so the shrink takes the duration to
        # where the ceiling is below 1.
        config = OptimizerConfig(
            max_iterations=400, initial_duration_s=2.6e-3, d1_init=1e3,
            target_fidelity=0.93, threshold_floor=0.90,
        )
        result = run_optimization(
            "balanced", model, config, experiment=ideal_config(noise_sigma=1e-3, seed=7),
            seed=1,
        )
        assert min(r.t_seconds for r in result.records) < 1.0 / (2.0 * G_HZ)
        for r in result.records:
            assert r.j_model <= fidelity_ceiling(G_HZ, r.t_seconds) + 1e-12

    def test_balanced_records_carry_model_prediction(self, model):
        config = OptimizerConfig(max_iterations=50)
        result = run_optimization(
            "balanced", model, config, experiment=ideal_config(seed=10), seed=2
        )
        for rec in result.records:
            assert abs(rec.j_model - rec.j_oracle) < 1e-10


def short_run(model, mode):
    """120 iterations from pulse seed 1: accepted and rejected climb and shrink trials."""
    experiment = None if mode == "model-only" else ideal_config(noise_sigma=1e-3, seed=7)
    return run_optimization(
        mode, model, OptimizerConfig(max_iterations=120), experiment=experiment, seed=1
    )


class TestModelGradientReuse:
    @pytest.mark.parametrize("mode", ["model-only", "balanced"])
    def test_one_gradient_per_accepted_trial(self, model, mode, monkeypatch):
        calls = {"fidelity": 0, "gradients": 0, "decomposed": 0, "handed": 0, "sizing": 0}

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                # handed: the evaluation's decomposition and forward states
                if name == "gradients" and len(args) == 6 and all(a is not None for a in args[4:]):
                    calls["handed"] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(optimizer, "model_fidelity", counting("fidelity", model_fidelity))
        monkeypatch.setattr(
            optimizer, "fidelity_and_gradients", counting("gradients", fidelity_and_gradients)
        )
        decompose = counting("decomposed", slice_propagators)
        monkeypatch.setattr(optimizer, "slice_propagators", decompose)
        monkeypatch.setattr(dynamics, "slice_propagators", decompose)
        restart_climb_step = optimizer._restart_climb_step
        restarts = []

        def sizing(*args):
            # The sizing evaluates each grown step until one fails the climb
            # inequality, at most MAX_BACKTRACKS of them.
            restarts.append(args)
            step = restart_climb_step(*args)
            grown, growths = args[4].d1_init, 0
            while grown != step:
                grown /= optimizer.BACKTRACK_FACTOR
                growths += 1
            calls["sizing"] += min(growths + 1, optimizer.MAX_BACKTRACKS)
            return step

        monkeypatch.setattr(optimizer, "_restart_climb_step", sizing)
        result = short_run(model, mode)

        trials = [r for r in result.records if r.step_size_used > 0.0]
        assert {r.phase for r in trials} == {STEP1, STEP2}
        assert any(r.accepted for r in trials) and any(not r.accepted for r in trials)
        # The first baseline and each accepted trial are new pulses; a
        # rejection, a phase switch or a re-measurement keeps the pulse and
        # its gradient.
        assert calls["gradients"] == 1 + sum(r.accepted for r in trials)
        # Every graded pulse was the last one evaluated, so each gradient
        # takes that evaluation's decomposition and forward states, and
        # slice_propagators runs exactly once per model fidelity: once per
        # iteration, once per restart-sizing trial step and once for the
        # final pulse.  The sizing starts from the re-measurement's own
        # model fidelity.
        assert calls["handed"] == calls["gradients"]
        assert calls["decomposed"] == calls["fidelity"]
        assert calls["fidelity"] == len(result.records) + 1 + calls["sizing"]
        stalls = sum(r.event == EVENT_STALL_STEP1 for r in result.records)
        assert (calls["sizing"] > 0) == (stalls > 0)
        for _, pulse, j_start, _, _, psi0, target in restarts:
            assert j_start == model_fidelity(model, pulse, psi0, target)

    @pytest.mark.parametrize("mode", ["model-only", "balanced"])
    def test_handed_decompositions_change_nothing(self, model, mode, monkeypatch):
        fast = short_run(model, mode)

        def recompute(fn):
            return lambda model, pulse, psi0, target, decomposition=None, states=None: fn(
                model, pulse, psi0, target
            )

        monkeypatch.setattr(optimizer, "model_fidelity", recompute(model_fidelity))
        monkeypatch.setattr(
            optimizer, "fidelity_and_gradients", recompute(fidelity_and_gradients)
        )
        slow = short_run(model, mode)
        assert [r.as_dict() for r in slow.records] == [r.as_dict() for r in fast.records]
        assert slow.final_pulse.duration_s == fast.final_pulse.duration_s
        assert np.array_equal(slow.final_pulse.amplitudes_hz, fast.final_pulse.amplitudes_hz)
        assert slow.ledger.as_dict() == fast.ledger.as_dict()


class TestEvents:
    def test_vanishing_control_gradient_stalls_climb(self, model):
        # From |00>, an all-zero pulse evolves under the ZZ drift alone and
        # sits at a stationary point of the singlet fidelity.
        config = OptimizerConfig(max_iterations=3)
        still = PulseSequence(config.initial_duration_s, np.zeros((config.m_slices, 4)))
        result = run_optimization("model-only", model, config, initial_pulse=still)
        assert all(r.event == EVENT_STALL_STEP1 for r in result.records)
        assert all(r.step_size_used == 0.0 for r in result.records)

    def test_degenerate_time_gradient_returns_to_climb(self, model, monkeypatch):
        monkeypatch.setattr(optimizer, "TIME_GRADIENT_FLOOR", 1e9)
        config = OptimizerConfig(
            max_iterations=3,
            target_fidelity=1e-6,
            threshold_floor=0.01,
            threshold_drop=0.005,
        )
        result = run_optimization("model-only", model, config, seed=0)
        assert result.records[0].event == EVENT_DEGENERATE_TIME_GRADIENT
        assert all(r.phase == STEP1 for r in result.records)

    def test_noisy_climb_recovers_through_baseline_refresh(self, model):
        config = OptimizerConfig(max_iterations=250, d1_init=1e3)
        result = run_optimization(
            "balanced",
            model,
            config,
            experiment=ideal_config(noise_sigma=5e-3, seed=12),
            seed=1,
        )
        stalls = [r.n for r in result.records if r.event == EVENT_STALL_STEP1]
        assert stalls, "noisy run never exhausted a rejection streak"
        first = stalls[0]
        follower = result.records[first + 1]
        assert follower.step_size_used == 0.0 and follower.accepted
        best = max(r.j_oracle for r in result.records)
        assert best > 0.5, "refreshed climb failed to make progress"

    def test_climb_restart_is_sized_on_the_design_model(self, model):
        config = OptimizerConfig(max_iterations=100, d1_init=1e3)
        experiment = ideal_config(noise_sigma=5e-3, seed=12)
        result = run_optimization("balanced", model, config, experiment=experiment, seed=1)
        first = next(r.n for r in result.records if r.event == EVENT_STALL_STEP1)
        # Cut right after the re-measurement: the run, far below target,
        # returns the point the restarted climb step starts from.
        cut = run_optimization(
            "balanced", model, dataclasses.replace(config, max_iterations=first + 2),
            experiment=experiment, seed=1,
        )
        start = cut.final_pulse
        psi0, target = ket("00"), singlet_state()
        bundle = fidelity_and_gradients(model, start, psi0, target)
        grad = bundle.grad_amplitudes
        restarted = result.records[first + 2]
        assert restarted.phase == STEP1
        assert restarted.grad_dot == pytest.approx(float(np.sum(grad * grad)), rel=1e-12)

        def model_armijo(step):
            trial = start.with_amplitudes(start.amplitudes_hz + step * grad)
            gain = model_fidelity(model, trial, psi0, target) - bundle.fidelity
            return gain >= optimizer.ALPHA * step * float(np.sum(grad * grad))

        step = restarted.step_size_used
        growth = 1.0 / optimizer.BACKTRACK_FACTOR
        largest = config.d1_init * growth ** optimizer.MAX_BACKTRACKS
        assert config.d1_init <= step <= largest
        assert model_armijo(step)
        assert step == largest or not model_armijo(growth * step)
        assert {r.measurements_this_iter for r in result.records} == {3}


class TestTraceAudit:
    def test_model_trace_passes(self, model_run):
        summary = verify_trace_invariants(model_run.records, OptimizerConfig())
        assert summary["records"] == len(model_run.records)
        assert summary["accepted"] > 0
        assert summary["accepted_step2"] > 0

    def test_noisy_balanced_trace_passes(self, model):
        config = OptimizerConfig(
            max_iterations=400,
            d1_init=1e3,
            target_fidelity=0.93,
            threshold_floor=0.90,
        )
        result = run_optimization(
            "balanced",
            model,
            config,
            experiment=ExperimentConfig(
                true_g_hz=1.01 * G_HZ,
                amplitude_scale=(0.98, 1.0, 0.98, 1.0),
                distortion_tau_s=50e-6,
                noise_sigma=1e-3,
                t1_s=(0.730, 0.096),
                t2_s=(0.0965, 0.0425),
                seed=13,
            ),
            seed=2,
        )
        summary = verify_trace_invariants(result.records, config)
        assert summary["records"] == 400

    def test_tampered_acceptance_is_caught(self, model_run):
        records = list(model_run.records)
        victim = next(
            r for r in records if r.accepted and r.step_size_used > 0
        )
        idx = records.index(victim)
        records[idx] = type(victim)(
            **{**victim.as_dict(), "j_oracle": victim.acceptance_rhs - 1e-6}
        )
        with pytest.raises(ValueError):
            verify_trace_invariants(records, OptimizerConfig())

    def test_tampered_duration_increase_is_caught(self, model_run):
        records = list(model_run.records)
        victim = records[len(records) // 2]
        idx = records.index(victim)
        records[idx] = type(victim)(
            **{**victim.as_dict(), "t_seconds": victim.t_seconds + 1e-3}
        )
        with pytest.raises(ValueError):
            verify_trace_invariants(records, OptimizerConfig())


class TestResultShape:
    def test_modes_tuple(self):
        assert MODES == ("model-only", "experiment-only", "balanced")

    def test_record_dict_round_trip(self, model_run):
        rec = model_run.records[0]
        d = rec.as_dict()
        assert d["n"] == 0
        assert d["phase"] in (STEP1, STEP2)
        assert set(d) >= {
            "n", "phase", "t_seconds", "j_oracle", "j_model",
            "step_size_used", "accepted", "backtracks",
            "measurements_this_iter", "j_reference", "grad_dot",
            "acceptance_rhs", "threshold", "event",
        }

    @pytest.mark.parametrize("event", [None, EVENT_STALL_STEP1])
    def test_record_dict_equals_asdict_and_is_a_copy(self, model_run, event):
        rec = dataclasses.replace(model_run.records[1], event=event)
        d = rec.as_dict()
        assert d == dataclasses.asdict(rec)
        assert list(d) == [f.name for f in dataclasses.fields(rec)]
        d["t_seconds"] = -1.0
        d["event"] = "tampered"
        del d["n"]
        assert rec.as_dict() == dataclasses.asdict(rec)
        assert (rec.n, rec.event) == (1, event)

    def test_final_full_fidelity_only_with_backend(self, model, model_run):
        assert model_run.final_full_fidelity is None
        config = OptimizerConfig(max_iterations=5)
        result = run_optimization(
            "balanced", model, config, experiment=ideal_config(seed=14), seed=0
        )
        assert 0.0 <= result.final_full_fidelity <= 1.0

    def test_explicit_initial_pulse_is_respected(self, model):
        pulse = random_pulse(50, 4e-3, 100.0, np.random.default_rng(20))
        config = OptimizerConfig(max_iterations=3)
        result = run_optimization(
            "model-only", model, config, initial_pulse=pulse
        )
        assert result.records[0].t_seconds == pulse.duration_s
