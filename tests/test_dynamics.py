"""Dynamics checks: propagation identities and exact-gradient correctness.

The gradient oracle is an independent route: central finite differences
of the fidelity computed through model_fidelity(), with steps h = 1e-6 Hz
for amplitudes and h = 1e-9 s for the duration.  Analytic gradients must
match to 1e-6 relative (1e-9 absolute floor for near-zero derivatives).
model_fidelity() itself is checked against ``reference_state``
(tests/oracles.py), which builds and exponentiates each slice Hamiltonian
on its own.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from belltime.dynamics import (
    GradientBundle,
    PulseSequence,
    SystemModel,
    fidelity_and_gradients,
    model_fidelity,
    random_pulse,
    read_pulse_csv,
    slice_propagators,
    write_pulse_csv,
)
from belltime.linalg import ket, pauli_string, singlet_state
from belltime.recipes import bell_recipe_pulse
from oracles import (
    expm_hermitian,
    reference_fidelity_and_gradients,
    reference_model_fidelity,
    reference_state,
)

MODEL = SystemModel(g_hz=217.4)
PSI0 = ket("00")
TARGET = singlet_state()
# (psi0, target) pairs: the Bell problem, a drift eigenstate onto itself,
# and a pair the drift alone never connects.
STATE_PAIRS = [
    (ket("00"), singlet_state()),
    (singlet_state(), singlet_state()),
    (ket("01"), ket("10")),
]


def fd_gradients(model, pulse, psi0, target, h_amp=1e-6, h_time=1e-9):
    """Central finite differences through the propagator (oracle route)."""
    grad_amp = np.zeros_like(pulse.amplitudes_hz)
    for m in range(pulse.n_slices):
        for c in range(4):
            for sign in (+1, -1):
                amps = np.array(pulse.amplitudes_hz)
                amps[m, c] += sign * h_amp
                j = model_fidelity(model, pulse.with_amplitudes(amps), psi0, target)
                grad_amp[m, c] += sign * j / (2.0 * h_amp)
    j_plus = model_fidelity(model, pulse.with_duration(pulse.duration_s + h_time), psi0, target)
    j_minus = model_fidelity(model, pulse.with_duration(pulse.duration_s - h_time), psi0, target)
    return grad_amp, (j_plus - j_minus) / (2.0 * h_time)


def assert_grad_close(analytic, oracle, rel=1e-6, abs_floor=1e-9):
    analytic = np.asarray(analytic, dtype=float)
    oracle = np.asarray(oracle, dtype=float)
    small = np.abs(oracle) < 1e-3
    np.testing.assert_allclose(analytic[~small], oracle[~small], rtol=rel)
    np.testing.assert_allclose(analytic[small], oracle[small], atol=abs_floor * 1e3)


def _labelled(valid, *strategies):
    """Draws of any of ``strategies``, each paired with ``valid``."""
    return st.one_of(*strategies).map(lambda value: (value, valid))


POSITIVE_FLOATS = st.floats(0.0, exclude_min=True, allow_infinity=False)
# (duration, valid): real positive finite scalars of any numeric type are
# valid; bools, complex numbers, arrays, non-numbers and values that are
# not positive and finite are not.
DURATIONS = _labelled(
    True,
    POSITIVE_FLOATS,
    POSITIVE_FLOATS.map(np.float64),
    st.floats(0.0, width=32, exclude_min=True, allow_infinity=False).map(np.float32),
    st.integers(1, 2**53),
    st.integers(1, 2**53).map(np.int64),
) | _labelled(
    False,
    st.booleans(),
    st.booleans().map(np.bool_),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.complex_numbers(allow_nan=False, allow_infinity=False).map(np.complex128),
    POSITIVE_FLOATS.map(lambda x: np.array([x])),
    POSITIVE_FLOATS.map(np.array),
    st.floats(max_value=0.0),
    st.sampled_from([np.nan, np.inf, np.float64(np.nan), np.float64(np.inf)]),
    st.integers(-2**64, 0),
    st.text(max_size=5),
    st.none(),
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# (amplitudes, valid): finite real (M, 4) grids, of floats or integers,
# are valid; complex grids, other shapes and non-finite entries are not.
AMPLITUDES = _labelled(
    True,
    arrays(np.float64, st.tuples(st.integers(1, 20), st.just(4)), elements=FINITE),
    arrays(np.int64, st.tuples(st.integers(1, 20), st.just(4))),
) | _labelled(
    False,
    arrays(np.complex128, st.tuples(st.integers(1, 20), st.just(4)),
           elements=st.complex_numbers(allow_nan=False, allow_infinity=False)),
    arrays(np.float64, st.tuples(st.integers(0, 20), st.integers(0, 8).filter(lambda k: k != 4)),
           elements=FINITE),
    arrays(np.float64, st.sampled_from([(0, 4), (4,), (1, 4, 1), (2, 2, 4)]), elements=FINITE),
    arrays(np.float64, st.tuples(st.integers(1, 20), st.just(4)),
           elements=FINITE | st.sampled_from([np.nan, np.inf, -np.inf])).filter(
        lambda a: not np.isfinite(a).all()
    ),
)


class TestPulseSequence:
    def test_validation(self):
        with pytest.raises(ValueError, match="duration"):
            PulseSequence(0.0, np.zeros((5, 4)))
        with pytest.raises(ValueError, match="shape"):
            PulseSequence(1e-3, np.zeros((5, 3)))
        with pytest.raises(ValueError, match="finite"):
            PulseSequence(1e-3, np.full((5, 4), np.nan))

    def test_immutable_amplitudes(self):
        p = PulseSequence(1e-3, np.zeros((3, 4)))
        with pytest.raises(ValueError):
            p.amplitudes_hz[0, 0] = 1.0

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        p = random_pulse(7, 2.34e-3, 100.0, rng)
        path = tmp_path / "pulse.csv"
        write_pulse_csv(p, path)
        q = read_pulse_csv(path)
        assert q.duration_s == p.duration_s
        np.testing.assert_array_equal(q.amplitudes_hz, p.amplitudes_hz)
        # Identical floats must give the identical fidelity.
        j0 = model_fidelity(MODEL, p, PSI0, TARGET)
        j1 = model_fidelity(MODEL, q, PSI0, TARGET)
        assert j0 == j1

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        amplitudes=arrays(
            np.float64,
            st.tuples(st.integers(1, 60), st.just(4)),
            elements=st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([-0.0, 5e-324, -2.5e-308, 1e300, -1e300]),
        ),
        duration=POSITIVE_FLOATS | POSITIVE_FLOATS.map(np.float64),
    )
    def test_csv_round_trip_keeps_every_bit(self, tmp_path_factory, amplitudes, duration):
        path = tmp_path_factory.getbasetemp() / "round_trip.csv"
        p = PulseSequence(duration, amplitudes)
        write_pulse_csv(p, path)
        q = read_pulse_csv(path)
        assert q.duration_s.hex() == duration.hex()
        assert np.array_equal(q.amplitudes_hz.view(np.int64), amplitudes.view(np.int64))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(duration=DURATIONS, amplitudes=AMPLITUDES)
    @example(duration=(True, False), amplitudes=(np.zeros((2, 4)), True))
    @example(duration=(np.array([1e-3]), False), amplitudes=(np.zeros((2, 4)), True))
    @example(duration=(np.float64(2e-3), True), amplitudes=(np.full((2, 4), 1j), False))
    def test_input_validation(self, duration, amplitudes):
        (d, d_valid), (a, a_valid) = duration, amplitudes
        if not (d_valid and a_valid):
            with pytest.raises(ValueError):
                PulseSequence(d, a)
            return
        p = PulseSequence(d, a)
        assert type(p.duration_s) is float and p.duration_s.hex() == float(d).hex()
        assert p.amplitudes_hz.dtype == np.float64 and not p.amplitudes_hz.flags.writeable
        assert np.array_equal(
            p.amplitudes_hz.view(np.int64), np.asarray(a, dtype=np.float64).view(np.int64)
        )

    def test_csv_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("slice,ux1_hz\n0,1\n")
        with pytest.raises(ValueError, match="metadata"):
            read_pulse_csv(path)

    def test_csv_with_only_its_metadata_line(self, tmp_path):
        path = tmp_path / "truncated.csv"
        path.write_text("# T_seconds=0.001 M=3\n")
        with pytest.raises(ValueError, match="truncated.csv: expected header .* end of file"):
            read_pulse_csv(path)


class TestSliceHamiltonian:
    def test_zero_controls_is_pure_drift(self):
        drift = (np.pi / 2) * 217.4 * pauli_string("Z", "Z")
        u, h, _, _ = slice_propagators(MODEL, np.zeros((4, 4)), 2.5e-4)
        np.testing.assert_allclose(h[0], drift)
        np.testing.assert_allclose(u[0], expm_hermitian(drift, 2.5e-4), atol=1e-12)

    def test_single_channel_term(self):
        amps = np.zeros((2, 4))
        amps[1, 2] = 7.0  # ux2
        expected = (np.pi / 2) * 217.4 * pauli_string("Z", "Z") + np.pi * 7.0 * pauli_string("I", "X")
        dts = np.array([3e-4, 7e-4])
        u, h, _, _ = slice_propagators(MODEL, amps, dts)
        np.testing.assert_allclose(h[1], expected)
        np.testing.assert_allclose(u[1], expm_hermitian(expected, 7e-4), atol=1e-12)


class TestModelFidelity:
    def test_zero_pulse_leaves_basis_state(self):
        p = PulseSequence(5e-3, np.zeros((50, 4)))
        # |00> is a drift eigenstate: only a phase accrues.
        assert abs(model_fidelity(MODEL, p, PSI0, PSI0) - 1.0) < 1e-12

    def test_norm_preserved(self):
        # The overlaps with a complete basis add up to the norm.
        rng = np.random.default_rng(7)
        p = random_pulse(50, 5e-3, 100.0, rng)
        total = sum(model_fidelity(MODEL, p, PSI0, ket(b)) for b in ("00", "01", "10", "11"))
        assert abs(total - 1.0) < 1e-12

    def test_split_composition(self):
        # The second half run from the first half's state equals one pass.
        rng = np.random.default_rng(8)
        amps = rng.uniform(-100, 100, size=(10, 4))
        p = PulseSequence(2e-3, amps)
        mid = reference_state(MODEL, PulseSequence(1e-3, amps[:5]), PSI0)
        second = PulseSequence(1e-3, amps[5:])
        for target in (TARGET, ket("00"), ket("01"), ket("11")):
            assert model_fidelity(MODEL, second, mid, target) == pytest.approx(
                model_fidelity(MODEL, p, PSI0, target), abs=1e-10
            )

    def test_slice_duplication_invariance(self):
        # Repeating every slice twice at the same total T changes nothing.
        rng = np.random.default_rng(9)
        amps = rng.uniform(-100, 100, size=(8, 4))
        p1 = PulseSequence(1.5e-3, amps)
        p2 = PulseSequence(1.5e-3, np.repeat(amps, 2, axis=0))
        for target in (TARGET, ket("00"), ket("01"), ket("11")):
            assert model_fidelity(MODEL, p1, PSI0, target) == pytest.approx(
                model_fidelity(MODEL, p2, PSI0, target), abs=1e-12
            )

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        amps=st.integers(1, 60).flatmap(
            lambda m: arrays(np.float64, (m, 4), elements=st.floats(-3e3, 3e3))
        ),
        duration=st.floats(1e-6, 6e-3),
        pair=st.sampled_from(range(len(STATE_PAIRS))),
    )
    def test_matches_per_slice_reference(self, amps, duration, pair):
        p = PulseSequence(duration, amps)
        psi0, target = STATE_PAIRS[pair]
        expected = abs(np.vdot(target, reference_state(MODEL, p, psi0))) ** 2
        assert abs(model_fidelity(MODEL, p, psi0, target) - expected) <= 1e-12

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        amps=st.integers(1, 60).flatmap(
            lambda m: arrays(np.float64, (m, 4), elements=st.floats(-3e3, 3e3))
        ),
        duration=st.floats(1e-9, 6e-3),
        pair=st.sampled_from(range(len(STATE_PAIRS))),
        handed=st.booleans(),
    )
    def test_equals_matmul_loop_bit_for_bit(self, amps, duration, pair, handed):
        p = PulseSequence(duration, amps)
        psi0, target = STATE_PAIRS[pair]
        decomposition = (
            slice_propagators(MODEL, p.amplitudes_hz, p.slice_duration_s) if handed else None
        )
        fast = model_fidelity(MODEL, p, psi0, target, decomposition)
        assert fast.hex() == reference_model_fidelity(MODEL, p, psi0, target).hex()

    def test_analytic_singlet_recipe(self):
        # Hand-built preparation sequence must hit the target at M = 50.
        pulse = bell_recipe_pulse(217.4, m_slices=50)
        j = model_fidelity(MODEL, pulse, PSI0, TARGET)
        assert j >= 0.99

    def test_closed_form_diagonal_evolution(self):
        # M = 1, zero controls, |++> input: J against the hand calculation.
        # psi(T) = (e^{-i phi}|00> + e^{i phi}|01> + e^{i phi}|10> + e^{-i phi}|11>)/2
        # with phi = (pi/2) g T, so |<target'|psi>|^2 = cos(phi)^2 / 2 for
        # target' = (|00> + |01>)/sqrt(2).
        plus_plus = 0.5 * np.array([1, 1, 1, 1], dtype=complex)
        target = (ket("00") + ket("01")) / np.sqrt(2)
        for t in (0.3e-3, 1.0e-3, 2.2999e-3):
            p = PulseSequence(t, np.zeros((1, 4)))
            j = model_fidelity(MODEL, p, plus_plus, target)
            phi = (np.pi / 2) * 217.4 * t
            assert j == pytest.approx(np.cos(phi) ** 2 / 2.0, abs=1e-12)


class TestGradients:
    def test_bundle_shape(self):
        rng = np.random.default_rng(0)
        p = random_pulse(5, 1e-3, 80.0, rng)
        b = fidelity_and_gradients(MODEL, p, PSI0, TARGET)
        assert isinstance(b, GradientBundle)
        assert b.grad_amplitudes.shape == (5, 4)
        assert b.fidelity == model_fidelity(MODEL, p, PSI0, TARGET)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        amps=st.integers(1, 60).flatmap(
            lambda m: arrays(np.float64, (m, 4), elements=st.floats(-400.0, 400.0))
        ),
        zero_rows=st.lists(st.integers(0, 59), max_size=10),
        duration=st.floats(1e-4, 6e-3),
    )
    def test_handed_decomposition_changes_nothing(self, amps, zero_rows, duration):
        # Zero-drive rows leave the bare, doubly degenerate ZZ Hamiltonian.
        amps[[r for r in zero_rows if r < len(amps)]] = 0.0
        p = PulseSequence(duration, amps)
        decomposition = slice_propagators(MODEL, p.amplitudes_hz, p.slice_duration_s)
        plain = fidelity_and_gradients(MODEL, p, PSI0, TARGET)
        handed = fidelity_and_gradients(MODEL, p, PSI0, TARGET, decomposition)
        assert np.array_equal(handed.grad_amplitudes, plain.grad_amplitudes)
        assert handed.grad_duration == plain.grad_duration
        assert handed.fidelity == plain.fidelity
        assert model_fidelity(MODEL, p, PSI0, TARGET) == plain.fidelity
        assert model_fidelity(MODEL, p, PSI0, TARGET, decomposition) == plain.fidelity

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        amps=st.integers(1, 80).flatmap(
            lambda m: arrays(np.float64, (m, 4), elements=st.floats(-3e3, 3e3))
        ),
        zero_rows=st.lists(st.integers(0, 79), max_size=20),
        duration=st.floats(1e-9, 6e-3),
        pair=st.sampled_from(range(len(STATE_PAIRS))),
    )
    @example(
        amps=np.array([[1e6, -1e6, 0.0, 3e3], [0.0, 0.0, 0.0, 0.0], [-1e6, 2.5, 1e6, -1e6]]),
        zero_rows=[], duration=2.3e-3, pair=0,
    )
    @example(amps=np.zeros((7, 4)), zero_rows=[], duration=1e-9, pair=2)
    def test_equals_slice_first_reference_bit_for_bit(self, amps, zero_rows, duration, pair):
        # Integer views tell -0.0 from +0.0; zero-drive rows leave the
        # bare, doubly degenerate ZZ Hamiltonian.
        amps[[r for r in zero_rows if r < len(amps)]] = 0.0
        p = PulseSequence(duration, amps)
        psi0, target = STATE_PAIRS[pair]
        fast = fidelity_and_gradients(MODEL, p, psi0, target)
        reference = reference_fidelity_and_gradients(MODEL, p, psi0, target)

        def bits(x):
            return np.array(x, dtype=np.float64).view(np.int64)

        assert fast.grad_amplitudes.flags.c_contiguous
        assert np.array_equal(bits(fast.grad_amplitudes), bits(reference.grad_amplitudes))
        assert bits(fast.grad_duration) == bits(reference.grad_duration)
        assert bits(fast.fidelity) == bits(reference.fidelity)

    @pytest.mark.parametrize("m_slices", [1, 5, 50])
    def test_matches_finite_differences(self, m_slices):
        rng = np.random.default_rng(100 + m_slices)
        duration = rng.uniform(1e-3, 6e-3)
        p = random_pulse(m_slices, duration, 100.0, rng)
        b = fidelity_and_gradients(MODEL, p, PSI0, TARGET)
        fd_amp, fd_t = fd_gradients(MODEL, p, PSI0, TARGET)
        assert_grad_close(b.grad_amplitudes, fd_amp)
        assert_grad_close([b.grad_duration], [fd_t])

    def test_zero_pulse_duration_gradient_vanishes(self):
        # |00> is a drift eigenstate, so J(T) is constant at zero drive.
        p = PulseSequence(3e-3, np.zeros((10, 4)))
        b = fidelity_and_gradients(MODEL, p, PSI0, TARGET)
        assert abs(b.grad_duration) < 1e-12
        np.testing.assert_allclose(b.fidelity, 0.0, atol=1e-12)

    def test_gradient_near_optimum_is_small(self):
        pulse = bell_recipe_pulse(217.4, m_slices=50)
        b = fidelity_and_gradients(MODEL, pulse, PSI0, TARGET)
        # Not exactly optimal (J ~ 0.993) but the scale should be modest.
        assert np.max(np.abs(b.grad_amplitudes)) < 5e-3

    def test_degenerate_slice_hamiltonian(self):
        # Zero-drive slices have a doubly degenerate Hamiltonian; the
        # divided-difference kernel must stay finite and correct there.
        amps = np.zeros((3, 4))
        amps[1, 0] = 60.0
        p = PulseSequence(1.2e-3, amps)
        b = fidelity_and_gradients(MODEL, p, PSI0, TARGET)
        fd_amp, fd_t = fd_gradients(MODEL, p, PSI0, TARGET)
        assert_grad_close(b.grad_amplitudes, fd_amp)
        assert_grad_close([b.grad_duration], [fd_t])
