"""Interaction-coordinate extraction, factorization, and minimum times."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from belltime import cartan
from belltime.cartan import (
    RESIDUAL_TOL,
    CartanCoordinates,
    DegeneracyError,
    cartan_coordinates,
    fidelity_ceiling,
    interaction_core,
    kak_factorize,
    minimum_time_bell,
    minimum_time_for_fidelity,
    minimum_time_unitary,
)
from belltime.dynamics import PulseSequence, SystemModel, model_fidelity
from belltime.linalg import ket, pauli_string, singlet_state
from oracles import expm_hermitian, nearest_local_product, reference_state
from test_acceptance import G_HZ

CHAMBER_TOL = 1e-9  # how far outside the canonical chamber a coordinate may fall

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)


def random_unitary(rng, dim=4):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_local(rng):
    return np.kron(random_unitary(rng, 2), random_unitary(rng, 2))


def phase_aligned_deviation(candidate, reference):
    z = np.trace(candidate.conj().T @ reference)
    assert abs(z) > 1e-9, "candidate and reference are nearly orthogonal"
    return np.max(np.abs(candidate * (z / abs(z)) - reference))


def in_chamber(a):
    ax, ay, az = a
    if not (np.pi / 4.0 + CHAMBER_TOL >= ax >= ay - CHAMBER_TOL >= abs(az) - 2 * CHAMBER_TOL):
        return False
    if ax > np.pi / 4.0 - 1e-7 and az < -CHAMBER_TOL:
        return False
    return True


class TestKnownCoordinates:
    def test_identity_has_zero_coordinates(self):
        a = cartan_coordinates(np.eye(4, dtype=np.complex128)).as_array()
        assert np.max(np.abs(a)) < 1e-12

    def test_local_unitaries_have_zero_coordinates(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = cartan_coordinates(random_local(rng)).as_array()
            assert np.max(np.abs(a)) < 1e-9

    def test_pure_zz_quarter_turn(self):
        u = expm_hermitian(pauli_string("Z", "Z"), np.pi / 4.0)
        a = cartan_coordinates(u).as_array()
        assert np.allclose(a, [np.pi / 4.0, 0.0, 0.0], atol=1e-9)

    def test_cnot_coordinates(self):
        a = cartan_coordinates(CNOT).as_array()
        assert np.allclose(a, [np.pi / 4.0, 0.0, 0.0], atol=1e-9)

    def test_reversed_zz_angle_is_canonicalized(self):
        u = expm_hermitian(pauli_string("Z", "Z"), -np.pi / 4.0)
        a = cartan_coordinates(u).as_array()
        assert np.allclose(a, [np.pi / 4.0, 0.0, 0.0], atol=1e-9)

    def test_swap_coordinates(self):
        a = cartan_coordinates(SWAP).as_array()
        assert np.allclose(a, [np.pi / 4.0] * 3, atol=1e-9)

    def test_iswap_coordinates(self):
        iswap = np.array(
            [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]],
            dtype=np.complex128,
        )
        a = cartan_coordinates(iswap).as_array()
        assert np.allclose(a, [np.pi / 4.0, np.pi / 4.0, 0.0], atol=1e-9)

    def test_interior_core_round_trip(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            ax = rng.uniform(0.05, np.pi / 4.0 - 0.05)
            ay = rng.uniform(0.02, ax - 0.02)
            az = rng.uniform(-(ay - 0.02), ay - 0.02)
            got = cartan_coordinates(interaction_core([ax, ay, az])).as_array()
            assert np.allclose(got, [ax, ay, az], atol=1e-9)

    def test_boundary_sign_tie_prefers_nonnegative_az(self):
        got = cartan_coordinates(interaction_core([np.pi / 4.0, 0.11, -0.07]))
        assert np.allclose(got.as_array(), [np.pi / 4.0, 0.11, 0.07], atol=1e-9)


class TestFactorization:
    def test_random_round_trips(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            u = random_unitary(rng)
            f = kak_factorize(u)
            recon = f.left_local @ interaction_core(f.coordinates) @ f.right_local
            assert phase_aligned_deviation(recon, u) <= 1e-8
            assert in_chamber(f.coordinates.as_array())

    def test_local_factors_are_tensor_products(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            f = kak_factorize(random_unitary(rng))
            for factor in (f.left_local, f.right_local):
                assert np.allclose(factor.conj().T @ factor, np.eye(4), atol=1e-9)
                _, _, residual = nearest_local_product(factor)
                assert residual <= 1e-8

    def test_coordinates_invariant_under_local_dressing(self):
        rng = np.random.default_rng(41)
        base = random_unitary(rng)
        reference = cartan_coordinates(base).as_array()
        for _ in range(50):
            dressed = random_local(rng) @ base @ random_local(rng)
            a = cartan_coordinates(dressed).as_array()
            assert np.allclose(a, reference, atol=1e-9)

    def test_coordinates_are_idempotent(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            a = cartan_coordinates(random_unitary(rng))
            again = cartan_coordinates(interaction_core(a)).as_array()
            assert np.allclose(again, a.as_array(), atol=1e-9)

    def test_global_phase_is_irrelevant(self):
        rng = np.random.default_rng(47)
        u = random_unitary(rng)
        a = cartan_coordinates(u).as_array()
        b = cartan_coordinates(np.exp(0.9j) * u).as_array()
        assert np.allclose(a, b, atol=1e-9)

    def test_rejects_non_unitary_and_bad_shape(self):
        with pytest.raises(ValueError):
            kak_factorize(np.eye(4) * 1.5)
        with pytest.raises(ValueError):
            kak_factorize(np.eye(3, dtype=np.complex128))


QUATERNION = st.tuples(*[st.floats(-1.0, 1.0)] * 4)


def su2_from(q):
    """The SU(2) matrix of a quaternion (a, b, c, d), normalized."""
    norm = math.sqrt(sum(x * x for x in q))
    assume(norm > 1e-3)
    a, b, c, d = (x / norm for x in q)
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


DRESSED_CORES = dict(
    core=st.tuples(*[st.floats(-math.pi, math.pi)] * 3),
    dressing=st.tuples(*[QUATERNION] * 4),
    phase=st.floats(-math.pi, math.pi),
)


def dressed(core, dressing, phase):
    """(V1 (x) V2) exp(-i a . (XX, YY, ZZ)) (W1 (x) W2), times a global phase."""
    v1, v2, w1, w2 = (su2_from(q) for q in dressing)
    return np.exp(1j * phase) * np.kron(v1, v2) @ interaction_core(core) @ np.kron(w1, w2)


class TestFactorizationFallback:
    """``kak_factorize``'s fallback: the later mu of the joint eigenbasis, then dressed retries.

    No generic input reaches it: Haar-random unitaries and locally dressed
    cores at the chamber's edges all factor on the first mu of the first
    attempt.  So these tests make the direct route fail on purpose.
    """

    def rebuilt(self, u, expected):
        f = kak_factorize(u)
        recon = f.left_local @ interaction_core(f.coordinates) @ f.right_local
        assert phase_aligned_deviation(recon, u) <= RESIDUAL_TOL
        assert np.allclose(f.coordinates.as_array(), expected, atol=1e-9)

    def test_a_dressed_attempt_rebuilds_u(self, monkeypatch):
        u = random_unitary(np.random.default_rng(59))
        expected = cartan_coordinates(u).as_array()
        raw, attempts = cartan._raw_factorization, []

        def undressed_fails(v):
            attempts.append(v)
            if len(attempts) == 1:
                raise DegeneracyError("forced on the undressed attempt")
            return raw(v)

        monkeypatch.setattr(cartan, "_raw_factorization", undressed_fails)
        self.rebuilt(u, expected)
        assert len(attempts) == 2
        assert np.array_equal(attempts[0], u) and not np.allclose(attempts[1], u)

    @pytest.mark.parametrize("failing", [1, 2, 3], ids=["second mu", "third mu", "dressed"])
    def test_the_later_mus_rebuild_u(self, monkeypatch, failing):
        # the joint eigenbasis's first ``failing`` real forms get the identity
        # as their eigenbasis, which does not diagonalize a generic form;
        # after three, the undressed attempt fails and a dressed one follows
        u = random_unitary(np.random.default_rng(61))
        expected = cartan_coordinates(u).as_array()
        eigh, forms = np.linalg.eigh, []

        def first_bases_fail(a):
            w, v = eigh(a)
            if np.isrealobj(a):  # interaction_core's Hamiltonians are complex
                forms.append(a)
                if len(forms) <= failing:
                    v = np.eye(len(a))
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", first_bases_fail)
        self.rebuilt(u, expected)
        assert len(forms) == failing + 1

    def test_no_attempt_left_raises(self, monkeypatch):
        attempts = []

        def always_fails(v):
            attempts.append(v)
            raise DegeneracyError("forced on every attempt")

        monkeypatch.setattr(cartan, "_raw_factorization", always_fails)
        with pytest.raises(DegeneracyError) as caught:
            kak_factorize(random_unitary(np.random.default_rng(67)))
        assert len(attempts) == 4
        assert str(caught.value) == (
            "no factorization reached residual 1.0e-08 (best inf); "
            "last attempt: forced on every attempt"
        )
        assert str(caught.value.__cause__) == "forced on every attempt"

    def test_no_close_attempt_names_the_best_residual(self, monkeypatch):
        raw, residual, residuals = cartan._raw_factorization, cartan._reconstruction_residual, []

        def off_core(v):
            a, left, right = raw(v)
            return a + 1e-3, left, right  # every attempt misses U

        def recorded(*args):
            residuals.append(residual(*args))
            return residuals[-1]

        monkeypatch.setattr(cartan, "_raw_factorization", off_core)
        monkeypatch.setattr(cartan, "_reconstruction_residual", recorded)
        with pytest.raises(DegeneracyError) as caught:
            kak_factorize(random_unitary(np.random.default_rng(71)))
        assert len(residuals) == 4 and min(residuals) > RESIDUAL_TOL
        assert str(caught.value) == (
            f"no factorization reached residual {RESIDUAL_TOL:.1e} (best {min(residuals):.3e})"
        )
        assert caught.value.__cause__ is None

    def test_a_left_factor_that_is_not_real_fails_by_its_residual(self, monkeypatch):
        # eigenphases tilted by ~1e-6 leave the left orthogonal factor complex
        # by about as much; the real part alone misses U, and every attempt
        # fails the residual check
        joint = cartan._joint_real_eigenbasis

        def tilted(m):
            d, p = joint(m)
            return d * np.exp(2e-6j * np.array([1.0, -1.0, 0.5, -0.5])), p

        monkeypatch.setattr(cartan, "_joint_real_eigenbasis", tilted)
        with pytest.raises(DegeneracyError) as caught:
            kak_factorize(random_unitary(np.random.default_rng(73)))
        best = re.fullmatch(r"no factorization reached residual 1\.0e-08 \(best (.+)\)",
                            str(caught.value))
        assert float(best.group(1)) > RESIDUAL_TOL
        assert caught.value.__cause__ is None

    def test_a_candidate_orthogonal_to_its_reference_is_returned_unchanged(self):
        # no overlap, no phase to align to; dividing by |overlap| = 0 would
        # warn and give nan
        candidate = np.eye(4, dtype=np.complex128)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cartan._align_phase(candidate, pauli_string("Z", "Z")) is candidate


class TestFactorizationProperties:
    @given(**DRESSED_CORES)
    def test_round_trip_in_the_chamber(self, core, dressing, phase):
        u = dressed(core, dressing, phase)
        f = kak_factorize(u)
        assert in_chamber(f.coordinates.as_array())
        recon = f.left_local @ interaction_core(f.coordinates) @ f.right_local
        assert phase_aligned_deviation(recon, u) <= 1e-8

    @given(**DRESSED_CORES)
    def test_coordinates_ignore_local_dressing(self, core, dressing, phase):
        bare = cartan_coordinates(interaction_core(core)).as_array()
        assert np.allclose(cartan_coordinates(dressed(core, dressing, phase)).as_array(),
                           bare, atol=1e-9)

    @settings(max_examples=200)
    @given(core=DRESSED_CORES["core"], dressing=DRESSED_CORES["dressing"],
           fault=st.sampled_from(["scaled", "sheared", "shape", "non-finite"]),
           size=st.floats(1e-6, 10.0), value=st.sampled_from([math.nan, math.inf, -math.inf]),
           entry=st.integers(0, 15))
    def test_rejects_what_is_not_a_4x4_unitary(self, core, dressing, fault, size, value, entry):
        u = dressed(core, dressing, 0.0)
        if fault == "scaled":
            u = u * (1.0 + size)
        elif fault == "sheared":
            u = u + size * np.eye(4, k=1)
        elif fault == "shape":
            u = [su2_from(dressing[0]), np.eye(8), u[:3], u[None]][entry % 4]
        else:
            u = u.copy()
            u.flat[entry] = value
        # the validators' own errors, not LAPACK's (a ValueError subclass)
        # and not a numpy warning on the way there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="unitary|square"):
                kak_factorize(u)


class TestNearestLocalProduct:
    def test_recovers_exact_product(self):
        rng = np.random.default_rng(53)
        a = random_unitary(rng, 2)
        b = random_unitary(rng, 2)
        ra, rb, residual = nearest_local_product(np.kron(a, b))
        assert residual < 1e-12
        assert np.allclose(np.kron(ra, rb), np.kron(a, b), atol=1e-12)

    def test_entangling_gate_is_far_from_local(self):
        _, _, residual = nearest_local_product(CNOT)
        assert residual > 0.1


class TestMinimumTimes:
    def test_bell_time_value(self):
        assert minimum_time_bell(G_HZ) == pytest.approx(2.2999080036798529e-3, abs=1e-12)

    def test_bell_time_scales_inversely_with_coupling(self):
        assert minimum_time_bell(2 * G_HZ) == pytest.approx(minimum_time_bell(G_HZ) / 2)

    def test_cnot_matches_bell_time(self):
        assert minimum_time_unitary(CNOT, G_HZ) == pytest.approx(
            minimum_time_bell(G_HZ), rel=1e-9
        )

    def test_swap_needs_three_units(self):
        assert minimum_time_unitary(SWAP, G_HZ) == pytest.approx(
            3.0 / (2.0 * G_HZ), rel=1e-9
        )
        assert minimum_time_unitary(SWAP, G_HZ) == pytest.approx(6.8997e-3, abs=1e-6)

    def test_identity_needs_no_time(self):
        assert minimum_time_unitary(np.eye(4, dtype=np.complex128), G_HZ) < 1e-12

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ValueError):
            minimum_time_bell(0.0)
        with pytest.raises(ValueError):
            minimum_time_unitary(CNOT, -1.0)

    def test_drift_quarter_turn_reaches_singlet_with_local_rotation(self):
        # Evolve |++> under the bare coupling for exactly 1/(2 g) seconds,
        # then solve for the single-spin rotation that lands on the target.
        # Existence of that rotation is what makes 1/(2 g) attainable.
        drift = (np.pi / 2.0) * G_HZ * pauli_string("Z", "Z")
        u = expm_hermitian(drift, minimum_time_bell(G_HZ))
        plus = (ket("00") + ket("01") + ket("10") + ket("11")) / 2.0
        psi = u @ plus
        m_psi = psi.reshape(2, 2)
        m_target = singlet_state().reshape(2, 2)
        a = m_target @ np.linalg.inv(m_psi)
        assert np.allclose(a.conj().T @ a, np.eye(2) * 0.5 * np.trace(a.conj().T @ a).real, atol=1e-9)
        a = a / np.sqrt(0.5 * np.trace(a.conj().T @ a).real)
        reached = np.kron(a, np.eye(2)) @ psi
        fidelity = abs(np.vdot(singlet_state(), reached)) ** 2
        assert fidelity >= 1.0 - 1e-9


class TestCouplingSpeedLimit:
    def test_full_fidelity_needs_the_bell_time(self):
        for g_hz in (G_HZ, 1.01 * G_HZ, 3.0):
            t_bell = minimum_time_bell(g_hz)
            assert minimum_time_for_fidelity(g_hz, 1.0) == pytest.approx(t_bell, rel=1e-15)
            assert fidelity_ceiling(g_hz, t_bell) == 1.0
            assert fidelity_ceiling(g_hz, 2.0 * t_bell) == 1.0
            assert fidelity_ceiling(g_hz, 0.0) == 0.5

    def test_ceiling_rises_with_duration_and_time_with_fidelity(self):
        durations = np.linspace(0.0, minimum_time_bell(G_HZ), 101)
        ceilings = [fidelity_ceiling(G_HZ, t) for t in durations]
        assert all(a < b for a, b in zip(ceilings, ceilings[1:]))
        fidelities = np.linspace(0.5, 1.0, 101)
        times = [minimum_time_for_fidelity(G_HZ, f) for f in fidelities]
        assert all(a < b for a, b in zip(times, times[1:]))
        assert minimum_time_for_fidelity(G_HZ, 0.2) == 0.0  # local rotations reach 1/2

    def test_round_trip(self):
        for f in np.linspace(0.5, 1.0, 51):
            assert fidelity_ceiling(G_HZ, minimum_time_for_fidelity(G_HZ, f)) == pytest.approx(
                f, abs=1e-12
            )
        for t in np.linspace(0.0, minimum_time_bell(G_HZ), 51):
            back = minimum_time_for_fidelity(G_HZ, fidelity_ceiling(G_HZ, t))
            assert back == pytest.approx(t, abs=1e-9 * minimum_time_bell(G_HZ))

    def test_ceiling_is_the_drift_evolved_schmidt_bound(self):
        # |++> under the bare coupling; local rotations then reach
        # (1 + 2 s1 s2)/2 of the singlet, s the Schmidt coefficients
        drift = (np.pi / 2.0) * G_HZ * pauli_string("Z", "Z")
        plus = (ket("00") + ket("01") + ket("10") + ket("11")) / 2.0
        for t in np.linspace(0.0, minimum_time_bell(G_HZ), 9):
            psi = expm_hermitian(drift, t) @ plus
            s1, s2 = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)
            assert fidelity_ceiling(G_HZ, t) == pytest.approx(0.5 + s1 * s2, abs=1e-12)

    @given(
        amps=st.integers(1, 60).flatmap(
            lambda m: arrays(np.float64, (m, 4), elements=st.floats(-1e4, 1e4))
        ),
        g_hz=st.sampled_from([G_HZ, 1.01 * G_HZ, 3.0]),
        fraction=st.floats(1e-6, 1.0),
    )
    def test_no_pulse_beats_the_ceiling(self, amps, g_hz, fraction):
        # Local controls of any strength cannot entangle faster than the
        # coupling allows.  Random pulses land far below the bound on the
        # singlet itself, so each is scored against the maximally entangled
        # state nearest its own final state, U V^T / sqrt(2) for the SVD
        # U S V^T of that state's 2 x 2 matrix: the singlet after the best
        # closing local rotation, whose overlap (s1 + s2)^2 / 2 bounds the
        # singlet's.
        duration = fraction * minimum_time_bell(g_hz)
        model, pulse = SystemModel(g_hz), PulseSequence(duration, amps)
        u, _, vh = np.linalg.svd(reference_state(model, pulse, ket("00")).reshape(2, 2))
        nearest = (u @ vh).reshape(4) / np.sqrt(2.0)
        j = model_fidelity(model, pulse, ket("00"), nearest)
        assert j <= fidelity_ceiling(g_hz, duration) + 1e-12

    @pytest.mark.parametrize("fidelity", [-1e-12, 1.0 + 1e-12, 2.0, float("nan"), float("inf")])
    def test_rejects_fidelity_outside_unit_interval(self, fidelity):
        with pytest.raises(ValueError, match="fidelity must lie in"):
            minimum_time_for_fidelity(G_HZ, fidelity)

    def test_rejects_bad_coupling_and_duration(self):
        for g_hz in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="g_hz"):
                minimum_time_for_fidelity(g_hz, 0.9)
            with pytest.raises(ValueError, match="g_hz"):
                fidelity_ceiling(g_hz, 1e-3)
            with pytest.raises(ValueError, match="g_hz"):
                minimum_time_unitary(CNOT, g_hz)
        for duration in (-1e-9, float("nan")):
            with pytest.raises(ValueError, match="duration_s"):
                fidelity_ceiling(G_HZ, duration)

    @pytest.mark.parametrize("function, args, name", [
        (minimum_time_bell, (True,), "g_hz"),
        (minimum_time_bell, ("217.4",), "g_hz"),
        (minimum_time_unitary, (CNOT, True), "g_hz"),
        (minimum_time_for_fidelity, ("217.4", 0.9), "g_hz"),
        (fidelity_ceiling, (True, 1e-3), "g_hz"),
        (fidelity_ceiling, (G_HZ, True), "duration_s"),
        (fidelity_ceiling, (G_HZ, "1e-3"), "duration_s"),
        (minimum_time_for_fidelity, (G_HZ, True), "fidelity"),
    ])
    def test_bools_and_strings_are_not_numbers(self, function, args, name):
        # the coupling takes SystemModel's one check, the others as_real
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
            function(*args)
