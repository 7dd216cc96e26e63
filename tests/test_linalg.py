"""Checks for the 4-dimensional linear-algebra helpers.

Oracle notes: the Taylor comparison below is an independent route to the
matrix exponential (truncated series at small norm), and the diagonal
drift case is checked against phases computed by hand:
exp(-i (pi/2) g ZZ t) at t = 1/(2g) is diag(e^{-i pi/4}, e^{+i pi/4},
e^{+i pi/4}, e^{-i pi/4}).
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belltime import linalg
from belltime.cartan import kak_factorize
from belltime.linalg import ket, pauli_string, singlet_state
from oracles import expectation, expm_hermitian, reference_require_density, state_fidelity


def random_hermitian(rng, dim=4, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2.0


def test_pauli_string_shapes_and_values():
    xi = pauli_string("X", "I")
    assert xi.shape == (4, 4)
    # sigma_x on spin 1 swaps |0b> and |1b>.
    np.testing.assert_allclose(xi @ ket("00"), ket("10"))
    np.testing.assert_allclose(xi @ ket("01"), ket("11"))
    zz = pauli_string("Z", "Z")
    np.testing.assert_allclose(np.diag(zz), [1, -1, -1, 1])
    ii = pauli_string("I", "I")
    np.testing.assert_allclose(ii, np.eye(4))


def test_pauli_string_rejects_unknown_label():
    with pytest.raises(ValueError, match="Pauli label"):
        pauli_string("Q", "I")


def test_pauli_strings_are_hermitian_and_unitary():
    for a in "IXYZ":
        for b in "IXYZ":
            p = pauli_string(a, b)
            linalg.require_hermitian(p)
            linalg.require_unitary(p)


def test_expm_drift_diagonal_hand_value():
    g = 217.4
    h = (np.pi / 2.0) * g * pauli_string("Z", "Z")
    u = expm_hermitian(h, 1.0 / (2.0 * g))
    q = np.exp(-1j * np.pi / 4.0)
    expected = np.diag([q, q.conjugate(), q.conjugate(), q])
    np.testing.assert_allclose(u, expected, atol=1e-12)


def test_expm_matches_truncated_taylor():
    rng = np.random.default_rng(11)
    for _ in range(20):
        h = random_hermitian(rng)
        t = 0.5 / np.linalg.norm(h, 2)  # keep ||H t|| < 1 for fast convergence
        series = np.zeros((4, 4), dtype=np.complex128)
        term = np.eye(4, dtype=np.complex128)
        for k in range(1, 21):
            series += term
            term = term @ (-1j * h * t) / k
        np.testing.assert_allclose(expm_hermitian(h, t), series, atol=1e-9)


def test_expm_composition_and_unitarity():
    rng = np.random.default_rng(12)
    h = random_hermitian(rng, scale=3.0)
    u1 = expm_hermitian(h, 0.7)
    u2 = expm_hermitian(h, 0.3)
    np.testing.assert_allclose(u1 @ u2, expm_hermitian(h, 1.0), atol=1e-12)
    linalg.require_unitary(u1)


def test_expm_rejects_non_hermitian():
    bad = np.array([[0, 1], [0, 0]], dtype=np.complex128)
    with pytest.raises(ValueError, match="Hermitian"):
        expm_hermitian(bad, 1.0)


def test_state_fidelity_basics():
    assert state_fidelity(ket("00"), ket("00")) == pytest.approx(1.0)
    assert state_fidelity(ket("00"), ket("11")) == 0.0
    # Global phase does not matter.
    psi = singlet_state()
    assert state_fidelity(psi, np.exp(1j * 0.3) * psi) == pytest.approx(1.0, abs=1e-14)


def test_state_fidelity_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        state_fidelity(2.0 * ket("00"), ket("00"))


def test_expectation_singlet_correlators():
    psi = singlet_state()
    rho = np.outer(psi, psi.conj())
    for pair in ("XX", "YY", "ZZ"):
        val = expectation(rho, pauli_string(pair[0], pair[1]))
        assert val == pytest.approx(-1.0, abs=1e-12)


def test_singlet_projector_identity():
    # (1 - <XX> - <YY> - <ZZ>)/4 equals the singlet overlap for any state;
    # for the singlet itself it is exactly 1.
    psi = singlet_state()
    rho = np.outer(psi, psi.conj())
    total = 1.0
    for pair in ("XX", "YY", "ZZ"):
        total -= expectation(rho, pauli_string(pair[0], pair[1]))
    assert abs(total / 4.0 - 1.0) <= 1e-12

    # And for a handful of random pure states, against |<singlet|psi>|^2.
    rng = np.random.default_rng(5)
    for _ in range(10):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        phi = raw / np.linalg.norm(raw)
        rho = np.outer(phi, phi.conj())
        total = 1.0
        for pair in ("XX", "YY", "ZZ"):
            total -= expectation(rho, pauli_string(pair[0], pair[1]))
        assert total / 4.0 == pytest.approx(state_fidelity(psi, phi), abs=1e-12)


def test_expectation_rejects_bad_density():
    with pytest.raises(ValueError, match="trace"):
        expectation(np.eye(4, dtype=complex), pauli_string("Z", "Z"))
    lopsided = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        expectation(lopsided, pauli_string("Z", "Z"))


def test_density_stack_names_first_bad_matrix():
    good = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    stack = np.repeat(good[None], 6, axis=0)
    stack[4, 0, 0] += 1e-3  # trace off
    stack[2, 0, 1] = 1e-3  # not Hermitian, and earlier in the stack
    with pytest.raises(ValueError, match=r"density matrix \[2\] is not Hermitian"):
        linalg.require_density(stack)
    grid = np.repeat(good[None], 6, axis=0).reshape(2, 3, 4, 4)
    grid[1, 1] *= 1.0 + 1e-3
    with pytest.raises(ValueError, match=r"density matrix \[1, 1\] trace"):
        linalg.require_density(grid)
    assert linalg.require_density(stack[[0, 1, 3, 5]]).shape == (4, 4, 4)
    with pytest.raises(ValueError, match="square"):
        linalg.require_density(np.zeros((3, 4, 2)))


def test_density_stack_is_as_strict_as_one_at_a_time():
    # Perturbations straddling the tolerance: the stack fails exactly when
    # some matrix fails alone, and names the first such matrix and check.
    rng = np.random.default_rng(43)
    tol = linalg.DENSITY_TOL
    for _ in range(200):
        n = int(rng.integers(1, 8))
        raw = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
        stack = raw @ raw.conj().swapaxes(-1, -2)
        stack /= np.trace(stack, axis1=-2, axis2=-1).real[:, None, None]
        for i in range(n):
            kind = rng.integers(0, 4)
            size = tol * rng.choice([0.5, 2.0])
            if kind == 1:
                stack[i, 0, 1] += size
            elif kind == 2:
                stack[i] *= 1.0 + size
            elif kind == 3:
                stack[i] = np.diag([1.0 + size, -size, 0.0, 0.0])
        alone = []
        for i in range(n):
            try:
                linalg.require_density(stack[i])
            except ValueError as exc:
                alone.append((i, str(exc)))
        if not alone:
            linalg.require_density(stack)
            continue
        first, message = alone[0]
        with pytest.raises(ValueError) as caught:
            linalg.require_density(stack)
        assert str(caught.value) == message.replace("density matrix", f"density matrix [{first}]")


VALID_INPUTS = {
    "require_hermitian": np.diag([1.0, -1.0, 0.5, 0.0]).astype(complex),
    "require_unitary": pauli_string("X", "Y"),
    "require_state": singlet_state(),
    "require_density": np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex),
    "kak_factorize": np.eye(4, dtype=complex),
}
VALIDATORS = {
    "require_hermitian": linalg.require_hermitian,
    "require_unitary": linalg.require_unitary,
    "require_state": linalg.require_state,
    "require_density": linalg.require_density,
    "kak_factorize": kak_factorize,
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["diagonal", "pair"])
@pytest.mark.parametrize("validator", sorted(VALID_INPUTS))
def test_validators_reject_non_finite_entries(validator, where, value):
    # every comparison with NaN is False, so a check written as dev > tol
    # would let a NaN matrix or state through; and an infinite entry makes
    # the deviations NaN, which must not surface as a numpy warning first
    check = VALIDATORS[validator]
    good = VALID_INPUTS[validator]
    check(good)
    bad = good.copy()
    if bad.ndim == 1:  # a state: one entry, or two
        bad[: 1 if where == "diagonal" else 2] = value
    elif where == "diagonal":
        bad[2, 2] = value
    else:
        bad[0, 1] = bad[1, 0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            check(bad)


@pytest.mark.parametrize("validator, shape", [
    ("require_hermitian", (0, 0)),
    ("require_unitary", (0, 0)),
    ("require_density", (0, 0)),
    ("require_density", (3, 0, 0)),
])
def test_validators_name_an_empty_matrix(validator, shape):
    # numpy's own errors (a reshape of size 0 into (-1, 0, 0), a maximum
    # over no entries) must not stand in for the validator's
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"nonempty.*got shape \({shape[0]}, 0"):
            VALIDATORS[validator](np.zeros(shape, dtype=complex))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_density_stack_names_the_non_finite_matrix(value):
    stack = np.repeat(VALID_INPUTS["require_density"][None], 5, axis=0)
    stack[3, 2, 2] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"density matrix \[3\] is not Hermitian"):
            linalg.require_density(stack)
        # an earlier matrix that fails its eigenvalue check is still named first
        stack[1] = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"density matrix \[1\] has negative eigenvalue"):
            linalg.require_density(stack)


# Smallest eigenvalues at and around the screen's shift and the tolerance.
LAMBDA_MIN = [-2.0, -1.0, -0.75, -0.5, -0.25, 0.0]


@st.composite
def density_stacks(draw):
    """1-600 states, pure or mixed, with up to five rows made non-finite or
    given a smallest eigenvalue of LAMBDA_MIN * DENSITY_TOL."""
    n = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    raw[:, :, 1:] *= rng.integers(0, 2, size=(n, 1, 1))  # about half the rows pure
    stack = raw @ raw.conj().swapaxes(-1, -2)
    stack /= np.trace(stack, axis1=-2, axis2=-1).real[:, None, None]
    for _ in range(draw(st.integers(0, 5))):
        row = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["nan", "inf", "-inf", "spectrum"]))
        if kind == "spectrum":
            low = draw(st.sampled_from(LAMBDA_MIN)) * linalg.DENSITY_TOL
            rest = rng.dirichlet(np.ones(3)) * (1.0 - low)
            w = np.concatenate([[low], rest])
            if draw(st.booleans()):  # in a random eigenbasis, or diagonal
                v = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
                stack[row] = (v * w) @ v.conj().T
            else:
                stack[row] = np.diag(w)
        else:
            i, j = rng.integers(0, 4, size=2)
            stack[row, i, j] = stack[row, j, i] = float(kind)
    return stack


def outcome(check, stack):
    """The error message of ``check(stack)``, or None when it passes."""
    try:
        check(stack)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(stack=density_stacks())
def test_screened_density_check_decides_as_eigenvalues_alone(stack):
    # the Cholesky screen only skips eigvalsh on stacks it passes whole
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = outcome(reference_require_density, stack)
        assert outcome(linalg.require_density, stack) == expected
        alone = outcome(reference_require_density, stack[0])
        assert outcome(linalg.require_density, stack[0]) == alone
