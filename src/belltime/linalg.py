"""Small dense linear algebra for a two-spin (4-dimensional) Hilbert space.

Everything here works on plain numpy arrays: state vectors of shape (4,)
and operators of shape (4, 4), complex128.  The basis ordering is
|00>, |01>, |10>, |11> with spin 1 as the left tensor factor.  Functions
that promise Hermitian / unitary / density-matrix inputs check them and
raise ValueError, so numerical garbage fails loudly instead of
propagating.  Each check is written so that a NaN deviation fails it
(``not dev <= HERMITIAN_TOL`` and the like): every comparison with NaN is
False.  The matrix checks take their deviations under ``np.errstate``,
since an infinite entry makes them NaN (inf - inf, inf * 0), and the
validator's own ValueError, not a numpy warning, is what reports it.
"""

from __future__ import annotations

import numpy as np

# Input validation tolerances (max-abs deviation).
HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
DENSITY_TOL = 1e-10
STATE_NORM_TOL = 1e-10

PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

PAULI_LABELS = ("I", "X", "Y", "Z")


def pauli_string(first: str, second: str) -> np.ndarray:
    """Kronecker product sigma_first (x) sigma_second, spin 1 on the left.

    Labels must be one of "I", "X", "Y", "Z"; e.g. pauli_string("X", "I")
    acts with sigma_x on spin 1 only.
    """
    for label in (first, second):
        if label not in PAULI:
            raise ValueError(
                f"unknown Pauli label {label!r}; expected one of {PAULI_LABELS}"
            )
    return np.kron(PAULI[first], PAULI[second])


def ket(bits: str) -> np.ndarray:
    """Computational basis vector for a two-bit string such as "01"."""
    if len(bits) != 2 or any(b not in "01" for b in bits):
        raise ValueError(f"expected a two-bit string like '01', got {bits!r}")
    psi = np.zeros(4, dtype=np.complex128)
    psi[int(bits, 2)] = 1.0
    return psi


def singlet_state() -> np.ndarray:
    """The target entangled state (|10> - |01>)/sqrt(2)."""
    return (ket("10") - ket("01")) / np.sqrt(2.0)


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, no longer writeable: a module constant that every caller shares."""
    a.flags.writeable = False
    return a


# The Bell task, (start, target): from |00> to the singlet.  The design
# model, the emulated lab and the CLI all read this one pair.
BELL_TASK = (_read_only(ket("00")), _read_only(singlet_state()))


def _as_square(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise ValueError(f"{name} must be a nonempty square matrix, got shape {a.shape}")
    return a


def require_hermitian(h: np.ndarray) -> np.ndarray:
    h = _as_square(h, "operator")
    with np.errstate(invalid="ignore", over="ignore"):
        dev = np.max(np.abs(h - h.conj().T))
    if not dev <= HERMITIAN_TOL:
        raise ValueError(f"operator is not Hermitian: max |H - H^dag| = {dev:.3e}")
    return h


def require_unitary(u: np.ndarray) -> np.ndarray:
    u = _as_square(u, "operator")
    with np.errstate(invalid="ignore", over="ignore"):
        dev = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if not dev <= UNITARY_TOL:
        raise ValueError(f"operator is not unitary: max |U^dag U - 1| = {dev:.3e}")
    return u


def require_state(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.ndim != 1:
        raise ValueError(f"state must be a vector, got shape {psi.shape}")
    dev = abs(np.linalg.norm(psi) - 1.0)
    if not dev <= STATE_NORM_TOL:
        raise ValueError(f"state is not normalized: |norm - 1| = {dev:.3e}")
    return psi


def trace_deviations(stack: np.ndarray) -> np.ndarray:
    """|Re tr(rho) - 1| of each matrix of a (B, n, n) stack, as ``require_density`` checks it."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.abs(np.trace(stack, axis1=-2, axis2=-1).real - 1.0)


def require_density(rho: np.ndarray) -> np.ndarray:
    """Check trace one, Hermiticity and eigenvalues >= -DENSITY_TOL.

    ``rho`` is one square matrix or a stack of them, shape (..., n, n).
    Each matrix is held to exactly the checks it would meet on its own;
    the error names the first bad one by its stack index.  Eigenvalues,
    by ``eigvalsh``, are looked at only for matrices that pass the
    Hermiticity and trace checks, so a non-finite matrix fails those
    instead of reaching the eigensolver.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2] or not rho.shape[-1]:
        raise ValueError(f"density matrix must be nonempty and square, got shape {rho.shape}")
    stack = rho.reshape((-1,) + rho.shape[-2:])
    with np.errstate(invalid="ignore", over="ignore"):
        herm_dev = np.max(np.abs(stack - stack.conj().swapaxes(-1, -2)), axis=(-2, -1))
    tr_dev = trace_deviations(stack)
    shaped = (herm_dev <= DENSITY_TOL) & (tr_dev <= DENSITY_TOL)
    lo = np.zeros(len(stack))
    lo[shaped] = np.linalg.eigvalsh(stack[shaped]).min(axis=-1)
    bad = ~shaped | ~(lo >= -DENSITY_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        name = "density matrix"
        if rho.ndim > 2:
            name += f" {list(map(int, np.unravel_index(i, rho.shape[:-2])))}"
        if not herm_dev[i] <= DENSITY_TOL:
            raise ValueError(f"{name} is not Hermitian: max |H - H^dag| = {herm_dev[i]:.3e}")
        if not tr_dev[i] <= DENSITY_TOL:
            raise ValueError(f"{name} trace deviates from 1 by {tr_dev[i]:.3e}")
        raise ValueError(f"{name} has negative eigenvalue {lo[i]:.3e}")
    return rho

