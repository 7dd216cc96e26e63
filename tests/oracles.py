"""Reference routines that only the tests use.

Each is an independent route to a quantity the package computes another
way: a matrix exponential by eigendecomposition, pure-state overlaps,
expectation values, and the best tensor-product approximation of a
two-spin operator.  They validate their inputs with the package's own
checks, so garbage fails loudly here too.
"""

import numpy as np

from belltime.linalg import require_density, require_hermitian, require_state


def expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H, via eigendecomposition.

    Exact up to the eigensolver, so it is safe for any t (no step-size
    or truncation assumptions).
    """
    h = require_hermitian(h)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def state_fidelity(psi: np.ndarray, phi: np.ndarray) -> float:
    """|<psi|phi>|^2 for normalized pure states."""
    psi = require_state(psi)
    phi = require_state(phi)
    return float(abs(np.vdot(psi, phi)) ** 2)


def expectation(rho: np.ndarray, observable: np.ndarray) -> float:
    """Tr(rho O) for a valid density matrix and Hermitian observable."""
    rho = require_density(rho)
    observable = require_hermitian(observable)
    return float(np.trace(rho @ observable).real)


def nearest_local_product(u: np.ndarray):
    """Best tensor-product approximation A (x) B of a 4x4 matrix.

    Returns (A, B, residual) where residual is the max-abs deviation of
    A (x) B from u.  For an exactly local unitary the residual is at
    numerical noise level.
    """
    u = np.asarray(u, dtype=np.complex128)
    r = u.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    uu, ss, vv = np.linalg.svd(r)
    a = (uu[:, 0] * np.sqrt(ss[0])).reshape(2, 2)
    b = (vv[0, :] * np.sqrt(ss[0])).reshape(2, 2)
    return a, b, float(np.max(np.abs(np.kron(a, b) - u)))
