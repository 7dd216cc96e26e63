"""Two-qubit interaction content and coupling-limited minimum times.

Any 4x4 unitary U factors as

    U = V . exp(-i (a_x XX + a_y YY + a_z ZZ)) . W

with V and W single-spin (tensor-product) unitaries.  The interaction
coordinates (a_x, a_y, a_z) are computed spectrally: conjugating into the
magic (Bell) basis turns single-spin unitaries into real orthogonal
matrices, so the eigenphases of transpose(M) M with M the magic-basis
image of U depend only on the coordinates.  The local factors fall out of
the associated real eigenbasis.  Coordinates are reported canonically in
the chamber pi/4 >= a_x >= a_y >= |a_z| (a_z >= 0 when a_x is at the
pi/4 boundary), and every canonicalization move carries an explicit
compensation so the factorization stays exact.

Under a drift Hamiltonian (pi/2) g ZZ with unlimited local controls, the
interaction coordinates are the only time cost: each unit of |a_j| needs
|a_j| / ((pi/2) g) seconds of coupling evolution.  That gives the
minimum preparation time 1/(2 g) for the maximally entangled target
(coordinates (pi/4, 0, 0)).  Shorter durations cap the singlet fidelity
reachable from |00> at (1 + sin(pi g T))/2 (``fidelity_ceiling``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import as_positive, as_real
from .linalg import pauli_string, require_unitary

_XX = pauli_string("X", "X")
_YY = pauli_string("Y", "Y")
_ZZ = pauli_string("Z", "Z")

# Magic basis: columns are Bell-like states; conjugation maps
# tensor products of 2x2 unitaries to real orthogonal matrices.
_MAGIC = np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=np.complex128,
) / np.sqrt(2.0)

# Diagonal of XX, YY, ZZ in the magic basis (each is diagonal there).
_PATTERN = {
    "x": np.array([1.0, 1.0, -1.0, -1.0]),
    "y": np.array([-1.0, 1.0, -1.0, 1.0]),
    "z": np.array([1.0, -1.0, -1.0, 1.0]),
}

_BOUNDARY_TOL = 1e-10
RESIDUAL_TOL = 1e-8  # max-abs reconstruction error a factorization must reach


class DegeneracyError(ValueError):
    """Raised when no factorization reaches the residual tolerance."""


@dataclass(frozen=True)
class CartanCoordinates:
    a_x: float
    a_y: float
    a_z: float

    def __post_init__(self):
        object.__setattr__(self, "a_x", float(self.a_x))
        object.__setattr__(self, "a_y", float(self.a_y))
        object.__setattr__(self, "a_z", float(self.a_z))

    def as_array(self) -> np.ndarray:
        return np.array([self.a_x, self.a_y, self.a_z])


@dataclass(frozen=True)
class KakFactorization:
    left_local: np.ndarray  # applied after the interaction
    coordinates: CartanCoordinates
    right_local: np.ndarray  # applied before the interaction


def interaction_core(coords) -> np.ndarray:
    """exp(-i (a_x XX + a_y YY + a_z ZZ)) for coordinates or a 3-array."""
    a = coords.as_array() if isinstance(coords, CartanCoordinates) else np.asarray(coords)
    h = a[0] * _XX + a[1] * _YY + a[2] * _ZZ
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def _su4(u: np.ndarray) -> np.ndarray:
    det = np.linalg.det(u)
    return u * np.exp(-1j * np.angle(det) / 4.0)


def _joint_real_eigenbasis(m: np.ndarray):
    """Real orthogonal P and unit phases d with m = P diag(d) P^T.

    m must be (numerically) symmetric unitary, so its real and imaginary
    parts are commuting real symmetric matrices; a single eigh of a fixed
    irrational combination separates every eigenvector that needs
    separating, and genuine degeneracies leave a free real rotation that
    is harmless.
    """
    x = 0.5 * (m.real + m.real.T)
    y = 0.5 * (m.imag + m.imag.T)
    for mu in (0.7548776662466927, 1.3247179572447458, 0.3819660112501051):
        _, p = np.linalg.eigh(x + mu * y)
        d = np.einsum("ji,jk,ki->i", p, m, p)
        if np.max(np.abs(p @ np.diag(d) @ p.T - m)) < 1e-9:
            d = d / np.abs(d)
            return d, p
    raise DegeneracyError("could not jointly diagonalize the magic-basis form")


def _raw_factorization(u: np.ndarray):
    """Exact (non-canonical) coordinates and local factors of U in SU(4)."""
    u_su = _su4(u)
    mm = _MAGIC.conj().T @ u_su @ _MAGIC
    gram = mm.T @ mm
    gram = 0.5 * (gram + gram.T)
    d, p = _joint_real_eigenbasis(gram)
    if np.linalg.det(p) < 0:
        p = p.copy()
        p[:, 0] = -p[:, 0]
    theta = -0.5 * np.angle(d)
    # det of the left orthogonal factor must be +1; flipping one branch
    # theta_k -> theta_k + pi leaves diag(d) unchanged and fixes the sign.
    if np.cos(theta.sum()) < 0.0:
        theta = theta.copy()
        theta[0] += np.pi
    d_half = np.exp(-1j * theta)
    # real in exact arithmetic; an imaginary part large enough to matter
    # moves the reconstruction past RESIDUAL_TOL, which kak_factorize checks
    o_left = (mm @ p @ np.diag(1.0 / d_half)).real

    a = np.array(
        [
            float(theta @ _PATTERN["x"]) / 4.0,
            float(theta @ _PATTERN["y"]) / 4.0,
            float(theta @ _PATTERN["z"]) / 4.0,
        ]
    )
    phase0 = theta.sum() / 4.0  # global phase of the core, absorbed left
    left = _MAGIC @ o_left @ _MAGIC.conj().T * np.exp(-1j * phase0)
    right = _MAGIC @ p.T @ _MAGIC.conj().T
    return a, left, right


def _canonicalize(a, left, right):
    """Move coordinates into the Weyl chamber, compensating the locals.

    Moves used: shift a_j by pi/2 (absorbed as -i sigma_j sigma_j into the
    right factor), swap two coordinates, and negate a pair of coordinates
    (conjugation by local Paulis, split between both factors).
    """
    a = np.array(a, dtype=float)
    sig = ("X", "Y", "Z")

    def shift(j, s):
        # a_j += s*pi/2; core_old = core_new (-i sig sig)^(-s).
        a[j] += s * (np.pi / 2.0)
        comp = np.linalg.matrix_power(-1j * pauli_string(sig[j], sig[j]), -s % 4)
        return comp

    def swap_local(j, k):
        one = (pauli_string(sig[j], "I") + pauli_string(sig[k], "I")) / np.sqrt(2.0)
        two = (pauli_string("I", sig[j]) + pauli_string("I", sig[k])) / np.sqrt(2.0)
        return one @ two

    for j in range(3):
        k = int(np.floor((a[j] + np.pi / 4.0) / (np.pi / 2.0)))
        if k != 0:
            right = shift(j, -k) @ right
        if a[j] < -np.pi / 4.0 + 1e-12:
            right = shift(j, 1) @ right

    for j in (0, 1, 0):  # bubble passes sorting |a| descending
        k = j + 1
        if abs(a[j]) < abs(a[k]):
            l = swap_local(j, k)
            a[[j, k]] = a[[k, j]]
            left = left @ l
            right = l @ right

    def negate_pair(j, k):
        other = 3 - j - k
        g = pauli_string(sig[other], "I")
        a[j] = -a[j]
        a[k] = -a[k]
        return g

    if a[0] < 0:
        g = negate_pair(0, 2)
        left = left @ g
        right = g @ right
    if a[1] < 0:
        g = negate_pair(1, 2)
        left = left @ g
        right = g @ right

    if a[0] > np.pi / 4.0 - _BOUNDARY_TOL and a[2] < 0:
        g = negate_pair(0, 2)
        left = left @ g
        right = g @ right
        right = shift(0, 1) @ right

    return a, left, right


def _align_phase(candidate: np.ndarray, reference: np.ndarray) -> np.ndarray:
    z = np.trace(candidate.conj().T @ reference)
    if abs(z) < 1e-9:
        return candidate
    return candidate * (z / abs(z))


def _reconstruction_residual(u, left, a, right) -> float:
    recon = left @ interaction_core(a) @ right
    return float(np.max(np.abs(_align_phase(recon, u) - u)))


def _random_su2(rng) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def kak_factorize(u: np.ndarray) -> KakFactorization:
    """Factor U as left_local . interaction_core . right_local.

    The factorization is exact up to a global phase with canonical
    chamber coordinates.  If the direct spectral route fails (pathological
    degeneracy), seeded random local dressings are tried; if no attempt
    reaches ``RESIDUAL_TOL`` a DegeneracyError naming the best residual is
    raised, naming and chained to the last attempt's own DegeneracyError
    when one was raised.
    """
    u = require_unitary(np.asarray(u, dtype=np.complex128))
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4x4 unitary, got shape {u.shape}")

    best, failure = np.inf, None
    for attempt in range(4):
        if attempt == 0:
            dress_l = dress_r = np.eye(4, dtype=np.complex128)
        else:
            rng = np.random.default_rng(97531 + attempt)
            dress_l = np.kron(_random_su2(rng), _random_su2(rng))
            dress_r = np.kron(_random_su2(rng), _random_su2(rng))
        try:
            a, left, right = _raw_factorization(dress_l @ u @ dress_r)
        except DegeneracyError as exc:
            failure = exc
            continue
        a, left, right = _canonicalize(a, left, right)
        left = dress_l.conj().T @ left
        right = right @ dress_r.conj().T
        res = _reconstruction_residual(u, left, a, right)
        best = min(best, res)
        if res <= RESIDUAL_TOL:
            return KakFactorization(
                left_local=left,
                coordinates=CartanCoordinates(*a),
                right_local=right,
            )
    cause = "" if failure is None else f"; last attempt: {failure}"
    raise DegeneracyError(f"no factorization reached residual {RESIDUAL_TOL:.1e} "
                          f"(best {best:.3e}){cause}") from failure


def cartan_coordinates(u: np.ndarray) -> CartanCoordinates:
    """Canonical interaction coordinates (a_x, a_y, a_z) of a 4x4 unitary."""
    return kak_factorize(u).coordinates


def minimum_time_unitary(u: np.ndarray, g_hz: float) -> float:
    """Coupling-limited minimum time, in seconds, to realize U.

    Equals (|a_x| + |a_y| + |a_z|) / ((pi/2) g): local rotations are free
    and the ZZ drift produces interaction phase at rate (pi/2) g.
    """
    g_hz = as_positive(g_hz, "g_hz")
    a = cartan_coordinates(u).as_array()
    return float(np.sum(np.abs(a)) / ((np.pi / 2.0) * g_hz))


def minimum_time_bell(g_hz: float) -> float:
    """Minimum seconds to reach a maximally entangled state: 1/(2 g)."""
    return 1.0 / (2.0 * as_positive(g_hz, "g_hz"))


def fidelity_ceiling(g_hz: float, duration_s: float) -> float:
    """Highest singlet fidelity reachable from |00> in ``duration_s`` seconds.

    The coupling speed limit (1 + sin(pi g T))/2 for T <= 1/(2 g), and 1
    beyond (Khaneja, Brockett & Glaser, PRA 63, 032308 (2001)).
    """
    g_hz, duration_s = as_positive(g_hz, "g_hz"), as_real(duration_s, "duration_s")
    if not duration_s >= 0:
        raise ValueError(f"duration_s must be >= 0, got {duration_s}")
    if duration_s >= minimum_time_bell(g_hz):
        return 1.0
    return 0.5 * (1.0 + math.sin(math.pi * g_hz * duration_s))


def minimum_time_for_fidelity(g_hz: float, fidelity: float) -> float:
    """Shortest duration whose ``fidelity_ceiling`` reaches ``fidelity``.

    arcsin(2F - 1)/(pi g) for F in [1/2, 1]; 0 below 1/2, which local
    rotations of |00> reach without the coupling.
    """
    g_hz, fidelity = as_positive(g_hz, "g_hz"), as_real(fidelity, "fidelity")
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError(f"fidelity must lie in [0, 1], got {fidelity}")
    return max(0.0, math.asin(2.0 * fidelity - 1.0) / (math.pi * g_hz))
