"""Conversions between qubit states, measurement vectors, and Bloch points.

A Bloch point is the real triple (tr(sigma_x rho), tr(sigma_y rho),
tr(sigma_z rho)); pure states sit on the unit sphere, mixed states strictly
inside.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidStateError, OutsideBallError, ZeroOperatorError

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Hermiticity, trace and eigenvalue slack of a density matrix.
STATE_TOL = 1e-10


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check that rho is a qubit density matrix; returns it as complex128.

    Requires a finite 2x2 matrix, Hermitian and of unit trace to within
    STATE_TOL, with no eigenvalue below -STATE_TOL.  A (..., 2, 2) stack is
    checked as a whole: every matrix in it must pass, and the first that
    fails names the error.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        raise InvalidStateError(f"density matrix must be 2x2, got {rho.shape}")
    if not np.isfinite(rho).all():
        raise InvalidStateError("density matrix has a non-finite entry")
    if np.abs(rho - rho.conj().swapaxes(-1, -2)).max(initial=0.0) > STATE_TOL:
        raise InvalidStateError("density matrix is not Hermitian")
    trace = np.trace(rho, axis1=-2, axis2=-1).ravel()
    off = np.abs(trace - 1.0) > STATE_TOL
    if off.any():
        raise InvalidStateError(f"trace is {trace[off][0].real}, expected 1")
    if np.linalg.eigvalsh(rho).min(initial=0.0) < -STATE_TOL:
        raise InvalidStateError("density matrix has a negative eigenvalue")
    return rho


def state_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch coordinates (x, y, z) of a density matrix, or (..., 3) of a stack."""
    rho = validate_density_matrix(rho)
    return np.stack(
        [np.trace(p @ rho, axis1=-2, axis2=-1).real for p in (PAULI_X, PAULI_Y, PAULI_Z)],
        axis=-1,
    )


def bloch_to_state(point) -> np.ndarray:
    """Density matrix with the given Bloch coordinates."""
    p = np.asarray(point, dtype=float)
    if p.shape != (3,):
        raise InvalidStateError(f"Bloch point must have 3 coordinates, got {p.shape}")
    if not np.isfinite(p).all():
        raise InvalidStateError(
            f"Bloch point {tuple(p.tolist())} has a non-finite coordinate"
        )
    # scaled down by a power of two, which is exact, so that the norm of a
    # large point does not overflow; a norm past the float range reads inf
    shift = max(math.frexp(np.abs(p).max())[1], 0)
    with np.errstate(over="ignore"):
        norm = np.ldexp(np.linalg.norm(np.ldexp(p, -shift)), shift)
    if norm > 1.0 + 1e-12:
        raise OutsideBallError(f"|{tuple(p.tolist())}| = {norm:.6f} > 1")
    x, y, z = p
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])


def povm_element_to_bloch(psi) -> np.ndarray:
    """Bloch point of a rank-one element's vector, ignoring its norm."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2,):
        raise InvalidStateError(f"measurement vector must have 2 entries, got {psi.shape}")
    norm_sq = np.vdot(psi, psi).real
    if norm_sq < 1e-24:
        raise ZeroOperatorError("measurement vector is numerically zero")
    return state_to_bloch(np.outer(psi, psi.conj()) / norm_sq)
