"""Dense reference matrices that only the tests need."""

import warnings

import numpy as np

from povmkit.dilation import _dihedral_factor
from povmkit.errors import InvalidDimensionError, PhaseUndefinedWarning
from povmkit.linalg import CNOT_MATRIX, apply_gates


def gate_unitary(gate, n_qubits: int) -> np.ndarray:
    """Full register unitary of one gate."""
    return apply_gates([(gate.matrix, gate.wires)], np.eye(2**n_qubits, dtype=complex))


def dihedral_coupling(alpha: float, beta: complex, r: int) -> np.ndarray:
    """Unitary coupling the two halves of the dihedral register.

    Pairs basis state j with j + r/2; the sign pattern alternates with the
    parity of j so that each pair carries a valid 2x2 unitary block.  The
    dilation's dihedral factor is this coupling followed by the half swap,
    a cnot on the same qubits, which a second cnot undoes.
    """
    matrix, qubits, _ = _dihedral_factor(alpha, beta, r.bit_length() - 1)
    return apply_gates([(matrix, qubits), (CNOT_MATRIX, qubits)], np.eye(r, dtype=complex))


def one_shot_fourier(m: int) -> np.ndarray:
    """The Fourier matrix by the one-shot formula, each step over all m x m."""
    f = -2j * np.pi * np.outer(np.arange(m), np.arange(m))
    f /= m
    np.exp(f, out=f)
    f /= np.sqrt(m)
    return f


def old_distance_up_to_global_phase(a: np.ndarray, b: np.ndarray) -> float:
    """``linalg.distance_up_to_global_phase`` as it was before it settled the
    phase test by Frobenius norms: the reference it must equal."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2:
        raise InvalidDimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    t = np.vdot(b, a)
    scale = max(1.0, float(np.abs(a).max()) * float(np.abs(b).max()) * a.shape[0])
    if abs(t) < 1e-15 * scale:
        warnings.warn(
            "global phase undefined (tr(b^dag a) = 0); returning unaligned distance",
            PhaseUndefinedWarning,
            stacklevel=2,
        )
        return float(np.abs(a - b).max())
    return float(np.abs(a - (t / abs(t)) * b).max())
