"""Dense reference matrices that only the tests need."""

import numpy as np

from povmkit.dilation import _dihedral_factor
from povmkit.linalg import apply_gates


def gate_unitary(gate, n_qubits: int) -> np.ndarray:
    """Full register unitary of one gate."""
    return apply_gates([(gate.matrix, gate.wires)], np.eye(2**n_qubits, dtype=complex))


def dihedral_coupling(alpha: float, beta: complex, r: int) -> np.ndarray:
    """Unitary coupling the two halves of the dihedral register.

    Pairs basis state j with j + r/2; the sign pattern alternates with the
    parity of j so that each pair carries a valid 2x2 unitary block.
    """
    matrix, qubits, _ = _dihedral_factor(alpha, beta, r.bit_length() - 1)
    return apply_gates([(matrix, qubits)], np.eye(r, dtype=complex))


def one_shot_fourier(m: int) -> np.ndarray:
    """The Fourier matrix by the one-shot formula, each step over all m x m."""
    f = -2j * np.pi * np.outer(np.arange(m), np.arange(m))
    f /= m
    np.exp(f, out=f)
    f /= np.sqrt(m)
    return f
