"""Dense reference matrices that only the tests need."""

import warnings
from typing import NamedTuple

import numpy as np

from povmkit import simulate
from povmkit.dilation import _dihedral_factor
from povmkit.errors import InvalidDimensionError, PhaseUndefinedWarning
from povmkit.linalg import CNOT_MATRIX, apply_gates, direct_sum


class RawGate(NamedTuple):
    """Any matrix on ``wires``, unchecked, which no gate kind holds: a dense
    unitary on a run of qubits, or one with a NaN entry.  A circuit runs it
    as ``apply_gates`` runs the pair (operator, wires)."""

    wires: tuple
    matrix: np.ndarray

    @property
    def operator(self):
        return self.matrix


def clear_kept_structures() -> None:
    """Empty ``verify_family``'s record of checked structures, the package's
    one cache, so that its next call builds and checks every factor, gate,
    dilation and circuit again."""
    simulate._structure.cache_clear()


def einsum_born(vectors: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """<v_j| rho |v_j> for each row of ``vectors``, by the three-operand
    einsum that ``simulate._born`` replaced: the reference it must match."""
    return np.einsum("ni,...ij,nj->...n", vectors.conj(), rho, vectors).real


def gate_matrix(gate) -> np.ndarray:
    """A gate's dense local matrix.  A fourier gate holds none: its F' =
    F_m (+) I from ``one_shot_fourier``, or conj(F') when ``inverse``."""
    if gate.matrix is not None:
        return gate.matrix
    f = direct_sum(one_shot_fourier(gate.m), np.eye(2 ** len(gate.wires) - gate.m))
    return f.conj() if gate.inverse else f


def gate_unitary(gate, n_qubits: int) -> np.ndarray:
    """Full register unitary of one gate."""
    return apply_gates([(gate_matrix(gate), gate.wires)], np.eye(2**n_qubits, dtype=complex))


def dihedral_coupling(alpha: float, beta: complex, r: int) -> np.ndarray:
    """Unitary coupling the two halves of the dihedral register.

    Pairs basis state j with j + r/2; the sign pattern alternates with the
    parity of j so that each pair carries a valid 2x2 unitary block.  The
    dilation's dihedral factor is this coupling followed by the half swap,
    a cnot on the same qubits, which a second cnot undoes.
    """
    matrix, qubits, _ = _dihedral_factor(alpha, complex(beta), r.bit_length() - 1)
    return apply_gates([(matrix, qubits), (CNOT_MATRIX, qubits)], np.eye(r, dtype=complex))


def closest_pair_distance(points: np.ndarray) -> float:
    """Smallest Euclidean distance between two rows, over all pairs: the
    O(n^2) reference for ``families._ring_separation``."""
    gaps = np.linalg.norm(points[:, None] - points[None], axis=2)
    np.fill_diagonal(gaps, np.inf)
    return float(gaps.min())


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


def contract(u: np.ndarray, targets: list, state: np.ndarray, spare: np.ndarray):
    """The reference gate kernel: one k-qubit matrix on any k distinct
    qubits, in any order; returns (result, free buffer).

    ``linalg.apply_gates`` takes a dense matrix only on an ascending run of
    qubits and splits block-diagonal 4x4s and the swap; this general
    contraction was its kernel before that.  The register axis of the
    C-ordered (r, c) ``state`` is split into (gap, run) pairs, one per run
    of adjacent target qubits, then the rest of the register times the
    columns.  Gathering the runs into one axis of size 2^k lets a broadcast
    matmul contract them with ``u``.  A gate on a single run of qubits
    needs no gather; otherwise ``spare`` holds the gathered copy and
    ``state`` the product, and the scatter back lands in ``spare``.  Both
    buffers are overwritten.
    """
    r, c = state.shape
    n_qubits = r.bit_length() - 1
    k = len(targets)
    order = sorted(range(k), key=targets.__getitem__)
    if order != list(range(k)):
        # relabel u's index bits so that its targets read in ascending order
        perm = order + [k + i for i in order]
        u = u.reshape((2,) * (2 * k)).transpose(perm).reshape(2**k, 2**k)
    ascending = sorted(targets)
    shape: list[int] = []
    prev = 0
    for i, q in enumerate(ascending):
        if i and q == ascending[i - 1] + 1:
            shape[-1] *= 2
        else:
            shape += [2 ** (q - prev), 2]
        prev = q + 1
    shape.append(2 ** (n_qubits - prev) * c)
    runs = len(shape) // 2
    gaps, sizes = shape[0 : 2 * runs : 2], shape[1 : 2 * runs : 2]
    stacked = gaps + [2**k, shape[-1]]
    if runs == 1:
        np.matmul(u, state.reshape(stacked), out=spare.reshape(stacked))
        return spare, state
    axes = list(range(0, 2 * runs, 2)) + list(range(1, 2 * runs, 2)) + [2 * runs]
    split = gaps + sizes + [shape[-1]]
    np.copyto(spare.reshape(split), state.reshape(shape).transpose(axes))
    np.matmul(u, spare.reshape(stacked), out=state.reshape(stacked))
    np.copyto(spare.reshape(shape).transpose(axes), state.reshape(split))
    return spare, state
