"""Unitary dilations of the symmetric measurement families.

An n-outcome qubit measurement with vectors psi_j embeds into a unitary
matrix U of size r = 2^ceil(log2 n): column b of U starts with the vector
assigned to basis state b, and the remaining columns start with zeros.
Measuring the computational basis after applying the adjoint of U to the
state (padded with zeros into the larger register) then reproduces the
measurement statistics, with the zero-started columns never firing.

``structured_dilation`` builds U as a short product of permutations,
couplings and Fourier blocks specific to each family; ``generic_completion``
fills in the rows below the vector rows with an orthonormal basis of their
complement, which works for any complete set of vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError,
    NotIsometryError,
    RegisterTooSmallError,
)
from .families import (
    CUBE,
    CYCLIC,
    DIHEDRAL,
    DODECAHEDRON,
    ICOSAHEDRON,
    OCTAHEDRON,
    TETRAHEDRON,
    PlatonicConstants,
    Povm,
    platonic_constants,
)
from .linalg import (
    CNOT_MATRIX,
    direct_sum,
    embed_on_qubits,
    fourier_matrix,
    matrix_to_pairs,
    unitarity_residual as _unitarity_residual,
)

# Rows the isometry must reproduce; anything below is completion freedom.
_SEED_ROWS = 2

# Largest dilated register.  Verification builds several dense r x r
# complex matrices (the dilation, the compiled circuit, their residuals);
# at 12 qubits each one takes 256 MB, and every further qubit quadruples it.
MAX_QUBITS = 12


def register_size(n_outcomes: int) -> int:
    """Smallest power of two that can hold ``n_outcomes`` basis states.

    Raises InvalidParameterError above ``2**MAX_QUBITS`` outcomes, before
    anything register-sized is allocated.
    """
    if n_outcomes < 2:
        raise InvalidParameterError("a measurement needs at least two outcomes")
    if n_outcomes > 1 << MAX_QUBITS:
        raise InvalidParameterError(
            f"{n_outcomes} outcomes need more than the {MAX_QUBITS}-qubit register cap"
        )
    return 1 << (n_outcomes - 1).bit_length()


def qubit_count(n_outcomes: int) -> int:
    """Number of qubits in the dilated register."""
    return register_size(n_outcomes).bit_length() - 1


def padded_measurement_matrix(povm: Povm, size: int | None = None) -> np.ndarray:
    """2 x r matrix whose first n columns are the measurement vectors."""
    r = register_size(povm.n) if size is None else int(size)
    if r < povm.n:
        raise RegisterTooSmallError(
            f"register of size {r} cannot hold {povm.n} outcomes"
        )
    top = np.zeros((2, r), dtype=complex)
    top[:, : povm.n] = povm.vectors.T
    return top


@dataclass
class DilatedMeasurement:
    """A unitary dilation together with its outcome bookkeeping.

    ``outcome_map`` sends a computational basis index of the dilated
    register to the measurement outcome it realizes; basis indices absent
    from the map are padding and carry no probability.
    """

    povm: Povm
    matrix: np.ndarray
    outcome_map: dict[int, int]
    method: str

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=complex)
        r = matrix.shape[0]
        if matrix.shape != (r, r) or r & (r - 1):
            raise InvalidParameterError("dilation must be square with power-of-two size")
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1

    @property
    def padding_indices(self) -> tuple[int, ...]:
        return tuple(b for b in range(self.dim) if b not in self.outcome_map)

    @property
    def outcome_positions(self) -> list[int]:
        """Basis index realizing each outcome, in outcome order."""
        inverse = {outcome: b for b, outcome in self.outcome_map.items()}
        return [inverse[j] for j in range(self.povm.n)]

    def unitarity_residual(self) -> float:
        return _unitarity_residual(self.matrix)

    def embedding_residual(self) -> float:
        """Largest deviation of the vector rows from the measurement."""
        head = self.matrix[:_SEED_ROWS].copy()
        head[:, self.outcome_positions] -= self.povm.vectors.T
        return float(np.abs(head).max())

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "dim": self.dim,
            "n_qubits": self.n_qubits,
            "outcome_map": [[b, o] for b, o in sorted(self.outcome_map.items())],
            "padding_indices": list(self.padding_indices),
            "matrix": matrix_to_pairs(self.matrix),
        }


def reflection(a: float, b: float) -> np.ndarray:
    """The unitary [[a, b], [b, -a]] for a^2 + b^2 = 1."""
    return np.array([[a, b], [b, -a]], dtype=complex)


def orbit_mixer(kind: str) -> np.ndarray:
    """Unitary that mixes the orbits of a platonic family.

    2x2 for the two-orbit solids, 4x4 for the four-orbit ones.
    """
    c: PlatonicConstants = platonic_constants(kind)
    if kind in (TETRAHEDRON, CUBE, OCTAHEDRON):
        return reflection(c.alpha, c.beta)
    a, b, g, d = c.alpha, c.beta, c.gamma, c.delta
    return np.array(
        [
            [a, b, g, d],
            [b, -a, d, -g],
            [g, -d, -a, b],
            [d, g, -b, -a],
        ],
        dtype=complex,
    ) / np.sqrt(2)


def dihedral_coupling(alpha: float, beta: complex, r: int) -> np.ndarray:
    """Unitary coupling the two halves of the dihedral register.

    Pairs basis state j with j + r/2; the sign pattern alternates with the
    parity of j so that each pair carries a valid 2x2 unitary block.
    """
    half = r // 2
    t = np.zeros((r, r), dtype=complex)
    beta = complex(beta)
    for j in range(half):
        t[j, j] = alpha
        if j % 2 == 0:
            t[j, half + j] = beta
            t[half + j, j] = beta.conjugate()
            t[half + j, half + j] = -alpha
        else:
            t[j, half + j] = -beta.conjugate()
            t[half + j, j] = beta
            t[half + j, half + j] = alpha
    return t


def _half_swap(control: int, target: int, n_qubits: int) -> np.ndarray:
    """Permutation flipping the target qubit when the control is set."""
    return embed_on_qubits(CNOT_MATRIX, [control, target], n_qubits)


def structured_dilation(povm: Povm) -> DilatedMeasurement:
    """Dilation built from the closed-form factorization of the family."""
    kind = povm.family.kind
    n = povm.n
    r = register_size(n)
    l = qubit_count(n)

    if kind == CYCLIC:
        matrix = direct_sum(fourier_matrix(n), np.eye(r - n))
        outcome_map = {j: j for j in range(n)}
    elif kind == DIHEDRAL:
        m = povm.family.m
        half = r // 2
        fourier = direct_sum(fourier_matrix(m), np.eye(half - m))
        coupling = dihedral_coupling(povm.family.alpha, povm.family.beta, r)
        matrix = _half_swap(l - 1, 0, l) @ coupling @ np.kron(np.eye(2), fourier)
        outcome_map = {j: j for j in range(m)}
        outcome_map.update({half + j: m + j for j in range(m)})
    elif kind == TETRAHEDRON:
        phase = np.diag([1, 1, 1, -1j])
        matrix = (
            _half_swap(1, 0, 2)
            @ np.kron(orbit_mixer(kind), np.eye(2))
            @ phase
            @ np.kron(np.eye(2), fourier_matrix(2))
        )
        outcome_map = {j: j for j in range(4)}
    elif kind == CUBE:
        matrix = _half_swap(2, 0, 3) @ np.kron(
            orbit_mixer(kind), fourier_matrix(4).conj()
        )
        outcome_map = {j: j for j in range(8)}
    elif kind == OCTAHEDRON:
        fourier = direct_sum(fourier_matrix(3), np.eye(1))
        matrix = _half_swap(2, 0, 3) @ np.kron(orbit_mixer(kind), fourier)
        outcome_map = {j: j for j in range(3)}
        outcome_map.update({4 + j: 3 + j for j in range(3)})
    elif kind in (DODECAHEDRON, ICOSAHEDRON):
        m = 5 if kind == DODECAHEDRON else 3
        block = direct_sum(fourier_matrix(m), np.eye(r // 4 - m))
        matrix = _half_swap(l - 1, 1, l) @ np.kron(orbit_mixer(kind), block)
        outcome_map = {}
        for u in range(4):
            outcome_map.update({(r // 4) * u + j: m * u + j for j in range(m)})
    else:
        raise InvalidParameterError(f"no structured dilation for kind {kind!r}")

    return DilatedMeasurement(
        povm=povm, matrix=matrix, outcome_map=outcome_map, method="structured"
    )


def generic_completion(povm: Povm) -> DilatedMeasurement:
    """Dilation for arbitrary complete vectors, via a QR completion.

    The two vector rows are orthonormal exactly when the vectors resolve
    the identity; the remaining rows are the last r - 2 columns of the
    complete QR factor of their adjoint, an orthonormal basis of the
    complement.  The vector rows themselves are kept as given.
    """
    top = padded_measurement_matrix(povm)
    gram = top @ top.conj().T
    if not np.abs(gram - np.eye(2)).max() <= 1e-8:
        raise NotIsometryError("vectors do not resolve the identity")

    q, _ = np.linalg.qr(top.conj().T, mode="complete")
    matrix = q.conj().T
    matrix[:_SEED_ROWS] = top

    return DilatedMeasurement(
        povm=povm,
        matrix=matrix,
        outcome_map={j: j for j in range(povm.n)},
        method="generic",
    )
