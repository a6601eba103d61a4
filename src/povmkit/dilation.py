"""Unitary dilations of the symmetric measurement families.

An n-outcome qubit measurement with vectors psi_j embeds into a unitary
matrix U of size r = 2^ceil(log2 n): column b of U starts with the vector
assigned to basis state b, and the remaining columns start with zeros.
Measuring the computational basis after applying the adjoint of U to the
state (padded with zeros into the larger register) then reproduces the
measurement statistics, with the zero-started columns never firing.

``structured_dilation`` follows one recipe for every family: the outcomes
form 2^t rings of m, the shape ``PovmFamily.orbits`` states, and U applies
the Fourier transform F_m, padded with an identity, on the low l - t
qubits of its l, then the family's orbit mixer, then for t > 0 the half
swap CNOT(l - 1 -> t - 1).  ``_FACTOR_TABLE`` holds what differs between
families from the mixer on, half swap included.
``structured_dilation`` applies those factors in turn, and
``structured_circuit`` joins their gate lists, last first, without U.  Each
call builds the factors, their kernels and gates, afresh; what
``simulate.verify_family`` checks of a family is kept there, once.
``generic_completion`` fills in the rows below the vector rows with an
orthonormal basis of their complement, which works for any complete set
of vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import (
    Circuit,
    CnotGate,
    ControlledGate,
    FourierGate,
    SingleQubitGate,
    inverse_circuit,
    orbit_mixer_adjoint_circuit,
    qft_circuit,
)
from .errors import InvalidParameterError, NotIsometryError
from .families import (
    CUBE,
    CYCLIC,
    DIHEDRAL,
    DODECAHEDRON,
    ICOSAHEDRON,
    OCTAHEDRON,
    TETRAHEDRON,
    _SOLIDS,
    Povm,
    completeness_residual,
)
from .linalg import (
    CNOT_MATRIX,
    Fourier,
    _apply_in_place,
    _kernel,
    direct_sum,
    matrix_to_pairs,
    unitarity_residual as _unitarity_residual,
)

# Rows the isometry must reproduce; anything below is completion freedom.
_SEED_ROWS = 2

# Largest dilated register.  The dilation, and in verification the compiled
# circuit and the adjoint it is compared with, are dense r x r complex
# matrices (the residuals read them in row blocks and form no other): at 12
# qubits each takes 256 MB, and every further qubit quadruples it.
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


def padded_measurement_matrix(povm: Povm) -> np.ndarray:
    """2 x r matrix whose first n columns are the measurement vectors."""
    top = np.zeros((2, register_size(povm.n)), dtype=complex)
    top[:, : povm.n] = povm.vectors.T
    return top


@dataclass(eq=False)
class DilatedMeasurement:
    """A unitary dilation together with its outcome bookkeeping.

    ``outcome_positions`` holds each outcome's computational basis index in
    the dilated register; the others, ``padding_positions`` in ascending
    order, carry no probability.
    """

    povm: Povm
    matrix: np.ndarray
    outcome_positions: np.ndarray
    method: str

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=complex)
        r = matrix.shape[0]
        if matrix.shape != (r, r) or r & (r - 1):
            raise InvalidParameterError("dilation must be square with power-of-two size")
        self.matrix = matrix
        positions = np.asarray(self.outcome_positions)
        padding = np.ones(r, dtype=bool)
        if positions.dtype.kind in "iu":
            padding[positions[(0 <= positions) & (positions < r)]] = False
        # a position repeated or out of range leaves an extra padding index
        if positions.shape != (self.povm.n,) or padding.sum() != r - self.povm.n:
            raise InvalidParameterError(
                f"outcome positions must be {self.povm.n} distinct basis indices below {r}"
            )
        self.outcome_positions = positions.astype(np.intp)
        self.padding_positions = np.flatnonzero(padding)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def unitarity_residual(self) -> float:
        return _unitarity_residual(self.matrix)

    def embedding_residual(self) -> float:
        """Largest deviation of the vector rows from the measurement."""
        head = self.matrix[:_SEED_ROWS].copy()
        head[:, self.outcome_positions] -= self.povm.vectors.T
        return float(np.abs(head).max())

    def to_dict(self) -> dict:
        """``outcome_map`` lists [basis index, outcome] pairs by basis index."""
        order = np.argsort(self.outcome_positions)
        return {
            "method": self.method,
            "dim": self.dim,
            "n_qubits": self.n_qubits,
            "outcome_map": np.stack([self.outcome_positions[order], order], 1).tolist(),
            "padding_indices": self.padding_positions.tolist(),
            "matrix": matrix_to_pairs(self.matrix),
        }


def orbit_mixer(kind: str) -> np.ndarray:
    """Unitary that mixes the orbits of a platonic family.

    2x2 for the two-orbit solids, the reflection [[a, b], [b, -a]], and
    4x4 for the four-orbit ones, from (a, b), the solid's first seed row,
    and (g, d), its third.
    """
    if kind not in _SOLIDS:
        raise InvalidParameterError(f"unknown platonic solid {kind!r}")
    seeds = _SOLIDS[kind][0]
    a, b = seeds[0]
    if len(seeds) == 2:
        return np.array([[a, b], [b, -a]], dtype=complex)
    g, d = seeds[2]
    return np.array(
        [
            [a, b, g, d],
            [b, -a, d, -g],
            [g, -d, -a, b],
            [d, g, -b, -a],
        ],
        dtype=complex,
    ) / np.sqrt(2)


def _dihedral_factor(alpha: float, beta: complex, l: int) -> tuple:
    """The dihedral coupling, then the half swap: one 4x4 on qubits (l - 1, 0).

    Qubit 0 pairs basis state j with j + r/2, and the parity of j (qubit
    l - 1) picks the coupling's 2x2 block, [[a, b], [b*, -a]] or, for odd
    j, [[a, -b*], [b, a]], whose rows the swap exchanges.  The gates are
    the two controlled rotations, written out as adjoints.
    """
    bc = beta.conjugate()
    even = np.array([[alpha, beta], [bc, -alpha]])
    odd = np.array([[beta, alpha], [alpha, -bc]])
    return direct_sum(even, odd), (l - 1, 0), [
        ControlledGate(l - 1, 1, 0, np.array([[bc, alpha], [alpha, -beta]])),
        ControlledGate(l - 1, 0, 0, np.array([[alpha, beta], [bc, -alpha]])),
    ]


def _orbit_mixer_factors(family, l: int) -> list:
    """The platonic orbit mixer on the top t qubits, then the half swap
    CNOT(l - 1 -> t - 1); a 4x4 mixer has its own circuit."""
    mixer = orbit_mixer(family.kind)
    if len(mixer) == 2:
        factor = (mixer, (0,), [SingleQubitGate(0, mixer.conj().T)])
    else:
        factor = (mixer, (0, 1), orbit_mixer_adjoint_circuit(family.kind).gates)
    t = len(factor[1])
    return [factor, (CNOT_MATRIX, (l - 1, t - 1), [CnotGate(l - 1, t - 1)])]


def _tetrahedron_factors(family, l: int) -> list:
    """A controlled phase on the top two qubits, then the mixer factors."""
    phase = ControlledGate(0, 1, 1, np.diag([1.0, 1.0j]))
    return [(np.diag([1, 1, 1, -1j]), (0, 1), [phase]), *_orbit_mixer_factors(family, l)]


# kind -> (conjugated Fourier factor, the factors after it of (family, l),
# the half swap last)
_FACTOR_TABLE = {
    CYCLIC: (False, lambda f, l: []),
    DIHEDRAL: (False, lambda f, l: [_dihedral_factor(f.alpha, f.beta, l)]),
    TETRAHEDRON: (False, _tetrahedron_factors),
    CUBE: (True, _orbit_mixer_factors),
    OCTAHEDRON: (False, _orbit_mixer_factors),
    DODECAHEDRON: (False, _orbit_mixer_factors),
    ICOSAHEDRON: (False, _orbit_mixer_factors),
}


def _structured_factors(family) -> tuple[int, list]:
    """The register's qubits l and the family's factors in the order they
    apply, Fourier factor first, each as (local matrix or a
    ``linalg.Fourier``, qubits, the gates compiling to its adjoint)."""
    conjugate, mixer = _FACTOR_TABLE[family.kind]
    count, m = family.orbits
    t = count.bit_length() - 1  # the orbit qubits
    l = register_size(count * m).bit_length() - 1
    low = tuple(range(t, l))
    if m == 1 << l:  # unpadded on the whole register: the inverse QFT circuit
        gates = inverse_circuit(qft_circuit(l)).gates
    else:
        gates = [FourierGate(low, m, inverse=not conjugate)]
    # F' = F_m (+) I on the low qubits, or conj(F') for the cube
    return l, [(Fourier(m, conjugate), low, gates), *mixer(family, l)]


def structured_dilation(povm: Povm) -> DilatedMeasurement:
    """Dilation built from the family's row of the factor table.

    U is the factors applied, in order, to one r x r identity by
    ``apply_gates``: the Fourier factor as an in-place FFT of each
    column's orbit blocks, the rest by their forms.  Outcome m u + j, the
    j-th of orbit u, sits on basis state (r / count) u + j.
    """
    l, factors = _structured_factors(povm.family)
    r = 1 << l
    matrix = _apply_in_place((_kernel(u, q) for u, q, _ in factors), np.eye(r, dtype=complex))
    count, m = povm.family.orbits
    positions = ((r // count) * np.arange(count)[:, None] + np.arange(m)).ravel()
    return DilatedMeasurement(povm, matrix, positions, "structured")


def structured_circuit(povm: Povm) -> Circuit:
    """The factors' gate lists, last factor first: a circuit compiling to the
    adjoint of ``structured_dilation(povm)``, with no r x r matrix built.
    Each call builds its gates afresh."""
    l, factors = _structured_factors(povm.family)
    gates = [g for *_, factor_gates in reversed(factors) for g in factor_gates]
    return Circuit(l, gates, povm.family.label())


def generic_completion(povm: Povm) -> DilatedMeasurement:
    """Dilation for arbitrary complete vectors, via a QR completion.

    The two vector rows are orthonormal exactly when the vectors resolve
    the identity; the remaining rows are the last r - 2 columns of the
    complete QR factor of their adjoint, an orthonormal basis of the
    complement.  The vector rows themselves are kept as given.
    """
    top = padded_measurement_matrix(povm)
    if not completeness_residual(povm) <= 1e-8:
        raise NotIsometryError("vectors do not resolve the identity")

    q, _ = np.linalg.qr(top.conj().T, mode="complete")
    matrix = q.conj().T
    matrix[:_SEED_ROWS] = top

    return DilatedMeasurement(povm, matrix, np.arange(povm.n), "generic")
