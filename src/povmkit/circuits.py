"""Gate-level circuits for the structured dilations.

A circuit is an ordered gate list on a small register; the list order is
the order of application, so the compiled matrix is the product of the
gate unitaries taken right to left.  Qubit 0 is the most significant bit
of a basis index throughout.

Each gate exposes its small local matrix and the qubits it acts on;
``apply_circuit`` contracts those local matrices into the columns of a
register array one gate at a time, so no gate is ever embedded as a dense
register-sized matrix.

``synthesize_circuit`` joins the gate lists of a structured dilation's
factors, last factor first, into a circuit that compiles exactly to the
dilation's adjoint, so running it and then reading the register in the
computational basis realizes the measurement.  The inverse QFT, the
four-orbit mixer circuit and the dihedral rotations are derived apart from
the matrices they compile to, so the circuit-to-dilation distance checks
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidGateError, InvalidParameterError
from .families import DODECAHEDRON, ICOSAHEDRON
from .linalg import (
    CNOT_MATRIX,
    DEFAULT_TOL,
    SWAP_MATRIX,
    apply_gates,
    direct_sum,
    fourier_matrix,
    matrix_to_pairs,
    unitarity_residual,
)

if TYPE_CHECKING:
    from .dilation import DilatedMeasurement


def _checked_unitary(matrix: np.ndarray, dim: int) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (dim, dim):
        raise InvalidGateError(f"gate matrix must be {dim}x{dim}")
    if not unitarity_residual(matrix) <= DEFAULT_TOL:
        raise InvalidGateError("gate matrix must be unitary")
    return matrix


@dataclass(eq=False)
class SingleQubitGate:
    """An arbitrary 2x2 unitary on one qubit."""

    target: int
    matrix: np.ndarray
    kind = "u"

    def __post_init__(self) -> None:
        self.matrix = _checked_unitary(self.matrix, 2)

    def qubits(self) -> tuple[int, ...]:
        return (self.target,)

    def local_matrix(self) -> np.ndarray:
        return self.matrix

    def adjoint(self) -> "SingleQubitGate":
        return SingleQubitGate(self.target, self.matrix.conj().T)

    def describe(self) -> str:
        return f"u target={self.target}"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "target": self.target,
            "matrix": matrix_to_pairs(self.matrix),
        }


@dataclass(eq=False)
class ControlledGate:
    """A 2x2 unitary applied to the target when the control reads a bit."""

    control: int
    control_value: int
    target: int
    matrix: np.ndarray
    kind = "cu"

    def __post_init__(self) -> None:
        if self.control == self.target:
            raise InvalidGateError("control and target must differ")
        if self.control_value not in (0, 1):
            raise InvalidGateError("control value must be 0 or 1")
        self.matrix = _checked_unitary(self.matrix, 2)

    def qubits(self) -> tuple[int, ...]:
        return (self.control, self.target)

    def local_matrix(self) -> np.ndarray:
        if self.control_value == 1:
            return direct_sum(np.eye(2), self.matrix)
        return direct_sum(self.matrix, np.eye(2))

    def adjoint(self) -> "ControlledGate":
        return ControlledGate(
            self.control, self.control_value, self.target, self.matrix.conj().T
        )

    def describe(self) -> str:
        return (
            f"cu control={self.control} value={self.control_value} "
            f"target={self.target}"
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "control": self.control,
            "control_value": self.control_value,
            "target": self.target,
            "matrix": matrix_to_pairs(self.matrix),
        }


@dataclass(eq=False)
class CnotGate:
    """Flip the target when the control is set."""

    control: int
    target: int
    kind = "cnot"

    def __post_init__(self) -> None:
        if self.control == self.target:
            raise InvalidGateError("control and target must differ")

    def qubits(self) -> tuple[int, ...]:
        return (self.control, self.target)

    def local_matrix(self) -> np.ndarray:
        return CNOT_MATRIX

    def adjoint(self) -> "CnotGate":
        return CnotGate(self.control, self.target)

    def describe(self) -> str:
        return f"cnot control={self.control} target={self.target}"

    def to_dict(self) -> dict:
        return {"kind": self.kind, "control": self.control, "target": self.target}


@dataclass(eq=False)
class SwapGate:
    """Exchange two qubits."""

    a: int
    b: int
    kind = "swap"

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise InvalidGateError("swap needs two distinct qubits")

    def qubits(self) -> tuple[int, ...]:
        return (self.a, self.b)

    def local_matrix(self) -> np.ndarray:
        return SWAP_MATRIX

    def adjoint(self) -> "SwapGate":
        return SwapGate(self.a, self.b)

    def describe(self) -> str:
        return f"swap qubits=({self.a}, {self.b})"

    def to_dict(self) -> dict:
        return {"kind": self.kind, "qubits": [self.a, self.b]}


@dataclass(eq=False)
class BlockGate:
    """A dense unitary on a small group of adjacent-or-not qubits."""

    targets: list[int]
    matrix: np.ndarray
    kind = "block"

    def __post_init__(self) -> None:
        self.targets = [int(t) for t in self.targets]
        if len(set(self.targets)) != len(self.targets) or not self.targets:
            raise InvalidGateError("block targets must be distinct and nonempty")
        self.matrix = _checked_unitary(self.matrix, 2 ** len(self.targets))

    def qubits(self) -> tuple[int, ...]:
        return tuple(self.targets)

    def local_matrix(self) -> np.ndarray:
        return self.matrix

    def adjoint(self) -> "BlockGate":
        return BlockGate(list(self.targets), self.matrix.conj().T)

    def describe(self) -> str:
        return f"block targets={self.targets} dim={self.matrix.shape[0]}"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "targets": list(self.targets),
            "matrix": matrix_to_pairs(self.matrix),
        }


Gate = SingleQubitGate | ControlledGate | CnotGate | SwapGate | BlockGate


@dataclass(eq=False)
class Circuit:
    """An ordered list of gates on ``n_qubits`` qubits."""

    n_qubits: int
    gates: list = field(default_factory=list)
    label: str = ""

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise InvalidParameterError("a circuit needs at least one qubit")
        for gate in self.gates:
            for q in gate.qubits():
                if not 0 <= q < self.n_qubits:
                    raise InvalidGateError(
                        f"gate {gate.describe()} leaves the {self.n_qubits}-qubit register"
                    )

    def to_dict(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "label": self.label,
            "gates": [g.to_dict() for g in self.gates],
        }


def apply_circuit(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Apply the gates, in list order, to every column of an (r, c) array."""
    return apply_gates(((g.local_matrix(), g.qubits()) for g in circuit.gates), state)


def gate_unitary(gate: Gate, n_qubits: int) -> np.ndarray:
    """Full register unitary of one gate."""
    return apply_gates(
        [(gate.local_matrix(), gate.qubits())], np.eye(2**n_qubits, dtype=complex)
    )


def compile_circuit(circuit: Circuit) -> np.ndarray:
    """The circuit's full register unitary: the gates applied to the identity."""
    return apply_circuit(circuit, np.eye(2**circuit.n_qubits, dtype=complex))


def circuit_isometry(circuit: Circuit) -> np.ndarray:
    """First two columns of the compiled circuit.

    A qubit state enters the register on basis states 0 and 1, so these
    columns are all a simulation needs; they cost O(r) per gate.
    """
    return apply_circuit(circuit, np.eye(2**circuit.n_qubits, 2, dtype=complex))


def inverse_circuit(circuit: Circuit) -> Circuit:
    """Reverse the gate order and take each gate's adjoint."""
    gates = [g.adjoint() for g in reversed(circuit.gates)]
    label = f"inverse({circuit.label})" if circuit.label else ""
    return Circuit(circuit.n_qubits, gates, label)


def qft_circuit(n_qubits: int) -> Circuit:
    """Standard Fourier transform circuit, exact to rounding.

    Compiles to ``fourier_matrix(2**n_qubits)`` with no global phase slack.
    """
    if n_qubits < 1:
        raise InvalidParameterError("qft needs at least one qubit")
    hadamard = fourier_matrix(2)
    gates: list = []
    for i in range(n_qubits):
        gates.append(SingleQubitGate(i, hadamard))
        for j in range(i + 1, n_qubits):
            phase = np.exp(-2j * np.pi / 2 ** (j - i + 1))
            gates.append(ControlledGate(j, 1, i, np.diag([1.0, phase])))
    for i in range(n_qubits // 2):
        gates.append(SwapGate(i, n_qubits - 1 - i))
    return Circuit(n_qubits, gates, label=f"qft({n_qubits})")


def _mixer_splitting(kind: str) -> tuple[float, float, float, float]:
    """Rotation amplitudes splitting the 4x4 orbit mixer into 2x2 stages."""
    if kind == DODECAHEDRON:
        r5 = np.sqrt(5.0)
        u_split = np.sqrt((3 + r5) / 24)
        v_split = np.sqrt((r5 - 1) / (8 * r5))
        return (
            np.sqrt(0.5 + u_split),
            np.sqrt(0.5 - u_split),
            -np.sqrt(0.5 + v_split),
            np.sqrt(0.5 - v_split),
        )
    if kind == ICOSAHEDRON:
        inner = 5 * np.sqrt(10 * (5 + np.sqrt(5.0)))
        return (
            np.sqrt(50 + inner) / 10,
            np.sqrt(50 - inner) / 10,
            -0.5 * np.sqrt(2 + np.sqrt(5 / 3) - np.sqrt(1 / 3)),
            0.5 * np.sqrt(2 - np.sqrt(5 / 3) + np.sqrt(1 / 3)),
        )
    raise InvalidParameterError(f"no mixer splitting for kind {kind!r}")


def orbit_mixer_adjoint_circuit(kind: str) -> Circuit:
    """Two-qubit circuit compiling exactly to the 4x4 orbit mixer's adjoint."""
    u_plus, u_minus, v_plus, v_minus = _mixer_splitting(kind)
    b = np.array([[u_minus, -u_plus], [u_plus, u_minus]])
    c = np.array([[v_minus, v_plus], [v_plus, -v_minus]])
    half = np.sqrt(0.5)
    gates = [
        SingleQubitGate(1, c),
        ControlledGate(1, 1, 0, half * np.array([[1.0, 1.0], [-1.0, 1.0]])),
        ControlledGate(1, 0, 0, half * np.array([[1.0, -1.0], [1.0, 1.0]])),
        SingleQubitGate(1, b),
        ControlledGate(0, 1, 1, np.diag([-1.0, 1.0])),
    ]
    return Circuit(2, gates, label=f"{kind} mixer adjoint")


def synthesize_circuit(dilated: DilatedMeasurement, merge: bool = True) -> Circuit:
    """Gate factorization of a structured dilation's adjoint.

    The gate lists of the dilation's factors, last factor first.  With
    ``merge`` a cnot followed by a rotation on the same wires, controlled on
    1, becomes that rotation with its two columns swapped; this saves one
    gate in the dihedral circuits and changes no other.
    """
    if dilated.factors is None:
        raise InvalidParameterError(
            "gate factorizations exist only for structured dilations"
        )
    gates: list = []
    for _, _, adjoint_gates in reversed(dilated.factors):
        for gate in adjoint_gates():
            flip = gates[-1] if merge and gates else None
            if (
                isinstance(flip, CnotGate)
                and isinstance(gate, ControlledGate)
                and gate.control_value == 1
                and gate.qubits() == flip.qubits()
            ):
                gate = ControlledGate(gate.control, 1, gate.target, gate.matrix[:, ::-1])
                gates.pop()
            gates.append(gate)
    return Circuit(dilated.n_qubits, gates, label=dilated.povm.family.label())


def format_circuit(circuit: Circuit) -> str:
    """One-line-per-gate text rendering."""
    name = circuit.label or "circuit"
    lines = [
        f"{name}: {circuit.n_qubits} qubits, {len(circuit.gates)} gates"
    ]
    for i, gate in enumerate(circuit.gates):
        lines.append(f"{i:3d}  {gate.describe()}")
    return "\n".join(lines)
