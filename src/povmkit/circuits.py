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

import copy
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


# kind -> (qubits it acts on, 0 for any number; its ``describe`` line)
_KINDS = {
    "u": (1, "u target={target}"),
    "cu": (2, "cu control={control} value={control_value} target={target}"),
    "cnot": (2, "cnot control={control} target={target}"),
    "swap": (2, "swap qubits=({qubits[0]}, {qubits[1]})"),
    "block": (0, "block targets={targets} dim={dim}"),
}
_FIXED = {"cnot": CNOT_MATRIX, "swap": SWAP_MATRIX}
_I2 = np.eye(2)


def _controlled(value: int, u: np.ndarray) -> np.ndarray:
    """The 4x4 applying ``u`` to the second qubit when the first reads ``value``."""
    return direct_sum(_I2, u) if value else direct_sum(u, _I2)


@dataclass(eq=False)
class Gate:
    """A unitary ``matrix`` on the ``wires`` qubits, the first most significant.

    ``kind`` names the matrix's form: ``u`` any 2x2, ``cu`` a 2x2 on the
    second qubit applied when the first reads ``control_value``, ``cnot``
    and ``swap`` the fixed 4x4s, ``block`` any 2^k x 2^k on k qubits.  A
    controlled identity reads as controlled on 1.
    """

    kind: str
    wires: tuple
    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InvalidGateError(f"unknown gate kind {self.kind!r}")
        self.wires = tuple(map(int, self.wires))
        n, arity = len(self.wires), _KINDS[self.kind][0]
        if not n or len(set(self.wires)) != n or (arity and n != arity):
            raise InvalidGateError(f"a {self.kind} gate cannot act on qubits {self.wires}")
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.shape != (2**n, 2**n):
            raise InvalidGateError(f"gate matrix must be {2**n}x{2**n}")
        if self.kind in _FIXED:
            if not np.array_equal(self.matrix, _FIXED[self.kind]):
                raise InvalidGateError(f"a {self.kind} gate has a fixed matrix")
        elif not unitarity_residual(self.matrix) <= DEFAULT_TOL:
            raise InvalidGateError("gate matrix must be unitary")
        if self.kind == "cu":
            self._control()  # raises unless the matrix has a cu's form

    def _control(self) -> tuple[int, np.ndarray]:
        """A cu gate's control value and the 2x2 it applies; InvalidGateError
        unless the matrix is 0 off its diagonal 2x2 blocks and exactly I in one."""
        r = self.matrix.tolist()  # Python numbers: a numpy call on a 2x2 costs about 1 us
        if not any(r[0][2:] + r[1][2:] + r[2][:2] + r[3][:2]):
            if r[0][:2] + r[1][:2] == [1, 0, 0, 1]:
                return 1, self.matrix[2:, 2:]
            if r[2][2:] + r[3][2:] == [1, 0, 0, 1]:
                return 0, self.matrix[:2, :2]
        raise InvalidGateError("a cu matrix must be the identity on one control value")

    @property
    def control_value(self) -> int:
        return self._control()[0]

    def qubits(self) -> tuple[int, ...]:
        return self.wires

    def local_matrix(self) -> np.ndarray:
        return self.matrix

    def adjoint(self) -> "Gate":
        """The same kind on the same qubits, with the adjoint matrix."""
        # the adjoint keeps every kind's form, so it is not validated again
        gate = copy.copy(self)
        gate.matrix = self.matrix.conj().T
        return gate

    def _fields(self) -> dict:
        """The printed fields after ``kind``, in order."""
        q = list(self.wires)
        if self.kind == "u":
            return {"target": q[0], "matrix": self.matrix}
        if self.kind == "cu":
            value, u = self._control()
            return {"control": q[0], "control_value": value, "target": q[1], "matrix": u}
        if self.kind == "cnot":
            return {"control": q[0], "target": q[1]}
        if self.kind == "swap":
            return {"qubits": q}
        return {"targets": q, "matrix": self.matrix}

    def describe(self) -> str:
        return _KINDS[self.kind][1].format(**self._fields(), dim=len(self.matrix))

    def to_dict(self) -> dict:
        data = {"kind": self.kind, **self._fields()}
        if "matrix" in data:
            data["matrix"] = matrix_to_pairs(data["matrix"])
        return data


def SingleQubitGate(target: int, matrix) -> Gate:
    """An arbitrary 2x2 unitary on one qubit."""
    return Gate("u", (target,), matrix)


def ControlledGate(control: int, control_value: int, target: int, matrix) -> Gate:
    """A 2x2 unitary applied to the target when the control reads a bit."""
    if control_value not in (0, 1):
        raise InvalidGateError("control value must be 0 or 1")
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):  # Gate checks that it is unitary
        raise InvalidGateError("gate matrix must be 2x2")
    return Gate("cu", (control, target), _controlled(control_value, matrix))


def CnotGate(control: int, target: int) -> Gate:
    """Flip the target when the control is set."""
    return Gate("cnot", (control, target), CNOT_MATRIX)


def SwapGate(a: int, b: int) -> Gate:
    """Exchange two qubits."""
    return Gate("swap", (a, b), SWAP_MATRIX)


def BlockGate(targets, matrix) -> Gate:
    """A dense unitary on a small group of adjacent-or-not qubits."""
    return Gate("block", targets, matrix)


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
                flip is not None
                and flip.kind == "cnot"
                and gate.kind == "cu"
                and gate.control_value == 1
                and gate.wires == flip.wires
            ):
                # the cnot swaps the last two columns of the rotation's 4x4
                gate = Gate("cu", gate.wires, gate.matrix[:, [0, 1, 3, 2]])
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
