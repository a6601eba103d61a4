"""Gate-level circuits for the structured dilations.

A circuit is an ordered gate list on a small register; the list order is
the order of application, so the compiled matrix is the product of the
gate unitaries taken right to left.  Qubit 0 is the most significant bit
of a basis index throughout.

Each gate holds its small ``matrix`` and the ``wires`` it acts on;
``apply_circuit`` contracts those matrices into the columns of a
register array one gate at a time, so no gate is ever embedded as a dense
register-sized matrix.  The gates are the paper's elementary one- and
two-qubit gates and a ``fourier`` gate, F_m padded with an identity on an
ascending run of qubits, which holds the size m of its transform and
builds its matrix on first use.

``synthesize_circuit`` joins the gate lists of a structured dilation's
factors, last factor first, into a circuit that compiles exactly to the
dilation's adjoint, so running it and then reading the register in the
computational basis realizes the measurement.  The inverse QFT, the
four-orbit mixer circuit and the dihedral rotations, which carry the half
swap, are derived apart from the matrices they compile to, so the
circuit-to-dilation distance checks them.
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


# kind -> (qubits it acts on, 0 for any ascending run; its ``describe`` line)
_KINDS = {
    "u": (1, "u target={target}"),
    "cu": (2, "cu control={control} value={control_value} target={target}"),
    "cnot": (2, "cnot control={control} target={target}"),
    "swap": (2, "swap qubits=({qubits[0]}, {qubits[1]})"),
    "fourier": (0, "fourier targets={targets} m={m} inverse={inverse}"),
}
_FIXED = {"cnot": CNOT_MATRIX, "swap": SWAP_MATRIX}
_I2 = np.eye(2)


class Gate:
    """A unitary ``matrix`` on the ``wires`` qubits, the first most significant.

    ``kind`` names the matrix's form: ``u`` any 2x2, ``cu`` a 2x2 on the
    second qubit applied when the first reads the control value, ``cnot``
    and ``swap`` the fixed 4x4s.  A controlled identity reads as
    controlled on 1.  A ``fourier`` gate acts on an ascending run of k
    qubits and takes no matrix but ``m``, 1 <= m <= 2^k, and ``inverse``:
    its matrix is F' = F_m (+) I of size 2^k, or conj(F') = F'^dag when
    ``inverse``.  That matrix is unitary by construction, so it is not
    checked; it is built on first use and kept.
    """

    m = None
    inverse = False

    def __init__(self, kind: str, wires, matrix=None, m=None, inverse: bool = False) -> None:
        if kind not in _KINDS:
            raise InvalidGateError(f"unknown gate kind {kind!r}")
        self.kind = kind
        self.wires = tuple(map(int, wires))
        n, arity = len(self.wires), _KINDS[kind][0]
        if not n or len(set(self.wires)) != n or (arity and n != arity):
            raise InvalidGateError(f"a {kind} gate cannot act on qubits {self.wires}")
        if kind == "fourier":
            if self.wires != tuple(range(self.wires[0], self.wires[0] + n)):
                raise InvalidGateError(
                    f"a fourier gate acts on an ascending run of qubits, not {self.wires}"
                )
            if matrix is not None:
                raise InvalidGateError("a fourier gate's matrix is built from m")
            if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or not 1 <= m <= 2**n:
                raise InvalidGateError(
                    f"a fourier gate on {n} qubits needs an integer m from 1 to {2**n}, got {m!r}"
                )
            self.m, self.inverse, self._matrix = int(m), bool(inverse), None
            return
        if m is not None or inverse:
            raise InvalidGateError("only a fourier gate takes m and inverse")
        self._matrix = np.asarray(matrix, dtype=complex)
        if self._matrix.shape != (2**n, 2**n):
            raise InvalidGateError(f"gate matrix must be {2**n}x{2**n}")
        if kind in _FIXED:
            if not np.array_equal(self._matrix, _FIXED[kind]):
                raise InvalidGateError(f"a {kind} gate has a fixed matrix")
        elif not unitarity_residual(self._matrix) <= DEFAULT_TOL:
            raise InvalidGateError("gate matrix must be unitary")
        if kind == "cu":
            self._control()  # raises unless the matrix has a cu's form

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:  # a fourier gate's, on first use
            size = 2 ** len(self.wires)
            f = fourier_matrix(self.m)
            if self.m < size:
                f = direct_sum(f, np.eye(size - self.m))
            self._matrix = np.conjugate(f, out=f) if self.inverse else f
        return self._matrix

    def __repr__(self) -> str:
        return f"<Gate {self.describe()}>"

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

    def adjoint(self) -> "Gate":
        """The same kind on the same qubits, with the adjoint matrix if it is
        built; a fourier gate also flips ``inverse``."""
        # the adjoint keeps every kind's form, so it is not validated again
        gate = copy.copy(self)
        if self.kind == "fourier":
            gate.inverse = not self.inverse
        if self._matrix is not None:
            gate._matrix = self._matrix.conj().T
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
        return {"targets": q, "m": self.m, "inverse": self.inverse}

    def describe(self) -> str:
        return _KINDS[self.kind][1].format(**self._fields())

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
    full = direct_sum(_I2, matrix) if control_value else direct_sum(matrix, _I2)
    return Gate("cu", (control, target), full)


def CnotGate(control: int, target: int) -> Gate:
    """Flip the target when the control is set."""
    return Gate("cnot", (control, target), CNOT_MATRIX)


def SwapGate(a: int, b: int) -> Gate:
    """Exchange two qubits."""
    return Gate("swap", (a, b), SWAP_MATRIX)


def FourierGate(targets, m: int, inverse: bool = False) -> Gate:
    """F_m padded with an identity to the targets' 2^k, or its adjoint."""
    return Gate("fourier", targets, m=m, inverse=inverse)


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
            for q in gate.wires:
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
    return apply_gates(((g.matrix, g.wires) for g in circuit.gates), state)


def compile_circuit(circuit: Circuit) -> np.ndarray:
    """The circuit's full register unitary: the gates applied to the identity.

    A first gate on wires (0, ..., n-1) in that order is its own product
    with the identity, so the rest start from a copy of its matrix; adding
    0.0 turns a -0.0 into +0.0 there as that product does.  A circuit that
    is one register-wide ``fourier`` gate, such as a cyclic ring that does
    not fill its register, so costs one copy instead of an O(r^3) product.
    """
    gates = circuit.gates
    if gates and gates[0].wires == tuple(range(circuit.n_qubits)):
        state = np.add(gates[0].matrix, 0.0, order="C")
        gates = gates[1:]
    else:
        state = np.eye(2**circuit.n_qubits, dtype=complex)
    return apply_gates(((g.matrix, g.wires) for g in gates), state) if gates else state


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


def synthesize_circuit(dilated: DilatedMeasurement) -> Circuit:
    """Gate factorization of a structured dilation's adjoint: the gate lists
    of the dilation's factors, last factor first."""
    if dilated.factors is None:
        raise InvalidParameterError(
            "gate factorizations exist only for structured dilations"
        )
    gates = [g for _, _, adjoint_gates in reversed(dilated.factors) for g in adjoint_gates()]
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
