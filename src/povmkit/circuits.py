"""Gate-level circuits for the structured dilations.

A circuit is an ordered gate list on a small register; the list order is
the order of application, so the compiled matrix is the product of the
gate unitaries taken right to left.  Qubit 0 is the most significant bit
of a basis index throughout.

Each gate holds its small ``matrix`` and the ``wires`` it acts on, and
is immutable.  Every gate, an adjoint included, is built by the one
constructor.  There the kernel classifier behind ``linalg.apply_gates``
decides once the form in which it runs the gate (in-place phases, a split
into halves or a swap copy, a dense product on a run of qubits, or an
FFT), and so checks the wires, the matrix's size and a fourier gate's run
and m; the gate keeps that form privately, and checks only what the form
does not show: its kind, unitarity and fixed matrices.  ``apply_circuit``
applies the gates to the columns of a register array one at a time by
those forms, so no gate is ever embedded as a dense register-sized
matrix, nor inspected again.  The gates are the paper's
elementary one- and two-qubit gates and a ``fourier`` gate, F_m padded
with an identity on an ascending run of qubits, which holds only the size
m of its transform and runs as an FFT.

``synthesize_circuit(d)`` is ``dilation.structured_circuit(d.povm)``,
which compiles exactly to the adjoint of the structured dilation d.  The
inverse QFT, the four-orbit mixer circuit and the dihedral rotations,
which carry the half swap, are derived apart from the matrices they
compile to, so the circuit-to-dilation distance checks them.

Each call to ``structured_circuit`` builds a fresh ``Circuit`` with its
own gates; what ``simulate.verify_family`` checks of a family's circuit is
kept there, once per process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidDimensionError, InvalidGateError, InvalidParameterError
from .families import DODECAHEDRON, ICOSAHEDRON, _integer
from .linalg import (
    CNOT_MATRIX,
    DEFAULT_TOL,
    SWAP_MATRIX,
    Fourier,
    _apply_in_place,
    _halves,
    _kernel,
    _register,
    direct_sum,
    matrix_to_pairs,
    unitarity_residual,
)


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
# F_2 as exp(-2i pi jk / 2) / sqrt(2): its entry (1, 1) has imaginary part
# -8.7e-17, which the pinned QFT residuals carry
_HADAMARD = np.array([[1, 1], [1, np.exp(-1j * np.pi)]]) / np.sqrt(2)


@dataclass(frozen=True, eq=False, repr=False)
class Gate:
    """A unitary ``matrix`` on the ``wires`` qubits, the first most significant.

    ``kind`` names the matrix's form: ``u`` any 2x2, ``cu`` a 2x2 on the
    second qubit applied when the first reads the control value, ``cnot``
    and ``swap`` the fixed 4x4s.  A controlled identity reads as
    controlled on 1.  A ``fourier`` gate acts on an ascending run of k
    qubits and holds no matrix (``matrix`` is None), only ``m``,
    1 <= m <= 2^k, and the bool ``inverse``: it applies F' = F_m (+) I of
    size 2^k, or conj(F') = F'^dag when ``inverse``, as an FFT, unitary by
    construction.

    A gate is immutable, so circuits may share it.  Every gate, an adjoint
    too, is checked once, here: the classifier that fixes the form in which
    ``apply_gates`` runs it checks the wires, the matrix's size and m; the
    gate checks the rest.
    """

    kind: str
    wires: tuple
    matrix: Optional[np.ndarray] = None
    m: Optional[int] = None
    inverse: bool = False
    _kernel: tuple = field(init=False)  # the form ``apply_gates`` runs it by

    def __post_init__(self) -> None:
        kind = self.kind
        if kind not in _KINDS:
            raise InvalidGateError(f"unknown gate kind {kind!r}")
        wires = tuple(_integer(q, "a qubit index", InvalidGateError) for q in self.wires)
        arity = _KINDS[kind][0]
        if arity and len(wires) != arity:
            raise InvalidGateError(f"a {kind} gate cannot act on qubits {wires}")
        matrix, m, inverse = self.matrix, self.m, self.inverse
        if kind == "fourier":
            if matrix is not None:
                raise InvalidGateError("a fourier gate's matrix is built from m")
            m = _integer(m, "a fourier gate's m", InvalidGateError)
            if not isinstance(inverse, (bool, np.bool_)):
                raise InvalidGateError(f"a fourier gate's inverse must be a bool, got {inverse!r}")
            inverse = bool(inverse)
            operator = Fourier(m, inverse)
        else:
            if m is not None or inverse:
                raise InvalidGateError("only a fourier gate takes m and inverse")
            # a read-only copy, so that the matrix checked here is the one applied
            matrix = operator = np.array(matrix, dtype=complex)
            matrix.setflags(write=False)
        try:
            kernel = _kernel(operator, wires)
        except InvalidDimensionError as exc:
            raise InvalidGateError(f"a {kind} gate on qubits {wires}: {exc}") from None
        if kind in _FIXED and not np.array_equal(matrix, _FIXED[kind]):
            raise InvalidGateError(f"a {kind} gate has a fixed matrix")
        if kind in ("u", "cu") and not unitarity_residual(matrix) <= DEFAULT_TOL:
            raise InvalidGateError("gate matrix must be unitary")
        if kind == "cu":
            _cu_control(matrix)  # raises unless the matrix has a cu's form
        for name, value in zip(("wires", "matrix", "m", "inverse"), (wires, matrix, m, inverse)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_kernel", kernel)

    def __reduce__(self):
        # copy and pickle rebuild the gate through its checks
        return Gate, (self.kind, self.wires, self.matrix, self.m, self.inverse)

    def __repr__(self) -> str:
        return f"<Gate {self.describe()}>"

    def adjoint(self) -> "Gate":
        """The same kind on the same qubits: a fourier gate with ``inverse``
        flipped, any other with the adjoint matrix."""
        if self.kind == "fourier":
            return Gate(self.kind, self.wires, m=self.m, inverse=not self.inverse)
        return Gate(self.kind, self.wires, self.matrix.conj().T)

    def _fields(self) -> dict:
        """The printed fields after ``kind``, in order."""
        q = list(self.wires)
        if self.kind == "u":
            return {"target": q[0], "matrix": self.matrix}
        if self.kind == "cu":
            value, u = _cu_control(self.matrix)
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
        self.n_qubits = _integer(self.n_qubits, "a circuit's qubit count")
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


def _cu_control(matrix: np.ndarray) -> tuple[int, np.ndarray]:
    """A cu gate's control value and the 2x2 it applies; InvalidGateError
    unless the matrix is 0 off its diagonal 2x2 blocks and exactly I in one."""
    blocks = _halves(matrix)
    if isinstance(blocks, tuple) and blocks[0] is None:
        return 1, matrix[2:, 2:]
    if isinstance(blocks, tuple) and blocks[1] is None:
        return 0, matrix[:2, :2]
    raise InvalidGateError("a cu matrix must be the identity on one control value")


def _kernels(circuit: Circuit):
    """Each gate's form: the one a ``Gate`` fixed when it was built, and for
    any other object with an ``operator`` and ``wires``, the form of that pair."""
    for g in circuit.gates:
        yield g._kernel if isinstance(g, Gate) else _kernel(g.operator, g.wires)


def apply_circuit(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Apply the gates, in list order, to every column of an (r, c) array."""
    return _apply_in_place(_kernels(circuit), _register(state))


def compile_circuit(circuit: Circuit) -> np.ndarray:
    """The circuit's full register unitary: the gates applied to the identity."""
    state = np.eye(2**circuit.n_qubits, dtype=complex)
    return _apply_in_place(_kernels(circuit), state)


def circuit_isometry(circuit: Circuit) -> np.ndarray:
    """First two columns of the compiled circuit.

    A qubit state enters the register on basis states 0 and 1, so these
    columns are all a simulation needs; they cost O(r) per gate, O(r log r)
    for a ``fourier`` gate.
    """
    state = np.eye(2**circuit.n_qubits, 2, dtype=complex)
    return _apply_in_place(_kernels(circuit), state)


def inverse_circuit(circuit: Circuit) -> Circuit:
    """Reverse the gate order and take each gate's adjoint."""
    gates = [g.adjoint() for g in reversed(circuit.gates)]
    label = f"inverse({circuit.label})" if circuit.label else ""
    return Circuit(circuit.n_qubits, gates, label)


def qft_circuit(n_qubits: int) -> Circuit:
    """Standard Fourier transform circuit, exact to rounding.

    Compiles to F_(2^n_qubits) with no global phase slack.
    """
    n_qubits = _integer(n_qubits, "qft's qubit count")
    if n_qubits < 1:
        raise InvalidParameterError("qft needs at least one qubit")
    gates: list = []
    for i in range(n_qubits):
        gates.append(SingleQubitGate(i, _HADAMARD))
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


def synthesize_circuit(dilated) -> Circuit:
    """Gate factorization of a structured dilation's adjoint, from its povm."""
    if dilated.method != "structured":
        raise InvalidParameterError("gate factorizations exist only for structured dilations")
    from .dilation import structured_circuit  # dilation imports this module

    return structured_circuit(dilated.povm)


def format_circuit(circuit: Circuit) -> str:
    """One-line-per-gate text rendering."""
    name = circuit.label or "circuit"
    lines = [
        f"{name}: {circuit.n_qubits} qubits, {len(circuit.gates)} gates"
    ]
    for i, gate in enumerate(circuit.gates):
        lines.append(f"{i:3d}  {gate.describe()}")
    return "\n".join(lines)
