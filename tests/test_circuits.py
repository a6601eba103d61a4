"""Oracle tests for gate synthesis and circuit compilation."""

import copy
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from povmkit import circuits, dilation, linalg, simulate
from povmkit.circuits import (
    Circuit,
    CnotGate,
    ControlledGate,
    FourierGate,
    Gate,
    SingleQubitGate,
    SwapGate,
    apply_circuit,
    circuit_isometry,
    compile_circuit,
    format_circuit,
    inverse_circuit,
    orbit_mixer_adjoint_circuit,
    qft_circuit,
    synthesize_circuit,
)
from povmkit.dilation import (
    generic_completion,
    orbit_mixer,
    structured_circuit,
    structured_dilation,
)
from povmkit.errors import DegenerateOrbitError, InvalidGateError, InvalidParameterError
from povmkit.families import (
    DODECAHEDRON,
    ICOSAHEDRON,
    PLATONIC_KINDS,
    PovmFamily,
    build_povm,
    cyclic_povm,
    dihedral_povm,
    platonic_povm,
)
from povmkit.linalg import (
    CNOT_MATRIX,
    SWAP_MATRIX,
    _kernel,
    apply_gates,
    direct_sum,
    unitarity_residual,
)
from povmkit.simulate import analytic_probabilities, circuit_probabilities, verify_family

from helpers import clear_kept_structures, gate_matrix, gate_unitary, one_shot_fourier
from test_golden import golden_families

X = np.array([[0.0, 1.0], [1.0, 0.0]])
S = np.diag([1.0, 1.0j])


# ---------------------------------------------------------------- gate unitaries


def test_single_qubit_gate_embedding():
    g = SingleQubitGate(0, X)
    assert np.abs(gate_unitary(g, 2) - np.kron(X, np.eye(2))).max() == 0
    g = SingleQubitGate(1, X)
    assert np.abs(gate_unitary(g, 2) - np.kron(np.eye(2), X)).max() == 0


def test_controlled_gate_value_one():
    g = ControlledGate(0, 1, 1, S)
    expected = np.diag([1.0, 1.0, 1.0, 1.0j])
    assert np.abs(gate_unitary(g, 2) - expected).max() == 0


def test_controlled_gate_value_zero():
    g = ControlledGate(1, 0, 0, S)
    expected = np.diag([1.0, 1.0, 1.0j, 1.0])
    assert np.abs(gate_unitary(g, 2) - expected).max() == 0


def test_cnot_and_swap_gates():
    assert np.abs(gate_unitary(CnotGate(0, 1), 2) - CNOT_MATRIX).max() == 0
    assert np.abs(gate_unitary(SwapGate(0, 1), 2) - SWAP_MATRIX).max() == 0
    flipped = gate_unitary(CnotGate(1, 0), 2)
    expected = np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=float
    )
    assert np.abs(flipped - expected).max() == 0


# ---------------------------------------------------------------- validation


@pytest.mark.filterwarnings("error")
def test_gate_validation():
    with pytest.raises(InvalidGateError):
        SingleQubitGate(0, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(InvalidGateError):
        SingleQubitGate(0, np.array([[1.0, 0.0], [0.0, np.inf]]))
    with pytest.raises(InvalidGateError):
        ControlledGate(0, 1, 0, S)  # control equals target
    with pytest.raises(InvalidGateError):
        ControlledGate(0, 2, 1, S)  # control value must be a bit
    with pytest.raises(InvalidGateError):
        CnotGate(1, 1)
    with pytest.raises(InvalidGateError):
        SwapGate(2, 2)
    with pytest.raises(InvalidGateError):
        SingleQubitGate(-1, X)  # no register has a qubit -1
    with pytest.raises(InvalidGateError):
        Gate("swap", (-1, 0), SWAP_MATRIX)
    with pytest.raises(InvalidGateError):
        Gate("u", (0,), one_shot_fourier(4))  # dim mismatch
    with pytest.raises(InvalidGateError):
        Gate("v", (0,), X)  # unknown kind
    with pytest.raises(InvalidGateError):
        Gate("block", (0, 1), one_shot_fourier(4))  # no dense kind: F_m is a fourier gate
    with pytest.raises(InvalidGateError):
        Gate("u", (0, 1), np.eye(4))  # u acts on one qubit
    with pytest.raises(InvalidGateError):
        Gate("cu", (0,), X)
    with pytest.raises(InvalidGateError):
        Gate("swap", (0, 1, 2), np.eye(8))
    with pytest.raises(InvalidGateError):
        Gate("cnot", (0, 1), SWAP_MATRIX)  # cnot and swap have fixed matrices
    with pytest.raises(InvalidGateError):
        Gate("swap", (0, 1), np.eye(4))
    with pytest.raises(InvalidGateError):
        Gate("cu", (0, 1), np.kron(X, X))  # not the identity on either control value
    # the same on wires that are not an ascending run: the cu form is
    # checked before the kernel, which takes a dense 4x4 only on a run
    for wires in [(1, 0), (0, 2)]:
        with pytest.raises(InvalidGateError):
            Gate("cu", wires, np.kron(X, X))
    with pytest.raises(InvalidGateError):
        Gate("cu", (0, 1), np.kron(np.eye(2), S))  # S on the target whatever the control


@pytest.mark.parametrize(
    "make",
    [
        lambda: SingleQubitGate(1.7, X),
        lambda: SingleQubitGate(1.0, X),
        lambda: SingleQubitGate(True, X),
        lambda: SwapGate(0, np.float64(1)),
        lambda: FourierGate([0.2, 1.9], 3),
        lambda: FourierGate([0, True], 3),
        lambda: Gate("cnot", ("0", 1), CNOT_MATRIX),
    ],
    ids=["float", "whole-float", "bool", "numpy-float", "fourier-floats", "fourier-bool", "text"],
)
def test_a_wire_that_is_not_an_integer_is_invalid(make):
    # int() read 1.7 and True as qubit 1, and [0.2, 1.9] as the run (0, 1)
    with pytest.raises(InvalidGateError, match="qubit index must be an integer"):
        make()


def test_a_numpy_integer_wire_is_a_python_int():
    gate = CnotGate(np.int64(0), np.uint8(1))
    assert gate.wires == (0, 1) and all(type(q) is int for q in gate.wires)


def test_gate_keeps_a_read_only_copy_of_its_matrix():
    u = X.astype(complex)
    gate = SingleQubitGate(0, u)
    u[0, 1] = 2  # after the unitarity check: the gate must not see it
    assert np.array_equal(gate.matrix, X)
    assert np.array_equal(compile_circuit(Circuit(1, [gate])), X)
    for g in (gate, gate.adjoint(), ControlledGate(0, 1, 1, S), CnotGate(0, 1)):
        for matrix in (g.matrix, g.adjoint().matrix):
            with pytest.raises(ValueError):
                matrix[0, 0] = 2


def test_gate_is_one_class_with_a_kind():
    made = [
        (SingleQubitGate(1, X), "u", (1,)),
        (ControlledGate(0, 0, 1, S), "cu", (0, 1)),
        (CnotGate(1, 0), "cnot", (1, 0)),
        (SwapGate(0, 2), "swap", (0, 2)),
    ]
    for gate, kind, qubits in made:
        assert type(gate) is Gate
        assert (gate.kind, gate.wires) == (kind, qubits)
        rebuilt = Gate(kind, qubits, gate.matrix)
        assert rebuilt.to_dict() == gate.to_dict()
        assert rebuilt.describe() == gate.describe()
        adjoint = gate.adjoint()
        assert (adjoint.kind, adjoint.wires) == (kind, qubits)
        assert np.array_equal(adjoint.matrix, gate.matrix.conj().T)
    assert ControlledGate(0, 0, 1, S).to_dict()["control_value"] == 0
    assert ControlledGate(0, 1, 1, S).to_dict()["control_value"] == 1


def test_circuit_range_validation():
    with pytest.raises(InvalidGateError):
        Circuit(1, [SingleQubitGate(1, X)])
    with pytest.raises(InvalidParameterError):
        Circuit(0, [])


@pytest.mark.parametrize("make", [Circuit, qft_circuit], ids=["circuit", "qft"])
@pytest.mark.parametrize(
    "n_qubits", [2.0, True, "2", np.int64(2)], ids=["float", "bool", "text", "numpy-int"]
)
def test_a_qubit_count_must_be_an_integer(make, n_qubits):
    if not isinstance(n_qubits, np.integer):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            make(n_qubits)
        return
    # stored as a Python int, so the circuit prints as JSON
    circuit = make(n_qubits)
    assert type(circuit.n_qubits) is int
    assert json.loads(json.dumps(circuit.to_dict()))["n_qubits"] == 2


# ---------------------------------------------------------------- the fourier kind


def _padded_block(m: int, inverse: bool) -> np.ndarray:
    """The dense block ``structured_dilation`` once emitted for a Fourier
    factor: the adjoint of F' = F_m (+) I, or of conj(F') (the cube's)."""
    size = 1 << max(1, (m - 1).bit_length())
    fourier = one_shot_fourier(m)
    if m < size:
        fourier = direct_sum(fourier, np.eye(size - m))
    if not inverse:
        fourier = fourier.conj()
    return fourier.conj().T


FOURIER_SIZES = [*range(1, 301), 1000]


@pytest.mark.parametrize("inverse", [True, False], ids=["inverse", "forward"])
def test_fourier_gate_matrix_is_the_padded_block(inverse):
    """A fourier gate holds no matrix but applies the padded block, which
    ``helpers.gate_matrix`` builds bit for bit as the dense reference."""
    for m in FOURIER_SIZES:
        block = _padded_block(m, inverse)
        k = len(block).bit_length() - 1
        for t in range(3):
            gate = FourierGate(range(t, t + k), m, inverse)
            assert gate.matrix is None
            assert gate_matrix(gate).tobytes() == block.tobytes()
            # on a t + k qubit register the gate's first two columns are the
            # block's, up to the rounding of the FFT that applies it
            want = np.zeros((2 ** (t + k), 2), dtype=complex)
            want[: len(block)] = block[:, :2]
            assert np.abs(circuit_isometry(Circuit(t + k, [gate])) - want).max() <= 1e-13
        if inverse:  # the forward matrix is its conjugate, with the same residual
            assert unitarity_residual(block) <= 1e-13


def test_fourier_gate_is_printed_without_matrix():
    gate = FourierGate([1, 2], 3, inverse=True)
    assert gate.describe() == "fourier targets=[1, 2] m=3 inverse=True"
    assert gate.to_dict() == {"kind": "fourier", "targets": [1, 2], "m": 3, "inverse": True}
    assert gate.matrix is None  # a fourier gate holds only m and inverse
    assert Gate("fourier", (1, 2), m=3, inverse=True).to_dict() == gate.to_dict()


@pytest.mark.parametrize("m, inverse", [(1, False), (5, True), (7, False), (8, True)])
def test_fourier_gate_adjoint(m, inverse):
    gate = FourierGate([0, 1, 2], m, inverse)
    adjoint = gate.adjoint()
    assert (adjoint.kind, adjoint.wires, adjoint.m) == ("fourier", (0, 1, 2), m)
    assert adjoint.inverse is not inverse
    assert adjoint.matrix is None
    applied = [compile_circuit(Circuit(3, [g])) for g in (gate, adjoint)]
    assert np.abs(applied[1] - applied[0].conj().T).max() <= 1e-15
    back = adjoint.adjoint()
    assert back.to_dict() == gate.to_dict()
    assert compile_circuit(Circuit(3, [back])).tobytes() == applied[0].tobytes()
    # F' is symmetric bit for bit, so flipping ``inverse`` is its adjoint
    assert gate_matrix(adjoint).tobytes() == gate_matrix(gate).conj().T.tobytes()


@pytest.mark.parametrize(
    "gate",
    [SingleQubitGate(1, X), ControlledGate(0, 0, 1, S), CnotGate(1, 0), SwapGate(0, 2)]
    + [FourierGate([0, 1], 3), FourierGate([0, 1, 2], 8, inverse=True)],
    ids=["u", "cu", "cnot", "swap", "fourier", "inverse-fourier"],
)
def test_an_adjoint_is_built_through_the_checks(gate, monkeypatch):
    # the adjoint is a second gate, so it takes every check the first took
    checked = []
    post_init = Gate.__post_init__

    def counting(self):
        checked.append(self.kind)
        post_init(self)

    monkeypatch.setattr(Gate, "__post_init__", counting)
    adjoint = gate.adjoint()
    assert checked == [gate.kind] and adjoint.kind == gate.kind
    if gate.kind in ("u", "cu"):  # a matrix the check refuses is refused in the adjoint too
        monkeypatch.setattr(circuits, "unitarity_residual", lambda a: 1.0)
        with pytest.raises(InvalidGateError, match="unitary"):
            gate.adjoint()


@pytest.mark.parametrize(
    "make",
    [
        lambda: FourierGate([0, 1], 0),
        lambda: FourierGate([0, 1], 5),  # more than 2^k
        lambda: FourierGate([0], -1),
        lambda: FourierGate([0, 1], 3.0),
        lambda: FourierGate([0, 1], True),
        lambda: FourierGate([0, 1], None),
        lambda: FourierGate([], 1),
        lambda: FourierGate([1, 1], 2),
        lambda: Gate("fourier", (0, 1), one_shot_fourier(4), m=4),  # no unchecked matrix
        lambda: Gate("u", (0,), X, m=2),  # only a fourier gate takes m
        lambda: Gate("u", (0,), X, inverse=True),
        lambda: FourierGate([0, 2], 3),  # not a run of qubits
        lambda: FourierGate([1, 0], 3),  # not ascending
    ],
)
def test_fourier_gate_validation(make):
    with pytest.raises(InvalidGateError):
        make()


@pytest.mark.parametrize("inverse", ["False", "", 1, 0, None, 1.0, np.int64(1)])
def test_fourier_gate_inverse_must_be_a_bool(inverse):
    # any truthy value once built the inverse transform
    with pytest.raises(InvalidGateError, match="bool"):
        FourierGate([0, 1], 3, inverse=inverse)


@pytest.mark.parametrize("inverse", [False, True, np.False_, np.True_])
def test_fourier_gate_takes_a_numpy_bool(inverse):
    gate = FourierGate([0, 1], 3, inverse=inverse)
    assert gate.inverse is bool(inverse)


def test_fourier_gate_leaving_the_register():
    with pytest.raises(InvalidGateError):
        Circuit(2, [FourierGate([1, 2], 3)])


# ---------------------------------------------------------------- compilation


def test_compile_applies_gates_in_list_order():
    c = Circuit(1, [SingleQubitGate(0, X), SingleQubitGate(0, S)])
    expected = S @ X
    assert np.abs(compile_circuit(c) - expected).max() < 1e-15


def test_compile_empty_circuit_is_identity():
    assert np.abs(compile_circuit(Circuit(2, [])) - np.eye(4)).max() == 0


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_qft_circuit_compiles_to_fourier(l):
    c = qft_circuit(l)
    assert np.abs(compile_circuit(c) - one_shot_fourier(2**l)).max() < 1e-13


def test_qft_gate_counts():
    assert len(qft_circuit(1).gates) == 1
    assert len(qft_circuit(2).gates) == 4
    assert len(qft_circuit(3).gates) == 7
    assert len(qft_circuit(4).gates) == 12


def test_inverse_circuit():
    c = qft_circuit(3)
    inv = inverse_circuit(c)
    assert np.abs(
        compile_circuit(inv) - one_shot_fourier(8).conj().T
    ).max() < 1e-13
    back = inverse_circuit(inv)
    assert np.abs(compile_circuit(back) - compile_circuit(c)).max() < 1e-13


# ---------------------------------------------------------------- mixer fragment


@pytest.mark.parametrize("kind", [DODECAHEDRON, ICOSAHEDRON])
def test_orbit_mixer_adjoint_circuit(kind):
    c = orbit_mixer_adjoint_circuit(kind)
    assert c.n_qubits == 2
    assert len(c.gates) == 5
    target = orbit_mixer(kind).conj().T
    assert np.abs(compile_circuit(c) - target).max() < 1e-12


def test_mixer_fragment_seed_rotation_signs():
    c = orbit_mixer_adjoint_circuit(DODECAHEDRON)
    first = c.gates[0].matrix
    r5 = np.sqrt(5.0)
    v_plus = -np.sqrt(0.5 + np.sqrt((r5 - 1) / (8 * r5)))
    v_minus = np.sqrt(0.5 - np.sqrt((r5 - 1) / (8 * r5)))
    assert abs(first[0, 0] - v_minus) < 1e-14
    assert abs(first[0, 1] - v_plus) < 1e-14


# ---------------------------------------------------------------- synthesis


def synthesis_matrix():
    families = [PovmFamily.cyclic(m) for m in (2, 3, 4, 5, 8, 16)]
    families += [PovmFamily.dihedral(m, 0.6, 0.8) for m in (2, 3, 4, 5, 6, 8)]
    families += [PovmFamily.platonic(kind) for kind in PLATONIC_KINDS]
    return families


@pytest.mark.parametrize("family", synthesis_matrix(), ids=lambda f: f.label())
def test_synthesized_circuit_compiles_to_dilation_adjoint(family):
    d = structured_dilation(build_povm(family))
    c = synthesize_circuit(d)
    assert c.n_qubits == d.n_qubits
    assert np.abs(compile_circuit(c) - d.matrix.conj().T).max() < 1e-12


@pytest.mark.parametrize("family", synthesis_matrix(), ids=lambda f: f.label())
def test_inverse_circuit_compiles_to_the_dilation(family):
    d = structured_dilation(build_povm(family))
    inverse = inverse_circuit(synthesize_circuit(d))
    assert inverse.n_qubits == d.n_qubits
    assert np.abs(compile_circuit(inverse) - d.matrix).max() < 1e-12


def test_gate_count_pins():
    def count(family):
        d = structured_dilation(build_povm(family))
        return len(synthesize_circuit(d).gates)

    assert count(PovmFamily.cyclic(3)) == 1  # one padded Fourier block
    assert count(PovmFamily.cyclic(4)) == 4  # inverse qft
    assert count(PovmFamily.dihedral(3, 0.6, 0.8)) == 3
    assert count(PovmFamily.platonic("tetrahedron")) == 4
    assert count(PovmFamily.platonic("cube")) == 3
    assert count(PovmFamily.platonic("octahedron")) == 3
    assert count(PovmFamily.platonic("dodecahedron")) == 7
    assert count(PovmFamily.platonic("icosahedron")) == 7


@pytest.mark.parametrize("family", synthesis_matrix(), ids=lambda f: f.label())
def test_block_budget(family):
    d = structured_dilation(build_povm(family))
    c = synthesize_circuit(d)
    # a fourier gate counts as the dense block F' it applies
    blocks = [g for g in c.gates if g.kind == "fourier"]
    assert len(blocks) <= 1
    for g in blocks:
        assert 2 ** len(g.wires) <= 8


@pytest.mark.parametrize(
    "family",
    [*synthesis_matrix(), PovmFamily.cyclic(4095), PovmFamily.dihedral_from_angle(2048, 1.0)],
    ids=lambda f: f.label(),
)
def test_synthesis_checks_no_matrix_wider_than_two_qubits(family, monkeypatch):
    # the Fourier factor is unitary by construction, so no r x r check remains
    d = structured_dilation(build_povm(family))
    widths = []

    def spy(a):
        widths.append(len(a))
        return unitarity_residual(a)

    monkeypatch.setattr(circuits, "unitarity_residual", spy)
    synthesize_circuit(d)
    assert max(widths, default=0) <= 4


def test_synthesize_rejects_generic_completion():
    d = generic_completion(cyclic_povm(3))
    with pytest.raises(InvalidParameterError):
        synthesize_circuit(d)


def test_complex_seed_synthesis():
    d = structured_dilation(dihedral_povm(3, 0.6, 0.8j))
    c = synthesize_circuit(d)
    assert np.abs(compile_circuit(c) - d.matrix.conj().T).max() < 1e-12


UNIT = st.floats(-1.0, 1.0)


@given(
    theta=st.floats(0.15, np.pi - 0.15, exclude_min=True, exclude_max=True),
    phi=st.floats(0.0, 2 * np.pi, exclude_max=True),
    m=st.integers(2, 64),
    amplitudes=st.tuples(UNIT, UNIT, UNIT, UNIT),
    weight=st.floats(0.0, 1.0),
)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_dihedral_seeds_synthesize_exactly(theta, phi, m, amplitudes, weight):
    beta = np.sin(theta / 2) * np.exp(1j * phi)
    try:
        povm = dihedral_povm(m, np.cos(theta / 2), beta)
    except DegenerateOrbitError:
        assume(False)
    psi = np.array([amplitudes[0] + 1j * amplitudes[1], amplitudes[2] + 1j * amplitudes[3]])
    assume(np.linalg.norm(psi) > 0.1)
    psi /= np.linalg.norm(psi)
    rho = weight * np.outer(psi, psi.conj()) + (1 - weight) * np.eye(2) / 2

    d = structured_dilation(povm)
    c = synthesize_circuit(d)
    # no global phase alignment: the circuit is the adjoint itself
    assert np.abs(compile_circuit(c) - d.matrix.conj().T).max() <= 1e-12
    assert d.unitarity_residual() <= 1e-10
    assert d.embedding_residual() <= 1e-10
    expected = analytic_probabilities(povm, rho)
    assert np.abs(circuit_probabilities(d, c, rho) - expected).max() <= 1e-9


# ---------------------------------------------------------------- export


def test_circuit_json_kinds():
    d = structured_dilation(dihedral_povm(3, 0.6, 0.8))
    data = synthesize_circuit(d).to_dict()
    kinds = [g["kind"] for g in data["gates"]]
    assert kinds == ["cu", "cu", "fourier"]
    assert data["n_qubits"] == 3
    cu = data["gates"][0]
    assert cu["control"] == 2 and cu["control_value"] == 1 and cu["target"] == 0
    # the odd block's adjoint with its columns swapped: the half swap folded in
    matrix = [[complex(*z) for z in row] for row in cu["matrix"]]
    assert matrix == [[0.8, 0.6], [0.6, -0.8]]
    assert data["gates"][2] == {"kind": "fourier", "targets": [1, 2], "m": 3, "inverse": True}


def test_circuit_json_swap_and_u():
    data = qft_circuit(2).to_dict()
    kinds = [g["kind"] for g in data["gates"]]
    assert kinds == ["u", "cu", "u", "swap"]
    assert data["gates"][3]["qubits"] == [0, 1]


def test_format_circuit():
    d = structured_dilation(platonic_povm("cube"))
    text = format_circuit(synthesize_circuit(d))
    lines = text.splitlines()
    assert len(lines) == 4  # header plus one line per gate
    assert "cnot" in lines[1]
    assert lines[3].endswith("fourier targets=[1, 2] m=4 inverse=False")


def test_compiled_circuits_are_unitary():
    for family in synthesis_matrix():
        d = structured_dilation(build_povm(family))
        u = compile_circuit(synthesize_circuit(d))
        assert unitarity_residual(u) < 1e-12


@pytest.mark.parametrize("family", golden_families(), ids=lambda f: f.label())
def test_structured_circuit_is_the_synthesized_circuit(family):
    povm = build_povm(family)
    circuit = structured_circuit(povm)
    want = synthesize_circuit(structured_dilation(povm))
    assert (circuit.n_qubits, circuit.label) == (want.n_qubits, want.label)
    assert circuit.to_dict() == want.to_dict()
    for gate, wanted in zip(circuit.gates, want.gates):
        assert (gate.kind, gate.wires) == (wanted.kind, wanted.wires)
        assert gate_matrix(gate).tobytes() == gate_matrix(wanted).tobytes()


def test_structured_circuit_builds_no_register_matrix():
    # at 12 qubits one r x r complex matrix takes 256 MB, one column 64 KB
    povm = build_povm(PovmFamily.cyclic(4095))
    tracemalloc.start()
    try:
        circuit = structured_circuit(povm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    assert [g.describe() for g in circuit.gates] == [
        "fourier targets=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11] m=4095 inverse=True"
    ]


# ---------------------------------------------------------------- shared gates


def test_gates_are_immutable():
    gates = [
        SingleQubitGate(0, X),
        ControlledGate(0, 1, 1, S),
        CnotGate(0, 1),
        SwapGate(0, 1),
        FourierGate([0, 1], 3),
    ]
    for gate in gates:
        for name in ("kind", "wires", "matrix", "m", "inverse", "_kernel", "label"):
            with pytest.raises(AttributeError):
                setattr(gate, name, None)
            with pytest.raises(AttributeError):
                delattr(gate, name)
        adjoint = gate.adjoint()
        assert (adjoint.kind, adjoint.wires) == (gate.kind, gate.wires)
        assert np.array_equal(gate_matrix(adjoint), gate_matrix(gate).conj().T)
        with pytest.raises(AttributeError):
            adjoint.wires = (1, 0)
        assert adjoint.adjoint().describe() == gate.describe()
        for copied in (copy.copy(gate), copy.deepcopy(gate)):
            assert copied.to_dict() == gate.to_dict()


@pytest.mark.parametrize(
    "build",
    [lambda: qft_circuit(3), lambda: orbit_mixer_adjoint_circuit(DODECAHEDRON)]
    + [lambda k=kind: structured_circuit(platonic_povm(k)) for kind in PLATONIC_KINDS]
    + [lambda m=m: structured_circuit(cyclic_povm(m)) for m in (5, 16)]
    + [lambda: structured_circuit(dihedral_povm(5, 0.6, 0.8))],
)
def test_a_returned_circuit_does_not_reach_the_shared_gates(build):
    first = build()
    want = [g.describe() for g in first.gates]
    first.gates.append(SingleQubitGate(0, X))
    first.gates[0] = SwapGate(0, 1)
    first.gates.reverse()
    again = build()
    assert again.gates is not first.gates
    assert [g.describe() for g in again.gates] == want


def _verify_families():
    families = [PovmFamily.cyclic(m) for m in (5, 16, 256)]
    families += [PovmFamily.dihedral(5, 0.6, 0.8)]
    return families + [PovmFamily.platonic(kind) for kind in PLATONIC_KINDS]


def test_verify_builds_no_gate_after_a_first_call(monkeypatch):
    families = _verify_families()
    for family in families:
        verify_family(family, n_states=2)
    built = []
    init = Gate.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(Gate, "__init__", counting)
    # verify's checked structures are kept: a warm call builds nothing
    for family in families:
        assert verify_family(family, n_states=2).passed
    assert built == []
    # a cold record builds a dihedral ring's three gates for the dilation's
    # factors, then again for the circuit
    clear_kept_structures()
    verify_family(PovmFamily.dihedral(5, 0.6, 0.8), n_states=2)
    assert built == ["fourier", "cu", "cu"] * 2


def test_the_kernel_classifies_no_package_built_gate(monkeypatch):
    families = _verify_families()
    circuits_ = [structured_circuit(build_povm(f)) for f in families]
    circuits_ += [qft_circuit(4), inverse_circuit(qft_circuit(3))]
    for family in families:  # warm verify's checked structures
        verify_family(family, n_states=2)
    classified = {module: [] for module in (linalg, circuits, dilation)}

    def spy(module):
        def classify(u, targets):
            classified[module].append(type(u).__name__)
            return _kernel(u, targets)

        return classify

    for module in classified:
        monkeypatch.setattr(module, "_kernel", spy(module))
    for circuit in circuits_:
        state = np.eye(2**circuit.n_qubits, 3)
        assert np.abs(compile_circuit(circuit)[:, :3] - apply_circuit(circuit, state)).max() < 1e-15
        circuit_isometry(circuit)
    # a warm verify classifies nothing
    for family in families:
        verify_family(family, n_states=2)
    assert not any(classified.values())
    # a cold record classifies a dihedral ring's two dilation factors once,
    # and its three gates as they are built, for the dilation and the circuit
    clear_kept_structures()
    verify_family(PovmFamily.dihedral(5, 0.6, 0.8), n_states=2)
    assert classified[dilation] == ["Fourier", "ndarray"]
    assert classified[circuits] == ["Fourier", "ndarray", "ndarray"] * 2
    # a raw matrix given to apply_gates is classified on every call
    assert classified[linalg] == []
    apply_gates([(X, [0])], np.eye(2))
    apply_gates([(X, [0])], np.eye(2))
    assert classified[linalg] == ["ndarray", "ndarray"]


@pytest.mark.parametrize("order", [1, -1], ids=["plus-zero-first", "minus-zero-first"])
def test_families_equal_but_for_a_zero_sign_are_one_family(order):
    # the family turns beta's -0.0 imaginary part into +0.0, so the two are
    # one family, with one kept structure and one printed circuit; the
    # circuits are compared as text, because == on floats does not see a
    # zero's sign
    families = [PovmFamily.dihedral(8, 0.6, 0.8 + 0j), PovmFamily.dihedral(8, 0.6, complex(0.8, -0.0))]
    families = families[::order]
    assert families[0] == families[1] and hash(families[0]) == hash(families[1])
    printed = [json.dumps(structured_circuit(build_povm(f)).to_dict()["gates"]) for f in families]
    assert printed[0] == printed[1]
    clear_kept_structures()
    reports = [verify_family(f, n_states=2).to_dict() for f in families]
    info = simulate._structure.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert reports[0] == reports[1]
