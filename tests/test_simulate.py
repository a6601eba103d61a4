"""Oracle tests for probability computation, sampling and verification."""

import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from povmkit.bloch import validate_density_matrix
from povmkit import circuits, simulate
from povmkit.circuits import (
    Circuit,
    ControlledGate,
    SingleQubitGate,
    SwapGate,
    circuit_isometry,
    compile_circuit,
    qft_circuit,
    synthesize_circuit,
)
from povmkit.cli import default_verify_matrix
from povmkit.dilation import (
    DilatedMeasurement,
    generic_completion,
    structured_circuit,
    structured_dilation,
)
from povmkit.errors import (
    CircuitMismatchError,
    InvalidParameterError,
    InvalidStateError,
    PaddingLeakError,
    PhaseUndefinedWarning,
)
from povmkit.families import (
    PLATONIC_KINDS,
    PovmFamily,
    build_povm,
    cyclic_povm,
    platonic_povm,
    rotate_povm,
)
from povmkit.linalg import distance_up_to_global_phase
from povmkit.simulate import (
    CIRCUIT_DISTANCE_TOL,
    DEFAULT_SEED,
    DILATION_TOL,
    SampleCounts,
    VerificationReport,
    analytic_probabilities,
    circuit_probabilities,
    dilation_probabilities,
    random_density_matrices,
    random_density_matrix,
    random_pure_state,
    sample,
    verify_family,
)

from helpers import RawGate

MIXED = np.eye(2) / 2
PLUS = np.full((2, 2), 0.5)


def family_matrix():
    families = [PovmFamily.cyclic(m) for m in (2, 3, 4, 5, 8, 16)]
    families += [PovmFamily.dihedral(m, 0.6, 0.8) for m in (2, 3, 4, 5, 6, 8)]
    families += [PovmFamily.platonic(kind) for kind in PLATONIC_KINDS]
    return families


# ---------------------------------------------------------------- analytic


def test_cyclic_on_maximally_mixed():
    p = analytic_probabilities(cyclic_povm(4), MIXED)
    assert np.abs(p - 0.25).max() < 1e-15


def test_cyclic_on_plus_state():
    p = analytic_probabilities(cyclic_povm(3), PLUS)
    assert np.abs(p - np.array([2 / 3, 1 / 6, 1 / 6])).max() < 1e-14


def test_tetrahedron_on_ground_state():
    rho = np.diag([1.0, 0.0])
    p = analytic_probabilities(platonic_povm("tetrahedron"), rho)
    hi = (3 + np.sqrt(3)) / 12
    lo = (3 - np.sqrt(3)) / 12
    assert np.abs(p - np.array([hi, hi, lo, lo])).max() < 1e-14


def test_analytic_validates_state():
    with pytest.raises(InvalidStateError):
        analytic_probabilities(cyclic_povm(3), np.array([[1.0, 0.5], [0.0, 0.0]]))


@pytest.mark.parametrize("family", family_matrix(), ids=lambda f: f.label())
def test_stacked_analytic_matches_per_state(family):
    povm = build_povm(family)
    rhos = random_density_matrices(np.random.default_rng(11), 20)
    loop = np.array([analytic_probabilities(povm, rho) for rho in rhos])
    stacked = analytic_probabilities(povm, rhos)
    assert stacked.shape == (20, povm.n)
    assert np.abs(stacked - loop).max() <= 1e-15
    grid = analytic_probabilities(povm, rhos.reshape(4, 5, 2, 2))
    assert np.array_equal(grid.reshape(20, povm.n), stacked)


BAD_STATES = {
    "non-finite": np.array([[np.nan, 0.0], [0.0, 0.5]]),
    "non-Hermitian": np.array([[0.5, 0.1], [0.3, 0.5]]),
    "trace": np.diag([0.6, 0.6]),
    "negative": 0.5 * np.diag([2.2, -0.2]),
}


@pytest.mark.parametrize("kind", sorted(BAD_STATES))
@pytest.mark.parametrize("index", range(5))
def test_one_bad_state_fails_the_stack(kind, index):
    bad = BAD_STATES[kind]
    with pytest.raises(InvalidStateError) as alone:
        validate_density_matrix(bad)
    rhos = random_density_matrices(np.random.default_rng(index), 5)
    rhos[index] = bad
    with pytest.raises(type(alone.value)) as stacked:
        validate_density_matrix(rhos)
    assert str(stacked.value) == str(alone.value)
    with pytest.raises(type(alone.value)):
        analytic_probabilities(cyclic_povm(3), rhos)


def test_register_paths_take_a_stack():
    povm = build_povm(PovmFamily.dihedral(3, 0.6, 0.8))
    dilated = structured_dilation(povm)
    circuit = synthesize_circuit(dilated)
    rhos = random_density_matrices(np.random.default_rng(5), 6)
    for path in (
        lambda rho: dilation_probabilities(dilated, rho),
        lambda rho: circuit_probabilities(dilated, circuit, rho),
    ):
        loop = np.array([path(rho) for rho in rhos])
        assert np.abs(path(rhos) - loop).max() <= 1e-15


@pytest.mark.parametrize("family", family_matrix(), ids=lambda f: f.label())
def test_analytic_probabilities_normalize(family):
    povm = build_povm(family)
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(5):
        p = analytic_probabilities(povm, random_density_matrix(rng))
        assert p.min() > -1e-14
        assert abs(p.sum() - 1.0) < 1e-12


# ---------------------------------------------------------------- dilation and circuit


@pytest.mark.parametrize("family", family_matrix(), ids=lambda f: f.label())
@pytest.mark.parametrize("method", ["structured", "generic"])
def test_dilation_probabilities_match_analytic(family, method):
    povm = build_povm(family)
    build = structured_dilation if method == "structured" else generic_completion
    d = build(povm)
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(5):
        rho = random_density_matrix(rng)
        expected = analytic_probabilities(povm, rho)
        got = dilation_probabilities(d, rho)
        assert np.abs(got - expected).max() < 1e-12


@pytest.mark.parametrize("family", family_matrix(), ids=lambda f: f.label())
def test_circuit_probabilities_match_analytic(family):
    povm = build_povm(family)
    d = structured_dilation(povm)
    c = synthesize_circuit(d)
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(5):
        rho = random_density_matrix(rng)
        expected = analytic_probabilities(povm, rho)
        got = circuit_probabilities(d, c, rho)
        assert np.abs(got - expected).max() < 1e-12


@pytest.mark.parametrize("family", family_matrix(), ids=lambda f: f.label())
def test_pure_state_circuit_probabilities_match_analytic(family):
    povm = build_povm(family)
    d = structured_dilation(povm)
    c = synthesize_circuit(d)
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(3):
        psi = random_pure_state(rng)
        rho = np.outer(psi, psi.conj())
        got = circuit_probabilities(d, c, rho)
        assert np.abs(got - analytic_probabilities(povm, rho)).max() < 1e-12


@pytest.mark.parametrize("family", family_matrix(), ids=lambda f: f.label())
def test_stacked_circuit_probabilities_match_per_state(family):
    povm = build_povm(family)
    d = structured_dilation(povm)
    c = synthesize_circuit(d)
    rhos = random_density_matrices(np.random.default_rng(13), 6)
    loop = np.array([circuit_probabilities(d, c, rho) for rho in rhos])
    stacked = circuit_probabilities(d, c, rhos.reshape(2, 3, 2, 2))
    assert stacked.shape == (2, 3, povm.n)
    assert np.abs(stacked.reshape(6, povm.n) - loop).max() <= 1e-15


def test_circuit_probabilities_require_unit_trace():
    d = structured_dilation(cyclic_povm(3))
    c = synthesize_circuit(d)
    with pytest.raises(InvalidStateError):
        circuit_probabilities(d, c, np.ones((2, 2)))


@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("psi", [[np.nan, 0], [0, np.inf], [np.nan, np.nan]])
def test_circuit_probabilities_reject_non_finite_input(m, psi):
    # a non-finite pure state must fail validation, not reach the register:
    # there cyclic(4) gave NaN probabilities and cyclic(3) a padding leak
    d = structured_dilation(cyclic_povm(m))
    c = synthesize_circuit(d)
    psi = np.array(psi, dtype=complex)
    with np.errstate(invalid="ignore"):  # inf * 0
        rho = np.outer(psi, psi.conj())
    with pytest.raises(InvalidStateError):
        circuit_probabilities(d, c, rho)


@pytest.mark.parametrize("rho", [MIXED, np.diag([1.0, 0.0])], ids=["mixed", "pure"])
def test_circuit_mismatch_detection(rho):
    d = structured_dilation(cyclic_povm(4))
    wrong = qft_circuit(2)  # forward transform instead of the adjoint
    with pytest.raises(CircuitMismatchError):
        circuit_probabilities(d, wrong, rho)


def test_probabilities_refuse_a_dilation_of_another_measurement():
    # a structured dilation reads only the family, so it embeds the
    # unrotated ring: read through it, |0><0| gave [0.25] * 4
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    povm = rotate_povm(cyclic_povm(4), hadamard)
    rho = np.diag([1.0, 0.0])
    expected = analytic_probabilities(povm, rho)
    assert np.abs(expected - [0.5, 0.25, 0.0, 0.25]).max() < 1e-15
    d = structured_dilation(povm)
    with pytest.raises(InvalidParameterError):
        dilation_probabilities(d, rho)
    with pytest.raises(InvalidParameterError):
        circuit_probabilities(d, synthesize_circuit(d), rho)
    generic = generic_completion(povm)
    assert np.abs(dilation_probabilities(generic, rho) - expected).max() < 1e-12


def _drop_last_gate(circuit):
    return Circuit(circuit.n_qubits, circuit.gates[:-1])


def _phase_last_gate(circuit):
    """A 1e-6 phase on the last gate's first wire reading 0, after that gate."""
    phase = SingleQubitGate(circuit.gates[-1].wires[0], np.diag([np.exp(1e-6j), 1.0]))
    return Circuit(circuit.n_qubits, circuit.gates + [phase])


def _append_output_swap(circuit):
    return Circuit(circuit.n_qubits, circuit.gates + [SwapGate(0, circuit.n_qubits - 1)])


# a two-outcome register has one qubit, and no pair to swap
CORRUPTIONS = [
    pytest.param(family, corrupt, id=f"{corrupt.__name__[1:]}-{family.label()}")
    for family in default_verify_matrix()
    for corrupt in (_drop_last_gate, _phase_last_gate, _append_output_swap)
    if family.n_outcomes > 2 or corrupt is not _append_output_swap
]


@pytest.mark.parametrize("family, corrupt", CORRUPTIONS)
def test_two_column_check_rejects_corruptions(family, corrupt):
    d = structured_dilation(build_povm(family))
    circuit = synthesize_circuit(d)
    wrong = corrupt(circuit)
    # the corruption reaches the columns a qubit state enters on; a zero
    # overlap, which warns that the phase is undefined, is a shift as well
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PhaseUndefinedWarning)
        shift = distance_up_to_global_phase(
            circuit_isometry(wrong), circuit_isometry(circuit)
        )
    assert shift > CIRCUIT_DISTANCE_TOL
    with pytest.raises(CircuitMismatchError):
        circuit_probabilities(d, wrong, MIXED)
    psi = np.array([0.6, 0.8j])
    with pytest.raises(CircuitMismatchError):
        circuit_probabilities(d, wrong, np.outer(psi, psi.conj()))


def test_two_column_check_accepts_a_change_outside_them():
    # the inverse QFT opens with swap(1, 2), which fixes basis states 0 and 1
    d = structured_dilation(cyclic_povm(16))
    circuit = synthesize_circuit(d)
    first = circuit.gates[0]
    assert (first.kind, first.wires) == ("swap", (1, 2))
    trimmed = Circuit(circuit.n_qubits, circuit.gates[1:])
    assert distance_up_to_global_phase(
        compile_circuit(trimmed), compile_circuit(circuit)
    ) > CIRCUIT_DISTANCE_TOL
    rho = random_density_matrix(np.random.default_rng(2))
    assert np.array_equal(
        circuit_probabilities(d, trimmed, rho), circuit_probabilities(d, circuit, rho)
    )
    psi = random_pure_state(np.random.default_rng(3))
    pure = np.outer(psi, psi.conj())
    assert np.array_equal(
        circuit_probabilities(d, trimmed, pure), circuit_probabilities(d, circuit, pure)
    )


@pytest.mark.parametrize(
    "family",
    [PovmFamily.cyclic(1024), PovmFamily.dihedral(128, 0.6, 0.8)],
    ids=lambda f: f.label(),
)
def test_probability_paths_never_compile(family, monkeypatch):
    def refuse(circuit):
        raise AssertionError("compile_circuit called")

    monkeypatch.setattr(circuits, "compile_circuit", refuse)
    monkeypatch.setattr(simulate, "compile_circuit", refuse)
    povm = build_povm(family)
    d = structured_dilation(povm)
    c = synthesize_circuit(d)
    rng = np.random.default_rng(4)
    rho = random_density_matrix(rng)
    psi = random_pure_state(rng)
    expected = analytic_probabilities(povm, rho)
    assert np.abs(circuit_probabilities(d, c, rho) - expected).max() < 1e-12
    pure = np.outer(psi, psi.conj())
    expected = analytic_probabilities(povm, pure)
    assert np.abs(circuit_probabilities(d, c, pure) - expected).max() < 1e-12


def test_distinct_instances_compare_unequal():
    family = PovmFamily.platonic("cube")
    povm = build_povm(family)  # shared, so the dilations differ in arrays only
    for make in (
        lambda: build_povm(family),
        lambda: structured_dilation(povm),
        lambda: sample([0.5, 0.5], 10, seed=1),
    ):
        a, b = make(), make()
        assert (a == b) is False
        assert a == a


ZERO = np.diag([1.0, 0.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", [1e-3, np.nan], ids=["leak-1e-6", "nan"])
def test_dilation_probabilities_report_padding_leak(entry):
    # cyclic 3 pads basis state 3, which row 0 of U now reaches: from |0><0|
    # it carries |entry|^2.  Rows 0-1 are no longer the measurement's, and
    # the leak is raised before that embedding error
    d = structured_dilation(cyclic_povm(3))
    assert d.padding_positions.tolist() == [3]
    d.matrix[0, 3] = entry
    assert not d.embedding_residual() <= DILATION_TOL
    with pytest.raises(PaddingLeakError):
        dilation_probabilities(d, ZERO)
    with pytest.raises(PaddingLeakError):
        dilation_probabilities(d, MIXED)


def test_dilation_probabilities_report_a_leak_before_an_embedding_error():
    d = structured_dilation(cyclic_povm(3))
    d.matrix[0, 0] += 1e-6  # an outcome column of row 0 is no longer the measurement's
    with pytest.raises(InvalidParameterError, match="from its measurement"):
        dilation_probabilities(d, ZERO)
    d.matrix[0, 3] = 1e-3
    with pytest.raises(PaddingLeakError):
        dilation_probabilities(d, ZERO)


def _own_dilation(povm, circuit):
    """The adjoint of the circuit's compiled matrix as a dilation of povm, so
    that the circuit passes the two-column check against it."""
    u = compile_circuit(circuit)
    return DilatedMeasurement(povm, u.conj().T, np.arange(povm.n), "structured"), u


@pytest.mark.filterwarnings("error")
def test_circuit_probabilities_report_padding_leak():
    povm = cyclic_povm(3)
    circuit = structured_circuit(povm)
    d, _ = _own_dilation(povm, circuit)
    assert np.abs(circuit_probabilities(d, circuit, ZERO) - [1 / 3] * 3).max() < 1e-15
    # then a rotation controlled by qubit 0 moves 3e-6 of basis state 2,
    # which carries 1/3 from |0><0|, into the padding state 3
    s = np.sqrt(3e-6)
    rotation = np.array([[np.sqrt(1 - s * s), -s], [s, np.sqrt(1 - s * s)]])
    tampered = Circuit(2, circuit.gates + [ControlledGate(0, 1, 1, rotation)])
    d, u = _own_dilation(povm, tampered)
    assert abs(abs(u[3, 0]) ** 2 - 1e-6) < 1e-15
    # a unitary cannot move probability into the padding and keep its
    # outcome rows: the leak is raised before that embedding error
    assert d.embedding_residual() > DILATION_TOL
    with pytest.raises(PaddingLeakError, match="1.000e-06"):
        circuit_probabilities(d, tampered, ZERO)
    with pytest.raises(PaddingLeakError):
        circuit_probabilities(d, tampered, MIXED)


@pytest.mark.filterwarnings("error")
def test_circuit_probabilities_refuse_a_nan_in_the_padding():
    """A NaN the circuit puts in the padding is in its own two columns, and
    so fails the two-column check, which runs before the fold: a
    CircuitMismatchError, where the dilation path raises PaddingLeakError."""
    povm = cyclic_povm(3)
    circuit = structured_circuit(povm)
    # a gate is checked when built, so the NaN comes in an unchecked one
    nan_phase = RawGate((0, 1), np.diag([1, 1, 1, np.nan]).astype(complex))  # only basis state 3
    tampered = Circuit(2, circuit.gates + [nan_phase])
    d, u = _own_dilation(povm, tampered)
    assert np.isnan(u[3]).all() and np.isfinite(u[:3]).all()
    with pytest.raises(CircuitMismatchError):
        circuit_probabilities(d, tampered, ZERO)
    with pytest.raises(PaddingLeakError):
        dilation_probabilities(d, ZERO)


# ---------------------------------------------------------------- sampling


def test_sample_matches_pinned_algorithm():
    probs = [0.25, 0.25, 0.25, 0.25]
    rng = np.random.Generator(np.random.PCG64(0x5EED))
    u = rng.random(1000)
    idx = np.minimum(
        np.searchsorted(np.cumsum(probs), u, side="right"), 3
    )
    expected = np.bincount(idx, minlength=4)
    got = sample(probs, 1000)
    assert got.seed == 0x5EED == DEFAULT_SEED
    assert np.array_equal(got.counts, expected)
    assert got.counts.sum() == 1000


def test_sample_is_reproducible():
    p = [2 / 3, 1 / 6, 1 / 6]
    a = sample(p, 5000, seed=42)
    b = sample(p, 5000, seed=42)
    c = sample(p, 5000, seed=43)
    assert a.counts.tobytes() == b.counts.tobytes()
    assert not np.array_equal(a.counts, c.counts)


def test_sample_frequencies_converge():
    p = analytic_probabilities(cyclic_povm(4), MIXED)
    counts = sample(p, 100_000)
    tv = 0.5 * np.abs(counts.frequencies() - p).sum()
    assert tv < 0.02


@pytest.mark.parametrize("probs", [[1.0], [0.25] * 5, [[0.25] * 4], 0.25, [[0.25], [0.25]]])
def test_total_variation_needs_one_probability_per_outcome(probs):
    counts = sample([0.25] * 4, 1000, 1)
    # broadcast against the four frequencies, [1.0] would give 1.5
    with pytest.raises(InvalidParameterError, match="shape"):
        counts.total_variation(probs)
    tv = counts.total_variation([0.25] * 4)
    assert tv == 0.5 * np.abs(counts.frequencies() - 0.25).sum() <= 1


def test_sample_validation():
    with pytest.raises(InvalidParameterError):
        sample([0.5, 0.6], 10)
    with pytest.raises(InvalidParameterError):
        sample([1.5, -0.5], 10)
    with pytest.raises(InvalidParameterError):
        sample([0.5, 0.5], 0)


def test_sample_rejects_negative_seed():
    with pytest.raises(InvalidParameterError):
        sample([0.5, 0.5], 10, seed=-1)
    assert sample([0.5, 0.5], 10, seed=0).counts.sum() == 10


@pytest.mark.parametrize(
    "probs",
    [[np.nan, 1.0], [0.5, np.nan, 0.5], [np.inf, 1.0], [np.inf, -np.inf, 1.0]],
    ids=["nan-first", "nan-middle", "inf", "inf-minus-inf"],
)
def test_sample_rejects_non_finite_probabilities(probs):
    with pytest.raises(InvalidParameterError):
        sample(probs, 10, 1)


@pytest.mark.parametrize(
    "probs", [[], np.zeros((0, 2)), [[0.5, 0.5]], [[0.25, 0.25], [0.25, 0.25]], 1.0],
    ids=["empty", "empty-2d", "row", "matrix", "scalar"],
)
def test_sample_rejects_empty_or_non_vector_probabilities(probs):
    with pytest.raises(InvalidParameterError):
        sample(probs, 10, 1)


@pytest.mark.parametrize("shots", [2.5, 10.0, True, "10", None])
def test_sample_rejects_non_integral_shots(shots):
    with pytest.raises(InvalidParameterError):
        sample([0.5, 0.5], shots, 1)
    assert sample([0.5, 0.5], np.int64(10), 1).counts.sum() == 10


@pytest.mark.parametrize("shots", [2**63, np.uint64(2**63), 10**30])
def test_sample_refuses_more_shots_than_its_counts_hold(shots):
    """Refused before any word is drawn: int64 counts hold at most 2^63 - 1."""
    with pytest.raises(InvalidParameterError, match=r"2\^63 - 1"):
        sample([0.5, 0.5], shots, 1)


@pytest.mark.parametrize("seed", [2.5, True, None])
def test_sample_rejects_non_integral_seed(seed):
    with pytest.raises(InvalidParameterError):
        sample([0.5, 0.5], 10, seed)


def test_sample_counts_export():
    counts = sample([0.5, 0.5], 100, seed=1)
    data = counts.to_dict()
    assert data["shots"] == 100
    assert data["seed"] == 1
    assert sum(data["counts"]) == 100


# ---------------------------------------------------------------- random states


def test_random_density_matrix_is_valid():
    from povmkit.bloch import validate_density_matrix

    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(20):
        validate_density_matrix(random_density_matrix(rng))


def _reference_density_matrix(rng):
    """The per-state formula the stacked builder must reproduce bit for bit."""
    psi = random_pure_state(rng)
    weight = rng.random()
    return weight * np.outer(psi, psi.conj()) + (1 - weight) * np.eye(2) / 2


@given(st.integers(min_value=1, max_value=64), st.integers(0, 2**32 - 1))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_stacked_states_equal_the_per_state_stream(n, seed):
    stacked = random_density_matrices(np.random.default_rng(seed), n)
    rng = np.random.default_rng(seed)
    single = np.array([random_density_matrix(rng) for _ in range(n)])
    rng = np.random.default_rng(seed)
    reference = np.array([_reference_density_matrix(rng) for _ in range(n)])
    assert stacked.shape == (n, 2, 2)
    assert np.array_equal(stacked, single)
    assert np.array_equal(stacked, reference)


class _StubGenerator:
    """Normals of magnitude e^-30 to e^30 and fixed weights, counting calls.

    Over so wide a range, other formulas for the norm (``(x * x).sum()``,
    ``einsum``) round differently from ``np.linalg.norm``.
    """

    WEIGHTS = (0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53)

    def __init__(self, seed):
        source = np.random.default_rng(seed)
        signs = source.choice([-1.0, 1.0], 4 * 64)
        self.normals = iter(signs * np.exp(source.uniform(-30.0, 30.0, 4 * 64)))
        self.weights = iter(self.WEIGHTS * 13)
        self.calls = {"standard_normal": 0, "random": 0}

    def standard_normal(self, size=None, out=None):
        self.calls["standard_normal"] += 1
        target = np.empty(size) if out is None else out
        for i in range(target.size):
            target[i] = next(self.normals)
        return target

    def random(self):
        self.calls["random"] += 1
        return next(self.weights)


@pytest.mark.parametrize("seed", range(8))
def test_stacked_states_equal_the_norm_reference_over_a_wide_range(seed):
    stacked = random_density_matrices(_StubGenerator(seed), 64)
    rng = _StubGenerator(seed)
    reference = np.array([_reference_density_matrix(rng) for _ in range(64)])
    assert stacked.tobytes() == reference.tobytes()


def test_stacked_states_take_two_generator_calls_each_and_no_norm(monkeypatch):
    def norm(*args, **kwargs):
        raise AssertionError("np.linalg.norm called")

    monkeypatch.setattr(np.linalg, "norm", norm)
    rng = _StubGenerator(0)
    random_density_matrices(rng, 64)
    assert rng.calls == {"standard_normal": 64, "random": 64}


def test_random_pure_state_is_normalized():
    rng = np.random.Generator(np.random.PCG64(0))
    for _ in range(10):
        assert abs(np.linalg.norm(random_pure_state(rng)) - 1.0) < 1e-12


# ---------------------------------------------------------------- verification


def test_verify_structured_cyclic():
    report = verify_family(PovmFamily.cyclic(3), n_states=10)
    assert report.passed
    assert report.error is None
    assert report.method == "structured"
    assert report.gate_count == 1
    assert report.completeness_residual < 1e-12
    assert report.unitarity_residual < 1e-12
    assert report.embedding_residual < 1e-12
    assert report.circuit_distance < 1e-12
    assert report.max_probability_error < 1e-12
    assert report.max_padding_probability < 1e-14
    assert report.states_checked == 10


def test_verify_all_families_pass():
    for family in family_matrix():
        report = verify_family(family, n_states=5)
        assert report.passed, (family.label(), report.failures)


def test_verify_generic_method():
    report = verify_family(
        PovmFamily.platonic("icosahedron"), n_states=5, method="generic"
    )
    assert report.passed
    assert report.method == "generic"
    assert report.circuit_distance is None
    assert report.gate_count is None
    assert report.max_probability_error < 1e-10


def test_verify_degenerate_seed_reports_cause():
    report = verify_family(PovmFamily.dihedral(3, 1.0, 0.0))
    assert not report.passed
    assert report.error is not None
    assert report.max_probability_error is None


def test_verify_report_is_json_serializable():
    report = verify_family(PovmFamily.cyclic(2), n_states=3)
    blob = json.dumps(report.to_dict())
    data = json.loads(blob)
    assert data["passed"] is True
    assert data["label"] == "cyclic(m=2)"


def test_report_dict_shares_no_container_with_the_report():
    family = PovmFamily.dihedral(3, 0.6, 0.8).to_dict()
    report = VerificationReport(
        label="dihedral", family=family, method="structured", failures=["unitarity"]
    )
    data = report.to_dict()
    assert list(data) == [f.name for f in dataclasses.fields(report)] + ["passed"]
    assert data == {**dataclasses.asdict(report), "passed": False}
    data["family"]["beta"].append(0.0)
    data["family"]["m"] = 5
    data["failures"].append("padding")
    assert report.family == {"kind": "dihedral", "m": 3, "alpha": 0.6, "beta": [0.8, 0.0]}
    assert report.failures == ["unitarity"]


@pytest.mark.parametrize("n_states", [0, -5])
def test_verify_rejects_state_count_below_one(n_states):
    with pytest.raises(InvalidParameterError):
        verify_family(PovmFamily.cyclic(3), n_states=n_states)


@pytest.mark.parametrize(
    "kwargs", [{"seed": -1}, {"seed": 1.5}, {"n_states": 2.5}], ids=str
)
def test_verify_rejects_bad_seed_and_state_count(kwargs):
    with pytest.raises(InvalidParameterError):
        verify_family(PovmFamily.cyclic(3), **kwargs)


def test_verify_checks_register_cap_before_building(monkeypatch):
    import povmkit.families

    def no_scan(m, alpha, beta):
        raise AssertionError("the degeneracy check ran")

    monkeypatch.setattr(povmkit.families, "_ring_separation", no_scan)
    with pytest.raises(InvalidParameterError):
        verify_family(PovmFamily.dihedral_from_angle(5000, 1.0), n_states=1)


@pytest.mark.parametrize(
    "family",
    [PovmFamily.cyclic(5), PovmFamily.dihedral(3, 0.6, 0.8), PovmFamily.platonic("cube")],
    ids=lambda f: f.kind,
)
def test_verify_runs_no_point_scan_after_building(monkeypatch, family):
    import povmkit.families
    import povmkit.simulate

    events = []
    scan = povmkit.families._ring_separation

    def logged_scan(m, alpha, beta):
        events.append("scan")
        return scan(m, alpha, beta)

    def logged_build(f):
        povm = build_povm(f)
        events.append("built")
        return povm

    monkeypatch.setattr(povmkit.families, "_ring_separation", logged_scan)
    monkeypatch.setattr(povmkit.simulate, "build_povm", logged_build)
    assert verify_family(family, n_states=3).passed
    # the dihedral ring is still checked for degeneracy while it is built
    expected = ["scan"] * (family.kind == "dihedral") + ["built"]
    assert events == expected


@pytest.mark.parametrize("method", ["structured", "generic"])
def test_verify_nan_probabilities_fail(monkeypatch, method):
    import povmkit.simulate

    def nan_probabilities(povm, rho):
        return np.full(povm.n, np.nan)

    monkeypatch.setattr(povmkit.simulate, "analytic_probabilities", nan_probabilities)
    report = verify_family(PovmFamily.cyclic(3), n_states=3, method=method)
    assert not report.passed
    assert "probabilities" in report.failures
    assert np.isnan(report.max_probability_error)


def test_verify_nan_residuals_fail(monkeypatch):
    import povmkit.simulate
    from povmkit.dilation import DilatedMeasurement

    monkeypatch.setattr(DilatedMeasurement, "unitarity_residual", lambda self: np.nan)
    monkeypatch.setattr(DilatedMeasurement, "embedding_residual", lambda self: np.nan)
    monkeypatch.setattr(
        povmkit.simulate, "distance_up_to_global_phase", lambda a, b: np.nan
    )
    report = verify_family(PovmFamily.cyclic(4), n_states=3)
    assert {"unitarity", "embedding", "circuit"} <= set(report.failures)
