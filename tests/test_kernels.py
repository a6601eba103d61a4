"""Equivalence tests: the local gate kernel (its FFT, its in-place
phases, its split of block-diagonal gates and swaps), the closed-form
dihedral closest pair, the closed-form Bloch map and the guide-table
sampler against the straightforward reference versions."""

import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import povmkit.circuits
import povmkit.dilation
import povmkit.linalg
import povmkit.simulate
from povmkit.bloch import povm_element_to_bloch
from povmkit.circuits import (
    Circuit,
    CnotGate,
    ControlledGate,
    FourierGate,
    SingleQubitGate,
    SwapGate,
    apply_circuit,
    circuit_isometry,
    compile_circuit,
    synthesize_circuit,
)
from povmkit.dilation import _structured_factors, structured_dilation
from povmkit.errors import DegenerateOrbitError, InvalidDimensionError, ZeroOperatorError
from povmkit.families import (
    DISTINCT_POINT_TOL,
    PLATONIC_KINDS,
    Povm,
    PovmFamily,
    _ring_separation,
    build_povm,
)
from povmkit.linalg import (
    CNOT_MATRIX,
    SWAP_MATRIX,
    _SWAP,
    Fourier,
    _halves,
    apply_gates,
    direct_sum,
    embed_on_qubits,
)
from povmkit.simulate import (
    GUIDE_DENSITY,
    SAMPLE_CHUNK,
    SAMPLE_WORKERS,
    _guide_size,
    sample,
    verify_family,
)
from helpers import RawGate, closest_pair_distance, contract, gate_matrix, one_shot_fourier
from test_golden import golden_families

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_circuit(rng, n_qubits, n_gates):
    gates = []
    for _ in range(n_gates):
        kinds = ["u", "dense"] + (["cu", "cnot", "swap"] if n_qubits > 1 else [])
        kind = kinds[rng.integers(len(kinds))]
        order = [int(q) for q in rng.permutation(n_qubits)]
        if kind == "u":
            gates.append(SingleQubitGate(order[0], random_unitary(rng, 2)))
        elif kind == "cu":
            value = int(rng.integers(2))
            gates.append(ControlledGate(order[0], value, order[1], random_unitary(rng, 2)))
        elif kind == "cnot":
            gates.append(CnotGate(order[0], order[1]))
        elif kind == "swap":
            gates.append(SwapGate(order[0], order[1]))
        else:  # a dense matrix on a random ascending run of qubits
            k = int(rng.integers(1, min(n_qubits, 3) + 1))
            q = int(rng.integers(n_qubits - k + 1))
            gates.append(RawGate(tuple(range(q, q + k)), random_unitary(rng, 2**k)))
    return Circuit(n_qubits, gates)


def embedded_product(circuit):
    """Reference compile: the dense embedded gate matrices multiplied."""
    total = np.eye(2**circuit.n_qubits, dtype=complex)
    for gate in circuit.gates:
        total = embed_on_qubits(gate_matrix(gate), gate.wires, circuit.n_qubits) @ total
    return total


# ---------------------------------------------------------------- gate kernel


@given(SEEDS)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_compile_matches_embedded_product(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    circuit = random_circuit(rng, n, int(rng.integers(0, 9)))
    expected = embedded_product(circuit)
    assert np.abs(compile_circuit(circuit) - expected).max() < 1e-13
    assert np.abs(circuit_isometry(circuit) - expected[:, :2]).max() < 1e-13


@given(SEEDS)
@settings(max_examples=40, derandomize=True, deadline=None)
def test_apply_gates_matches_embedded_product_on_columns(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    circuit = random_circuit(rng, n, int(rng.integers(1, 6)))
    c = int(rng.integers(1, 5))
    state = rng.standard_normal((2**n, c)) + 1j * rng.standard_normal((2**n, c))
    before = state.copy()
    out = apply_gates([(g.matrix, g.wires) for g in circuit.gates], state)
    assert np.abs(out - embedded_product(circuit) @ state).max() < 1e-12
    assert np.array_equal(state, before)  # the input is left alone


def test_compile_never_embeds(monkeypatch):
    calls = []
    original = povmkit.linalg.embed_on_qubits

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (povmkit.linalg, povmkit.circuits, povmkit.dilation):
        if hasattr(module, "embed_on_qubits"):
            monkeypatch.setattr(module, "embed_on_qubits", counting)
    families = [PovmFamily.cyclic(m) for m in (3, 16, 64)]
    families += [PovmFamily.dihedral(5, 0.6, 0.8)]
    families += [PovmFamily.platonic(kind) for kind in PLATONIC_KINDS]
    # neither the structured dilations nor compiling their circuits embed
    circuits = [synthesize_circuit(structured_dilation(build_povm(f))) for f in families]
    for circuit in circuits:
        compile_circuit(circuit)
        circuit_isometry(circuit)
    assert calls == []


def contracted(gates, state):
    """Reference kernel: every gate gathered and multiplied by ``contract``."""
    state = np.array(state, dtype=complex, order="C")
    spare = np.empty_like(state)
    for u, targets in gates:
        u = np.asarray(u, dtype=complex)
        state, spare = contract(u, list(targets), state, spare)
    return state


def block_diagonal_gate(rng, kind):
    """A 4x4 that is 0 off its two diagonal 2x2 blocks, or the swap."""
    if kind == "swap":
        return SWAP_MATRIX
    if kind == "halves":
        return direct_sum(random_unitary(rng, 2), random_unitary(rng, 2))
    if kind == "identity-half":
        u = random_unitary(rng, 2)
        return direct_sum(np.eye(2), u) if rng.integers(2) else direct_sum(u, np.eye(2))
    if kind == "phase":
        return np.diag([1, 1, 1, np.exp(1j * rng.uniform(0, 2 * np.pi))])
    if kind == "diagonal":  # four phases, one of them exactly 1
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        phases[rng.integers(4)] = 1
        return np.diag(phases)
    if kind == "cnot":
        return CNOT_MATRIX
    # multiplexed: a different rotation for each value of the first target
    return direct_sum(random_unitary(rng, 2), np.array([[0, 1], [1, 0]]))


@given(
    st.sampled_from(
        ["halves", "identity-half", "phase", "diagonal", "cnot", "multiplexed", "swap"]
    ),
    st.sampled_from(["dense", "zeros", "signed-zeros"]),
    st.booleans(),
    SEEDS,
)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_block_diagonal_gates_match_the_contracted_product(kind, zeros, full, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    r = 2**n
    c = r if full else 2
    targets = tuple(int(q) for q in rng.choice(n, 2, replace=False))
    u = block_diagonal_gate(rng, kind)
    state = rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
    if full and rng.integers(2):
        state = np.eye(r, dtype=complex)
    if zeros != "dense":
        sign = -1.0 if zeros == "signed-zeros" else 1.0
        for part in (state.real, state.imag):
            part[rng.random((r, c)) < 0.3] = sign * 0.0
    # the first target more significant than the second, then less; a
    # swap twice on one pair is the identity, so the first gate alone too
    for gates in ([(u, targets)], [(u, targets), (u, targets[::-1])]):
        out, expected = apply_gates(gates, state), contracted(gates, state)
        if kind in ("phase", "diagonal"):
            # a diagonal gate is an in-place multiply of its slices, which
            # may round differently from the 4x4 product
            assert np.abs(out - expected).max() <= 1e-13
            continue
        assert np.array_equal(out, expected)
        # the 4x4 product turns a -0.0 into +0.0; an identity half or a
        # swap, copied, keeps it
        if full and zeros != "signed-zeros":
            assert out.tobytes() == expected.tobytes()


def test_halves_split_only_block_diagonal_gates():
    rng = np.random.default_rng(5)
    u = random_unitary(rng, 2)
    assert _halves(SWAP_MATRIX) is _SWAP
    assert _halves(random_unitary(rng, 4)) is None
    assert _halves(1j * SWAP_MATRIX) is None
    for row, col in [(0, 0), (1, 2), (2, 1), (3, 3), (1, 1), (0, 3)]:
        near_swap = SWAP_MATRIX.copy()
        near_swap[row, col] += 1e-300j
        assert _halves(near_swap) is None, (row, col)
    for row, col in [(0, 2), (0, 3), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0), (3, 1)]:
        coupled = np.eye(4, dtype=complex)
        coupled[row, col] = 1e-300
        assert _halves(coupled) is None, (row, col)
    assert _halves(direct_sum(u, np.eye(2)))[1] is None
    blocks = _halves(direct_sum(u, np.eye(2)).conj().T)  # 1 - 0j reads as 1
    assert np.array_equal(blocks[0], u.conj().T) and blocks[1] is None
    blocks = _halves(CNOT_MATRIX)
    assert blocks[0] is None and np.array_equal(blocks[1], [[0, 1], [1, 0]])


def test_swap_is_a_copy_that_spreads_no_nan():
    rng = np.random.default_rng(9)
    state = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    state[1, 0] = np.inf
    state[4, 2] = complex(-np.inf, np.inf)
    # swapping qubits 0 and 2 of three reverses each basis index's bits
    reversed_bits = [int(f"{x:03b}"[::-1], 2) for x in range(8)]
    for targets in ((0, 2), (2, 0)):
        out = apply_gates([(SWAP_MATRIX, targets)], state)
        assert out.tobytes() == state[reversed_bits].tobytes()
        assert not np.isnan(out).any()


@pytest.mark.parametrize("targets", [(0, 2), (1, 0), (0, 1, 3)])
def test_dense_gate_must_act_on_an_ascending_run(targets):
    rng = np.random.default_rng(13)
    state = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))
    with pytest.raises(InvalidDimensionError):
        apply_gates([(random_unitary(rng, 2 ** len(targets)), targets)], state)
    if len(targets) == 2:  # what ``_halves`` splits applies on any two wires
        for u in (direct_sum(random_unitary(rng, 2), random_unitary(rng, 2)), SWAP_MATRIX):
            gates = [(u, targets)]
            assert np.array_equal(apply_gates(gates, state), contracted(gates, state))


def dense(operator, wires):
    """A gate's operator as the kernel's input, a Fourier as its dense matrix."""
    if isinstance(operator, Fourier):
        return gate_matrix(FourierGate(wires, operator.m, operator.inverse))
    return operator


def test_golden_circuits_and_dilations_match_the_contracted_kernel():
    for family in golden_families():
        povm = build_povm(family)
        dilated = structured_dilation(povm)
        circuit = synthesize_circuit(dilated)
        run = [dilated.matrix, compile_circuit(circuit), circuit_isometry(circuit)]
        # the reference: every factor and gate as a dense matrix through
        # ``contract``, applied to the identity, so neither the FFT, nor the
        # in-place phases, nor the split, nor the swap copy is taken
        factors = [(dense(u, wires), wires) for u, wires, _ in _structured_factors(family)[1]]
        gates = [(gate_matrix(g), g.wires) for g in circuit.gates]
        r = 2**dilated.n_qubits
        reference = [
            contracted(factors, np.eye(r)),
            contracted(gates, np.eye(r)),
            contracted(gates, np.eye(r, 2)),
        ]
        for got, want in zip(run, reference):
            assert np.abs(got - want).max() <= 1e-13, family.label()


@pytest.mark.parametrize("m", [3, 5, 6, 7, 12, 96, 100, 192, 255])
def test_register_wide_block_compiles_to_its_product_with_the_identity(m):
    # a ring that does not fill its register: one fourier gate on every wire
    circuit = synthesize_circuit(structured_dilation(build_povm(PovmFamily.cyclic(m))))
    (gate,) = circuit.gates
    assert gate.wires == tuple(range(circuit.n_qubits))
    expected = contracted([(gate_matrix(gate), gate.wires)], np.eye(2**circuit.n_qubits))
    assert np.abs(compile_circuit(circuit) - expected).max() <= 1e-13


@given(SEEDS)
@settings(max_examples=40, derandomize=True, deadline=None)
def test_register_wide_first_gate_then_more_gates(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    r = 2**n
    k = int(rng.integers(1, r + 1))
    # a padded ring's inverse transform: its matrix holds -0.0 entries
    first = FourierGate(range(n), k, inverse=True)
    rest = random_circuit(rng, n, int(rng.integers(0, 5))).gates
    circuit = Circuit(n, [first] + rest)
    gates = [(gate_matrix(g), g.wires) for g in circuit.gates]
    assert np.abs(compile_circuit(circuit) - contracted(gates, np.eye(r))).max() <= 1e-13
    assert np.abs(compile_circuit(circuit) - embedded_product(circuit)).max() < 1e-13


FFT_SIZES = [*range(1, 301), 1000, 4095]


def fourier_columns(rng, m):
    """Two random unit vectors of 2^k entries, 2^k >= m: a fourier gate's
    local input."""
    k = max(1, (m - 1).bit_length())
    v = rng.standard_normal((2**k, 2)) + 1j * rng.standard_normal((2**k, 2))
    return v / np.linalg.norm(v, axis=0)


def fourier_register(rng, v, m, t, inverse=False):
    """A fourier gate of size m on qubits t, ..., t + k - 1 of a t + k qubit
    register, and two columns of that register: the vectors v in every one
    of its 2^t blocks, each times a random sign from {1, -1, i, -i}.  Those
    signs scale F v exactly, so F v is the reference for every block.
    Returns the gate (its adjoint when ``inverse``), the columns and the
    (2^t, 2) signs."""
    k = len(v).bit_length() - 1
    signs = rng.choice([1, -1, 1j, -1j], (2**t, 2))
    columns = (signs[:, None, :] * v).reshape(2 ** (t + k), 2)
    return FourierGate(range(t, t + k), m, inverse), columns, signs


def test_fourier_gate_fft_matches_the_dense_block():
    rng = np.random.default_rng(2)
    for m in FFT_SIZES:
        v = fourier_columns(rng, m)
        block = gate_matrix(FourierGate(range(len(v).bit_length() - 1), m))
        for t in range(3):
            # F' and its adjoint conj(F') alternate along m and along t
            gate, columns, _ = fourier_register(rng, v, m, t, inverse=(m + t) % 2 == 1)
            out = apply_circuit(Circuit(gate.wires[-1] + 1, [gate]), columns)
            dense = apply_gates([(block.conj() if gate.inverse else block, gate.wires)], columns)
            assert np.abs(out - dense).max() <= 1e-13, (m, t)
            # the padding entries are not touched
            padding = (a.reshape(2**t, -1, 2)[:, m:] for a in (out, columns))
            assert next(padding).tobytes() == next(padding).tobytes()


def exact_fourier_entries(m):
    """omega^j / sqrt(m), omega = exp(-2 pi i / m), for j = 0, ..., m - 1, in
    long double: products of mpmath's omega at 40 digits, each split into
    a double and the double of its remainder."""
    mpmath = pytest.importorskip("mpmath")
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("long double is no wider than double here")
    hi, lo = np.empty((2, m), dtype=complex)
    with mpmath.workdps(40):
        root = mpmath.expjpi(mpmath.mpf(-2) / m)
        z = mpmath.mpc(1 / mpmath.sqrt(m))
        for j in range(m):
            hi[j] = complex(z)
            lo[j] = complex(z - hi[j])
            z *= root
    return hi.astype(np.clongdouble) + lo


def exact_fourier(m, x=None):
    """F_m, or F_m x for the m rows of x, in long double."""
    w = exact_fourier_entries(m)
    if x is None:
        return w[np.outer(np.arange(m), np.arange(m)) % m]
    out = np.empty(x.shape, dtype=np.clongdouble)
    for top in range(0, m, 256):  # 256 rows of F at a time
        rows = np.arange(top, min(top + 256, m))
        out[rows] = w[np.outer(rows, np.arange(m)) % m] @ x.astype(np.clongdouble)
    return out


def test_fourier_gate_fft_is_no_less_accurate_than_the_dense_block():
    """Against F_m in long double, the FFT's largest error is at most the
    dense product's.  At m = 2 both are one butterfly, two roundings each,
    and either may land closer: there an error within one unit in the last
    place of the largest entry counts as no larger."""
    rng = np.random.default_rng(3)
    for m in FFT_SIZES:
        v = fourier_columns(rng, m)
        block = gate_matrix(FourierGate(range(len(v).bit_length() - 1), m))
        exact = exact_fourier(m, v[:m])
        for t in range(3):
            gate, columns, signs = fourier_register(rng, v, m, t)
            want = signs[:, None, :] * exact
            out = apply_circuit(Circuit(gate.wires[-1] + 1, [gate]), columns)
            dense = apply_gates([(block, gate.wires)], columns)
            errors = [
                float(np.abs(a.reshape(2**t, -1, 2)[:, :m] - want).max()) for a in (out, dense)
            ]
            ulp = np.finfo(float).eps * float(np.abs(exact).max())
            assert errors[0] <= (max(errors[1], ulp) if m == 2 else errors[1]), (m, t, errors)


@pytest.mark.parametrize(
    "family",
    [PovmFamily.cyclic(192), PovmFamily.cyclic(256), PovmFamily.dihedral_from_angle(96, 1.1)],
    ids=lambda f: f.label(),
)
def test_structured_dilation_is_no_less_accurate_than_the_dense_fourier(family):
    """The structured U against one built from an exact F_m, and against
    one built from the dense ``helpers.one_shot_fourier``: at these sizes
    the dense F's own error, 1.1e-14 to 1.9e-14, exceeds the 1e-14 to which
    ``structured_golden.npz`` pins a dilation, so those arrays were stored
    again from the FFT."""
    povm = build_povm(family)
    dilated = structured_dilation(povm)
    (fourier, low, _), *rest = _structured_factors(family)[1]
    assert not fourier.inverse
    r, size, m = 2**dilated.n_qubits, 2 ** len(low), fourier.m
    exact = np.eye(r, dtype=np.clongdouble)
    dense = np.eye(r, dtype=complex)
    for top in range(0, r, size):  # I (x) F' on the low qubits: one F per orbit
        rows = slice(top, top + m)
        exact[rows, rows] = exact_fourier(m)
        dense[rows, rows] = one_shot_fourier(m)
    if rest:  # the later factors round alike on both
        rest = [(u, wires) for u, wires, _ in rest]
        exact, dense = apply_gates(rest, exact.astype(complex)), apply_gates(rest, dense)
    error = float(np.abs(dilated.matrix - exact).max())
    dense_error = float(np.abs(dense - exact).max())
    assert error <= 1e-15 and error <= dense_error / 10, (error, dense_error)


def test_verify_cyclic_1024():
    report = verify_family(PovmFamily.cyclic(1024), n_states=4)
    assert report.passed, report.failures
    assert report.n_qubits == 10


# ---------------------------------------------------------------- ring separation


def ring_family(rng):
    """A dihedral ring of 2 to 300 points from one of three seed regimes:
    near the equator at a phase that aligns the two rings, so that points
    of different rings come close; near a pole, so that neighbours in a
    ring come close; or uniform."""
    m = int(rng.integers(2, 301))
    regime = rng.integers(3)
    if regime == 0:
        theta = np.pi / 2 + rng.choice([-1, 1]) * 10 ** rng.uniform(-10, -5)
        phase = np.pi * rng.integers(2 * m) / m  # 2 arg(beta) a multiple of 2 pi / m
        phase += rng.choice([-1, 1]) * 10 ** rng.uniform(-12, -5)
    elif regime == 1:
        theta = 10 ** rng.uniform(-7, -2)  # alpha and |beta| stay above the tolerance
        theta = rng.choice([theta, np.pi - theta])
        phase = rng.uniform(-np.pi, np.pi)
    else:
        theta, phase = rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi)
    return PovmFamily.dihedral(m, np.cos(theta / 2), np.sin(theta / 2) * np.exp(1j * phase))


@given(SEEDS)
@settings(max_examples=100, derandomize=True, deadline=None)
def test_ring_separation_matches_closest_pair(seed):
    family = ring_family(np.random.default_rng(seed))
    separation = _ring_separation(family.m, family.alpha, family.beta)
    try:
        points = build_povm(family).bloch_points()
        assert separation >= DISTINCT_POINT_TOL
    except DegenerateOrbitError:
        assert separation < DISTINCT_POINT_TOL
        # the refused ring's points all the same, with no pair too close
        with mock.patch.object(povmkit.families, "DISTINCT_POINT_TOL", 0.0):
            points = build_povm(family).bloch_points()
    assert abs(separation - closest_pair_distance(points)) < 1e-12


def traced_peak(fn):
    """Peak traced allocation, in bytes, while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_degenerate_ring_stops_at_its_first_close_pair():
    # a near-polar seed with about 477,000 close pairs, which took 80 MB to
    # gather; its closest pair is known before any vector is built
    family = PovmFamily.dihedral_from_angle(2000, 3e-8)

    def build():
        with pytest.raises(DegenerateOrbitError, match="fewer than 2m distinct"):
            build_povm(family)

    assert traced_peak(build) < 10 * 2**20


# ---------------------------------------------------------------- Bloch points


@given(SEEDS)
@settings(max_examples=40, derandomize=True, deadline=None)
def test_bloch_points_match_per_vector_map(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 40))
    vectors = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    vectors *= rng.uniform(1e-3, 3.0, (n, 1))
    povm = Povm(vectors, PovmFamily.cyclic(2))  # the family only labels them
    expected = np.array([povm_element_to_bloch(v) for v in vectors])
    assert np.abs(povm.bloch_points() - expected).max() < 1e-15


@pytest.mark.parametrize(
    "family",
    [PovmFamily.cyclic(7), PovmFamily.dihedral(6, 0.6, 0.8j)]
    + [PovmFamily.platonic(kind) for kind in PLATONIC_KINDS],
    ids=lambda f: f.label(),
)
def test_family_bloch_points_match_per_vector_map(family):
    povm = build_povm(family)
    expected = np.array([povm_element_to_bloch(v) for v in povm.vectors])
    assert np.abs(povm.bloch_points() - expected).max() < 1e-15


def test_bloch_points_reject_zero_vector():
    povm = Povm(np.array([[1.0, 0.0], [0.0, 0.0]]), PovmFamily.cyclic(2))
    with pytest.raises(ZeroOperatorError):
        povm.bloch_points()


# ---------------------------------------------------------------- sampling


def one_batch_counts(probs, shots, seed):
    """Reference sampler: every uniform drawn at once and searched."""
    u = np.random.Generator(np.random.PCG64(seed)).random(shots)
    edges = np.cumsum(probs)
    idx = np.minimum(np.searchsorted(edges, u, side="right"), len(probs) - 1)
    return np.bincount(idx, minlength=len(probs))


def random_distribution(rng, n, shape):
    if shape == "dense":
        return rng.dirichlet(np.ones(n))
    if shape == "sparse":
        p = rng.dirichlet(np.ones(n)) * (rng.random(n) < 0.3)
        p[rng.integers(n)] += 1.0 - p.sum()
        return p
    if shape == "spiky":
        # one large outcome and many tiny ones: several edges per bucket
        p = rng.uniform(0, 1e-6, n)
        p[rng.integers(n)] += 1.0 - p.sum()
        return p
    # dyadic: edges that land exactly on bucket boundaries
    q = 2 ** int(rng.integers(0, 13))
    return rng.multinomial(q, np.ones(n) / n) / q


SHOTS = st.sampled_from(
    [1, 2, 9, 100, 4097]
    + [SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, 3 * SAMPLE_CHUNK + 17]
)


@given(
    st.sampled_from(["dense", "sparse", "spiky", "dyadic"]),
    st.sampled_from([0.0, 5e-10, -5e-10]),
    SHOTS,
    SEEDS,
    SEEDS,
)
@settings(max_examples=100, derandomize=True, deadline=None)
def test_sample_matches_one_batch_reference(shape, drift, shots, seed, draw_seed):
    rng = np.random.default_rng(draw_seed)
    n = int(2 ** rng.uniform(0, 12.01))  # log-uniform over 1 ... 4096
    probs = random_distribution(rng, n, shape) * (1 + drift)
    counts = sample(probs, shots, seed)
    assert np.array_equal(counts.counts, one_batch_counts(probs, shots, seed))
    assert counts.counts.sum() == shots


@pytest.mark.parametrize(
    "probs",
    [
        [0.25] * 4,
        [0, 0.5, 0, 0.5, 0],
        [1.0],
        [0.0, 1.0],
        [1.0, 0.0],
        [0.5, 0.5 + 5e-10],
        np.full(3, 1 / 3),
        np.full(4096, 1 / 4096),
    ],
    ids=[
        "quarters",
        "zero-halves",
        "one",
        "zero-one",
        "one-zero",
        "sum-above-one",
        "thirds",
        "uniform-4096",
    ],
)
@pytest.mark.parametrize("shots", [1, 10, SAMPLE_CHUNK, 2 * SAMPLE_CHUNK + 1])
def test_sample_matches_one_batch_reference_on_pinned_cases(probs, shots):
    for seed in (0, 0x5EED, 2**32 - 1):
        expected = one_batch_counts(probs, shots, seed)
        assert np.array_equal(sample(probs, shots, seed).counts, expected)


CHUNKED_SHOTS = 3 * SAMPLE_CHUNK + 17


def drawn_uniforms(seed, shots):
    return np.random.Generator(np.random.PCG64(seed)).random(shots)


@pytest.mark.parametrize("seed", [0, 1, 0x5EED, 2**32 - 1, 2**64 + 3])
def test_raw_pcg64_words_are_the_generator_uniforms(seed):
    # sample relies on u = (w >> 11) 2^-53, drawn chunk by chunk
    bit_generator = np.random.PCG64(seed)
    sizes = np.diff(np.r_[0:CHUNKED_SHOTS:SAMPLE_CHUNK, CHUNKED_SHOTS])
    words = np.concatenate([bit_generator.random_raw(size) for size in sizes])
    u = (words >> 11) * 2.0**-53
    expected = drawn_uniforms(seed, CHUNKED_SHOTS)
    assert np.array_equal(u.view(np.uint64), expected.view(np.uint64))


def sum_at_bound(n, sign):
    """n equal probabilities whose sum is as far from 1 as sample accepts."""
    p = np.full(n, 1 / n)
    factor = 1 + sign * 1e-9
    while not abs((p * factor).sum() - 1) <= 1e-9:
        factor = np.nextafter(factor, 1.0)
    return p * factor


@pytest.mark.parametrize(
    "probs",
    [
        [5e-324, 1.0],
        [0.5, 5e-324, 0.5],
        [1.0 - 1e-9],
        sum_at_bound(1, +1),
        sum_at_bound(3, +1),
        sum_at_bound(3, -1),
        sum_at_bound(128, +1),
        sum_at_bound(4096, -1),
    ],
    ids=[
        "subnormal-first",
        "subnormal-middle",
        "one-low",
        "one-high",
        "thirds-high",
        "thirds-low",
        "uniform-128-high",
        "uniform-4096-low",
    ],
)
@pytest.mark.parametrize("shots", [1, CHUNKED_SHOTS])
def test_sample_matches_one_batch_reference_on_boundary_cases(probs, shots):
    for seed in (0, 0x5EED, 2**32 - 1):
        expected = one_batch_counts(probs, shots, seed)
        assert np.array_equal(sample(probs, shots, seed).counts, expected)


@pytest.mark.parametrize("j", [0, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, CHUNKED_SHOTS - 1])
def test_sample_counts_an_edge_equal_to_a_drawn_uniform(j):
    u = drawn_uniforms(0x5EED, CHUNKED_SHOTS)[j]
    probs = [u, 1.0 - u]
    counts = sample(probs, CHUNKED_SHOTS, 0x5EED).counts
    assert np.array_equal(counts, one_batch_counts(probs, CHUNKED_SHOTS, 0x5EED))
    # the reference places a uniform equal to an edge above it
    assert np.count_nonzero(drawn_uniforms(0x5EED, CHUNKED_SHOTS) < u) == counts[0]


def test_sample_clips_small_negative_probabilities():
    # an edge below its predecessor by 1e-13 traps uniform j in the dip
    j = SAMPLE_CHUNK + 5
    u = drawn_uniforms(0x5EED, CHUNKED_SHOTS)[j]
    probs = np.array([u + 5e-14, -1e-13, 1.0 - u + 5e-14])
    clipped = np.maximum(probs, 0.0)
    counts = sample(probs, CHUNKED_SHOTS, 0x5EED).counts
    assert np.array_equal(counts, one_batch_counts(clipped, CHUNKED_SHOTS, 0x5EED))
    assert not np.array_equal(counts, one_batch_counts(probs, CHUNKED_SHOTS, 0x5EED))


@pytest.mark.parametrize("shape", ["dense", "spiky"])
def test_sample_matches_one_batch_reference_over_many_chunks(shape):
    probs = random_distribution(np.random.default_rng(7), 1000, shape)
    for seed in (1, 0x5EED):
        expected = one_batch_counts(probs, 4 * 10**6, seed)
        assert np.array_equal(sample(probs, 4 * 10**6, seed).counts, expected)


@pytest.mark.parametrize("seed", [0, 1, 0x5EED, 2**64 + 3])
def test_pcg64_advance_matches_skipped_words(seed):
    # sample starts each helper span with advance; a numpy change that
    # broke this would silently change seeded counts
    for j in [1, SAMPLE_CHUNK // 3, SAMPLE_CHUNK - 1, SAMPLE_CHUNK, CHUNKED_SHOTS]:
        words = np.random.PCG64(seed).advance(j).random_raw(1000)
        assert np.array_equal(words, np.random.PCG64(seed).random_raw(j + 1000)[j:])


@pytest.fixture
def short_switch_interval():
    """Switch threads often, so helper spans interleave at fine grain."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


# spans are cut by word count; at 2 and at 3 workers these cuts fall inside a chunk
MID_CHUNK_SHOTS = 5 * SAMPLE_CHUNK // 2 + 3


@pytest.mark.parametrize("shape", ["dense", "spiky"])
@pytest.mark.parametrize("shots", [CHUNKED_SHOTS, MID_CHUNK_SHOTS, 4 * 10**6])
def test_sample_counts_do_not_depend_on_the_worker_count(
    monkeypatch, short_switch_interval, shape, shots
):
    probs = random_distribution(np.random.default_rng(11), 1000, shape)
    expected = one_batch_counts(probs, shots, 0x5EED)
    for workers in (1, 2, 3):
        monkeypatch.setattr(povmkit.simulate, "_sample_workers", lambda: workers)
        assert np.array_equal(sample(probs, shots, 0x5EED).counts, expected), workers


@pytest.mark.parametrize("shots", [10, SAMPLE_CHUNK // SAMPLE_WORKERS])
def test_single_chunk_sample_runs_inline(monkeypatch, shots):
    probs = np.full(128, 1 / 128)
    expected = one_batch_counts(probs, shots, 0x5EED)
    built = []
    pcg64 = np.random.PCG64

    def counting_pcg64(*args):
        built.append(args)
        return pcg64(*args)

    def no_thread(*args, **kwargs):
        raise AssertionError("a single-chunk call started a thread")

    monkeypatch.setattr(np.random, "PCG64", counting_pcg64)
    monkeypatch.setattr(threading, "Thread", no_thread)
    for workers in (1, 2, SAMPLE_WORKERS):
        monkeypatch.setattr(povmkit.simulate, "_sample_workers", lambda: workers)
        built.clear()
        assert np.array_equal(sample(probs, shots, 0x5EED).counts, expected)
        assert built == [(0x5EED,)]


@pytest.mark.parametrize("failing", ["helper", "caller"])
def test_sample_raises_a_failed_span_after_joining_its_helpers(monkeypatch, failing):
    chunk_counts = povmkit.simulate._chunk_counts

    def failing_chunk_counts(*args):
        on_caller = threading.current_thread() is threading.main_thread()
        if on_caller == (failing == "caller"):
            raise RuntimeError(f"{failing} span failed")
        return chunk_counts(*args)

    monkeypatch.setattr(povmkit.simulate, "_sample_workers", lambda: 3)
    monkeypatch.setattr(povmkit.simulate, "_chunk_counts", failing_chunk_counts)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match=f"{failing} span failed"):
        sample(np.full(128, 1 / 128), CHUNKED_SHOTS)
    assert threading.active_count() == threads


@pytest.mark.parametrize("n", [1, 3, 128, 4096, 10**5])
@pytest.mark.parametrize("shots", [1, 10, 1000, 10**7])
def test_guide_size_is_the_largest_power_of_two_within_its_caps(n, shots):
    k = _guide_size(n, shots)
    cap = min(max(1, shots // 8), SAMPLE_CHUNK)
    assert k & (k - 1) == 0
    assert k <= cap and k < 2 * GUIDE_DENSITY * n
    assert k >= GUIDE_DENSITY * n or 2 * k > cap


def test_sample_memory_does_not_grow_with_shots():
    probs = np.full(128, 1 / 128)
    peaks = []
    for shots in (10**5, 10**7):
        tracemalloc.start()
        try:
            sample(probs, shots)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one batch of 10**7 uniforms alone would take 80 MB
    assert max(peaks) < 4 * 2**20, peaks


def test_sample_memory_with_many_outcomes_does_not_grow_with_workers(monkeypatch):
    # n = 10**5 words per chunk: W spans of n words each would hold W chunks
    probs = np.full(10**5, 1e-5)
    peaks = []
    for workers in (1, 4):
        monkeypatch.setattr(povmkit.simulate, "_sample_workers", lambda: workers)
        for shots in (5 * 10**5, 2 * 10**6):
            tracemalloc.start()
            try:
                sample(probs, shots)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert max(peaks) < 1.25 * min(peaks), peaks
