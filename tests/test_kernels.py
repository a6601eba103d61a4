"""Equivalence tests: the local gate kernel, its split of block-diagonal
gates, the distinct-point sweep, the closed-form Bloch map and the
guide-table sampler against the straightforward reference versions."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import povmkit.circuits
import povmkit.dilation
import povmkit.linalg
import povmkit.simulate
from povmkit.bloch import povm_element_to_bloch
from povmkit.circuits import (
    BlockGate,
    Circuit,
    CnotGate,
    ControlledGate,
    SingleQubitGate,
    SwapGate,
    circuit_isometry,
    compile_circuit,
    synthesize_circuit,
)
from povmkit.dilation import structured_dilation
from povmkit.errors import DegenerateOrbitError, ZeroOperatorError
from povmkit.families import (
    DISTINCT_POINT_TOL,
    PLATONIC_KINDS,
    Povm,
    PovmFamily,
    _all_distinct,
    _distinct_points,
    build_povm,
    rotate_povm,
    validate_povm,
)
from povmkit.linalg import (
    CNOT_MATRIX,
    SWAP_MATRIX,
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
from test_golden import golden_families

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_circuit(rng, n_qubits, n_gates):
    gates = []
    for _ in range(n_gates):
        kinds = ["u", "block"] + (["cu", "cnot", "swap"] if n_qubits > 1 else [])
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
        else:
            k = int(rng.integers(1, min(n_qubits, 3) + 1))
            gates.append(BlockGate(order[:k], random_unitary(rng, 2**k)))
    return Circuit(n_qubits, gates)


def embedded_product(circuit):
    """Reference compile: the dense embedded gate matrices multiplied."""
    total = np.eye(2**circuit.n_qubits, dtype=complex)
    for gate in circuit.gates:
        total = embed_on_qubits(gate.matrix, gate.wires, circuit.n_qubits) @ total
    return total


def greedy_distinct_points(points, tol=DISTINCT_POINT_TOL):
    """Reference scan: keep a point unless an earlier kept point is close."""
    reps = np.empty((0, points.shape[1]))
    for p in points:
        if not (np.abs(p - reps).max(axis=1) < tol).any():
            reps = np.vstack([reps, p])
    return len(reps)


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
    """Reference kernel: every gate gathered and multiplied by ``_contract``."""
    state = np.array(state, dtype=complex, order="C")
    spare = np.empty_like(state)
    for u, targets in gates:
        u = np.asarray(u, dtype=complex)
        state, spare = povmkit.linalg._contract(u, list(targets), state, spare)
    return state


def block_diagonal_gate(rng, kind):
    """A 4x4 that is 0 off its two diagonal 2x2 blocks."""
    if kind == "halves":
        return direct_sum(random_unitary(rng, 2), random_unitary(rng, 2))
    if kind == "identity-half":
        u = random_unitary(rng, 2)
        return direct_sum(np.eye(2), u) if rng.integers(2) else direct_sum(u, np.eye(2))
    if kind == "phase":
        return np.diag([1, 1, 1, np.exp(1j * rng.uniform(0, 2 * np.pi))])
    if kind == "cnot":
        return CNOT_MATRIX
    # multiplexed: a different rotation for each value of the first target
    return direct_sum(random_unitary(rng, 2), np.array([[0, 1], [1, 0]]))


@given(
    st.sampled_from(["halves", "identity-half", "phase", "cnot", "multiplexed"]),
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
    # the first target more significant than the second, then less
    gates = [(u, targets), (u, targets[::-1])]
    out, expected = apply_gates(gates, state), contracted(gates, state)
    assert np.array_equal(out, expected)
    # the 4x4 product turns a -0.0 into +0.0; an identity half, copied, keeps it
    if full and zeros != "signed-zeros":
        assert out.tobytes() == expected.tobytes()


def test_halves_split_only_block_diagonal_gates():
    rng = np.random.default_rng(5)
    u = random_unitary(rng, 2)
    assert _halves(SWAP_MATRIX) is None
    assert _halves(random_unitary(rng, 4)) is None
    for row, col in [(0, 2), (0, 3), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0), (3, 1)]:
        coupled = np.eye(4, dtype=complex)
        coupled[row, col] = 1e-300
        assert _halves(coupled) is None, (row, col)
    assert _halves(direct_sum(u, np.eye(2)))[1] is None
    blocks = _halves(direct_sum(u, np.eye(2)).conj().T)  # 1 - 0j reads as 1
    assert np.array_equal(blocks[0], u.conj().T) and blocks[1] is None
    blocks = _halves(CNOT_MATRIX)
    assert blocks[0] is None and np.array_equal(blocks[1], [[0, 1], [1, 0]])


def test_golden_circuits_and_dilations_match_the_contracted_kernel(monkeypatch):
    outputs = []
    for use_split in (True, False):
        if not use_split:
            monkeypatch.setattr(povmkit.linalg, "_halves", lambda u: None)
        run = []
        for family in golden_families():
            dilated = structured_dilation(build_povm(family))
            circuit = synthesize_circuit(dilated)
            run += [dilated.matrix, compile_circuit(circuit), circuit_isometry(circuit)]
        outputs.append([a.tobytes() for a in run])
    assert outputs[0] == outputs[1]


def test_verify_cyclic_1024():
    report = verify_family(PovmFamily.cyclic(1024), n_states=4)
    assert report.passed, report.failures
    assert report.n_qubits == 10


# ---------------------------------------------------------------- point scan


def sweep_orthogonal_basis():
    """Two unit vectors orthogonal to the sweep direction and each other."""
    d = povmkit.families._SWEEP_DIRECTION
    u = np.cross(d, [1.0, 0, 0])
    u /= np.linalg.norm(u)
    w = np.cross(d, u)
    return u, w / np.linalg.norm(w)


def point_layout(rng, n):
    """n points in one of the layouts that stress the distinct-point sweep."""
    layout = rng.integers(5)
    if layout == 0:
        return rng.uniform(-1, 1, (n, 3))
    if layout == 1:
        # two rings parallel to a coordinate plane: each ring's points
        # share one coordinate
        m = max(n // 2, 1)
        angles = 2 * np.pi * np.arange(m) / m
        ring = np.stack([np.cos(angles), np.sin(angles), np.zeros(m)], axis=1)
        theta = rng.uniform(0, np.pi)
        rings = np.concatenate([ring * np.sin(theta), ring * np.sin(theta)])
        rings[:m, 2], rings[m:, 2] = np.cos(theta), -np.cos(theta)
        return np.roll(rings, rng.integers(3), axis=1)[:n]
    if layout == 2:
        # a dihedral family turned by H: its rings lie in planes x = const
        m = max(n // 2, 2)
        family = PovmFamily.dihedral_from_angle(m, rng.uniform(0.1, 3.0))
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        return rotate_povm(build_povm(family), h).bloch_points()[:n]
    if layout == 3:
        # points that differ only orthogonally to the sweep direction, so
        # their keys agree up to rounding
        u, w = sweep_orthogonal_basis()
        steps = rng.integers(-3, 4, (n, 2)) * rng.choice([0.4, 0.7, 1.0, 1.5])
        steps *= DISTINCT_POINT_TOL
        return rng.uniform(-1, 1, 3) + steps[:, :1] * u + steps[:, 1:] * w
    # large coordinates, up to 1e300, shared by many rows that then differ
    # in the small coordinates, within the tolerance or not: the keys round
    # by far more than the tolerance
    points = rng.uniform(-1, 1, (n, 3))
    huge = rng.uniform(-1, 1, 3) * rng.choice([1e9, 1e300])
    rows = rng.integers(n, size=n) if n else []
    points[rows, rng.integers(3)] = rng.choice(huge, len(rows))
    return points


@given(SEEDS)
@settings(max_examples=100, derandomize=True, deadline=None)
def test_distinct_points_matches_greedy_scan(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, rng.choice([20, 200, 601])))
    points = point_layout(rng, n)
    n = len(points)
    if n:
        # near-duplicates just inside and just outside the tolerance, chains
        # of them, exact repeats and rows with a NaN or an infinity
        for _ in range(int(rng.integers(0, n // 2 + 1))):
            i, j = rng.integers(n, size=2)
            scale = rng.choice([0.0, 0.3, 0.9, 1.1, 2.5]) * DISTINCT_POINT_TOL
            points[i] = points[j] + scale * rng.choice([-1.0, 1.0], 3)
        for i in rng.integers(n, size=int(rng.integers(0, 4))):
            points[i, rng.integers(3)] = rng.choice([np.nan, np.inf, -np.inf])
    with np.errstate(invalid="ignore"):  # inf - inf in the reference
        expected = greedy_distinct_points(points)
    assert _distinct_points(points) == expected
    assert _all_distinct(points) == (expected == n)


def test_distinct_points_greedy_order_on_a_chain():
    # b is close to a and c, but a and c are apart: the greedy scan keeps a
    # and c, a transitive grouping would keep one
    step = 0.6 * DISTINCT_POINT_TOL
    points = np.array([[0.0, 0, 0], [step, 0, 0], [2 * step, 0, 0]])
    assert _distinct_points(points) == greedy_distinct_points(points) == 2
    # a gap of exactly the tolerance is not close
    points = np.array([[0.0, 0, 0], [DISTINCT_POINT_TOL, 0, 0]])
    assert _distinct_points(points) == greedy_distinct_points(points) == 2


def traced_peak(fn):
    """Peak traced allocation, in bytes, while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_distinct_points_memory_is_linear():
    uniform = np.random.default_rng(0).uniform(-1, 1, (20_000, 3))
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    # both rings of the turned family lie in planes x = const
    turned = rotate_povm(build_povm(PovmFamily.dihedral_from_angle(4096, 1.1)), h)
    # every key equal up to rounding: each row is a candidate of every other
    u, w = sweep_orthogonal_basis()
    angles = np.random.default_rng(1).uniform(0, 2 * np.pi, 2000)
    circle = np.cos(angles)[:, None] * u + np.sin(angles)[:, None] * w
    peaks = [
        traced_peak(lambda: _distinct_points(uniform)),
        traced_peak(lambda: validate_povm(turned)),
        traced_peak(lambda: _distinct_points(circle)),
    ]
    # an all-pairs scan in blocks of 128 rows takes about 140 MB and 60 MB
    # on the first two; checking all 2*10**6 candidate pairs of the third at
    # once takes about 160 MB
    assert max(peaks) < 8 * 2**20, peaks


def test_degenerate_ring_stops_at_its_first_close_pair():
    # a near-polar seed: about 477,000 close pairs, 80 MB to gather them all
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
    povm = Povm(vectors, PovmFamily.cyclic(n))
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
