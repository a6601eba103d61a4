"""Oracle tests for the dense matrix helpers and the Fourier transform."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from povmkit.dilation import structured_dilation
from povmkit.errors import InvalidDimensionError, PhaseUndefinedWarning
from povmkit.families import build_povm
from povmkit.linalg import (
    CNOT_MATRIX,
    DEFAULT_TOL,
    SWAP_MATRIX,
    Fourier,
    apply_gates,
    direct_sum,
    distance_up_to_global_phase,
    embed_on_qubits,
    unitarity_residual,
)

from helpers import old_distance_up_to_global_phase, one_shot_fourier
from test_golden import golden_families

W3 = complex(-0.5, -np.sqrt(3) / 2)  # exp(-2i pi/3), written out by hand


def fourier(m: int) -> np.ndarray:
    """The transform the package runs: ``apply_gates`` of ``Fourier(m)`` on
    the identity of the fewest qubits that hold m, cut to its m x m block."""
    k = max(m - 1, 1).bit_length()
    out = apply_gates([(Fourier(m), range(k))], np.eye(2**k, dtype=complex))
    return out[:m, :m]


def test_fourier_trivial_size():
    assert np.allclose(fourier(1), [[1.0]], atol=1e-15)


def test_fourier_two():
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.abs(fourier(2) - expected).max() < 1e-15


def test_fourier_three_entries():
    expected = np.array(
        [[1, 1, 1], [1, W3, W3**2], [1, W3**2, W3**4]], dtype=complex
    ) / np.sqrt(3)
    assert np.abs(fourier(3) - expected).max() < 1e-14


def test_fourier_four_uses_negative_exponent():
    f = fourier(4)
    # entry (1, 1) pins the sign convention
    assert abs(f[1, 1] - (-0.5j)) < 1e-15
    expected = 0.5 * np.array(
        [
            [1, 1, 1, 1],
            [1, -1j, -1, 1j],
            [1, -1, 1, -1],
            [1, 1j, -1, -1j],
        ]
    )
    assert np.abs(f - expected).max() < 1e-14


@given(st.integers(min_value=1, max_value=32))
@settings(max_examples=32, derandomize=True, deadline=None)
def test_fourier_unitary(m):
    assert unitarity_residual(fourier(m)) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 12, 64, 100])
def test_fourier_in_place_keeps_the_bits_of_the_plain_formula(m):
    """The tests' dense F, ``helpers.one_shot_fourier``, is the plain formula."""
    jk = np.outer(np.arange(m), np.arange(m))
    plain = np.exp(-2j * np.pi * jk / m) / np.sqrt(m)
    assert one_shot_fourier(m).tobytes() == plain.tobytes()


def test_fourier_rejects_nonpositive_size():
    """F_m needs 1 <= m <= 2^k on its k qubits."""
    for m in (0, -1, 5):
        with pytest.raises(InvalidDimensionError):
            apply_gates([(Fourier(m), [0, 1])], np.eye(4, dtype=complex))


def test_direct_sum_blocks():
    a = np.full((2, 2), 2.0)
    b = np.full((1, 1), 3.0)
    out = direct_sum(a, b)
    expected = np.array([[2, 2, 0], [2, 2, 0], [0, 0, 3]], dtype=complex)
    assert np.array_equal(out, expected)


def test_direct_sum_empty_block():
    f = one_shot_fourier(8)
    assert np.array_equal(direct_sum(f, np.eye(0)), f)


def test_direct_sum_fourier_padding():
    # 4x4 extension of the three-outcome Fourier block, which the FFT on
    # two qubits applies without touching basis state 3
    got = direct_sum(one_shot_fourier(3), np.eye(1))
    s = np.sqrt(1 / 3)
    expected = s * np.array(
        [
            [1, 1, 1, 0],
            [1, W3, W3**2, 0],
            [1, W3**2, W3, 0],
            [0, 0, 0, np.sqrt(3)],
        ],
        dtype=complex,
    )
    assert np.abs(got - expected).max() < 1e-14
    assert unitarity_residual(got) < 1e-14
    run = apply_gates([(Fourier(3), [0, 1])], np.eye(4, dtype=complex))
    assert np.abs(run - expected).max() < 1e-15
    assert np.array_equal(run[3], [0, 0, 0, 1]) and np.array_equal(run[:, 3], [0, 0, 0, 1])


def test_unitarity_residual_value():
    a = np.array([[1, 1], [0, 1]], dtype=complex)
    # adjoint(a) @ a = [[1, 1], [1, 2]] so the worst entry misses the identity by 1
    assert abs(unitarity_residual(a) - 1.0) < 1e-15
    assert not unitarity_residual(a) <= DEFAULT_TOL
    assert unitarity_residual(fourier(5)) <= DEFAULT_TOL


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_unitarity_residual_of_non_finite_matrix_is_nan(bad):
    a = np.eye(2, dtype=complex)
    a[1, 1] = bad
    assert np.isnan(unitarity_residual(a))
    assert not unitarity_residual(a) <= DEFAULT_TOL


def test_unitarity_requires_square():
    with pytest.raises(InvalidDimensionError):
        unitarity_residual(np.ones((2, 3)))


def test_distance_ignores_global_phase():
    f = one_shot_fourier(4)
    assert distance_up_to_global_phase(f, np.exp(0.7j) * f) < 1e-12
    assert distance_up_to_global_phase(f, 1j * f) < 1e-12


def test_distance_detects_real_difference():
    f = one_shot_fourier(2)
    g = np.array([[0, 1], [1, 0]], dtype=complex)
    assert distance_up_to_global_phase(f, g) > 0.2


def test_distance_shape_mismatch():
    with pytest.raises(InvalidDimensionError):
        distance_up_to_global_phase(np.eye(2), np.eye(4))


def test_distance_zero_overlap_warns_and_returns_raw():
    a = np.eye(2, dtype=complex)
    b = np.diag([1.0, -1.0]).astype(complex)
    with pytest.warns(PhaseUndefinedWarning):
        d = distance_up_to_global_phase(a, b)
    assert abs(d - 2.0) < 1e-15


def _random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_distance_symmetric_for_unitaries():
    rng = np.random.default_rng(20260817)
    for _ in range(25):
        a = _random_unitary(rng, 4)
        b = _random_unitary(rng, 4)
        assert abs(
            distance_up_to_global_phase(a, b) - distance_up_to_global_phase(b, a)
        ) < 1e-12


def test_distance_triangle_inequality_sampled():
    rng = np.random.default_rng(918273645)
    for _ in range(50):
        a, b, c = (_random_unitary(rng, 4) for _ in range(3))
        dac = distance_up_to_global_phase(a, c)
        dab = distance_up_to_global_phase(a, b)
        dbc = distance_up_to_global_phase(b, c)
        assert dac <= dab + dbc + 1e-9


def _distance_and_warnings(distance, a, b):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        d = distance(a, b)
    return d, [(w.category, str(w.message)) for w in caught]


def _assert_same_distance(a, b):
    """The same float, NaN included, and the same warnings as the old code."""
    got, got_warnings = _distance_and_warnings(distance_up_to_global_phase, a, b)
    want, want_warnings = _distance_and_warnings(old_distance_up_to_global_phase, a, b)
    assert got == want or (np.isnan(got) and np.isnan(want))
    assert got_warnings == want_warnings
    return got_warnings


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_distance_equals_old_code_on_random_inputs():
    rng = np.random.default_rng(4094)
    for shape in [(1, 1), (2, 2), (4, 2), (8, 8), (64, 64), (256, 2), (256, 256)]:
        for scale in (1e-200, 1e-9, 1.0, 1e150):
            a = scale * _complex(rng, shape)
            b = np.exp(2j * np.pi * rng.random()) * a + 1e-3 * scale * _complex(rng, shape)
            _assert_same_distance(a, b)
            _assert_same_distance(a, _complex(rng, shape))
    u = _random_unitary(rng, 16)
    # an F-ordered view, as the two-column circuit check passes
    _assert_same_distance(u[:, :2], u[:2].conj().T)
    _assert_same_distance(one_shot_fourier(256), one_shot_fourier(256).conj())


def test_distance_equals_old_code_near_zero_trace():
    rng = np.random.default_rng(4095)
    seen = set()
    for n in (2, 4, 32):
        a = _complex(rng, (n, n))
        b = _complex(rng, (n, n))
        b -= np.vdot(a, b) / np.vdot(a, a) * a  # tr(a^dag b) ~ 0
        for c in [0.0] + [10.0**e for e in range(-18, -8)]:
            seen.add(len(_assert_same_distance(a, b + c * a)))
    zero = np.zeros((3, 3))
    for a, b in [
        (np.eye(2), np.diag([1.0, -1.0])),
        (zero, zero),
        (zero, np.eye(3)),
        (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])),
    ]:
        seen.add(len(_assert_same_distance(a, b)))
    assert seen == {0, 1}  # both sides of the phase test were reached


def test_distance_equals_old_code_at_tiny_scale():
    # below |a|max |b|max n = 1 the test compares the trace with 1e-15 itself
    for s in (1e-8, 2e-8, 2.2e-8, 2.3e-8, 3e-8, 1e-4, 1e-200, 5e-324):
        for n in (1, 2, 5):
            _assert_same_distance(s * np.eye(n), np.eye(n))
            _assert_same_distance(s * np.eye(n), s * np.eye(n))
            _assert_same_distance(np.full((n, n), s), np.full((n, n), s * 1j))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf), complex(1, np.nan)])
def test_distance_equals_old_code_on_non_finite_entries(bad):
    rng = np.random.default_rng(4096)
    a = _random_unitary(rng, 4)
    spoiled = a.copy()
    spoiled[1, 2] = bad
    for x, y in [
        (spoiled, a),
        (a, spoiled),
        (spoiled, spoiled),
        (spoiled, np.zeros((4, 4))),
        (np.zeros((4, 4)), spoiled),
        (np.full((4, 4), bad), np.full((4, 4), bad)),
    ]:
        _assert_same_distance(x, y)


# ---------------------------------------------------------------- residuals in row blocks


def full_gram_residual(a: np.ndarray) -> float:
    """``unitarity_residual`` as one r x r product: the reference."""
    return float(np.abs(a.conj().T @ a - np.eye(a.shape[0])).max())


def _sample_matrices(rng, r):
    z = _complex(rng, (r, r))
    q = np.linalg.qr(z)[0]
    return [z, q, q + 1e-9 * z]


@pytest.mark.parametrize("r", [1, 2, 3, 4, 8, 16, 31, 32, 33, 63, 64])
def test_unitarity_residual_in_one_block_is_the_full_gram_formula(r):
    rng = np.random.default_rng(r)
    for a in _sample_matrices(rng, r):
        assert unitarity_residual(a) == full_gram_residual(a)


def test_unitarity_residual_of_every_golden_dilation_is_the_full_gram_formula():
    # up to r = 256, four row blocks, with no last-bit difference
    for family in golden_families():
        d = structured_dilation(build_povm(family)).matrix
        assert unitarity_residual(d) == full_gram_residual(d), family.label()


@pytest.mark.parametrize("r", [63, 64, 65, 127, 128, 129, 300])
def test_unitarity_residual_at_block_edges_is_within_ulps_of_the_full_gram(r):
    # a Gram entry below the diagonal is read from its conjugate above it,
    # which the product may round differently in the last bit
    rng = np.random.default_rng(1000 + r)
    eps = np.finfo(float).eps
    for _ in range(3):
        for a in _sample_matrices(rng, r):
            want = full_gram_residual(a)
            assert abs(unitarity_residual(a) - want) <= 4 * eps * max(1.0, want)


@pytest.mark.parametrize("cols", [[298, 299], [127, 128], [63, 64]])
@pytest.mark.parametrize("sign", [1, -1])
def test_unitarity_residual_keeps_an_overflow_in_any_row_block(cols, sign):
    # finite entries whose Gram entries on the two columns overflow, in the
    # last row block, across two blocks, or across the first two
    a = np.eye(300, dtype=complex)
    a[np.ix_([0, 1], cols)] = [[1e200, 1e200], [1e200, sign * 1e200]]
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = unitarity_residual(a), full_gram_residual(a)
    assert got == want or (np.isnan(got) and np.isnan(want))
    assert not got <= DEFAULT_TOL


@pytest.mark.parametrize("shape", [(63, 63), (65, 65), (129, 2), (128, 128), (300, 300)])
def test_distance_in_row_blocks_equals_old_code(shape):
    rng = np.random.default_rng(shape[0])
    a = _complex(rng, shape)
    _assert_same_distance(a, np.exp(0.3j) * a + 1e-3 * _complex(rng, shape))
    _assert_same_distance(a, _complex(rng, shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_distance_with_a_non_finite_entry_in_the_last_row_block_equals_old_code(bad):
    u = _random_unitary(np.random.default_rng(4097), 130)
    spoiled = u.copy()
    spoiled[-1, 5] = bad
    for x, y in [(spoiled, u), (u, spoiled), (spoiled, spoiled)]:
        _assert_same_distance(x, y)


def test_distance_warns_on_a_vanishing_trace_across_row_blocks():
    a = np.eye(130)
    b = np.diag([1.0, -1.0] * 65)
    (caught,) = _assert_same_distance(a, b)
    assert caught[0] is PhaseUndefinedWarning
    with pytest.warns(PhaseUndefinedWarning):
        assert distance_up_to_global_phase(a, b) == 2.0


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "r, unitarity_bound, distance_bound", [(256, 0.75, 0.55), (1024, 0.25, 0.15)]
)
def test_residuals_form_no_r_by_r_temporary(r, unitarity_bound, distance_bound):
    # peaks in r x r complex entries; one r x r pass takes 2.0 for the
    # residual (the adjoint's copy, the product, its abs) and 1.5 for the
    # distance (the difference, its abs)
    a = one_shot_fourier(r)
    b = np.exp(0.4j) * a
    entries = 16 * r * r
    assert _traced_peak(lambda: unitarity_residual(a)) <= unitarity_bound * entries
    assert _traced_peak(lambda: distance_up_to_global_phase(a, b)) <= distance_bound * entries


X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_embed_single_qubit_positions():
    assert np.array_equal(embed_on_qubits(X, [0], 2), np.kron(X, np.eye(2)))
    assert np.array_equal(embed_on_qubits(X, [1], 2), np.kron(np.eye(2), X))


def test_embed_cnot_matrix_is_standard():
    expected = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    assert np.array_equal(CNOT_MATRIX, expected)
    assert np.array_equal(embed_on_qubits(CNOT_MATRIX, [0, 1], 2), expected)


def test_embed_reversed_qubit_order():
    # control on the least significant qubit: basis states 1 and 3 swap
    got = embed_on_qubits(CNOT_MATRIX, [1, 0], 2)
    expected = np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    )
    assert np.array_equal(got, expected)


def test_embed_swap():
    expected = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.array_equal(SWAP_MATRIX, expected)
    assert np.array_equal(embed_on_qubits(SWAP_MATRIX, [0, 1], 2), expected)


def test_embed_three_qubit_middle():
    got = embed_on_qubits(X, [1], 3)
    assert np.array_equal(got, np.kron(np.kron(np.eye(2), X), np.eye(2)))


def test_embed_validates_targets():
    with pytest.raises(InvalidDimensionError):
        embed_on_qubits(X, [2], 2)
    with pytest.raises(InvalidDimensionError):
        embed_on_qubits(CNOT_MATRIX, [0, 0], 2)
    with pytest.raises(InvalidDimensionError):
        embed_on_qubits(CNOT_MATRIX, [0], 2)


@pytest.mark.parametrize("r", [256, 4096])
def test_two_column_distance_is_the_one_pass_formula(r):
    # a block holds 64 r entries, so an (r, 2) pair is one pass
    rng = np.random.default_rng(r)
    a = _complex(rng, (r, 2))
    b = np.exp(0.7j) * a + 1e-3 * _complex(rng, (r, 2))
    t = np.vdot(b, a)
    assert distance_up_to_global_phase(a, b) == float(np.abs(a - (t / abs(t)) * b).max())
