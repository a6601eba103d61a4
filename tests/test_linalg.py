"""Oracle tests for the dense matrix helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from povmkit.errors import InvalidDimensionError, PhaseUndefinedWarning
from povmkit.linalg import (
    CNOT_MATRIX,
    DEFAULT_TOL,
    SWAP_MATRIX,
    direct_sum,
    distance_up_to_global_phase,
    embed_on_qubits,
    fourier_matrix,
    unitarity_residual,
)

W3 = complex(-0.5, -np.sqrt(3) / 2)  # exp(-2i pi/3), written out by hand


def test_fourier_trivial_size():
    assert np.allclose(fourier_matrix(1), [[1.0]], atol=1e-15)


def test_fourier_two():
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.abs(fourier_matrix(2) - expected).max() < 1e-15


def test_fourier_three_entries():
    expected = np.array(
        [[1, 1, 1], [1, W3, W3**2], [1, W3**2, W3**4]], dtype=complex
    ) / np.sqrt(3)
    assert np.abs(fourier_matrix(3) - expected).max() < 1e-14


def test_fourier_four_uses_negative_exponent():
    f = fourier_matrix(4)
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
    assert unitarity_residual(fourier_matrix(m)) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 12, 64, 100])
def test_fourier_in_place_keeps_the_bits_of_the_plain_formula(m):
    jk = np.outer(np.arange(m), np.arange(m))
    plain = np.exp(-2j * np.pi * jk / m) / np.sqrt(m)
    assert fourier_matrix(m).tobytes() == plain.tobytes()


def test_fourier_rejects_nonpositive_size():
    with pytest.raises(InvalidDimensionError):
        fourier_matrix(0)


def test_direct_sum_blocks():
    a = np.full((2, 2), 2.0)
    b = np.full((1, 1), 3.0)
    out = direct_sum(a, b)
    expected = np.array([[2, 2, 0], [2, 2, 0], [0, 0, 3]], dtype=complex)
    assert np.array_equal(out, expected)


def test_direct_sum_empty_block():
    f = fourier_matrix(8)
    assert np.array_equal(direct_sum(f, np.eye(0)), f)


def test_direct_sum_fourier_padding():
    # 4x4 extension of the three-outcome Fourier block
    got = direct_sum(fourier_matrix(3), np.eye(1))
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


def test_unitarity_residual_value():
    a = np.array([[1, 1], [0, 1]], dtype=complex)
    # adjoint(a) @ a = [[1, 1], [1, 2]] so the worst entry misses the identity by 1
    assert abs(unitarity_residual(a) - 1.0) < 1e-15
    assert not unitarity_residual(a) <= DEFAULT_TOL
    assert unitarity_residual(fourier_matrix(5)) <= DEFAULT_TOL


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
    f = fourier_matrix(4)
    assert distance_up_to_global_phase(f, np.exp(0.7j) * f) < 1e-12
    assert distance_up_to_global_phase(f, 1j * f) < 1e-12


def test_distance_detects_real_difference():
    f = fourier_matrix(2)
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
