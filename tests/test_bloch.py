"""Oracle tests for Bloch sphere conversions."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from povmkit.bloch import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    bloch_to_state,
    povm_element_to_bloch,
    state_to_bloch,
    validate_density_matrix,
)
from povmkit.errors import InvalidStateError, OutsideBallError, ZeroOperatorError


def test_pauli_matrices():
    assert np.array_equal(PAULI_X, [[0, 1], [1, 0]])
    assert np.array_equal(PAULI_Y, [[0, -1j], [1j, 0]])
    assert np.array_equal(PAULI_Z, [[1, 0], [0, -1]])


def test_basis_states():
    assert np.abs(state_to_bloch(np.diag([1.0, 0.0])) - [0, 0, 1]).max() < 1e-15
    assert np.abs(state_to_bloch(np.diag([0.0, 1.0])) - [0, 0, -1]).max() < 1e-15
    assert np.abs(state_to_bloch(np.eye(2) / 2)).max() < 1e-15


def test_equator_states():
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert np.abs(state_to_bloch(plus) - [1, 0, 0]).max() < 1e-15
    # (|0> + i|1>)/sqrt(2) points along +y
    psi = np.array([1, 1j]) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    assert np.abs(state_to_bloch(rho) - [0, 1, 0]).max() < 1e-15


def test_bloch_to_state_poles():
    assert np.abs(bloch_to_state([0, 0, 1]) - np.diag([1.0, 0.0])).max() < 1e-15
    got = bloch_to_state([1, 0, 0])
    assert np.abs(got - np.full((2, 2), 0.5)).max() < 1e-15


def test_bloch_to_state_y_sign():
    got = bloch_to_state([0, 1, 0])
    expected = 0.5 * np.array([[1, -1j], [1j, 1]])
    assert np.abs(got - expected).max() < 1e-15


@given(
    st.floats(-1, 1),
    st.floats(-1, 1),
    st.floats(-1, 1),
)
@settings(max_examples=100, derandomize=True, deadline=None)
def test_round_trip_inside_ball(x, y, z):
    p = np.array([x, y, z])
    n = np.linalg.norm(p)
    if n > 1:
        p = p / (n * 1.0000001)
    rho = bloch_to_state(p)
    validate_density_matrix(rho)
    assert np.abs(state_to_bloch(rho) - p).max() < 1e-12


def test_state_to_bloch_takes_a_stack():
    points = np.array([[0, 0, 1], [0.6, 0, 0.8], [0.1, -0.2, 0.3]])
    rhos = np.array([bloch_to_state(p) for p in points])
    stacked = state_to_bloch(rhos)
    assert stacked.shape == (3, 3)
    assert np.array_equal(stacked, [state_to_bloch(rho) for rho in rhos])
    assert np.abs(stacked - points).max() < 1e-15


def test_outside_ball_rejected():
    with pytest.raises(OutsideBallError, match=re.escape("|(0.0, 0.0, 1.1)| = 1.1")):
        bloch_to_state([0, 0, 1.1])
    with pytest.raises(OutsideBallError):
        bloch_to_state([0.8, 0.8, 0.8])


@pytest.mark.parametrize(
    "point, norm",
    [
        ([0, 0, 1.0000001], "1.0000001"),
        ([0, 0, 1 + 2e-12], "1.000000000002"),
        ([1e308, 1e308, 0], "1.4142135623730951e+308"),
    ],
)
def test_a_norm_just_outside_the_ball_prints_above_1(point, norm):
    """The norm prints in its shortest round-trip form, so that one just
    outside the ball does not read as 1."""
    with pytest.raises(OutsideBallError, match=re.escape(f"| = {norm} > 1")):
        bloch_to_state(point)


def test_validate_rejects_non_hermitian():
    with pytest.raises(InvalidStateError):
        validate_density_matrix(np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex))


def test_validate_rejects_bad_trace():
    with pytest.raises(InvalidStateError):
        validate_density_matrix(np.diag([0.6, 0.6]).astype(complex))


def test_validate_rejects_negative_eigenvalue():
    bad = 0.5 * np.array([[1 + 1.2, 0], [0, 1 - 1.2]], dtype=complex)
    with pytest.raises(InvalidStateError):
        validate_density_matrix(bad)


def test_validate_rejects_wrong_shape():
    with pytest.raises(InvalidStateError):
        validate_density_matrix(np.eye(4) / 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, np.nan)])
def test_validate_rejects_non_finite_entries(bad):
    rho = np.eye(2, dtype=complex) / 2
    rho[0, 0] = bad
    with pytest.raises(InvalidStateError):
        validate_density_matrix(rho)


@pytest.mark.parametrize("point", [(np.nan, 0, 0), (0, np.inf, 0), (0, 0, -np.inf)])
def test_bloch_to_state_rejects_non_finite_point(point):
    with pytest.raises(InvalidStateError):
        bloch_to_state(point)


def test_povm_element_to_bloch_is_scale_invariant():
    psi = np.array([1.0, 1.0j])
    p1 = povm_element_to_bloch(psi)
    p2 = povm_element_to_bloch(0.037 * psi)
    assert np.abs(p1 - p2).max() < 1e-14
    assert np.abs(p1 - [0, 1, 0]).max() < 1e-14


def test_povm_element_to_bloch_pole():
    assert np.abs(povm_element_to_bloch([1, 0]) - [0, 0, 1]).max() < 1e-15


def test_povm_element_azimuth():
    # sqrt(1/3)(1, w) with w = exp(-2i pi/3) sits on the equator at azimuth -2pi/3
    w = np.exp(-2j * np.pi / 3)
    p = povm_element_to_bloch(np.array([1, w]) / np.sqrt(3))
    az = np.arctan2(p[1], p[0])
    assert abs(az - (-2 * np.pi / 3)) < 1e-12
    assert abs(p[2]) < 1e-15
    assert abs(np.linalg.norm(p) - 1.0) < 1e-12


def test_zero_vector_rejected():
    with pytest.raises(ZeroOperatorError):
        povm_element_to_bloch([0.0, 0.0])
