"""Oracle tests for the unitary dilations of the measurement families."""

import tracemalloc

import numpy as np
import pytest

from povmkit.dilation import (
    MAX_QUBITS,
    DilatedMeasurement,
    generic_completion,
    orbit_mixer,
    padded_measurement_matrix,
    register_size,
    structured_dilation,
)
from povmkit.errors import InvalidParameterError, NotIsometryError
from povmkit.families import (
    CUBE,
    DODECAHEDRON,
    ICOSAHEDRON,
    OCTAHEDRON,
    PLATONIC_KINDS,
    TETRAHEDRON,
    Povm,
    PovmFamily,
    build_povm,
    cyclic_povm,
    dihedral_povm,
    platonic_povm,
)
from povmkit.linalg import direct_sum, unitarity_residual

from helpers import dihedral_coupling, one_shot_fourier

TCO_A = np.sqrt((3 + np.sqrt(3)) / 6)
TCO_B = np.sqrt((3 - np.sqrt(3)) / 6)
R5 = np.sqrt(5.0)
DOD_G = np.sqrt(0.5 + np.sqrt(75 - 30 * R5) / 30)
DOD_D = np.sqrt(0.5 - np.sqrt(75 - 30 * R5) / 30)


# ---------------------------------------------------------------- sizing


@pytest.mark.parametrize(
    "n,r",
    [(2, 2), (3, 4), (4, 4), (5, 8), (6, 8), (8, 8), (12, 16), (16, 16), (20, 32)],
)
def test_register_size(n, r):
    assert register_size(n) == r


def test_register_size_needs_two_outcomes():
    with pytest.raises(InvalidParameterError):
        register_size(1)


def test_register_size_cap():
    assert register_size(2**MAX_QUBITS) == 2**MAX_QUBITS
    with pytest.raises(InvalidParameterError):
        register_size(2**MAX_QUBITS + 1)
    with pytest.raises(InvalidParameterError):
        structured_dilation(cyclic_povm(100_000))


def test_embedding_residual_keeps_nan():
    d = structured_dilation(cyclic_povm(5))
    d.matrix[1, 6] = np.nan  # a padding column
    assert np.isnan(d.embedding_residual())


def test_padded_measurement_matrix():
    p = cyclic_povm(3)
    top = padded_measurement_matrix(p)
    assert top.shape == (2, 4)
    assert np.abs(top[:, :3] - p.vectors.T).max() == 0
    assert np.abs(top[:, 3]).max() == 0


# ---------------------------------------------------------------- cyclic


def test_cyclic_dilation_is_padded_fourier():
    d = structured_dilation(cyclic_povm(3))
    expected = direct_sum(one_shot_fourier(3), np.eye(1))
    assert np.abs(d.matrix - expected).max() < 1e-14
    assert d.outcome_positions.tolist() == [0, 1, 2]
    assert d.padding_positions.tolist() == [3]
    assert d.method == "structured"


def test_cyclic_power_of_two_has_no_padding():
    d = structured_dilation(cyclic_povm(4))
    assert np.abs(d.matrix - one_shot_fourier(4)).max() < 1e-14
    assert d.padding_positions.tolist() == []
    assert d.n_qubits == 2


@pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 12, 16])
def test_cyclic_dilation_keeps_the_bits_of_the_kron_product(m):
    # the matrix is I_1 (x) F up to the FFT's rounding, and like that kron
    # product it holds no -0.0, which ``build`` would print
    fourier = one_shot_fourier(m)
    r = register_size(m)
    if m < r:
        fourier = direct_sum(fourier, np.eye(r - m))
    got = structured_dilation(cyclic_povm(m)).matrix
    assert np.abs(got - np.kron(np.eye(1), fourier)).max() <= 1e-13
    parts = np.stack([got.real, got.imag])
    assert not np.signbit(parts[parts == 0]).any()


@pytest.mark.parametrize(
    "family, matrices",
    [
        # the identity that the in-place FFT turns into U (about 1.01 of
        # the 1.5 allowed)
        (PovmFamily.cyclic(256), 1.5),
        # the same with the padding rows left alone (about 1.01)
        (PovmFamily.cyclic(255), 2.5),
        # the identity and the spare buffer that the coupling's halves are
        # multiplied into (about 2.00)
        (PovmFamily.dihedral_from_angle(128, 1.0), 2.5),
    ],
    ids=lambda x: x.label() if isinstance(x, PovmFamily) else str(x),
)
def test_structured_dilation_peak_memory(family, matrices):
    povm = build_povm(family)
    tracemalloc.start()
    try:
        structured_dilation(povm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < matrices * 256 * 256 * 16


# ---------------------------------------------------------------- dihedral


def test_dihedral_coupling_real_seed():
    t = dihedral_coupling(0.6, 0.8, 4)
    expected = np.array(
        [
            [0.6, 0.0, 0.8, 0.0],
            [0.0, 0.6, 0.0, -0.8],
            [0.8, 0.0, -0.6, 0.0],
            [0.0, 0.8, 0.0, 0.6],
        ]
    )
    assert np.abs(t - expected).max() < 1e-15
    assert unitarity_residual(t) < 1e-15


def test_dihedral_coupling_complex_seed():
    t = dihedral_coupling(0.6, 0.8j, 4)
    assert t[0, 2] == 0.8j
    assert t[1, 3] == 0.8j  # -conj(beta)
    assert t[2, 0] == -0.8j  # conj(beta)
    assert t[3, 1] == 0.8j
    assert unitarity_residual(t) < 1e-15


def test_dihedral_dilation_m2():
    d = structured_dilation(dihedral_povm(2, 0.6, 0.8))
    assert d.dim == 4
    assert d.outcome_positions.tolist() == [0, 1, 2, 3]
    assert d.padding_positions.tolist() == []
    assert d.unitarity_residual() < 1e-12
    assert d.embedding_residual() < 1e-12


def test_dihedral_dilation_m3_layout():
    d = structured_dilation(dihedral_povm(3, 0.6, 0.8))
    assert d.dim == 8
    assert d.outcome_positions.tolist() == [0, 1, 2, 4, 5, 6]
    assert d.padding_positions.tolist() == [3, 7]
    assert d.unitarity_residual() < 1e-12
    assert d.embedding_residual() < 1e-12


def test_padded_dihedral_layout_json():
    data = structured_dilation(dihedral_povm(3, 0.6, 0.8)).to_dict()
    assert data["outcome_map"] == [[0, 0], [1, 1], [2, 2], [4, 3], [5, 4], [6, 5]]
    assert data["padding_indices"] == [3, 7]


def test_layout_json_lists_pairs_by_basis_index():
    d = structured_dilation(cyclic_povm(3))
    shuffled = DilatedMeasurement(d.povm, d.matrix, np.array([2, 0, 3]), "structured")
    data = shuffled.to_dict()
    assert data["outcome_map"] == [[0, 1], [2, 0], [3, 2]]
    assert data["padding_indices"] == [1]


@pytest.mark.parametrize(
    "positions",
    [[0, 0, 2], [0, 1, 4], [-1, 0, 1], [0, 1], [0, 1, 2, 3], [0.0, 1.0, 2.0]],
    ids=["repeat", "above", "negative", "too-few", "too-many", "float"],
)
def test_dilation_rejects_bad_outcome_positions(positions):
    d = structured_dilation(cyclic_povm(3))
    with pytest.raises(InvalidParameterError):
        DilatedMeasurement(d.povm, d.matrix, np.array(positions), "structured")


# ---------------------------------------------------------------- platonic


def test_orbit_mixers_are_unitary():
    for kind in PLATONIC_KINDS:
        assert unitarity_residual(orbit_mixer(kind)) < 1e-14


def test_tetrahedron_dilation_matrix():
    d = structured_dilation(platonic_povm(TETRAHEDRON))
    a, b = TCO_A, TCO_B
    pre = np.sqrt(0.5) * np.array(
        [
            [a, a, b, b],
            [a, -a, -1j * b, 1j * b],
            [b, b, -a, -a],
            [b, -b, 1j * a, -1j * a],
        ]
    )
    expected = pre[[0, 3, 2, 1]]  # basis swap 1 <-> 3
    assert np.abs(d.matrix - expected).max() < 1e-14
    assert d.padding_positions.tolist() == []


def test_cube_dilation_spots():
    d = structured_dilation(platonic_povm(CUBE))
    assert d.dim == 8
    # column 1 carries the +i phase of the conjugated Fourier kernel
    assert abs(d.matrix[1, 1] - 0.5j * TCO_B) < 1e-14
    assert abs(d.matrix[5, 1] - 0.5j * TCO_A) < 1e-14
    assert abs(d.matrix[4, 0] - 0.5 * TCO_B) < 1e-14
    assert d.unitarity_residual() < 1e-12
    assert d.embedding_residual() < 1e-12


def test_octahedron_dilation_layout():
    d = structured_dilation(platonic_povm(OCTAHEDRON))
    assert d.outcome_positions.tolist() == [0, 1, 2, 4, 5, 6]
    assert d.padding_positions.tolist() == [3, 7]
    assert abs(d.matrix[3, 3] - TCO_B) < 1e-14
    assert abs(d.matrix[3, 7] + TCO_A) < 1e-14
    assert abs(d.matrix[7, 3] - TCO_A) < 1e-14
    assert abs(d.matrix[7, 7] - TCO_B) < 1e-14
    assert np.abs(d.matrix[:2, [3, 7]]).max() < 1e-14


def test_dodecahedron_mixer_spots():
    a = orbit_mixer(DODECAHEDRON)
    s = np.sqrt(0.5)
    assert abs(a[1, 3] + s * DOD_G) < 1e-14
    assert abs(a[2, 1] + s * DOD_D) < 1e-14
    assert abs(a[3, 2] + s * np.sqrt(0.5 - np.sqrt(75 + 30 * R5) / 30)) < 1e-14


def test_dodecahedron_dilation_layout():
    p = platonic_povm(DODECAHEDRON)
    d = structured_dilation(p)
    assert d.dim == 32
    assert d.n_qubits == 5
    assert d.outcome_positions[5] == 8
    assert d.outcome_positions[9] == 12
    assert d.outcome_positions[15] == 24
    assert d.padding_positions.size == 12
    assert np.abs(d.matrix[:2, 8] - p.vectors[5]).max() < 1e-14
    assert np.abs(d.matrix[:2, 5]).max() < 1e-14
    assert d.unitarity_residual() < 1e-12
    assert d.embedding_residual() < 1e-12


def test_icosahedron_dilation_layout():
    d = structured_dilation(platonic_povm(ICOSAHEDRON))
    assert d.dim == 16
    assert d.outcome_positions.tolist() == [0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 13, 14]
    assert d.padding_positions.tolist() == [3, 7, 11, 15]
    assert d.unitarity_residual() < 1e-12
    assert d.embedding_residual() < 1e-12


def family_matrix():
    families = [PovmFamily.cyclic(m) for m in (2, 3, 4, 5, 8, 16)]
    families += [PovmFamily.dihedral(m, 0.6, 0.8) for m in (2, 3, 4, 5, 6, 8)]
    families += [PovmFamily.platonic(kind) for kind in PLATONIC_KINDS]
    return families


@pytest.mark.parametrize("family", family_matrix(), ids=lambda f: f.label())
def test_structured_dilations_are_exact(family):
    d = structured_dilation(build_povm(family))
    assert d.unitarity_residual() < 1e-12
    assert d.embedding_residual() < 1e-12
    assert np.unique(d.outcome_positions).size == d.povm.n


# ---------------------------------------------------------------- generic completion


@pytest.mark.parametrize("family", family_matrix(), ids=lambda f: f.label())
def test_generic_completion(family):
    p = build_povm(family)
    d = generic_completion(p)
    assert d.method == "generic"
    assert d.unitarity_residual() < 1e-10
    assert d.embedding_residual() < 1e-10
    assert d.outcome_positions.tolist() == list(range(p.n))
    assert np.abs(d.matrix[:2] - padded_measurement_matrix(p)).max() < 1e-14


def test_generic_completion_rejects_incomplete_vectors():
    bad = Povm(
        np.array([[1.0, 0.0], [0.0, 0.5]]), PovmFamily(kind="cyclic", m=2)
    )
    with pytest.raises(NotIsometryError):
        generic_completion(bad)


def test_structured_dilation_rejects_unknown_kind():
    p = cyclic_povm(3)
    odd = Povm(p.vectors, PovmFamily(kind="prism", m=3))
    with pytest.raises(InvalidParameterError):
        structured_dilation(odd)


def test_dilation_json_export():
    d = structured_dilation(cyclic_povm(3))
    data = d.to_dict()
    assert data["method"] == "structured"
    assert data["dim"] == 4
    assert data["n_qubits"] == 2
    assert data["padding_indices"] == [3]
    assert [0, 0] in data["outcome_map"]
    re, im = data["matrix"][1][2]
    assert abs(complex(re, im) - d.matrix[1, 2]) < 1e-15
