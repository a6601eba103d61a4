"""Oracle tests for the measurement families and their geometry."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from povmkit.cli import default_verify_matrix
from povmkit.errors import (
    DegenerateOrbitError,
    InvalidParameterError,
    InvalidRotationError,
)
from povmkit.families import (
    CUBE,
    CYCLIC,
    DIHEDRAL,
    DISTINCT_POINT_TOL,
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
    rotate_povm,
    validate_povm,
    _SOLIDS,
)

from helpers import closest_pair_distance

# closed forms recomputed here, independently of the package
TCO_A = np.sqrt((3 + np.sqrt(3)) / 6)
TCO_B = np.sqrt((3 - np.sqrt(3)) / 6)
R5 = np.sqrt(5.0)
DOD_A = np.sqrt(0.5 + np.sqrt(75 + 30 * R5) / 30)
DOD_B = np.sqrt(0.5 - np.sqrt(75 + 30 * R5) / 30)
DOD_G = np.sqrt(0.5 + np.sqrt(75 - 30 * R5) / 30)
DOD_D = np.sqrt(0.5 - np.sqrt(75 - 30 * R5) / 30)


def completeness_residual(povm):
    total = sum(np.outer(v, v.conj()) for v in povm.vectors)
    return np.abs(total - np.eye(2)).max()


# ---------------------------------------------------------------- cyclic


def test_cyclic_three_vectors():
    p = cyclic_povm(3)
    w = np.exp(-2j * np.pi / 3)
    s = np.sqrt(1 / 3)
    expected = s * np.array([[1, 1], [1, w], [1, w**2]])
    assert np.abs(p.vectors - expected).max() < 1e-14


def test_cyclic_element_outer_product():
    p = cyclic_povm(3)
    w = np.exp(-2j * np.pi / 3)
    a1 = np.outer(p.vectors[1], p.vectors[1].conj())
    expected = np.array([[1, w**2], [w, 1]]) / 3
    assert np.abs(a1 - expected).max() < 1e-14


@pytest.mark.parametrize("m", range(2, 17))
def test_cyclic_completeness(m):
    assert completeness_residual(cyclic_povm(m)) < 1e-12


def test_cyclic_bloch_geometry():
    m = 5
    points = cyclic_povm(m).bloch_points()
    for j, p in enumerate(points):
        az = np.arctan2(p[1], p[0]) % (2 * np.pi)
        assert abs(az - (-2 * np.pi * j / m) % (2 * np.pi)) % (2 * np.pi) < 1e-10
        assert abs(p[2]) < 1e-12


def test_cyclic_equal_norms():
    p = cyclic_povm(7)
    norms = np.linalg.norm(p.vectors, axis=1) ** 2
    assert np.abs(norms - 2 / 7).max() < 1e-14


@pytest.mark.parametrize("m", [0, 1, -3])
def test_cyclic_needs_two_outcomes(m):
    with pytest.raises(InvalidParameterError):
        cyclic_povm(m)


# ---------------------------------------------------------------- dihedral


def test_dihedral_vectors():
    p = dihedral_povm(3, 0.6, 0.8)
    w = np.exp(-2j * np.pi / 3)
    s = np.sqrt(1 / 3)
    assert p.n == 6
    for j in range(3):
        assert np.abs(p.vectors[j] - s * np.array([0.6, 0.8 * w**j])).max() < 1e-14
        assert np.abs(p.vectors[3 + j] - s * np.array([0.8, 0.6 * w**j])).max() < 1e-14


def test_dihedral_completeness_and_heights():
    p = dihedral_povm(4, 0.6, 0.8)
    assert completeness_residual(p) < 1e-12
    z = p.bloch_points()[:, 2]
    assert np.abs(z[:4] - (0.36 - 0.64)).max() < 1e-12
    assert np.abs(z[4:] - (0.64 - 0.36)).max() < 1e-12


def test_dihedral_complex_seed():
    beta = 0.8 * np.exp(0.3j)
    p = dihedral_povm(5, 0.6, beta)
    assert completeness_residual(p) < 1e-12
    assert closest_pair_distance(p.bloch_points()) > DISTINCT_POINT_TOL


@pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (0.0, 1.0)])
def test_dihedral_polar_seed_is_degenerate(alpha, beta):
    with pytest.raises(DegenerateOrbitError):
        dihedral_povm(3, alpha, beta)


def test_dihedral_equatorial_seed_is_degenerate():
    s = np.sqrt(0.5)
    with pytest.raises(DegenerateOrbitError):
        dihedral_povm(2, s, s)


@pytest.mark.parametrize("ratio", [0.5, 0.99, 1.01, 1.5])
@pytest.mark.parametrize("case", ["across", "within"])
def test_degeneracy_band(case, ratio):
    # seeds whose Euclidean closest pair lies at ratio * DISTINCT_POINT_TOL:
    # "across", points 0 and m of an aligned ring pair near the equator,
    # which differ in z only; "within", neighbours 0 and 1 of a near-polar
    # ring of 1000, whose alpha and |beta| stay above the tolerance.  The
    # max-norm sweep this check replaced refused both at 0.5 and 0.99, and
    # "within" at 1.01 too: its chords run in every direction, and one at
    # 45 degrees has a max-norm of 0.71 times its length.
    tol = DISTINCT_POINT_TOL
    if case == "across":
        family = PovmFamily.dihedral_from_angle(4, np.arccos(ratio * tol / 2))
        pair = (0, 4)
    else:
        chord = 2 * np.sin(np.pi / 1000)  # of the unit circle, between neighbours
        family = PovmFamily.dihedral_from_angle(1000, np.arcsin(ratio * tol / chord))
        pair = (0, 1)
    if ratio < 1:
        with pytest.raises(DegenerateOrbitError, match="fewer than 2m distinct"):
            build_povm(family)
    else:
        points = build_povm(family).bloch_points()[list(pair)]
        assert np.linalg.norm(points[1] - points[0]) == pytest.approx(ratio * tol, rel=1e-6)


def test_dihedral_seed_validation():
    with pytest.raises(InvalidParameterError):
        dihedral_povm(3, 0.6, 0.7)  # not normalized
    with pytest.raises(InvalidParameterError):
        dihedral_povm(3, -0.6, 0.8)
    with pytest.raises(InvalidParameterError):
        dihedral_povm(1, 0.6, 0.8)
    with pytest.raises(InvalidParameterError):
        dihedral_povm(3, "x", 0.8)
    with pytest.raises(InvalidParameterError):
        dihedral_povm(3, 0.6, None)


@pytest.mark.parametrize(
    "alpha,beta",
    [(np.nan, 0.8), (0.6, np.nan), (0.6, complex(0.8, np.nan)), (np.inf, 0.8)],
)
def test_dihedral_rejects_non_finite_seed(alpha, beta):
    with pytest.raises(InvalidParameterError):
        dihedral_povm(3, alpha, beta)


@pytest.mark.parametrize(
    "alpha,beta",
    [(1e200, 0.5), (0.5, 1e200), (0.6, 1e200j), (0.6, complex(1e308, 1e308)), (1e155, 0.0)],
)
@pytest.mark.filterwarnings("error")
def test_dihedral_seed_whose_squares_overflow_is_invalid(alpha, beta):
    with pytest.raises(InvalidParameterError, match=r"alpha\^2"):
        build_povm(PovmFamily.dihedral(3, alpha, beta))


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
def test_dihedral_from_angle_rejects_non_finite_angle(theta):
    with pytest.raises(InvalidParameterError):
        PovmFamily.dihedral_from_angle(3, theta)


@pytest.mark.parametrize("theta", [object(), 1j, np.complex128(1.0), "x", None, "1.0"])
@pytest.mark.filterwarnings("error")
def test_an_angle_that_does_not_convert_is_invalid(theta):
    # float() of a numpy complex drops its imaginary part with only a warning
    with pytest.raises(InvalidParameterError, match="theta must be a number"):
        PovmFamily.dihedral_from_angle(3, theta)


@given(st.floats(-30.0, 30.0))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_dihedral_from_angle_refuses_exactly_the_angles_alpha_would_refuse(theta):
    # an angle with cos(theta / 2) < 0 was refused only when the ring was
    # built, by an error on alpha, a parameter the caller never gave
    if np.cos(theta / 2) < 0:
        with pytest.raises(InvalidParameterError, match="polar angle") as caught:
            PovmFamily.dihedral_from_angle(3, theta)
        assert "alpha" not in str(caught.value)
    else:
        family = PovmFamily.dihedral_from_angle(3, theta)
        assert (family.alpha, family.beta) == (np.cos(theta / 2), np.sin(theta / 2))


def test_dihedral_from_angle():
    fam = PovmFamily.dihedral_from_angle(3, np.pi / 3)
    assert abs(fam.alpha - np.cos(np.pi / 6)) < 1e-15
    assert abs(fam.beta - np.sin(np.pi / 6)) < 1e-15
    p = build_povm(fam)
    assert np.abs(p.bloch_points()[:3, 2] - 0.5).max() < 1e-12


@pytest.mark.parametrize(
    "make",
    [
        PovmFamily.cyclic,
        lambda m: PovmFamily.dihedral(m, 0.6, 0.8),
        lambda m: PovmFamily.dihedral_from_angle(m, 1.0),
        lambda m: cyclic_povm(m).family,
        lambda m: dihedral_povm(m, 0.6, 0.8).family,
    ],
    ids=["cyclic", "dihedral", "dihedral-from-angle", "cyclic-povm", "dihedral-povm"],
)
def test_ring_size_must_be_an_integer(make):
    # int() would truncate 3.9 to a valid ring size and parse "5"
    for m in (2.5, 3.9, "5"):
        with pytest.raises(InvalidParameterError, match="m must be an integer"):
            make(m)
    m = make(np.int64(5)).m
    assert m == 5 and type(m) is int


# ---------------------------------------------------------------- constants


def test_shared_tetra_cube_octa_constants():
    for kind in (TETRAHEDRON, CUBE, OCTAHEDRON):
        seeds, _, _ = _SOLIDS[kind]
        a, b = seeds[0]
        assert abs(a**2 - (3 + np.sqrt(3)) / 6) < 1e-12
        assert abs(b**2 - (3 - np.sqrt(3)) / 6) < 1e-12
        assert len(seeds) == 2


def test_rescale_factors():
    assert abs(_SOLIDS[TETRAHEDRON][2] - np.sqrt(1 / 2)) < 1e-15
    assert abs(_SOLIDS[CUBE][2] - 0.5) < 1e-15
    assert abs(_SOLIDS[OCTAHEDRON][2] - np.sqrt(1 / 3)) < 1e-15
    assert abs(_SOLIDS[DODECAHEDRON][2] - np.sqrt(1 / 10)) < 1e-15
    assert abs(_SOLIDS[ICOSAHEDRON][2] - np.sqrt(1 / 6)) < 1e-15


def test_dodecahedron_constants():
    (a, b), _, (g, d), _ = _SOLIDS[DODECAHEDRON][0]
    assert abs(a - DOD_A) < 1e-15
    assert abs(b - DOD_B) < 1e-15
    assert abs(g - DOD_G) < 1e-15
    assert abs(d - DOD_D) < 1e-15


def test_icosahedron_swaps_inner_constants():
    (a, b), _, (g, d), _ = _SOLIDS[ICOSAHEDRON][0]
    assert abs(a - DOD_A) < 1e-15
    assert abs(b - DOD_B) < 1e-15
    # the inner-ring radical takes the opposite sign choice
    assert abs(g - DOD_D) < 1e-15
    assert abs(d - DOD_G) < 1e-15


def test_unknown_platonic_kind():
    with pytest.raises(InvalidParameterError):
        platonic_povm("cuboctahedron")


@pytest.mark.parametrize(
    "family",
    [PovmFamily.cyclic(m) for m in (2, 5, 16)]
    + [PovmFamily.dihedral(m, 0.6, 0.8) for m in (2, 7)]
    + [PovmFamily.platonic(kind) for kind in PLATONIC_KINDS],
    ids=lambda f: f.label(),
)
def test_outcome_count_matches_built_povm(family):
    assert family.n_outcomes == build_povm(family).n


def test_outcome_count_of_unknown_kind():
    with pytest.raises(InvalidParameterError, match="unknown family kind"):
        PovmFamily(kind="cuboctahedron")


ORBIT_SHAPES = [
    (PovmFamily.cyclic(5), (1, 5)),
    (PovmFamily.dihedral(7, 0.6, 0.8), (2, 7)),
    (PovmFamily.platonic(TETRAHEDRON), (2, 2)),
    (PovmFamily.platonic(CUBE), (2, 4)),
    (PovmFamily.platonic(OCTAHEDRON), (2, 3)),
    (PovmFamily.platonic(DODECAHEDRON), (4, 5)),
    (PovmFamily.platonic(ICOSAHEDRON), (4, 3)),
]


@pytest.mark.parametrize(
    "family, shape", ORBIT_SHAPES, ids=[f.label() for f, _ in ORBIT_SHAPES]
)
def test_orbit_shape(family, shape):
    count, m = family.orbits
    assert (count, m) == shape
    assert family.n_outcomes == count * m == build_povm(family).n


@pytest.mark.parametrize("m", [1, 0, -3])
@pytest.mark.parametrize(
    "make",
    [PovmFamily.cyclic, lambda m: PovmFamily.dihedral(m, 0.6, 0.8), lambda m: PovmFamily(CYCLIC, m)],
    ids=["cyclic", "dihedral", "constructor"],
)
def test_a_ring_of_fewer_than_two_outcomes_is_not_made(make, m):
    with pytest.raises(InvalidParameterError, match="family needs m >= 2"):
        make(m)


def test_vector_bytes_are_pinned():
    """SHA-256 over ``build_povm(f).vectors.tobytes()`` for 44 families, in
    this order: the 17 ``verify --all`` families; cyclic 7, 12, 255, 256,
    1000, 4095 and 4096; ``dihedral_from_angle(m, theta)`` for m in (2, 3,
    7, 96, 128, 2048), each at theta in (0.3, 1.0, 2.2); then dihedral
    (8, 0.6, 0.8j) and (5, 0.6, 0.48+0.64j).  The digest is the one of the
    per-family builders at commit b86021e, which the orbit rule replaced;
    recompute it with ``pytest tests/test_families.py -k pinned``."""
    families = default_verify_matrix()
    families += [PovmFamily.cyclic(m) for m in (7, 12, 255, 256, 1000, 4095, 4096)]
    families += [
        PovmFamily.dihedral_from_angle(m, theta)
        for m in (2, 3, 7, 96, 128, 2048)
        for theta in (0.3, 1.0, 2.2)
    ]
    families += [PovmFamily.dihedral(8, 0.6, 0.8j), PovmFamily.dihedral(5, 0.6, 0.48 + 0.64j)]
    assert len(families) == 44
    digest = hashlib.sha256()
    for family in families:
        digest.update(build_povm(family).vectors.tobytes())
    assert digest.hexdigest() == "af58b8550b72e35e3be411c6b00f6b461c24e8e3bc87cc220348baf3b00f41a3"


# ---------------------------------------------------------------- family fields


def test_a_ring_needs_its_parameters():
    for kind, fields in ((CYCLIC, {}), (DIHEDRAL, {"m": 4}), (DIHEDRAL, {"m": 4, "alpha": 0.6})):
        with pytest.raises(InvalidParameterError, match="needs"):
            PovmFamily(kind, **fields)


def test_a_ring_size_given_as_a_float_is_invalid():
    with pytest.raises(InvalidParameterError, match="m must be an integer"):
        PovmFamily(CYCLIC, 4.0)


@pytest.mark.parametrize(
    "alpha, beta",
    [(1j, 0.8), ("x", 0.8), (0.6, "x"), (0.6, [0.8]), (np.complex128(0.6 + 0.5j), 0.8)]
    # text that float and complex would parse, as m never was: "5" is no ring size
    + [
        pytest.param("0.6", 0.8, id="text-alpha"),
        pytest.param(0.6, "0.8", id="text-beta"),
        pytest.param(b"0.6", 0.8, id="bytes-alpha"),
        pytest.param(0.6, "0.8+0j", id="complex-text-beta"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_a_seed_that_does_not_convert_is_invalid(alpha, beta):
    with pytest.raises(InvalidParameterError, match="must be a number"):
        PovmFamily(DIHEDRAL, 4, alpha, beta)


@pytest.mark.parametrize("fields", [{"m": 3}, {"alpha": 0.6}, {"beta": 0.8}])
def test_a_solid_takes_no_ring_parameter(fields):
    for kind in PLATONIC_KINDS:
        with pytest.raises(InvalidParameterError, match="takes no"):
            PovmFamily(kind, **fields)


def test_a_cyclic_family_takes_no_seed():
    with pytest.raises(InvalidParameterError, match="takes no alpha"):
        PovmFamily(CYCLIC, 4, alpha=0.6)


def test_the_constructor_converts_what_the_classmethods_did():
    family = PovmFamily(DIHEDRAL, np.int64(4), np.float64(0.6), 0.8)
    assert family == PovmFamily.dihedral(4, 0.6, 0.8)
    assert repr(family) == repr(PovmFamily.dihedral(4, 0.6, 0.8))
    assert [type(v) for v in (family.m, family.alpha, family.beta)] == [int, float, complex]
    assert PovmFamily(CUBE) == PovmFamily.platonic(CUBE)


# ---------------------------------------------------------------- platonic vectors


def test_platonic_sizes_and_completeness():
    sizes = {
        TETRAHEDRON: 4,
        CUBE: 8,
        OCTAHEDRON: 6,
        DODECAHEDRON: 20,
        ICOSAHEDRON: 12,
    }
    for kind, n in sizes.items():
        p = platonic_povm(kind)
        assert p.n == n
        assert completeness_residual(p) < 1e-12
        norms = np.linalg.norm(p.vectors, axis=1) ** 2
        assert norms.max() - norms.min() < 1e-12


def test_tetrahedron_vectors():
    v = platonic_povm(TETRAHEDRON).vectors
    s = np.sqrt(1 / 2)
    expected = s * np.array(
        [
            [TCO_A, TCO_B],
            [TCO_A, -TCO_B],
            [TCO_B, 1j * TCO_A],
            [TCO_B, -1j * TCO_A],
        ]
    )
    assert np.abs(v - expected).max() < 1e-14


def test_cube_vectors():
    v = platonic_povm(CUBE).vectors
    a, b = TCO_A / 2, TCO_B / 2
    expected = np.array(
        [
            [a, b],
            [a, 1j * b],
            [a, -b],
            [a, -1j * b],
            [b, -a],
            [b, -1j * a],
            [b, a],
            [b, 1j * a],
        ]
    )
    assert np.abs(v - expected).max() < 1e-14


def test_octahedron_vectors():
    v = platonic_povm(OCTAHEDRON).vectors
    w = np.exp(-2j * np.pi / 3)
    s = np.sqrt(1 / 3)
    assert np.abs(v[3] - s * np.array([TCO_B, -TCO_A])).max() < 1e-14
    assert np.abs(v[4] - s * np.array([TCO_B, -TCO_A * w])).max() < 1e-14


def test_dodecahedron_orbit_layout():
    v = platonic_povm(DODECAHEDRON).vectors
    s = np.sqrt(1 / 10)
    w = np.exp(-2j * np.pi / 5)
    assert np.abs(v[0] - s * np.array([DOD_A, DOD_B])).max() < 1e-14
    assert np.abs(v[5] - s * np.array([DOD_B, -DOD_A])).max() < 1e-14
    assert np.abs(v[10] - s * np.array([DOD_G, DOD_D])).max() < 1e-14
    assert np.abs(v[19] - s * np.array([DOD_D, -DOD_G * w**4])).max() < 1e-14


def test_icosahedron_orbit_layout():
    v = platonic_povm(ICOSAHEDRON).vectors
    s = np.sqrt(1 / 6)
    assert np.abs(v[0] - s * np.array([DOD_A, DOD_B])).max() < 1e-14
    assert np.abs(v[3] - s * np.array([DOD_B, -DOD_A])).max() < 1e-14
    # inner orbits use the swapped radicals
    assert np.abs(v[6] - s * np.array([DOD_D, DOD_G])).max() < 1e-14
    assert np.abs(v[9] - s * np.array([DOD_G, -DOD_D])).max() < 1e-14


# ---------------------------------------------------------------- geometry


def test_platonic_points_are_pure():
    for kind in PLATONIC_KINDS:
        points = platonic_povm(kind).bloch_points()
        assert np.abs(np.linalg.norm(points, axis=1) - 1.0).max() < 1e-10


def test_tetrahedron_pairwise_angles():
    points = platonic_povm(TETRAHEDRON).bloch_points()
    dots = points @ points.T
    off = dots[~np.eye(4, dtype=bool)]
    assert np.abs(off + 1 / 3).max() < 1e-9


def test_octahedron_axes():
    points = platonic_povm(OCTAHEDRON).bloch_points()
    dots = points @ points.T
    for j in range(3):
        assert abs(dots[j, j + 3] + 1.0) < 1e-9  # antipodal pairs
    for i in range(6):
        for j in range(6):
            if i != j and abs(i - j) != 3:
                assert abs(dots[i, j]) < 1e-9  # everything else orthogonal


@pytest.mark.parametrize("kind", [CUBE, OCTAHEDRON, DODECAHEDRON, ICOSAHEDRON])
def test_inversion_closure(kind):
    points = platonic_povm(kind).bloch_points()
    for p in points:
        assert min(np.linalg.norm(points + p, axis=1)) < 1e-9


def test_icosahedron_dot_spectrum():
    points = platonic_povm(ICOSAHEDRON).bloch_points()
    dots = points @ points.T
    allowed = np.array([-1.0, -1 / np.sqrt(5), 1 / np.sqrt(5)])
    for i in range(12):
        for j in range(i + 1, 12):
            assert np.abs(allowed - dots[i, j]).min() < 1e-9


def test_first_vertex_positions():
    outer = np.array([np.sqrt(2 / 3), 0.0, np.sqrt(1 / 3)])
    for kind in (TETRAHEDRON, CUBE, OCTAHEDRON):
        assert np.abs(platonic_povm(kind).bloch_points()[0] - outer).max() < 1e-10
    ring = np.array(
        [np.sqrt((10 - 2 * R5) / 15), 0.0, np.sqrt((5 + 2 * R5) / 15)]
    )
    for kind in (DODECAHEDRON, ICOSAHEDRON):
        assert np.abs(platonic_povm(kind).bloch_points()[0] - ring).max() < 1e-10


# ---------------------------------------------------------------- rotation


def test_rotate_povm_about_z():
    theta = 0.71
    u = np.diag([1.0, np.exp(1j * theta)])
    p = cyclic_povm(5)
    q = rotate_povm(p, u)
    assert completeness_residual(q) < 1e-12
    for before, after in zip(p.bloch_points(), q.bloch_points()):
        az_before = np.arctan2(before[1], before[0])
        az_after = np.arctan2(after[1], after[0])
        diff = (az_after - az_before - theta) % (2 * np.pi)
        assert min(diff, 2 * np.pi - diff) < 1e-12


def test_rotate_povm_rejects_non_unitary():
    with pytest.raises(InvalidRotationError):
        rotate_povm(cyclic_povm(3), np.array([[1.0, 0.2], [0.0, 1.0]]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rotate_povm_rejects_non_finite_rotation(bad):
    with pytest.raises(InvalidRotationError):
        rotate_povm(cyclic_povm(3), np.full((2, 2), bad))
    with pytest.raises(InvalidRotationError):
        rotate_povm(cyclic_povm(3), np.array([[1.0, 0.0], [0.0, bad]]))


# ---------------------------------------------------------------- validation, export


def test_validate_povm_fields():
    v = validate_povm(platonic_povm(TETRAHEDRON))
    assert v.completeness_residual < 1e-12
    assert v.norm_spread < 1e-12


def test_family_labels():
    assert PovmFamily.cyclic(4).label() == "cyclic(m=4)"
    assert PovmFamily.platonic(CUBE).label() == "cube"
    assert "dihedral" in PovmFamily.dihedral(3, 0.6, 0.8).label()


def test_build_povm_dispatch():
    assert build_povm(PovmFamily.cyclic(4)).n == 4
    assert build_povm(PovmFamily.dihedral(3, 0.6, 0.8)).n == 6
    assert build_povm(PovmFamily.platonic(ICOSAHEDRON)).n == 12
    with pytest.raises(InvalidParameterError, match="unknown family kind"):
        PovmFamily(kind="hexagon")


@pytest.mark.parametrize("family", default_verify_matrix(), ids=lambda f: f.label())
def test_build_povm_keeps_the_callers_family(family):
    assert build_povm(family).family is family


def test_povm_leaves_the_callers_array_writable():
    vectors = cyclic_povm(4).vectors.copy()
    povm = Povm(vectors, PovmFamily.cyclic(4))
    vectors[0, 0] = 5  # raised "assignment destination is read-only"
    assert povm.vectors[0, 0] == 0.5
    with pytest.raises(ValueError, match="read-only"):
        povm.vectors[0, 0] = 5


def test_povm_json_export():
    p = dihedral_povm(2, 0.6, 0.8j)
    blob = json.dumps(p.to_dict())
    data = json.loads(blob)
    assert data["family"]["kind"] == DIHEDRAL
    assert data["family"]["m"] == 2
    assert data["family"]["beta"] == [0.0, 0.8]
    assert len(data["vectors"]) == 4
    re, im = data["vectors"][0][0]
    assert abs(complex(re, im) - p.vectors[0, 0]) < 1e-15


def test_cyclic_family_json():
    data = cyclic_povm(3).to_dict()
    assert data["family"] == {"kind": CYCLIC, "m": 3}
