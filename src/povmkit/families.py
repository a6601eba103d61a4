"""Symmetric single-qubit measurement families.

Each family is a set of rank-one POVM elements A_j = |psi_j><psi_j| built
from one or more phase orbits, with every vector carrying the same norm so
that the elements sum to the identity.  Supported kinds:

* ``cyclic``     -- m points on the Bloch equator,
* ``dihedral``   -- two mirrored m-point rings at opposite latitudes,
* the five platonic solids, whose Bloch points are the solid's vertices.

Vectors are returned as the rows of an (n, 2) complex array, in the fixed
outcome order used throughout the package: orbit by orbit, phase index
ascending, with phase factor exp(-2*pi*1j*j/m).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateOrbitError,
    InvalidParameterError,
    InvalidRotationError,
    ZeroOperatorError,
)
from .linalg import DEFAULT_TOL, matrix_to_pairs, unitarity_residual

CYCLIC = "cyclic"
DIHEDRAL = "dihedral"
TETRAHEDRON = "tetrahedron"
CUBE = "cube"
OCTAHEDRON = "octahedron"
DODECAHEDRON = "dodecahedron"
ICOSAHEDRON = "icosahedron"

PLATONIC_KINDS = (TETRAHEDRON, CUBE, OCTAHEDRON, DODECAHEDRON, ICOSAHEDRON)
# Vertex count of each solid: its number of outcomes.
PLATONIC_OUTCOMES = {
    TETRAHEDRON: 4,
    CUBE: 8,
    OCTAHEDRON: 6,
    DODECAHEDRON: 20,
    ICOSAHEDRON: 12,
}
FAMILY_KINDS = (CYCLIC, DIHEDRAL) + PLATONIC_KINDS

# Bloch points closer than this are treated as the same vertex.
DISTINCT_POINT_TOL = 1e-8
# Sort key of the distinct-point sweep.  The direction lies off every
# coordinate axis and plane, so a ring rotated into a coordinate plane does
# not share one key; its 1-norm is below 1, so no finite row's key overflows.
_SWEEP_DIRECTION = np.array([0.5377, 0.3182, 0.7806]) / 2
# Candidate pairs the sweep checks at once; bounds its temporaries when many
# points share a key.
_SWEEP_CHUNK = 1 << 15


def _integer(value, name: str) -> int:
    """``value`` as a Python int; InvalidParameterError unless integral."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    """``float(value)`` of a value that is not complex: ``float`` drops a
    numpy complex's imaginary part with only a warning."""
    if np.iscomplexobj(value):
        raise TypeError
    return float(value)


def _converted(name: str, convert, value):
    """``convert(value) + 0``, which makes a zero's sign positive, so that
    equal parameters have the same bits; InvalidParameterError unless it
    converts."""
    try:
        return convert(value) + 0
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{name} must be a number, got {value!r}") from None


# The parameters each ring takes, a solid none, and the conversion that
# fixes each one's type.
_PARAMETERS = {CYCLIC: ("m",), DIHEDRAL: ("m", "alpha", "beta")}
_CONVERSIONS = (("m", functools.partial(_integer, name="m")), ("alpha", _real), ("beta", complex))


@dataclass(frozen=True)
class PovmFamily:
    """Identifies one measurement family and its parameters, each converted
    and checked once, here; InvalidParameterError for one missing,
    ill-typed or ignored, and for a dihedral seed that is not finite and
    normalized with alpha >= 0."""

    kind: str
    m: Optional[int] = None
    alpha: Optional[float] = None
    beta: Optional[complex] = None

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            return  # an unknown kind fails where it is used
        for name, convert in _CONVERSIONS:
            value = getattr(self, name)
            if (name in _PARAMETERS.get(self.kind, ())) != (value is not None):
                verb = "needs" if value is None else "takes no"
                raise InvalidParameterError(f"the {self.kind} family {verb} {name}")
            if value is not None:
                object.__setattr__(self, name, _converted(name, convert, value))
        if self.kind != DIHEDRAL:
            return
        alpha, beta = self.alpha, self.beta
        if not (np.isfinite(alpha) and np.isfinite(beta)):
            raise InvalidParameterError("seed amplitudes must be finite")
        if alpha < 0:
            raise InvalidParameterError("seed amplitude alpha must be nonnegative")
        # a component above 2 squares to more than 4; a huge one would overflow
        large = max(alpha, abs(beta.real), abs(beta.imag)) > 2
        if large or abs(alpha**2 + abs(beta) ** 2 - 1) > 1e-10:
            raise InvalidParameterError("seed must satisfy alpha^2 + |beta|^2 = 1")

    @classmethod
    def cyclic(cls, m: int) -> "PovmFamily":
        return cls(kind=CYCLIC, m=m)

    @classmethod
    def dihedral(cls, m: int, alpha: float, beta: complex) -> "PovmFamily":
        return cls(kind=DIHEDRAL, m=m, alpha=alpha, beta=beta)

    @classmethod
    def dihedral_from_angle(cls, m: int, theta: float) -> "PovmFamily":
        """Dihedral family whose upper ring sits at polar angle ``theta``."""
        theta = _converted("theta", _real, theta)
        if not np.isfinite(theta):
            raise InvalidParameterError(f"polar angle must be finite, got {theta}")
        alpha = np.cos(theta / 2)
        if alpha < 0:
            raise InvalidParameterError(
                f"polar angle theta={theta} gives cos(theta / 2) = {alpha:.3g} < 0;"
                " take theta in [-pi, pi]"
            )
        return cls.dihedral(m, alpha, np.sin(theta / 2))

    @classmethod
    def platonic(cls, kind: str) -> "PovmFamily":
        if kind not in PLATONIC_KINDS:
            raise InvalidParameterError(f"unknown platonic solid {kind!r}")
        return cls(kind=kind)

    @property
    def n_outcomes(self) -> int:
        """Number of outcomes, known without building any vector."""
        if self.kind == CYCLIC:
            return self.m
        if self.kind == DIHEDRAL:
            return 2 * self.m
        if self.kind in PLATONIC_OUTCOMES:
            return PLATONIC_OUTCOMES[self.kind]
        raise InvalidParameterError(f"unknown family kind {self.kind!r}")

    def label(self) -> str:
        if self.kind == CYCLIC:
            return f"cyclic(m={self.m})"
        if self.kind == DIHEDRAL:
            return f"dihedral(m={self.m}, alpha={self.alpha:.6g}, beta={self.beta:.6g})"
        return self.kind

    def to_dict(self) -> dict:
        data: dict = {"kind": self.kind}
        if self.m is not None:
            data["m"] = self.m
        if self.alpha is not None:
            data["alpha"] = self.alpha
        if self.beta is not None:
            data["beta"] = [self.beta.real, self.beta.imag]
        return data


@dataclass(frozen=True)
class PlatonicConstants:
    """Vector amplitudes (before orbit rescaling) for one platonic solid."""

    alpha: float
    beta: float
    gamma: Optional[float]
    delta: Optional[float]
    omega_order: int
    rescale: float


@functools.cache
def platonic_constants(kind: str) -> PlatonicConstants:
    """Closed-form amplitudes for the requested solid, computed once per
    kind; an unknown kind raises, and is not cached."""
    if kind in (TETRAHEDRON, CUBE, OCTAHEDRON):
        alpha = np.sqrt((3 + np.sqrt(3)) / 6)
        beta = np.sqrt((3 - np.sqrt(3)) / 6)
        order = {TETRAHEDRON: 4, CUBE: 4, OCTAHEDRON: 3}[kind]
        scale = {
            TETRAHEDRON: np.sqrt(1 / 2),
            CUBE: 0.5,
            OCTAHEDRON: np.sqrt(1 / 3),
        }[kind]
        return PlatonicConstants(alpha, beta, None, None, order, scale)
    if kind in (DODECAHEDRON, ICOSAHEDRON):
        outer = np.sqrt(75 + 30 * np.sqrt(5)) / 30
        inner = np.sqrt(75 - 30 * np.sqrt(5)) / 30
        alpha = np.sqrt(0.5 + outer)
        beta = np.sqrt(0.5 - outer)
        if kind == DODECAHEDRON:
            gamma = np.sqrt(0.5 + inner)
            delta = np.sqrt(0.5 - inner)
            return PlatonicConstants(alpha, beta, gamma, delta, 5, np.sqrt(1 / 10))
        # the twelve-point solid flips the sign choice in the inner ring
        gamma = np.sqrt(0.5 - inner)
        delta = np.sqrt(0.5 + inner)
        return PlatonicConstants(alpha, beta, gamma, delta, 3, np.sqrt(1 / 6))
    raise InvalidParameterError(f"unknown platonic solid {kind!r}")


@dataclass(eq=False)
class Povm:
    """A resolved measurement: vectors plus the family that produced them."""

    vectors: np.ndarray
    family: PovmFamily

    def __post_init__(self) -> None:
        vectors = np.array(self.vectors, dtype=complex)  # a copy: it is frozen below
        if vectors.ndim != 2 or vectors.shape[1] != 2:
            raise InvalidParameterError("vectors must form an (n, 2) array")
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)

    @property
    def n(self) -> int:
        """Number of outcomes."""
        return self.vectors.shape[0]

    def bloch_points(self) -> np.ndarray:
        """(n, 3) array of the outcome directions on the Bloch sphere.

        Row j is ``povm_element_to_bloch(vectors[j])``, in closed form:
        (2 Re(a* b), 2 Im(a* b), |a|^2 - |b|^2) / (|a|^2 + |b|^2).
        """
        a, b = self.vectors[:, 0], self.vectors[:, 1]
        top = a.real**2 + a.imag**2
        bottom = b.real**2 + b.imag**2
        norm_sq = top + bottom
        if (norm_sq < 1e-24).any():
            raise ZeroOperatorError("measurement vector is numerically zero")
        cross = 2 * a.conj() * b
        return np.stack([cross.real, cross.imag, top - bottom], axis=1) / norm_sq[:, None]

    def to_dict(self) -> dict:
        return {
            "family": self.family.to_dict(),
            "n": self.n,
            "vectors": matrix_to_pairs(self.vectors),
        }


def _phases(m: int) -> np.ndarray:
    return np.exp(-2j * np.pi * np.arange(m) / m)


def cyclic_povm(m: int) -> Povm:
    """m equally weighted outcomes on the Bloch equator."""
    family = PovmFamily.cyclic(m)
    m = family.m
    if m < 2:
        raise InvalidParameterError("cyclic family needs m >= 2")
    vectors = np.empty((m, 2), dtype=complex)
    vectors[:, 0] = 1.0
    vectors[:, 1] = _phases(m)
    vectors *= np.sqrt(1 / m)
    return Povm(vectors, family)


def _sweep(points: np.ndarray):
    """The finite rows' indices in order of their projection on
    _SWEEP_DIRECTION, those keys in that order, and the reach: two rows
    within DISTINCT_POINT_TOL of each other have keys closer than it."""
    finite = np.flatnonzero(np.isfinite(points).all(axis=1))
    rows = points[finite]
    key = rows @ _SWEEP_DIRECTION
    order = np.argsort(key, kind="stable")
    # Two points within the tolerance have keys closer than |d|_1 times the
    # tolerance plus the rounding of both keys (at most 3 eps |d|_1 max|p|
    # each); the reach is twice that, so no window misses a close pair.
    scale = float(np.abs(rows).max()) if len(rows) else 0.0
    reach = 2 * _SWEEP_DIRECTION.sum() * (
        DISTINCT_POINT_TOL + 8 * np.finfo(float).eps * scale
    )
    return finite[order], key[order], reach


def _close_pairs(points: np.ndarray):
    """Yield the index pairs (i, j) of rows within DISTINCT_POINT_TOL of
    each other in max-norm, as two arrays per batch of candidates.

    A row with a NaN or an infinity is never close.  The pairs are found by
    a sort-and-sweep: the finite rows are sorted by their ``_sweep`` key,
    each row's window holds the rows whose key can be that close, and only
    those candidate pairs take the max-norm test, about _SWEEP_CHUNK at a
    time.  That costs O(n log n) unless many points share a key.
    """
    points = np.asarray(points, dtype=float)
    index, key, reach = _sweep(points)
    # sorted row a is a candidate partner of the rows a + 1 .. a + counts[a]
    counts = np.searchsorted(key, key + reach, side="right")
    counts -= np.arange(1, len(key) + 1)
    total = int(counts.sum())
    if not total:
        return
    # split the sorted rows into runs of about _SWEEP_CHUNK candidates
    cuts = np.searchsorted(
        np.cumsum(counts), np.arange(_SWEEP_CHUNK, total, _SWEEP_CHUNK), side="right"
    )
    bounds = [0, *cuts.tolist(), len(key)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        c = counts[lo:hi]
        first = np.repeat(np.arange(lo, hi), c)
        second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(c) - c, c)
        i, j = index[first], index[second]
        close = np.abs(points[i] - points[j]).max(axis=1) < DISTINCT_POINT_TOL
        yield i[close], j[close]


def _all_distinct(points: np.ndarray) -> bool:
    """Whether the greedy scan of ``_distinct_points`` keeps every point.

    Exactly when no two points are close: of the close pairs, the one whose
    later point comes first has a representative as its earlier point, so
    that later point is dropped.  The sweep stops after the first run of
    candidates that holds a close pair.
    """
    return not any(len(i) for i, _ in _close_pairs(points))


def _distinct_points(points: np.ndarray) -> int:
    """Number of representatives a greedy scan keeps.

    Scanning in order, a point is a new representative unless an earlier
    representative lies within DISTINCT_POINT_TOL of it in max-norm.  A
    point with no earlier close point is one; the sweep marks the others,
    and only those are scanned, in index order, each against the
    representatives among the rows in its key window.  A later point
    close to it is marked, so not yet a representative when it is read.
    No pair is kept, so memory stays linear in the points.
    """
    points = np.asarray(points, dtype=float)
    is_rep = np.ones(len(points), dtype=bool)
    for i, j in _close_pairs(points):
        is_rep[np.maximum(i, j)] = False
    marked = np.flatnonzero(~is_rep)
    if not len(marked):
        return len(points)
    index, key, reach = _sweep(points)
    lo = np.searchsorted(key, key - reach, side="left")
    hi = np.searchsorted(key, key + reach, side="right")
    position = np.empty(len(points), dtype=np.intp)
    position[index] = np.arange(len(index))
    for i in marked.tolist():
        window = index[lo[position[i]] : hi[position[i]]]
        reps = window[is_rep[window]]
        close = np.abs(points[reps] - points[i]).max(axis=1) < DISTINCT_POINT_TOL
        is_rep[i] = not close.any()
    return int(is_rep.sum())


def dihedral_povm(m: int, alpha: float, beta: complex) -> Povm:
    """Two mirrored rings of m outcomes seeded by the pair (alpha, beta).

    The seed must be normalized (alpha^2 + |beta|^2 = 1) with alpha real
    and nonnegative.  Seeds that collapse the two rings onto fewer than 2m
    distinct Bloch points do not define a usable measurement of this kind
    and raise DegenerateOrbitError.
    """
    family = PovmFamily.dihedral(m, alpha, beta)
    m, alpha, beta = family.m, family.alpha, family.beta
    if m < 2:
        raise InvalidParameterError("dihedral family needs m >= 2")
    if alpha < DISTINCT_POINT_TOL or abs(beta) < DISTINCT_POINT_TOL:
        raise DegenerateOrbitError("polar seed collapses both rings to the poles")

    phases = _phases(m)
    vectors = np.empty((2 * m, 2), dtype=complex)
    vectors[:m, 0] = alpha
    vectors[:m, 1] = beta * phases
    vectors[m:, 0] = beta
    vectors[m:, 1] = alpha * phases
    vectors *= np.sqrt(1 / m)

    povm = Povm(vectors, family)
    if not _all_distinct(povm.bloch_points()):
        raise DegenerateOrbitError(
            "seed yields fewer than 2m distinct Bloch points"
        )
    return povm


def platonic_povm(kind: str) -> Povm:
    """The measurement whose Bloch points are the vertices of a solid."""
    c = platonic_constants(kind)
    a, b = c.alpha, c.beta
    if kind == TETRAHEDRON:
        rows = [(a, b), (a, -b), (b, 1j * a), (b, -1j * a)]
    elif kind == CUBE:
        quarter = (1, 1j, -1, -1j)  # exact fourth roots of unity
        rows = [(a, b * q) for q in quarter] + [(b, -a * q) for q in quarter]
    elif kind == OCTAHEDRON:
        phases = _phases(3)
        rows = [(a, b * w) for w in phases] + [(b, -a * w) for w in phases]
    else:
        phases = _phases(c.omega_order)
        rows = []
        for top, bottom in ((a, b), (b, -a), (c.gamma, c.delta), (c.delta, -c.gamma)):
            rows += [(top, bottom * w) for w in phases]
    vectors = c.rescale * np.array(rows, dtype=complex)
    return Povm(vectors, PovmFamily.platonic(kind))


def build_povm(family: PovmFamily) -> Povm:
    """Resolve a family description into its vectors."""
    if family.kind == CYCLIC:
        return cyclic_povm(family.m)
    if family.kind == DIHEDRAL:
        return dihedral_povm(family.m, family.alpha, family.beta)
    if family.kind in PLATONIC_KINDS:
        return platonic_povm(family.kind)
    raise InvalidParameterError(f"unknown family kind {family.kind!r}")


def rotate_povm(povm: Povm, u: np.ndarray) -> Povm:
    """Conjugate every element by the single-qubit unitary ``u``."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or not unitarity_residual(u) <= DEFAULT_TOL:
        raise InvalidRotationError("rotation must be a 2x2 unitary")
    return Povm(povm.vectors @ u.T, povm.family)


@dataclass(frozen=True)
class PovmValidation:
    """Diagnostics from validate_povm."""

    completeness_residual: float
    norm_spread: float
    distinct_bloch_points: int


def completeness_residual(povm: Povm) -> float:
    """Largest entry of |sum_j A_j - I|."""
    total = povm.vectors.conj().T @ povm.vectors
    return float(np.abs(total - np.eye(2)).max())


def validate_povm(povm: Povm) -> PovmValidation:
    """Measure how far a Povm is from a clean symmetric resolution."""
    residual = completeness_residual(povm)
    norms = np.linalg.norm(povm.vectors, axis=1) ** 2
    spread = float(norms.max() - norms.min())
    return PovmValidation(residual, spread, _distinct_points(povm.bloch_points()))
