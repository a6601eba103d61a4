"""Symmetric single-qubit measurement families.

Each family is a set of rank-one POVM elements A_j = |psi_j><psi_j| built
from one or more phase orbits, with every vector carrying the same norm so
that the elements sum to the identity.  Supported kinds:

* ``cyclic``     -- m points on the Bloch equator,
* ``dihedral``   -- two mirrored m-point rings at opposite latitudes,
* the five platonic solids, whose Bloch points are the solid's vertices.

One orbit rule builds every family: from the family's seed rows
(a_u, b_u), its m phases w_j and its scale, outcome m u + j, row m u + j
of the (n, 2) complex array used throughout the package, is
scale * (a_u, b_u w_j).  The phases are exp(-2*pi*1j*j/m), save the
tetrahedron's and the cube's exact roots of unity.  The five solids' rules
are one table; ``PovmFamily.orbits`` gives the shape without any vector.
"""

from __future__ import annotations

import functools
import math
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
FAMILY_KINDS = (CYCLIC, DIHEDRAL) + PLATONIC_KINDS

# Bloch points closer than this, in Euclidean distance, are treated as the
# same vertex.
DISTINCT_POINT_TOL = 1e-8


def _integer(value, name: str, error=InvalidParameterError) -> int:
    """``value`` as a Python int; ``error`` unless it is a Python or numpy
    integer, which a bool is not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
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
    converts.  Text never does, though ``float`` and ``complex`` parse it."""
    try:
        converted = convert(value) + 0
        if not isinstance(value, (str, bytes)):
            return converted
    except (TypeError, ValueError):
        pass
    raise InvalidParameterError(f"{name} must be a number, got {value!r}")


# The parameters each ring takes, a solid none, and the conversion that
# fixes each one's type.
_PARAMETERS = {CYCLIC: ("m",), DIHEDRAL: ("m", "alpha", "beta")}
_CONVERSIONS = (("m", functools.partial(_integer, name="m")), ("alpha", _real), ("beta", complex))


@dataclass(frozen=True)
class PovmFamily:
    """Identifies one measurement family and its parameters, each converted
    and checked once, here; InvalidParameterError for an unknown kind, for a
    parameter missing, ill-typed or ignored, for a ring of fewer than two
    outcomes and for a dihedral seed not finite and normalized, alpha >= 0."""

    kind: str
    m: Optional[int] = None
    alpha: Optional[float] = None
    beta: Optional[complex] = None

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise InvalidParameterError(f"unknown family kind {self.kind!r}")
        for name, convert in _CONVERSIONS:
            value = getattr(self, name)
            if (name in _PARAMETERS.get(self.kind, ())) != (value is not None):
                verb = "needs" if value is None else "takes no"
                raise InvalidParameterError(f"the {self.kind} family {verb} {name}")
            if value is not None:
                object.__setattr__(self, name, _converted(name, convert, value))
        if self.m is not None and self.m < 2:
            raise InvalidParameterError(f"{self.kind} family needs m >= 2")
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
    def orbits(self) -> tuple[int, int]:
        """(number of orbits, outcomes m per orbit), known without building
        any vector: outcome m u + j is orbit u's j-th phase."""
        seeds, phases, _ = _orbit_rule(self)
        return len(seeds), phases if isinstance(phases, int) else len(phases)

    @property
    def n_outcomes(self) -> int:
        """Number of outcomes, known without building any vector."""
        count, m = self.orbits
        return count * m

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


def _solid_rules() -> dict:
    """kind -> each solid's (seed rows, phases, scale), as ``_orbit_rule``
    returns it: the one place a solid is defined.  a, b = sqrt((3 +- sqrt 3)
    / 6); alpha, beta = sqrt(1/2 +- outer), gamma, delta = sqrt(1/2 +- inner)."""
    a, b = np.sqrt((3 + np.sqrt(3)) / 6), np.sqrt((3 - np.sqrt(3)) / 6)
    outer = np.sqrt(75 + 30 * np.sqrt(5)) / 30
    inner = np.sqrt(75 - 30 * np.sqrt(5)) / 30
    alpha, beta = np.sqrt(0.5 + outer), np.sqrt(0.5 - outer)
    gamma, delta = np.sqrt(0.5 + inner), np.sqrt(0.5 - inner)
    mirrored, upper = ((a, b), (b, -a)), ((alpha, beta), (beta, -alpha))
    return {
        TETRAHEDRON: (((a, b), (b, 1j * a)), (1, -1), np.sqrt(1 / 2)),
        CUBE: (mirrored, (1, 1j, -1, -1j), 0.5),  # exact fourth roots of unity
        OCTAHEDRON: (mirrored, 3, np.sqrt(1 / 3)),
        DODECAHEDRON: (upper + ((gamma, delta), (delta, -gamma)), 5, np.sqrt(1 / 10)),
        # the twelve-point solid swaps gamma and delta in its lower orbits
        ICOSAHEDRON: (upper + ((delta, gamma), (gamma, -delta)), 3, np.sqrt(1 / 6)),
    }


_SOLIDS = _solid_rules()


def _orbit_rule(family: PovmFamily) -> tuple:
    """The family's seed rows (a_u, b_u), its phases w_j, as their number m
    for ``_phases(m)`` or as exact values, and its scale."""
    if family.kind == CYCLIC:
        return [(1, 1)], family.m, np.sqrt(1 / family.m)
    if family.kind == DIHEDRAL:
        a, b = family.alpha, family.beta
        return [(a, b), (b, a)], family.m, np.sqrt(1 / family.m)
    return _SOLIDS[family.kind]


def _ring_separation(m: int, alpha: float, beta: complex) -> float:
    """Smallest Euclidean distance between the 2m Bloch points of the
    dihedral seed (alpha, beta), in closed form.

    The upper ring lies at height z = alpha^2 - |beta|^2 with radius
    rho = 2 alpha |beta| and azimuths arg(beta) - 2 pi j / m; the lower
    ring at -z, with azimuths -arg(beta) - 2 pi j / m.  Neighbours in a
    ring are 2 rho sin(pi / m) apart.  Across the rings the closest pair is
    turned by delta, the distance from 2 arg(beta) to the nearest multiple
    of 2 pi / m.
    """
    size = abs(beta)
    z, rho = alpha**2 - size**2, 2 * alpha * size
    step = 2 * math.pi / m
    offset = 2 * math.atan2(beta.imag, beta.real) % step
    delta = min(offset, step - offset)
    within = 2 * rho * math.sin(math.pi / m)
    return min(within, math.hypot(2 * z, 2 * rho * math.sin(delta / 2)))


def build_povm(family: PovmFamily) -> Povm:
    """Resolve a family into its vectors by the orbit rule: outcome m u + j
    is scale * (a_u, b_u w_j).

    A dihedral seed that brings two of the 2m Bloch points within
    DISTINCT_POINT_TOL of each other does not define a usable measurement
    of this kind and raises DegenerateOrbitError before any vector is built.
    """
    if family.kind == DIHEDRAL:
        m, alpha, beta = family.m, family.alpha, family.beta
        if alpha < DISTINCT_POINT_TOL or abs(beta) < DISTINCT_POINT_TOL:
            raise DegenerateOrbitError("polar seed collapses both rings to the poles")
        if _ring_separation(m, alpha, beta) < DISTINCT_POINT_TOL:
            raise DegenerateOrbitError("seed yields fewer than 2m distinct Bloch points")
    seeds, phases, scale = _orbit_rule(family)
    if isinstance(phases, int):
        phases = _phases(phases)
    tops, bottoms = np.array(seeds, dtype=complex).T
    vectors = np.empty((len(seeds), len(phases), 2), dtype=complex)
    vectors[..., 0] = tops[:, None]
    vectors[..., 1] = bottoms[:, None] * phases
    vectors *= scale
    return Povm(vectors.reshape(-1, 2), family)


def cyclic_povm(m: int) -> Povm:
    """m equally weighted outcomes on the Bloch equator."""
    return build_povm(PovmFamily.cyclic(m))


def dihedral_povm(m: int, alpha: float, beta: complex) -> Povm:
    """Two mirrored rings of m outcomes seeded by the pair (alpha, beta),
    normalized (alpha^2 + |beta|^2 = 1) with alpha real and nonnegative."""
    return build_povm(PovmFamily.dihedral(m, alpha, beta))


def platonic_povm(kind: str) -> Povm:
    """The measurement whose Bloch points are the vertices of a solid."""
    return build_povm(PovmFamily.platonic(kind))


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


def completeness_residual(povm: Povm) -> float:
    """Largest entry of |sum_j A_j - I|."""
    total = povm.vectors.conj().T @ povm.vectors
    return float(np.abs(total - np.eye(2)).max())


def validate_povm(povm: Povm) -> PovmValidation:
    """Measure how far a Povm is from a clean symmetric resolution."""
    residual = completeness_residual(povm)
    norms = np.linalg.norm(povm.vectors, axis=1) ** 2
    spread = float(norms.max() - norms.min())
    return PovmValidation(residual, spread)
