"""Exception types shared across the package."""


class PovmKitError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDimensionError(PovmKitError):
    """Matrix or register size does not fit the requested operation."""


class InvalidStateError(PovmKitError):
    """Input is not a valid qubit density matrix."""


class OutsideBallError(PovmKitError):
    """Bloch coordinates lie outside the unit ball."""


class ZeroOperatorError(PovmKitError):
    """Measurement vector is (numerically) zero and has no Bloch image."""


class InvalidParameterError(PovmKitError):
    """Family parameter out of range (size, seed normalization, ...)."""


class DegenerateOrbitError(PovmKitError):
    """Dihedral seed whose orbit collapses to fewer distinct Bloch points."""


class InvalidRotationError(PovmKitError):
    """Rotation matrix is not a 2x2 unitary."""


class NotIsometryError(PovmKitError):
    """Rows to complete are not orthonormal."""


class InvalidGateError(PovmKitError):
    """Gate references bad qubits or carries a malformed matrix."""


class CircuitMismatchError(PovmKitError):
    """Circuit does not compile to the dilation it is simulated against."""


class PaddingLeakError(PovmKitError):
    """Simulation put non-negligible probability on padding outcomes."""


class PhaseUndefinedWarning(UserWarning):
    """Global phase between two matrices is undefined (zero overlap)."""
