"""Symmetric single-qubit POVMs, their unitary dilations, and circuits.

The pipeline: pick a family (``PovmFamily``), resolve it to vectors
(``build_povm``), dilate it to a register unitary (``structured_dilation``
or ``generic_completion``), synthesize the measurement circuit
(``synthesize_circuit``, or ``structured_circuit`` without the dilation
matrix), then compute or sample outcome statistics
(``analytic_probabilities``, ``circuit_probabilities``, ``sample``) and
check everything end to end (``verify_family``).
"""

from .bloch import (
    bloch_to_state,
    povm_element_to_bloch,
    state_to_bloch,
    validate_density_matrix,
)
from .circuits import (
    Circuit,
    CnotGate,
    ControlledGate,
    FourierGate,
    Gate,
    SingleQubitGate,
    SwapGate,
    apply_circuit,
    circuit_isometry,
    compile_circuit,
    format_circuit,
    inverse_circuit,
    orbit_mixer_adjoint_circuit,
    qft_circuit,
    synthesize_circuit,
)
from .dilation import (
    MAX_QUBITS,
    DilatedMeasurement,
    generic_completion,
    orbit_mixer,
    padded_measurement_matrix,
    register_size,
    structured_circuit,
    structured_dilation,
)
from .errors import (
    CircuitMismatchError,
    DegenerateOrbitError,
    InvalidDimensionError,
    InvalidGateError,
    InvalidParameterError,
    InvalidRotationError,
    InvalidStateError,
    NotIsometryError,
    OutsideBallError,
    PaddingLeakError,
    PhaseUndefinedWarning,
    PovmKitError,
    ZeroOperatorError,
)
from .families import (
    CUBE,
    CYCLIC,
    DIHEDRAL,
    DODECAHEDRON,
    FAMILY_KINDS,
    ICOSAHEDRON,
    OCTAHEDRON,
    PLATONIC_KINDS,
    TETRAHEDRON,
    Povm,
    PovmFamily,
    PovmValidation,
    build_povm,
    cyclic_povm,
    dihedral_povm,
    platonic_povm,
    rotate_povm,
    validate_povm,
)
from .linalg import (
    apply_gates,
    direct_sum,
    distance_up_to_global_phase,
    embed_on_qubits,
    unitarity_residual,
)
from .simulate import (
    DEFAULT_SEED,
    SampleCounts,
    VerificationReport,
    analytic_probabilities,
    circuit_probabilities,
    dilation_probabilities,
    random_density_matrices,
    random_density_matrix,
    random_pure_state,
    sample,
    verify_family,
)

__version__ = "0.1.0"
