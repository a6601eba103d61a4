"""Probability computation, sampling and end-to-end verification.

The analytic path evaluates <psi_j| rho |psi_j> directly from the
measurement vectors.  The register paths embed rho (or a pure state) into
the dilated register, apply the dilation's adjoint (either as a matrix or
as a compiled circuit), read the computational-basis diagonal and fold it
back onto measurement outcomes, checking that the padding basis states
stay empty.  The qubit state occupies only register basis states 0 and 1,
so the diagonal needs only the first two columns of the applied matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .bloch import validate_density_matrix
from .circuits import Circuit, circuit_isometry, compile_circuit, synthesize_circuit
from .dilation import (
    DilatedMeasurement,
    generic_completion,
    register_size,
    structured_dilation,
)
from .errors import (
    CircuitMismatchError,
    DegenerateOrbitError,
    InvalidParameterError,
    InvalidStateError,
    PaddingLeakError,
)
from .families import Povm, PovmFamily, build_povm, validate_povm
from .linalg import distance_up_to_global_phase

DEFAULT_SEED = 0x5EED

# verification thresholds
COMPLETENESS_TOL = 1e-10
DILATION_TOL = 1e-10
CIRCUIT_DISTANCE_TOL = 1e-9
PROBABILITY_TOL = 1e-9
PADDING_TOL = 1e-12

# the probability routines raise PaddingLeakError above this; looser than
# PADDING_TOL, as they raise where verify_family only records a verdict
LEAK_TOL = 1e-9

# a compiled circuit further than this from the dilation adjoint is wrong
MISMATCH_TOL = 1e-8

# Uniforms drawn at once by ``sample``; bounds its memory at a few MB.
SAMPLE_CHUNK = 1 << 16


def analytic_probabilities(povm: Povm, rho: np.ndarray) -> np.ndarray:
    """Outcome probabilities <psi_j| rho |psi_j| for a density matrix."""
    rho = validate_density_matrix(rho)
    v = povm.vectors
    return np.einsum("ni,ij,nj->n", v.conj(), rho, v).real


def _register_diagonal(isometry: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Diagonal of U (rho + 0) U^dag from U's first two columns.

    ``rho`` may carry leading batch axes; the diagonal gets the same ones.
    """
    return np.einsum("ia,...ab,ib->...i", isometry, rho, isometry.conj()).real


def _fold(dilated: DilatedMeasurement, basis_probs: np.ndarray):
    """Outcome probabilities and the largest padding probability.

    Works along the last axis, so a batch of diagonals folds at once.  The
    leak is never below 0, and a NaN anywhere in the padding shows in it.
    """
    probs = basis_probs[..., dilated.outcome_positions]
    leak = basis_probs[..., list(dilated.padding_indices)].max(axis=-1, initial=0.0)
    return probs, leak


def fold_probabilities(dilated: DilatedMeasurement, basis_probs: np.ndarray) -> np.ndarray:
    """Collapse register-basis probabilities onto measurement outcomes.

    Raises PaddingLeakError when a padding basis state carries more than
    LEAK_TOL probability, since a correct dilation never populates those
    states.
    """
    basis_probs = np.asarray(basis_probs, dtype=float)
    probs, leak = _fold(dilated, basis_probs)
    leak = float(leak)
    if not leak <= LEAK_TOL:
        raise PaddingLeakError(
            f"padding basis states carry probability {leak:.3e}"
        )
    return probs


def dilation_probabilities(dilated: DilatedMeasurement, rho: np.ndarray) -> np.ndarray:
    """Outcome probabilities via the dilation matrix itself."""
    rho = validate_density_matrix(rho)
    isometry = dilated.matrix[:2].conj().T
    return fold_probabilities(dilated, _register_diagonal(isometry, rho))


def circuit_probabilities(
    dilated: DilatedMeasurement, circuit: Circuit, rho: np.ndarray, check: bool = True
) -> np.ndarray:
    """Outcome probabilities from running the compiled circuit on rho.

    With ``check`` the full compiled matrix is compared with the dilation
    adjoint first; without it only the two columns rho reaches are built.
    """
    rho = validate_density_matrix(rho)
    if check:
        u = compile_circuit(circuit)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            distance = distance_up_to_global_phase(u, dilated.matrix.conj().T)
        if not distance <= MISMATCH_TOL:
            raise CircuitMismatchError(
                f"circuit is {distance:.3e} from the dilation adjoint"
            )
        isometry = u[:, :2]
    else:
        isometry = circuit_isometry(circuit)
    return fold_probabilities(dilated, _register_diagonal(isometry, rho))


def statevector_probabilities(
    dilated: DilatedMeasurement, circuit: Circuit, psi: np.ndarray
) -> np.ndarray:
    """Outcome probabilities for a pure state, via amplitudes."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2,):
        raise InvalidStateError("pure state must be a 2-vector")
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-10:
        raise InvalidStateError("pure state must be normalized")
    amps = circuit_isometry(circuit) @ psi
    return fold_probabilities(dilated, np.abs(amps) ** 2)


# ---------------------------------------------------------------- sampling


@dataclass
class SampleCounts:
    """Histogram of sampled outcomes."""

    counts: np.ndarray
    shots: int
    seed: int

    def frequencies(self) -> np.ndarray:
        return self.counts / self.shots

    def total_variation(self, probabilities) -> float:
        p = np.asarray(probabilities, dtype=float)
        return float(0.5 * np.abs(self.frequencies() - p).sum())

    def to_dict(self) -> dict:
        return {
            "shots": self.shots,
            "seed": self.seed,
            "counts": [int(c) for c in self.counts],
        }


def _integer(value, name: str) -> int:
    """``value`` as a Python int; InvalidParameterError unless integral."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _guide_size(n_outcomes: int, shots: int) -> int:
    """Buckets in the guide table: a power of two near 16 per outcome.

    At most one bucket per 8 shots, so a small call builds a small table
    (one bucket is plain inverse-CDF search), and at most SAMPLE_CHUNK, so
    the per-chunk bucket histogram never outgrows the chunk.
    """
    wanted = (16 * n_outcomes - 1).bit_length()
    cap = max(min(SAMPLE_CHUNK, shots // 8), 1).bit_length() - 1
    return 1 << min(wanted, cap)


def sample(probabilities, shots: int, seed: int = DEFAULT_SEED) -> SampleCounts:
    """Draw outcome counts by inverse-CDF sampling.

    Deterministic for a given seed: the counts are those of one batch of
    ``shots`` uniforms from a fresh PCG64 generator, each placed by a
    searchsorted over the cumulative distribution.  The uniforms are drawn
    in chunks of SAMPLE_CHUNK (PCG64 yields the same stream either way),
    so memory does not grow with ``shots``.

    A guide table splits [0, 1) into K equal buckets, K a power of two, so
    u -> floor(u K) is exact.  A bucket that no cumulative edge enters maps
    every uniform in it to one outcome, so only its tally is kept; only
    the uniforms in the other, dirty buckets are searched.  A bucket is
    dirty when fewer edges lie at or below its lower end than at or below
    its upper end, which errs only towards dirty.  All counting is integer.
    """
    probs = np.asarray(probabilities, dtype=float)
    shots = _integer(shots, "shots")
    seed = _integer(seed, "seed")
    if shots < 1:
        raise InvalidParameterError("shots must be positive")
    if seed < 0:
        raise InvalidParameterError("seed must be nonnegative")
    if probs.ndim != 1 or probs.size == 0:
        raise InvalidParameterError(
            f"probabilities must be a nonempty 1-D array, got shape {probs.shape}"
        )
    # written so that NaN fails the first test and an infinity one of the two
    if not probs.min() >= -1e-12:
        raise InvalidParameterError("probabilities must be finite and nonnegative")
    total = probs.sum()
    if not abs(total - 1.0) <= 1e-9:
        raise InvalidParameterError(f"probabilities sum to {total}, not one")

    n = probs.size
    edges = probs.cumsum()
    k = _guide_size(n, shots)
    below = edges.searchsorted(np.arange(k + 1) / k, side="right")
    dirty = below[1:] != below[:-1]
    outcome = np.minimum(below[:-1], n - 1)  # guard the u ~ 1 edge

    bucket_tally = np.zeros(k, dtype=np.int64)
    counts = np.zeros(n, dtype=np.int64)
    rng = np.random.Generator(np.random.PCG64(seed))
    # n per chunk at least, so the outcome histogram never outgrows a chunk;
    # both buffers are reused, the last chunk taking a prefix of each
    step = min(max(SAMPLE_CHUNK, n), shots)
    u_buffer = np.empty(step)
    bucket_buffer = np.empty(step, dtype=np.intp)
    for start in range(0, shots, step):
        u = u_buffer[: shots - start]
        bucket = bucket_buffer[: shots - start]
        rng.random(out=u)
        np.multiply(u, k, out=bucket, casting="unsafe")  # floor, as u >= 0
        bucket_tally += np.bincount(bucket, minlength=k)
        idx = edges.searchsorted(u.compress(dirty[bucket]), side="right")
        counts += np.bincount(np.minimum(idx, n - 1), minlength=n)

    # Clean buckets, in order, map to nondecreasing outcomes: each outcome
    # takes one run of buckets, summed exactly from an integer prefix sum.
    bucket_tally[dirty] = 0
    prefix = np.zeros(k + 1, dtype=np.int64)
    bucket_tally.cumsum(out=prefix[1:])
    at = prefix[outcome.searchsorted(np.arange(n + 1))]
    counts += at[1:] - at[:-1]
    return SampleCounts(counts=counts, shots=shots, seed=seed)


def random_pure_state(rng: np.random.Generator) -> np.ndarray:
    """Haar-direction qubit state from complex Gaussian amplitudes."""
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return psi / np.linalg.norm(psi)


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """Random mixture of a pure state with the maximally mixed state."""
    psi = random_pure_state(rng)
    weight = rng.random()
    return weight * np.outer(psi, psi.conj()) + (1 - weight) * np.eye(2) / 2


# ---------------------------------------------------------------- verification


@dataclass
class VerificationReport:
    """Residuals and pass/fail bookkeeping for one family."""

    label: str
    family: dict
    method: str
    seed: int = DEFAULT_SEED
    n_outcomes: Optional[int] = None
    dim: Optional[int] = None
    n_qubits: Optional[int] = None
    gate_count: Optional[int] = None
    completeness_residual: Optional[float] = None
    unitarity_residual: Optional[float] = None
    embedding_residual: Optional[float] = None
    circuit_distance: Optional[float] = None
    max_probability_error: Optional[float] = None
    max_padding_probability: Optional[float] = None
    states_checked: int = 0
    failures: list = field(default_factory=list)
    error: Optional[str] = None

    @property
    def passed(self) -> bool:
        return not self.failures and self.error is None

    def to_dict(self) -> dict:
        data = asdict(self)
        data["passed"] = self.passed
        return data


def verify_family(
    family: PovmFamily,
    n_states: int = 20,
    seed: int = DEFAULT_SEED,
    merge: bool = True,
    method: str = "structured",
) -> VerificationReport:
    """Check one family end to end against the analytic probabilities.

    Builds the vectors, the dilation and (for the structured method) the
    circuit, then compares circuit statistics with the analytic ones on
    ``n_states`` seeded random density matrices.  A degenerate seed is
    reported as a failed run with the cause recorded, not an exception.
    Every verdict is written so that a NaN residual fails it.
    """
    if method not in ("structured", "generic"):
        raise InvalidParameterError("method must be 'structured' or 'generic'")
    if n_states < 1:
        raise InvalidParameterError("verification needs at least one state")
    register_size(family.n_outcomes)  # the cap, before any vector is built
    report = VerificationReport(
        label=family.label(), family=family.to_dict(), method=method, seed=seed
    )
    try:
        povm = build_povm(family)
    except DegenerateOrbitError as exc:
        report.error = str(exc)
        return report

    report.n_outcomes = povm.n
    check = validate_povm(povm)
    report.completeness_residual = check.completeness_residual
    if not check.completeness_residual <= COMPLETENESS_TOL:
        report.failures.append("completeness")

    build = structured_dilation if method == "structured" else generic_completion
    dilated = build(povm)
    report.dim = dilated.dim
    report.n_qubits = dilated.n_qubits
    report.unitarity_residual = dilated.unitarity_residual()
    report.embedding_residual = dilated.embedding_residual()
    if not report.unitarity_residual <= DILATION_TOL:
        report.failures.append("unitarity")
    if not report.embedding_residual <= DILATION_TOL:
        report.failures.append("embedding")

    if method == "structured":
        circuit = synthesize_circuit(dilated, merge=merge)
        report.gate_count = len(circuit.gates)
        compiled = compile_circuit(circuit)
        report.circuit_distance = distance_up_to_global_phase(
            compiled, dilated.matrix.conj().T
        )
        if not report.circuit_distance <= CIRCUIT_DISTANCE_TOL:
            report.failures.append("circuit")
        isometry = compiled[:, :2]
    else:
        isometry = dilated.matrix[:2].conj().T

    rng = np.random.Generator(np.random.PCG64(seed))
    rhos = np.array([random_density_matrix(rng) for _ in range(n_states)])
    expected = np.array([analytic_probabilities(povm, rho) for rho in rhos])
    folded, leak = _fold(dilated, _register_diagonal(isometry, rhos))
    # np.max keeps a NaN where Python's max would drop it
    worst_prob = float(np.abs(folded - expected).max())
    worst_leak = float(leak.max())
    report.states_checked = n_states
    report.max_probability_error = worst_prob
    report.max_padding_probability = worst_leak
    if not worst_prob <= PROBABILITY_TOL:
        report.failures.append("probabilities")
    if not worst_leak <= PADDING_TOL:
        report.failures.append("padding")
    return report
