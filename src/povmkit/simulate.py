"""Probability computation, sampling and end-to-end verification.

The analytic path evaluates <psi_j| rho |psi_j> directly from the
measurement vectors.  The register paths embed rho into the dilated
register, apply the dilation's adjoint (as a matrix, or as a circuit
checked against it), read the computational-basis diagonal and fold it
back onto measurement outcomes, checking that the padding basis states
stay empty.  The qubit state occupies only register basis states 0
and 1, so the diagonal, and the check, need only the first two columns of
the applied matrix: a circuit's gates are unitary, so a match on those
columns fixes its statistics for every state.  Basis state i then has
probability <w_i| rho |w_i>, for w_i the conjugate of row i of those two
columns, the Born rule of a measurement vector.  Both paths evaluate it
in one kernel, ``_born``: one real matrix product of the states' 8 reals
each with an 8-real table per vector.
"""

from __future__ import annotations

import functools
import os
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple, Optional

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
    PaddingLeakError,
)
from .families import Povm, PovmFamily, _integer, build_povm, completeness_residual
from .linalg import distance_up_to_global_phase

DEFAULT_SEED = 0x5EED

# verification thresholds; the probability routines raise at the circuit
# distance and padding bounds where verify_family records a verdict
COMPLETENESS_TOL = 1e-10
DILATION_TOL = 1e-10
CIRCUIT_DISTANCE_TOL = 1e-9
PROBABILITY_TOL = 1e-9
PADDING_TOL = 1e-12

# Raw PCG64 words drawn at once by ``sample``, over all its threads; bounds
# its memory at a few MB.
SAMPLE_CHUNK = 1 << 16

# Most threads one ``sample`` call draws on.  Measured only up to 2, where
# two threads give 1.5x over one; 4 is not measured, and only bounds the
# threads and buffers of one call on a larger host.
SAMPLE_WORKERS = 4

# Guide-table buckets per outcome in ``sample``: 64 to 1024 measured alike,
# 16 a third slower, as more words fall in buckets that need a search.
GUIDE_DENSITY = 256

# Most states in one (n, 2, 2) complex stack, of 64 n bytes: numpy sizes no
# array of more than the largest intp bytes.
MAX_STATES = np.iinfo(np.intp).max // 64


def analytic_probabilities(povm: Povm, rho: np.ndarray) -> np.ndarray:
    """Outcome probabilities <psi_j| rho |psi_j> for a density matrix.

    A (..., 2, 2) stack of density matrices gives (..., n) probabilities.
    """
    return _born(povm.vectors, validate_density_matrix(rho))


def _born(vectors, rho):
    """<v_j| rho |v_j> for each row v_j of the (n, 2) ``vectors``, as one
    real matrix product: (..., n) for a (..., 2, 2) complex ``rho``.

    tr(rho v v^dag) = Re sum_ab rho_ab conj(v_a) v_b, and as
    Re(x y) = Re x Re y - Im x Im y, that is the dot product of rho's 8
    reals with those of g_ab = v_a conj(v_b): conj(v_a) v_b with the sign
    of its imaginary part flipped.  The (n, 8) table is built afresh.
    """
    # a strided view, such as a transposed dilation's columns, would give a
    # product that is not C-ordered, and so cannot be viewed as reals
    v = np.ascontiguousarray(vectors)
    table = (v[:, :, None] * v[:, None, :].conj()).reshape(-1, 4)
    rho8 = np.ascontiguousarray(rho).reshape(*rho.shape[:-2], 4)
    return rho8.view(float) @ table.view(float).T


def _register_probabilities(outcome_positions, padding_positions, isometry, rho):
    """Outcome probabilities and the largest padding probability of the
    diagonal of U (rho + 0) U^dag, from U's first two columns.

    ``rho`` may carry leading batch axes; the results get the same ones.
    The leak is never below 0, and a NaN anywhere in the padding shows in it.
    """
    diagonal = _born(isometry.conj(), rho)
    leak = diagonal[..., padding_positions].max(axis=-1, initial=0.0)
    return diagonal[..., outcome_positions], leak


def _checked_probabilities(dilated: DilatedMeasurement, isometry, rho) -> np.ndarray:
    """``_register_probabilities``'s outcome probabilities; PaddingLeakError
    if the leak exceeds PADDING_TOL anywhere, then InvalidParameterError if the
    dilation's vector rows are not its measurement's to DILATION_TOL: a
    structured dilation reads only the family, not a rotation of it."""
    probs, leak = _register_probabilities(
        dilated.outcome_positions, dilated.padding_positions, isometry, rho
    )
    leak = float(np.max(leak))
    if not leak <= PADDING_TOL:
        raise PaddingLeakError(f"padding basis states carry probability {leak:.3e}")
    residual = dilated.embedding_residual()
    if not residual <= DILATION_TOL:
        raise InvalidParameterError(f"the dilation is {residual:.3e} from its measurement")
    return probs


def _checked_isometry(dilated: DilatedMeasurement, circuit: Circuit) -> np.ndarray:
    """The circuit's first two columns, or CircuitMismatchError if their
    phase-aligned distance from the dilation adjoint's exceeds
    CIRCUIT_DISTANCE_TOL."""
    isometry = circuit_isometry(circuit)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        distance = distance_up_to_global_phase(isometry, dilated.matrix[:2].conj().T)
    if not distance <= CIRCUIT_DISTANCE_TOL:
        raise CircuitMismatchError(f"circuit is {distance:.3e} from the dilation adjoint")
    return isometry


def dilation_probabilities(dilated: DilatedMeasurement, rho: np.ndarray) -> np.ndarray:
    """Outcome probabilities via the dilation matrix, which must embed the measurement."""
    rho = validate_density_matrix(rho)
    return _checked_probabilities(dilated, dilated.matrix[:2].conj().T, rho)


def circuit_probabilities(
    dilated: DilatedMeasurement, circuit: Circuit, rho: np.ndarray
) -> np.ndarray:
    """Outcome probabilities from running the circuit on rho, on the two
    columns rho reaches, checked against the adjoint of a dilation that must
    embed the measurement."""
    rho = validate_density_matrix(rho)
    return _checked_probabilities(dilated, _checked_isometry(dilated, circuit), rho)


# ---------------------------------------------------------------- sampling


@dataclass(eq=False)
class SampleCounts:
    """Histogram of sampled outcomes."""

    counts: np.ndarray
    shots: int
    seed: int

    def frequencies(self) -> np.ndarray:
        return self.counts / self.shots

    def total_variation(self, probabilities) -> float:
        """Half the 1-norm distance of the frequencies from ``probabilities``,
        which must hold one value per outcome."""
        p = _real_array(probabilities)
        if p.shape != self.counts.shape:
            raise InvalidParameterError(
                f"probabilities must have shape {self.counts.shape}, got {p.shape}"
            )
        return float(0.5 * np.abs(self.frequencies() - p).sum())

    def to_dict(self) -> dict:
        return {
            "shots": self.shots,
            "seed": self.seed,
            "counts": [int(c) for c in self.counts],
        }


def _real_array(probabilities) -> np.ndarray:
    """``probabilities`` as a float array; InvalidParameterError unless they
    are real numbers: a float conversion would drop an imaginary part with
    only a warning, and parse text."""
    array = np.asarray(probabilities)
    if array.dtype.kind not in "biuf":
        raise InvalidParameterError(f"probabilities must be real numbers, got {array.dtype}")
    return np.asarray(array, dtype=float)


def _seed(value) -> int:
    """``value`` as a PCG64 seed; InvalidParameterError unless a nonnegative integer."""
    seed = _integer(value, "seed")
    if seed < 0:
        raise InvalidParameterError("seed must be nonnegative")
    return seed


def _guide_size(n_outcomes: int, shots: int) -> int:
    """Buckets in the guide table: a power of two near GUIDE_DENSITY per outcome.

    At most one bucket per 8 shots, so a small call builds a small table
    (one bucket is plain inverse-CDF search), and at most SAMPLE_CHUNK, so
    the label table takes no more memory than the words in flight.
    """
    wanted = (GUIDE_DENSITY * n_outcomes - 1).bit_length()
    cap = max(min(SAMPLE_CHUNK, shots // 8), 1).bit_length() - 1
    return 1 << min(wanted, cap)


def _sample_workers() -> int:
    """Threads for one ``sample`` call: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, SAMPLE_WORKERS)


def _label_table(thresholds: np.ndarray, buckets: int) -> np.ndarray:
    """Each guide bucket's outcome, or n for a bucket a threshold enters.

    A word w lies in bucket w >> (64 - b) of K = 2^b; a bucket that no
    threshold enters holds words of one outcome only.
    """
    n = thresholds.size
    bits = buckets.bit_length() - 1
    lower = np.arange(buckets + 1, dtype=np.uint64) << (53 - bits)
    below = thresholds.searchsorted(lower, side="right")
    label = np.minimum(below[:-1], n - 1)  # guard the u ~ 1 edge
    label[below[1:] != below[:-1]] = n
    return label


def _chunk_counts(words, label, thresholds, buffers) -> np.ndarray:
    """Outcome counts of one chunk of raw words, and a last bin to drop.

    The words go through ``label`` into ``buffers``, and only those
    labelled n are searched.  A shift by 64 gives 0 in numpy, so a
    one-bucket table labels every word.
    """
    n = thresholds.size
    bucket, labelled, searched = (buffer[: words.size] for buffer in buffers)
    np.right_shift(words, 65 - label.size.bit_length(), out=bucket, casting="unsafe")
    # every bucket is in range; "clip" lets take write into out unbuffered
    label.take(bucket, out=labelled, mode="clip")
    counts = np.bincount(labelled, minlength=n + 1)
    if not counts[n]:
        return counts
    np.equal(labelled, n, out=searched)
    idx = thresholds.searchsorted(words[searched] >> 11, side="right")
    return counts + np.bincount(np.minimum(idx, n - 1), minlength=n + 1)


def sample(probabilities, shots: int, seed: int = DEFAULT_SEED) -> SampleCounts:
    """Draw outcome counts by inverse-CDF sampling.

    Deterministic for a given seed: the counts are those of one batch of
    ``shots`` uniforms u from ``Generator(PCG64(seed)).random``, each placed
    by a searchsorted over the cumulative distribution (probabilities in
    [-1e-12, 0) taken as 0, so its edges never dip).  Such a u is
    (w >> 11) 2^-53 for PCG64's raw word w, so edge <= u exactly when
    ceil(edge 2^53) <= w >> 11: the search runs on integer thresholds and
    raw words.  A guide table splits the words into K = 2^b buckets by
    their top b bits and labels each bucket with its outcome, or with n
    when a threshold enters it.  Each chunk of words then takes one gather
    of labels and one count over n + 1 bins, and only the words labelled n
    are searched.

    W is the CPUs this process may run on, at most SAMPLE_WORKERS and at
    most SAMPLE_CHUNK // n.  A chunk holds SAMPLE_CHUNK // W words, and at
    least n so that its histogram never outgrows it.  The ``shots`` words
    are cut by count into S = min(W, chunks) spans: span i draws words
    [shots i // S, shots (i + 1) // S) a chunk at a time from PCG64(seed)
    moved there by ``advance``.  The calling thread runs span 0, and a
    ThreadPoolExecutor of S - 1 threads the rest; a one-chunk call starts
    no thread.  So max(SAMPLE_CHUNK, n) words are in flight, whatever
    ``shots`` and W.  The counting is integer and the spans' counts add,
    so the counts are the same on every run, for any W and any cut.
    """
    probs = _real_array(probabilities)
    shots = _integer(shots, "shots")
    seed = _seed(seed)
    if not 1 <= shots <= 2**63 - 1:  # the int64 counts hold at most 2^63 - 1
        raise InvalidParameterError("shots must be between 1 and 2^63 - 1")
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
    thresholds = np.ceil(np.ldexp(np.maximum(probs, 0.0).cumsum(), 53)).astype(np.uint64)
    label = _label_table(thresholds, _guide_size(n, shots))
    # n words per chunk at least, so the outcome histograms never outgrow a
    # chunk, and at most max(SAMPLE_CHUNK, n) words in flight over all spans
    workers = min(_sample_workers(), max(1, SAMPLE_CHUNK // n))
    step = min(max(SAMPLE_CHUNK // workers, n), shots)
    spans = min(workers, -(-shots // step))
    # allocated here, so a helper thread allocates little of its own
    buffers = [
        (np.empty(step, np.intp), np.empty(step, np.intp), np.empty(step, bool))
        for _ in range(spans)
    ]

    def span_counts(i):
        start, end = shots * i // spans, shots * (i + 1) // spans
        stream = np.random.PCG64(seed).advance(start)
        counts = np.zeros(n + 1, dtype=np.int64)
        for first in range(start, end, step):
            # unnamed, so a chunk's words are freed before the next are drawn
            counts += _chunk_counts(
                stream.random_raw(min(step, end - first)), label, thresholds, buffers[i]
            )
        return counts

    if spans == 1:
        counts = span_counts(0)
    else:
        # imported here: it pulls in logging, 6-8 ms of a fresh process,
        # and the CLI's other commands never sample
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(spans - 1) as pool:
            helpers = pool.map(span_counts, range(1, spans))
            counts = span_counts(0) + sum(helpers)
    return SampleCounts(counts=counts[:n], shots=shots, seed=seed)


def random_pure_state(rng: np.random.Generator) -> np.ndarray:
    """Haar-direction qubit state from complex Gaussian amplitudes."""
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return psi / np.linalg.norm(psi)


def random_density_matrices(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 2, 2) random mixtures of a pure state with the maximally mixed state.

    Each state makes two generator calls: its four normals, the words of
    ``random_pure_state``'s two ``standard_normal(2)`` (real parts, then
    imaginary parts), and its weight.  The whole stack is normalised at
    once by ``np.linalg.norm``'s formula for a complex vector,
    sqrt(re.re + im.im), each dot a 1x2 @ 2x1 ``matmul`` on the same
    strided views, which runs the same dot routine as ``x.dot(x)``.  So
    state k is the same, bit for bit, as the k-th of n calls to
    ``random_density_matrix``.  InvalidParameterError unless ``n`` is an
    integer from 0 to MAX_STATES.
    """
    n = _integer(n, "n")
    if not 0 <= n <= MAX_STATES:
        raise InvalidParameterError(
            "n must be nonnegative" if n < 0 else f"{n:.3g} states are too many for one array"
        )
    normals = np.empty((n, 4))
    weight = np.empty(n)
    for k, row in enumerate(normals):
        rng.standard_normal(out=row)
        weight[k] = rng.random()
    psi = normals[:, :2] + 1j * normals[:, 2:]
    re, im = psi.real, psi.imag
    psi /= np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0]
    pure = psi[:, :, None] * psi[:, None, :].conj()
    weight = weight[:, None, None]
    return weight * pure + (1 - weight) * np.eye(2) / 2


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """Random mixture of a pure state with the maximally mixed state."""
    return random_density_matrices(rng, 1)[0]


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
        """The fields in order, then ``passed``; the dict shares no
        container with the report (``family`` holds one level of lists)."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["family"] = {
            key: list(value) if isinstance(value, list) else value
            for key, value in self.family.items()
        }
        data["failures"] = list(self.failures)
        data["passed"] = self.passed
        return data


class _Structure(NamedTuple):
    """What ``verify_family`` finds of one family and method before any
    state is drawn.  It holds no r x r array: the dilation, the compiled
    circuit and the adjoint are freed once the r x r checks have read them."""

    povm: Povm
    outcome_positions: np.ndarray
    padding_positions: np.ndarray
    isometry: np.ndarray  # read-only (r, 2): the columns the states run through
    report: VerificationReport  # no family or seed; the failures as a tuple


# (family, method) pairs whose checked structures ``verify_family`` keeps,
# the package's one per-process cache.  ``verify --all`` asks for 17
# families, the ``large`` benchmark workload for 5 inputs after 3 warm-ups
# and ``sample-stream`` for 4, so 64 keeps every family of a run.  A full
# cache of the largest entries (12-qubit rings) holds about 19 MB.
_BUILDS_KEPT = 64


@functools.lru_cache(maxsize=_BUILDS_KEPT)
def _structure(family: PovmFamily, method: str) -> _Structure:
    """The vectors, the dilation and (for the structured method) the
    circuit, and their residuals and verdicts, which no seed changes.

    A degenerate seed raises DegenerateOrbitError, which the cache does not
    keep, so each call refuses it again.
    """
    povm = build_povm(family)
    failures = []
    # build_povm already rejected a degenerate dihedral seed
    completeness = completeness_residual(povm)
    if not completeness <= COMPLETENESS_TOL:
        failures.append("completeness")

    build = structured_dilation if method == "structured" else generic_completion
    dilated = build(povm)
    unitarity = dilated.unitarity_residual()
    embedding = dilated.embedding_residual()
    if not unitarity <= DILATION_TOL:
        failures.append("unitarity")
    if not embedding <= DILATION_TOL:
        failures.append("embedding")

    gate_count = distance = None
    if method == "structured":
        circuit = synthesize_circuit(dilated)
        gate_count = len(circuit.gates)
        u = compile_circuit(circuit)
        # the adjoint as one C-ordered copy, which vdot does not copy again
        adjoint = np.conjugate(dilated.matrix.T, order="C")
        distance = distance_up_to_global_phase(u, adjoint)
        if not distance <= CIRCUIT_DISTANCE_TOL:
            failures.append("circuit")
    else:
        u = dilated.matrix[:2].conj().T

    arrays = (dilated.outcome_positions, dilated.padding_positions, u[:, :2].copy())
    for array in arrays:
        array.setflags(write=False)
    report = VerificationReport(
        label=family.label(),
        family=None,
        method=method,
        n_outcomes=povm.n,
        dim=dilated.dim,
        n_qubits=dilated.n_qubits,
        gate_count=gate_count,
        completeness_residual=completeness,
        unitarity_residual=unitarity,
        embedding_residual=embedding,
        circuit_distance=distance,
        failures=tuple(failures),
    )
    return _Structure(povm, *arrays, report)


def verify_family(
    family: PovmFamily,
    n_states: int = 20,
    seed: int = DEFAULT_SEED,
    method: str = "structured",
) -> VerificationReport:
    """Check one family end to end against the analytic probabilities.

    Builds the vectors, the dilation and (for the structured method) the
    circuit, then compares circuit statistics with the analytic ones on
    ``n_states`` seeded random density matrices.  Everything but the
    states is fixed by the family and method, so it is built and checked
    once per process and kept, for the ``_BUILDS_KEPT`` pairs used most
    recently; a later call draws and checks only its states.  A degenerate
    seed is reported as a failed run with the cause recorded, not an
    exception.  Every verdict is written so that a NaN residual fails it.
    """
    if method not in ("structured", "generic"):
        raise InvalidParameterError("method must be 'structured' or 'generic'")
    n_states = _integer(n_states, "n_states")
    seed = _seed(seed)
    if not 1 <= n_states <= MAX_STATES:
        raise InvalidParameterError(
            "verification needs at least one state"
            if n_states < 1
            else f"{n_states:.3g} states are too many for one array"
        )
    register_size(family.n_outcomes)  # the cap, before any vector is built
    try:
        structure = _structure(family, method)
    except DegenerateOrbitError as exc:
        return VerificationReport(family.label(), family.to_dict(), method, seed, error=str(exc))
    report = replace(
        structure.report,
        family=family.to_dict(),
        seed=seed,
        failures=list(structure.report.failures),
    )

    rhos = random_density_matrices(np.random.Generator(np.random.PCG64(seed)), n_states)
    expected = analytic_probabilities(structure.povm, rhos)
    folded, leak = _register_probabilities(
        structure.outcome_positions, structure.padding_positions, structure.isometry, rhos
    )
    # in place, as folded is a copy: at 20000 states of 1024 outcomes each
    # such array takes 164 MB; np.max keeps a NaN where Python's max drops it
    np.subtract(folded, expected, out=folded)
    worst_prob = float(np.abs(folded, out=folded).max())
    worst_leak = float(leak.max())
    report.states_checked = n_states
    report.max_probability_error = worst_prob
    report.max_padding_probability = worst_leak
    if not worst_prob <= PROBABILITY_TOL:
        report.failures.append("probabilities")
    if not worst_leak <= PADDING_TOL:
        report.failures.append("padding")
    return report
