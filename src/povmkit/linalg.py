"""Dense complex matrix helpers shared by every other module.

Conventions used throughout the package:

* matrices are numpy arrays with dtype complex128,
* the discrete Fourier transform F_m uses the negative exponent: entry
  (j, k) is exp(-2i pi j k / m) / sqrt(m), as ``np.fft.fft`` with
  ``norm="ortho"``, which is how ``apply_gates`` runs it,
* in multi-qubit registers qubit 0 is the most significant bit of the basis
  index, so ``np.kron(a, b)`` puts ``a`` on the more significant qubits.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import InvalidDimensionError, PhaseUndefinedWarning

# default tolerance for structural checks (unitarity, completeness, ...)
DEFAULT_TOL = 1e-10

# rows per block of the r x r residuals, so that neither forms an r x r
# temporary; a register of up to 6 qubits is one block.  The distance takes
# _BLOCK_ROWS r entries per block, so an (r, 2) pair is one block.
_BLOCK_ROWS = 64

CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def direct_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Block-diagonal sum of two matrices; either block may be 0-sized."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        raise InvalidDimensionError("direct_sum expects 2-d arrays")
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=complex)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


def unitarity_residual(a: np.ndarray) -> float:
    """Worst entry-wise deviation of adjoint(a) @ a from the identity.

    The Gram adjoint(a) @ a is Hermitian, so only its upper block triangle
    is formed, ``_BLOCK_ROWS`` rows at a time: rows i, ..., i + 63 from
    column i on are adjoint(a[:, i:i + 64]) @ a[:, i:], and their diagonal
    is reduced by 1 in place.  No r x r array is formed, and at r = 256
    the blocks take 62.5% of the full product's flops.  An entry below the
    diagonal is the conjugate of one above it, which the product may round
    differently, so above 64 rows the result can differ from the full
    product's in the last bit.  NaN when ``a`` has a non-finite entry, so
    that every ``<= tol`` check fails; the product is not formed, as
    inf * 0 in it would warn.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidDimensionError(f"unitarity check needs a square matrix, got {a.shape}")
    if not np.isfinite(a).all():
        return float("nan")
    worst = 0.0
    for i in range(0, a.shape[0], _BLOCK_ROWS):
        gram = a[:, i : i + _BLOCK_ROWS].conj().T @ a[:, i:]
        gram.reshape(-1)[:: gram.shape[1] + 1] -= 1  # the diagonal, in place
        block = float(np.abs(gram).max())
        if block > worst or block != block:  # a NaN stays, as in np.max
            worst = block
    return worst


def distance_up_to_global_phase(a: np.ndarray, b: np.ndarray) -> float:
    """Max entry-wise distance between a and b after phase-aligning b.

    The alignment phase is arg(tr(adjoint(b) @ a)), taken as the inner product
    of the flattened matrices so no product is formed.  When that trace vanishes the
    phase is undefined; the raw unaligned distance is returned and a
    PhaseUndefinedWarning flags the result.

    The trace vanishes when it is below 1e-15 max(1, |a|max |b|max n).  As
    |a|max |b|max <= ||a||_F ||b||_F, a trace at least twice that test's
    Frobenius form passes it, and the two max passes are made only when
    the two ``vdot`` norms cannot settle it.  An aligned a - phase b and
    its ``abs`` are formed ``_BLOCK_ROWS`` rows at a time, so no temporary
    of a's size is; the max is the whole difference's bit for bit.  A block
    holds ``_BLOCK_ROWS`` r entries: 64 rows of an r x r pair, and all of an
    (r, 2) one.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2:
        raise InvalidDimensionError(f"shape mismatch: {a.shape} vs {b.shape}")
    t = np.vdot(b, a)
    # Python floats, so that an inf * 0 gives NaN with no warning; a NaN
    # here, from a NaN entry or an inf against a zero matrix, makes t NaN too
    norms = float(np.vdot(a, a).real) * float(np.vdot(b, b).real)
    if not abs(t) >= 2e-15 * max(1.0, math.sqrt(norms) * a.shape[0]):
        scale = max(1.0, float(np.abs(a).max()) * float(np.abs(b).max()) * a.shape[0])
        if abs(t) < 1e-15 * scale:
            warnings.warn(
                "global phase undefined (tr(b^dag a) = 0); returning unaligned distance",
                PhaseUndefinedWarning,
                stacklevel=2,
            )
            return float(np.abs(a - b).max())
    phase = t / abs(t)
    worst = 0.0
    rows = max(1, _BLOCK_ROWS * a.shape[0] // a.shape[1])
    for i in range(0, a.shape[0], rows):
        diff = np.multiply(phase, b[i : i + rows])
        block = float(np.abs(np.subtract(a[i : i + rows], diff, out=diff)).max())
        if block > worst or block != block:  # a NaN stays, as in np.max
            worst = block
    return worst


def _check_targets(u: np.ndarray, targets) -> None:
    """InvalidDimensionError unless u is 2^k x 2^k on k distinct qubits, none
    negative; whether they fit a register is checked where it is known."""
    k = len(targets)
    if u.shape != (2**k, 2**k):
        raise InvalidDimensionError(
            f"matrix shape {u.shape} does not act on {k} qubit(s)"
        )
    if len(set(targets)) != k:
        raise InvalidDimensionError(f"duplicate target qubits in {list(targets)}")
    if any(q < 0 for q in targets):
        raise InvalidDimensionError(f"negative target qubit in {list(targets)}")


def _check_register(targets, top: int, n_qubits: int) -> None:
    """InvalidDimensionError unless the highest target ``top`` is in the register."""
    if top >= n_qubits:
        raise InvalidDimensionError(f"targets {list(targets)} outside register of {n_qubits}")


def embed_on_qubits(u: np.ndarray, targets, n_qubits: int) -> np.ndarray:
    """Embed a k-qubit matrix into an n-qubit register.

    ``targets`` lists the register qubits the matrix acts on; the first
    listed qubit carries the most significant bit of the matrix's own
    index space.  Returns the full 2**n x 2**n matrix.
    """
    u = np.asarray(u, dtype=complex)
    targets = list(targets)
    _check_targets(u, targets)
    _check_register(targets, max(targets, default=-1), n_qubits)
    k = len(targets)
    r = 2**n_qubits
    order = targets + [q for q in range(n_qubits) if q not in targets]
    # perm[x] = index of basis state x after moving the target bits to the front
    perm = np.zeros(r, dtype=np.intp)
    for i, q in enumerate(order):
        bit = (np.arange(r) >> (n_qubits - 1 - q)) & 1
        perm |= bit << (n_qubits - 1 - i)
    big = np.kron(u, np.eye(2 ** (n_qubits - k), dtype=complex))
    return big[np.ix_(perm, perm)]


_SWAP_ENTRIES = SWAP_MATRIX.ravel().tolist()
# what ``_halves`` returns for the swap matrix
_SWAP = "swap"


def _halves(u: np.ndarray):
    """How ``apply_gates`` splits a 4x4: its two diagonal 2x2 blocks when it
    is 0 off them, ``_SWAP`` when it is the swap matrix, else None.

    Block v acts on the second target while the first reads v; a block that
    is exactly the identity is returned as None.
    """
    e = u.ravel().tolist()  # Python numbers: numpy calls on a 4x4 cost about 1 us each
    if e[2] or e[3] or e[6] or e[7] or e[8] or e[9] or e[12] or e[13]:
        return _SWAP if e == _SWAP_ENTRIES else None
    return (
        None if e[0] == e[5] == 1 and not (e[1] or e[4]) else u[:2, :2],
        None if e[10] == e[15] == 1 and not (e[11] or e[14]) else u[2:, 2:],
    )


def _apply_halves(blocks, targets: list, state: np.ndarray, spare: np.ndarray):
    """A gate block-diagonal in its first target, or a swap, in ``apply_gates``:
    returns (result, free buffer).

    A swap is one copy of ``state`` into ``spare`` with the two target axes
    exchanged, so no entry is multiplied by 0 or 1 and an infinity spreads
    no NaN.  Otherwise each value v of the first target selects a strided
    view of ``state`` with the second target on its next-to-last axis, and
    its block is multiplied from that view straight into the same view of
    ``spare``, so nothing is gathered or scattered; an identity block's
    half is copied.  On c = 2 or c = r columns of finite entries the result
    equals the 4x4 product's value for value, and at c = r bit for bit but
    for zero signs: the product turns a -0.0 into +0.0, a copy keeps it.
    One column, or a split down to 1x1 products, can round differently in
    the last bit.
    """
    r, c = state.shape
    first, second = targets
    high, low = sorted(targets)  # the higher-order bit has the smaller index
    shape = (1 << high, 2, (1 << low) >> (high + 1), 2, (r >> (low + 1)) * c)
    if blocks is _SWAP:
        np.copyto(spare.reshape(shape), state.reshape(shape).transpose(0, 3, 2, 1, 4))
        return spare, state
    # axes (first target, before, gap, second target, after)
    axes = (1, 0, 2, 3, 4) if first < second else (3, 0, 2, 1, 4)
    src = state.reshape(shape).transpose(axes)
    dst = spare.reshape(shape).transpose(axes)
    for v, block in enumerate(blocks):
        if block is None:
            np.copyto(dst[v], src[v])
        else:
            np.matmul(block, src[v], out=dst[v])
    return spare, state


class Fourier(NamedTuple):
    """F_m padded with an identity on an ascending run of k qubits, m <= 2^k,
    as ``apply_gates`` takes it: an FFT of entries 0, ..., m - 1 of the run,
    or the inverse FFT, for conj(F_m) = F_m^dag, when ``inverse``."""

    m: int
    inverse: bool = False


def _check_run(targets: tuple) -> None:
    """InvalidDimensionError unless targets are an ascending run of qubits
    q, ..., q + k - 1 with q >= 0."""
    q = targets[0] if targets else -1
    if q < 0 or targets != tuple(range(q, q + len(targets))):
        raise InvalidDimensionError(
            f"a dense or fourier gate must act on an ascending run of qubits, got {list(targets)}"
        )


def _phases(u: np.ndarray):
    """(index, entry) for each diagonal entry of u other than 1 when u is 0
    off its diagonal, else None."""
    diagonal = np.diagonal(u)
    if np.count_nonzero(u) != np.count_nonzero(diagonal):
        return None
    return tuple((x, v) for x, v in enumerate(diagonal.tolist()) if v != 1)


# the forms ``_apply_in_place`` runs a gate by
_FFT, _PHASES, _HALVES, _DENSE = "fft", "phases", "halves", "dense"


class _Kernel(NamedTuple):
    """A gate as ``_apply_in_place`` runs it: its ``form``, the form's
    ``data``, its ``targets`` and the highest of them, ``top``."""

    form: str
    data: object
    targets: tuple
    top: int


def _kernel(u, targets) -> _Kernel:
    """The form in which ``apply_gates`` runs u on targets, decided once:

    * ``_FFT`` for a ``Fourier`` on an ascending run of k qubits with
      m <= 2^k, the ``Fourier`` its data;
    * ``_PHASES`` for a matrix 0 off its diagonal, with ``_phases`` as data;
    * ``_HALVES`` for a 4x4 that ``_halves`` splits, with its blocks or
      ``_SWAP``;
    * ``_DENSE`` for any other matrix on an ascending run of qubits.

    InvalidDimensionError for anything else.  A gate's kernel is built with
    the gate; ``_apply_in_place`` checks only that ``top`` fits its register.
    """
    targets = tuple(targets)
    top = max(targets, default=-1)
    if isinstance(u, Fourier):
        _check_run(targets)
        if not 1 <= u.m <= 1 << len(targets):
            raise InvalidDimensionError(f"F_{u.m} does not fit on {len(targets)} qubit(s)")
        return _Kernel(_FFT, u, targets, top)
    u = np.asarray(u, dtype=complex)
    _check_targets(u, targets)
    phases = _phases(u)
    if phases is not None:
        return _Kernel(_PHASES, phases, targets, top)
    blocks = _halves(u) if len(targets) == 2 else None
    if blocks is not None:
        return _Kernel(_HALVES, blocks, targets, top)
    _check_run(targets)
    return _Kernel(_DENSE, u, targets, top)


def _multiply_phases(phases, targets: list, state: np.ndarray) -> None:
    """A diagonal gate in ``apply_gates``: each slice of ``state`` where the
    targets read x is multiplied in place by entry x."""
    view = state.reshape((2,) * (state.shape[0].bit_length() - 1) + (-1,))
    k = len(targets)
    for x, v in phases:
        index = [slice(None)] * (view.ndim - 1)
        for i, q in enumerate(targets):
            index[q] = (x >> (k - 1 - i)) & 1
        view[tuple(index)] *= v


def apply_gates(gates, state: np.ndarray) -> np.ndarray:
    """Apply (matrix, targets) pairs, in order, to every column of a register.

    ``state`` is an (r, c) array with r = 2**n, which is left alone; each
    matrix acts on its listed target qubits as in ``embed_on_qubits``, so
    the result equals the product of the embedded matrices times ``state``
    without forming any r x r matrix.  ``_kernel`` decides each gate's form,
    and the gate is applied by it:

    * a ``Fourier`` in place of a matrix runs ``np.fft.fft`` (``ifft`` when
      ``inverse``), orthonormal, in place along its run's axis of the
      register read as (2^q, 2^k, rest), on entries 0, ..., m - 1 only, so
      the padding entries are not touched: O(r c log m);
    * a diagonal matrix multiplies in place the slices of the register
      where its targets read each entry that is not exactly 1;
    * a two-qubit gate block-diagonal in its first target (a controlled
      gate, a cnot) costs one 2x2 product on each half of the register
      where that target is fixed, and only a copy on a half whose block is
      the identity; a swap is one transposed copy;
    * any other matrix must act on an ascending run of qubits q, ...,
      q + k - 1, else InvalidDimensionError, and one broadcast matmul
      multiplies the run's axis: O(r c 2^k).

    A spare buffer of the state's size is allocated at the first gate that
    is not applied in place, and reused.
    """
    state = _register(state)
    return _apply_in_place((_kernel(u, targets) for u, targets in gates), state)


def _register(state: np.ndarray) -> np.ndarray:
    """A C-ordered complex copy of a (2**n, c) register array."""
    state = np.array(state, dtype=complex, order="C")
    if state.ndim != 2 or state.shape[0] < 1 or state.shape[0] & (state.shape[0] - 1):
        raise InvalidDimensionError(f"register array must be (2**n, c), got {state.shape}")
    return state


def _apply_in_place(kernels, state: np.ndarray) -> np.ndarray:
    """``apply_gates`` of ``_kernel`` forms on a C-ordered complex (2**n, c)
    array, which it overwrites: for callers that have just allocated
    ``state``, and hold their gates' kernels."""
    n_qubits = state.shape[0].bit_length() - 1
    spare = None
    for form, data, targets, top in kernels:
        _check_register(targets, top, n_qubits)
        if form == _FFT:
            view = state.reshape(1 << targets[0], 1 << len(targets), -1)[:, : data.m]
            (np.fft.ifft if data.inverse else np.fft.fft)(view, axis=1, norm="ortho", out=view)
            continue
        if form == _PHASES:
            _multiply_phases(data, targets, state)
            continue
        if spare is None:
            spare = np.empty_like(state)
        if form == _HALVES:
            state, spare = _apply_halves(data, targets, state, spare)
            continue
        q, k = targets[0], len(targets)
        shape = (1 << q, 1 << k, state.size >> (q + k))
        np.matmul(data, state.reshape(shape), out=spare.reshape(shape))
        state, spare = spare, state
    return state


def matrix_to_pairs(a: np.ndarray) -> list:
    """Nested lists of [real, imag] pairs, for JSON output."""
    a = np.asarray(a, dtype=complex)
    return [[[z.real, z.imag] for z in row] for row in a]
