"""Fixed kernels that track the host's speed while a run measures.

The reference machine is a shared VM whose CPU runs up to a third slower
for seconds to minutes at a time; CPU time slows with wall time, so the
process is not waiting to be scheduled.  A 28 s run averages only part of
such a phase, and ten runs of the same code spread by up to 27%.

So each run also times a fixed kernel between its ops.  The kernel uses
only the standard library and numpy, never povmkit, and its inputs do not
depend on the seed, so no change to the package can move it.  The run's
slowdown is the kernel's mean time over its reference time, and the
end-to-end timings are divided by it: they read as if the host ran at the
speed it has when the kernel takes ``reference_ms``.  The raw timings and
every kernel sample are kept in the result file.

A phase slows some kinds of work more than others, so each workload uses
the kernel whose work its ops resemble:

- ``small``: a Python loop over 2x2 and 4x4 numpy calls (outer products,
  eigenvalues, Kronecker products, traces), like ``verify_family`` on
  small registers.  Used by ``grid`` and ``large``.
- ``stream``: inverse-CDF sampling of uniforms over a few outcomes
  (``random``, ``searchsorted``, ``minimum``, ``bincount``), the pattern
  of ``sample``.  Used by ``sample-stream``.
- ``spawn``: a fresh interpreter that imports numpy and exits, like the
  start-up of a ``python -m povmkit`` process.  Used by ``cli-cold``.

``bench/README.md`` gives the spread of ten runs with and without the
adjustment.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import numpy as np

KERNEL_SEED = 20030811
# Share of kernel samples dropped at each end before averaging.  Kernel
# times are bimodal on the reference machine; the median jumps between
# the modes as their mix shifts, the trimmed mean follows it smoothly.
TRIM = 0.1


def trimmed_mean(xs: list, trim: float = TRIM) -> float:
    xs = sorted(xs)
    k = int(len(xs) * trim)
    return statistics.fmean(xs[k : len(xs) - k])


def _small_kernel():
    rng = np.random.default_rng(KERNEL_SEED)
    eye = np.eye(2)

    def run() -> float:
        acc = 0.0
        for _ in range(150):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            w = np.linalg.eigvalsh(rho)
            k = np.kron(rho, eye)
            acc += float(np.trace(k).real) + float(np.abs(w).max())
            acc += float(np.einsum("ij,ji->", rho, rho).real)
        return acc

    return run


def _stream_kernel():
    cdf = np.cumsum(np.full(16, 1 / 16))

    def run() -> float:
        u = np.random.default_rng(KERNEL_SEED).random(250_000)
        i = np.minimum(np.searchsorted(cdf, u, side="right"), 15)
        return float(np.bincount(i, minlength=16)[0])

    return run


def _spawn_kernel():
    argv = [sys.executable, "-c", "import numpy"]
    env = dict(os.environ)

    def run() -> float:
        # No timeout: with one, ``wait`` polls in sleeps of up to 50 ms.
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if proc.wait() != 0:
            raise RuntimeError(f"calibration process exited with {proc.returncode}")
        return 0.0

    return run


# name: (kernel factory, reference time in ms, seconds between samples).
# The reference times are round figures near the kernels' trimmed means
# on the reference machine; they only set the scale of the adjusted timings.
KERNELS = {
    "small": (_small_kernel, 10.0, 0.25),
    "stream": (_stream_kernel, 15.0, 0.25),
    "spawn": (_spawn_kernel, 160.0, 1.0),
}


class Calibration:
    """Timed samples of one kernel, taken at most once per ``interval_s``."""

    def __init__(self, name: str) -> None:
        factory, self.reference_ms, self.interval_s = KERNELS[name]
        self.name = name
        self.kernel = factory()
        self.samples_ms: list[float] = []
        self.last = -float("inf")

    def due(self) -> bool:
        return time.perf_counter() - self.last >= self.interval_s

    def sample(self) -> float:
        """Time the kernel once; returns the seconds it took."""
        start = time.perf_counter_ns()
        self.kernel()
        elapsed = time.perf_counter_ns() - start
        self.samples_ms.append(elapsed / 1e6)
        self.last = time.perf_counter()
        return elapsed / 1e9

    def slowdown(self) -> float:
        """Trimmed mean kernel time over the reference time (1.0 with no samples)."""
        if not self.samples_ms:
            return 1.0
        return trimmed_mean(self.samples_ms) / self.reference_ms

    def record(self) -> dict:
        return {
            "kernel": self.name,
            "reference_ms": self.reference_ms,
            "samples_ms": self.samples_ms,
            "slowdown": self.slowdown(),
        }
