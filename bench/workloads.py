"""The benchmark's four workloads.

Every op is closed-loop: one client in one process issues the next op
only when the previous one has returned.  A workload turns its seed into
inputs, hands povmkit only those inputs, and checks every output; an op
returns the bytes that go into the run's digest and raises ``CheckFailed``
when a check fails.

``setup`` regenerates every input from the seed and warms up, so it can be
repeated and timed.  ``round(k)`` lists the ops of round k; a round visits
each distinct input once, in an order drawn from the seed.

``tail_percentile`` is the percentile reported as ``op_tail_ms``.  It is
fixed, not chosen per run, so that two commits compare the same
percentile.  Runs of ``large`` and ``cli-cold`` hold 60 to 90 ops, and
p75 is the highest percentile with at least 10 ops beyond it in every
reference run; ``sample-stream`` runs hold 25 to 30 ops, which leaves
p60.  ``grid`` runs hold about 6000 ops; its p99 is set by stalls of the
shared host and moved by 30% between two sets of ten runs, while p95
followed the median.
"""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

import povmkit
from povmkit import simulate
from povmkit.errors import DegenerateOrbitError

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

N_STATES = 20
# P(TV > bound) < TV_DELTA for a correct sampler (Bretagnolle-Huber-Carol).
TV_DELTA = 1e-9
PROBABILITY_TOL = 1e-9
CLI_FAMILIES = 17


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def _round_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, k + 1]))


def _setup_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, 0]))


def draw_dihedral(rng: np.random.Generator, m: int) -> povmkit.PovmFamily:
    """Dihedral family at a random polar angle, redrawing degenerate seeds."""
    while True:
        family = povmkit.PovmFamily.dihedral_from_angle(m, rng.uniform(0.0, np.pi))
        try:
            povmkit.build_povm(family)
        except DegenerateOrbitError:
            continue
        return family


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """A Haar-random pure state mixed with I/2 at a uniform weight."""
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi /= np.linalg.norm(psi)
    w = rng.random()
    return w * np.outer(psi, psi.conj()) + (1 - w) * np.eye(2) / 2


def tv_bound(n_outcomes: int, shots: int, delta: float = TV_DELTA) -> float:
    """Total variation a correct sampler exceeds with probability < delta."""
    return math.sqrt((n_outcomes * math.log(2) + math.log(1 / delta)) / (2 * shots))


def verify_grid_families() -> list[povmkit.PovmFamily]:
    """The 17 families of ``povmkit verify --all``.

    Listed here, not taken from the CLI, so that a change to the CLI's
    grid does not change this workload's inputs.
    """
    families = [povmkit.PovmFamily.cyclic(m) for m in (2, 3, 4, 5, 8, 16)]
    families += [povmkit.PovmFamily.dihedral(m, 0.6, 0.8) for m in (2, 3, 4, 5, 6, 8)]
    families += [povmkit.PovmFamily.platonic(k) for k in povmkit.PLATONIC_KINDS]
    return families


def _verified(family, seed: int, method: str = "structured") -> bytes:
    report = simulate.verify_family(family, n_states=N_STATES, seed=seed, method=method)
    if not report.passed:
        raise CheckFailed(f"{report.label}: failures={report.failures} error={report.error}")
    return json.dumps(report.to_dict(), sort_keys=True).encode()


class Workload:
    name = ""
    # The calibration kernel whose work the ops resemble (see calibration.py).
    calibration_kernel = "small"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, k: int) -> list:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Grid(Workload):
    """verify_family over the ``verify --all`` grid, a fresh seed per op.

    Registers hold at most 5 qubits, so Python call overhead dominates and
    a large-register kernel should leave this workload unchanged.
    """

    name = "grid"
    tail_percentile = 95.0

    def __init__(self, seed: int, families=None) -> None:
        super().__init__(seed)
        self.families = families

    def setup(self) -> None:
        if self.families is None:
            self.families = verify_grid_families()
        for family in self.families:
            _verified(family, 0)

    def round(self, k: int) -> list:
        rng = _round_rng(self.seed, k)
        ops = []
        for i in rng.permutation(len(self.families)):
            family, op_seed = self.families[i], int(rng.integers(2**32))
            ops.append((family.label(), lambda tracer, f=family, s=op_seed: _verified(f, s)))
        return ops


class Large(Workload):
    """verify_family on 8-qubit registers, each input stressing one cost.

    cyclic 256 (40 gates): the dense compile_circuit product.
    cyclic 192 (one dense 256x256 block): the r^3 loop over states.
    dihedral 96 and 128: the O(n^2) distinct-point scan in build_povm and
    validate_povm.  generic cyclic 256: the Python Gram-Schmidt loop.
    """

    name = "large"
    tail_percentile = 75.0
    SIZES = {"cyclic": (256, 192), "dihedral": (96, 128), "generic": (256,)}
    WARMUP = {"cyclic": (16,), "dihedral": (8,), "generic": (16,)}

    def __init__(self, seed: int, sizes=None) -> None:
        super().__init__(seed)
        self.sizes = sizes or self.SIZES
        self.inputs: list = []

    def _inputs(self, sizes) -> list:
        rng = _setup_rng(self.seed)
        inputs = []
        for m in sizes.get("cyclic", ()):
            inputs.append((povmkit.PovmFamily.cyclic(m), "structured"))
        for m in sizes.get("dihedral", ()):
            inputs.append((draw_dihedral(rng, m), "structured"))
        for m in sizes.get("generic", ()):
            inputs.append((povmkit.PovmFamily.cyclic(m), "generic"))
        return inputs

    def setup(self) -> None:
        self.inputs = self._inputs(self.sizes)
        for family, method in self._inputs(self.WARMUP):
            _verified(family, 0, method)

    def round(self, k: int) -> list:
        rng = _round_rng(self.seed, k)
        ops = []
        for i in rng.permutation(len(self.inputs)):
            family, method = self.inputs[i]
            op_seed = int(rng.integers(2**32))
            ops.append(
                (
                    f"{method} {family.label()}",
                    lambda tracer, f=family, s=op_seed, m=method: _verified(f, s, m),
                )
            )
        return ops


class SampleStream(Workload):
    """A user holding built circuits asks for probabilities and shots.

    circuit_probabilities recompiles on every call, and sample's batch
    arrays dominate memory; build_povm and friends run only in set-up.

    One op measures one random state with every held circuit, in a seeded
    order.  With one circuit per op, the four circuits' costs (set by
    their outcome counts) gave four separate latency modes, and the
    median fell in the gap between the second and third, moving by 20%
    from run to run.
    """

    name = "sample-stream"
    tail_percentile = 60.0
    calibration_kernel = "stream"
    SHOTS = 4_000_000
    WARMUP_SHOTS = 10_000

    def __init__(self, seed: int, shots: int = SHOTS) -> None:
        super().__init__(seed)
        self.shots = shots
        self.held: list = []

    def setup(self) -> None:
        rng = _setup_rng(self.seed)
        families = [
            povmkit.PovmFamily.platonic("tetrahedron"),
            povmkit.PovmFamily.platonic("icosahedron"),
            povmkit.PovmFamily.cyclic(128),
            draw_dihedral(rng, 32),
        ]
        self.held = []
        for family in families:
            povm = povmkit.build_povm(family)
            povmkit.validate_povm(povm)
            dilated = povmkit.structured_dilation(povm)
            self.held.append((povm, dilated, povmkit.synthesize_circuit(dilated)))
        for held in self.held:
            self._op(held, np.eye(2) / 2, 0, min(self.shots, self.WARMUP_SHOTS))

    @staticmethod
    def _op(held, rho, sample_seed: int, shots: int) -> bytes:
        povm, dilated, circuit = held
        p_circ = simulate.circuit_probabilities(dilated, circuit, rho)
        p_exact = simulate.analytic_probabilities(povm, rho)
        counts = simulate.sample(p_circ, shots, sample_seed)
        err = float(np.abs(p_circ - p_exact).max())
        if not err <= PROBABILITY_TOL:
            raise CheckFailed(f"{povm.family.label()}: probability error {err:.3e}")
        if int(counts.counts.sum()) != shots:
            raise CheckFailed(f"{povm.family.label()}: counts sum to {counts.counts.sum()}")
        tv = counts.total_variation(p_exact)
        bound = tv_bound(povm.n, shots)
        if not tv <= bound:
            raise CheckFailed(f"{povm.family.label()}: total variation {tv:.3e} > {bound:.3e}")
        return p_circ.tobytes() + np.asarray(counts.counts, dtype=np.int64).tobytes()

    def round(self, k: int) -> list:
        rng = _round_rng(self.seed, k)
        rho = random_density_matrix(rng)
        calls = [
            (self.held[i], int(rng.integers(2**32))) for i in rng.permutation(len(self.held))
        ]

        def op(tracer) -> bytes:
            return b"".join(self._op(held, rho, s, self.shots) for held, s in calls)

        return [(" ".join(held[0].family.label() for held, _ in calls), op)]


class CliCold(Workload):
    """Fresh ``python -m povmkit verify --all`` processes, one at a time.

    The only workload that pays interpreter start-up and import.  Traced
    ops run ``cli_child.py`` instead, which times the import and traces
    ``main`` inside the child and sends its spans back.
    """

    name = "cli-cold"
    tail_percentile = 75.0
    calibration_kernel = "spawn"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.child_peak_kb = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC_DIR))

    def _run(self, argv: list) -> tuple[int, str]:
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=self.env, text=True
        )
        try:
            with proc.stdout:
                out = proc.stdout.read()
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        return proc.returncode, out

    @staticmethod
    def _check(code: int, out: str) -> bytes:
        passed = sum(1 for line in out.splitlines() if line.startswith("PASS"))
        if code != 0 or passed != CLI_FAMILIES:
            raise CheckFailed(f"exit code {code}, {passed} PASS lines")
        return out.encode()

    def op(self, tracer) -> bytes:
        if tracer is None:
            return self._check(*self._run([sys.executable, "-m", "povmkit", "verify", "--all"]))
        code, out = self._run([sys.executable, str(BENCH_DIR / "cli_child.py")])
        child = json.loads(out)
        tracer.merge(child["spans"], child["counters"])
        return self._check(code, child["stdout"])

    def setup(self) -> None:
        self._check(*self._run([sys.executable, "-m", "povmkit", "verify", "--all"]))
        self.child_peak_kb = 0

    def round(self, k: int) -> list:
        return [("verify --all", self.op)]

    def peak_rss_mb(self) -> float:
        return self.child_peak_kb / 1024


WORKLOADS = {w.name: w for w in (Grid, Large, SampleStream, CliCold)}
