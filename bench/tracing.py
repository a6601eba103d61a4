"""In-memory spans around povmkit's public functions.

The benchmark traces the package from outside: ``installed`` swaps each
function named in ``LAYER_FUNCTIONS`` for a wrapper in every ``povmkit``
module that has imported it, and wraps the two residual methods of
``DilatedMeasurement``; leaving the ``with`` block puts the originals back.
Each wrapper records a span (name, start, end, parent span, op id) in
compact arrays that stay in memory until ``write`` dumps them.

A span's self time is its duration minus the part of it that its child
spans cover, so the self times of one op's spans add up to the op's
duration.  The root span of an op is named ``op``; its self time is the
time spent outside every traced function.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

# Public functions timed per layer, as ``<module>.<function>``.
LAYER_FUNCTIONS = (
    "bloch.povm_element_to_bloch",
    "bloch.validate_density_matrix",
    "circuits.compile_circuit",
    "circuits.synthesize_circuit",
    "dilation.generic_completion",
    "dilation.structured_dilation",
    "families.build_povm",
    "families.validate_povm",
    "linalg.distance_up_to_global_phase",
    "linalg.embed_on_qubits",
    "linalg.unitarity_residual",
    "simulate.analytic_probabilities",
    "simulate.circuit_probabilities",
    "simulate.sample",
    "simulate.verify_family",
)
# DilatedMeasurement methods, traced together as ``dilation.residuals``.
RESIDUAL_METHODS = ("unitarity_residual", "embedding_residual")

ROOT = "op"
GATE_COUNT = "circuits.gate_count"
SAMPLE_PEAK = "simulate.sample.peak_alloc_mb"


class Tracer:
    """Spans of one benchmark run, plus counters taken at the same calls."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.op_id = -1
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.finish(idx)

    def record(self, name: str, start: int, end: int, parent: int = -1) -> int:
        """Add a finished span, e.g. one measured in another process."""
        idx = len(self.names)
        self.names.append(name)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(self.op_id)
        return idx

    def export(self) -> list:
        """Spans as ``[name, start, end, parent]`` lists, parents local."""
        return [
            [self.names[i], self.start[i], self.end[i], self.parent[i]]
            for i in range(len(self))
        ]

    def merge(self, spans: list, counters: dict) -> None:
        """Attach another tracer's exported spans under the open span.

        perf_counter_ns reads the system-wide monotonic clock on Linux, so
        spans taken in a child process line up with the parent's.
        """
        under = self._stack[-1] if self._stack else -1
        base = len(self)
        for name, start, end, parent in spans:
            self.record(name, start, end, base + parent if parent >= 0 else under)
        for key, value in counters.items():
            self.add_counter(key, value)

    def add_counter(self, key: str, value: float) -> None:
        if key == SAMPLE_PEAK:
            self.counters[key] = max(self.counters[key], value)
        else:
            self.counters[key] += value

    def wrap(self, name: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)

        return traced

    def self_times(self) -> list[int]:
        """Each span's duration minus the union of its children's intervals."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p].append(i)
        out = []
        for i in range(len(self)):
            lo, hi = self.start[i], self.end[i]
            covered = 0
            cursor = lo
            for c in sorted(children.get(i, ()), key=lambda c: self.start[c]):
                a, b = max(self.start[c], cursor), min(self.end[c], hi)
                if b > a:
                    covered += b - a
                    cursor = b
            out.append(hi - lo - covered)
        return out

    def summary(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, summed self time and summed duration (ns)."""
        totals: dict[str, dict[str, int]] = defaultdict(
            lambda: {"calls": 0, "self_ns": 0, "total_ns": 0}
        )
        for i, self_ns in enumerate(self.self_times()):
            entry = totals[self.names[i]]
            entry["calls"] += 1
            entry["self_ns"] += self_ns
            entry["total_ns"] += self.end[i] - self.start[i]
        return dict(totals)

    def write(self, path) -> None:
        """Dump every span as gzipped CSV."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start_ns,end_ns,parent,op\n")
            for i in range(len(self)):
                fh.write(
                    f"{i},{self.names[i]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.op[i]}\n"
                )


def _counting_gates(tracer: Tracer, fn):
    @wraps(fn)
    def probe(*args, **kwargs):
        circuit = fn(*args, **kwargs)
        tracer.add_counter(GATE_COUNT, len(circuit.gates))
        return circuit

    return probe


def _tracking_allocations(tracer: Tracer, fn):
    @wraps(fn)
    def probe(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer.add_counter(SAMPLE_PEAK, peak / 2**20)

    return probe


_PROBES = {
    "circuits.synthesize_circuit": _counting_gates,
    "simulate.sample": _tracking_allocations,
}


@contextmanager
def installed(tracer: Tracer):
    """Trace povmkit's layer functions for the duration of the block."""
    import povmkit.dilation

    wrappers = {}
    for qualname in LAYER_FUNCTIONS:
        module, name = qualname.split(".")
        fn = getattr(importlib.import_module(f"povmkit.{module}"), name)
        probe = _PROBES.get(qualname)
        inner = probe(tracer, fn) if probe else fn
        wrappers[id(fn)] = (fn, tracer.wrap(qualname, inner))

    patches = []
    for modname, module in list(sys.modules.items()):
        if modname != "povmkit" and not modname.startswith("povmkit."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                patches.append((module, attr, value))
                setattr(module, attr, hit[1])
    cls = povmkit.dilation.DilatedMeasurement
    for attr in RESIDUAL_METHODS:
        method = cls.__dict__[attr]
        patches.append((cls, attr, method))
        setattr(cls, attr, tracer.wrap("dilation.residuals", method))
    try:
        yield tracer
    finally:
        for obj, attr, value in reversed(patches):
            setattr(obj, attr, value)
