"""Measurement loop, metrics and environment record of the benchmark.

``measure`` runs whole rounds of a workload's ops until ``seconds`` have
passed, timing each op and counting every failed op against the attempted
ones.  With a tracer it alternates untraced and traced rounds, so the same
run gives the per-layer numbers and the tracing overhead.  Round 0 is
always untraced and its outputs make the run's digest, which two runs
with the same seed reproduce exactly.

Between ops, ``measure`` times the workload's calibration kernel every
so often, outside every op and phase timing; ``end_to_end`` divides the
run's timings by the resulting host slowdown (see ``calibration.py``).
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import calibration
import tracing

TAIL_BEYOND = 10
MAX_FAILURE_MESSAGES = 20


@dataclass
class Phase:
    """Ops of one kind (traced or untraced) within a run."""

    ops: int = 0
    wall_s: float = 0.0
    latencies_ms: list = field(default_factory=list)

    def ops_per_s(self) -> float:
        return self.ops / self.wall_s if self.wall_s > 0 else 0.0


@dataclass
class Measurement:
    plain: Phase = field(default_factory=Phase)
    traced: Phase = field(default_factory=Phase)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    digest: str = ""
    rounds: int = 0
    calibration: calibration.Calibration | None = None

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def measure(
    workload,
    seconds: float,
    tracer: tracing.Tracer | None = None,
    cal: calibration.Calibration | None = None,
) -> Measurement:
    cal = cal or calibration.Calibration(workload.calibration_kernel)
    result = Measurement(calibration=cal)
    digest = hashlib.sha256()
    min_rounds = 2 if tracer is not None else 1
    deadline = time.perf_counter() + seconds
    k = 0
    while k < min_rounds or time.perf_counter() < deadline:
        traced = tracer is not None and k % 2 == 1
        phase = result.traced if traced else result.plain
        begin = time.perf_counter()
        calibrating = 0.0
        with tracing.installed(tracer) if traced else nullcontext():
            for label, op in workload.round(k):
                if cal.due():
                    calibrating += cal.sample()
                out = _run_op(result, phase, label, op, tracer if traced else None)
                if k == 0:
                    digest.update(label.encode() + b"\0" + out + b"\0")
        phase.wall_s += time.perf_counter() - begin - calibrating
        k += 1
    result.rounds = k
    result.digest = digest.hexdigest()
    return result


def _run_op(result: Measurement, phase: Phase, label: str, op, tracer) -> bytes:
    """Run one op; a raised exception or failed check counts as failed."""
    result.attempted += 1
    out = b""
    start = time.perf_counter_ns()
    if tracer is not None:
        tracer.op_id = result.attempted
        root = tracer.begin(tracing.ROOT)
    try:
        out = op(tracer)
    except Exception as exc:  # every failure is counted, none drops the op
        result.failed += 1
        if len(result.failures) < MAX_FAILURE_MESSAGES:
            result.failures.append(f"{label}: {type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.finish(root)
    phase.latencies_ms.append((time.perf_counter_ns() - start) / 1e6)
    phase.ops += 1
    return out


def tail(latencies_ms: list, percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile, and how many samples lie beyond it."""
    xs = sorted(latencies_ms)
    rank = max(1, math.ceil(round(percentile * len(xs) / 100, 9)))
    return xs[rank - 1], len(xs) - rank


def end_to_end(
    m: Measurement,
    setup_times: list,
    setup_cal: calibration.Calibration,
    peak_rss_mb: float,
    tail_percentile: float,
) -> tuple[dict, dict]:
    """Metrics with timings divided by the host slowdown, and the raw ones.

    Op timings use the slowdown measured while the ops ran; ``setup_s``
    uses the one measured between the set-ups.
    """
    value, beyond = tail(m.plain.latencies_ms, tail_percentile)
    raw = {
        "ops_per_s": (m.plain.ops_per_s(), "1/s"),
        "op_p50_ms": (statistics.median(m.plain.latencies_ms), "ms"),
        "op_tail_ms": (value, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    slowdown = m.calibration.slowdown()
    scale = {"ops_per_s": slowdown, "op_p50_ms": 1 / slowdown, "op_tail_ms": 1 / slowdown,
             "setup_s": 1 / setup_cal.slowdown()}
    metrics = {name: (v * scale.get(name, 1.0), u) for name, (v, u) in raw.items()}
    return metrics, {
        "tail_percentile": tail_percentile,
        "samples": m.plain.ops,
        "beyond_tail": beyond,
        "raw": {name: v for name, (v, _) in raw.items()},
    }


# (metric, span name, statistic); statistics are per traced op
LAYER_METRICS = (
    ("circuits.compile_circuit.calls", "circuits.compile_circuit", "calls"),
    ("circuits.compile_circuit.self_ms", "circuits.compile_circuit", "self_ms"),
    ("linalg.embed_on_qubits.calls", "linalg.embed_on_qubits", "calls"),
    ("linalg.embed_on_qubits.self_ms", "linalg.embed_on_qubits", "self_ms"),
    ("simulate.verify_family.self_ms", "simulate.verify_family", "self_ms"),
    ("linalg.distance_up_to_global_phase.self_ms", "linalg.distance_up_to_global_phase", "self_ms"),
    ("linalg.unitarity_residual.self_ms", "linalg.unitarity_residual", "self_ms"),
    ("dilation.residuals.self_ms", "dilation.residuals", "self_ms"),
    ("families.build_povm.calls", "families.build_povm", "calls"),
    ("families.build_povm.self_ms", "families.build_povm", "self_ms"),
    ("families.validate_povm.self_ms", "families.validate_povm", "self_ms"),
    ("bloch.povm_element_to_bloch.calls", "bloch.povm_element_to_bloch", "calls"),
    ("bloch.povm_element_to_bloch.self_ms", "bloch.povm_element_to_bloch", "self_ms"),
    ("dilation.structured_dilation.self_ms", "dilation.structured_dilation", "self_ms"),
    ("dilation.generic_completion.self_ms", "dilation.generic_completion", "self_ms"),
    ("circuits.synthesize_circuit.self_ms", "circuits.synthesize_circuit", "self_ms"),
    ("bloch.validate_density_matrix.calls", "bloch.validate_density_matrix", "calls"),
    ("bloch.validate_density_matrix.self_ms", "bloch.validate_density_matrix", "self_ms"),
    ("simulate.circuit_probabilities.self_ms", "simulate.circuit_probabilities", "self_ms"),
    ("simulate.analytic_probabilities.self_ms", "simulate.analytic_probabilities", "self_ms"),
    ("simulate.sample.self_ms", "simulate.sample", "self_ms"),
    ("cli.import_ms", "cli.import", "total_ms"),
    ("cli.main_ms", "cli.main", "total_ms"),
    ("trace.unattributed_ms", tracing.ROOT, "self_ms"),
)
UNITS = {"calls": "count", "self_ms": "ms", "total_ms": "ms"}


def per_layer(m: Measurement, tracer: tracing.Tracer) -> tuple[dict, dict]:
    """Per-op layer metrics of the traced rounds, and the full breakdown."""
    ops = max(m.traced.ops, 1)
    summary = tracer.summary()

    def stat(span: str, kind: str) -> float:
        entry = summary.get(span, {"calls": 0, "self_ns": 0, "total_ns": 0})
        if kind == "calls":
            return entry["calls"] / ops
        return entry["self_ns" if kind == "self_ms" else "total_ns"] / 1e6 / ops

    metrics = {name: (stat(span, kind), UNITS[kind]) for name, span, kind in LAYER_METRICS}
    metrics["simulate.sample.peak_alloc_mb"] = (
        tracer.counters.get(tracing.SAMPLE_PEAK, 0.0),
        "MB",
    )
    metrics["circuits.gate_count"] = (tracer.counters.get(tracing.GATE_COUNT, 0.0) / ops, "count")
    plain = m.plain.ops_per_s()
    metrics["trace.overhead_ratio"] = (m.traced.ops_per_s() / plain if plain else 0.0, "ratio")

    op_ms = stat(tracing.ROOT, "total_ms")
    breakdown = {
        "traced_ops": m.traced.ops,
        "op_ms": op_ms,
        "self_ms": {name: stat(name, "self_ms") for name in sorted(summary)},
        "calls": {name: stat(name, "calls") for name in sorted(summary)},
    }
    breakdown["attributed_ms"] = op_ms - stat(tracing.ROOT, "self_ms")
    return metrics, breakdown


def environment(seed: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "seed": seed,
    }
