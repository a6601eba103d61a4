"""Tests of the benchmark itself: span accounting, failure counting, smoke runs."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import calibration
import harness
import povmkit
import tracing
import workloads
from povmkit import simulate

REPO = Path(__file__).resolve().parents[2]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def hand_built_tree() -> tracing.Tracer:
    t = tracing.Tracer()
    op = t.record("op", 0, 100)
    a = t.record("a", 10, 40, op)
    t.record("a1", 15, 25, a)
    b = t.record("b", 50, 90, op)
    t.record("b1", 60, 70, b)
    t.record("b1", 65, 80, b)  # overlaps its sibling: covered once
    t.record("c", 95, 120, op)  # runs past its parent: clipped
    return t


def test_self_time_is_duration_minus_child_coverage():
    assert hand_built_tree().self_times() == [100 - 30 - 40 - 5, 20, 10, 20, 10, 15, 25]


def test_summary_groups_spans_by_name():
    summary = hand_built_tree().summary()
    assert summary["b1"] == {"calls": 2, "self_ns": 25, "total_ns": 25}
    assert summary["op"]["total_ns"] == 100


def test_merge_hangs_child_spans_under_the_open_span():
    child = tracing.Tracer()
    root = child.record("cli.main", 10, 50)
    child.record("simulate.verify_family", 20, 30, root)
    parent = tracing.Tracer()
    with parent.span("op"):
        parent.merge(child.export(), {tracing.GATE_COUNT: 4})
    assert list(parent.parent) == [-1, 0, 1]
    assert parent.counters[tracing.GATE_COUNT] == 4


def test_installed_traces_every_importer_and_restores():
    original = simulate.verify_family
    tracer = tracing.Tracer()
    with tracing.installed(tracer), tracer.span(tracing.ROOT):
        assert simulate.verify_family is not original
        assert povmkit.verify_family is simulate.verify_family
        assert povmkit.verify_family(povmkit.PovmFamily.cyclic(4)).passed
    assert simulate.verify_family is original and povmkit.verify_family is original
    summary = tracer.summary()
    for name in (
        "simulate.verify_family",
        "circuits.compile_circuit",
        "linalg.embed_on_qubits",
        "dilation.residuals",
        "bloch.validate_density_matrix",
    ):
        assert summary[name]["calls"] >= 1, name
    assert tracer.counters[tracing.GATE_COUNT] == 4
    assert sum(tracer.self_times()) == summary[tracing.ROOT]["total_ns"]


def test_tail_is_the_nearest_rank_percentile():
    assert harness.tail(list(range(40, 0, -1)), 75.0) == (30, 10)
    assert harness.tail(list(range(1, 1001)), 99.0) == (990, 10)
    assert harness.tail([2.0], 99.0) == (2.0, 0)


def test_failing_report_raises_failed_ratio(monkeypatch):
    grid = workloads.Grid(1, families=[povmkit.PovmFamily.cyclic(2), povmkit.PovmFamily.cyclic(3)])
    grid.setup()
    real = simulate.verify_family

    def failing(*args, **kwargs):
        report = real(*args, **kwargs)
        report.failures.append("probabilities")
        return report

    monkeypatch.setattr(simulate, "verify_family", failing)
    m = harness.measure(grid, 0)
    assert (m.attempted, m.failed, m.failed_ratio) == (2, 2, 1.0)
    assert "probabilities" in m.failures[0]


def test_wrong_probability_raises_failed_ratio(monkeypatch):
    stream = workloads.SampleStream(1, shots=1000)
    stream.setup()
    real = simulate.circuit_probabilities
    monkeypatch.setattr(
        simulate, "circuit_probabilities", lambda *a, **k: np.roll(real(*a, **k), 1)
    )
    m = harness.measure(stream, 0)
    assert m.attempted == 1 and m.failed == 1
    assert "probability error" in m.failures[0]


def test_raising_op_counts_as_failed():
    class Broken(workloads.Workload):
        def round(self, k):
            return [("ok", lambda tracer: b""), ("bad", lambda tracer: 1 / 0)]

    m = harness.measure(Broken(0), 0)
    assert (m.attempted, m.failed) == (2, 1)


def test_end_to_end_divides_timings_by_the_host_slowdown():
    cal = calibration.Calibration("small")
    # 10% trimmed mean 20 ms against a 10 ms reference
    cal.samples_ms = [90.0, 1.0] + [15.0, 25.0] * 4
    m = harness.Measurement(calibration=cal)
    m.plain = harness.Phase(ops=3, wall_s=0.06, latencies_ms=[10.0, 20.0, 30.0])
    setup_cal = calibration.Calibration("small")
    setup_cal.samples_ms = [4.0, 6.0]  # set-ups ran at half the slowdown of the ops
    metrics, latency = harness.end_to_end(m, [0.4, 0.5, 0.6], setup_cal, 40.0, 50.0)
    assert metrics["ops_per_s"] == (100.0, "1/s")
    assert metrics["op_p50_ms"] == (10.0, "ms")
    assert metrics["op_tail_ms"] == (10.0, "ms")
    assert metrics["setup_s"] == (1.0, "s")
    assert metrics["peak_rss_mb"] == (40.0, "MB")
    assert latency["raw"]["ops_per_s"] == 50.0 and latency["raw"]["op_p50_ms"] == 20.0


def test_calibration_runs_between_ops_and_outside_their_time():
    class Sleepy(workloads.Workload):
        def round(self, k):
            return [("op", lambda tracer: b"")] * 3

    cal = calibration.Calibration("small")
    cal.kernel = lambda: time.sleep(0.05)
    m = harness.measure(Sleepy(0), 0, cal=cal)
    assert len(cal.samples_ms) == 1 and cal.samples_ms[0] >= 50
    assert m.plain.ops == 3 and m.plain.wall_s < 0.05
    assert max(m.plain.latencies_ms) < 50


@pytest.mark.parametrize("name", sorted(calibration.KERNELS))
def test_calibration_kernels_run_without_povmkit(name):
    cal = calibration.Calibration(name)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        cal.sample()
    assert cal.samples_ms[0] > 0 and not tracer.names
    assert cal.slowdown() == cal.samples_ms[0] / cal.reference_ms


def test_tv_bound_holds_for_a_correct_sampler():
    p = np.full(128, 1 / 128)
    counts = simulate.sample(p, 100_000, seed=3)
    assert counts.total_variation(p) < workloads.tv_bound(128, 100_000)


TINY = {
    "grid": lambda seed: workloads.Grid(
        seed, families=[povmkit.PovmFamily.cyclic(3), povmkit.PovmFamily.platonic("cube")]
    ),
    "large": lambda seed: workloads.Large(
        seed, sizes={"cyclic": (8, 6), "dihedral": (4,), "generic": (8,)}
    ),
    "sample-stream": lambda seed: workloads.SampleStream(seed, shots=2000),
    "cli-cold": workloads.CliCold,
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_at_tiny_size(name):
    digests = []
    for trace in (False, True):
        workload = TINY[name](7)
        workload.setup()
        tracer = tracing.Tracer() if trace else None
        m = harness.measure(workload, 0, tracer)
        assert m.attempted >= 1 and m.failed == 0, m.failures
        if trace:
            metrics, breakdown = harness.per_layer(m, tracer)
            assert set(metrics) == PER_LAYER
            assert breakdown["attributed_ms"] <= breakdown["op_ms"]
        else:
            metrics, _ = harness.end_to_end(
                m, [0.1], m.calibration, workload.peak_rss_mb(), workload.tail_percentile
            )
            assert set(metrics) == END_TO_END
            assert all(v > 0 for v, _ in metrics.values())
        digests.append(m.digest)
    assert digests[0] == digests[1]


def test_run_prints_the_result_line_last():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid", "--seed", "3",
         "--seconds", "0.2", "--trace", "1"],
        cwd=REPO, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and set(result["metrics"]) == PER_LAYER


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
