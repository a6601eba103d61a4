"""Run one povmkit benchmark workload and print its metrics.

    python3 bench/run.py --workload grid --seed 1 --seconds 28 --trace 0

Run from the repository root; povmkit is imported from ./src.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer ones, one ``name value unit`` line each, and then, as the last
line, one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The full record, with the environment, goes to
``bench/out/``.  End-to-end timings are divided by the host slowdown
that a fixed calibration kernel measures during the run
(``calibration.py``); the unadjusted ones are printed as a ``#`` line.
Exits 1 if any op failed its check, 2 if povmkit cannot be imported from
./src.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("grid", "large", "sample-stream", "cli-cold")
# One BLAS thread: ops are closed-loop with one client, and a single thread
# keeps the dense kernels steady on a shared machine.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import povmkit; print(time.perf_counter() - t)"


def import_seconds() -> float:
    """Time a fresh interpreter takes to import povmkit."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(out.stdout)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARIABLES:
        os.environ[var] = BLAS_THREADS
    if not (SRC_DIR / "povmkit" / "__init__.py").is_file():
        print(f"error: no povmkit package under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import povmkit

    if Path(povmkit.__file__).resolve().parent != SRC_DIR / "povmkit":
        print(f"error: povmkit imported from {povmkit.__file__}", file=sys.stderr)
        return 2

    import calibration
    import harness
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_cal = calibration.Calibration(workload.calibration_kernel)
    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        imported = import_seconds()
        start = time.perf_counter()
        workload.setup()
        setup_times.append(imported + time.perf_counter() - start)
        setup_cal.sample()

    tracer = tracing.Tracer() if args.trace else None
    m = harness.measure(workload, args.seconds, tracer)
    cal = m.calibration
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": harness.environment(args.seed),
        "attempted": m.attempted,
        "failed": m.failed,
        "failed_ratio": m.failed_ratio,
        "failures": m.failures,
        "rounds": m.rounds,
        "digest": m.digest,
        "setup_times_s": setup_times,
        "latencies_ms": m.plain.latencies_ms,
        "calibration": cal.record(),
        "setup_calibration": setup_cal.record(),
    }
    if args.trace:
        metrics, record["breakdown"] = harness.per_layer(m, tracer)
    else:
        metrics, record["latency"] = harness.end_to_end(
            m, setup_times, setup_cal, workload.peak_rss_mb(), workload.tail_percentile
        )

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump(record, fh, indent=2)
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.csv.gz"))

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"# failed_ratio {m.failed_ratio:.6g} ({m.failed}/{m.attempted})")
    if "latency" in record:
        lat = record["latency"]
        print(
            f"# op_tail_ms is p{lat['tail_percentile']:g} of {lat['samples']} untraced ops,"
            f" {lat['beyond_tail']} beyond it"
        )
        if lat["beyond_tail"] < harness.TAIL_BEYOND:
            print(f"# fewer than {harness.TAIL_BEYOND} ops beyond the tail percentile")
        raw = " ".join(f"{name} {value:.6g}" for name, value in lat["raw"].items())
        print(f"# unadjusted: {raw}")
    else:
        b = record["breakdown"]
        print(
            f"# traced op {b['op_ms']:.6g} ms = attributed {b['attributed_ms']:.6g} ms"
            f" + unattributed {metrics['trace.unattributed_ms'][0]:.6g} ms"
        )
    print(
        f"# host slowdown {cal.slowdown():.4g}: {cal.name} kernel trimmed mean over"
        f" {len(cal.samples_ms)} samples / {cal.reference_ms:g} ms reference;"
        f" {setup_cal.slowdown():.4g} between the set-ups"
    )
    print(f"# digest {m.digest}")
    for failure in m.failures:
        print(f"# FAILED {failure}")
    correct = m.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": m.attempted,
                "failed": m.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
