"""One cold ``povmkit verify --all`` run, traced from inside the process.

Times ``import povmkit.cli`` as the span ``cli.import``, runs
``main(["verify", "--all"])`` under the span ``cli.main`` with the layer
functions traced, and prints one JSON object: the captured standard output, the
spans and the counters; the exit code is the CLI's own.  The traced ``cli-cold`` op
starts this script with ``src`` on ``PYTHONPATH``.
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    start = time.perf_counter_ns()
    import povmkit.cli

    end = time.perf_counter_ns()
    import tracing

    tracer = tracing.Tracer()
    tracer.record("cli.import", start, end)
    out = io.StringIO()
    with tracing.installed(tracer), contextlib.redirect_stdout(out), tracer.span("cli.main"):
        code = povmkit.cli.main(["verify", "--all"])
    json.dump(
        {
            "stdout": out.getvalue(),
            "spans": tracer.export(),
            "counters": dict(tracer.counters),
        },
        sys.stdout,
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
