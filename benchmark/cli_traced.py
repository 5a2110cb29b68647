"""Run one ternring CLI command under the span tracer.

Usage: python3 benchmark/cli_traced.py SUMMARY.json [CLI arguments...]

Behaves as ``python -m ternring.cli`` (same stdout, exit code, and
traceback on an uncaught error) and, when the command ends, writes the
command's per-layer summary to SUMMARY.json and its spans next to it.
BENCH_T_SPAWN holds the monotonic time at which the parent started this
process, so interpreter start-up is measured from outside.
"""

import time

T_BOOT = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    summary_path = Path(sys.argv[1])
    argv = sys.argv[2:]
    timings = {"interpreter_s": T_BOOT - float(os.environ["BENCH_T_SPAWN"])}
    t = time.monotonic()
    import numpy  # noqa: F401

    timings["import_numpy_s"] = time.monotonic() - t
    t = time.monotonic()
    import ternring.cli

    timings["import_ternring_s"] = time.monotonic() - t

    import tracer as tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.enabled = True
    try:
        return tracer.run_op(0, "op.cli", lambda: ternring.cli.main(argv))
    finally:
        tracer.enabled = False
        tracer.write(summary_path.with_suffix(".npz"))
        timings["layers"] = tracing.summarize(tracer)
        summary_path.write_text(json.dumps(timings))


if __name__ == "__main__":
    sys.exit(main())
