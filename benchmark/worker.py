"""One measured process of a workload.

Usage (run.py starts it): python3 benchmark/worker.py '<spec as JSON>'

The process imports the package, generates its inputs from the seed,
warms up on inputs disjoint from the timed ones, runs the job once in
a closed loop, checks every output, and prints one JSON line with its
measurements.  ``setup_s`` runs from the moment the parent started this
process (the spec carries that time on the system-wide monotonic clock)
to the first timed operation.
"""

import time

T_BOOT = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

T_NUMPY = time.monotonic()
import numpy  # noqa: E402

T_NUMPY = time.monotonic() - T_NUMPY

import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def _import_ternring(root: Path):
    """Import ternring from the checkout's src/, never from elsewhere."""
    import ternring

    src = (root / "src").resolve()
    if src not in Path(ternring.__file__).resolve().parents:
        raise SystemExit(f"ternring was imported from {ternring.__file__}, not from {src}")
    return ternring


def _cli_launcher(root: Path, traced: bool, spans_dir: Path, traces: list):
    """launch(argv) runs one CLI process, untraced as python -m
    ternring.cli, or traced through cli_traced.py."""
    env = dict(os.environ)
    counter = iter(range(10**9))

    def launch(argv):
        if traced:
            i = next(counter)
            summary = spans_dir / f"cli-{i}.json"
            cmd = [sys.executable, str(root / "benchmark" / "cli_traced.py"), str(summary), *argv]
        else:
            cmd = [sys.executable, "-m", "ternring.cli", *argv]
        env["BENCH_T_SPAWN"] = repr(time.monotonic())
        outcome = workloads.run_command(cmd, env)
        if traced:
            traces.append(json.loads(summary.read_text()))
        return outcome

    return launch


def main() -> None:
    workloads.exit_on_sigterm()
    spec = json.loads(sys.argv[1])
    root = Path(spec["root"])
    name, seed, traced = spec["workload"], spec["seed"], spec["trace"]
    spans_dir = Path(spec["spans_dir"])
    report = {"interpreter_s": T_BOOT - spec["t_spawn"], "import_numpy_s": T_NUMPY}
    report["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}

    tracer = None
    cli_traces: list = []
    if name == "cli":
        launch = _cli_launcher(root, traced, spans_dir, cli_traces)
        inputs = workloads.cli_inputs(seed)
        workloads.cli_warm_up(launch)
        cli_traces.clear()
        job = workloads.cli_job(launch, inputs)
    else:
        t = time.monotonic()
        tr = _import_ternring(root)
        report["import_ternring_s"] = time.monotonic() - t
        if traced:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        if name in workloads.SCAN_CASES:
            inputs = workloads.scan_inputs(name, seed)
            workloads.scan_warm_up(tr)
            job = workloads.scan_job(tr, inputs)
        else:
            inputs = workloads.skew_inputs(seed)
            workloads.skew_warm_up(tr)
            job = workloads.skew_job(tr, inputs)

    report["setup_s"] = time.monotonic() - spec["t_spawn"]
    if spec["setup_only"]:
        print(json.dumps(report))
        return

    if tracer is not None:
        tracer.enabled = True
        ops, wall = workloads.run_timed(job, lambda i, op: tracer.run_op(i, op.label, op.run))
        tracer.enabled = False
    else:
        ops, wall = workloads.run_timed(job, lambda i, op: op.run())
    report["wall_s"] = wall
    report["peak_rss_mb"] = _peak_rss_mb(
        resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    )
    report["latencies"] = [op.latency for op in ops]

    failures, violations, digests = [], [], []
    for op in ops:
        if isinstance(op.result, BaseException):
            error = f"raised {type(op.result).__name__}: {op.result}"
            digests.append(f"raised {type(op.result).__name__}")
        else:
            try:
                error = op.check(op.result)
            except Exception as err:  # a check that cannot run counts as failed
                error = f"check raised {type(err).__name__}: {err}"
            digests.append(op.digest(op.result))
        if error is not None:
            (violations if op.contract else failures).append(f"{op.label}: {error}")
    report["attempted"] = len(ops)
    report["failed"] = len(failures)
    report["failures"] = failures
    report["contract_probes"] = sum(op.contract for op in ops)
    report["contract_violations"] = violations
    report["digest"] = workloads.short_hash(digests)

    if tracer is not None:
        tracer.write(spans_dir / f"{name}.npz")
        report["layers"] = tracing.summarize(tracer)
    elif traced:
        report["layers"] = tracing.merge(c["layers"] for c in cli_traces)
        for key in ("interpreter_s", "import_numpy_s", "import_ternring_s"):
            report[key] = stats.median(c[key] for c in cli_traces)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
