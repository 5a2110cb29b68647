"""Benchmark of the ternring workbench.

Usage: python3 benchmark/run.py --workload {qscan,qscan24,skew,cli} --seed N
                                --seconds S --trace {0,1}

Run from the root of a source checkout (the package is imported from
its src/ directory).  Each worker is a fresh process started one at a
time, with one BLAS thread and an address-space limit, so a memory
blow-up ends as counted failures rather than an out-of-memory kill.

--trace 0 repeats the seeded job in fresh workers while at least half
of one more pass fits in S seconds, and reports the end-to-end metrics.  --trace 1 runs the job once
untraced and once traced, checks that both give identical outputs, and
reports the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import stats
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("qscan", "qscan24", "skew", "cli")
SCANS = ("qscan", "qscan24")
# Setup is sampled at least this often per run, by extra workers that
# stop before the timed phase when the job itself ran fewer times.
MIN_SETUPS = 5
# Every worker and every CLI process it starts may map this much; the
# largest peak today is about 336 MB resident (skew, s = 6).
ADDRESS_SPACE_LIMIT = 2 * 1024**3
# The run must end within 180 s: the last worker is cut off at this
# point and given 10 s to stop.
RUN_BUDGET_S = 160
SPANS_DIR = ROOT / ".bench_run" / "spans"

# Per-layer metric -> workloads on which it must be nonzero: a zero
# there means a call path escaped the tracer.  Reported, not fatal: a
# change that removes the calls (say, a scan that builds no code
# objects) legitimately zeroes its metric.
COVERAGE = {
    "ring.from_gray.calls": ("skew",),
    "ring.RingElement.mul.calls": ("skew",),
    "poly.factor.calls": WORKLOADS,
    "poly.gcd.calls": WORKLOADS,
    "poly.Z3Poly.divmod.calls": (*SCANS, "skew"),
    "poly.Z3Poly.mul.calls": (*SCANS, "skew"),
    "gf3linalg.min_weight.calls": ("qscan",),
    "gf3linalg.min_weight.words": ("qscan",),
    "gf3linalg.rref.calls": ("skew", "qscan"),
    "ternary.TernaryPolyCode.init.calls": SCANS,
    "ternary.TernaryPolyCode.min_distance.calls": SCANS,
    "ternary.TernaryPolyCode.min_distance.repeat_ratio": SCANS,
    "ternary.TernaryPolyCode.min_distance.k_over_14": SCANS,
    "rcodes.GrayModule.closure.calls": ("skew",),
    "rcodes.gray_vector.calls": ("skew",),
    "rcodes.ungray_vector.calls": ("skew",),
    "rcodes.RCode.init.calls": SCANS,
    "skew.monic_right_divisors.calls": ("skew",),
    "skew.monic_right_divisors.yield": ("skew",),
    "skew.skew_right_divmod.calls": ("skew",),
    "skew.one_generator_sqc.self_s": ("skew",),
    "skew.skew_cyclic_code.self_s": ("skew",),
    "skew.gcld.self_s": ("skew",),
    "quantum.scan_dual_containing.self_s": SCANS,
    "quantum.css_params.calls": SCANS,
    "quantum.verify_reference_table.self_s": ("cli",),
    "cli.main.self_s": ("cli",),
    "cli.interpreter_s": WORKLOADS,
    "cli.import_numpy_s": WORKLOADS,
    "cli.import_ternring_s": WORKLOADS,
}


class WorkerFailed(Exception):
    pass


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def _worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _stop(proc: subprocess.Popen) -> None:
    """Terminate a worker and wait for it.  The worker turns SIGTERM into
    an exception, so it also stops the CLI process it may be waiting for."""
    proc.terminate()
    try:
        proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


def run_worker(workload: str, seed: int, trace: bool, setup_only: bool, deadline: float) -> dict:
    """Start one worker, wait for it, and return its report."""
    spec = {
        "root": str(ROOT),
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "setup_only": setup_only,
        "spans_dir": str(SPANS_DIR),
        "t_spawn": time.monotonic(),
    }
    argv = [sys.executable, str(ROOT / "benchmark" / "worker.py"), json.dumps(spec)]
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=_worker_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=_limit_memory,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired as err:
        _stop(proc)
        raise WorkerFailed(f"{workload} worker ran past the run budget") from err
    except BaseException:
        _stop(proc)
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-3:]
        raise WorkerFailed(f"{workload} worker exited {proc.returncode}: {' | '.join(tail)}")
    return json.loads(lines[-1])


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _source_digest() -> str:
    """Hash of the package sources, which identifies the code measured
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ternring").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:12]


def _environment(report: dict) -> str:
    v = report["versions"]
    return (
        f"env: python {v['python']} numpy {v['numpy']} nproc {os.cpu_count()} "
        f"machine {platform.machine()} commit {_commit()} source {_source_digest()}"
    )


def _outcome_lines(passes) -> list[str]:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    lines = [f"checks: {attempted - failed}/{attempted} outputs pass, "
             f"fail_ratio {stats.fail_ratio(failed, attempted):.4f}"]
    lines += [f"  FAILED {msg}" for p in passes for msg in p["failures"][:5]]
    probes = sum(p["contract_probes"] for p in passes)
    if probes:
        violations = [msg for p in passes for msg in p["contract_violations"]]
        lines.append(
            f"usage contract: {len(violations)}/{probes} malformed-input commands "
            "do not end as usage exit 2 without a traceback"
        )
        lines += [f"  VIOLATION {msg}" for msg in sorted(set(violations))]
    return lines


def measure(workload: str, seed: int, seconds: int, start: float) -> tuple[dict, list[str], list]:
    """End-to-end metrics: repeat the job in fresh workers for the given
    time, then sample setup until MIN_SETUPS samples exist."""
    deadline = start + RUN_BUDGET_S
    passes = [run_worker(workload, seed, False, False, deadline)]
    # Start another pass only if at least half of it fits in the time.
    while True:
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(passes) / 2 > seconds:
            break
        passes.append(run_worker(workload, seed, False, False, deadline))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(run_worker(workload, seed, False, True, deadline)["setup_s"])

    latencies = [x for p in passes for x in p["latencies"]]
    metrics = {
        "wall_s": (stats.median(p["wall_s"] for p in passes), "s"),
        "op_p50_ms": (1000 * stats.median(latencies), "ms"),
        "setup_s": (stats.median(setups), "s"),
        "peak_rss_mb": (stats.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    p90 = stats.reportable_percentile(latencies, 0.9)
    lines = [
        f"workload {workload} seed {seed}: {len(passes)} passes, "
        f"{len(latencies)} operations, {len(setups)} setup samples",
        _environment(passes[0]),
        *_outcome_lines(passes),
        "op_p90_ms " + (
            f"{1000 * p90:.3f} ms ({len(latencies)} samples)" if p90 is not None
            else f"n/a ({len(latencies)} samples, fewer than "
            f"{stats.MIN_BEYOND} beyond the 90th percentile)"
        ),
    ]
    return metrics, lines, passes


def trace(workload: str, seed: int, start: float) -> tuple[dict, list[str], list, bool]:
    """Per-layer metrics from one traced worker, compared with one
    untraced worker on the same seed."""
    deadline = start + RUN_BUDGET_S
    shutil.rmtree(SPANS_DIR, ignore_errors=True)
    SPANS_DIR.mkdir(parents=True)
    plain = run_worker(workload, seed, False, False, deadline)
    traced = run_worker(workload, seed, True, False, deadline)
    same = plain["digest"] == traced["digest"]

    metrics = {k: (v, _unit(k)) for k, v in tracing.layer_metrics(traced["layers"]).items()}
    for key in ("interpreter_s", "import_numpy_s", "import_ternring_s"):
        metrics[f"cli.{key}"] = (traced[key], "s")
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"], "ratio")

    zero = sorted(
        name for name, where in COVERAGE.items() if workload in where and not metrics[name][0]
    )
    lines = [
        f"workload {workload} seed {seed}: traced run, spans in {SPANS_DIR.relative_to(ROOT)}",
        _environment(plain),
        *_outcome_lines([plain, traced]),
        "traced outputs " + ("equal" if same else "DIFFER FROM") + " untraced outputs",
        "tracer coverage: " + (", ".join(zero) + " read zero" if zero else "every expected layer recorded"),
    ]
    return metrics, lines, [plain, traced], same


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", ".yield")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    workloads.exit_on_sigterm()

    if not (ROOT / "src" / "ternring" / "__init__.py").is_file():
        print(f"error: no ternring sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Byte-compile outside any measured process, so that imports read
    # cached bytecode, as from an installed package, even where
    # PYTHONDONTWRITEBYTECODE keeps the interpreter from writing it.
    for directory in (ROOT / "src" / "ternring", ROOT / "benchmark"):
        compileall.compile_dir(directory, quiet=1)
    try:
        if args.trace:
            metrics, lines, passes, same = trace(args.workload, args.seed, start)
        else:
            metrics, lines, passes = measure(args.workload, args.seed, args.seconds, start)
            same = True
    except WorkerFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    result = {
        "correct": failed == 0 and same,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
