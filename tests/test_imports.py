"""numpy is imported on first use: the package and the commands that
build no array run in a process where numpy cannot be imported, with the
same exit codes and stdout as where it can."""

import json
import os
import subprocess
import sys
from pathlib import Path

import ternring

SRC = str(Path(ternring.__file__).resolve().parents[1])

# Each command's exit code and stdout, printed as one JSON list; with the
# argument "block", a meta path finder first refuses every numpy module.
SCRIPT = r"""
import contextlib, io, json, sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} is blocked")

if sys.argv[1:] == ["block"]:
    sys.meta_path.insert(0, Refuse())

import ternring
import ternring.cli

COMMANDS = [
    ["factor", "--n", "12", "--sign", "pos"],
    ["factor", "--n", "6", "--sign", "pos"],
    ["factor", "--n", "200", "--sign", "neg"],
    ["constacyclic", "classify", "--lambda", "1+v^2"],
    ["constacyclic", "classify", "--lambda", "v"],
    ["skew", "gcld", "--s", "2", "--lambda", "1", "x+1", "x^2+2"],
    ["skew", "gcld", "--s", "2", "--lambda", "1", "x+1", "x+1+v^2"],
    ["skew", "count", "--n", "9"],
    ["skew", "code", "--n", "6", "--f", "x+2"],
    ["skew", "code", "--n", "5", "--f", "x+1"],
    ["code", "check-dc", "--n", "8", "--sign", "pos",
     "--f1", "x^2+1", "--f2", "x+1", "--f3", "1"],
    ["factor", "--n", "0", "--sign", "pos"],
]
results = []
for argv in COMMANDS:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = ternring.cli.main(["--json", *argv])
        except SystemExit as stop:
            code = stop.code
    results.append([code, out.getvalue()])
results.append("numpy" in sys.modules)
print(json.dumps(results))
"""


def _run(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_commands_without_arrays_run_where_numpy_cannot_be_imported():
    blocked, free = _run("block"), _run()
    assert blocked == free
    *results, loaded = free
    assert not loaded
    assert [code for code, _ in results] == [0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 2]
    assert all(out for code, out in results if code != 2)


def test_importing_the_cli_leaves_numpy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import ternring.cli, sys; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_first_array_loads_numpy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ternring\n"
         "assert 'numpy' not in sys.modules\n"
         "w = ternring.gray_vector([ternring.ONE])\n"
         "print('numpy' in sys.modules, w.tolist())"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True [1, 1, 1]\n"
