"""numpy is imported on first use: the package and the commands that
build no array, distances of small codes among them, run in a process
where numpy cannot be imported, with the same exit codes and stdout as
where it can."""

import json
import os
import subprocess
import sys
from pathlib import Path

import ternring

SRC = str(Path(ternring.__file__).resolve().parents[1])

# With the argument "block", a meta path finder refuses every numpy module.
BLOCK = r"""
import sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} is blocked")

if sys.argv[1:] == ["block"]:
    sys.meta_path.insert(0, Refuse())
"""

# Each command's exit code and stdout, printed as one JSON list.
SCRIPT = BLOCK + r"""
import contextlib, io, json

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
    # distances whose every level is below the level kernel's crossover
    ["code", "build", "--n", "3", "--sign", "neg",
     "--f1", "x+1", "--f2", "x^2+2x+1", "--f3", "x+1"],
    ["code", "dual", "--n", "10", "--sign", "neg",
     "--f1", "x^2+1", "--f2", "x^4+x^3+2x+1", "--f3", "x^4+2x^3+x+1"],
    ["code", "distance", "--n", "6", "--sign", "pos",
     "--f1", "x^2+2", "--f2", "x^2+2", "--f3", "2x^2+1"],
    ["code", "distance", "--n", "11", "--sign", "pos",
     "--f1", "x^5+2x^3+x^2+2x+2", "--f2", "1", "--f3", "x+2"],
    ["constacyclic", "transport", "--n", "3", "--lambda", "2",
     "--f1", "x+2", "--f2", "x+2", "--f3", "x+2"],
    ["quantum", "params", "--n", "6", "--sign", "pos",
     "--f1", "x^2+2", "--f2", "x^2+2", "--f3", "2x^2+1"],
    ["quantum", "params", "--n", "12", "--sign", "neg",
     "--f1", "x^2+x+2", "--f2", "2x^2+x+1", "--f3", "x^2+2x+2"],
    ["quantum", "verify-paper"],
    ["selftest", "paper"],
    # the right-divisor sieve runs on Python-int planes
    ["skew", "divisors", "--s", "1", "--lambda", "1"],
    ["skew", "divisors", "--s", "2", "--lambda", "1"],
    ["skew", "divisors", "--s", "4", "--lambda", "1"],
    ["skew", "divisors", "--s", "1", "--lambda", "1+v^2"],
    ["skew", "divisors", "--s", "2", "--lambda", "1+v^2"],
    ["skew", "divisors", "--s", "4", "--lambda", "1+v^2"],
    # the scan orders its rows in one pass over (K, d) runs
    ["quantum", "scan", "--n", "12", "--sign", "neg"],
    ["quantum", "scan", "--n", "9", "--sign", "pos", "--limit", "5"],
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


# Answers that GrayModule, RCode, TernaryPolyCode and the skew check read
# off masks and generators, printed as one JSON list; GrayModule's dual
# and Lee distance among them.
MASK_CALLS = BLOCK + r"""
import json

from ternring.poly import parse_poly
from ternring.rcodes import GrayModule, RCode
from ternring.ring import ONE, V, ZERO
from ternring.skew import odd_equivalence_check, parse_skew_poly, skew_cyclic_code
from ternring.ternary import TernaryPolyCode

P = parse_poly
code = RCode.cyclic(6, [P("x^2+2"), P("x^4+x^2+1"), P("1")])
word = code.combined_generator()
module = GrayModule.from_rvectors([(V, ONE), (ONE, ZERO)])
subspace = GrayModule._from_masks([0b111], [0], 1)
repetition = GrayModule.from_rvectors([(ONE, ONE, ONE)])
results = [
    code.membership(word + (ZERO,) * (6 - len(word))),
    code.membership((ONE,) + (ZERO,) * 5),
    RCode.cyclic(3, [P("x^3+2"), P("x^2+x+1"), P("x^3+2")]).is_self_orthogonal(),
    RCode.cyclic(3, [P("x+2")] * 3).is_self_orthogonal(),
    module.block_ranks,
    module.is_v_closed(),
    subspace.block_ranks,
    subspace.is_v_closed(),
    odd_equivalence_check(skew_cyclic_code(parse_skew_poly("x+2"), 5)),
    odd_equivalence_check(skew_cyclic_code(parse_skew_poly("x+2+v+v^2"), 4)),
    TernaryPolyCode(6, code.sign, P("x^2+2")).membership([2, 0, 1, 0, 0, 0]),
    TernaryPolyCode(6, code.sign, P("x^2+2")).membership([1, 0, 0, 0, 0, 0]),
    sum(1 for _ in RCode.cyclic(3, [P("x+2"), P("1"), P("x^3+2")]).codewords()),
    module.dual().rank,
    GrayModule._from_masks([], [], 2).dual().rank,
    repetition.rank,
    repetition.lee_distance(),
    repetition.dual().rank,
    repetition.dual().lee_distance(),
    repetition.dual().contains((ONE, 2 * ONE, ZERO)),
    repetition.dual().contains((ONE, ZERO, ZERO)),
]
results.append("numpy" in sys.modules)
print(json.dumps(results))
"""


def _run(*argv, script=SCRIPT):
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
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
    assert [code for code, _ in results] == [0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 2] + [0] * 17
    assert all(out for code, out in results if code != 2)


def test_mask_answers_run_where_numpy_cannot_be_imported():
    blocked, free = _run("block", script=MASK_CALLS), _run(script=MASK_CALLS)
    assert blocked == free
    *results, loaded = free
    assert not loaded
    assert results == [
        True, False, True, False, [2, 2, 2], True, [1, 1, 1], False, True, False,
        True, False, 3**5, 0, 6, 3, 3, 6, 2, True, False,
    ]


def test_distance_past_the_crossover_loads_numpy():
    # a [40, 20, 11] code: its level 2 alone is 380 words, above
    # _NUMPY_LEVEL_WORDS, so that level is packed for numpy
    g = "x^20+x^19+x^18+2x^16+2x^13+x^12+x^11+2x^10+x^7+x^6+2x^5+2x^4+x^2+2x+1"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ternring.cli\n"
         "code = ternring.cli.main(sys.argv[1:])\n"
         "print(code, 'numpy' in sys.modules)",
         "code", "distance", "--n", "40", "--sign", "pos",
         "--f1", g, "--f2", g, "--f3", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "d_lee = 1 components = [11, 11, 1]\n0 True\n"


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


def test_importing_the_cli_leaves_dataclasses_unloaded():
    # dataclasses imports inspect, about 12 ms of every CLI process
    proc = subprocess.run(
        [sys.executable, "-c",
         "import ternring.cli, sys; print('dataclasses' in sys.modules)"],
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
