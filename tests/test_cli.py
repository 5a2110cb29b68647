"""Tests for the command line front end: goldens per subcommand, exit
codes, JSON payloads, and byte-level determinism."""

import contextlib
import gc
import hashlib
import inspect
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ternring
from ternring import cli, rcodes, ring, ternary
from ternring.cli import SELFTEST_EXPECTED_FLAGS, main
from ternring.poly import ModulusSign
from ternring.quantum import (
    EXPECTED_FLAGS,
    REFERENCE_TABLE,
    ReferenceRow,
    verify_reference_table,
)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, err = run_cli("--json", *argv)
    return code, json.loads(out), err


def run_module(*argv, python_flags=(), address_space=None):
    """Run the CLI in a fresh interpreter on this checkout's package, with
    its address space limited to the given bytes, if any."""
    src = str(Path(ternring.__file__).resolve().parents[1])

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, *python_flags, "-m", "ternring.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=limit if address_space else None,
    )


# Literal text renderings of every leaf command (the README list plus
# ``code gray``); the JSON tests below pin payloads, these pin the lines.
GENS_6 = ("--n", "6", "--sign", "pos", "--f1", "x^2+2", "--f2", "x^2+2",
          "--f3", "2x^2+1")
TEXT_GOLDENS = {
    ("factor", "--n", "10", "--sign", "neg"): [
        "x^10+1 = (x^2+1)(x^4+x^3+2x+1)(x^4+2x^3+x+1)",
    ],
    ("code", "build", "--n", "3", "--sign", "neg",
     "--f1", "x+1", "--f2", "x^2+2x+1", "--f3", "x+1"): [
        "n=3 kind=negacyclic lam=2",
        "f = (x+1, x^2+2x+1, x+1)",
        "k = (2, 1, 2)  |C| = 3^5  d_lee = 2",
    ],
    ("code", "dual", "--n", "10", "--sign", "neg",
     "--f1", "x^2+1", "--f2", "x^4+x^3+2x+1", "--f3", "x^4+2x^3+x+1"): [
        "n=10 kind=negacyclic lam=2",
        "f = (x^8+2x^6+x^4+2x^2+1, x^6+x^5+x^4+x^2+2x+1, x^6+2x^5+x^4+x^2+x+1)",
        "k = (2, 4, 4)  |C| = 3^10  d_lee = 5",
        "combined generator = (1+2v^2)x^8+(2+2v^2)x^6+vx^5+x^4+(2+2v^2)x^2+2vx+1",
    ],
    ("code", "gray", *GENS_6): [
        "201000000000000000",
        "020100000000000000",
        "002010000000000000",
        "000201000000000000",
        "000000201000000000",
        "000000020100000000",
        "000000002010000000",
        "000000000201000000",
        "000000000000201000",
        "000000000000020100",
        "000000000000002010",
        "000000000000000201",
    ],
    ("code", "distance", *GENS_6): [
        "d_lee = 2 components = [2, 2, 2]",
    ],
    ("code", "check-dc", "--n", "8", "--sign", "pos",
     "--f1", "x^2+1", "--f2", "x^2+1", "--f3", "x^2+1"): [
        "NOT dual-containing; failing components: 1, 2, 3",
    ],
    ("constacyclic", "classify", "--lambda", "1+v^2"): [
        "lam=1+v^2: cyclic, negacyclic, negacyclic",
    ],
    ("constacyclic", "transport", "--n", "3", "--lambda", "2",
     "--f1", "x+2", "--f2", "x+2", "--f3", "x+2"): [
        "source:",
        "  n=3 kind=cyclic lam=1",
        "  f = (x+2, x+2, x+2)",
        "  k = (2, 2, 2)  |C| = 3^6  d_lee = 2",
        "target (lam=2):",
        "  n=3 kind=constacyclic lam=2",
        "  f = (x+1, x+1, x+1)",
        "  k = (2, 2, 2)  |C| = 3^6  d_lee = 2",
    ],
    ("skew", "count", "--n", "3"): [
        "count(3) = 64",
    ],
    ("skew", "divisors", "--s", "2", "--lambda", "1"): [
        "6 monic right divisors:",
        "1",
        "x+1",
        "x+2",
        "x+1+v^2",
        "x+2+2v^2",
        "x^2+2",
    ],
    ("skew", "gcld", "--s", "2", "--lambda", "1", "x+1", "x^2+2"): [
        "gcld = x+1",
    ],
    ("skew", "code", "--n", "12", "--f", "x^3+x^2+x+1"): [
        "f = x^3+x^2+x+1  rank = 9  gray dimension = 27",
    ],
    ("quantum", "params", *GENS_6): [
        "[[18,6,2]]  f = (x^2+2, x^2+2, x^2+2)",
    ],
    ("quantum", "scan", "--n", "4", "--sign", "neg"): [
        "[[12,12,1]]  f = (1, 1, 1)",
        "[[12,8,1]]  f = (1, 1, x^2+2x+2)",
        "[[12,8,1]]  f = (1, 1, x^2+x+2)",
        "[[12,4,1]]  f = (1, x^2+2x+2, x^2+2x+2)",
        "[[12,4,1]]  f = (1, x^2+x+2, x^2+2x+2)",
        "[[12,4,1]]  f = (1, x^2+x+2, x^2+x+2)",
        "[[12,0,3]]  f = (x^2+2x+2, x^2+2x+2, x^2+2x+2)",
        "[[12,0,3]]  f = (x^2+x+2, x^2+2x+2, x^2+2x+2)",
        "[[12,0,3]]  f = (x^2+x+2, x^2+x+2, x^2+2x+2)",
        "[[12,0,3]]  f = (x^2+x+2, x^2+x+2, x^2+x+2)",
    ],
    ("quantum", "verify-paper"): [
        "ok   [[18,6,2]]               [[18,6,2]]",
        "ok   [[36,18,2]]              [[36,18,2]]",
        "ok   [[81,45,2]]              [[81,45,2]]",
        "ok   [[90,66,2]]              [[90,66,2]]",
        "ok   [[9,3,2]]                [[9,3,2]]",
        "ok   [[30,6,4]]               [[30,6,4]]",
        "ok   [[36,24,2]]              [[36,24,2]]",
        "flag [[24,12,2]] (claimed)    components 1, 2, 3 do not contain "
        "their dual: f * reciprocal(f) does not divide the modulus, so the "
        "CSS construction does not apply",
        "7 constructions reproduced, 1 flagged (expected)",
    ],
    ("selftest", "paper"): [
        "ok   quantum [[18,6,2]]           [[18,6,2]]",
        "ok   quantum [[36,18,2]]          [[36,18,2]]",
        "ok   quantum [[81,45,2]]          [[81,45,2]]",
        "ok   quantum [[90,66,2]]          [[90,66,2]]",
        "ok   quantum [[9,3,2]]            [[9,3,2]]",
        "ok   quantum [[30,6,4]]           [[30,6,4]]",
        "ok   quantum [[36,24,2]]          [[36,24,2]]",
        "flag quantum [[24,12,2]] (claimed) components 1, 2, 3 do not "
        "contain their dual: f * reciprocal(f) does not divide the modulus, "
        "so the CSS construction does not apply",
        "ok   cardinality-length-3         |C| = 3^5",
        "ok   cardinality-length-10        |C| = 3^20, dual generator "
        "(1+2v^2)x^8+(2+2v^2)x^6+vx^5+x^4+(2+2v^2)x^2+2vx+1",
        "ok   gray-isometry                0 failures in 200 trials",
        "ok   cyclic-diagram               0 failures in 200 trials",
        "ok   section-diagram              0 failures in 200 trials",
        "ok   twisted-diagram              0 failures in 200 trials",
        "ok   constacyclic-diagram         0 failures in 200 trials",
        "flag factor-display-n6            canonical factorization of x^6-1 "
        "is (x+1)^3 (x+2)^3; a published three-quadratic display does not "
        "multiply back to x^6-1",
        "flag skew-count-n12               the count formula needs odd "
        "length and the canonical factorization; on n=12 it gives 262144 "
        "(= 4^9), whereas a published count built on a coarser, "
        "non-irreducible factorization gives 4^6",
        "flag quantum-logical-exponent     logical dimension exponent "
        "implemented as 2(k1+k2+k3)-3n, which reproduces every reference "
        "row; a published formula weights the components 3:2:1",
        "14 checks passed, 4 expected flags, 0 failures",
    ],
}


@pytest.mark.parametrize(
    "argv", list(TEXT_GOLDENS), ids=lambda a: " ".join(w for w in a[:2] if w[0] != "-")
)
def test_text_golden(argv):
    stdout = "".join(f"{line}\n" for line in TEXT_GOLDENS[argv])
    assert run_cli(*argv) == (0, stdout, "")


class TestFactor:
    def test_three_factor_golden(self):
        code, doc, _ = run_json("factor", "--n", "10", "--sign", "neg")
        assert code == 0
        assert doc["status"] == "ok"
        assert doc["payload"]["factors"] == [
            ["x^2+1", 1],
            ["x^4+x^3+2x+1", 1],
            ["x^4+2x^3+x+1", 1],
        ]

    def test_trivial(self):
        code, doc, _ = run_json("factor", "--n", "1", "--sign", "pos")
        assert code == 0
        assert doc["payload"]["display"] == "(x+2)"

    def test_flagged_display(self):
        code, doc, _ = run_json("factor", "--n", "6", "--sign", "pos")
        assert code == 0
        assert doc["status"] == "flag"
        assert doc["payload"]["display"] == "(x+1)^3(x+2)^3"
        assert "canonical" in doc["notes"][0]


class TestCode:
    def test_build_cardinality(self):
        code, doc, _ = run_json(
            "code", "build", "--n", "3", "--sign", "neg",
            "--f1", "x+1", "--f2", "x^2+2x+1", "--f3", "x+1",
        )
        assert code == 0
        assert doc["payload"]["cardinality_log3"] == 5
        assert doc["payload"]["k"] == [2, 1, 2]
        assert doc["payload"]["d_lee"] == 2

    def test_dual_combined_generator(self):
        code, doc, _ = run_json(
            "code", "dual", "--n", "10", "--sign", "neg",
            "--f1", "x^2+1", "--f2", "x^4+x^3+2x+1", "--f3", "x^4+2x^3+x+1",
        )
        assert code == 0
        assert doc["payload"]["combined_generator"] == (
            "(1+2v^2)x^8+(2+2v^2)x^6+vx^5+x^4+(2+2v^2)x^2+2vx+1"
        )

    def test_distance(self):
        code, doc, _ = run_json(
            "code", "distance", "--n", "6", "--sign", "pos",
            "--f1", "x^2+2", "--f2", "x^2+2", "--f3", "2x^2+1",
        )
        assert code == 0
        assert doc["payload"] == {"d_lee": 2, "components": [2, 2, 2]}

    def test_distance_searches_each_component_once(self, monkeypatch):
        calls = []
        search = ternary.TernaryPolyCode.min_distance

        def spy(self):
            calls.append(self.g)
            return search(self)

        monkeypatch.setattr(ternary.TernaryPolyCode, "min_distance", spy)
        # the middle component, generated by the modulus, is zero
        code, doc, _ = run_json(
            "code", "distance", "--n", "6", "--sign", "pos",
            "--f1", "x^2+2", "--f2", "x^6+2", "--f3", "2x^2+1",
        )
        assert code == 0
        assert doc["payload"] == {"d_lee": 2, "components": [2, None, 2]}
        assert [str(g) for g in calls] == ["x^2+2", "x^2+2"]
        calls.clear()
        code, doc, _ = run_json(
            "code", "distance", "--n", "3", "--sign", "pos",
            "--f1", "x^3+2", "--f2", "x^3+2", "--f3", "x^3+2",
        )
        assert code == 0
        assert doc["payload"] == {"d_lee": None, "components": [None, None, None]}
        assert not calls

    def test_gray_rows(self):
        code, doc, _ = run_json(
            "code", "gray", "--n", "6", "--sign", "pos",
            "--f1", "x^2+2", "--f2", "x^2+2", "--f3", "2x^2+1",
        )
        assert code == 0
        rows = doc["payload"]["rows"]
        assert len(rows) == 12
        assert all(len(r) == 18 and set(r) <= set("012") for r in rows)

    def test_check_dc(self):
        code, doc, _ = run_json(
            "code", "check-dc", "--n", "8", "--sign", "pos",
            "--f1", "x^2+1", "--f2", "x^2+1", "--f3", "x^2+1",
        )
        assert code == 0
        assert doc["payload"] == {"dual_containing": False, "failing": [1, 2, 3]}
        code, doc, _ = run_json(
            "code", "check-dc", "--n", "6", "--sign", "pos",
            "--f1", "x^2+2", "--f2", "x^2+2", "--f3", "x^2+2",
        )
        assert doc["payload"] == {"dual_containing": True, "failing": []}

    def test_domain_error_exit_one(self):
        code, out, err = run_cli(
            "code", "build", "--n", "3", "--sign", "pos",
            "--f1", "x+1", "--f2", "1", "--f3", "1",
        )
        assert code == 1
        assert "NotADivisor" in err


class TestConstacyclic:
    def test_classify(self):
        code, doc, _ = run_json("constacyclic", "classify", "--lambda", "2")
        assert code == 0
        assert doc["payload"]["components"] == [
            "negacyclic", "negacyclic", "negacyclic",
        ]
        code, doc, _ = run_json("constacyclic", "classify", "--lambda", "1+v^2")
        assert doc["payload"]["components"] == [
            "cyclic", "negacyclic", "negacyclic",
        ]

    def test_transport(self):
        code, doc, _ = run_json(
            "constacyclic", "transport", "--n", "3", "--lambda", "2",
            "--f1", "x+2", "--f2", "x+2", "--f3", "x+2",
        )
        assert code == 0
        assert doc["payload"]["target"]["kind"] == "constacyclic"
        assert doc["payload"]["target"]["f"] == ["x+1", "x+1", "x+1"]
        assert doc["payload"]["target"]["d_lee"] == doc["payload"]["source"]["d_lee"]

    def test_non_unit_rejected(self):
        code, doc, _ = run_json("constacyclic", "classify", "--lambda", "v")
        assert code == 1
        assert doc["error"] == "NotAUnit"


class TestSkew:
    def test_count(self):
        code, doc, _ = run_json("skew", "count", "--n", "3")
        assert code == 0 and doc["payload"]["count"] == 64

    def test_count_even_rejected(self):
        code, doc, _ = run_json("skew", "count", "--n", "12")
        assert code == 1 and doc["error"] == "EvenLength"

    def test_divisors(self):
        code, doc, _ = run_json("skew", "divisors", "--s", "2", "--lambda", "1")
        assert code == 0
        assert doc["payload"]["divisors"] == [
            "1", "x+1", "x+2", "x+1+v^2", "x+2+2v^2", "x^2+2",
        ]

    def test_gcld(self):
        code, doc, _ = run_json(
            "skew", "gcld", "--s", "2", "--lambda", "1", "x+1", "x^2+2"
        )
        assert code == 0 and doc["payload"]["gcld"] == "x+1"

    def test_gcld_chain_failure(self):
        code, doc, _ = run_json(
            "skew", "gcld", "--s", "2", "--lambda", "1", "x+1", "x+1+v^2"
        )
        assert code == 1
        assert doc["error"] == "NonUnitLeadingCoefficient"

    def test_code(self):
        code, doc, _ = run_json(
            "skew", "code", "--n", "12", "--f", "x^3+x^2+x+1"
        )
        assert code == 0
        assert doc["payload"]["rank"] == 9
        assert doc["payload"]["gray_dimension"] == 27


class TestQuantum:
    def test_params(self):
        code, doc, _ = run_json(
            "quantum", "params", "--n", "6", "--sign", "pos",
            "--f1", "x^2+2", "--f2", "x^2+2", "--f3", "2x^2+1",
        )
        assert code == 0
        p = doc["payload"]
        assert (p["N"], p["K"], p["d"]) == (18, 6, 2)
        assert p["dual_containing"] is True
        assert p["k"] == [4, 4, 4]

    def test_params_rejects_non_containing(self):
        code, doc, _ = run_json(
            "quantum", "params", "--n", "8", "--sign", "pos",
            "--f1", "x^2+1", "--f2", "x^2+1", "--f3", "x^2+1",
        )
        assert code == 1
        assert doc["error"] == "NotDualContaining"

    def test_scan(self):
        code, doc, _ = run_json("quantum", "scan", "--n", "3", "--sign", "neg")
        assert code == 0
        rows = doc["payload"]["rows"]
        assert {"f": ["x+1", "x+1", "x+1"], "N": 9, "K": 3, "d": 2} in rows
        ks = [r["K"] for r in rows]
        assert ks == sorted(ks, reverse=True)
        code, doc, _ = run_json(
            "quantum", "scan", "--n", "3", "--sign", "neg", "--limit", "2"
        )
        assert len(doc["payload"]["rows"]) == 2

    def test_scan_restores_collector_state(self):
        # the payload is built with the collector paused, and the caller's
        # setting survives the command either way
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            try:
                code, out, _ = run_cli("quantum", "scan", "--n", "6", "--sign", "pos")
                assert code == 0 and out.startswith("[[18,")
                assert gc.isenabled() is enabled
            finally:
                gc.enable()

    def test_verify_reference(self):
        code, doc, _ = run_json("quantum", "verify-paper")
        assert code == 0
        assert doc["status"] == "flag"
        statuses = [row["status"] for row in doc["payload"]]
        assert statuses == ["ok"] * 7 + ["flag"]
        derived = [tuple(row["derived"]) for row in doc["payload"][:7]]
        assert derived == [
            (18, 6, 2), (36, 18, 2), (81, 45, 2), (90, 66, 2),
            (9, 3, 2), (30, 6, 4), (36, 24, 2),
        ]

    def test_failing_row_outranks_flag(self, monkeypatch):
        # the flagged n = 8 row comes last and must not hide a failure
        def failing_first():
            first, *rest = verify_reference_table()
            failed = ReferenceRow(
                first.label, first.n, first.sign, first.generators, first.expected,
                first.params, "fail", first.flag_id, first.notes,
            )
            return [failed, *rest]

        monkeypatch.setattr("ternring.cli.verify_reference_table", failing_first)
        code, doc, _ = run_json("quantum", "verify-paper")
        assert code == 1
        assert doc["status"] == "error"
        code, doc, _ = run_json("selftest", "paper")
        assert code == 1
        assert doc["status"] == "error"


class TestSelftest:
    def test_clean_run(self):
        code, out, _ = run_cli("selftest", "paper")
        assert code == 0
        assert "0 failures" in out
        code, doc, _ = run_json("selftest", "paper")
        flags = [i["flag"] for i in doc["payload"] if i["status"] == "flag"]
        assert sorted(flags) == sorted(SELFTEST_EXPECTED_FLAGS)
        assert all(i["status"] in ("ok", "flag") for i in doc["payload"])

    def test_byte_identical_runs(self):
        a = run_cli("selftest", "paper")
        b = run_cli("selftest", "paper")
        assert a == b
        a = run_cli("--json", "quantum", "verify-paper")
        b = run_cli("--json", "quantum", "verify-paper")
        assert a == b

    def test_same_json_under_optimize_flag(self):
        # -O strips assert statements; no self-check may depend on one
        plain = run_module("--json", "selftest", "paper")
        optimized = run_module("--json", "selftest", "paper", python_flags=("-O",))
        assert plain.returncode == optimized.returncode == 0
        assert json.loads(plain.stdout)["status"] == "flag"
        assert optimized.stdout == plain.stdout

    def test_seed_changes_trials_not_outcome(self):
        code, out, _ = run_cli("--seed", "99", "selftest", "paper")
        assert code == 0
        assert "0 failures" in out


# The fields of every row of verify_reference_table(): label, n, sign,
# canonical generators, expected, derived parameters, status, flag id
# and notes.
REFERENCE_ROWS = [
    ("[[18,6,2]]", 6, ModulusSign.PLUS, ("x^2+2", "x^2+2", "x^2+2"),
     (18, 6, 2), (18, 6, 2), "ok", None, ()),
    ("[[36,18,2]]", 12, ModulusSign.PLUS, ("x^3+x^2+x+1",) * 3,
     (36, 18, 2), (36, 18, 2), "ok", None, ()),
    ("[[81,45,2]]", 27, ModulusSign.PLUS, ("x^6+x^3+1",) * 3,
     (81, 45, 2), (81, 45, 2), "ok", None, ()),
    ("[[90,66,2]]", 30, ModulusSign.PLUS,
     ("x^4+x^3+x^2+x+1", "x^4+2x^3+x^2+2x+1", "x^4+x^3+x^2+x+1"),
     (90, 66, 2), (90, 66, 2), "ok", None, ()),
    ("[[9,3,2]]", 3, ModulusSign.MINUS, ("x+1",) * 3,
     (9, 3, 2), (9, 3, 2), "ok", None, ()),
    ("[[30,6,4]]", 10, ModulusSign.MINUS,
     ("x^4+x^3+2x+1", "x^4+2x^3+x+1", "x^4+2x^3+x+1"),
     (30, 6, 4), (30, 6, 4), "ok", None, ()),
    ("[[36,24,2]]", 12, ModulusSign.MINUS, ("x^2+x+2", "x^2+2x+2", "x^2+2x+2"),
     (36, 24, 2), (36, 24, 2), "ok", None, ()),
    ("[[24,12,2]] (claimed)", 8, ModulusSign.PLUS, ("x^2+1",) * 3,
     None, None, "flag", "cyclic-n8-dual-containment",
     ("components 1, 2, 3 do not contain their dual: f * reciprocal(f) "
      "does not divide the modulus, so the CSS construction does not apply",)),
]

# sha256 of the arguments of every _gray_masks and gray_shift call made
# by ``selftest paper`` at seeds 0 and 99, in call order; taken when each
# shift family drew its own inputs, so the suite table must read the rng
# in that order
DRAWS_DIGESTS = {
    0: "b6df46cc2efcd0eae1332bdcc46f84a6b6cef758b6793d190aabd31bebef8064",
    99: "7d05ddc56489ab77750854f9cd6b771af536c6c0041c863ca21adf4ba86b495c",
}

GRAY_SHIFT = inspect.signature(rcodes.gray_shift)


class TestPaperChecks:
    def _failing_items(self):
        code, doc, _ = run_json("selftest", "paper")
        failing = [i["name"] for i in doc["payload"] if i["status"] == "fail"]
        return code, failing, doc

    @pytest.mark.parametrize("seed", sorted(DRAWS_DIGESTS))
    def test_draws_are_pinned(self, monkeypatch, seed):
        # element indices for vectors; n, lam, l and twist for the maps,
        # read with gray_shift's keyword defaults, so the record is the
        # rng's order of draws and not the spelling of the calls
        record = []

        def masks(vec):
            record.append(("masks", tuple(e.index for e in vec)))
            return rcodes._gray_masks(vec)

        def shift(*args, **kwargs):
            bound = GRAY_SHIFT.bind(*args, **kwargs)
            bound.apply_defaults()
            n, lam, l, twist = bound.args
            record.append(("shift", n, ring._element(lam).index, l, bool(twist)))
            return rcodes.gray_shift(*args, **kwargs)

        monkeypatch.setattr(cli, "_gray_masks", masks)
        monkeypatch.setattr(cli, "gray_shift", shift)
        code, out, _ = run_cli("--seed", str(seed), "selftest", "paper")
        assert code == 0 and "0 failures" in out
        assert len(record) == 200 + 4 * 3 * 200
        digest = hashlib.sha256(repr(record).encode()).hexdigest()
        assert digest == DRAWS_DIGESTS[seed]

    @pytest.mark.parametrize(
        "function, suite",
        [
            ("cyclic_shift", "cyclic-diagram"),
            ("section_shift", "section-diagram"),
            ("skew_cyclic_shift", "twisted-diagram"),
            ("constacyclic_shift", "constacyclic-diagram"),
        ],
    )
    def test_a_wrong_shift_fails_only_its_suite(self, monkeypatch, function, suite):
        monkeypatch.setattr(cli, function, lambda vec, *rest: tuple(vec))
        code, failing, _ = self._failing_items()
        assert code == 1
        assert failing == [suite]

    def test_reference_rows_are_pinned(self):
        rows = [
            (row.label, row.n, row.sign, row.generators, row.expected,
             row.params.as_tuple() if row.params else None, row.status,
             row.flag_id, row.notes)
            for row in verify_reference_table()
        ]
        assert rows == REFERENCE_ROWS

    def test_expected_flags_are_the_table_column(self):
        column = tuple(flag for *_, flag in REFERENCE_TABLE if flag is not None)
        assert EXPECTED_FLAGS == column
        assert set(SELFTEST_EXPECTED_FLAGS) == {*cli.DOCUMENTED_FLAGS, *column}

    def test_wrong_dual_generator_fails_only_its_length(self, monkeypatch):
        checks = [
            (n, texts, log3, "x+1" if dual else dual)
            for n, texts, log3, dual in cli.CARDINALITY_CHECKS
        ]
        monkeypatch.setattr(cli, "CARDINALITY_CHECKS", checks)
        code, failing, doc = self._failing_items()
        assert code == 1
        assert doc["status"] == "error"
        assert failing == ["cardinality-length-10"]
        (item,) = [i for i in doc["payload"] if i["name"] in failing]
        assert item["detail"] == (
            "|C| = 3^20, dual generator "
            "(1+2v^2)x^8+(2+2v^2)x^6+vx^5+x^4+(2+2v^2)x^2+2vx+1"
        )

    def test_wrong_cardinality_fails_only_its_length(self, monkeypatch):
        checks = [
            (n, texts, log3 + (n == 3), dual)
            for n, texts, log3, dual in cli.CARDINALITY_CHECKS
        ]
        monkeypatch.setattr(cli, "CARDINALITY_CHECKS", checks)
        code, failing, _ = self._failing_items()
        assert code == 1
        assert failing == ["cardinality-length-3"]


HUGE = str(10**9)
ONES = ("--f1", "1", "--f2", "1", "--f3", "1")


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            run_cli("no-such-command")
        assert err.value.code == 2

    def test_missing_required(self):
        with pytest.raises(SystemExit) as err:
            run_cli("factor", "--n", "4")
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("factor", "--n", "0", "--sign", "pos"),
            ("quantum", "scan", "--n", "-1", "--sign", "neg"),
            ("skew", "divisors", "--s", "0", "--lambda", "1"),
            ("quantum", "scan", "--n", "4", "--sign", "pos", "--limit", "-1"),
        ],
    )
    def test_out_of_range_sizes_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as err:
            run_cli(*argv)
        assert err.value.code == 2

    def test_out_of_range_size_exits_two_without_traceback(self):
        proc = run_module("factor", "--n", "0", "--sign", "pos")
        assert proc.returncode == 2
        assert "must be at least 1" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("constacyclic", "classify", "--lambda", "q"),
            ("skew", "divisors", "--s", "2", "--lambda", "q"),
            ("skew", "code", "--n", "3", "--f", "zz"),
            ("skew", "gcld", "--s", "2", "--lambda", "1", "x+q"),
            ("code", "build", "--n", "4", "--sign", "pos",
             "--f1", "xx", "--f2", "1", "--f3", "1"),
            ("constacyclic", "transport", "--n", "3", "--lambda", "2",
             "--f1", "x+2", "--f2", "[1,a]", "--f3", "x+2"),
            ("constacyclic", "transport", "--n", "3", "--lambda", "2",
             "--f1", "x+2", "--f2", "x+", "--f3", "x+2"),
            ("skew", "code", "--n", "3", "--f", "x^2000000000"),
            ("code", "build", "--n", "4", "--sign", "pos",
             "--f1", "x^2000000000", "--f2", "1", "--f3", "1"),
            # exponents in Arabic-Indic or fullwidth digits; the first
            # built f1 = x+2 and exited 0
            ("code", "build", "--n", "3", "--sign", "pos",
             "--f1", "x^\u0661+2", "--f2", "1", "--f3", "1"),
            ("skew", "gcld", "--s", "2", "--lambda", "1", "x^\uff12+1"),
        ],
    )
    def test_malformed_text_exits_two_without_traceback(self, argv):
        proc = run_module("--json", *argv)
        assert proc.returncode == 2
        assert "error: argument" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("factor", "--n", "1_0", "--sign", "pos"),
            ("factor", "--n", "\uff11\uff12", "--sign", "pos"),  # fullwidth 12
            ("factor", "--n", "\u0663", "--sign", "pos"),  # Arabic-Indic 3
            ("factor", "--n", " 7", "--sign", "pos"),
            ("factor", "--n", "7\n", "--sign", "pos"),
            ("factor", "--n", "", "--sign", "pos"),
            ("skew", "divisors", "--s", "\u0662", "--lambda", "1"),
            ("quantum", "scan", "--n", "4", "--sign", "neg", "--limit", "\u0662"),
            ("--seed", "1_0", "selftest", "paper"),
            ("--seed", "\u0663", "selftest", "paper"),
            ("--seed", "abc", "selftest", "paper"),
        ],
    )
    def test_integers_other_than_ascii_decimals_are_usage_errors(self, argv):
        # int() reads all of these: --n 1_0 factored x^10 - 1, --limit
        # in Arabic-Indic 2 kept 2 rows and --seed 1_0 seeded 10
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as stop:
            main(["--json", *argv])
        assert stop.value.code == 2
        assert "invalid integer" in err.getvalue()

    def test_signed_ascii_integers_keep_their_values(self):
        assert run_cli("factor", "--n", "+7", "--sign", "pos") == run_cli(
            "factor", "--n", "7", "--sign", "pos"
        )
        assert run_cli("--seed", "+5", "selftest", "paper") == run_cli(
            "--seed", "5", "selftest", "paper"
        )
        code, out, _ = run_cli("--seed", "-3", "selftest", "paper")
        assert code == 0 and "0 failures" in out
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as stop:
            main(["factor", "--n", "-1", "--sign", "pos"])
        assert stop.value.code == 2
        assert "must be at least 1, got -1" in err.getvalue()

    @pytest.mark.parametrize(
        "argv",
        [
            ("skew", "divisors", "--s", "2", "--lambda", "1+2v+2v^2\n"),
            ("skew", "code", "--n", "3", "--f", "x+2\n"),
            ("constacyclic", "transport", "--n", "3", "--lambda", "2",
             "--f1", "x+2", "--f2", "[1\n]", "--f3", "x+2"),
        ],
    )
    def test_text_with_a_newline_is_a_usage_error(self, argv):
        # the old element reader took "1+2v+2v^2\n" for 1 and listed the
        # 6 divisors of x^2 - 1
        proc = run_module("--json", *argv)
        assert proc.returncode == 2
        assert "error: argument" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_zero_skew_generator_exits_one_without_traceback(self):
        proc = run_module("--json", "skew", "code", "--n", "3", "--f", "0")
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"] == "ZeroPolynomial"
        assert "Traceback" not in proc.stderr

    def test_sieve_budget_exits_one_without_traceback(self):
        start = time.perf_counter()
        proc = run_module("--json", "skew", "divisors", "--s", "16", "--lambda", "1")
        assert time.perf_counter() - start < 30
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"] == "BudgetExceeded"
        assert "Traceback" not in proc.stderr

    def test_skew_module_budget_exits_one_without_traceback(self):
        start = time.perf_counter()
        proc = run_module("skew", "code", "--n", "100000", "--f", "x+2")
        assert time.perf_counter() - start < 2
        assert proc.returncode == 1
        assert "BudgetExceeded" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_skew_budget_comes_before_division(self):
        # x^n - 1 is not divided: the length budget refuses first
        start = time.perf_counter()
        proc = run_module("skew", "code", "--n", "10000000", "--f", "x+2")
        assert time.perf_counter() - start < 2
        assert proc.returncode == 1
        assert "BudgetExceeded" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_scan_row_budget_exits_one_without_traceback(self):
        # n = 48 pos keeps 800 divisors, 85,653,600 triples
        start = time.perf_counter()
        proc = run_module("--json", "quantum", "scan", "--n", "48", "--sign", "pos")
        assert time.perf_counter() - start < 10
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"] == "BudgetExceeded"
        assert "Traceback" not in proc.stderr

    def test_distance_budget_exits_one_without_traceback(self, monkeypatch):
        monkeypatch.setattr(ternary, "MAX_DISTANCE_WORDS", 20)
        code, doc, err = run_json(
            "code", "distance", "--n", "11", "--sign", "pos",
            "--f1", "x^5+2x^3+x^2+2x+2", "--f2", "1", "--f3", "1",
        )
        assert code == 1
        assert doc["error"] == "BudgetExceeded"
        assert "[11, 6] code" in doc["detail"]
        assert "Traceback" not in err

    def test_scan_past_enumeration_cap_is_unchanged(self):
        # n = 36 neg has 19 components whose k and n - k both exceed 14;
        # the digest is of the output of the former support-search engine
        start = time.perf_counter()
        proc = run_module("--json", "quantum", "scan", "--n", "36", "--sign", "neg")
        assert time.perf_counter() - start < 10
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
            "c15aad18088b44844514ddd1945d63cf9da517f88a42b5b18457902414a601fe"
        )

    def test_factor_order_is_unchanged(self):
        # the printed order of the factors of x^n -+ 1, n <= 60: the digest
        # is of the output of the coefficient-tuple Z3Poly and its
        # (degree, coefficients from the top) sort key
        digest = hashlib.sha256()
        for n in range(1, 61):
            for sign in ("pos", "neg"):
                code, out, _ = run_cli("factor", "--n", str(n), "--sign", sign)
                assert code == 0
                digest.update(out.encode())
        assert digest.hexdigest() == (
            "bc9599f02f58fa78b175a51a647c571162c78e4810c29de55dbbf490f927b773"
        )

    def test_factor_text_and_json_are_pinned(self):
        # factor of x^n -+ 1 for n <= 200, text and --json: the digests
        # are of the output of the elimination of Q - I on every modulus
        text, doc = hashlib.sha256(), hashlib.sha256()
        for n in range(1, 201):
            for sign in ("pos", "neg"):
                argv = ("factor", "--n", str(n), "--sign", sign)
                for digest, flags in ((text, ()), (doc, ("--json",))):
                    code, out, _ = run_cli(*flags, *argv)
                    assert code == 0
                    digest.update(out.encode())
        assert text.hexdigest() == (
            "21995231234f7bb2068d3ea836c88b48a9432f0e39e2e43ddf76aae4d5b7b996"
        )
        assert doc.hexdigest() == (
            "79a468e545f803e55afe61f8ada1c45755d7109d9abde7bdbf51d292092977ba"
        )

    def test_factor_budget_exits_one_without_traceback(self):
        proc = run_module("--json", "factor", "--n", "100003", "--sign", "pos")
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"] == "BudgetExceeded"
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("factor", "--n", HUGE, "--sign", "pos"),
            ("code", "build", "--n", HUGE, "--sign", "pos", *ONES),
            ("constacyclic", "transport", "--n", HUGE, "--lambda", "2", *ONES),
            # 10^9 is even, which the count refuses first
            ("skew", "count", "--n", str(10**9 + 1)),
            ("skew", "divisors", "--s", HUGE, "--lambda", "1"),
            ("skew", "gcld", "--s", HUGE, "--lambda", "1", "x+1"),
            ("quantum", "params", "--n", HUGE, "--sign", "pos", *ONES),
            ("quantum", "scan", "--n", HUGE, "--sign", "pos"),
        ],
    )
    def test_huge_modulus_exits_one_without_traceback(self, argv):
        # x^n -+ 1 and x^s - lam are refused before they are allocated
        start = time.perf_counter()
        proc = run_module("--json", *argv, address_space=2**31)
        assert time.perf_counter() - start < 2
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"] == "BudgetExceeded"
        assert "Traceback" not in proc.stderr

    def test_distance_budget_bounds_memory_at_any_length(self):
        # the budget counts 64-coordinate limbs: level 1 of a full code of
        # length 10^5 is 10^5 words of 1563 limbs, refused before the
        # systematic matrix is built; length 10^4 still runs
        start = time.perf_counter()
        proc = run_module(
            "code", "distance", "--n", "100000", "--sign", "pos", *ONES,
            address_space=2**31,
        )
        assert time.perf_counter() - start < 2
        assert proc.returncode == 1
        assert "BudgetExceeded" in proc.stderr
        assert "Traceback" not in proc.stderr
        proc = run_module(
            "code", "distance", "--n", "10000", "--sign", "pos", *ONES,
            address_space=2**31,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("d_lee = 1 ")

    def test_gray_budget_refuses_before_the_image(self):
        # the full code of length 5000 has a 15000 x 15000 Gray image
        start = time.perf_counter()
        proc = run_module(
            "--json", "code", "gray", "--n", "5000", "--sign", "pos", *ONES,
            address_space=2**31,
        )
        assert time.perf_counter() - start < 1
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"] == "BudgetExceeded"
        assert "Traceback" not in proc.stderr

    def test_zero_limit_is_allowed(self):
        code, doc, _ = run_json("quantum", "scan", "--n", "4", "--sign", "pos", "--limit", "0")
        assert code == 0
        assert doc["payload"]["rows"] == []

    def test_installed_script(self):
        if shutil.which("ternring") is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            ["ternring", "factor", "--n", "1", "--sign", "pos"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "x+2 = (x+2)"

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_argv_exits_zero_one_or_two(self, data):
        # argv drawn from the command and argument tables: each argument
        # is left out (1 in 16), malformed (1 in 16) or a small valid
        # value; the outcome is a result (0), a typed domain error (1) or
        # a usage error (2), never another exception
        command = data.draw(st.sampled_from(sorted(cli.COMMANDS)))
        flags = data.draw(st.sampled_from([[], ["--json"], ["--seed", "3"]]))
        argv = [*flags, *command]
        for name in cli.COMMANDS[command][1]:
            pick = data.draw(st.sampled_from(PICKS))
            if pick == "omit":
                continue
            values = st.sampled_from(CLI_VALUES[name][pick == "malformed"])
            drawn = data.draw(st.lists(values, min_size=1, max_size=3))
            argv += drawn if name == "polys" else [name, drawn[0]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as stop:
                assert stop.code == 2, argv
                return
        assert code in (0, 1), argv


# Small valid values (n <= 12, s <= 6), then malformed text, for every
# declared argument; valid first, since hypothesis favours early choices.
PICKS = ["valid"] * 14 + ["omit", "malformed"]
POLYS = ["0", "1", "2", "x+1", "x+2", "x^2+1", "x^2+2", "2x^2+1", "x^3+2", "[1,0,2]"]
CLI_VALUES = {
    "--n": ([*map(str, range(1, 13))], ["0", "-3", "ten", ""]),
    "--s": ([*map(str, range(1, 7))], ["0", "two"]),
    "--sign": (["pos", "neg"], ["zero"]),
    "--lambda": (["1", "2", "v", "1+v^2", "2+2v^2", "v+v^2", "0"], ["q", "", "v^"]),
    "--f1": (POLYS, ["xx", "x+", "[1,a]", "x^2000000000"]),
    "--f2": (POLYS, ["xx", "y"]),
    "--f3": (POLYS, ["x+", "[]x"]),
    "--f": (["0", "1", "x+1", "x+2", "x+1+v^2", "x^2+2", "x+2+v+v^2"], ["zz", "x^"]),
    "--limit": (["0", "3"], ["-1", "many"]),
    "polys": (["0", "x+1", "x^2+2", "x+1+v^2", "vx+1"], ["x+q", "x^-1"]),
}
