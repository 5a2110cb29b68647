"""Tests of the benchmark's own arithmetic, tracer and checks.

Run with: python3 -m pytest benchmark -q
"""

import itertools
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import stats
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ternring as tr  # noqa: E402


# -- percentiles, failure ratio, spread -------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert stats.percentile(values, 0.9) == 90
    assert stats.percentile(values, 0.5) == 50
    assert stats.percentile([7.0], 0.9) == 7.0


def test_percentile_needs_ten_samples_beyond():
    assert stats.beyond(100, 0.9) == 10
    assert stats.beyond(99, 0.9) == 9
    assert stats.reportable_percentile(range(99), 0.9) is None
    assert stats.reportable_percentile(range(100), 0.9) == 89
    assert stats.reportable_percentile(range(1000), 0.99) == 989
    assert stats.reportable_percentile(range(999), 0.99) is None


def test_fail_ratio():
    assert stats.fail_ratio(0, 17) == 0.0
    assert stats.fail_ratio(2, 32) == 0.0625
    with pytest.raises(ValueError):
        stats.fail_ratio(0, 0)
    with pytest.raises(ValueError):
        stats.fail_ratio(3, 2)


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    assert stats.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(5.5 / 5.5)


# -- span arithmetic --------------------------------------------------------


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    duration, own = tracing.self_times(parent, start, end)
    assert duration.tolist() == [10.0, 3.0, 1.0, 4.0]
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == duration[0]


def test_tracer_records_nesting_calls_and_errors():
    tracer = tracing.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    inner_t = tracer.wrap("inner", inner)

    def outer():
        total = inner_t(1) + inner_t(2)
        try:
            inner_t(-1)
        except ValueError:
            pass
        return total

    outer_t = tracer.wrap("outer", outer)
    assert outer_t() == 3  # disabled: passes through, records nothing
    assert len(tracer.name) == 0
    tracer.enabled = True
    assert tracer.run_op(0, "op", outer_t) == 3
    tracer.enabled = False
    a = tracer.arrays()
    named = [tracer.names[i] for i in a["name"]]
    assert named == ["op", "outer", "inner", "inner", "inner"]
    assert a["parent"].tolist() == [-1, 0, 1, 1, 1]
    assert a["op"].tolist() == [0] * 5
    assert a["raised"].tolist() == [0, 0, 0, 0, 1]
    summary = tracing.summarize(tracer)
    assert summary["calls"] == {"op": 1, "outer": 1, "inner": 3}
    total = sum(summary["self_s"].values())
    assert total == pytest.approx(a["end"][0] - a["start"][0])


def test_merge_adds_counts_and_keeps_distinct_codes():
    one = {
        "calls": {"x": 2}, "self_s": {"x": 0.5}, "min_distance_repeats": 1,
        "min_distance_k_over_14": ["a"], "min_weight_words": 9,
        "divisors_found": 4, "divisor_divmods": 8, "gcld_errors": 1,
    }
    merged = tracing.merge([one, one])
    assert merged["calls"] == {"x": 4}
    assert merged["self_s"] == {"x": 1.0}
    metrics = tracing.layer_metrics(merged)
    assert metrics["ternary.TernaryPolyCode.min_distance.k_over_14"] == 1
    assert metrics["gf3linalg.min_weight.words"] == 18
    assert metrics["skew.monic_right_divisors.yield"] == 0.5
    assert metrics["skew.gcld.errors"] == 2


def test_install_wraps_every_binding():
    # In a fresh interpreter: installing mutates the package's modules.
    script = """
import sys
import ternring, ternring.cli, ternring.rcodes, ternring.skew, ternring.poly, ternring.ring
import tracer as tracing
t = tracing.Tracer()
tracing.install(t)
assert ternring.rcodes.from_gray is ternring.skew.from_gray is ternring.ring.from_gray is ternring.from_gray
assert ternring.cli.factor is ternring.skew.factor is ternring.poly.factor is ternring.factor
assert ternring.ring.from_gray.__wrapped__ is not None
t.enabled = True
t.run_op(0, "op", lambda: ternring.cli.main(["--json", "factor", "--n", "4", "--sign", "pos"]))
t.run_op(1, "op", lambda: ternring.skew.monic_right_divisors(2, ternring.ONE))
t.enabled = False
m = tracing.layer_metrics(tracing.summarize(t))
assert m["cli.main.calls"] == 1 and m["poly.factor.calls"] >= 2, m
assert m["ring.from_gray.calls"] > 0 and m["ring.RingElement.mul.calls"] > 0, m
assert m["skew.skew_right_divmod.calls"] > 0, m
"""
    env = {"PYTHONPATH": f"{ROOT / 'src'}:{ROOT / 'benchmark'}", "PATH": "/usr/bin:/bin"}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


# -- seeded inputs ------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [lambda seed: workloads.scan_inputs("qscan", seed), workloads.skew_inputs, workloads.cli_inputs],
)
def test_same_seed_same_inputs_other_seed_other_inputs(make):
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_scans_cover_each_case_once():
    assert sorted(workloads.scan_inputs("qscan", 5)) == sorted(workloads.SCAN_CASES["qscan"])
    assert len(workloads.SCAN_CASES["qscan"]) == 16
    assert workloads.scan_inputs("qscan24", 5) == [(24, True)]


def test_cli_mix_holds_every_kind_and_the_malformed_inputs():
    cmds = workloads.cli_inputs(0)
    assert len(cmds) == workloads.CLI_ROUNDS * len(workloads.CLI_KINDS) + 2
    for bad in workloads.CLI_MALFORMED:
        assert bad in cmds


# -- oracles against the package ------------------------------------------------


def test_element_text_round_trips_through_the_parser():
    for gray in itertools.product(range(3), repeat=3):
        assert tr.parse_element(oracle.element_text(gray)).gray == gray


def test_poly_text_round_trips():
    for coeffs in [(1,), (2, 0, 1), (0, 1), (1, 2, 0, 2)]:
        text = oracle.format_poly(coeffs)
        assert text == str(tr.Z3Poly(coeffs))
        assert oracle.parse_poly(text) == coeffs


def test_small_factorization_matches_sympy():
    for n in range(1, 13):
        for plus in (True, False):
            assert sorted(oracle.factor_small(n, plus)) == sorted(oracle.sympy_factors(n, plus))


def test_skew_product_matches_the_package():
    rng = random.Random(1)
    for _ in range(50):
        q = [rng.choice(tr.ELEMENTS) for _ in range(rng.randint(1, 4))]
        f = [rng.choice(tr.ELEMENTS) for _ in range(rng.randint(1, 4))]
        prod = tr.SkewPoly(q) * tr.SkewPoly(f)
        want = [prod.coeff(i).gray for i in range(prod.degree + 1)] if prod else []
        assert oracle.skew_mul([e.gray for e in q], [e.gray for e in f]) == want


def test_section_shift_matches_the_package():
    rng = random.Random(2)
    for s, l in [(4, 1), (2, 2), (3, 2)]:
        n = s * l
        for lam in tr.UNITS:
            vec = tuple(rng.choice(tr.ELEMENTS) for _ in range(n))
            shifted = tr.skew_constacyclic_section_shift(vec, lam, l)
            got = oracle.section_shift(tr.gray_vector(vec), n, l, lam.gray)
            assert got.tolist() == [tr.gray_vector(shifted).tolist()]


def test_rank_mod3_matches_the_package():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.integers(0, 3, size=(5, 7))
        assert oracle.rank_mod3(m) == tr.gf3linalg.rank(m)


# -- output checks catch wrong outputs -------------------------------------------


def test_scan_check_accepts_the_scan_and_rejects_a_wrong_row():
    rows = tr.scan_dual_containing(9, tr.ModulusSign.PLUS)
    assert workloads._check_scan(tr, 9, True, rows) is None
    f1, f2, f3, p = rows[0]
    bad = [(f1, f2, f3, tr.QuantumParams(p.N, p.K + 2, p.d))] + rows[1:]
    assert workloads._check_scan(tr, 9, True, bad) is not None
    assert workloads._check_scan(tr, 9, True, rows[1:]) is not None


def test_divisor_check_rejects_a_non_divisor():
    divs = tr.monic_right_divisors(2, tr.ONE)
    assert workloads._check_divisors(tr, 2, tr.ONE, divs) is None
    extra = tr.SkewPoly([tr.V, tr.ONE])
    assert extra not in divs
    bad = tuple(sorted(divs + (extra,), key=tr.SkewPoly.sort_key))
    assert workloads._check_divisors(tr, 2, tr.ONE, bad) is not None


def test_cli_check_rejects_a_wrong_factorization():
    cmd = ("factor", "--n", "4", "--sign", "pos")
    good = '{"status": "ok", "payload": {"factors": [["x+1", 1], ["x+2", 1], ["x^2+1", 1]]}}'
    bad = '{"status": "ok", "payload": {"factors": [["x+1", 2], ["x^2+1", 1]]}}'
    assert workloads.check_cli(cmd, (0, good, "")) is None
    assert workloads.check_cli(cmd, (0, bad, "")) is not None
    assert workloads.check_cli(cmd, (1, "", "Traceback (most recent call last):")) is not None


def test_usage_contract():
    assert workloads.check_usage_contract((2, "", "usage: ternring ...")) is None
    assert workloads.check_usage_contract((1, "", "Traceback ...")) is not None


def test_an_operation_that_runs_out_of_memory_counts_as_failed():
    def blow_up():
        raise MemoryError("address space limit")

    job = [workloads.Op("big", blow_up, lambda out: None, str), workloads.Op("ok", lambda: 1, lambda out: None, str)]
    ops, wall = workloads.run_timed(iter(job), lambda i, op: op.run())
    assert isinstance(ops[0].result, MemoryError)
    assert ops[1].result == 1
    assert wall >= 0
