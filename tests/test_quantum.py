"""Tests for dual-containment checking, CSS parameter derivation,
exhaustive scans, and the frozen reference table."""

import collections
import functools
import gc
import hashlib
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ternring import quantum
from ternring.errors import BudgetExceeded, NotDualContaining, SelfCheckFailed, ZeroCode
from ternring.poly import (
    Factorization,
    ModulusSign,
    Z3Poly,
    divisors_of_modulus,
    parse_poly,
)
from ternring.quantum import (
    EXPECTED_FLAGS,
    QuantumParams,
    css_params,
    scan_dual_containing,
    verify_reference_table,
)
from ternring.rcodes import RCode
from ternring.ternary import TernaryPolyCode

P = parse_poly
PLUS, MINUS = ModulusSign.PLUS, ModulusSign.MINUS


def code(n, sign, texts):
    return RCode.from_sign(n, sign, tuple(P(t) for t in texts))


def dual_containing_by_divisor(n, sign):
    """Per-divisor oracle for the scan's generators: every monic divisor
    of the modulus whose code passes the divisibility criterion, in
    canonical order."""
    return [
        g for g in divisors_of_modulus(n, sign)
        if TernaryPolyCode(n, sign, g).contains_dual()
    ]


def scan_by_triple(n, sign):
    """Per-triple oracle for the scan: build the ring code of every
    triple of dual-containing divisors and derive its parameters with
    the checked CSS construction."""
    from itertools import combinations_with_replacement

    eligible = dual_containing_by_divisor(n, sign)
    rows = [
        (*triple, css_params(RCode.from_sign(n, sign, triple), check=True))
        for triple in combinations_with_replacement(eligible, 3)
    ]
    rows.sort(key=lambda row: (-row[3].K, -row[3].d, tuple(str(f) for f in row[:3])))
    return rows


def scan_by_string_sort(n, sign):
    """Sort oracle for the scan: the same (g, k, d) table and triples,
    ordered by K descending, d descending, then the tuple of generator
    strings."""
    from itertools import combinations_with_replacement

    table = []
    for g in dual_containing_by_divisor(n, sign):
        comp = TernaryPolyCode(n, sign, g)
        table.append((g, comp.k, comp.min_distance()))
    rows = []
    for triple in combinations_with_replacement(table, 3):
        K = 2 * sum(k for _, k, _ in triple) - 3 * n
        d = min(d for _, _, d in triple)
        rows.append((-K, -d, tuple(str(g) for g, _, _ in triple), triple))
    rows.sort(key=lambda row: row[:3])
    return [
        (*(g for g, _, _ in triple), QuantumParams(3 * n, -neg_K, -neg_d))
        for neg_K, neg_d, _, triple in rows
    ]


def ordered_rows_by_columns(n, gens, ks, ds):
    """Column oracle for ``quantum._ordered_rows``: the former distribution
    pass, with i, j and l each taken in name order, every triple's
    generators appended to the three columns of its (K, d) run (a group
    of l of equal (k_l, min(d, d_l)) at once), and the runs zipped into
    rows by K, then d, descending."""
    by_name = sorted(range(len(gens)), key=lambda x: str(gens[x]))
    later = [[l for l in by_name if l >= j] for j in range(len(gens))]

    @functools.cache
    def tails(j, d):
        groups = {}
        for l in later[j]:
            groups.setdefault((ks[l], min(d, ds[l])), []).append(gens[l])
        return [(k, d_l, group, len(group)) for (k, d_l), group in groups.items()]

    runs = collections.defaultdict(lambda: ([], [], []))
    for i in by_name:
        g_i, k_i, d_i = [gens[i]], ks[i], ds[i]
        for j in later[i]:
            g_j, k_ij = [gens[j]], k_i + ks[j]
            for k_l, d, group, size in tails(j, min(d_i, ds[j])):
                first, second, third = runs[k_ij + k_l, d]
                first += g_i * size
                second += g_j * size
                third += group
    rows = []
    for k, d in sorted(runs, reverse=True):
        params = QuantumParams(3 * n, 2 * k - 3 * n, d)
        rows += zip(*runs.pop((k, d)), itertools.repeat(params))
    return rows


def component_table(n, sign):
    """The scan's generators with the k and d of each component code."""
    gens = quantum._dual_containing_generators(n, sign)
    codes = [TernaryPolyCode._trusted(n, sign, g) for g in gens]
    return gens, [c.k for c in codes], [c.min_distance() for c in codes]


@st.composite
def synthetic_tables(draw):
    """Up to 12 generators named by distinct strings in an order of their
    own, with k and d drawn from few values, so both tie often."""
    names = draw(st.lists(st.text("abcd", min_size=1, max_size=3), min_size=1,
                          max_size=12, unique=True))
    ks = draw(st.lists(st.integers(0, 3), min_size=len(names), max_size=len(names)))
    ds = draw(st.lists(st.integers(0, 4), min_size=len(names), max_size=len(names)))
    return names, ks, ds


class TestQuantumParams:
    def test_formatting(self):
        p = QuantumParams(18, 6, 2)
        assert str(p) == "[[18,6,2]]"
        assert p.as_tuple() == (18, 6, 2)


class TestCssParams:
    def test_reference_goldens(self):
        cases = [
            (6, PLUS, ["x^2+2"] * 3, (18, 6, 2)),
            (12, PLUS, ["x^3+x^2+x+1"] * 3, (36, 18, 2)),
            (27, PLUS, ["x^6+x^3+1"] * 3, (81, 45, 2)),
            (30, PLUS, ["x^4+x^3+x^2+x+1", "x^4+2x^3+x^2+2x+1",
                        "x^4+x^3+x^2+x+1"], (90, 66, 2)),
            (3, MINUS, ["x+1"] * 3, (9, 3, 2)),
            (10, MINUS, ["x^4+x^3+2x+1", "x^4+2x^3+x+1",
                         "x^4+2x^3+x+1"], (30, 6, 4)),
            (12, MINUS, ["x^2+x+2", "2x^2+x+1", "x^2+2x+2"], (36, 24, 2)),
        ]
        for n, sign, gens, expected in cases:
            assert css_params(code(n, sign, gens)).as_tuple() == expected

    def test_not_dual_containing(self):
        with pytest.raises(NotDualContaining) as err:
            css_params(code(8, PLUS, ["x^2+1"] * 3))
        assert err.value.failing == (1, 2, 3)
        # full components contain their (zero) dual; only the middle
        # component fails here
        with pytest.raises(NotDualContaining) as err:
            css_params(code(8, PLUS, ["1", "x^2+1", "1"]))
        assert err.value.failing == (2,)

    def test_unchecked_parameters(self):
        # without the containment check the arithmetic yields the
        # claimed numbers for the n = 8 triple; the precondition is
        # what fails, not the bookkeeping
        params = css_params(code(8, PLUS, ["x^2+1"] * 3), check=False)
        assert params.as_tuple() == (24, 12, 2)

    def test_logical_exponent_consistency(self):
        for n, sign, gens in [
            (6, PLUS, ["x^2+2"] * 3),
            (3, MINUS, ["x+1"] * 3),
            (12, MINUS, ["x^2+x+2", "2x^2+x+1", "x^2+2x+2"]),
        ]:
            c = code(n, sign, gens)
            params = css_params(c)
            assert params.K == c.cardinality_log3 - c.dual().cardinality_log3
            assert params.N == 3 * c.n
            assert params.d == c.lee_distance()

    def test_zero_component_has_no_distance(self):
        # a zero component never contains its dual, so the checked path
        # refuses before distance is ever consulted
        c = code(2, PLUS, ["1", "1", "x^2+2"])
        with pytest.raises(NotDualContaining):
            css_params(c)


class TestScan:
    def test_scan_includes_reference_rows(self):
        rows = scan_dual_containing(3, MINUS)
        triples = {(str(a), str(b), str(c)): p.as_tuple() for a, b, c, p in rows}
        assert triples[("x+1", "x+1", "x+1")] == (9, 3, 2)
        rows = scan_dual_containing(12, PLUS)
        triples = {(str(a), str(b), str(c)): p.as_tuple() for a, b, c, p in rows}
        key = ("x^3+x^2+x+1",) * 3
        assert triples[key] == (36, 18, 2)

    def test_trivial_length(self):
        rows = scan_dual_containing(1, PLUS)
        assert len(rows) == 1
        a, b, c, p = rows[0]
        assert (str(a), str(b), str(c)) == ("1", "1", "1")
        assert p.as_tuple() == (3, 3, 1)

    def test_sorted_and_deterministic(self):
        rows = scan_dual_containing(12, MINUS)
        keys = [(-p.K, -p.d, tuple(str(f) for f in (a, b, c)))
                for a, b, c, p in rows]
        assert keys == sorted(keys)
        assert rows == scan_dual_containing(12, MINUS)

    def test_unordered_triples_once(self):
        rows = scan_dual_containing(6, PLUS)
        seen = set()
        for a, b, c, _ in rows:
            key = frozenset([str(a), str(b), str(c)])
            multiset = tuple(sorted([str(a), str(b), str(c)]))
            assert multiset not in seen
            seen.add(multiset)

    def test_emitted_codes_really_contain_dual(self):
        # each emitted component passes the explicit subset check, which
        # must agree with the divisibility criterion
        for n, sign in [(4, PLUS), (6, PLUS), (6, MINUS)]:
            for a, b, c, params in scan_dual_containing(n, sign):
                for g in (a, b, c):
                    comp = TernaryPolyCode(n, sign, g)
                    assert comp.contains_dual()
                    assert comp.contains_dual_by_subset()
                assert params.K >= 0

    def test_table_scan_matches_per_triple_oracle(self):
        for n in range(1, 13):
            for sign in (PLUS, MINUS):
                assert scan_dual_containing(n, sign) == scan_by_triple(n, sign), (
                    n, sign,
                )

    @pytest.mark.parametrize(
        "n,sign", [(n, sign) for n in range(1, 25) for sign in (PLUS, MINUS)]
    )
    def test_order_matches_string_sort(self, n, sign):
        rows = scan_dual_containing(n, sign)
        assert rows == scan_by_string_sort(n, sign)
        # one QuantumParams instance per distinct (K, d)
        params = [row[3] for row in rows]
        assert len({id(p) for p in params}) == len(set(params))

    @pytest.mark.parametrize(
        "n,sign",
        [(n, sign) for n in range(1, 33) for sign in (PLUS, MINUS)] + [(36, MINUS)],
    )
    def test_order_matches_column_oracle(self, n, sign):
        rows = scan_dual_containing(n, sign)
        assert rows == ordered_rows_by_columns(n, *component_table(n, sign))
        # one QuantumParams instance per distinct (K, d)
        assert len({id(row[3]) for row in rows}) == len({row[3] for row in rows})

    @given(synthetic_tables())
    def test_synthetic_order_matches_column_oracle(self, table):
        names, ks, ds = table
        rows = quantum._ordered_rows(5, names, ks, ds)
        assert rows == ordered_rows_by_columns(5, names, ks, ds)
        assert len({id(row[3]) for row in rows}) == len({row[3] for row in rows})

    def test_scan_order_is_pinned(self):
        # every row of every scan with n <= 24, both signs, as text; the
        # digest was taken before the rows were built block by block
        digest = hashlib.sha256()
        for n in range(1, 25):
            for sign in (PLUS, MINUS):
                for f1, f2, f3, p in scan_dual_containing(n, sign):
                    digest.update(f"{f1} {f2} {f3} {p.N} {p.K} {p.d}\n".encode())
        assert digest.hexdigest() == (
            "d0edce7fa2604c26870a30013308221518347c9ef521b7c52d011344d6805965"
        )

    def test_scan_misses_nothing(self):
        # brute cross-check at n = 4: every divisor triple that passes
        # the componentwise subset check appears in the scan
        from itertools import combinations_with_replacement

        rows = scan_dual_containing(4, PLUS)
        listed = {tuple(str(f) for f in row[:3]) for row in rows}
        divs = divisors_of_modulus(4, PLUS)
        for triple in combinations_with_replacement(divs, 3):
            ok = all(
                TernaryPolyCode(4, PLUS, g).contains_dual_by_subset()
                for g in triple
            )
            assert ok == (tuple(str(f) for f in triple) in listed)

    def test_generators_match_per_divisor_filter(self):
        for n in range(1, 41):
            for sign in (PLUS, MINUS):
                assert quantum._dual_containing_generators(n, sign) == (
                    dual_containing_by_divisor(n, sign)
                ), (n, sign)

    def test_unpaired_reciprocal_fails_self_check(self, monkeypatch):
        # x^2 + x + 2 has the reciprocal x^2 + 2x + 2, which is missing
        fake = Factorization(1, ((P("x+1"), 1), (P("x^2+x+2"), 1)))
        monkeypatch.setattr(quantum, "factor", lambda f: fake)
        with pytest.raises(SelfCheckFailed, match="reciprocal of the factor x\\^2\\+x\\+2"):
            scan_dual_containing(3, PLUS)

    def test_row_budget_refuses_before_any_distance(self, monkeypatch):
        # 10 divisors of x^12 + 1 contain their dual: 220 triples
        def no_distance(self):
            raise AssertionError("a distance was computed")

        def no_code(self, *args):
            raise AssertionError("a component code was built")

        monkeypatch.setattr(TernaryPolyCode, "min_distance", no_distance)
        monkeypatch.setattr(TernaryPolyCode, "__init__", no_code)
        monkeypatch.setattr(TernaryPolyCode, "_trusted", no_code)
        monkeypatch.setattr(quantum, "MAX_SCAN_ROWS", 219)
        with pytest.raises(BudgetExceeded, match="length 12 keeps 10 .* 220 triples"):
            scan_dual_containing(12, MINUS)

    def test_row_budget_admits_n40_neg(self, monkeypatch):
        # n = 40 neg, with the most rows of any scan n <= 48 but n = 48 pos,
        # passes the row check (its 2,421,090 rows are not built here)
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached

        monkeypatch.setattr(TernaryPolyCode, "_trusted", reached)
        with pytest.raises(Reached):
            scan_dual_containing(40, MINUS)

    def test_scan_builds_codes_without_division(self, monkeypatch):
        # the generators come from the modulus's factors, so no code is
        # checked by the constructor and no polynomial is divided
        expected = scan_dual_containing(12, MINUS)
        calls = []

        def spy(name, method):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)

            return wrapped

        for cls, name in (
            (TernaryPolyCode, "__init__"), (Z3Poly, "divmod"), (Z3Poly, "__divmod__")
        ):
            monkeypatch.setattr(cls, name, spy(name, getattr(cls, name)))
        assert scan_dual_containing(12, MINUS) == expected
        assert calls == []

    def test_scan_proves_every_generator_a_divisor(self, monkeypatch):
        # x + 1 does not divide x^12 + 1: the chain of its systematic rows,
        # run by its distance search, refuses it
        listed = quantum._dual_containing_generators
        monkeypatch.setattr(
            quantum,
            "_dual_containing_generators",
            lambda n, sign: listed(n, sign) + [P("x+1")],
        )
        with pytest.raises(SelfCheckFailed, match=r"x\+1 does not divide x\^12\+1"):
            scan_dual_containing(12, MINUS)

    def test_scan_restores_collector_state(self):
        # the collector is paused only while the rows are built, and a
        # caller's setting survives the scan either way
        assert gc.isenabled()
        rows = scan_dual_containing(8, MINUS)
        assert gc.isenabled()
        gc.disable()
        try:
            assert scan_dual_containing(8, MINUS) == rows
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_paused_collector_restored_after_error(self):
        with pytest.raises(ZeroDivisionError):
            with quantum.collector_paused():
                assert not gc.isenabled()
                1 / 0
        assert gc.isenabled()

    def test_sort_key_extremes(self):
        # K = -3n and 3n, d = 0 and n, names against index order: the ends
        # of each part of the order, against a plain sort of the triples
        from itertools import combinations_with_replacement

        n = 5
        ks, ds, names = [0, 5, 0, 5], [0, 5, 5, 0], ["d", "c", "b", "a"]

        def key(t):
            K = 2 * sum(ks[x] for x in t) - 3 * n
            return (-K, -min(ds[x] for x in t), tuple(names[x] for x in t))

        want = sorted(combinations_with_replacement(range(4), 3), key=key)
        rows = quantum._ordered_rows(n, names, ks, ds)
        assert [row[:3] for row in rows] == [
            tuple(names[x] for x in t) for t in want
        ]
        assert [(p.K, p.d) for *_, p in rows] == [
            (-key(t)[0], -key(t)[1]) for t in want
        ]


class TestReferenceTable:
    def test_statuses(self):
        report = verify_reference_table()
        assert len(report) == 8
        assert [row.status for row in report] == ["ok"] * 7 + ["flag"]
        flagged = [row for row in report if row.status == "flag"]
        assert [row.flag_id for row in flagged] == list(EXPECTED_FLAGS)
        assert all(row.notes for row in flagged)

    def test_parameters_match(self):
        for row in verify_reference_table():
            if row.status == "ok":
                assert row.params.as_tuple() == row.expected

    def test_generators_normalized_monic(self):
        report = verify_reference_table()
        row = next(r for r in report if r.label == "[[36,24,2]]")
        assert row.generators == ("x^2+x+2", "x^2+2x+2", "x^2+2x+2")

    def test_flagged_row_detail(self):
        row = verify_reference_table()[-1]
        assert row.n == 8
        assert row.params is None
        assert "do not contain their dual" in row.notes[0]
