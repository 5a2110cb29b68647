"""Tests for twisted polynomial arithmetic: right division, right
divisors and the left modules they generate, code counts, the
Hermitian pairing against shifted Euclidean orthogonality, and common
left divisors."""

import collections
import functools
import hashlib
import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ternring import gf3linalg, rcodes, ring, skew
from ternring.errors import (
    BudgetExceeded,
    EvenLength,
    LengthMismatch,
    NonUnitLeadingCoefficient,
    NotAUnit,
    NotRightDivisor,
    OddS,
    SelfCheckFailed,
)
from ternring.poly import ModulusSign, divisors_of_modulus, modulus
from ternring.rcodes import (
    GrayModule,
    RCode,
    as_rvector,
    cyclic_shift,
    gray_shift,
    gray_vector,
    ring_inner_product,
    skew_constacyclic_section_shift,
    skew_cyclic_shift,
    ungray_vector,
)
from ternring.ring import (
    ELEMENTS,
    IDEMPOTENTS,
    ONE,
    THETA_FIXED_UNITS,
    TWO,
    UNITS,
    V,
    ZERO,
    parse_element,
    scalar,
)
from ternring.skew import (
    SkewPoly,
    count_skew_cyclic,
    gcld,
    hermitian_conjugate,
    hermitian_inner_product,
    is_right_divisor,
    monic_right_divisors,
    one_generator_sqc,
    parse_skew_poly,
    polys_to_vector,
    power_minus_constant,
    skew_count_formula,
    skew_cyclic_code,
    skew_right_divmod,
    vector_to_polys,
)
from ternring.skew import MAX_MODULE_LENGTH, _mirror

P = parse_skew_poly


def _reduce(f, s, lam):
    """The remainder of f modulo x^s - lam."""
    return skew_right_divmod(f, power_minus_constant(s, lam))[1]


def monic_right_divisors_brute(n, lam):
    """Reference scan over all 27^d monic candidates of every degree d <= n
    (small n only), in canonical order: the oracle of the sieve."""
    m = power_minus_constant(n, lam)
    found = []
    for d in range(n + 1):
        for tail in itertools.product(ELEMENTS, repeat=d):
            cand = SkewPoly(list(tail) + [ONE])
            if not skew_right_divmod(m, cand)[1]:
                found.append(cand)
    found.sort(key=SkewPoly.sort_key)
    return tuple(found)


# sha256 of the divisor lists of x^s - lam, one line "lam: g g ..." per
# unit in UNITS order, and the refusal messages, taken from the int8 grid
# sieve that the bit-plane sieve replaced.
DIVISOR_LIST_DIGESTS = {
    1: "dfb6697ac32454255e9155518fe28b6f80fac7d82f74aa7dfd20549bbccd7bf6",
    2: "36ab3df36196f6d1b5141e7a140f1d169c8bae42b87077da1f1825fa6da59bc4",
    3: "6999b127154f428c882e8bd053b40173ebccdbc36fcec590eb3975ce6b00b6ae",
    4: "f06a13642355dab4853f19d57f6057d131690ed47cb19bb7eb188d66aab30ce4",
    5: "8a993995daf472f578eb6c98f6cbcaebffc1555432f5c20cce20d1b0d8c027a2",
    6: "99b3007d1d451c3a773ff66d4555db584ff5e91e325e1ab3eba7508b25c0f493",
    7: "26c1b0df42ddfa462b446889e475a8802091efdfb444e07caae20887ad935ab4",
    8: "78d89d89af0b956eb5696d68c7847a7e92ef42c4f659be23a73d051011fb87b6",
    9: "1eea085cf398d0769471eaca04253cc1a2c9d96381108db39232494a977850d2",
    10: "e8f27702340d5f4905efa1428ca828197d63b2a09dece0d4c25fbbdee3673a75",
    11: "923db26f0270b1d416e00eac7bc680d8bf91cfe8b236545eb7b029aed1bb0fc2",
    12: "cae138897cd7c546169835b2e15ad98937a94dbb2d412a0344805aa244a49fe0",
    13: "2ec237cdd440e3ee11794cba9947b82f204f9dfd2846c1437b5e9920a9e7819a",
    17: "3df75c2514eda9314ca23e9904cd903f810f75d21c4c72ccfeb2d7254d12cba9",
}
SIEVE_REFUSALS = {
    14: "right divisors of x^14-(1) need a sieve over 9^7 tails, above the budget of 531441",
    16: "right divisors of x^16-(1) need a sieve over 9^8 tails, above the budget of 531441",
    80: "right divisors of x^80-(1) need a sieve over 9^40 tails, above the budget of 531441",
}


E = parse_element

RNG = random.Random(20260815)

X = SkewPoly.x_power(1)


def random_skew(rng, max_deg):
    return SkewPoly([rng.choice(ELEMENTS) for _ in range(rng.randint(0, max_deg) + 1)])


def random_unit_lead(rng, deg):
    return SkewPoly(
        [rng.choice(ELEMENTS) for _ in range(deg)] + [rng.choice(UNITS)]
    )


class TestElementValues:
    """Every value that becomes a ring element goes through
    ``ring._element``: an element as given, an integer of any type as
    its constant, anything else a ``TypeError``."""

    @staticmethod
    def readers(value):
        rows = np.array([[1, 0, 2, 1, 1, 0]])  # the Gray image of a length-2 vector
        return (
            as_rvector([value]),
            SkewPoly([value, 1]),
            gray_shift(2, value)(rows).tolist(),
            power_minus_constant(2, value),
        )

    def test_integers_of_any_type(self):
        for value, elem in ((np.int64(2), TWO), (True, ONE), (np.int8(-1), TWO)):
            assert self.readers(value) == self.readers(elem)

    @pytest.mark.parametrize("value", [1.5, "v", None, np.float64(1.0)])
    def test_anything_else_is_a_type_error(self, value):
        with pytest.raises(TypeError):
            as_rvector([value])
        with pytest.raises(TypeError):
            SkewPoly([value])
        with pytest.raises(TypeError):
            gray_shift(2, value)
        with pytest.raises(TypeError):
            power_minus_constant(2, value)


class TestArithmetic:
    def test_twist_witness(self):
        # x * v applies the automorphism; v * x does not
        assert X * SkewPoly([V]) == P("2vx")
        assert SkewPoly([V]) * X == P("vx")
        assert X * SkewPoly([V]) != SkewPoly([V]) * X

    def test_product_goldens(self):
        assert P("vx") * P("vx") == P("2v^2x^2")
        assert P("x+2") * P("x+1") == P("x^2+2")
        assert P("x+1") * P("x+2") == P("x^2+2")

    def test_parse_and_str_round_trip(self):
        for text in ("0", "1", "x", "x^2+2", "(1+v)x^3+2vx+2", "x+1+v^2"):
            assert str(P(text)) == text

    @given(st.lists(st.sampled_from(ELEMENTS), max_size=10))
    def test_str_parse_round_trip(self, coeffs):
        f = SkewPoly(coeffs)
        assert P(str(f)) == f

    def test_structure(self):
        z = SkewPoly()
        assert not z and z.degree == -1
        with pytest.raises(ValueError):
            z.lead
        f = P("2x^2+v")
        assert f.degree == 2 and f.lead is E("2") and not f.is_monic
        assert f.coeff(0) is V and f.coeff(5) is ZERO
        assert SkewPoly.x_power(3) == P("x^3")
        with pytest.raises(AttributeError):
            f.coeffs = ()

    def test_add_sub_neg(self):
        f, g = P("x^2+2x+1"), P("2x^2+x")
        assert f + g == P("1")
        assert f - f == SkewPoly()
        assert -f == P("2x^2+x+2")

    def test_associative_and_distributive(self):
        rng = random.Random(11)
        for _ in range(1000):
            f, g, h = (random_skew(rng, 6) for _ in range(3))
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert (f + g) * h == f * h + g * h

    def test_left_scaling(self):
        f = P("x^2+vx+1")
        r = E("1+2v")
        assert r * f == SkewPoly([r]) * f  # constants pick up no twist

    def test_map_theta(self):
        assert P("vx+1+v").map_theta() == P("2vx+1+2v")

    def test_monic_normalization(self):
        assert P("2x+2").monic() == P("x+1")
        assert P("x+v").monic() == P("x+v")
        with pytest.raises(NonUnitLeadingCoefficient):
            P("vx+1").monic()
        with pytest.raises(ValueError):
            SkewPoly().monic()


class TestRightDivision:
    def test_division_goldens(self):
        q, r = skew_right_divmod(power_minus_constant(2, 1), P("x+1"))
        assert (q, r) == (P("x+2"), SkewPoly())
        q, r = skew_right_divmod(power_minus_constant(2, E("2")), P("x+1"))
        assert (q, r) == (P("x+2"), P("2"))

    def test_self_division(self):
        for text in ("x+1", "x^3+vx+2", "x^2+(1+v)x+2v^2"):
            q, r = skew_right_divmod(P(text), P(text))
            assert q == P("1") and not r

    def test_non_unit_divisor_rejected(self):
        with pytest.raises(NonUnitLeadingCoefficient):
            skew_right_divmod(P("x^2+v"), P("vx"))
        with pytest.raises(ZeroDivisionError):
            skew_right_divmod(P("x"), SkewPoly())

    def test_short_dividend_is_its_own_remainder(self):
        for f in (SkewPoly(), P("v"), P("x+v^2"), P("(1+v)x^2+2")):
            q, r = skew_right_divmod(f, P("x^3+vx+2"))
            assert (q, r) == (SkewPoly(), f)
        # the divisor is refused before the degrees are compared
        with pytest.raises(ZeroDivisionError):
            skew_right_divmod(SkewPoly(), SkewPoly())
        with pytest.raises(NonUnitLeadingCoefficient):
            skew_right_divmod(P("1"), P("vx"))

    def test_results_are_stripped_ring_elements(self):
        rng = random.Random(13)
        for _ in range(200):
            f = random_skew(rng, 8)
            q, r = skew_right_divmod(f, random_unit_lead(rng, rng.randint(0, 4)))
            for p in (q, r):
                assert all(isinstance(c, ring.RingElement) for c in p.coeffs)
                assert p == SkewPoly(p.coeffs) and (not p or p.lead is not ZERO)

    def test_reconstruction_property(self):
        rng = random.Random(7)
        for _ in range(500):
            f = random_skew(rng, 8)
            g = random_unit_lead(rng, rng.randint(0, 4))
            q, r = skew_right_divmod(f, g)
            assert q * g + r == f
            assert r.degree < g.degree

    def test_reconstruction_of_long_dividends(self):
        # one pass over the dividend's degrees: long f against short and
        # long divisors, zero runs in f included
        rng = random.Random(11)
        for _ in range(20):
            f = SkewPoly(
                [rng.choice((ZERO, ZERO, *ELEMENTS)) for _ in range(rng.randint(200, 600))]
            )
            g = random_unit_lead(rng, rng.choice((1, 2, 7, 150)))
            q, r = skew_right_divmod(f, g)
            assert q * g + r == f
            assert r.degree < g.degree

    def test_division_is_linear_in_the_dividend(self):
        # x^99999 by x^2 - 1 ends in the remainder x; a division that
        # rescanned the remainder at every step took over a minute
        start = time.perf_counter()
        assert gcld([P("x^99999"), X], 2, 1) == P("1")
        assert time.perf_counter() - start < 20

    def test_power_minus_constant(self):
        assert power_minus_constant(2, 1) == P("x^2+2")
        assert power_minus_constant(3, E("2")) == P("x^3+1")
        assert power_minus_constant(4, E("1+2v^2")) == P("x^4+2+v^2")


class TestDegreeGuard:
    """x^n - lam for n < 1 is refused by the one check that
    ``poly.modulus`` shares, before any division or module build."""

    ENTRY_POINTS = {
        "modulus": lambda n: modulus(n, ModulusSign.PLUS),
        "power_minus_constant": lambda n: power_minus_constant(n, 1),
        "skew_cyclic_code(1)": lambda n: skew_cyclic_code(P("1"), n),
        "skew_cyclic_code(x+v)": lambda n: skew_cyclic_code(P("x+v"), n),
        "one_generator_sqc": lambda n: one_generator_sqc([P("x+1")], n, 1, 1),
        "monic_right_divisors": lambda n: monic_right_divisors(n, 1),
        "gcld": lambda n: gcld([P("x+1")], n, 1),
        "is_right_divisor": lambda n: is_right_divisor(P("x+1"), n, 1),
        "hermitian_inner_product": lambda n: hermitian_inner_product(
            [P("1")], [P("x")], n, 1
        ),
        "hermitian_conjugate": lambda n: hermitian_conjugate(P("x"), n, 1),
    }

    @pytest.mark.parametrize("n", [-1, 0])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_refused_before_any_build(self, monkeypatch, entry, n):
        def refuse(*args):
            raise AssertionError("built or divided past the degree check")

        for name in ("_skew_module", "skew_right_divmod", "factor"):
            monkeypatch.setattr(skew, name, refuse)
        with pytest.raises(ValueError, match="^length must be positive$") as err:
            self.ENTRY_POINTS[entry](n)
        assert type(err.value) is ValueError


class TestRightDivisors:
    def test_goldens(self):
        assert is_right_divisor(P("x+1"), 2, 1)
        assert is_right_divisor(P("x^3+x^2+x+1"), 12, 1)
        assert not is_right_divisor(P("x+1"), 2, E("2"))

    def test_divisor_list_n2(self):
        divs = monic_right_divisors(2, 1)
        assert [str(d) for d in divs] == [
            "1",
            "x+1",
            "x+2",
            "x+1+v^2",
            "x+2+2v^2",
            "x^2+2",
        ]
        assert [str(d) for d in monic_right_divisors(2, E("2"))] == ["1", "x^2+1"]

    def test_scan_matches_brute_force(self):
        for s in (2, 3):
            for lam in UNITS:
                assert monic_right_divisors(s, lam) == (
                    monic_right_divisors_brute(s, lam)
                )

    def test_divisor_counts(self):
        assert len(monic_right_divisors(3, 1)) == 4
        expected = {
            4: [42, 10, 10, 2, 2, 26, 2, 2],
            5: [4] * 8,
            6: [132, 16, 132, 4, 4, 16, 8, 8],
        }
        for s, counts in expected.items():
            assert [len(monic_right_divisors(s, lam)) for lam in UNITS] == counts, s

    def test_sieve_memory_at_s6(self):
        # s = 6 sieves the 9^3 tails of degree 3 and mirrors the rest;
        # the tails are bits of a few planes, which keeps the traced peak
        # under 64 MB
        tracemalloc.start()
        try:
            monic_right_divisors(6, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    def test_divisor_counts_above_degree_six(self):
        # s = 7 lists are the full sieve's; s = 8 was checked for every
        # unit against the full sieve run on chunks of the tails
        assert [len(monic_right_divisors(7, lam)) for lam in UNITS] == [4] * 8
        assert [len(monic_right_divisors(8, lam)) for lam in UNITS] == [
            1226, 122, 426, 10, 10, 186, 26, 26,
        ]

    def test_mirrored_cofactors_pair_the_degrees(self):
        # mirror(q) for x^s - lam = q*g is an involution on the list
        # that swaps the degrees d and s - d
        for s in range(1, 9):
            for lam in UNITS:
                m = power_minus_constant(s, lam)
                divs = monic_right_divisors(s, lam)
                degrees = [g.degree for g in divs]
                for d in range(s + 1):
                    assert degrees.count(d) == degrees.count(s - d)
                partner = {}
                for g in divs:
                    q, r = skew_right_divmod(m, g)
                    assert not r
                    partner[g] = _mirror(q)
                assert sorted(partner.values(), key=SkewPoly.sort_key) == list(divs)
                for g, h in partner.items():
                    assert h.degree == s - g.degree
                    assert partner[h] == g

    def test_mirror_reverses_products(self):
        for _ in range(200):
            f, g = random_skew(RNG, 4), random_skew(RNG, 4)
            assert _mirror(f * g) == _mirror(g) * _mirror(f)
            assert _mirror(_mirror(f)) == f

    def test_sieve_memory_at_s10(self):
        # only degrees up to 5 are sieved: planes of 9^5 tails, not 9^10
        tracemalloc.start()
        try:
            monic_right_divisors(10, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_sieve_budget(self):
        # s = 14 and 16 need a degree-7 or degree-8 sieve; s = 17 only
        # needs degree 1, since x^17 - 1 = (x - 1) * (irreducible of
        # degree 16) over the ternary field.  x^80 - 1 has 2^23 ternary
        # divisors, which are not listed before the refusal.
        for s in (14, 16, 80):
            start = time.perf_counter()
            with pytest.raises(BudgetExceeded):
                monic_right_divisors(s, 1)
            assert time.perf_counter() - start < 5
        assert len(monic_right_divisors(17, 1)) == 4
        # s = 12 sieves exactly 9^6 tails, the largest sieve admitted
        assert len(monic_right_divisors(12, UNITS[3])) == 20

    def test_lists_and_refusals_are_pinned(self):
        # every s <= 13 and s = 17, all 8 units, against the digests of
        # the grid sieve's lists; s <= 3 is also checked against brute force
        for s, digest in DIVISOR_LIST_DIGESTS.items():
            text = "\n".join(
                f"{lam}: " + " ".join(str(g) for g in monic_right_divisors(s, lam))
                for lam in UNITS
            )
            assert hashlib.sha256(text.encode()).hexdigest() == digest, s
        for s, message in SIEVE_REFUSALS.items():
            with pytest.raises(BudgetExceeded) as refused:
                monic_right_divisors(s, 1)
            assert str(refused.value) == message

    def test_mirrored_divisor_is_confirmed(self, monkeypatch):
        # the cofactor without the twist is no right divisor here
        monkeypatch.setattr(skew, "_mirror", lambda p: p)
        with pytest.raises(SelfCheckFailed):
            monic_right_divisors(3, UNITS[3])

    def test_candidate_the_sieve_rejects_is_refused(self, monkeypatch):
        # a head and a sieved tail always right-divide, so a tail that
        # fails the sieve, appended to its survivors, is a self-check
        # failure and not a silent drop
        real = skew._pair_division_sieve

        def sieve(m, d):
            tails = real(m, d)
            every = itertools.product(itertools.product(range(3), repeat=2), repeat=d)
            return tails + [next(t for t in every if t not in tails)]

        monkeypatch.setattr(skew, "_pair_division_sieve", sieve)
        with pytest.raises(SelfCheckFailed, match="sieved candidate"):
            monic_right_divisors(2, 1)

    def test_all_listed_divide(self):
        for lam in (ONE, E("2+2v^2")):
            m = power_minus_constant(4, lam)
            for d in monic_right_divisors(4, lam):
                assert d.is_monic
                assert not skew_right_divmod(m, d)[1]

    def test_non_unit_constant_rejected(self):
        with pytest.raises(NotAUnit):
            monic_right_divisors(2, V)


class TestSkewCyclicCodes:
    def test_rank_goldens(self):
        assert skew_cyclic_code(P("x+1"), 2).rank == 1
        assert skew_cyclic_code(P("x^3+x^2+x+1"), 12).rank == 9
        assert skew_cyclic_code(P("1"), 4).rank == 4

    def test_gray_dimensions(self):
        code = skew_cyclic_code(P("x+1"), 2)
        assert code.gray_dimension == 3
        assert code.is_free_of_expected_rank
        full = skew_cyclic_code(P("1"), 3)
        assert full.gray_dimension == 9
        zero = skew_cyclic_code(power_minus_constant(2, 1), 2)
        assert zero.rank == 0 and zero.gray_dimension == 0

    def test_unit_lead_normalized(self):
        assert skew_cyclic_code(P("2x+2"), 2).f == P("x+1")

    def test_not_right_divisor(self):
        with pytest.raises(NotRightDivisor):
            skew_cyclic_code(P("x+v"), 2)

    def test_exhaustive_small_lengths(self):
        # every monic right divisor generates a free module of rank
        # n - deg f whose Gray dimension is three times that, closed
        # under the twisted shift
        for n in range(1, 6):
            for f in monic_right_divisors(n, 1):
                code = skew_cyclic_code(f, n)
                assert code.rank == n - f.degree
                assert code.gray_dimension == 3 * code.rank
                assert code.module.is_closed_under(skew_cyclic_shift)

    def test_membership(self):
        f = P("x^3+x^2+x+1")
        code = skew_cyclic_code(f, 12)
        vec = tuple(f.coeff(i) for i in range(12))
        assert code.contains(vec)
        assert code.contains(skew_cyclic_shift(vec))
        assert not code.contains((ONE,) + (ZERO,) * 11)


class TestCounts:
    def test_count_goldens(self):
        assert count_skew_cyclic(1) == 8
        assert count_skew_cyclic(3) == 64
        assert count_skew_cyclic(5) == 64

    def test_even_length_rejected(self):
        with pytest.raises(EvenLength):
            count_skew_cyclic(2)

    def test_formula_on_even_length(self):
        # the bare formula value on the canonical factorization of
        # x^12 - 1 = (x+1)^3 (x+2)^3 (x^2+1)^3
        assert skew_count_formula(12) == 4**9

    def test_formula_counts_component_triples(self):
        # the product-of-cubes formula equals the number of component
        # triples (f1, f2, f3) of commutative divisors, i.e. the number
        # of plain cyclic codes of that length
        for n in (1, 3, 5):
            triples = len(divisors_of_modulus(n, ModulusSign.PLUS)) ** 3
            assert count_skew_cyclic(n) == triples

    def test_true_census_is_squared_formula(self):
        # exhaustive enumeration of ALL submodules closed under the
        # twisted shift (principal closures plus joins): the twisted
        # shift swaps the two non-fixed component slots, forcing those
        # component codes equal, so the true count is the SQUARE of the
        # per-component divisor count, not the cube
        assert _closed_submodule_count(1) == 4
        assert count_skew_cyclic(1) == 8  # the formula counts ideals instead

    def test_divisor_triple_census_n3(self):
        # all 64 divisor-triple cyclic codes are distinct; exactly the
        # 16 with equal last two components are twisted-shift-closed
        divs = divisors_of_modulus(3, ModulusSign.PLUS)
        modules = {}
        closed = []
        for f1, f2, f3 in itertools.product(divs, repeat=3):
            code = RCode.cyclic(3, (f1, f2, f3))
            mod = GrayModule(code.gray_image(), 3)
            modules[(f1, f2, f3)] = mod
            if mod.is_closed_under(skew_cyclic_shift):
                closed.append((f1, f2, f3))
        assert len({m.basis.tobytes() for m in modules.values()}) == 64
        assert len(closed) == 16
        assert all(f2 == f3 for _, f2, f3 in closed)


def _closed_submodule_count(n):
    """Count all Gray submodules closed under the twisted shift by
    principal closures and pairwise joins."""
    lattice = {}
    principal = []
    for w in itertools.product(ELEMENTS, repeat=n):
        m = GrayModule.from_rvectors([w], n).closure([gray_shift(n, twist=True)])
        key = m.basis.tobytes()
        if key not in lattice:
            lattice[key] = m
            principal.append(m)
    frontier = list(principal)
    while frontier:
        new = []
        for a in frontier:
            for b in principal:
                joined = GrayModule(np.vstack([a.basis, b.basis]), n)
                key = joined.basis.tobytes()
                if key not in lattice:
                    lattice[key] = joined
                    new.append(joined)
        frontier = new
    return len(lattice)


class TestOddEquivalence:
    def test_odd_lengths_also_plain_cyclic(self):
        from ternring.skew import odd_equivalence_check

        for n in (1, 3, 5):
            for f in monic_right_divisors(n, 1):
                assert odd_equivalence_check(skew_cyclic_code(f, n))

    def test_zero_code(self):
        from ternring.skew import odd_equivalence_check

        assert odd_equivalence_check(skew_cyclic_code(power_minus_constant(3, 1), 3))

    def test_non_closed_witness(self):
        from ternring.skew import SkewCyclicCode, odd_equivalence_check

        # a subspace that is not shift-closed at all
        mod = GrayModule.from_rvectors([(ONE, ZERO, ZERO)], 3)
        fake = SkewCyclicCode(3, 1, ONE, (P("1"),), P("1"), mod)
        assert not odd_equivalence_check(fake)

    def test_matches_the_ring_side_closure_check(self):
        # the Gray closure against is_closed_under(cyclic_shift) on ring
        # vectors, for every skew cyclic code with n <= 10
        from ternring.skew import odd_equivalence_check

        outcomes = set()
        for n in range(1, 11):
            for f in monic_right_divisors(n, 1):
                code = skew_cyclic_code(f, n)
                closed = code.module.is_closed_under(cyclic_shift)
                assert odd_equivalence_check(code) == closed, (n, f)
                outcomes.add(closed)
        assert outcomes == {True, False}

    def test_reads_no_ring_element(self, monkeypatch):
        # the rank-294 module of length 99 is checked on masks alone; the
        # ring-side check made 29,106 from_gray calls on it
        from ternring.skew import odd_equivalence_check

        code = skew_cyclic_code(P("x+2"), 99)
        calls = []
        real = ring.from_gray

        def spy(gray):
            calls.append(gray)
            return real(gray)

        for module in (ring, rcodes, skew):
            monkeypatch.setattr(module, "from_gray", spy)
        assert odd_equivalence_check(code)
        assert code.module.rank == 294
        assert calls == []


class TestVectorPolyMaps:
    def test_round_trip(self):
        rng = random.Random(3)
        for s, l in ((2, 1), (2, 2), (4, 2), (4, 3)):
            for _ in range(20):
                vec = tuple(rng.choice(ELEMENTS) for _ in range(s * l))
                polys = vector_to_polys(vec, s, l)
                assert len(polys) == l
                assert polys_to_vector(polys, s, l) == vec

    def test_layout(self):
        # s blocks of l symbols; polynomial j reads column j upward
        vec = (E("1"), E("2"), V, ZERO)
        p0, p1 = vector_to_polys(vec, 2, 2)
        assert p0 == P("vx+1")
        assert p1 == P("2")

    def test_length_errors(self):
        with pytest.raises(LengthMismatch):
            vector_to_polys((ONE, ZERO), 2, 2)
        with pytest.raises(LengthMismatch):
            polys_to_vector([P("1")], 2, 2)
        with pytest.raises(LengthMismatch):
            polys_to_vector([P("x^2")], 2, 1)


def _gray_basis_vectors(n):
    eye = np.eye(3 * n, dtype=np.int8)
    return [ungray_vector(row) for row in eye]


def _nabla(lam, l):
    def op(vec):
        return skew_constacyclic_section_shift(vec, lam, l)

    return op


def _window_form_matrices(s, l, lam, window):
    """GF(3) bilinear forms (e, c) -> gray coords of dot(shift^k(e), c)
    for k in the window, evaluated on Gray basis pairs."""
    n = s * l
    basis = _gray_basis_vectors(n)
    op = _nabla(lam, l)
    shifted = [list(basis)]
    for _ in range(max(window)):
        shifted.append([op(v) for v in shifted[-1]])
    forms = []
    for k in window:
        mats = [np.zeros((3 * n, 3 * n), dtype=np.int8) for _ in range(3)]
        for i, e in enumerate(shifted[k]):
            for j, c in enumerate(basis):
                g = ring_inner_product(e, c).gray
                for t in range(3):
                    mats[t][i, j] = g[t]
        forms.extend(mats)
    return forms


def _hermitian_form_matrices(s, l, lam):
    """GF(3) bilinear forms (e, c) -> gray coords of every coefficient
    of the Hermitian pairing, on Gray basis pairs."""
    n = s * l
    basis = _gray_basis_vectors(n)
    polys = [vector_to_polys(v, s, l) for v in basis]
    forms = [np.zeros((3 * n, 3 * n), dtype=np.int8) for _ in range(3 * s)]
    for i in range(3 * n):
        for j in range(3 * n):
            h = hermitian_inner_product(polys[i], polys[j], s, lam)
            for k in range(s):
                g = h.coeff(k).gray
                for t in range(3):
                    forms[3 * k + t][i, j] = g[t]
    return forms


def _span(forms):
    return gf3linalg.row_basis(
        np.array([m.reshape(-1) for m in forms], dtype=np.int8)
    )


def _zero_masks(forms, n):
    """Boolean (3^{3n} x 3^{3n}) masks of common zeros, exhaustive over
    all vector pairs (small n only)."""
    size = 3 ** (3 * n)
    G = np.array(
        list(itertools.product(range(3), repeat=3 * n)), dtype=np.int64
    )
    mask = np.ones((size, size), dtype=bool)
    for m in forms:
        vals = (G @ m.astype(np.int64) @ G.T) % 3
        mask &= vals == 0
    return mask


def termwise_conjugate(p, s, lam):
    """The conjugate of a p of degree below s, term by term: c x^k goes
    to theta^k(c) w_k x^((s - k) mod s), w_0 = theta(lam), w_k = 1 for
    odd k and lam theta(lam) for even k >= 2."""
    out = [ZERO] * s
    for k, c in enumerate(p.coeffs):
        w = lam.theta() if k == 0 else ONE if k % 2 else lam * lam.theta()
        out[(s - k) % s] += (c.theta() if k % 2 else c) * w
    return SkewPoly(out)


class TestHermitianPairing:
    def test_conjugate_is_taken_on_the_quotient(self):
        # p and its remainder modulo x^s - lam have one conjugate, and
        # below degree s it is the termwise formula
        rng = random.Random(11)
        for s in (1, 2, 4, 6):
            for lam in UNITS:
                m = power_minus_constant(s, lam)
                for _ in range(20):
                    p = random_skew(rng, 3 * s - 1)
                    residue = skew_right_divmod(p, m)[1]
                    assert hermitian_conjugate(p, s, lam) == hermitian_conjugate(
                        residue, s, lam
                    )
                    assert hermitian_conjugate(residue, s, lam) == termwise_conjugate(
                        residue, s, lam
                    )
        # deg p >= 2s raised IndexError before p was reduced: x^5 = x mod x^2 - 1
        assert hermitian_conjugate(P("x^5"), 2, 1) == hermitian_conjugate(P("x"), 2, 1)

    def test_conjugate_goldens(self):
        assert hermitian_conjugate(P("1"), 2, 1) == P("1")
        assert hermitian_conjugate(P("x"), 2, 1) == P("x")
        assert hermitian_conjugate(P("vx"), 2, 1) == P("2vx")
        assert hermitian_conjugate(P("v"), 2, 1) == P("v")
        # constant term picks up the twisted wrap constant
        lam = E("1+v+2v^2")  # a unit not fixed by the automorphism
        assert hermitian_conjugate(P("1"), 2, lam) == SkewPoly([lam.theta()])
        # a non-unit is refused, as by the pairing
        with pytest.raises(NotAUnit):
            hermitian_conjugate(P("1"), 2, E("1+v"))

    def test_conjugate_additive(self):
        rng = random.Random(5)
        for lam in UNITS:
            for _ in range(25):
                a, b = random_skew(rng, 3), random_skew(rng, 3)
                assert hermitian_conjugate(a + b, 4, lam) == hermitian_conjugate(
                    a, 4, lam
                ) + hermitian_conjugate(b, 4, lam)

    def test_pairing_goldens(self):
        zero = hermitian_inner_product([SkewPoly()], [SkewPoly()], 2, 1)
        assert not zero
        # e = (1, 0), c = (0, 1): not orthogonal under every shift, and
        # the pairing is nonzero accordingly
        h = hermitian_inner_product([P("1")], [P("x")], 2, 1)
        assert h
        e, c = (ONE, ZERO), (ZERO, ONE)
        shifted = skew_constacyclic_section_shift(e, 1, 1)
        assert ring_inner_product(shifted, c) is ONE

    def test_left_linear(self):
        rng = random.Random(9)
        for _ in range(50):
            a, b = random_skew(rng, 1), random_skew(rng, 1)
            r = rng.choice(ELEMENTS)
            lhs = hermitian_inner_product([r * a], [b], 2, 1)
            rhs = r * hermitian_inner_product([a], [b], 2, 1)
            assert lhs == rhs

    def test_pairing_errors(self):
        with pytest.raises(OddS):
            hermitian_inner_product([P("1")], [P("1")], 3, 1)
        with pytest.raises(LengthMismatch):
            hermitian_inner_product([P("1")], [P("1"), P("x")], 2, 1)
        with pytest.raises(NotAUnit):
            hermitian_inner_product([P("1")], [P("1")], 2, V)

    def test_matches_shifted_window_all_units(self):
        # pairing zero <=> dot(shift^k(e), c) = 0 for k = 1..s,
        # exhaustively over ALL vector pairs via span equality of the
        # bilinear forms, for every unit wrap constant
        for lam in UNITS:
            for l in (1, 2):
                herm = _span(_hermitian_form_matrices(2, l, lam))
                window = _span(_window_form_matrices(2, l, lam, (1, 2)))
                assert gf3linalg.same_row_space(herm, window)

    def test_matches_all_shift_window_when_wrap_fixed(self):
        # for wrap constants fixed by the automorphism the window 1..s
        # equals the window 0..s-1, so the pairing detects orthogonality
        # under every shift including the identity
        for lam in THETA_FIXED_UNITS:
            for s, l in ((2, 1), (2, 2), (4, 1)):
                herm = _span(_hermitian_form_matrices(s, l, lam))
                all_shift = _span(
                    _window_form_matrices(s, l, lam, tuple(range(s)))
                )
                assert gf3linalg.same_row_space(herm, all_shift)

    def test_all_shift_window_needs_fixed_wrap(self):
        # for a wrap constant moved by the automorphism the identity
        # shift is NOT detected: the zero sets genuinely differ
        lam = next(u for u in UNITS if u.theta() is not u)
        herm = _zero_masks(_hermitian_form_matrices(2, 1, lam), 2)
        shifted = _zero_masks(_window_form_matrices(2, 1, lam, (1, 2)), 2)
        all_shift = _zero_masks(_window_form_matrices(2, 1, lam, (0, 1)), 2)
        assert np.array_equal(herm, shifted)  # exhaustive pointwise check
        assert not np.array_equal(herm, all_shift)

    def test_sampled_agreement_s4(self):
        # 2000 sampled pairs at s = 4: the pairing vanishes exactly when
        # every shifted dot product vanishes (fixed wrap constants)
        rng = random.Random(13)
        checked = 0
        for lam in THETA_FIXED_UNITS[:2]:
            for l in (1, 2):
                n = 4 * l
                op = _nabla(lam, l)
                for _ in range(500):
                    e = tuple(rng.choice(ELEMENTS) for _ in range(n))
                    c = tuple(rng.choice(ELEMENTS) for _ in range(n))
                    h = hermitian_inner_product(
                        vector_to_polys(e, 4, l), vector_to_polys(c, 4, l), 4, lam
                    )
                    shifted = e
                    dots_zero = True
                    for _ in range(4):
                        if ring_inner_product(shifted, c) is not ZERO:
                            dots_zero = False
                        shifted = op(shifted)
                    assert bool(h) == (not dots_zero)
                    checked += 1
        assert checked == 2000

    def test_orthogonal_pairs_pair_to_zero(self):
        # build c in the exact null space of all shifted dots of e, then
        # the pairing must vanish
        rng = random.Random(17)
        lam = THETA_FIXED_UNITS[1]
        l, s = 2, 4
        n = s * l
        basis = _gray_basis_vectors(n)
        op = _nabla(lam, l)
        for _ in range(40):
            e = tuple(rng.choice(ELEMENTS) for _ in range(n))
            rows = []
            shifted = e
            for _ in range(s):
                for t in range(3):
                    rows.append(
                        [ring_inner_product(shifted, b).gray[t] for b in basis]
                    )
                shifted = op(shifted)
            null = gf3linalg.null_space(np.array(rows, dtype=np.int8))
            if null.shape[0] == 0:
                continue
            combo = np.array(
                [rng.randrange(3) for _ in range(null.shape[0])], dtype=np.int8
            )
            c = ungray_vector((combo @ null) % 3)
            h = hermitian_inner_product(
                vector_to_polys(e, s, l), vector_to_polys(c, s, l), s, lam
            )
            assert not h


class TestGcld:
    def test_goldens(self):
        assert gcld([P("x+1")], 2, 1) == P("x+1")
        assert gcld([P("2x+2"), P("2x+2")], 2, 1) == P("x+1")
        assert gcld([P("1"), P("x+1")], 2, 1) == P("1")
        assert gcld([], 4, 1) == power_minus_constant(4, 1)
        assert gcld([SkewPoly()], 2, 1) == power_minus_constant(2, 1)

    def test_result_right_divides_inputs(self):
        rng = random.Random(21)
        successes = 0
        for _ in range(200):
            polys = [random_unit_lead(rng, rng.randint(0, 3)) for _ in range(2)]
            try:
                g = gcld(polys, 4, 1)
            except NonUnitLeadingCoefficient:
                continue
            successes += 1
            assert g.is_monic
            for p in polys + [power_minus_constant(4, 1)]:
                assert not skew_right_divmod(p, g)[1]
        assert successes > 50

    def test_common_divisor_divides_result(self):
        rng = random.Random(23)
        checked = 0
        for d in monic_right_divisors(4, 1):
            if d.degree == 0:
                continue
            for _ in range(5):
                f1 = random_unit_lead(rng, rng.randint(0, 2)) * d
                f2 = random_unit_lead(rng, rng.randint(0, 2)) * d
                try:
                    g = gcld([f1, f2], 4, 1)
                except NonUnitLeadingCoefficient:
                    continue
                assert not skew_right_divmod(g, d)[1]
                checked += 1
        assert checked > 50

    def test_chain_failure_raises(self):
        # two monic right divisors whose Euclidean chain hits a
        # zero-divisor leading coefficient
        with pytest.raises(NonUnitLeadingCoefficient):
            gcld([P("x+1"), P("x+1+v^2")], 2, 1)


class TestOneGenerator:
    def test_rank_goldens(self):
        m = one_generator_sqc([P("x+1")], 2, 1, 1)
        assert m.expected_rank == 1
        assert m.gray_dimension == 3
        assert m.is_free_of_expected_rank
        full = one_generator_sqc([P("1"), P("1")], 2, 2, 1)
        assert full.expected_rank == 2
        assert full.gray_dimension == 6
        assert full.is_free_of_expected_rank

    def test_zero_generator(self):
        m = one_generator_sqc([power_minus_constant(2, 1)], 2, 1, 1)
        assert m.gray_dimension == 0
        assert m.expected_rank == 0
        assert m.is_free_of_expected_rank

    def test_closure_under_left_x(self):
        rng = random.Random(31)
        for lam in UNITS:
            divs = [d for d in monic_right_divisors(4, lam) if d.degree < 4]
            for _ in range(3):
                fs = [rng.choice(divs) for _ in range(2)]
                m = one_generator_sqc(fs, 4, 2, lam)
                # left multiplication by x wraps through the modulus
                # relation AFTER the twist passes over the wrapped
                # coefficient: the wrap factor is theta(lam)
                step = _nabla(lam.theta(), 2)
                assert m.module.is_closed_under(step)
        # a wrap constant moved by the automorphism has right divisors
        # other than 1 and x^s - lam from s = 6 on, so only there does a
        # seed step wrap; the divisors of x^6 - theta(lam) are refused
        for lam in _MOVED_UNITS:
            divs = _nontrivial_divisors(6, lam)
            for fs in [[f] for f in divs] + [rng.sample(divs, 2) for _ in range(3)]:
                m = one_generator_sqc(fs, 6, len(fs), lam)
                assert m.module.is_closed_under(_nabla(lam.theta(), len(fs)))
            for f in _nontrivial_divisors(6, lam.theta()):
                with pytest.raises(NotRightDivisor):
                    one_generator_sqc([f], 6, 1, lam)

    def test_left_x_action_wrap_factor(self):
        # pointwise, left multiplication by x sends the vector of
        # (f_1, ..., f_l) to the sectioned shift whose wrap factor is
        # theta(lam): the twist passes over the wrapped coefficient
        # before the modulus relation substitutes lam
        rng = random.Random(37)
        for lam in UNITS:
            for s, l in ((2, 1), (2, 2), (4, 2)):
                for _ in range(10):
                    vec = tuple(rng.choice(ELEMENTS) for _ in range(s * l))
                    polys = vector_to_polys(vec, s, l)
                    xed = [_reduce(X * p, s, lam) for p in polys]
                    assert polys_to_vector(xed, s, l) == (
                        skew_constacyclic_section_shift(vec, lam.theta(), l)
                    )
        # with a wrap constant moved by the automorphism the literal
        # shift disagrees pointwise: x * (c x^{s-1}) reduces to
        # theta(c) * lam, not theta(lam * c)
        moved = next(u for u in UNITS if u.theta() is not u)
        c = V
        vec = (ZERO, c)
        xed = _reduce(X * vector_to_polys(vec, 2, 1)[0], 2, moved)
        assert xed == SkewPoly([c.theta() * moved])
        literal = skew_constacyclic_section_shift(vec, moved, 1)
        assert polys_to_vector([xed], 2, 1) != literal

    def test_membership_and_generators(self):
        f1, f2 = P("x+1"), P("x+2")
        m = one_generator_sqc([f1, f2], 2, 2, 1)
        assert m.contains(polys_to_vector([f1, f2], 2, 2))
        assert m.generators == (f1, f2)
        assert m.n == 4

    def test_l1_always_free(self):
        # single-component modules are free of the predicted rank
        for s in (2, 4):
            for lam in UNITS:
                for f in monic_right_divisors(s, lam):
                    m = one_generator_sqc([f], s, 1, lam)
                    assert m.has_divisor_chain
                    assert m.expected_rank == s - f.degree
                    assert m.is_free_of_expected_rank

    def test_freeness_can_fail_for_mixed_components(self):
        # frozen counterexample: the common-divisor chain succeeds with
        # gcld = x+1 (predicting Gray dimension 9) but the module has
        # Gray dimension 11 -- not even a multiple of 3, hence not free
        f = [P("x+1"), P("x^2+(v+v^2)x+2+v+v^2")]
        m = one_generator_sqc(f, 4, 2, 1)
        assert m.has_divisor_chain
        assert m.common_divisor == P("x+1")
        assert m.expected_rank == 3
        assert m.gray_dimension == 11
        assert not m.is_free_of_expected_rank

    def test_divisor_chain_can_fail(self):
        m = one_generator_sqc([P("x+1"), P("x+1+v^2")], 2, 2, 1)
        assert not m.has_divisor_chain
        with pytest.raises(NonUnitLeadingCoefficient):
            m.expected_rank

    def test_errors(self):
        with pytest.raises(OddS):
            one_generator_sqc([P("1")], 3, 1, 1)
        with pytest.raises(NotAUnit):
            one_generator_sqc([P("1")], 2, 1, V)
        with pytest.raises(NotRightDivisor):
            one_generator_sqc([P("x+v")], 2, 1, 1)
        with pytest.raises(LengthMismatch):
            one_generator_sqc([P("1")], 2, 2, 1)

    def test_immutability(self):
        m = one_generator_sqc([P("x+1")], 2, 1, 1)
        with pytest.raises(AttributeError):
            m.s = 4

    def test_skew_cyclic_codes_are_l1_modules(self):
        # a skew cyclic code is the one-generator module with l = 1 and
        # lam = 1 (even n: sectioned modules need an even s)
        checked = 0
        for n in (2, 4, 6):
            for f in monic_right_divisors(n, 1):
                code = skew_cyclic_code(f, n)
                m = one_generator_sqc([f], n, 1, 1)
                assert code.module.basis.tobytes() == m.module.basis.tobytes(), (n, f)
                assert code.common_divisor == m.common_divisor
                assert (code.f, code.rank) == (f, m.expected_rank)
                checked += 1
        assert checked == 180

    def test_module_budget(self):
        # both entry points share the one builder and its length budget
        n = MAX_MODULE_LENGTH + 2
        with pytest.raises(BudgetExceeded):
            skew_cyclic_code(P("x+2"), n)
        with pytest.raises(BudgetExceeded):
            one_generator_sqc([P("1")] * (n // 2), 2, n // 2, 1)


_MOVED_UNITS = tuple(u for u in UNITS if u.theta() is not u)


def _nontrivial_divisors(s, lam):
    """The monic right divisors of x^s - lam other than 1 and itself."""
    return [d for d in monic_right_divisors(s, lam) if 0 < d.degree < s]


def _seed_closure(fs, s, l, lam):
    """The module that one_generator_sqc must build, by the closure of its
    seeds, and gcld's common divisor (None where gcld raises).  The seeds
    are the ring vectors of x^i * (f_1, ..., f_l) reduced modulo x^s - lam,
    for i below the rank the common divisor predicts (s where its chain
    fails)."""
    try:
        g = gcld(fs, s, lam)
    except NonUnitLeadingCoefficient:
        g = None
    seeds = [
        polys_to_vector([_reduce(SkewPoly.x_power(i) * f, s, lam) for f in fs], s, l)
        for i in range(s if g is None else s - g.degree)
    ]
    left_x = gray_shift(s * l, lam.theta(), l, twist=True)
    return GrayModule.from_rvectors(seeds, s * l).closure([left_x]), g


def _assert_matches_seed_closure(m):
    module, g = _seed_closure(m.generators, m.s, m.l, m.lam)
    assert m.module == module, (m, m.module.rank, module.rank)
    assert m.common_divisor == g, m


class TestModuleBuilder:
    """The builder's shortcuts (no reduction below degree s, the divisor
    chain from the first divisor, one left-x shift per shape, and no
    closure round when the last seed step adds nothing) against the
    closure of the seeds and gcld."""

    def test_every_small_generator_tuple(self):
        checked = 0
        for s, l in ((2, 1), (2, 2), (4, 1)):
            for lam in UNITS:
                divs = monic_right_divisors(s, lam)
                for tup in itertools.product(divs, repeat=l):
                    _assert_matches_seed_closure(one_generator_sqc(tup, s, l, lam))
                    checked += 1
        assert checked == 24 + 96 + 96

    def test_sampled_generator_tuples(self):
        rng = random.Random(47)
        for s, l, per_unit in ((4, 2, 40), (6, 1, 20)):
            for lam in UNITS:
                divs = monic_right_divisors(s, lam)
                for _ in range(per_unit):
                    tup = [rng.choice(divs) for _ in range(l)]
                    _assert_matches_seed_closure(one_generator_sqc(tup, s, l, lam))

    def test_unreduced_and_unnormalized_generators(self):
        # inputs of degree s or more are reduced, and unit leads scaled
        # away, before the divisibility test and the chain
        rng = random.Random(53)
        for lam in UNITS:
            divs = [d for d in monic_right_divisors(4, lam) if d.degree < 4]
            m = power_minus_constant(4, lam)
            for _ in range(4):
                fs = [rng.choice(UNITS) * rng.choice(divs) for _ in range(2)]
                padded = [random_unit_lead(rng, rng.randint(0, 2)) * m + f for f in fs]
                built = one_generator_sqc(padded, 4, 2, lam)
                assert built.generators == tuple(f.monic() for f in fs)
                _assert_matches_seed_closure(built)

    def test_rank_zero_modules(self):
        for lam in UNITS:
            m = power_minus_constant(2, lam)
            for tup in ([m], [m, m], [SkewPoly(), SkewPoly()]):
                built = one_generator_sqc(tup, 2, len(tup), lam)
                assert built.generators == (SkewPoly(),) * len(tup)
                assert built.common_divisor == m
                assert built.gray_dimension == 0
                _assert_matches_seed_closure(built)
        # the truncation of x^n - 1, which the empty seed leaves out
        zero = skew_cyclic_code(power_minus_constant(4, 1), 4)
        assert zero.gray_dimension == 0 and zero.common_divisor == zero.f

    def test_failed_chain_seeds_every_step(self):
        built = one_generator_sqc([P("x+1"), P("x+1+v^2")], 2, 2, 1)
        assert built.common_divisor is None
        _assert_matches_seed_closure(built)

    def test_free_modules_run_no_closure_round(self, monkeypatch):
        # free modules whose seeds are independent; over every tuple at
        # (4, 2), 32 of the 704 free modules still need a round
        def refused(self, maps):
            raise AssertionError("a free module ran a closure round")

        monkeypatch.setattr(GrayModule, "closure", refused)
        for built in (
            one_generator_sqc([P("x+1")], 2, 1, 1),
            one_generator_sqc([P("1"), P("1")], 2, 2, 1),
            one_generator_sqc([P("x+1"), P("x+1")], 4, 2, 1),
            skew_cyclic_code(P("x^3+x^2+x+1"), 12),
        ):
            assert built.is_free_of_expected_rank

    def test_non_free_module_runs_the_closure(self, monkeypatch):
        rounds = []
        closure = GrayModule.closure

        def spied(self, maps):
            rounds.append(self.rank)
            return closure(self, maps)

        monkeypatch.setattr(GrayModule, "closure", spied)
        built = one_generator_sqc([P("x+1"), P("x^2+(v+v^2)x+2+v+v^2")], 4, 2, 1)
        assert built.gray_dimension == 11 and rounds
        monkeypatch.undo()
        _assert_matches_seed_closure(built)

    def test_one_left_x_shift_per_shape(self):
        a = one_generator_sqc([P("x+1"), P("1")], 2, 2, 1)
        b = one_generator_sqc([P("1"), P("x+1")], 2, 2, 1)
        shift = skew._left_x(4, ONE.index, 2)
        assert skew._left_x(4, ONE.index, 2) is shift
        assert a.module.closure([shift]) == a.module
        assert b.module.closure([shift]) == b.module
        assert skew._left_x.cache_info().maxsize is not None
        with pytest.raises(AttributeError):
            shift.n = 5


def _ring_closure(vectors, ops, n):
    """Closure on the ring side: each round takes the basis back to ring
    vectors, applies the ring-level shifts, and maps the images to Gray."""
    current = GrayModule.from_rvectors(vectors, n)
    while True:
        images = [gray_vector(op(v)) for v in current.basis_rvectors() for op in ops]
        if not images:
            return current
        grown = GrayModule(np.vstack([current.basis] + images), n)
        if grown.rank == current.rank:
            return grown
        current = grown


class TestGrayClosure:
    """Closing under gray_shift gives byte for byte the bases that the
    ring-side closure under the matching ring-level shift gives."""

    def test_skew_cyclic_codes(self):
        checked = 0
        for n in range(1, 7):
            for f in monic_right_divisors(n, 1):
                seeds, g = [], f
                for _ in range(n - f.degree):
                    seeds.append(tuple(g.coeff(i) for i in range(n)))
                    g = X * g
                oracle = _ring_closure(seeds, [skew_cyclic_shift], n)
                code = skew_cyclic_code(f, n)
                assert code.module.basis.tobytes() == oracle.basis.tobytes(), (n, f)
                checked += 1
        assert checked == 190

    def test_one_generator_modules(self):
        rng = random.Random(41)
        for s, l in ((2, 1), (2, 2), (2, 3), (2, 4), (4, 1), (4, 2)):
            for lam in UNITS:
                choices = list(monic_right_divisors(s, lam)) + [SkewPoly()]
                for _ in range(6):
                    fs = [rng.choice(choices) for _ in range(l)]
                    m = one_generator_sqc(fs, s, l, lam)
                    seed = polys_to_vector(m.generators, s, l)
                    oracle = _ring_closure([seed], [_nabla(lam.theta(), l)], s * l)
                    assert m.module.basis.tobytes() == oracle.basis.tobytes()
        # with a wrap constant moved by the automorphism, every generator
        # at (6, 1) and every pair at (6, 2) other than 1 and x^6 - lam:
        # a seed step wraps, and a pair whose divisor chain fails seeds
        # every step
        chain_failures = 0
        for lam in _MOVED_UNITS:
            divs = _nontrivial_divisors(6, lam)
            for fs in [(f,) for f in divs] + list(itertools.product(divs, repeat=2)):
                m = one_generator_sqc(fs, 6, len(fs), lam)
                chain_failures += m.common_divisor is None
                seed = polys_to_vector(fs, 6, len(fs))
                oracle = _ring_closure([seed], [_nabla(lam.theta(), len(fs))], 6 * len(fs))
                assert m.module.basis.tobytes() == oracle.basis.tobytes(), (fs, lam)
        assert chain_failures == 32

    def test_random_seeds_and_two_maps(self):
        # seeds that are not divisor-generated, where the wrap constant
        # matters, and a closure under two shifts at once
        rng = random.Random(43)
        for lam in UNITS:
            for s, l in ((2, 1), (2, 2), (3, 2), (4, 2)):
                n = s * l
                seeds = [tuple(rng.choice(ELEMENTS) for _ in range(n))]
                maps = [gray_shift(n, lam, l, twist=True), gray_shift(n)]
                ops = [_nabla(lam, l), cyclic_shift]
                for k in (1, 2):
                    got = GrayModule.from_rvectors(seeds, n).closure(maps[:k])
                    oracle = _ring_closure(seeds, ops[:k], n)
                    assert got.basis.tobytes() == oracle.basis.tobytes()


def _monic(tail):
    return SkewPoly([*tail, ONE])


def _expect_read_off(build, f, s, lam, message):
    """Build the single-generator module of f, zero or monic: it must
    raise NotRightDivisor with the given message exactly when right
    division of x^s - lam by f leaves a remainder, and otherwise have the
    basis of the ring-side closure of the vector of f modulo x^s - lam
    under left multiplication by x.  Returns whether it was refused."""
    divides = not f or not skew_right_divmod(power_minus_constant(s, lam), f)[1]
    try:
        built = build()
    except NotRightDivisor as err:
        assert not divides, (f, s, lam)
        assert str(err) == message
        return True
    assert divides, (f, s, lam)
    seed = polys_to_vector([_reduce(f, s, lam)], s, 1)
    oracle = _ring_closure([seed], [_nabla(lam.theta(), 1)], s)
    assert built.module.basis.tobytes() == oracle.basis.tobytes(), (f, s, lam)
    return False


def _expect_module(f, s, lam):
    """``_expect_read_off`` for one_generator_sqc([f], s, 1, lam); its
    input is reduced modulo x^s - lam and made monic first, and None when
    the reduced input has a leading coefficient that is not a unit."""
    p = _reduce(f, s, lam) if f.degree >= s else f
    if p and not p.lead.is_unit():
        with pytest.raises(NonUnitLeadingCoefficient):
            one_generator_sqc([f], s, 1, lam)
        return None
    p = p.monic() if p else p
    return _expect_read_off(
        lambda: one_generator_sqc([f], s, 1, lam),
        p,
        s,
        lam,
        f"{p} does not right-divide x^{s}-({lam})",
    )


def _expect_code(f, n):
    """``_expect_read_off`` for skew_cyclic_code(f, n), f monic of any
    degree."""
    return _expect_read_off(
        lambda: skew_cyclic_code(f, n), f, n, ONE, f"{f} does not right-divide x^{n}+2"
    )


class TestSingleGeneratorReadOff:
    """skew_cyclic_code, and one_generator_sqc with l = 1 and one input,
    read whether their generator right-divides x^s - lam off its build:
    the refusals are exactly those of right division, with its messages,
    and the accepted builds are the ring-side closures."""

    def test_every_generator_at_s2(self):
        # every nonzero generator of degree below 2, with any leading
        # coefficient, and every monic one of degree 2, reduced first
        outcomes = collections.Counter()
        for lam in UNITS:
            for pair in itertools.product(ELEMENTS, repeat=2):
                for f in (SkewPoly(pair), _monic(pair)):
                    if f:
                        outcomes[_expect_module(f, 2, lam)] += 1
        assert outcomes == {False: 264, True: 3328, None: 8064}

    def test_every_code_with_n_at_most_2(self):
        outcomes = collections.Counter()
        for n in (1, 2):
            for d in range(n + 2):
                for tail in itertools.product(ELEMENTS, repeat=d):
                    outcomes[_expect_code(_monic(tail), n)] += 1
        divisors = len(monic_right_divisors(1, 1)) + len(monic_right_divisors(2, 1))
        assert outcomes[False] == divisors
        assert outcomes[True] == 757 + 20440 - divisors

    def test_sampled_generators(self):
        # about 2,000 monic generators, half of them right divisors
        rng = random.Random(59)
        divisors = functools.lru_cache(maxsize=None)(monic_right_divisors)
        refused = 0
        for i in range(500):
            s, lam = rng.choice((4, 6)), rng.choice(UNITS)
            f = rng.choice(divisors(s, lam))
            refused += _expect_module(f, s, lam)
            tail = [rng.choice(ELEMENTS) for _ in range(rng.randrange(s))]
            refused += _expect_module(_monic(tail), s, lam)
            n = rng.randint(3, 6)
            refused += _expect_code(rng.choice(divisors(n, ONE)), n)
            tail = [rng.choice(ELEMENTS) for _ in range(rng.randrange(n + 2))]
            refused += _expect_code(_monic(tail), n)
        assert 800 < refused < 1000

    def test_error_order_with_two_inputs_and_l1(self):
        # every input is divided before the count is checked, so a
        # non-divisor among two inputs is refused before LengthMismatch
        divisor, other = P("x+1"), P("x+v")
        for pair in ((other, divisor), (divisor, other)):
            with pytest.raises(NotRightDivisor) as err:
                one_generator_sqc(pair, 2, 1, 1)
            assert str(err.value) == "x+v does not right-divide x^2-(1)"
        with pytest.raises(LengthMismatch):
            one_generator_sqc([divisor, divisor], 2, 1, 1)

    def test_single_generators_run_no_division(self, monkeypatch):
        # reduced generators, accepted and refused, and the wrap constant
        # moved by the automorphism
        moved = next(u for u in UNITS if u.theta() is not u)
        moved_divisor = monic_right_divisors(6, moved)[1]
        other_divisor = monic_right_divisors(6, moved.theta())[1]

        def divided(f, g):
            raise AssertionError("a single-generator build divided")

        monkeypatch.setattr(skew, "skew_right_divmod", divided)
        assert skew_cyclic_code(P("x^3+x^2+x+1"), 12).rank == 9
        assert one_generator_sqc([moved_divisor], 6, 1, moved).gray_dimension == 12
        assert one_generator_sqc([P("x+1")], 4, 1, 1).gray_dimension == 9
        with pytest.raises(NotRightDivisor):
            skew_cyclic_code(P("x+v"), 2)
        with pytest.raises(NotRightDivisor):
            one_generator_sqc([P("x+v")], 4, 1, 1)
        with pytest.raises(NotRightDivisor):
            one_generator_sqc([other_divisor], 6, 1, moved)
