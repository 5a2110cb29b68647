"""Tests for ternary polynomial codes: construction, duals,
dual-containment, weight distributions, and minimum distance against
independent oracles (direct enumeration, the weight distribution, and a
support search)."""

import gc
import itertools
import weakref

import numpy as np
import pytest

from ternring import gf3linalg, quantum, ternary
from ternring.errors import (
    BudgetExceeded,
    LengthMismatch,
    NotADivisor,
    SelfCheckFailed,
    ZeroCode,
)
from ternring.poly import ModulusSign, Z3Poly, divisors_of_modulus, modulus, parse_poly
from ternring.ternary import TernaryPolyCode
from test_gf3linalg import int8_rref

P = parse_poly
PLUS, MINUS = ModulusSign.PLUS, ModulusSign.MINUS


def code(n, sign, text):
    return TernaryPolyCode(n, sign, P(text))


def _support_search(c):
    """Oracle: the smallest w such that some word of support size w is
    divisible by g, exhaustive over supports and coefficient patterns, so
    the first hit is exact.  Its cost grows with the distance, not with
    k or n - k, so it reaches codes where both exceed the enumeration cap."""
    deg = c.g.degree
    if deg == 0:
        return 1
    # residue_table[i] = coefficient vector of x^i mod g
    residue_table = np.zeros((c.n, deg), dtype=np.int64)
    r = Z3Poly([1])
    x = Z3Poly.monomial(1)
    for i in range(c.n):
        residue_table[i, : len(r.coeffs)] = r.coeffs
        r = (r * x) % c.g
    # The first support coefficient can be fixed to 1 (scaling by 2
    # preserves both support and divisibility).
    for w in range(1, c.n + 1):
        patterns = np.array(list(itertools.product((1, 2), repeat=w - 1)), dtype=np.int64)
        patterns = np.hstack([np.ones((patterns.shape[0], 1), dtype=np.int64), patterns])
        for support in itertools.combinations(range(c.n), w):
            remainders = (patterns @ residue_table[list(support)]) % 3
            if (~remainders.any(axis=1)).any():
                return w
    raise AssertionError("the support search found no nonzero codeword")


def _first_nonzero_weight(distribution):
    return next(w for w in range(1, len(distribution)) if distribution[w])


def _levels_searched(monkeypatch):
    """Record (t, least weight) of every level the distance search
    enumerates."""
    levels = []
    real = gf3linalg._min_combination_weight

    def spy(ones, twos, n, t):
        weight = real(ones, twos, n, t)
        levels.append((t, weight))
        return weight

    monkeypatch.setattr(gf3linalg, "_min_combination_weight", spy)
    return levels


class TestConstruction:
    def test_dimension_is_length_minus_degree(self):
        c = code(6, PLUS, "x^2+2")
        assert c.k == 4
        assert c.n == 6
        assert c.modulus == P("x^6+2")

    def test_non_monic_generators_are_normalized(self):
        assert code(6, PLUS, "2x^2+1") == code(6, PLUS, "x^2+2")

    def test_non_divisor_rejected(self):
        with pytest.raises(NotADivisor):
            code(4, MINUS, "x^2+x+1")

    def test_full_and_zero_codes(self):
        full = code(5, PLUS, "1")
        assert full.is_full and full.k == 5
        zero = code(5, PLUS, "x^5+2")
        assert zero.is_zero and zero.k == 0

    def test_generator_matrix_rows_are_shifts(self):
        c = code(6, PLUS, "x^2+2")
        m = c.generator_matrix()
        assert m.shape == (4, 6)
        assert list(m[0]) == [2, 0, 1, 0, 0, 0]
        assert list(m[3]) == [0, 0, 0, 2, 0, 1]
        assert gf3linalg.rank(m) == 4

    def test_immutable(self):
        c = code(6, PLUS, "x^2+2")
        with pytest.raises(AttributeError):
            c.k = 2


class TestDual:
    def test_dual_of_evaluation_style_code(self):
        # modulus x^3+1 = (x+1)^3; dual of <x+1> is generated by the
        # monic reciprocal of (x^3+1)/(x+1) = x^2+2x+1 (a palindrome)
        c = code(3, MINUS, "x+1")
        assert c.dual().g == P("x^2+2x+1")

    def test_dual_generator_matches_reference_display(self):
        c = code(10, MINUS, "x^2+1")
        assert str(c.dual().g) == "x^8+2x^6+x^4+2x^2+1"

    def test_dual_dimension(self):
        for n, sign in [(6, PLUS), (8, PLUS), (10, MINUS), (12, MINUS)]:
            for g in divisors_of_modulus(n, sign):
                c = TernaryPolyCode(n, sign, g)
                assert c.k + c.dual().k == n

    def test_dual_is_involution(self):
        for g in divisors_of_modulus(10, MINUS):
            c = TernaryPolyCode(10, MINUS, g)
            assert c.dual().dual() == c

    def test_dual_words_are_orthogonal(self):
        c = code(6, PLUS, "x^2+2")
        d = c.dual()
        gm, dm = c.generator_matrix(), d.generator_matrix()
        assert not np.any(gf3linalg.mat_mul(gm, dm.T))


class TestDualContainment:
    def test_reference_values(self):
        assert code(6, PLUS, "x^2+2").contains_dual()
        assert code(10, MINUS, "x^4+x^3+2x+1").contains_dual()
        assert not code(8, PLUS, "x^2+1").contains_dual()
        assert code(3, MINUS, "x+1").contains_dual()

    def test_divisibility_criterion_matches_subset_check(self):
        for n, sign in [(3, PLUS), (4, MINUS), (6, PLUS), (8, PLUS), (12, MINUS)]:
            for g in divisors_of_modulus(n, sign):
                c = TernaryPolyCode(n, sign, g)
                assert c.contains_dual() == c.contains_dual_by_subset(), (n, sign, g)

    def test_full_code_contains_dual(self):
        assert code(4, PLUS, "1").contains_dual()


class TestContainmentAndMembership:
    def test_contains_follows_divisibility(self):
        big = code(6, PLUS, "x^2+2")
        small = code(6, PLUS, "x^4+x^2+1")
        assert big.contains(small)
        assert not small.contains(big)

    def test_contains_requires_same_ambient(self):
        with pytest.raises(LengthMismatch):
            code(6, PLUS, "x^2+2").contains(code(3, PLUS, "x+2"))

    def test_membership(self):
        c = code(6, PLUS, "x^2+2")
        assert c.membership([2, 0, 1, 0, 0, 0])
        assert not c.membership([1, 0, 0, 0, 0, 0])
        with pytest.raises(LengthMismatch):
            c.membership([1, 0])

    def test_membership_reads_entries_mod_3(self):
        c = code(6, PLUS, "x^2+2")
        assert c.membership([-1, 3, 4, 0, 0, 0])
        assert c.membership(np.array([2, 0, 1, 0, 0, 0], dtype=np.int8))
        assert not c.membership((1, 0, 0, 0, 0, 3))

    @pytest.mark.parametrize(
        "word",
        [[1, 0, 0, 0, 0], [0] * 7, [[2, 0, 1, 0, 0, 0]], [[2], 0, 1, 0, 0, 0], 5],
        ids=["short", "long", "nested", "nested-entry", "scalar"],
    )
    def test_membership_refuses_a_malformed_word(self, word):
        with pytest.raises(LengthMismatch, match="length-6 word"):
            code(6, PLUS, "x^2+2").membership(word)

    def test_all_codewords_are_members(self):
        c = code(6, PLUS, "x^4+x^2+1")
        words = c.codewords()
        assert words.shape == (9, 6)
        for w in words:
            assert c.membership(w)

    def test_codewords_closed_under_cyclic_shift(self):
        c = code(6, PLUS, "x^2+2")
        words = {tuple(int(x) for x in w) for w in c.codewords()}
        for w in words:
            assert (w[-1],) + w[:-1] in words

    def test_codewords_closed_under_negacyclic_shift(self):
        c = code(4, MINUS, "x^2+x+2")
        words = {tuple(int(x) for x in w) for w in c.codewords()}
        for w in words:
            assert ((-w[-1]) % 3,) + w[:-1] in words


class TestMinDistance:
    def test_reference_distances(self):
        assert code(6, PLUS, "x^2+2").min_distance() == 2
        assert code(10, MINUS, "x^4+x^3+2x+1").min_distance() == 4
        assert code(3, MINUS, "x+1").min_distance() == 2
        assert code(12, PLUS, "x^3+x^2+x+1").min_distance() == 2
        assert code(27, PLUS, "x^6+x^3+1").min_distance() == 2
        assert code(30, PLUS, "x^4+x^3+x^2+x+1").min_distance() == 2

    def test_full_code_distance_one(self):
        assert code(5, PLUS, "1").min_distance() == 1

    def test_zero_code_raises(self):
        with pytest.raises(ZeroCode):
            code(5, PLUS, "x^5+2").min_distance()

    def test_engines_agree(self):
        # all 242 divisor codes with n <= 12, both signs: min_distance
        # against the two oracles, direct enumeration of the code and the
        # support search
        seen = 0
        for n in range(1, 13):
            for sign in (PLUS, MINUS):
                for g in divisors_of_modulus(n, sign):
                    c = TernaryPolyCode(n, sign, g)
                    seen += 1
                    if c.k == 0:
                        with pytest.raises(ZeroCode):
                            c.min_distance()
                        with pytest.raises(ValueError):
                            gf3linalg.min_weight(c.generator_matrix())
                        continue
                    d = c.min_distance()
                    assert d == gf3linalg.min_weight(c.generator_matrix()), (n, sign, g)
                    assert d == _support_search(c), (n, sign, g)
        assert seen == 242

    def test_distance_matches_exhaustive_weight(self):
        c = code(10, MINUS, "x^4+x^3+2x+1")
        words = c.codewords()
        weights = (words != 0).sum(axis=1)
        assert int(weights[weights > 0].min()) == 4

    def test_beyond_enumeration_cap_uses_dual_side(self):
        # k = 16 > 14: the weight distribution comes from the 2-dimensional
        # dual, and its first nonzero weight, the distance and the support
        # search agree
        c = code(18, PLUS, "x^2+x+1")
        assert c.k == 16
        assert c.min_distance() == _support_search(c) == 2
        assert _first_nonzero_weight(c.weight_distribution()) == 2
        with pytest.raises(BudgetExceeded):
            gf3linalg.min_weight(c.generator_matrix())

    def test_matches_weight_distribution_through_n24(self):
        # all 1,924 nonzero divisor codes with n <= 24, both signs, many
        # of them with k > 14 (distribution from the dual by MacWilliams)
        seen = 0
        for n in range(1, 25):
            for sign in (PLUS, MINUS):
                for g in divisors_of_modulus(n, sign):
                    c = TernaryPolyCode(n, sign, g)
                    if c.k == 0:
                        continue
                    seen += 1
                    assert c.min_distance() == _first_nonzero_weight(
                        c.weight_distribution()
                    ), (n, sign, g)
        assert seen == 1924

    def test_past_both_caps_matches_support_search(self):
        # n = 32 neg: every divisor code whose k and n - k both exceed 14,
        # where neither enumeration side runs
        checked = 0
        for g in divisors_of_modulus(32, MINUS):
            c = TernaryPolyCode(32, MINUS, g)
            if min(c.k, c.n - c.k) > gf3linalg.MAX_ENUMERATION_DIM:
                checked += 1
                assert c.min_distance() == _support_search(c), g
        assert checked

    def test_lowered_cap_leaves_distance_unchanged(self, monkeypatch):
        # the enumeration cap belongs to gf3linalg's enumerators alone:
        # lowering it to 2 changes no distance of a divisor code n <= 10,
        # and each still matches direct enumeration
        codes = [
            TernaryPolyCode(n, sign, g)
            for n in range(1, 11)
            for sign in (PLUS, MINUS)
            for g in divisors_of_modulus(n, sign)
            if n - g.degree > 0
        ]
        before = [c.min_distance() for c in codes]
        monkeypatch.setattr(gf3linalg, "MAX_ENUMERATION_DIM", 2)
        for c, d in zip(codes, before):
            assert c.min_distance() == d, c
            weights = np.count_nonzero(c.codewords(), axis=1)
            assert d == int(weights[weights > 0].min()), c
        assert any(min(c.k, c.n - c.k) > 2 for c in codes)

    def test_search_stops_at_first_certified_level(self, monkeypatch):
        # levels run 1, 2, ..., T with no gap, and the search stops before
        # level t exactly when (best - 1) * k < t * n or every level is done
        levels = _levels_searched(monkeypatch)
        stopped_early = 0
        for n in range(1, 13):
            for sign in (PLUS, MINUS):
                for g in divisors_of_modulus(n, sign):
                    c = TernaryPolyCode(n, sign, g)
                    if c.k == 0:
                        continue
                    levels.clear()
                    d = c.min_distance()
                    assert [t for t, _ in levels] == list(range(1, len(levels) + 1))
                    best = n + 1
                    for t, weight in levels:
                        assert (best - 1) * c.k >= t * n, (n, sign, g, t)
                        best = min(best, weight)
                    assert best == d
                    last = len(levels)
                    if last < c.k:
                        stopped_early += 1
                        assert (best - 1) * c.k < (last + 1) * n, (n, sign, g)
        assert stopped_early

    def test_search_enumerates_few_levels(self, monkeypatch):
        # a [40, 20, 11] cyclic code: (11 - 1) * 20 < 6 * 40 certifies it
        # after level 5, against 3^20 words for either enumeration side
        levels = _levels_searched(monkeypatch)
        c = code(
            40, PLUS,
            "x^20+x^19+x^18+2x^16+2x^13+x^12+x^11+2x^10+x^7+x^6+2x^5+2x^4+x^2+2x+1",
        )
        assert c.min_distance() == 11
        assert [t for t, _ in levels] == [1, 2, 3, 4, 5]

    def test_distance_budget_refuses_before_level(self, monkeypatch):
        # the [11, 6, 5] ternary Golay code enumerates 6 + 30 = 36 words at
        # levels 1 and 2; a budget of 20 lets level 1 run and refuses
        # level 2 before any of its words are made
        levels = _levels_searched(monkeypatch)
        c = code(11, PLUS, "x^5+2x^3+x^2+2x+2")
        assert c.min_distance() == 5
        assert [t for t, _ in levels] == [1, 2]
        levels.clear()
        monkeypatch.setattr(ternary, "MAX_DISTANCE_WORDS", 20)
        with pytest.raises(BudgetExceeded, match=r"\[11, 6\] code .* level t = 2"):
            c.min_distance()
        assert [t for t, _ in levels] == [1]

    def test_systematic_masks_match_rref(self):
        # [I_k | P] from the remainders of powers of x is the reduced
        # echelon form of the shifts of g: every nonzero divisor code with
        # n <= 30 and every dual-containing generator with n <= 40, both
        # signs, against the int8 elimination oracle
        codes = [
            TernaryPolyCode(n, sign, g)
            for n in range(1, 31)
            for sign in (PLUS, MINUS)
            for g in divisors_of_modulus(n, sign)
            if g.degree < n
        ] + [
            TernaryPolyCode(n, sign, g)
            for n in range(31, 41)
            for sign in (PLUS, MINUS)
            for g in quantum._dual_containing_generators(n, sign)
        ]
        assert len(codes) == 4550
        for c in codes:
            reduced, pivots = int8_rref(c.generator_matrix())
            assert pivots == tuple(range(c.k))
            masks = gf3linalg._unpack_masks(*c._systematic_masks(), c.n)
            assert np.array_equal(masks, reduced), c

    def test_distance_builds_no_generator_matrix(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("min_distance eliminated a matrix")

        monkeypatch.setattr(TernaryPolyCode, "generator_matrix", refuse)
        monkeypatch.setattr(gf3linalg, "rref", refuse)
        assert code(11, PLUS, "x^5+2x^3+x^2+2x+2").min_distance() == 5

    def test_non_divisor_fails_self_check(self):
        # the remainder recurrence ends at -x^(-n) mod g only when g
        # divides the modulus and g(0) != 0; a non-divisor that bypasses
        # __init__ is refused instead of answered, for every monic
        # non-divisor g with 0 < deg g < n <= 6, both signs (with g(0) = 0,
        # 33 of those with n <= 8 would end at the right constant)
        refused = 0
        for n in range(2, 7):
            for sign in (PLUS, MINUS):
                divisors = set(divisors_of_modulus(n, sign))
                for degree in range(1, n):
                    for tail in itertools.product((0, 1, 2), repeat=degree):
                        g = Z3Poly([*tail, 1])
                        if g in divisors:
                            continue
                        c = object.__new__(TernaryPolyCode)
                        for name, value in (
                            ("n", n), ("sign", sign), ("g", g), ("k", n - degree)
                        ):
                            object.__setattr__(c, name, value)
                        with pytest.raises(SelfCheckFailed, match="does not divide"):
                            c.min_distance()
                        refused += 1
        assert refused == 1040

    def test_trusted_refuses_a_generator_above_the_length(self):
        # k < 0 would leave min_distance no level, so no chain to check
        with pytest.raises(SelfCheckFailed, match="does not divide"):
            TernaryPolyCode._trusted(3, PLUS, P("x^4+1"))
        assert TernaryPolyCode._trusted(3, PLUS, P("x^3+2")).k == 0

    def test_trusted_refuses_a_generator_of_the_length_but_the_modulus(self):
        # k = 0 leaves min_distance no level too: only x^n -+ 1 is held
        for sign, g in ((PLUS, "x^3+x+1"), (PLUS, "x^3+1"), (MINUS, "x^3+2")):
            with pytest.raises(SelfCheckFailed, match="does not divide"):
                TernaryPolyCode._trusted(3, sign, P(g))
        assert TernaryPolyCode._trusted(3, MINUS, P("x^3+1")).is_zero

    def test_unknown_method(self):
        # one entry point: the former engines are oracles reached
        # directly, not through a method argument
        with pytest.raises(TypeError):
            code(6, PLUS, "x^2+2").min_distance("guess")
        with pytest.raises(TypeError):
            code(6, PLUS, "x^2+2").min_distance(method="enumerate")

    def test_instance_collectable_after_distance(self):
        c = code(10, MINUS, "x^4+x^3+2x+1")
        assert c.min_distance() == 4
        ref = weakref.ref(c)
        del c
        gc.collect()
        assert ref() is None


def _weights_by_bincount(c):
    weights = np.count_nonzero(c.codewords(), axis=1)
    return [int(a) for a in np.bincount(weights, minlength=c.n + 1)]


class TestWeightDistribution:
    def test_matches_codeword_enumeration(self):
        # every divisor code with n <= 10, both signs; for k > n - k the
        # distribution comes from the dual through MacWilliams
        for n in range(1, 11):
            for sign in (PLUS, MINUS):
                for g in divisors_of_modulus(n, sign):
                    c = TernaryPolyCode(n, sign, g)
                    assert c.weight_distribution() == _weights_by_bincount(c), (
                        n, sign, g,
                    )

    def test_reference_code(self):
        # [10, 6, 4] negacyclic code: 3^6 words, least nonzero weight 4
        dist = code(10, MINUS, "x^4+x^3+2x+1").weight_distribution()
        assert sum(dist) == 3**6
        assert dist[:4] == [1, 0, 0, 0]
        assert dist[4] > 0

    def test_full_and_zero_codes(self):
        full = code(4, PLUS, "1").weight_distribution()
        assert full == [
            2**w * len(list(itertools.combinations(range(4), w))) for w in range(5)
        ]
        assert code(4, PLUS, "x^4+2").weight_distribution() == [1, 0, 0, 0, 0]

    def test_distribution_builds_no_generator_matrix(self, monkeypatch):
        # the systematic rows go straight to the enumeration kernel, on
        # the code's side (k <= n - k) and on the dual's
        c = code(10, MINUS, "x^4+x^3+2x+1")
        codes = [c, c.dual()]
        assert [c.k <= c.n - c.k for c in codes] == [False, True]
        expected = [_weights_by_bincount(c) for c in codes]

        def refuse(*args):
            raise AssertionError("weight_distribution eliminated a matrix")

        monkeypatch.setattr(TernaryPolyCode, "generator_matrix", refuse)
        monkeypatch.setattr(gf3linalg, "rref", refuse)
        monkeypatch.setattr(gf3linalg, "_eliminate", refuse)
        assert [c.weight_distribution() for c in codes] == expected

    def test_macwilliams_mismatch_raises(self, monkeypatch):
        # a corrupted dual-side count cannot pass the transform's checks
        c = code(10, MINUS, "x^4+x^3+2x+1")
        assert c.k > c.n - c.k
        real = gf3linalg._weight_distribution

        def corrupted(rows, n):
            dist = real(rows, n)
            dist[-1] += 1
            return dist

        monkeypatch.setattr(gf3linalg, "_weight_distribution", corrupted)
        with pytest.raises(SelfCheckFailed):
            c.weight_distribution()
        # the distance search reads no weight distribution
        assert c.min_distance() == 4
