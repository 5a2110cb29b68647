"""Unit tests for GF(3) polynomial arithmetic and factorization."""

import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from ternring import (
    Factorization,
    ModulusSign,
    Z3Poly,
    divisors_of_modulus,
    factor,
    gcd,
    gf3linalg,
    modulus,
    monic_irreducibles,
    parse_poly,
    poly,
)
from ternring.ring import format_ring_poly
from ternring.errors import (
    BothZero,
    BudgetExceeded,
    ConstantPolynomial,
    DivisionByZeroPoly,
    SelfCheckFailed,
    ZeroPolynomial,
)

P = parse_poly
X = Z3Poly.monomial(1)

# Frozen canonical factorizations, independently checked by expanding the
# right-hand side over GF(3).
GOLDEN_FACTORIZATIONS = {
    "x^3+1": "(x+1)^3",
    "x^6+2": "(x+1)^3(x+2)^3",
    "x^8+2": "(x+1)(x+2)(x^2+1)(x^2+x+2)(x^2+2x+2)",
    "x^10+1": "(x^2+1)(x^4+x^3+2x+1)(x^4+2x^3+x+1)",
    "x^12+2": "(x+1)^3(x+2)^3(x^2+1)^3",
    "x^12+1": "(x^2+x+2)^3(x^2+2x+2)^3",
    "x^27+2": "(x+2)^27",
    "x^30+2": "(x+1)^3(x+2)^3(x^4+x^3+x^2+x+1)^3(x^4+2x^3+x^2+2x+1)^3",
}

# Counts of monic irreducibles over GF(3) by degree (necklace counting).
IRREDUCIBLE_COUNTS = {1: 3, 2: 3, 3: 8, 4: 18}


def random_poly(rng, max_degree):
    degree = rng.randrange(-1, max_degree + 1)
    if degree < 0:
        return Z3Poly(())
    coeffs = [rng.randrange(3) for _ in range(degree)] + [rng.randrange(1, 3)]
    return Z3Poly(coeffs)


# -- the coefficient-tuple arithmetic Z3Poly was built on, kept as its
# oracle: ascending tuples in 0..2 without trailing zeros, O(deg^2) loops


def trimmed(coeffs):
    cs = [c % 3 for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def tuple_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return trimmed(x + (b[i] if i < len(b) else 0) for i, x in enumerate(a))


def tuple_neg(a):
    return trimmed(-c for c in a)


def tuple_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trimmed(out)


def tuple_divmod(a, b):
    """Quotient and remainder by a nonzero b, which may be non-monic."""
    rem = list(a)
    dq = len(rem) - len(b)
    if dq < 0:
        return (), a
    inv_lead = b[-1]  # 1 and 2 are their own inverses mod 3
    quot = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        coef = rem[k + len(b) - 1] * inv_lead % 3
        if coef:
            quot[k] = coef
            for j, y in enumerate(b):
                rem[k + j] = (rem[k + j] - coef * y) % 3
    return trimmed(quot), trimmed(rem[: len(b) - 1])


def tuple_monic(a):
    return trimmed(a[-1] * c for c in a)


def tuple_gcd(a, b):
    while b:
        a, b = b, tuple_divmod(a, b)[1]
    return tuple_monic(a)


def tuple_evaluate(a, t):
    acc = 0
    for c in reversed(a):
        acc = (acc * t + c) % 3
    return acc


def tuple_order(a):
    """By degree, then the coefficients from the leading term down."""
    return (len(a) - 1, tuple(reversed(a)))


# coefficient lists up to degree 130 (masks of one, two and three 64-bit
# limbs), entries outside 0..2 standing for their residues
coefficient_lists = st.lists(st.integers(-3, 5), max_size=131)


class TestConstruction:
    def test_normalization(self):
        assert Z3Poly([1, 2, 0, 0]).coeffs == (1, 2)
        assert Z3Poly([4, -1]).coeffs == (1, 2)
        assert Z3Poly([0, 0]).coeffs == ()

    def test_degree(self):
        assert Z3Poly(()).degree == -1
        assert Z3Poly([2]).degree == 0
        assert P("x^4+2x^3+x+1").degree == 4

    def test_monomial(self):
        assert Z3Poly.monomial(3).coeffs == (0, 0, 0, 1)
        assert Z3Poly.monomial(0, 2).coeffs == (2,)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            X.coeffs = (1,)

    def test_is_monic(self):
        assert P("x^2+2").is_monic
        assert not P("2x^2+1").is_monic
        assert not Z3Poly(()).is_monic


class TestTextForms:
    def test_parse_descending_text(self):
        assert P("x^4+2x^3+x+1").coeffs == (1, 1, 0, 2, 1)
        assert P("x^2+2").coeffs == (2, 0, 1)
        assert P("2") == Z3Poly([2])
        assert P("0") == Z3Poly(())
        assert P("x") == X

    def test_parse_minus_signs(self):
        assert P("x^2-1") == P("x^2+2")
        assert P("x^3-x") == P("x^3+2x")
        assert P("x-1").coeffs == (2, 1)
        assert P("-x+1").coeffs == (1, 2)
        assert P("x^2-x").coeffs == (0, 2, 1)
        assert P("2x^3-2").coeffs == (1, 0, 0, 2)

    def test_parse_bracket_vector_is_ascending(self):
        assert P("[1,1,0,2,1]") == P("x^4+2x^3+x+1")
        assert P("[0,0,1]") == P("x^2")

    def test_str_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            f = random_poly(rng, 9)
            assert P(str(f)) == f

    @given(st.lists(st.integers(0, 2), max_size=16))
    def test_str_and_bracket_round_trips(self, coeffs):
        f = Z3Poly(coeffs)
        assert P(str(f)) == f
        # the ascending bracket form, trailing zeros and all
        assert P("[" + ",".join(map(str, coeffs)) + "]") == f

    @given(coefficient_lists)
    def test_str_lays_out_the_coefficients(self, coeffs):
        # read off the masks, as format_ring_poly reads the coefficients
        f = Z3Poly(coeffs)
        assert str(f) == format_ring_poly(f.coeffs)

    def test_str_of_long_dense_polynomials(self):
        # the one pass over the masks' digits against the coefficients,
        # past one machine word and up to degree 2000
        rng = random.Random(11)
        for _ in range(60):
            f = random_poly(rng, 2000)
            assert str(f) == format_ring_poly(f.coeffs)
        for degree in (63, 64, 65, 1999, 2000):
            f = Z3Poly([rng.randrange(3) for _ in range(degree)] + [2])
            assert str(f) == format_ring_poly(f.coeffs)

    def test_str_examples(self):
        assert str(P("x^4+2x^3+x+1")) == "x^4+2x^3+x+1"
        assert str(Z3Poly(())) == "0"
        assert str(Z3Poly([0, 2])) == "2x"

    def test_parse_rejects_garbage(self):
        for bad in ["", "y+1", "x^", "x**2", "1..2", "x+", "+x", "x++1", "x+-1", "-", "x-"]:
            with pytest.raises(ValueError):
                P(bad)

    def test_parse_bounds_exponents(self):
        assert P("x^100000").degree == 100000
        for bad in ["x^100001", "x^2000000000", "1+x^2000000000"]:
            with pytest.raises(ValueError, match="exponent"):
                P(bad)


class TestArithmetic:
    def test_char_three(self):
        assert P("x+1") + P("x+1") + P("x+1") == Z3Poly(())
        assert (P("x+1") ** 3) == P("x^3+1")

    def test_power_is_repeated_product(self):
        rng = random.Random(5)
        polys = [Z3Poly(()), Z3Poly([2]), X, *(random_poly(rng, 5) for _ in range(10))]
        for f in polys:
            power = Z3Poly([1])
            for k in range(21):
                assert f**k == power, (f, k)
                power = power * f
        with pytest.raises(ValueError, match="negative"):
            X ** -1

    def test_product_example(self):
        assert P("x+1") * P("x+2") == P("x^2+2")

    def test_divmod_examples(self):
        assert divmod(P("x^2+2"), P("x+1")) == (P("x+2"), Z3Poly(()))
        assert divmod(P("x^3+1"), P("x+1")) == (P("x^2+2x+1"), Z3Poly(()))
        assert divmod(P("x+1"), P("x^2")) == (Z3Poly(()), P("x+1"))

    def test_divmod_non_monic_divisor(self):
        q, r = divmod(P("x^3+2x+1"), P("2x+1"))
        assert q * P("2x+1") + r == P("x^3+2x+1")
        assert r.degree < 1

    def test_divmod_property(self):
        rng = random.Random(11)
        for _ in range(500):
            f = random_poly(rng, 12)
            g = random_poly(rng, 6)
            if g.degree < 0:
                continue
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.degree < g.degree

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZeroPoly):
            divmod(P("x+1"), Z3Poly(()))

    def test_mask_division_refuses_a_divisor_that_is_not_monic(self):
        # the mask step reads the degree off the ones plane, so without
        # the check a leading 2 would never be cleared
        f, g = P("x^3+2x+1"), P("2x+2")
        start = time.perf_counter()
        for g1, g2 in ((g.ones, g.twos), (0, 0), (0, 1)):
            with pytest.raises(ValueError):
                poly._divided(f.ones, f.twos, g1, g2)
        assert time.perf_counter() - start < 1
        # the same masks normalised divide
        q, r = divmod(f, -g)
        assert poly._divided(f.ones, f.twos, g.twos, g.ones) == (
            q.ones, q.twos, r.ones, r.twos
        )

    def test_divides(self):
        assert P("x+1").divides(P("x^3+1"))
        assert not P("x+2").divides(P("x^3+1"))

    def test_evaluate(self):
        f = P("x^2+2x+2")
        assert [f.evaluate(t) for t in range(3)] == [2, 2, 1]

    def test_derivative(self):
        assert P("x^3+x^2+2x+1").derivative() == P("2x+2")
        assert P("x^3+1").derivative() == Z3Poly(())


    @given(coefficient_lists, coefficient_lists, st.integers(-3, 5), st.data())
    def test_operations_match_the_tuple_oracle(self, a, b, t, data):
        f, g = Z3Poly(a), Z3Poly(b)
        fa, gb = trimmed(a), trimmed(b)
        assert (f.coeffs, g.coeffs) == (fa, gb)
        assert (f.degree, f.constant) == (len(fa) - 1, fa[0] if fa else 0)
        assert (f + g).coeffs == tuple_add(fa, gb)
        assert (f - g).coeffs == tuple_add(fa, tuple_neg(gb))
        assert (-f).coeffs == tuple_neg(fa)
        assert (f * g).coeffs == tuple_mul(fa, gb)
        # integers are constant polynomials on either side
        assert (t + f).coeffs == (f + t).coeffs == tuple_add(fa, trimmed([t]))
        assert (t - f).coeffs == tuple_add(trimmed([t]), tuple_neg(fa))
        assert (t * f).coeffs == (f * t).coeffs == tuple_mul(fa, trimmed([t]))
        if gb:
            q, r = f.divmod(g)
            assert (q.coeffs, r.coeffs) == tuple_divmod(fa, gb)
            assert (f // g, f % g) == (q, r)
        if fa or gb:
            assert gcd(f, g).coeffs == tuple_gcd(fa, gb)
        if fa:
            assert (f.leading, f.is_monic) == (fa[-1], fa[-1] == 1)
            assert f.monic().coeffs == tuple_monic(fa)
            assert f.reciprocal().coeffs == trimmed(reversed(fa))
        assert f.derivative().coeffs == trimmed([i * c for i, c in enumerate(fa)][1:])
        assert f.evaluate(t) == tuple_evaluate(fa, t)
        assert str(f) == str(Z3Poly(fa)) and P(str(f)) == f
        # a copy with one coefficient redrawn: equal and hashed alike
        # exactly when the coefficients are, ordered as the oracle orders
        i = data.draw(st.integers(0, len(a))) if a else 0
        c = data.draw(st.integers(0, 2))
        h = Z3Poly([*a[:i], c, *a[i + 1 :]])
        ha = h.coeffs
        for x, xa in ((g, gb), (h, ha), (Z3Poly(fa), fa)):
            assert (f == x) == (fa == xa)
            assert (f < x) == (tuple_order(fa) < tuple_order(xa))
            if fa == xa:
                assert hash(f) == hash(x)
        assert sorted([h, g, f]) == [
            Z3Poly(p) for p in sorted([ha, gb, fa], key=tuple_order)
        ]


class TestGcd:
    def test_examples(self):
        assert gcd(P("x+1"), P("x^3+1")) == P("x+1")
        assert gcd(P("x^2+2x+1"), P("x^3+1")) == P("x^2+2x+1")
        assert gcd(P("x^2+1"), P("x^10+1")) == P("x^2+1")

    def test_result_is_monic(self):
        assert gcd(P("2x+2"), P("2x^2+2x")) == P("x+1")
        assert gcd(P("2x+2"), P("2x^2+2")) == Z3Poly([1])

    def test_zero_cases(self):
        assert gcd(P("2x+2"), Z3Poly(())) == P("x+1")
        assert gcd(Z3Poly(()), P("x^2")) == P("x^2")
        with pytest.raises(BothZero):
            gcd(Z3Poly(()), Z3Poly(()))

    def test_divides_both_and_is_maximal(self):
        rng = random.Random(13)
        for _ in range(200):
            f = random_poly(rng, 8)
            g = random_poly(rng, 8)
            if f.degree < 0 and g.degree < 0:
                continue
            d = gcd(f, g)
            assert d.is_monic
            if f.degree >= 0:
                assert d.divides(f)
            if g.degree >= 0:
                assert d.divides(g)
            # common divisors of f and g divide the gcd
            shared = random_poly(rng, 3)
            if shared.degree >= 0:
                fs, gs = f * shared, g * shared
                if fs.degree >= 0 or gs.degree >= 0:
                    assert shared.monic().divides(gcd(fs, gs))


class TestReciprocal:
    def test_examples(self):
        assert P("x^2+2").reciprocal() == P("2x^2+1")
        assert P("x^4+x^3+2x+1").reciprocal() == P("x^4+2x^3+x+1")
        assert P("x+1").reciprocal() == P("x+1")

    def test_zero_raises(self):
        with pytest.raises(ZeroPolynomial):
            Z3Poly(()).reciprocal()

    def test_multiplicative(self):
        rng = random.Random(17)
        for _ in range(200):
            f = random_poly(rng, 7)
            g = random_poly(rng, 7)
            if f.degree < 0 or g.degree < 0:
                continue
            assert (f * g).reciprocal() == f.reciprocal() * g.reciprocal()

    def test_involution_when_constant_term_nonzero(self):
        rng = random.Random(19)
        for _ in range(200):
            f = random_poly(rng, 7)
            if f.degree < 0 or f.constant == 0:
                continue
            assert f.reciprocal().reciprocal() == f


class TestFactor:
    @pytest.mark.parametrize("poly_text,factored", sorted(GOLDEN_FACTORIZATIONS.items()))
    def test_golden_factorizations(self, poly_text, factored):
        assert str(factor(P(poly_text))) == factored

    def test_expansion_reconstructs(self):
        for poly_text in GOLDEN_FACTORIZATIONS:
            f = P(poly_text)
            assert factor(f).expand() == f

    def test_unit_is_tracked(self):
        fz = factor(P("2x^2+2"))
        assert fz.unit == 2
        assert fz.factors == ((P("x^2+1"), 1),)
        assert str(fz) == "2(x^2+1)"

    def test_round_trip_random(self):
        rng = random.Random(23)
        for _ in range(1000):
            f = random_poly(rng, 24)
            if f.degree < 1:
                continue
            fz = factor(f)
            assert fz.expand() == f
            for p, mult in fz.factors:
                assert p.is_monic
                assert mult >= 1

    def test_known_multiplicities(self):
        # 2 * prod p_i^e_i over distinct irreducibles of degree <= 4; an
        # exponent of 3, 6 or 9 sends its factor through the cube root
        rng = random.Random(31)
        pool = monic_irreducibles(4)
        for _ in range(60):
            parts = tuple(
                (p, rng.randint(1, 10))
                for p in sorted(rng.sample(pool, rng.randint(1, 4)))
            )
            f = Z3Poly([2])
            for p, e in parts:
                for _ in range(e):
                    f = f * p
            assert factor(f) == Factorization(2, parts)

    def test_factors_sorted_canonically(self):
        for poly_text in GOLDEN_FACTORIZATIONS:
            factors = [p for p, _ in factor(P(poly_text)).factors]
            assert factors == sorted(factors)
            assert len(set(factors)) == len(factors)

    def test_canonical_order_is_leading_coefficient_first(self):
        assert P("x^4+x^3+2x+1") < P("x^4+2x^3+x+1")
        assert P("x+1") < P("x+2") < P("x^2")

    def test_squarefree_when_length_coprime_to_three(self):
        for n in [1, 2, 4, 5, 7, 8, 10, 11, 13, 14, 16, 20]:
            for sign in ModulusSign:
                for _, mult in factor(modulus(n, sign)).factors:
                    assert mult == 1

    def test_cubed_structure_when_length_divisible_by_three(self):
        for n in [3, 6, 12, 30]:
            for sign in ModulusSign:
                for _, mult in factor(modulus(n, sign)).factors:
                    assert mult % 3 == 0

    def test_reported_factors_are_irreducible(self):
        seen = set()
        for poly_text in GOLDEN_FACTORIZATIONS:
            seen.update(p for p, _ in factor(P(poly_text)).factors)
        low = set(monic_irreducibles(4))
        for p in seen:
            if p.degree in (2, 3):
                assert all(p.evaluate(t) != 0 for t in range(3))
            if p.degree <= 4:
                assert p in low
            else:
                assert all(
                    not q.divides(p)
                    for q in monic_irreducibles(p.degree - 1)
                    if q.degree >= 1
                )

    def test_constant_raises(self):
        with pytest.raises(ConstantPolynomial):
            factor(P("2"))
        with pytest.raises(ZeroPolynomial):
            factor(Z3Poly(()))

    def test_self_check_is_not_an_assert(self, monkeypatch):
        # a factorization that does not multiply back is refused with a
        # domain error, also where assertions are stripped
        monkeypatch.setattr(Factorization, "expand", lambda self: P("x"))
        with pytest.raises(SelfCheckFailed):
            factor(P("x^2+1"))

    def test_factorization_value_semantics(self):
        fz = factor(P("x^6+2"))
        assert fz == Factorization(1, ((P("x+1"), 3), (P("x+2"), 3)))
        assert fz.divisor_count() == 16


def sympy_factorization(f):
    """The canonical Factorization read off sympy's factor_list over GF(3)."""
    x = sympy.Symbol("x")
    unit, parts = sympy.Poly(list(reversed(f.coeffs)), x, modulus=3).factor_list()
    factors = sorted(
        (Z3Poly(int(c) for c in reversed(p.all_coeffs())), e) for p, e in parts
    )
    return Factorization(int(unit) % 3, tuple(factors))


LOST_ROWS, LOST_ROW_IDS = [0, 1, -1], ["first row", "second row", "last row"]


def x_times_squarefree_modulus(n, sign):
    """x (x^m -+ 1) for n = 3^k m, 3 not dividing m: squarefree, and not
    a binomial, so its kernel comes from the elimination."""
    while n % 3 == 0:
        n //= 3
    return X * modulus(n, sign)


def lost_row_caught(monkeypatch, owner, reader, lost, family):
    """How many of family(n, sign), n <= 60, raise SelfCheckFailed when the
    kernel reader owner.reader loses one row.  A one-row kernel has no
    second row and loses its only row instead."""
    full = getattr(owner, reader)

    def without_a_row(*args):
        out = full(*args)
        i = min(lost, len(out[0]) - 1) % len(out[0])
        del out[0][i], out[1][i]
        return out

    monkeypatch.setattr(owner, reader, without_a_row)
    caught = 0
    for n in range(1, 61):
        for sign in ModulusSign:
            with pytest.raises(SelfCheckFailed):
                factor(family(n, sign))
            caught += 1
    return caught


def wrong_row_caught(monkeypatch, owner, reader, outside, family):
    """How many of family(n, sign), n <= 60, raise SelfCheckFailed when the
    kernel reader owner.reader adds e_j to its first row, j = outside(*its
    arguments) being an index with e_j outside the kernel (None when there
    is none); an input left alone must factor."""
    full = getattr(owner, reader)
    corrupted = []

    def with_a_wrong_row(*args):
        out = full(*args)
        j = outside(*args)
        if j is not None:
            out[0][0], out[1][0] = gf3linalg._add(out[0][0], out[1][0], 1 << j, 0)
            corrupted.append(j)
        return out

    monkeypatch.setattr(owner, reader, with_a_wrong_row)
    caught = 0
    for n in range(1, 61):
        for sign in ModulusSign:
            corrupted.clear()
            try:
                factor(family(n, sign))
            except SelfCheckFailed:
                caught += 1
            else:
                assert not corrupted, (n, sign)
    return caught


class TestBerlekamp:
    def test_moduli_match_sympy(self):
        for n in [*range(1, 81), 106, 200]:
            for sign in ModulusSign:
                f = modulus(n, sign)
                assert factor(f) == sympy_factorization(f), (n, sign)

    def test_random_polynomials_match_sympy(self):
        rng = random.Random(29)
        for _ in range(100):
            f = random_poly(rng, 30)
            if f.degree >= 1:
                assert factor(f) == sympy_factorization(f), f

    def test_large_modulus_is_fast(self):
        # two factors of degree 52: distinct- and equal-degree splitting
        # takes 13 s or more here, Berlekamp milliseconds
        start = time.perf_counter()
        fz = factor(P("x^106+1"))
        assert time.perf_counter() - start < 2
        assert [p.degree for p, _ in fz.factors] == [2, 52, 52]

    def test_frobenius_rows(self):
        for w in (P("x+2"), P("x^2+1"), P("x^5+2x+1"), modulus(31, ModulusSign.MINUS)):
            ones, twos = poly._frobenius_rows(w)
            assert len(ones) == len(twos) == w.degree
            for i, (a1, a2) in enumerate(zip(ones, twos)):
                want = tuple_divmod((0,) * (3 * i) + (1,), w.coeffs)[1]
                assert a1 == sum(1 << j for j, c in enumerate(want) if c == 1)
                assert a2 == sum(1 << j for j, c in enumerate(want) if c == 2)

    def test_lost_kernel_row_is_caught(self, monkeypatch):
        # x^3 - x = x(x+1)(x+2) has a kernel of three rows.  Without its
        # first row the kernel claims two factors, though one row may
        # separate all three.
        full = gf3linalg._left_kernel

        def without_first_row(ones, twos, n):
            kernel_ones, kernel_twos, rank = full(ones, twos, n)
            return kernel_ones[1:], kernel_twos[1:], rank

        monkeypatch.setattr(gf3linalg, "_left_kernel", without_first_row)
        with pytest.raises(SelfCheckFailed):
            factor(P("x^3+2x"))

    @pytest.mark.parametrize("lost", LOST_ROWS, ids=LOST_ROW_IDS)
    def test_lost_kernel_row_is_caught_for_every_modulus(self, monkeypatch, lost):
        # the cycle count is checked against the cyclotomic count, so a
        # lost row is caught for all 120 moduli
        assert lost_row_caught(monkeypatch, poly, "_cycle_kernel", lost, modulus) == 120

    def test_kernel_row_outside_the_kernel_is_caught(self, monkeypatch):
        # e_j is in the kernel exactly when j is a fixed point of
        # i -> 3i mod m with sign 1: j = 0, or j = m/2 when c = 1
        def outside(m, c):
            moved = (j for j in range(m) if 3 * j % m != j or (c == 2 and 3 * j >= m))
            return next(moved, None)

        caught = wrong_row_caught(monkeypatch, poly, "_cycle_kernel", outside, modulus)
        # the 12 moduli whose squarefree parts split into linear factors
        # alone (Q = I: x - c, and x^2 - 1), such as x^6 - 1, have no row
        # to corrupt
        assert caught == 108

    @pytest.mark.parametrize("lost", LOST_ROWS, ids=LOST_ROW_IDS)
    def test_lost_eliminated_kernel_row_is_caught(self, monkeypatch, lost):
        # deg - rank(Q - I) catches every lost row
        caught = lost_row_caught(
            monkeypatch, gf3linalg, "_left_kernel", lost, x_times_squarefree_modulus
        )
        assert caught == 120

    def test_eliminated_row_outside_the_kernel_is_caught(self, monkeypatch):
        # e_j is in the left kernel exactly when row j of Q - I is zero
        def outside(ones, twos, n):
            return next((j for j in range(n) if ones[j] | twos[j]), None)

        caught = wrong_row_caught(
            monkeypatch, gf3linalg, "_left_kernel", outside, x_times_squarefree_modulus
        )
        # Q = I exactly for x (x - c) and x (x^2 - 1): 12 of the 120
        assert caught == 108

    def test_moduli_read_the_kernel_off_the_cycles(self, monkeypatch):
        calls = {"_cycle_kernel": 0, "_left_kernel": 0}
        for owner, name in ((poly, "_cycle_kernel"), (gf3linalg, "_left_kernel")):
            full = getattr(owner, name)

            def spy(*args, name=name, full=full):
                calls[name] += 1
                return full(*args)

            monkeypatch.setattr(owner, name, spy)
        for n in range(1, 61):
            for sign in ModulusSign:
                factor(modulus(n, sign))
        assert calls == {"_cycle_kernel": 120, "_left_kernel": 0}
        factor(X * modulus(10, ModulusSign.MINUS))
        factor(P("x^4+x+2"))
        assert calls == {"_cycle_kernel": 120, "_left_kernel": 2}

    def test_random_binomials_match_sympy(self):
        # a x^m + b, with 3 | m (the cube steps before the cycles) and a = 2
        # (a unit taken out first) among the fixed cases
        rng = random.Random(31)
        cases = [(2, 300, 1), (1, 297, 2), (2, 243, 2), (1, 2, 2)]
        for _ in range(8):
            a, b = rng.randrange(1, 3), rng.randrange(1, 3)
            cases.append((a, rng.randrange(1, 301), b))
        for a, m, b in cases:
            f = Z3Poly([b] + [0] * (m - 1) + [a])
            assert factor(f) == sympy_factorization(f), f

    def test_binomial_factor_count_is_the_cycle_count(self):
        for m in range(1, 201):
            if m % 3:
                for c in (1, 2):
                    count = poly._binomial_factor_count(m, c)
                    assert count == len(poly._cycle_kernel(m, c)[0]), (m, c)

    def test_budget_bounds_the_squarefree_part(self, monkeypatch):
        monkeypatch.setattr(poly, "MAX_BERLEKAMP_DEGREE", 10)
        assert len(factor(P("x^10+1")).factors) == 3
        # x^30 - 1 = (x^10 - 1)^3: only the squarefree part is split
        assert len(factor(modulus(30, ModulusSign.PLUS)).factors) == 4
        with pytest.raises(BudgetExceeded):
            factor(P("x^11+1"))

    def test_budget_refuses_before_building_the_matrix(self):
        # degree 2003 would need a 2003 x 2003 matrix; 100003 about 10 GB
        for n in (2003, 100003):
            tracemalloc.start()
            start = time.perf_counter()
            try:
                with pytest.raises(BudgetExceeded):
                    factor(modulus(n, ModulusSign.PLUS))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert time.perf_counter() - start < 5
            assert peak < 16e6


class TestIrreducibleSieve:
    def test_counts_by_degree(self):
        polys = monic_irreducibles(4)
        by_degree = {}
        for p in polys:
            by_degree.setdefault(p.degree, []).append(p)
        for degree, count in IRREDUCIBLE_COUNTS.items():
            assert len(by_degree[degree]) == count

    def test_small_lists(self):
        polys = monic_irreducibles(2)
        assert [str(p) for p in polys if p.degree == 1] == ["x", "x+1", "x+2"]
        assert [str(p) for p in polys if p.degree == 2] == [
            "x^2+1",
            "x^2+x+2",
            "x^2+2x+2",
        ]

    def test_no_reducible_slips_in(self):
        quartics = [p for p in monic_irreducibles(4) if p.degree == 4]
        lower = [p for p in monic_irreducibles(2) if p.degree >= 1]
        for p in quartics:
            assert all(not q.divides(p) for q in lower)


class TestModulus:
    def test_values(self):
        assert modulus(3, ModulusSign.MINUS) == P("x^3+1")
        assert modulus(3, ModulusSign.PLUS) == P("x^3+2")
        assert modulus(1, ModulusSign.PLUS) == P("x+2")
        for n in range(1, 131):
            assert modulus(n, ModulusSign.PLUS).coeffs == (2,) + (0,) * (n - 1) + (1,)
            assert modulus(n, ModulusSign.MINUS).coeffs == (1,) + (0,) * (n - 1) + (1,)

    def test_wrap_constants(self):
        assert ModulusSign.PLUS.wrap == 1
        assert ModulusSign.MINUS.wrap == 2


class TestDivisorsOfModulus:
    def test_negacyclic_length_three(self):
        divs = divisors_of_modulus(3, ModulusSign.MINUS)
        assert [str(d) for d in divs] == ["1", "x+1", "x^2+2x+1", "x^3+1"]

    def test_cyclic_length_one(self):
        assert [str(d) for d in divisors_of_modulus(1, ModulusSign.PLUS)] == [
            "1",
            "x+2",
        ]

    def test_cyclic_length_twelve_count(self):
        divs = divisors_of_modulus(12, ModulusSign.PLUS)
        assert len(divs) == 64

    def test_counts_match_factorization(self):
        for n in [1, 2, 3, 4, 5, 6, 8, 10, 12, 27, 30]:
            for sign in ModulusSign:
                m = modulus(n, sign)
                expected = 1
                for _, mult in factor(m).factors:
                    expected *= mult + 1
                divs = divisors_of_modulus(n, sign)
                assert len(divs) == expected
                assert len(set(divs)) == len(divs)
                assert list(divs) == sorted(divs)
                assert all(d.divides(m) for d in divs)
                assert all(d.is_monic or d == Z3Poly([1]) for d in divs)

    def test_matches_product_oracle(self):
        # every exponent vector of the factorization, multiplied out
        # from scratch, then sorted
        for n in range(1, 31):
            for sign in ModulusSign:
                fact = factor(modulus(n, sign))
                expected = []
                for exps in itertools.product(*(range(e + 1) for _, e in fact.factors)):
                    d = Z3Poly([1])
                    for (p, _), e in zip(fact.factors, exps):
                        d = d * p**e
                    expected.append(d)
                assert fact.divisors() == tuple(sorted(expected)), (n, sign)

    def test_divisor_degrees_without_listing(self):
        for n in range(1, 31):
            for sign in ModulusSign:
                fact = factor(modulus(n, sign))
                listed = {d.degree for d in divisors_of_modulus(n, sign)}
                assert fact.divisor_degrees(n) == listed
                cap = n // 2
                assert fact.divisor_degrees(cap) == {d for d in listed if d <= cap}
