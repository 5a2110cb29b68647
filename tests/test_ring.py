"""Exhaustive checks of the 27-element ring layer.

The ring is tiny, so almost every algebraic law is checked over all
elements (27), pairs (729), or triples (19683) rather than sampled.
"""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ternring import (
    ELEMENTS,
    E1,
    E2,
    E3,
    IDEMPOTENTS,
    ONE,
    THETA_FIXED_UNITS,
    TWO,
    UNITS,
    V,
    V2,
    ZERO,
    RingElement,
    element,
    format_ring_poly,
    from_gray,
    ideals,
    parse_element,
    parse_ring_poly,
    scalar,
)
from ternring.errors import NotAUnit

# The eight units of the ring, written out as (a, b, c) coefficient
# triples of a + b*v + c*v^2.
UNIT_TRIPLES = [
    (1, 0, 0),  # 1
    (2, 0, 0),  # 2
    (1, 0, 1),  # 1+v^2
    (1, 1, 2),  # 1+v+2v^2
    (1, 2, 2),  # 1+2v+2v^2
    (2, 1, 1),  # 2+v+v^2
    (2, 2, 1),  # 2+2v+v^2
    (2, 0, 2),  # 2+2v^2
]


def ref_mul(x, y):
    """Independent product oracle: expand (a1+b1 v+c1 v^2)(a2+b2 v+c2 v^2)
    symbolically and reduce with v^3 = v, all mod 3."""
    a1, b1, c1 = x.coeffs
    a2, b2, c2 = y.coeffs
    # degree-by-degree convolution: v^3 -> v and v^4 -> v^2
    d0 = a1 * a2
    d1 = a1 * b2 + b1 * a2
    d2 = a1 * c2 + b1 * b2 + c1 * a2
    d3 = b1 * c2 + c1 * b2
    d4 = c1 * c2
    return element(d0 % 3, (d1 + d3) % 3, (d2 + d4) % 3)


class TestElementBasics:
    def test_exactly_27_distinct_elements(self):
        assert len(ELEMENTS) == 27
        assert len({x.coeffs for x in ELEMENTS}) == 27

    def test_interning_and_equality(self):
        assert element(1, 2, 2) is element(4, -1, 5)
        assert element(0, 0, 0) is ZERO
        assert scalar(2) is TWO
        assert element(0, 1, 0) == V
        assert hash(element(0, 0, 1)) == hash(V2)
        for a, b, c in itertools.product(range(-3, 6), repeat=3):
            assert RingElement(a, b, c) is element(a, b, c)
            assert element(a, b, c).coeffs == (a % 3, b % 3, c % 3)

    def test_str_rendering(self):
        assert str(ZERO) == "0"
        assert str(ONE) == "1"
        assert str(V) == "v"
        assert str(element(0, 0, 2)) == "2v^2"
        assert str(element(1, 2, 2)) == "1+2v+2v^2"
        assert str(element(2, 0, 1)) == "2+v^2"

    def test_parse_round_trip_all_elements(self):
        for x in ELEMENTS:
            assert parse_element(str(x)) is x

    def test_parse_accepts_superscript_two(self):
        assert parse_element("1+2v+2v²") == element(1, 2, 2)

    def test_parse_rejects_garbage(self):
        for bad in ["", "w", "v^3", "1-v", "3v", "+", "1++v", "-1", "x", "(1)",
                    "1+(v)"]:
            with pytest.raises(ValueError):
                parse_element(bad)


class TestArithmetic:
    def test_multiplication_matches_expansion_oracle(self):
        for x, y in itertools.product(ELEMENTS, repeat=2):
            assert x * y == ref_mul(x, y)

    def test_v_times_v(self):
        assert V * V == V2

    def test_unit_square_example(self):
        assert element(2, 0, 2) * element(2, 0, 2) == ONE

    def test_orthogonal_idempotents_multiply_to_zero(self):
        assert E1 * E2 == ZERO

    def test_ring_axioms_exhaustive(self):
        for x, y in itertools.product(ELEMENTS, repeat=2):
            assert x + y == y + x
            assert x * y == y * x
        for x, y, z in itertools.product(ELEMENTS, repeat=3):
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

    def test_neutral_elements_and_negation(self):
        for x in ELEMENTS:
            assert x + ZERO == x
            assert x * ONE == x
            assert x + (-x) == ZERO
            assert x - x == ZERO

    def test_int_coercion(self):
        assert V + 1 == element(1, 1, 0)
        assert 2 * V == element(0, 2, 0)
        assert 1 - V2 == element(1, 0, 2)

    def test_pow(self):
        assert V**2 == V2
        assert V**3 == V
        assert element(2, 0, 2) ** 2 == ONE
        assert element(1, 1, 1) ** 0 == ONE

    def test_pow_matches_repeated_multiplication(self):
        for x in ELEMENTS:
            power = ONE
            for k in range(13):
                assert x**k is power
                if x.is_unit():
                    # every unit is its own inverse
                    assert x ** -k is power
                elif k:
                    with pytest.raises(NotAUnit):
                        x ** -k
                power = power * x

    def test_pow_multiplies_nothing(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("__pow__ multiplied")

        monkeypatch.setattr(RingElement, "__mul__", refuse)
        # v^3 = v, so an even power of v is v^2
        assert V ** 10**9 is V2
        assert TWO ** -(10**9 + 1) is TWO
        with pytest.raises(NotAUnit):
            V ** -(10**9)


class TestGray:
    def test_explicit_images(self):
        assert ZERO.gray == (0, 0, 0)
        assert element(1, 0, 2).gray == (1, 0, 0)
        assert V.gray == (0, 1, 2)
        assert ONE.gray == (1, 1, 1)

    def test_formula(self):
        for x in ELEMENTS:
            a, b, c = x.coeffs
            assert x.gray == (a, (a + b + c) % 3, (a + 2 * b + c) % 3)

    def test_bijection_and_inverse(self):
        images = {x.gray for x in ELEMENTS}
        assert len(images) == 27
        for x in ELEMENTS:
            assert from_gray(x.gray) is x
        for t in itertools.product(range(3), repeat=3):
            assert from_gray(t).gray == t

    def test_explicit_preimage(self):
        assert from_gray((0, 0, 0)) is ZERO
        assert from_gray((1, 0, 0)) == element(1, 0, 2)
        assert from_gray((1, 2, 1)) == element(1, 2, 2)

    def test_ring_isomorphism_exhaustive(self):
        for x, y in itertools.product(ELEMENTS, repeat=2):
            gx, gy = x.gray, y.gray
            assert (x + y).gray == tuple((gx[i] + gy[i]) % 3 for i in range(3))
            assert (x * y).gray == tuple((gx[i] * gy[i]) % 3 for i in range(3))


class TestTheta:
    def test_explicit_images(self):
        assert V.theta() == element(0, 2, 0)
        assert ONE.theta() == ONE
        assert element(1, 1, 1).theta() == element(1, 2, 1)

    def test_negates_v_coefficient(self):
        for x in ELEMENTS:
            a, b, c = x.coeffs
            assert x.theta() == element(a, (2 * b) % 3, c)

    def test_order_two(self):
        for x in ELEMENTS:
            assert x.theta().theta() is x

    def test_automorphism(self):
        for x, y in itertools.product(ELEMENTS, repeat=2):
            assert (x + y).theta() == x.theta() + y.theta()
            assert (x * y).theta() == x.theta() * y.theta()

    def test_swaps_last_two_gray_coordinates(self):
        for x in ELEMENTS:
            g = x.gray
            assert x.theta().gray == (g[0], g[2], g[1])

    def test_fixed_units(self):
        assert set(THETA_FIXED_UNITS) == {
            u for u in UNITS if u.theta() == u
        }
        assert {str(u) for u in THETA_FIXED_UNITS} == {
            "1",
            "2",
            "1+v^2",
            "2+2v^2",
        }


class TestLeeWeight:
    def test_explicit_values(self):
        assert ZERO.lee_weight() == 0
        assert ONE.lee_weight() == 3
        assert V.lee_weight() == 2

    def test_equals_hamming_weight_of_gray(self):
        for x in ELEMENTS:
            assert x.lee_weight() == sum(1 for t in x.gray if t)
            assert 0 <= x.lee_weight() <= 3


class TestUnits:
    def test_exactly_the_published_eight(self):
        assert {u.coeffs for u in UNITS} == set(UNIT_TRIPLES)

    def test_unit_iff_gray_has_no_zero(self):
        for x in ELEMENTS:
            assert x.is_unit() == all(t != 0 for t in x.gray)

    def test_every_unit_is_its_own_inverse(self):
        for u in UNITS:
            assert u.inverse() is u
            assert u * u == ONE

    def test_explicit_inverses(self):
        assert TWO.inverse() == TWO
        assert element(1, 0, 1).inverse() == element(1, 0, 1)

    def test_non_unit_raises(self):
        with pytest.raises(NotAUnit):
            V.inverse()
        with pytest.raises(NotAUnit):
            ZERO.inverse()


class TestIdempotents:
    def test_the_fixed_triple(self):
        assert E1 == element(1, 0, 2)
        assert E2 == element(0, 2, 2)
        assert E3 == element(0, 1, 2)
        assert IDEMPOTENTS == (E1, E2, E3)

    def test_algebra(self):
        for i, e in enumerate(IDEMPOTENTS):
            assert e * e == e
            for j, f in enumerate(IDEMPOTENTS):
                if i != j:
                    assert e * f == ZERO
        assert E1 + E2 + E3 == ONE

    def test_gray_images_are_coordinate_vectors(self):
        assert E1.gray == (1, 0, 0)
        assert E2.gray == (0, 1, 0)
        assert E3.gray == (0, 0, 1)

    def test_decomposition_of_every_element(self):
        for x in ELEMENTS:
            g = x.gray
            assert scalar(g[0]) * E1 + scalar(g[1]) * E2 + scalar(g[2]) * E3 == x


class TestIdeals:
    def test_exactly_eight_with_expected_sizes(self):
        ids = ideals()
        assert len(ids) == 8
        assert sorted(len(s) for s in ids) == [1, 3, 3, 3, 9, 9, 9, 27]

    def test_matches_brute_force_span_oracle(self):
        # every additive subgroup is a GF(3)-subspace of the coefficient
        # space, so a proper one is spanned by at most two elements; the
        # ideals are the spans closed under multiplication by every
        # element, in the order of ideals()
        spans = {frozenset(ELEMENTS)}
        for gens in itertools.chain(
            [()],
            itertools.combinations(ELEMENTS[1:], 1),
            itertools.combinations(ELEMENTS[1:], 2),
        ):
            spans.add(
                frozenset(
                    sum(t * g for t, g in zip(ts, gens)) + ZERO
                    for ts in itertools.product(range(3), repeat=len(gens))
                )
            )
        expected = [s for s in spans if all(r * x in s for r in ELEMENTS for x in s)]
        expected.sort(key=lambda s: (len(s), sorted(e.index for e in s)))
        assert ideals() == tuple(expected)

    def test_each_is_multiplicatively_closed_subgroup(self):
        for ideal in ideals():
            for x in ideal:
                for y in ideal:
                    assert x + y in ideal
                for r in ELEMENTS:
                    assert r * x in ideal

    def test_published_small_ideals(self):
        small = {frozenset(s) for s in ideals() if len(s) == 3}
        assert small == {
            frozenset({ZERO, element(1, 0, 2), element(2, 0, 1)}),
            frozenset({ZERO, element(0, 1, 1), element(0, 2, 2)}),
            frozenset({ZERO, element(0, 1, 2), element(0, 2, 1)}),
        }

    def test_published_maximal_ideals(self):
        nine = {frozenset(s) for s in ideals() if len(s) == 9}
        v_ideal = frozenset(
            element(0, b, c) for b in range(3) for c in range(3)
        )
        one_plus_v = frozenset(
            {
                ZERO,
                element(1, 1, 0),
                element(2, 2, 0),
                element(0, 1, 1),
                element(0, 2, 2),
                element(1, 2, 1),
                element(1, 0, 2),
                element(2, 0, 1),
                element(2, 1, 2),
            }
        )
        one_plus_v_plus_v2 = frozenset(
            {
                ZERO,
                element(2, 1, 0),
                element(1, 2, 0),
                element(0, 2, 1),
                element(0, 1, 2),
                element(2, 0, 1),
                element(1, 0, 2),
                element(2, 2, 2),
                element(1, 1, 1),
            }
        )
        assert nine == {v_ideal, one_plus_v, one_plus_v_plus_v2}


class TestRingPolyText:
    def test_format_examples(self):
        w = element(0, 2, 2)
        u = element(1, 2, 2)
        assert format_ring_poly((ONE, u, w)) == "(2v+2v^2)x^2+(1+2v+2v^2)x+1"
        assert format_ring_poly(()) == "0"
        assert format_ring_poly((ZERO, V)) == "vx"
        assert format_ring_poly((TWO,)) == "2"
        assert (
            format_ring_poly((ONE, element(0, 2, 0), element(1, 0, 2), element(0, 1, 0), element(0, 0, 1)))
            == "v^2x^4+vx^3+(1+2v^2)x^2+2vx+1"
        )

    def test_parse_round_trip(self):
        for text in [
            "(2v+2v^2)x^2+(1+2v+2v^2)x+1",
            "v^2x^4+vx^3+(1+2v^2)x^2+2vx+1",
            "x+2",
            "2x^3+v",
            "0",
            "1",
        ]:
            assert format_ring_poly(parse_ring_poly(text)) == text

    @given(st.lists(st.sampled_from(ELEMENTS), max_size=10))
    def test_format_parse_round_trip(self, coeffs):
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        assert parse_ring_poly(format_ring_poly(coeffs)) == tuple(coeffs)

    def test_parse_rejects_minus(self):
        with pytest.raises(ValueError):
            parse_ring_poly("x-1")

    def test_parse_zero(self):
        assert parse_ring_poly("0") == ()

    def test_parse_bounds_exponents(self):
        assert len(parse_ring_poly("vx^100000")) == 100001
        for bad in ["x^100001", "x^2000000000", "(1+v)x^2000000000+1"]:
            with pytest.raises(ValueError, match="exponent"):
                parse_ring_poly(bad)


class TestRingElementType:
    def test_immutable(self):
        with pytest.raises(AttributeError):
            ONE.index = 5

    def test_bool(self):
        assert not ZERO
        assert all(bool(x) for x in ELEMENTS[1:])

    def test_repr_parseable(self):
        for x in ELEMENTS:
            assert str(x) in repr(x)
