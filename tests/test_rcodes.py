"""Tests for ring-linear codes: Gray images, shift diagrams, component
decompositions, duals, constacyclic transport, and Gray-side modules."""

import itertools
import random

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ternring import gf3linalg, rcodes
from ternring.errors import (
    BadFactorization,
    BudgetExceeded,
    EvenLength,
    LengthMismatch,
    MixedModuli,
    NotAUnit,
    ZeroCode,
)
from ternring.poly import ModulusSign, Z3Poly, divisors_of_modulus, parse_poly
from ternring.rcodes import (
    GrayModule,
    RCode,
    classify_constacyclic,
    constacyclic_section_shift,
    constacyclic_shift,
    constacyclic_transport,
    cyclic_shift,
    decompose_generator,
    gray_shift,
    gray_vector,
    negacyclic_shift,
    ring_inner_product,
    section_shift,
    skew_constacyclic_section_shift,
    skew_constacyclic_shift,
    skew_cyclic_shift,
    skew_section_shift,
    transport_vector,
    ungray_vector,
)
from ternring.ring import (
    ELEMENTS,
    ONE,
    UNITS,
    V,
    ZERO,
    format_ring_poly,
    from_gray,
    parse_element,
    scalar,
)
from ternring.skew import one_generator_sqc, parse_skew_poly, skew_cyclic_code

P = parse_poly
E = parse_element
PLUS, MINUS = ModulusSign.PLUS, ModulusSign.MINUS

RNG = random.Random(20260815)


def rand_vec(n):
    return tuple(RNG.choice(ELEMENTS) for _ in range(n))


class TestGrayVectors:
    def test_blockwise_layout(self):
        v = (E("1+v"), E("v^2"))
        # gray(1+v) = (1,2,0); gray(v^2) = (0,1,1)
        assert list(gray_vector(v)) == [1, 0, 2, 1, 0, 1]

    def test_round_trip(self):
        for _ in range(50):
            v = rand_vec(RNG.randrange(1, 7))
            assert ungray_vector(gray_vector(v)) == v

    def test_bad_length_rejected(self):
        with pytest.raises(LengthMismatch):
            ungray_vector([1, 0, 2, 1])

    def test_linearity(self):
        for _ in range(50):
            a, b = rand_vec(4), rand_vec(4)
            s = tuple(x + y for x, y in zip(a, b))
            assert np.array_equal(
                gray_vector(s), (gray_vector(a) + gray_vector(b)) % 3
            )

    def test_inner_product(self):
        a = (E("v"), E("1"))
        b = (E("v"), E("2"))
        assert ring_inner_product(a, b) == E("2+v^2")
        with pytest.raises(LengthMismatch):
            ring_inner_product(a, (ONE,))


class TestShiftOperators:
    def test_cyclic_shift(self):
        v = (E("1"), E("v"), E("v^2"))
        assert cyclic_shift(v) == (E("v^2"), E("1"), E("v"))

    def test_negacyclic_shift(self):
        v = (E("1"), E("v"), E("v^2"))
        assert negacyclic_shift(v) == (E("2v^2"), E("1"), E("v"))

    def test_constacyclic_shift_requires_unit(self):
        with pytest.raises(NotAUnit):
            constacyclic_shift((ONE, ONE), E("v"))

    def test_skew_cyclic_shift(self):
        v = (E("v"), E("1+v"))
        # theta negates the v coefficient
        assert skew_cyclic_shift(v) == (E("1+2v"), E("2v"))

    def test_section_shift(self):
        v = tuple(scalar(i % 3) for i in range(6))
        assert section_shift(v, 3, 2) == v[-2:] + v[:-2]
        with pytest.raises(BadFactorization):
            section_shift(v, 4, 2)

    def test_constacyclic_section_shift(self):
        lam = E("2")
        v = (E("1"), E("2"), E("v"), E("v^2"))
        out = constacyclic_section_shift(v, lam, 2)
        assert out == (E("2v"), E("2v^2"), E("1"), E("2"))

    @pytest.mark.parametrize(
        "shift",
        [
            cyclic_shift,
            negacyclic_shift,
            skew_cyclic_shift,
            lambda v: constacyclic_shift(v, 1),
            lambda v: skew_constacyclic_shift(v, 1),
            lambda v: section_shift(v, 1, 1),
            lambda v: skew_section_shift(v, 1, 1),
            lambda v: constacyclic_section_shift(v, 1, 1),
            lambda v: skew_constacyclic_section_shift(v, 1, 1),
            lambda v: gray_shift(len(v)),
        ],
    )
    def test_length_zero_is_refused_on_both_sides(self, shift):
        with pytest.raises(BadFactorization):
            shift(())

    def test_orbit_order(self):
        # applying the lam-constacyclic shift n times multiplies by lam;
        # every unit squares to one, so 2n applications restore the vector
        for lam in UNITS:
            v = rand_vec(5)
            w = v
            for _ in range(10):
                w = constacyclic_shift(w, lam)
            assert w == v


def _permutation_gray_shift(n, lam, l, twist):
    """gray_shift as a coordinate permutation with a scale per coordinate
    on int8 arrays: each block rotated by l, the l wrapped entries of
    source block b scaled by the b-th Gray coordinate of lam, and with
    twist the last two blocks exchanged."""
    blocks = (0, 2, 1) if twist else (0, 1, 2)
    rotated = (np.arange(n) - l) % n
    perm = np.concatenate([b * n + rotated for b in blocks])
    scale = np.ones(3 * n, dtype=np.int8)
    for out, b in enumerate(blocks):
        scale[out * n : out * n + l] = lam.gray[b]
    return lambda rows: np.asarray(rows)[..., perm] * scale % 3


class TestShiftDiagrams:
    """The Gray map intertwines each ring-side shift with gray_shift, a
    permutation with a +-1 scale per Gray coordinate."""

    def test_cyclic_diagram(self):
        for _ in range(100):
            v = rand_vec(RNG.randrange(1, 7))
            assert np.array_equal(
                gray_vector(cyclic_shift(v)),
                gray_shift(len(v))(gray_vector(v)),
            )

    def test_negacyclic_diagram(self):
        for _ in range(50):
            v = rand_vec(RNG.randrange(1, 7))
            assert np.array_equal(
                gray_vector(negacyclic_shift(v)),
                gray_shift(len(v), scalar(-1))(gray_vector(v)),
            )

    def test_constacyclic_diagram(self):
        for lam in UNITS:
            for _ in range(25):
                v = rand_vec(RNG.randrange(1, 7))
                assert np.array_equal(
                    gray_vector(constacyclic_shift(v, lam)),
                    gray_shift(len(v), lam)(gray_vector(v)),
                )

    def test_section_diagram(self):
        for n, l in [(4, 2), (6, 2), (6, 3), (8, 4)]:
            for _ in range(25):
                v = rand_vec(n)
                assert np.array_equal(
                    gray_vector(section_shift(v, n // l, l)),
                    gray_shift(n, l=l)(gray_vector(v)),
                )

    def test_skew_cyclic_diagram(self):
        # the automorphism swaps the last two Gray blocks
        for _ in range(100):
            v = rand_vec(RNG.randrange(1, 7))
            assert np.array_equal(
                gray_vector(skew_cyclic_shift(v)),
                gray_shift(len(v), twist=True)(gray_vector(v)),
            )

    def test_skew_constacyclic_diagram(self):
        for lam in UNITS:
            for _ in range(25):
                v = rand_vec(RNG.randrange(1, 7))
                assert np.array_equal(
                    gray_vector(skew_constacyclic_shift(v, lam)),
                    gray_shift(len(v), lam, twist=True)(gray_vector(v)),
                )

    def test_skew_section_diagram(self):
        for n, l in [(4, 2), (6, 3)]:
            for _ in range(25):
                v = rand_vec(n)
                assert np.array_equal(
                    gray_vector(skew_section_shift(v, n // l, l)),
                    gray_shift(n, l=l, twist=True)(gray_vector(v)),
                )

    def test_skew_constacyclic_section_composes(self):
        for lam in UNITS:
            v = rand_vec(6)
            direct = skew_constacyclic_section_shift(v, lam, 2)
            manual = tuple(e.theta() for e in constacyclic_section_shift(v, lam, 2))
            assert direct == manual

    def test_every_shift_on_stacked_rows(self):
        # every unit, both twists and every sectioning s*l <= 8, applied
        # to a matrix of Gray rows at once
        for lam, twist in itertools.product(UNITS, (False, True)):
            ring_shift = (
                skew_constacyclic_section_shift if twist else constacyclic_section_shift
            )
            for n in range(1, 9):
                for l in [d for d in range(1, n + 1) if n % d == 0]:
                    vecs = [rand_vec(n) for _ in range(4)]
                    rows = np.array([gray_vector(v) for v in vecs])
                    expected = np.array(
                        [gray_vector(ring_shift(v, lam, l)) for v in vecs]
                    )
                    got = gray_shift(n, lam, l, twist)(rows)
                    assert got.shape == rows.shape
                    assert np.array_equal(got, expected), (lam, twist, n, l)

    @given(st.data())
    def test_mask_shift_matches_permutation_oracle(self, data):
        # n up to 48, so that a Gray row of 3n coordinates spans more
        # than one 64-bit word
        n = data.draw(st.integers(1, 48))
        entries = data.draw(st.lists(st.integers(0, 2), min_size=3 * n, max_size=6 * n))
        rows = np.array(entries[: len(entries) // (3 * n) * 3 * n], dtype=np.int8)
        rows = rows.reshape(-1, 3 * n)
        for lam, twist in itertools.product(UNITS, (False, True)):
            for l in [d for d in range(1, n + 1) if n % d == 0]:
                got = gray_shift(n, lam, l, twist)(rows)
                expected = _permutation_gray_shift(n, lam, l, twist)(rows)
                assert np.array_equal(got, expected), (n, lam, l, twist)

    def test_gray_shift_errors(self):
        with pytest.raises(LengthMismatch):
            gray_shift(3)(np.zeros(8, dtype=np.int8))
        with pytest.raises(LengthMismatch):
            gray_shift(3)(np.zeros((2, 12), dtype=np.int8))
        with pytest.raises(BadFactorization):
            gray_shift(6, l=4)
        with pytest.raises(BadFactorization):
            gray_shift(4, l=0)
        with pytest.raises(NotAUnit):
            gray_shift(4, E("v"))


class TestRCode:
    def test_reference_code_length_three(self):
        f = [E("1"), E("1+2v+2v^2"), E("2v+2v^2")]
        c = decompose_generator(f, 3, MINUS)
        assert [str(t.g) for t in c.components] == ["x+1", "x^2+2x+1", "x+1"]
        assert c.cardinality_log3 == 5
        assert c.dims == (2, 1, 2)
        assert c.lee_distance() == 2

    def test_reference_code_length_ten(self):
        f = [E("1"), E("2v"), E("1+2v^2"), E("v"), E("v^2")]
        c = decompose_generator(f, 10, MINUS)
        assert [str(t.g) for t in c.components] == [
            "x^2+1",
            "x^4+x^3+2x+1",
            "x^4+2x^3+x+1",
        ]
        assert c.cardinality_log3 == 20
        assert format_ring_poly(c.dual().combined_generator()) == (
            "(1+2v^2)x^8+(2+2v^2)x^6+vx^5+x^4+(2+2v^2)x^2+2vx+1"
        )

    def test_combined_generator_round_trip(self):
        for sign in (PLUS, MINUS):
            for gens in itertools.product(divisors_of_modulus(4, sign), repeat=3):
                c = RCode.from_sign(4, sign, gens)
                if c.is_zero:
                    continue
                back = decompose_generator(c.combined_generator(), 4, sign)
                assert back == c

    def test_mixed_moduli_rejected(self):
        from ternring.ternary import TernaryPolyCode

        comps = (
            TernaryPolyCode(4, PLUS, P("x+2")),
            TernaryPolyCode(4, MINUS, P("x^2+x+2")),
            TernaryPolyCode(4, PLUS, P("x+2")),
        )
        with pytest.raises(MixedModuli):
            RCode("cyclic", comps)

    @pytest.mark.parametrize("count", [2, 4])
    def test_every_builder_takes_exactly_three_generators(self, count):
        gens = [P("x+1")] * 3 + [P("x^2+x+1")]
        builders = [
            lambda g: RCode.cyclic(3, g),
            lambda g: RCode.negacyclic(3, g),
            lambda g: RCode.constacyclic(3, 2, g),
            lambda g: RCode.constacyclic(3, E("1+v^2"), g),
            lambda g: RCode.from_sign(3, PLUS, g),
            lambda g: RCode.from_sign(3, MINUS, g),
        ]
        for build in builders:
            with pytest.raises(ValueError, match="exactly three"):
                build(gens[:count])
            with pytest.raises(ValueError, match="exactly three"):
                build([P("1")] * count)

    def test_constacyclic_reads_each_modulus_off_lam(self):
        # lam = 1+v^2 has Gray coordinates (1, 2, 2)
        c = RCode.constacyclic(3, E("1+v^2"), [P("x+2"), P("x+1"), P("1")])
        assert [comp.sign for comp in c.components] == [PLUS, MINUS, MINUS]
        assert c.dims == (2, 2, 3)

    def test_component_length_mismatch_rejected(self):
        from ternring.ternary import TernaryPolyCode

        comps = (
            TernaryPolyCode(4, PLUS, P("x+2")),
            TernaryPolyCode(6, PLUS, P("x+2")),
            TernaryPolyCode(4, PLUS, P("x+2")),
        )
        with pytest.raises(LengthMismatch):
            RCode("cyclic", comps)

    def test_gray_image_is_block_diagonal(self):
        c = RCode.cyclic(6, [P("x^2+2"), P("x^4+x^2+1"), P("1")])
        m = c.gray_image()
        assert m.shape == (4 + 2 + 6, 18)
        assert not np.any(m[:4, 6:])
        assert not np.any(m[4:6, :6]) and not np.any(m[4:6, 12:])
        assert not np.any(m[6:, :12])

    def test_gray_image_budget_counts_entries(self, monkeypatch):
        # 12 rows of 18 entries: built at a budget of 216, refused below
        c = RCode.cyclic(6, [P("x^2+2"), P("x^4+x^2+1"), P("1")])
        monkeypatch.setattr(rcodes, "MAX_GRAY_ENTRIES", 216)
        assert c.gray_image().shape == (12, 18)
        monkeypatch.setattr(rcodes, "MAX_GRAY_ENTRIES", 215)
        with pytest.raises(BudgetExceeded):
            c.gray_image()

    def test_membership_and_codewords(self):
        f = [E("1"), E("1+2v+2v^2"), E("2v+2v^2")]
        c = decompose_generator(f, 3, MINUS)
        words = list(c.codewords())
        assert len(words) == 3**5
        assert len(set(words)) == 3**5
        for w in RNG.sample(words, 30):
            assert c.membership(w)
            # closed under the negacyclic shift
            assert negacyclic_shift(w) in set(words)
        assert not c.membership((ONE, ZERO, ZERO))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("sign", [PLUS, MINUS])
    def test_codewords_match_the_componentwise_oracle(self, n, sign):
        # the mask spans against the components' int8 codewords read entry
        # by entry through from_gray: the same words in the same order
        for triple in itertools.product(divisors_of_modulus(n, sign), repeat=3):
            code = RCode.from_sign(n, sign, triple)
            blocks = [c.codewords() for c in code.components]
            want = [
                tuple(from_gray((int(a[i]), int(b[i]), int(c[i]))) for i in range(n))
                for a, b, c in itertools.product(*blocks)
            ]
            assert list(code.codewords()) == want, triple

    def test_dual_dimensions_and_orthogonality(self):
        f = [E("1"), E("2v"), E("1+2v^2"), E("v"), E("v^2")]
        c = decompose_generator(f, 10, MINUS)
        d = c.dual()
        assert c.cardinality_log3 + d.cardinality_log3 == 30
        # spot-check orthogonality over the ring
        cw = list(itertools.islice(c.codewords(), 40))
        dw = list(itertools.islice(d.codewords(), 40))
        for a in RNG.sample(cw, 10):
            for b in RNG.sample(dw, 10):
                assert ring_inner_product(a, b) is ZERO

    def test_contains_dual_reference(self):
        c = RCode.cyclic(6, [P("x^2+2")] * 3)
        assert c.contains_dual()
        bad = RCode.cyclic(8, [P("x^2+1")] * 3)
        assert not bad.contains_dual()
        assert bad.failing_dual_components() == (1, 2, 3)

    def test_self_orthogonal(self):
        # the repetition-style generator (w, w, w) with w = v+v^2 spans a
        # self-orthogonal module: <g, g> = 3*w^2 = 0
        w = E("v+v^2")
        g = (w, w, w)
        assert ring_inner_product(g, g) is ZERO
        # at the code level: each component generated by (x^2+x+1)|x^3-1
        # has a generator matrix with zero self-products only if k small;
        # use the all-ones-multiple component x^2+x+1 in the middle block
        c = RCode.cyclic(3, [P("x^3+2"), P("x^2+x+1"), P("x^3+2")])
        assert c.is_self_orthogonal()
        assert not RCode.cyclic(3, [P("x+2")] * 3).is_self_orthogonal()

    def test_self_orthogonality_matches_the_int8_product(self):
        # divisibility against the oracle G G^T = 0 on each component's
        # int8 generator matrix, for every component triple with n <= 6
        from ternring.ternary import TernaryPolyCode

        def oracle(c):
            g = c.generator_matrix()
            return not g.shape[0] or not np.any(gf3linalg.mat_mul(g, g.T))

        for n in range(1, 7):
            for sign in (PLUS, MINUS):
                gens = divisors_of_modulus(n, sign)
                expected = {g: oracle(TernaryPolyCode(n, sign, g)) for g in gens}
                assert True in expected.values()
                for triple in itertools.product(gens, repeat=3):
                    code = RCode.from_sign(n, sign, triple)
                    want = all(expected[g] for g in triple)
                    assert code.is_self_orthogonal() == want, (n, sign, triple)

    @given(st.integers(1, 7), st.booleans(), st.integers(0, 2**32 - 1))
    def test_membership_matches_the_component_oracle(self, n, plus, seed):
        # each Gray block of gray_vector, tested by its component's own
        # membership; probes are random vectors and random codewords
        rng = np.random.default_rng(seed)
        sign = PLUS if plus else MINUS
        gens = divisors_of_modulus(n, sign)
        picks = rng.integers(0, len(gens), size=3)
        code = RCode.from_sign(n, sign, [gens[i] for i in picks])
        probes = [ungray_vector(w) for w in rng.integers(0, 3, size=(4, 3 * n))]
        for _ in range(3):
            blocks = []
            for c in code.components:
                rows = c.generator_matrix()
                blocks.append(rng.integers(0, 3, size=len(rows)) @ rows % 3)
            probes.append(ungray_vector(np.concatenate(blocks)))
        for vec in probes:
            g = gray_vector(vec)
            want = all(
                c.membership(g[b * n : (b + 1) * n])
                for b, c in enumerate(code.components)
            )
            assert code.membership(vec) == want
        assert all(code.membership(vec) for vec in probes[4:])
        with pytest.raises(LengthMismatch):
            code.membership(probes[0] + (ZERO,))

    def test_lee_distance_zero_code(self):
        z = RCode.cyclic(3, [P("x^3+2")] * 3)
        with pytest.raises(ZeroCode):
            z.lee_distance()

    def test_immutable(self):
        c = RCode.cyclic(3, [P("x+2")] * 3)
        with pytest.raises(AttributeError):
            c.n = 5


class TestTransport:
    def test_classification_covers_all_signs(self):
        kinds = {classify_constacyclic(lam) for lam in UNITS}
        assert len(kinds) == 8
        assert classify_constacyclic(ONE) == ("cyclic",) * 3
        assert classify_constacyclic(scalar(2)) == ("negacyclic",) * 3
        assert classify_constacyclic(E("1+2v+2v^2")) == (
            "cyclic",
            "negacyclic",
            "cyclic",
        )

    def test_transport_vector_alternates(self):
        lam = E("1+2v+2v^2")
        v = (ONE, ONE, ONE, ONE)
        assert transport_vector(v, lam) == (ONE, lam, ONE, lam)

    def test_transport_image_and_closure(self):
        base = RCode.cyclic(3, [P("x+2")] * 3)
        words = set(base.codewords())
        for lam in UNITS:
            t = constacyclic_transport(base, lam)
            t_words = set(t.codewords())
            assert t_words == {transport_vector(w, lam) for w in words}
            for w in t_words:
                assert constacyclic_shift(w, lam) in t_words
            assert t.cardinality_log3 == base.cardinality_log3

    def test_transport_rejects_even_length(self):
        base = RCode.cyclic(4, [P("x+2")] * 3)
        with pytest.raises(EvenLength):
            constacyclic_transport(base, E("1+2v+2v^2"))

    def test_transport_preserves_lee_distance(self):
        base = RCode.cyclic(9, [P("x^2+x+1")] * 3)
        for lam in UNITS:
            t = constacyclic_transport(base, lam)
            assert t.lee_distance() == base.lee_distance()


class TestGrayModule:
    def test_span_of_code(self):
        f = [E("1"), E("1+2v+2v^2"), E("2v+2v^2")]
        c = decompose_generator(f, 3, MINUS)
        m = GrayModule(c.gray_image(), 3)
        assert m.rank == 5
        assert m.block_ranks == (2, 1, 2)
        assert m.is_v_closed()
        assert m.is_closed_under(negacyclic_shift)
        assert not m.is_closed_under(cyclic_shift)
        assert m.lee_distance() == 2

    def test_from_rvectors_builds_module_closure(self):
        g = (E("v"), E("1"))
        m = GrayModule.from_rvectors([g])
        assert m.is_v_closed()
        # contains v*g and v^2*g
        assert m.contains((E("v^2"), E("v")))
        assert m.contains((E("v"), E("v^2")))

    def test_subspace_need_not_be_module(self):
        # the span of gray(1,) alone is not closed under scaling by v
        m = GrayModule(np.array([[1, 1, 1]], dtype=np.int8), 1)
        assert m.rank == 1
        assert not m.is_v_closed()

    def test_dual_rank_and_orthogonality(self):
        f = [E("1"), E("2v"), E("1+2v^2"), E("v"), E("v^2")]
        c = decompose_generator(f, 10, MINUS)
        m = GrayModule(c.gray_image(), 10)
        d = m.dual()
        assert m.rank + d.rank == 30
        for a in m.basis_rvectors()[:5]:
            for b in d.basis_rvectors()[:5]:
                assert ring_inner_product(a, b) is ZERO

    def test_rows_of_another_width_are_refused(self):
        # two width-6 rows are not cut into four Gray rows of length 3
        for rows in ([[1, 0, 0, 0, 0, 1], [0, 1, 0, 0, 1, 0]], [[1, 0, 0, 0, 1]]):
            with pytest.raises(LengthMismatch, match="length 3"):
                GrayModule(rows, 1)
        assert GrayModule([[1, 0, 0], [0, 0, 1]], 1).rank == 2

    def test_dual_of_zero_is_full(self):
        z = GrayModule(np.zeros((0, 9), dtype=np.int8), 3)
        assert z.rank == 0
        assert z.dual().rank == 9
        with pytest.raises(ZeroCode):
            z.lee_distance()

    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_membership_and_closure_agree_with_row_space_contains(self, n, seed):
        # both read the held masks, and unpack no basis; the oracle is
        # row_space_contains on the int8 basis and on int8 Gray images
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 3, size=(int(rng.integers(0, 3 * n + 1)), 3 * n))
        m = GrayModule(rows, n)
        probes = [*rng.integers(0, 3, size=(4, 3 * n))]
        probes += [*(rng.integers(0, 3, size=(3, len(rows))) @ rows % 3)]
        ops = (cyclic_shift, negacyclic_shift, skew_cyclic_shift)
        with mock.patch.object(
            gf3linalg, "_unpack_masks", wraps=gf3linalg._unpack_masks
        ) as unpack:
            inside = [m.contains_gray(p) for p in probes]
            vectors = [ungray_vector(p) for p in probes]
            assert [m.contains(v) for v in vectors] == inside
            closed = [m.is_closed_under(op) for op in ops]
        assert unpack.call_count == 0
        assert inside == [
            gf3linalg.row_space_contains(m.basis, p.reshape(1, -1)) for p in probes
        ]
        assert closed == [
            gf3linalg.row_space_contains(
                m.basis, [gray_vector(op(v)) for v in m.basis_rvectors()]
            )
            if m.rank
            else True
            for op in ops
        ]
        with pytest.raises(LengthMismatch):
            m.contains(vectors[0] + vectors[0])

    @given(st.integers(1, 6), st.integers(0, 14), st.integers(0, 2**32 - 1))
    def test_dual_and_lee_distance_match_the_int8_oracles(self, n, k, seed):
        # both read the held masks, and unpack no basis; the oracles are
        # orthogonality and rank on the int8 bases, and min_weight, which
        # enumerates the whole span
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 3, size=(k, 3 * n))
        rows[rng.random(rows.shape) < rng.random()] = 0
        m = GrayModule(rows, n)
        with mock.patch.object(
            gf3linalg, "_unpack_masks", wraps=gf3linalg._unpack_masks
        ) as unpack:
            dual = m.dual()
            distance = m.lee_distance() if m.rank else None
        assert unpack.call_count == 0
        assert dual.rank == 3 * n - m.rank
        assert not np.any(m.basis.astype(np.int64) @ dual.basis.T % 3)
        assert dual.dual() == m
        if m.rank:
            assert distance == gf3linalg.min_weight(m.basis)

    def test_lee_distance_refuses_a_rank_above_the_enumeration_cap(self):
        cap = gf3linalg.MAX_ENUMERATION_DIM
        assert GrayModule(np.eye(cap, 3 * cap, dtype=np.int8), cap).lee_distance() == 1
        with pytest.raises(BudgetExceeded, match=f"3\\^{cap + 1} codewords"):
            GrayModule(np.eye(cap + 1, 3 * cap, dtype=np.int8), cap).lee_distance()

    @given(st.integers(1, 8), st.booleans(), st.integers(0, 2**32 - 1))
    def test_block_ranks_and_v_closure_match_the_ring_side_oracle(
        self, n, structured, seed
    ):
        # the oracles: the ranks of the int8 basis blocks, and closure
        # under v on ring vectors
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 3, size=(int(rng.integers(0, 3 * n + 1)), 3 * n))
        if structured:
            # rows on one block each span a sum of block subspaces, a
            # module; a mixed row, when one is added, may break that
            block = rng.integers(0, 3, size=len(rows))
            for b in range(3):
                rows[block != b, b * n : (b + 1) * n] = 0
            mixed = rng.integers(0, 3, size=(int(rng.integers(0, 2)), 3 * n))
            rows = np.vstack([rows, mixed])
        m = GrayModule(rows, n)
        with mock.patch.object(
            gf3linalg, "_unpack_masks", wraps=gf3linalg._unpack_masks
        ) as unpack:
            ranks, closed = m.block_ranks, m.is_v_closed()
        assert unpack.call_count == 0
        assert ranks == tuple(
            gf3linalg.rank(m.basis[:, b * n : (b + 1) * n]) for b in range(3)
        )
        assert closed == m.is_closed_under(lambda vec: tuple(V * e for e in vec))

    def test_basis_is_unpacked_on_each_read(self, monkeypatch):
        calls = []
        for name in ("_bitsliced_masks", "_unpack_masks"):
            real = getattr(gf3linalg, name)

            def spy(*args, name=name, real=real):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(gf3linalg, name, spy)
        built = [
            skew_cyclic_code(parse_skew_poly("x+2"), 6).module,
            one_generator_sqc(
                [parse_skew_poly("x+1"), parse_skew_poly("x^2+2")], 2, 2, ONE
            ).module,
        ]
        assert calls == []
        for module in built:
            basis = module.basis
            assert calls == ["_unpack_masks"]
            assert basis.shape == (module.rank, 3 * module.n)
            assert basis.tolist() == [
                [*gf3linalg._row_entries(a1, a2, 3 * module.n)]
                for a1, a2 in zip(module._ones, module._twos)
            ]
            assert np.array_equal(module.basis, basis)
            assert calls == ["_unpack_masks"] * 2
            calls.clear()

    def test_equality_and_hash(self):
        a = GrayModule(np.array([[1, 0, 0, 0, 1, 0, 0, 0, 1]]), 3)
        b = GrayModule(np.array([[2, 0, 0, 0, 2, 0, 0, 0, 2]]), 3)
        assert a == b
        assert hash(a) == hash(b)
