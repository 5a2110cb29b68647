"""Tests for the GF(3) elimination kernel against an int8 oracle, and for
the weight-distribution kernel, minimum weight, and the MacWilliams
transform, against brute-force enumeration."""

import itertools
import time
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ternring import gf3linalg
from ternring.errors import BudgetExceeded, SelfCheckFailed
from ternring.poly import ModulusSign, divisors_of_modulus
from ternring.ternary import TernaryPolyCode

TETRACODE = [[1, 0, 1, 1], [0, 1, 1, 2]]


def brute_distribution(generator):
    """Weight counts of every coefficient combination of the rows,
    divided by the multiplicity 3^(rows - rank) of each word."""
    gen = np.array(generator, dtype=np.int64)
    rows, n = gen.shape
    counts = np.zeros(n + 1, dtype=np.int64)
    combos = itertools.product(range(3), repeat=rows)
    while chunk := list(itertools.islice(combos, 4096)):
        coeffs = np.array(chunk, dtype=np.int64).reshape(len(chunk), rows)
        weights = np.count_nonzero((coeffs @ gen) % 3, axis=1)
        counts += np.bincount(weights, minlength=n + 1)
    repeat = 3 ** (rows - gf3linalg.rank(gen))
    return [int(c) // repeat for c in counts]


def int8_rref(matrix):
    """Reduced row echelon form and pivots of a 2-D integer matrix on int8,
    clearing the pivot column of every row with one outer product per
    pivot: the elimination the bit-sliced kernel replaced, kept as its
    oracle."""
    a = (np.asarray(matrix, dtype=np.int64) % 3).astype(np.int8)
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        if a[r, c] == 2:
            a[r] = (a[r] * 2) % 3
        col = a[:, c].copy()
        col[r] = 0
        if np.any(col):
            a = (a - np.outer(col, a[r])) % 3
            a = a.astype(np.int8)
        pivots.append(c)
        r += 1
    return a, tuple(pivots)


def int8_null_space(matrix):
    """One null-space row per free column f of the int8 oracle's RREF R,
    with 1 at f and -R[i, f] at the i-th pivot, filled in on int8: the
    construction the mask routine replaced, kept as its oracle."""
    r, pivots = int8_rref(matrix)
    cols = r.shape[1]
    free = sorted(set(range(cols)).difference(pivots))
    basis = np.zeros((len(free), cols), dtype=np.int8)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = -r[: len(pivots), free].T % 3
    return basis


@st.composite
def ranked_matrices(draw):
    """Matrices of at most 13 rows and 1..130 columns (63, 64 and 65
    drawn on their own too): all zero, of full row rank, or with rows
    that depend on the others."""
    cols = draw(st.integers(1, 130) | st.sampled_from([63, 64, 65]))
    rows = draw(st.integers(0, 13))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["zero", "full", "dependent"]))
    if kind == "zero":
        return np.zeros((rows, cols), dtype=np.int64)
    if kind == "full":
        rows = min(rows, cols)
        while True:
            m = rng.integers(0, 3, size=(rows, cols))
            if len(int8_rref(m)[1]) == rows:
                return m
    base = rng.integers(0, 3, size=(draw(st.integers(0, rows)), cols))
    return rng.integers(0, 3, size=(rows, base.shape[0])) @ base % 3


@st.composite
def matrices(draw, max_rows=40, max_cols=130):
    """Integer matrices of up to 40 rows and 130 columns (words of one, two
    and three 64-bit limbs), of any rank up to full, with a zero row and
    a duplicate row when there are rows, and entries outside 0..2 that
    stand for their residues mod 3."""
    rows = draw(st.integers(0, max_rows))
    boundaries = [c for c in (1, 63, 64, 65, 127, 128, 129, 130) if c <= max_cols]
    cols = draw(st.integers(0, max_cols) | st.sampled_from(boundaries))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.integers(0, 3, size=(draw(st.integers(0, rows)), cols))
    m = rng.integers(0, 3, size=(rows, base.shape[0])) @ base % 3
    if rows:
        m[draw(st.integers(0, rows - 1))] = 0
        m[draw(st.integers(0, rows - 1))] = m[draw(st.integers(0, rows - 1))]
    return m + 3 * rng.integers(-2, 2, size=m.shape)


class TestElimination:
    @given(matrices())
    def test_rref_matches_the_int8_oracle(self, m):
        expected, expected_pivots = int8_rref(m)
        r, pivots = gf3linalg.rref(m)
        assert r.dtype == np.int8
        assert pivots == expected_pivots
        assert np.array_equal(r, expected)
        assert gf3linalg.rank(m) == len(pivots)
        assert np.array_equal(gf3linalg.row_basis(m), expected[: len(pivots)])

    @given(matrices())
    def test_null_space_is_orthogonal_with_cols_minus_rank_rows(self, m):
        cols = m.shape[1]
        dimension = cols - len(int8_rref(m)[1])
        basis = gf3linalg.null_space(m)
        assert basis.dtype == np.int8
        assert basis.shape == (dimension, cols)
        assert not np.any(m @ basis.T.astype(np.int64) % 3)
        assert len(int8_rref(basis)[1]) == dimension

    @given(st.one_of(matrices(), ranked_matrices()))
    def test_null_space_matches_the_int8_free_column_fill(self, m):
        expected = int8_null_space(m)
        basis = gf3linalg.null_space(m)
        assert basis.dtype == expected.dtype == np.int8
        assert basis.shape == expected.shape
        assert basis.tobytes() == expected.tobytes()

    @given(matrices(), st.integers(0, 2**32 - 1))
    def test_combinations_are_members_and_a_free_unit_vector_is_not(self, m, seed):
        # a word of the row space is fixed by its pivot coordinates, so
        # the unit vector at a free column lies outside it
        rows, cols = m.shape
        combos = np.random.default_rng(seed).integers(-4, 7, size=(3, rows)) @ m
        assert gf3linalg.row_space_contains(m, combos)
        pivots = int8_rref(m)[1]
        for f in [c for c in range(cols) if c not in pivots][:3]:
            outside = np.zeros(cols, dtype=np.int64)
            outside[f] = 2
            assert not gf3linalg.row_space_contains(m, np.vstack([combos, outside]))
            assert not gf3linalg.row_space_contains(m, outside + combos[0])

    @given(matrices(max_rows=6), st.integers(0, 2**32 - 1))
    def test_membership_matches_the_enumerated_span(self, m, seed):
        rows, cols = m.shape
        coefficients = np.array(
            list(itertools.product(range(3), repeat=rows)), dtype=np.int64
        ).reshape(3**rows, rows)
        span = {tuple(w) for w in (coefficients @ m % 3).tolist()}
        # four words of the span, two with their first two coordinates
        # redrawn (in range or not, in the span or not), and two random words
        rng = np.random.default_rng(seed)
        near = (rng.integers(0, 3, size=(4, rows)) @ m) % 3
        near[:2, : min(cols, 2)] = rng.integers(-3, 6, size=(2, min(cols, 2)))
        for v in np.vstack([near, rng.integers(0, 3, size=(2, cols))]):
            assert gf3linalg.row_space_contains(m, v) == (tuple(v % 3) in span)

    def test_rank_unpacks_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("rank unpacked its masks")

        monkeypatch.setattr(gf3linalg, "_unpack_masks", refuse)
        assert gf3linalg.rank(TETRACODE + [[1, 1, 2, 0], [0, 0, 0, 0]]) == 2
        assert gf3linalg.rank(np.zeros((0, 5))) == 0

    def test_column_count_mismatch_is_refused(self):
        with pytest.raises(ValueError):
            gf3linalg.row_space_contains(TETRACODE, [[1, 0, 1]])


class TestWeightDistribution:
    def test_chunked_enumeration_matches_brute_force(self):
        # rank 10 > 9, so the prefix loop runs
        rng = np.random.default_rng(5)
        gen = rng.integers(0, 3, size=(10, 13))
        assert gf3linalg.rank(gen) == 10
        assert gf3linalg.weight_distribution(gen) == brute_distribution(gen)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 130])
    def test_across_word_boundaries(self, n):
        # words of one, two and three 64-bit limbs, the last one partly
        # used; k > 9 runs the prefix loop
        rng = np.random.default_rng(n)
        for k in range(min(n, 11) + 1):
            gen = rng.integers(0, 3, size=(k, n))
            assert gf3linalg.weight_distribution(gen) == brute_distribution(gen), (n, k)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 130])
    def test_dependent_and_zero_rows_across_word_boundaries(self, n):
        rng = np.random.default_rng(100 + n)
        base = rng.integers(0, 3, size=(min(n, 10), n))
        mix = rng.integers(0, 3, size=(3, base.shape[0]))
        gen = np.vstack([base, (mix @ base) % 3, np.zeros((1, n), dtype=np.int64)])
        assert gf3linalg.weight_distribution(gen) == brute_distribution(base)
        assert gf3linalg.weight_distribution(np.zeros((2, n))) == [1] + [0] * n

    def test_dependent_rows_count_the_span(self):
        gen = TETRACODE + [[1, 1, 2, 0]]
        assert gf3linalg.weight_distribution(gen) == [1, 0, 0, 8, 0]

    def test_zero_row_space(self):
        assert gf3linalg.weight_distribution(np.zeros((2, 3))) == [1, 0, 0, 0]
        with pytest.raises(ValueError):
            gf3linalg.min_weight(np.zeros((2, 3)))

    def test_enumeration_cap(self):
        with pytest.raises(BudgetExceeded):
            gf3linalg.weight_distribution(np.eye(15, dtype=np.int8))

    def test_min_weight_is_first_nonzero_weight(self):
        assert gf3linalg.min_weight(TETRACODE) == 3
        assert gf3linalg.min_weight([[0, 1, 1, 0, 2]]) == 3

    def test_min_weight_self_check(self, monkeypatch):
        # a nonzero row space that enumerates no nonzero word is refused
        monkeypatch.setattr(gf3linalg, "weight_distribution", lambda g: [3, 0, 0])
        with pytest.raises(SelfCheckFailed):
            gf3linalg.min_weight([[1, 0]])


def brute_combination_weight(matrix, t):
    """Least weight over every t rows and every coefficient in {1, 2}."""
    gen = np.array(matrix, dtype=np.int64)
    return min(
        int(np.count_nonzero(np.array(coeffs) @ gen[list(rows)] % 3))
        for rows in itertools.combinations(range(gen.shape[0]), t)
        for coeffs in itertools.product((1, 2), repeat=t)
    )


class TestCombinationWeight:
    @pytest.mark.parametrize("block", [1, 3, 3**9])
    @pytest.mark.parametrize("n", [7, 64, 70])
    def test_matches_brute_force(self, monkeypatch, block, n):
        # blocks smaller than one subset's 2^(t-1) patterns split the
        # patterns, larger ones take several subsets at once
        monkeypatch.setattr(gf3linalg, "_BLOCK_WORDS", block)
        rng = np.random.default_rng(n)
        matrix = rng.integers(0, 3, size=(6, n))
        words = gf3linalg._mask_words(*gf3linalg._bitsliced_masks(matrix), n)
        for t in range(1, 7):
            expected = brute_combination_weight(matrix, t)
            assert gf3linalg.min_combination_weight(matrix, t) == expected, (block, n, t)
            assert gf3linalg._packed_min_combination_weight(words, t) == expected, (
                block, n, t
            )

    def test_more_rows_than_the_matrix_is_refused(self):
        with pytest.raises(ValueError):
            gf3linalg.min_combination_weight(TETRACODE, 3)

    @given(
        st.integers(1, 20) | st.sampled_from([63, 64, 65, 128, 129]),
        st.integers(1, 14),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_level_kernel_matches_the_packed_kernel(self, n, k, t, seed):
        # the packed numpy kernel is the oracle of the one level kernel on
        # both sides of its crossover: forced to the mask walk, forced to
        # packing, and at the crossover constant, levels of 1 to 24,024
        # limbs of random rows, dependent ones among them
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 3, size=(k, n)).astype(np.int8)
        ones, twos = gf3linalg._bitsliced_masks(matrix)
        if t > k:
            with pytest.raises(ValueError):
                gf3linalg._min_combination_weight(ones, twos, n, t)
            return
        words = gf3linalg._mask_words(ones, twos, n)
        expected = gf3linalg._packed_min_combination_weight(words, t)
        for crossover in (0, gf3linalg._NUMPY_LEVEL_WORDS, 10**9):
            with mock.patch.object(gf3linalg, "_NUMPY_LEVEL_WORDS", crossover):
                assert gf3linalg._min_combination_weight(ones, twos, n, t) == expected


def int8_span(basis):
    """All 3^k combinations of the k rows of an int8 matrix as int8 words,
    the coefficient vectors in product order (the first row's coefficient
    varies slowest), the zero word first."""
    k, n = basis.shape
    coeffs = np.array(list(itertools.product(range(3), repeat=k)), dtype=np.int64)
    return (coeffs.reshape(3**k, k) @ basis.astype(np.int64) % 3).astype(np.int8)


class TestCodewords:
    def test_int8_rows_in_product_order(self):
        # a code's words are the int8 span of its generator matrix x^i g
        for n in range(1, 9):
            for sign in ModulusSign:
                for g in divisors_of_modulus(n, sign):
                    code = TernaryPolyCode(n, sign, g)
                    words = code.codewords()
                    assert words.dtype == np.int8
                    assert words.shape == (3**code.k, n)
                    expected = int8_span(code.generator_matrix())
                    assert np.array_equal(words, expected), (n, sign, g)


def unpack_words(ones, twos, n):
    """The int8 words of (count, limbs) uint64 ones and twos planes,
    checking that the bits past n are clear."""
    ones_bits, twos_bits = (
        np.unpackbits(plane.view(np.uint8), axis=1, bitorder="little")
        for plane in (ones, twos)
    )
    assert not ones_bits[:, n:].any() and not twos_bits[:, n:].any()
    return (ones_bits[:, :n] + 2 * twos_bits[:, :n]).astype(np.int8)


class TestRowConverters:
    @given(
        st.integers(0, 130) | st.sampled_from([63, 64, 65, 128, 129]),
        st.integers(0, 2**32 - 1),
    )
    def test_row_masks_and_entries_round_trip(self, n, seed):
        entries = np.random.default_rng(seed).integers(0, 3, size=n).tolist()
        ones, twos = gf3linalg._row_masks(entries)
        # bit j of each mask is entry j, read one bit at a time
        assert ones == sum(1 << j for j, c in enumerate(entries) if c == 1)
        assert twos == sum(1 << j for j, c in enumerate(entries) if c == 2)
        assert gf3linalg._row_entries(ones, twos, n) == entries
        # the matrix converter gives the same masks
        if n:
            row = np.array([entries], dtype=np.int8)
            assert gf3linalg._bitsliced_masks(row) == ([ones], [twos])

    def test_long_rows_convert_in_linear_time(self):
        # degree 10^5, the largest modulus the parsers accept
        n = 100_001
        entries = np.random.default_rng(1).integers(0, 3, size=n).tolist()
        start = time.perf_counter()
        assert gf3linalg._row_entries(*gf3linalg._row_masks(entries), n) == entries
        assert time.perf_counter() - start < 0.25


class TestAdder:
    @given(
        st.integers(1, 130) | st.sampled_from([63, 64, 65, 128, 129]),
        st.integers(0, 2**32 - 1),
    )
    def test_sum_of_masks_and_of_words_is_the_sum_mod_3(self, n, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.integers(0, 3, size=(2, 5, n)).astype(np.int8)
        a1, a2 = gf3linalg._bitsliced_masks(a)
        b1, b2 = gf3linalg._bitsliced_masks(b)
        expected = (a + b) % 3
        # Python-int masks, one row at a time
        ones, twos = zip(*map(gf3linalg._add, a1, a2, b1, b2))
        assert np.array_equal(gf3linalg._unpack_masks([*ones], [*twos], n), expected)
        # uint64 words, all rows at once
        wa, wb = gf3linalg._mask_words(a1, a2, n), gf3linalg._mask_words(b1, b2, n)
        words = unpack_words(*gf3linalg._add(*wa, *wb), n)
        assert np.array_equal(words, expected)
        # swapping the planes doubles a word, so a + a has a's planes swapped
        assert np.array_equal(gf3linalg._unpack_masks(a2, a1, n), 2 * a % 3)
        assert [*map(gf3linalg._add, a1, a2, a1, a2)] == [*zip(a2, a1)]
        assert np.array_equal(unpack_words(*gf3linalg._add(*wa, *wa), n), 2 * a % 3)


class TestExtended:
    @given(
        st.integers(1, 130) | st.sampled_from([63, 64, 65]),
        st.integers(0, 12),
        st.integers(0, 12),
        st.integers(0, 2**32 - 1),
    )
    def test_joins_to_the_rref_of_the_stacked_rows(self, n, k, m, seed):
        # a reduced set of rows joined with new ones, some of them in its
        # span, is the int8 RREF of all of them, zero rows dropped
        rng = np.random.default_rng(seed)
        old = rng.integers(0, 3, size=(k, n))
        new = rng.integers(0, 3, size=(m, n))
        new[: m // 2] = rng.integers(0, 3, size=(m // 2, k)) @ old % 3
        reduced, pivots = int8_rref(old)
        ones, twos = gf3linalg._bitsliced_masks(reduced[: len(pivots)])
        new1, new2 = gf3linalg._bitsliced_masks(new.astype(np.int8))
        given = [*ones], [*twos], [*new1], [*new2]
        got = gf3linalg._extended(ones, twos, new1, new2, n)
        expected, pivots = int8_rref(np.vstack([old, new]))
        assert np.array_equal(
            gf3linalg._unpack_masks(*got, n), expected[: len(pivots)]
        )
        assert (ones, twos, new1, new2) == given


class TestBitslicedSpan:
    @pytest.mark.parametrize("n", [1, 5, 64, 70])
    def test_unpacks_to_the_int8_span(self, n):
        # the bit-sliced span lists the words of the int8 span of the
        # reversed rows, in the same order (its last row varies slowest)
        rng = np.random.default_rng(n)
        for k in range(5):
            basis = rng.integers(0, 3, size=(k, n)).astype(np.int8)
            rows = gf3linalg._mask_words(*gf3linalg._bitsliced_masks(basis), n)
            words = unpack_words(*gf3linalg._bitsliced_span(rows), n)
            assert np.array_equal(words, int8_span(basis[::-1])), (n, k)


class TestMacWilliams:
    def test_tetracode_is_self_dual(self):
        assert gf3linalg.macwilliams_transform([1, 0, 0, 8, 0], 2) == [1, 0, 0, 8, 0]

    def test_zero_code_dualizes_to_full_space(self):
        n = 7
        assert gf3linalg.macwilliams_transform([1] + [0] * n, 0) == [
            comb(n, w) * 2**w for w in range(n + 1)
        ]

    def test_matches_enumerated_null_space(self):
        rng = np.random.default_rng(11)
        gen = rng.integers(0, 3, size=(4, 9))
        dual = gf3linalg.null_space(gen)
        assert gf3linalg.macwilliams_transform(
            gf3linalg.weight_distribution(gen), gf3linalg.rank(gen)
        ) == brute_distribution(dual)

    @pytest.mark.parametrize(
        "distribution,dim",
        [
            ([1, 0, 0, 7, 0], 2),  # total not 3^dim: A_w not integral
            ([1, 0, 0, 8, 0], 1),  # wrong dimension
            ([1, 0, 0, 2, 6], 2),  # not a code's distribution: A_1 < 0
        ],
    )
    def test_inconsistent_input_is_refused(self, distribution, dim):
        with pytest.raises(SelfCheckFailed):
            gf3linalg.macwilliams_transform(distribution, dim)
