"""Linear algebra over GF(3): matrices in and out are numpy int8 arrays
with entries reduced mod 3.

These helpers back the code constructions: row reduction for ranks and
canonical bases, null spaces for duals, row-space membership for
containment oracles, exact weight distributions and minimum weights by
enumeration, and the MacWilliams transform to the dual's distribution.

This module alone knows the word format: a word is bit-sliced
(Boothby-Bradshaw 2009) into one mask of its coordinates equal to 1 and
one of those equal to 2, bit j being coordinate j, and ``_add`` is the
one two-plane adder.  Int8 matrices are the public boundary; rows are
held as Python-int (ones, twos) masks for elimination, and as uint64
words for enumeration, where a weight is a popcount.  Every int8 entry
packs, runs a mask kernel and unpacks only what is asked for: row
reduction goes through ``_reduced`` (``_bitsliced_masks``, then the one
Gauss-Jordan loop ``_eliminate``), ``null_space`` reads its rows off the
reduced masks (``_null_masks``), ``row_space_contains`` reduces the
vectors by them (``_residues``), and ``_unpack_masks`` gives the array
back.  Rows that are already masks stay masks: ``_extended`` joins new
rows to a reduced set, ``rcodes.GrayModule`` takes its dual by
``_null_masks``, and ``_block_rotation``
is the one Gray-space shift (``rcodes.gray_shift``), a rotation of each
block of a row with the wrapped bits doubled, so ``rcodes.GrayModule``
closes a module under shifts without building an array.  Full
enumeration (``_weight_distribution``, behind ``weight_distribution``)
takes words (``_mask_words``).  The distance search has one level
kernel, ``_min_combination_weight``, behind ``min_combination_weight``:
it takes masks, and packs them into words for numpy only for a level of
more than ``_NUMPY_LEVEL_WORDS`` limbs.  Below that size a walk on
Python ints is faster than numpy's per-call cost, above it slower (see
the constant), so a small code's distance imports no numpy.
Berlekamp's kernel for a squarefree part that is not a binomial
(``poly``) stays on masks: ``_left_kernel`` runs ``_eliminate`` on the
rows of [A | I] and builds no array.  A ``poly.Z3Poly`` is held as one
row, the masks of its coefficients (``_row_masks`` and ``_row_entries``
convert a row), and sums by ``_add``.

numpy is first imported here, on first use: every module of the package
uses the handle ``np`` below in its place, which loads numpy when an
array is first built or read, so ``import ternring`` and the commands
that build no array (``factor``, for one) run without it.
"""

from __future__ import annotations

import functools
import itertools
from math import comb

from .errors import BudgetExceeded, SelfCheckFailed

__all__ = [
    "as_gf3",
    "rref",
    "rank",
    "row_basis",
    "null_space",
    "row_space_contains",
    "same_row_space",
    "mat_mul",
    "weight_distribution",
    "min_weight",
    "min_combination_weight",
    "macwilliams_transform",
    "MAX_ENUMERATION_DIM",
]

# Full codeword enumeration is used up to 3^14 words; beyond that the
# callers must use a directed search.
MAX_ENUMERATION_DIM = 14

# 64-coordinate limbs the packed level kernel holds at once, as many as
# the words of the suffix block of weight_distribution when n <= 64.
_BLOCK_WORDS = 3**9

# Largest level of the distance search, in candidate words times
# ceil(n/64), that _min_combination_weight enumerates on Python-int
# masks; larger levels are packed for numpy.  Over 323 random levels
# (k <= 25, t <= 4, n in {12, 24, 46, 100}) the median time ratio of the
# mask walk to the packed kernel was 0.19 at 4-7 limbs, 0.63 at 64-127,
# 0.77 at 128-255, 0.90 at 256-511 and 1.3-1.4 from 1,024 to 8,191; at
# t = 4 the walk already lost at 120-280 limbs (1.0-1.5).  A walk at
# every size took 1.65x as long over 24 divisor codes [46, 20..26]
# (10.8 s against 6.5 s), on a 2-vCPU x86_64 machine.
_NUMPY_LEVEL_WORDS = 128


class _Numpy:
    """numpy, imported on the first attribute read and from then on read
    from this object's own attributes."""

    def __getattr__(self, name):
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()


def as_gf3(data) -> np.ndarray:
    """A fresh 2-D int8 array reduced mod 3."""
    arr = np.array(data, dtype=np.int64, copy=True)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError("expected a vector or a matrix")
    return (arr % 3).astype(np.int8)


def _add(a1, a2, b1, b2):
    """The sum of the bit-sliced words (a1, a2) and (b1, b2) as (ones,
    twos), on Python ints or on uint64 arrays.  Doubling a word (2 = -1)
    swaps its planes."""
    t = (a1 | b2) ^ (a2 | b1)
    return (a2 | b2) ^ t, (a1 | b1) ^ t


def _block_rotation(n: int, l: int, doubled, twist: bool):
    """The map on lists of bit-sliced rows made of len(doubled) blocks of
    n coordinates that rotates every block by l coordinates (coordinate
    i to i + l mod n), doubles the l wrapped coordinates of block b where
    doubled[b] (swapping the planes on those bits), and with twist then
    exchanges the last two blocks.  A rotation is two shifts of the whole
    row, masked so that no bit crosses into the next block."""
    count = len(doubled)
    spread = sum(1 << (b * n) for b in range(count))
    block, low = (1 << n) - 1, (1 << l) - 1
    stay, wrapped = (block >> l) * spread, low * spread
    swap = sum(low << (b * n) for b, flag in enumerate(doubled) if flag)
    last = block << ((count - 1) * n)
    before = last >> n
    kept = block * spread ^ last ^ before

    def shift(ones: list[int], twos: list[int]) -> tuple[list[int], list[int]]:
        out1, out2 = [], []
        for a1, a2 in zip(ones, twos):
            a1 = (a1 & stay) << l | (a1 >> (n - l)) & wrapped
            a2 = (a2 & stay) << l | (a2 >> (n - l)) & wrapped
            t = (a1 ^ a2) & swap
            a1, a2 = a1 ^ t, a2 ^ t
            if twist:
                a1 = a1 & kept | (a1 & before) << n | (a1 & last) >> n
                a2 = a2 & kept | (a2 & before) << n | (a2 & last) >> n
            out1.append(a1)
            out2.append(a2)
        return out1, out2

    return shift


@functools.cache
def _plane_values() -> np.ndarray:
    return np.array([1, 2], dtype=np.int8).reshape(2, 1, 1)


def _bitsliced_masks(a: np.ndarray) -> tuple[list[int], list[int]]:
    """The rows of a reduced GF(3) matrix as two lists of Python ints, the
    ones and twos masks: bit j of a row's mask is set where its entry j
    is 1 (ones) or 2 (twos)."""
    planes = np.packbits(a == _plane_values(), axis=-1, bitorder="little")
    ones, twos = ([int.from_bytes(r, "little") for r in plane] for plane in planes)
    return ones, twos


def _unpack_masks(ones: list[int], twos: list[int], n: int) -> np.ndarray:
    """The int8 (rows, n) matrix of length-n bit-sliced rows, the inverse
    of ``_bitsliced_masks``, read off their words."""
    return _unpack_words(_mask_words(ones, twos, n), n)


def _unpack_words(words, n: int) -> np.ndarray:
    """The int8 (rows, n) matrix of length-n words given as (ones, twos) planes."""
    planes = np.asarray(words).view(np.uint8)
    bits = np.unpackbits(planes, axis=-1, count=n, bitorder="little")
    return (bits[0] + 2 * bits[1]).view(np.int8)


def _mask_words(ones: list[int], twos: list[int], n: int) -> np.ndarray:
    """Length-n bit-sliced rows held as Python-int masks, as the
    (2, rows, ceil(n/64)) uint64 words of the enumeration kernels: bit j
    of limb j // 64 of row i is set in plane 0 where entry (i, j) is 1,
    in plane 1 where it is 2, and the bits past n are clear."""
    width = 8 * -(-n // 64)
    data = b"".join(m.to_bytes(width, "little") for m in ones + twos)
    return np.frombuffer(data, dtype=np.uint64).reshape(2, len(ones), width // 8)


def _eliminate(ones: list[int], twos: list[int], columns) -> list[int]:
    """Gauss-Jordan elimination of bit-sliced rows in place, over the given
    columns in order; returns the pivot columns.  Each pivot row is found
    by a bit test, normalised to a leading 1 by doubling it, which swaps
    its planes, and subtracted only from the rows with a nonzero in its
    column: from a row whose entry is 1 by adding 2p, p's planes swapped,
    from one whose entry is 2 (= -1) by adding p."""
    rows = len(ones)
    pivots = []
    for c in columns:
        r = len(pivots)
        if r == rows:
            break
        bit = 1 << c
        for p in range(r, rows):
            if (ones[p] | twos[p]) & bit:
                break
        else:
            continue
        ones[r], ones[p], twos[r], twos[p] = ones[p], ones[r], twos[p], twos[r]
        if twos[r] & bit:
            ones[r], twos[r] = twos[r], ones[r]
        p1, p2 = ones[r], twos[r]
        for i in range(rows):
            # _add inlined: a call per updated row made this loop 1.14-1.20x
            # slower on random matrices from 24x36 to 300x300 (BENCH_15.json)
            a1 = ones[i]
            if a1 & bit:
                if i != r:
                    a2 = twos[i]
                    t = (a1 | p1) ^ (a2 | p2)
                    ones[i], twos[i] = (a2 | p1) ^ t, (a1 | p2) ^ t
            else:
                a2 = twos[i]
                if a2 & bit:
                    t = (a1 | p2) ^ (a2 | p1)
                    ones[i], twos[i] = (a2 | p2) ^ t, (a1 | p1) ^ t
        pivots.append(c)
    return pivots


def _left_kernel(
    ones: list[int], twos: list[int], n: int
) -> tuple[list[int], list[int], int]:
    """A basis of the left kernel {h : hA = 0} of the matrix A whose rows
    are the given length-n bit-sliced rows, as masks over A's rows, and
    the rank of A.  [A | I] is eliminated over A's columns by
    ``_eliminate``: the rows that vanish there hold their combination h
    of A's rows in the identity half.  The given lists are not changed."""
    ones = [a | 1 << (n + i) for i, a in enumerate(ones)]
    twos = list(twos)
    rank = len(_eliminate(ones, twos, range(n)))
    return [a >> n for a in ones[rank:]], [a >> n for a in twos[rank:]], rank


def _extended(ones, twos, new1: list[int], new2: list[int], n: int):
    """The masks of the reduced row echelon form of the span of reduced
    length-n rows (ones, twos) and the rows (new1, new2); no given list
    is changed.  The new rows are first reduced by the pivot rows
    (``_residues``); the rows that stay nonzero are eliminated among
    themselves, their pivots are cleared from the old rows, and the rows
    are merged in pivot order."""
    if not ones:
        ones, twos = [*new1], [*new2]
        k = len(_eliminate(ones, twos, range(n)))
        return ones[:k], twos[:k]
    rest1, rest2 = _residues(ones, twos, new1, new2)
    fresh = len(_eliminate(rest1, rest2, range(n)))
    if not fresh:
        return [*ones], [*twos]
    ones, twos = rest1[:fresh] + [*ones], rest2[:fresh] + [*twos]
    _eliminate(ones, twos, [(a & -a).bit_length() - 1 for a in ones[:fresh]])
    order = sorted(range(len(ones)), key=lambda i: ones[i] & -ones[i])
    return [ones[i] for i in order], [twos[i] for i in order]


def _residues(ones, twos, new1, new2) -> tuple[list[int], list[int]]:
    """The rows (new1, new2) that stay nonzero once reduced by the
    reduced rows (ones, twos) at the pivot columns where they are
    nonzero, a pivot being a reduced row's lowest set bit, a 1:
    subtracting a pivot row clears its column and no other pivot column.
    So they are empty exactly when every new row lies in the span."""
    pivot_rows = {a & -a: (a, b) for a, b in zip(ones, twos)}
    pivots = sum(pivot_rows)
    rest1, rest2 = [], []
    for a1, a2 in zip(new1, new2):
        hits = (a1 | a2) & pivots
        while hits:
            bit = hits & -hits
            hits ^= bit
            p1, p2 = pivot_rows[bit]
            # an entry 1 is cleared by adding 2p (p's planes swapped)
            a1, a2 = _add(a1, a2, p2, p1) if a1 & bit else _add(a1, a2, p1, p2)
        if a1 | a2:
            rest1.append(a1)
            rest2.append(a2)
    return rest1, rest2


_ONES_DIGITS = bytes.maketrans(b"\0\1\2", b"010")
_TWOS_DIGITS = bytes.maketrans(b"\0\1\2", b"001")
_HEX_DIGITS = bytes.maketrans(b"012", b"\0\1\2")


def _row_masks(entries) -> tuple[int, int]:
    """The (ones, twos) masks of one row of entries in 0..2: the entries'
    bytes, last entry first, read as two binary numerals."""
    row = bytes(entries)[::-1]
    ones = int(row.translate(_ONES_DIGITS) or b"0", 2)
    return ones, int(row.translate(_TWOS_DIGITS) or b"0", 2)


def _row_entries(ones: int, twos: int, n: int) -> list[int]:
    """The n entries of one bit-sliced row, the inverse of ``_row_masks``:
    a mask's binary numeral read in base 16 moves bit j to hex digit j, so
    entry j is hex digit j of ones + 2 twos (``[:n]`` drops the digit of
    0 at n = 0).  Power-of-two bases convert in time linear in n."""
    row = int(f"{ones:b}", 16) + 2 * int(f"{twos:b}", 16)
    return list(f"{row:0{n}x}"[::-1][:n].encode().translate(_HEX_DIGITS))


def _reduced(matrix) -> tuple[list[int], list[int], list[int], int]:
    """The masks of the reduced row echelon form of a matrix (zero past
    the pivot rows), its pivot columns and its column count: the matrix
    is packed once and eliminated by ``_eliminate``."""
    a = as_gf3(matrix)
    ones, twos = _bitsliced_masks(a)
    return ones, twos, _eliminate(ones, twos, range(a.shape[1])), a.shape[1]


def rref(matrix) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns."""
    ones, twos, pivots, n = _reduced(matrix)
    return _unpack_masks(ones, twos, n), tuple(pivots)


def rank(matrix) -> int:
    return len(_reduced(matrix)[2])


def row_basis(matrix) -> np.ndarray:
    """Canonical (RREF) basis of the row space, zero rows dropped."""
    ones, twos, pivots, n = _reduced(matrix)
    return _unpack_masks(ones[: len(pivots)], twos[: len(pivots)], n)


def null_space(matrix) -> np.ndarray:
    """Basis rows of {x : every row of matrix is orthogonal to x}, one
    per free column in order (``_null_masks``)."""
    ones, twos, pivots, n = _reduced(matrix)
    k = len(pivots)
    return _unpack_masks(*_null_masks(ones[:k], twos[:k], n), n)


def _null_masks(ones, twos, n: int) -> tuple[list[int], list[int]]:
    """The masks of a basis of the length-n vectors orthogonal to the
    reduced rows (ones, twos), whose pivots are their lowest set bits:
    one row per free column f in order, with 1 at f and -R[i, f] at the
    i-th pivot."""
    pivots = [a & -a for a in ones]
    held = sum(pivots)
    free = [1 << f for f in range(n) if not held >> f & 1]
    out1 = [f | sum(p for p, r2 in zip(pivots, twos) if r2 & f) for f in free]
    return out1, [sum(p for p, r1 in zip(pivots, ones) if r1 & f) for f in free]


def row_space_contains(matrix, vectors) -> bool:
    """Whether every given vector lies in the row space of matrix: the
    vectors' masks must vanish once reduced by the pivot rows of the
    eliminated matrix (``_residues``)."""
    v = as_gf3(vectors)
    ones, twos, pivots, n = _reduced(matrix)
    if v.shape[1] != n:
        raise ValueError("column count mismatch")
    k = len(pivots)
    return not _residues(ones[:k], twos[:k], *_bitsliced_masks(v))[0]


def same_row_space(a, b) -> bool:
    a1, a2, pa, n = _reduced(a)
    b1, b2, pb, m = _reduced(b)
    k = len(pa)
    return n == m and pa == pb and a1[:k] == b1[:k] and a2[:k] == b2[:k]


def mat_mul(a, b) -> np.ndarray:
    """(a @ b) mod 3 without int8 overflow."""
    prod = as_gf3(a).astype(np.int64) @ as_gf3(b).astype(np.int64)
    return (prod % 3).astype(np.int8)


def _bitsliced_span(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All 3^k combinations of k rows held as words (see ``_mask_words``)
    as two (3^k, limbs) uint64 arrays, the ones and twos masks, the zero
    word first; the last row's coefficient varies slowest.  Each row
    triples the words built so far: the block itself, the block plus the
    row, and the block plus twice the row, written in place by the
    formula of ``_add``."""
    _, k, limbs = rows.shape
    ones = np.zeros((3**k, limbs), dtype=np.uint64)
    twos = np.zeros_like(ones)
    carry = np.empty((2, 3 ** max(k - 1, 0), limbs), dtype=np.uint64)
    size = 1
    for i in range(k):
        # (the row, twice the row) as ones planes, and reversed as twos
        b1 = rows[:, i, None]
        b2 = b1[::-1]
        a1, a2, t = ones[:size], twos[:size], carry[:, :size]
        sum1 = ones[size : 3 * size].reshape(2, size, limbs)
        sum2 = twos[size : 3 * size].reshape(2, size, limbs)
        np.bitwise_or(a1, b2, out=t)
        np.bitwise_or(a2, b1, out=sum1)
        t ^= sum1
        np.bitwise_or(a2, b2, out=sum1)
        sum1 ^= t
        np.bitwise_or(a1, b1, out=sum2)
        sum2 ^= t
        size *= 3
    return ones, twos


def _span_masks(ones: list[int], twos: list[int]) -> list[tuple[int, int]]:
    """All 3^k combinations of k bit-sliced rows as (ones, twos) pairs of
    Python-int masks, in the order of ``_bitsliced_span``: the zero word
    first, the last row's coefficient varying slowest."""
    words = [(0, 0)]
    for b1, b2 in zip(ones, twos):
        words += [_add(a1, a2, b1, b2) for a1, a2 in words] + [
            _add(a1, a2, b2, b1) for a1, a2 in words
        ]
    return words


def _weights(words: np.ndarray) -> np.ndarray:
    """Set bits in each row of a (count, limbs) uint64 array."""
    bits = np.bitwise_count(words)
    # limb by limb: a sum over the short axis is several times slower
    weights = bits[:, 0]
    for limb in range(1, bits.shape[1]):
        weights = np.add(weights, bits[:, limb], dtype=np.intp)
    return weights


def weight_distribution(generator) -> list[int]:
    """Exact weight distribution [A_0, ..., A_n] of the row space (the
    generator may contain dependent rows; the span is what is
    enumerated): ``_weight_distribution`` of its reduced basis."""
    ones, twos, pivots, n = _reduced(generator)
    k = len(pivots)
    return _weight_distribution(_mask_words(ones[:k], twos[:k], n), n)


def _weight_distribution(rows: np.ndarray, n: int) -> list[int]:
    """``weight_distribution`` of the span of k independent length-n rows
    held as words, by chunked full enumeration.  At most 3^9 words are
    held at once: a suffix block over the last nine rows, shifted by each
    prefix combination of the others.  Raises ``BudgetExceeded`` when k
    is above ``MAX_ENUMERATION_DIM``."""
    k = rows.shape[1]
    if k > MAX_ENUMERATION_DIM:
        raise BudgetExceeded(
            f"enumeration of 3^{k} codewords exceeds the 3^{MAX_ENUMERATION_DIM} limit"
        )
    k_low = min(k, 9)
    ones, twos = _bitsliced_span(rows[:, k - k_low :])
    counts = np.bincount(_weights(ones | twos), minlength=n + 1)
    # A coordinate of suffix + prefix vanishes exactly where the suffix
    # equals -prefix, whose masks are the prefix's swapped: the weight
    # counts the bits where the suffix differs from them.  The buffers
    # are reused, since a fresh block per prefix costs page faults.
    differ, scratch = np.empty_like(ones), np.empty_like(ones)
    prefix_ones, prefix_twos = _bitsliced_span(rows[:, : k - k_low])
    for p1, p2 in zip(prefix_ones[1:], prefix_twos[1:]):
        np.bitwise_xor(ones, p2, out=differ)
        np.bitwise_xor(twos, p1, out=scratch)
        np.bitwise_or(differ, scratch, out=differ)
        counts += np.bincount(_weights(differ), minlength=n + 1)
    return counts.tolist()


def min_weight(generator) -> int:
    """Exact minimum Hamming weight over all nonzero codewords of the
    row space: the first w >= 1 with A_w > 0 in its weight distribution."""
    distribution = weight_distribution(generator)
    if sum(distribution) == 1:
        raise ValueError("zero code has no nonzero codewords")
    for w in range(1, len(distribution)):
        if distribution[w]:
            return w
    raise SelfCheckFailed("a nonzero row space enumerated no nonzero codeword")


def min_combination_weight(matrix, t: int) -> int:
    """Least Hamming weight of c_1 r_1 + ... + c_t r_t over every set of t
    distinct rows of the matrix and every nonzero coefficient vector with
    c_1 = 1 (doubling a word keeps its weight): C(k, t) 2^(t-1) words.
    Raises ``ValueError`` unless 1 <= t <= k."""
    a = as_gf3(matrix)
    return _min_combination_weight(*_bitsliced_masks(a), a.shape[1], t)


def _min_combination_weight(ones, twos, n: int, t: int) -> int:
    """``min_combination_weight`` of length-n bit-sliced rows, the one
    level kernel of the distance search.  Level 1 reads the rows' own
    weights.  A level of at most ``_NUMPY_LEVEL_WORDS`` words, counted
    in 64-coordinate limbs, is enumerated on the masks row by row: each
    row b is the last row of every sum a of t - 1 earlier rows, met as
    a + b, nonzero where (a1 ^ b2) | (a2 ^ b1), and as a - b, nonzero
    where (a1 ^ b1) | (a2 ^ b2); then it extends the shorter sums by
    ``_add``.  (A depth-first walk, one call per partial sum, took 1.6 to
    2.5 times as long at t = 3 and 4.)  A larger level runs
    ``_packed_min_combination_weight`` on the rows packed as words
    (``_mask_words``) anew: packing took about 4 us, such a level 0.07 ms
    or more (k <= 26, n <= 46, 2-vCPU x86_64)."""
    k = len(ones)
    if not 1 <= t <= k:
        raise ValueError(f"cannot combine {t} of {k} rows")
    if t == 1:
        return min((a | b).bit_count() for a, b in zip(ones, twos))
    if (comb(k, t) << (t - 1)) * -(-n // 64) > _NUMPY_LEVEL_WORDS:
        return _packed_min_combination_weight(_mask_words(ones, twos, n), t)
    # sums[d]: every sum of d + 1 of the rows before the current one,
    # the first with coefficient 1 and the others +-1
    sums = [[] for _ in range(t - 1)]
    best = n
    for b1, b2 in zip(ones, twos):
        if last := sums[-1]:
            best = min(
                best,
                min(((a1 ^ b2) | (a2 ^ b1)).bit_count() for a1, a2 in last),
                min(((a1 ^ b1) | (a2 ^ b2)).bit_count() for a1, a2 in last),
            )
        for d in range(t - 2, 0, -1):
            shorter = sums[d - 1]
            sums[d] += [_add(a1, a2, b1, b2) for a1, a2 in shorter]
            sums[d] += [_add(a1, a2, b2, b1) for a1, a2 in shorter]
        sums[0].append((b1, b2))
    return best


def _packed_min_combination_weight(rows: np.ndarray, t: int) -> int:
    """``min_combination_weight`` of rows held as words, at most 3^9 limbs
    of them at once.  Bit j - 2 of a pattern number picks c_j = 2."""
    k, limbs = rows.shape[1:]
    # signed[c - 1] holds the rows times c as (ones, twos) planes
    signed = np.stack([rows, rows[::-1]])
    patterns = 1 << (t - 1)
    block = max(1, _BLOCK_WORDS // limbs)
    step = min(patterns, block)
    subsets = itertools.combinations(range(k), t)
    minima = []
    while chunk := list(itertools.islice(subsets, max(1, block // patterns))):
        chosen = np.array(chunk, dtype=np.intp)
        for start in range(0, patterns, step):
            bits = (np.arange(start, start + step)[:, None] >> np.arange(t - 1)) & 1
            ones, twos = rows[:, chosen[:, 0]]
            for j in range(1, t):
                b = signed[bits[:, j - 1, None], :, chosen[None, :, j]]
                ones, twos = _add(ones, twos, b[..., 0, :], b[..., 1, :])
            minima.append(int(_weights((ones | twos).reshape(-1, limbs)).min()))
    # empty, and so a ValueError, when t is above the number of rows
    return min(minima)


@functools.lru_cache(maxsize=64)
def _krawtchouk(n: int) -> tuple[tuple[int, ...], ...]:
    """K[w][j] = sum_i (-1)^i 2^(w-i) C(j, i) C(n-j, w-i), the ternary
    Krawtchouk values of length n."""
    return tuple(
        tuple(
            sum(
                (-1) ** i * 2 ** (w - i) * comb(j, i) * comb(n - j, w - i)
                for i in range(max(0, w - n + j), min(j, w) + 1)
            )
            for j in range(n + 1)
        )
        for w in range(n + 1)
    )


def macwilliams_transform(distribution, dim: int) -> list[int]:
    """Weight distribution of the dual of a length-n GF(3) code of
    dimension ``dim`` whose weight distribution is [B_0, ..., B_n]:
    A_w = 3^-dim * sum_j B_j K_w(j) in exact integers (MacWilliams-Sloane,
    ch. 5).  The result is checked: every A_w is a nonnegative integer,
    A_0 = 1, and the A_w sum to 3^(n - dim)."""
    n = len(distribution) - 1
    size = 3**dim
    out = []
    for w, row in enumerate(_krawtchouk(n)):
        total = sum(b * kw for b, kw in zip(distribution, row))
        a, rest = divmod(total, size)
        if rest or a < 0:
            raise SelfCheckFailed(f"MacWilliams transform gives A_{w} = {total}/3^{dim}")
        out.append(a)
    if out[0] != 1:
        raise SelfCheckFailed(f"MacWilliams transform gives A_0 = {out[0]}")
    if sum(out) != 3 ** (n - dim):
        raise SelfCheckFailed(
            f"MacWilliams transform counts {sum(out)} words, not 3^{n - dim}"
        )
    return out
