"""Cyclic and negacyclic codes over GF(3) defined by generator polynomials.

A length-n code with generator g (a monic divisor of x^n -+ 1) has
dimension k = n - deg g, generator matrix rows x^i * g for i < k,
dual generator equal to the monic reciprocal of (modulus / g), and a
divisibility-based membership test.

Both exact invariants start from the systematic matrix [I_k | P], built
without elimination: row j is x^j + x^k s_j, s_j being the remainder of
-x^(j-k) modulo g (systematic encoding by division), read off one
forward chain of remainders of powers of x by ``poly``'s one division
step, and the same chain checks that g divides the modulus.  Its rows
are bit-sliced (ones, twos) masks, the format ``gf3linalg`` owns.
The weight distribution enumerates the smaller of the code and its dual
(dimension at most 14) as words, the dual side carried over by the
MacWilliams transform.  Minimum Hamming distance has one exact engine for
every k: a Brouwer-Zimmermann search on the information set 0..k-1, which
the cyclic (or negacyclic) shift makes sufficient on its own.  It hands
the masks to ``gf3linalg``'s one level kernel, which packs them for
numpy only for a large level, so the distance of a small code imports
no numpy.
``gf3linalg.min_weight`` on the generator matrix and the weight
distribution serve the tests as independent oracles.
"""

from __future__ import annotations

from math import comb

from . import gf3linalg
from ._record import Record
from .errors import (
    BudgetExceeded,
    LengthMismatch,
    NotADivisor,
    SelfCheckFailed,
    ZeroCode,
    ZeroPolynomial,
)
from .gf3linalg import np
from .poly import ModulusSign, Z3Poly, _divided, modulus

__all__ = ["TernaryPolyCode", "MAX_DISTANCE_WORDS"]

# Candidate words one distance search may enumerate, counted in
# 64-coordinate limbs (words times ceil(n/64)), so that the budget also
# bounds memory at any length.  The costliest divisor code with n <= 48
# needs 5,080,816 (a [46, 24, 13] code): 0.55-0.67 s, about 8e6 to 9e6
# words a second, on a shared 2-vCPU x86_64 machine; nearly all of it is
# in the packed levels 5 and 6.
MAX_DISTANCE_WORDS = 30_000_000


class TernaryPolyCode(Record):
    """An ideal of Z3[x]/(x^n - 1) or Z3[x]/(x^n + 1), as a linear code."""

    __slots__ = ("n", "sign", "g", "k", "__weakref__")

    def __init__(self, n: int, sign: ModulusSign, g: Z3Poly):
        if not isinstance(g, Z3Poly):
            g = Z3Poly(g)
        if not g:
            raise ZeroPolynomial("generator must be nonzero")
        g = g.monic()
        m = modulus(n, sign)
        if not g.divides(m):
            raise NotADivisor(f"{g} does not divide {m}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "k", n - g.degree)

    def __repr__(self):
        return f"TernaryPolyCode(n={self.n}, sign={self.sign}, g={self.g}, k={self.k})"

    # -- structure ---------------------------------------------------

    @property
    def modulus(self) -> Z3Poly:
        return modulus(self.n, self.sign)

    @property
    def is_zero(self) -> bool:
        return self.k == 0

    @property
    def is_full(self) -> bool:
        return self.k == self.n

    @property
    def cardinality_log3(self) -> int:
        return self.k

    def generator_matrix(self) -> np.ndarray:
        """k x n matrix whose rows are the coefficient vectors of
        x^i * g for 0 <= i < k."""
        g, k = self.g, self.k
        return gf3linalg._unpack_masks(
            [g.ones << i for i in range(k)], [g.twos << i for i in range(k)], self.n
        )

    def codewords(self) -> np.ndarray:
        """All 3^k codewords (for small k), the zero word first."""
        g, rows = self.g, range(self.k - 1, -1, -1)
        words = gf3linalg._mask_words(
            [g.ones << i for i in rows], [g.twos << i for i in rows], self.n
        )
        return gf3linalg._unpack_words(gf3linalg._bitsliced_span(words), self.n)

    # -- operations ----------------------------------------------------

    def dual(self) -> "TernaryPolyCode":
        """Same-length code generated by the monic reciprocal of
        (modulus / g); its dimension is deg g."""
        h = self.modulus // self.g
        return TernaryPolyCode(self.n, self.sign, h.reciprocal().monic())

    def contains_dual(self) -> bool:
        """Divisibility criterion: the modulus is a multiple of
        g * reciprocal(g)."""
        return (self.g * self.g.reciprocal()).divides(self.modulus)

    def contains_dual_by_subset(self) -> bool:
        """Oracle version of contains_dual: membership of every dual
        generator row."""
        dual = self.dual()
        return all(self.membership(row) for row in dual.generator_matrix())

    def contains(self, other: "TernaryPolyCode") -> bool:
        """Subcode test: both are g-divisibility ideals, so containment
        is generator divisibility."""
        if (self.n, self.sign) != (other.n, other.sign):
            raise LengthMismatch("codes live in different ambient spaces")
        return self.g.divides(other.g) if other.g else True

    def membership(self, word) -> bool:
        """Whether the word's polynomial is a multiple of g."""
        try:
            entries = [int(c) % 3 for c in word]
        except TypeError:  # a scalar, or a nested entry
            entries = None
        if entries is None or len(entries) != self.n:
            raise LengthMismatch(f"expected a length-{self.n} word")
        return not (Z3Poly(entries) % self.g)

    def weight_distribution(self) -> list[int]:
        """Exact [A_0, ..., A_n]: the systematic rows of the smaller of C
        and C^perp are enumerated, and when that is the dual, A(C) comes
        from the MacWilliams transform of its distribution.  Raises
        ``BudgetExceeded`` when both dimensions exceed the enumeration
        cap."""
        small = self if self.k <= self.n - self.k else self.dual()
        words = gf3linalg._mask_words(*small._systematic_masks(), self.n)
        dist = gf3linalg._weight_distribution(words, self.n)
        if small is self:
            return dist
        return gf3linalg.macwilliams_transform(dist, small.k)

    def _systematic_masks(self) -> tuple[list[int], list[int]]:
        """The rows of [I_k | P] as bit-sliced (ones, twos) masks.  Row j
        is x^j + x^k s_j, s_j = -x^(j-k) = -w x^(n-k+j) mod g for the wrap
        constant w (x^n = w mod g): each s is the last times x, reduced by
        ``poly._divided``.  Carried on to s_k = -w x^n mod g, the chain ends
        at -1 exactly when g divides x^n - w, else ``SelfCheckFailed``."""
        k, g = self.k, self.g
        g1, g2 = g.ones, g.twos
        # s_0 = -w x^(n-k) mod g = w (g - x^(n-k)), g being monic
        s1, s2 = g1 ^ 1 << g.degree, g2
        if self.sign is ModulusSign.MINUS:
            s1, s2 = s2, s1
        ones, twos = [], []
        for j in range(k):
            ones.append(1 << j | s1 << k)
            twos.append(s2 << k)
            *_, s1, s2 = _divided(s1 << 1, s2 << 1, g1, g2)
        if g.degree and (s1, s2) != (0, 1):
            raise SelfCheckFailed(f"{g} does not divide {self.modulus}")
        return ones, twos

    def min_distance(self) -> int:
        """Exact minimum Hamming weight of a nonzero codeword, by a
        Brouwer-Zimmermann search on one information set (Grassl 2006).

        The systematic matrix [I_k | P] comes from the remainders of
        powers of x modulo g (``_systematic_masks``), and level t
        enumerates the words with t nonzeros among coordinates 0..k-1.
        Any k cyclically consecutive coordinates are an information set
        too, and the (signed) shift keeps weight, so a word of weight w
        has a shift with at most floor(w k / n) nonzeros among 0..k-1.
        Once levels below t are done, every word lighter than best has had
        such a shift seen when (best - 1) k < t n, and the search stops.
        Each level is one call of ``gf3linalg._min_combination_weight``
        on the systematic masks.  Raises ``BudgetExceeded`` before a level
        that would take the candidate count, in limbs, above
        ``MAX_DISTANCE_WORDS``; level 1 is the systematic matrix itself,
        so it is checked before the matrix is built."""
        if self.k == 0:
            raise ZeroCode("the zero code has no nonzero codeword")
        n, k = self.n, self.k
        best, words = n + 1, 0
        for t in range(1, k + 1):
            if (best - 1) * k < t * n:
                break
            words += (comb(k, t) << (t - 1)) * -(-n // 64)
            if words > MAX_DISTANCE_WORDS:
                raise BudgetExceeded(
                    f"the distance of a [{n}, {k}] code needs more than "
                    f"{MAX_DISTANCE_WORDS} candidate words of 64 coordinates "
                    f"by level t = {t}"
                )
            if t == 1:
                ones, twos = self._systematic_masks()
            best = min(best, gf3linalg._min_combination_weight(ones, twos, n, t))
        return best
