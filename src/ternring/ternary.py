"""Cyclic and negacyclic codes over GF(3) defined by generator polynomials.

A length-n code with generator g (a monic divisor of x^n -+ 1) has
dimension k = n - deg g, generator matrix rows x^i * g for i < k,
dual generator equal to the monic reciprocal of (modulus / g), and a
divisibility-based membership test.  The weight distribution is exact:
the smaller of the code and its dual (dimension at most 14) is fully
enumerated by ``gf3linalg.weight_distribution`` on bit-sliced words,
whose weights are popcounts, and the dual side is carried over by the
MacWilliams transform.  Minimum Hamming distance is read off it; only
codes whose dimension and codimension both exceed 14 fall to an
exhaustive low-weight support search instead.  The support search and
``gf3linalg.min_weight`` on the generator matrix serve the tests as
independent oracles.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import gf3linalg
from .errors import (
    LengthMismatch,
    NotADivisor,
    SelfCheckFailed,
    ZeroCode,
    ZeroPolynomial,
)
from .poly import ModulusSign, Z3Poly, modulus

__all__ = ["TernaryPolyCode"]


class TernaryPolyCode:
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

    def __setattr__(self, name, value):
        raise AttributeError("TernaryPolyCode is immutable")

    def __eq__(self, other):
        if not isinstance(other, TernaryPolyCode):
            return NotImplemented
        return (self.n, self.sign, self.g) == (other.n, other.sign, other.g)

    def __hash__(self):
        return hash((self.n, self.sign, self.g))

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
        rows = np.zeros((self.k, self.n), dtype=np.int8)
        coeffs = self.g.coeffs
        for i in range(self.k):
            rows[i, i : i + len(coeffs)] = coeffs
        return rows

    def codewords(self) -> np.ndarray:
        """All 3^k codewords (for small k), the zero word first."""
        return gf3linalg._span(self.generator_matrix())

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
        vec = np.asarray(word, dtype=np.int64) % 3
        if vec.ndim != 1 or vec.shape[0] != self.n:
            raise LengthMismatch(f"expected a length-{self.n} word")
        return not (Z3Poly(vec.tolist()) % self.g)

    def weight_distribution(self) -> list[int]:
        """Exact [A_0, ..., A_n]: the smaller of C and C^perp is
        enumerated, and when that is the dual, A(C) comes from the
        MacWilliams transform of its distribution.  Raises ValueError
        when both dimensions exceed the enumeration cap."""
        if self.k <= self.n - self.k:
            return gf3linalg.weight_distribution(self.generator_matrix())
        dual = self.dual()
        return gf3linalg.macwilliams_transform(
            gf3linalg.weight_distribution(dual.generator_matrix()), dual.k
        )

    def min_distance(self) -> int:
        """Exact minimum Hamming weight of a nonzero codeword: the first
        nonzero weight of weight_distribution(), or the support search
        when both k and n - k exceed the enumeration cap."""
        if self.k == 0:
            raise ZeroCode("the zero code has no nonzero codeword")
        if min(self.k, self.n - self.k) > gf3linalg.MAX_ENUMERATION_DIM:
            return self._low_weight_search()
        distribution = self.weight_distribution()
        return next(w for w in range(1, self.n + 1) if distribution[w])

    def _low_weight_search(self) -> int:
        """Smallest w such that some word of support size w is divisible
        by g; exhaustive over supports and coefficient patterns, so the
        first hit is exact."""
        deg = self.g.degree
        if deg == 0:
            return 1
        # residue_table[i] = coefficient vector of x^i mod g
        residue_table = np.zeros((self.n, deg), dtype=np.int64)
        r = Z3Poly([1])
        x = Z3Poly.monomial(1)
        for i in range(self.n):
            residue_table[i, : len(r.coeffs)] = r.coeffs
            r = (r * x) % self.g
        # The first support coefficient can be fixed to 1 (scaling by 2
        # preserves both support and divisibility).
        for w in range(1, self.n + 1):
            patterns = np.array(
                list(itertools.product((1, 2), repeat=w - 1)), dtype=np.int64
            )
            patterns = np.hstack([np.ones((patterns.shape[0], 1), dtype=np.int64), patterns])
            for support in itertools.combinations(range(self.n), w):
                residues = residue_table[list(support)]
                remainders = (patterns @ residues) % 3
                if (~remainders.any(axis=1)).any():
                    return w
        raise SelfCheckFailed("the support search found no nonzero codeword")
