"""Dense univariate polynomials over GF(3).

A polynomial is held as the bit-sliced (ones, twos) masks of its
coefficients (Boothby-Bradshaw 2009), the format ``gf3linalg`` owns, and
one division step on masks, ``_divided``, serves ``Z3Poly.divmod``,
the gcds, Berlekamp's matrix and ``ternary``'s systematic rows.
``coeffs``, the ascending tuple without trailing zeros, is derived when
read.  Text forms accepted everywhere: descending sums like
``x^4+2x^3+x+1`` and bracketed ascending coefficient lists like
``[1,1,0,2,1]``.

Factorization is deterministic: squarefree/cube splitting (this is
characteristic 3), then Berlekamp's algorithm (Knuth, TAOCP vol. 2,
4.6.2) on each squarefree part of degree up to ``MAX_BERLEKAMP_DEGREE``:
one GF(3) kernel, then gcds.  Output is always the canonically sorted
list of monic irreducible factors with multiplicities, so two runs - or
two different correct algorithms - print the same thing.

The kernel of a binomial x^m - c, the squarefree part of every modulus
x^n -+ 1, is read off the cycles of i -> 3i mod m (``_cycle_kernel``),
since its Berlekamp matrix is a signed permutation.  Any other
squarefree part has its matrix built as mask rows and its kernel found
by ``gf3linalg``'s elimination on them.  The split, the gcds and the
squarefree steps run on the masks too, so this module never imports
numpy (see ``gf3linalg``, where it is first imported).
"""

from __future__ import annotations

import itertools
import math
import re
from enum import Enum

from . import gf3linalg
from ._record import Record
from .errors import (
    BothZero,
    BudgetExceeded,
    ConstantPolynomial,
    DivisionByZeroPoly,
    SelfCheckFailed,
    ZeroPolynomial,
)
from .ring import _check_modulus_degree, _joined_terms, _terms

__all__ = [
    "Z3Poly",
    "ModulusSign",
    "modulus",
    "parse_poly",
    "gcd",
    "factor",
    "Factorization",
    "monic_irreducibles",
    "divisors_of_modulus",
]

# Largest squarefree part factor() splits, however its kernel is found.
# The slower way is the elimination, for a part that is not a binomial:
# its Berlekamp matrix is degree bit-sliced rows, 2 x degree bits wide
# with the identity half (about 2 MB at degree 2000), and a random dense
# squarefree polynomial of degree 2000 takes 2.1-2.7 s and peaks at 20 MB
# in a fresh process.  A binomial's kernel is read off its cycles, and
# then the split is the cost: x^2000 - 1, with 55 factors, takes
# 0.6-1.2 s and peaks at 16 MB, x^2000 + 1 0.08-0.13 s (2-vCPU x86_64).
MAX_BERLEKAMP_DEGREE = 2000


class Z3Poly(Record):
    """A polynomial over GF(3); immutable, compared by coefficients, and
    held as their masks ``ones`` and ``twos`` (see the module docstring)."""

    __slots__ = ("ones", "twos")

    def __init__(self, coeffs=()):
        ones, twos = gf3linalg._row_masks([c % 3 for c in coeffs])
        object.__setattr__(self, "ones", ones)
        object.__setattr__(self, "twos", twos)

    # -- constructors --------------------------------------------------

    @classmethod
    def _from_masks(cls, ones: int, twos: int) -> "Z3Poly":
        p = object.__new__(cls)
        object.__setattr__(p, "ones", ones)
        object.__setattr__(p, "twos", twos)
        return p

    @classmethod
    def monomial(cls, degree: int, coef: int = 1) -> "Z3Poly":
        return cls([0] * degree + [coef])

    # -- structure -----------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Ascending, without trailing zeros (empty for the zero polynomial)."""
        return tuple(gf3linalg._row_entries(self.ones, self.twos, self.degree + 1))

    @property
    def degree(self) -> int:
        return (self.ones | self.twos).bit_length() - 1

    @property
    def leading(self) -> int:
        if not self:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return 1 if self.is_monic else 2

    @property
    def constant(self) -> int:
        return (self.ones & 1) + 2 * (self.twos & 1)

    @property
    def is_monic(self) -> bool:
        return self.ones.bit_length() > self.twos.bit_length()

    def __bool__(self) -> bool:
        return bool(self.ones or self.twos)

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.ones == o.ones and self.twos == o.twos

    def __hash__(self):
        return hash((self.ones, self.twos))

    def sort_key(self) -> int:
        """Canonical order: by degree, then lexicographic on the
        coefficients from the leading term down (the printed order): that
        of f(4), each mask read in base 4 (linear time, unlike base 3)."""
        return int(f"{self.ones:b}", 4) + 2 * int(f"{self.twos:b}", 4)

    def __lt__(self, other: "Z3Poly") -> bool:
        return self.sort_key() < other.sort_key()

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return Z3Poly._from_masks(*gf3linalg._add(self.ones, self.twos, o.ones, o.twos))

    __radd__ = __add__

    def __neg__(self):
        return Z3Poly._from_masks(self.twos, self.ones)

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return Z3Poly._from_masks(*gf3linalg._add(self.ones, self.twos, o.twos, o.ones))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        # one shifted copy of the other factor per term of the factor with
        # fewer terms
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a, b = self, o
        if (a.ones | a.twos).bit_count() > (b.ones | b.twos).bit_count():
            a, b = b, a
        s1 = s2 = 0
        terms = a.ones | a.twos
        while terms:
            bit = terms & -terms
            terms ^= bit
            i = bit.bit_length() - 1
            if a.ones & bit:
                s1, s2 = gf3linalg._add(s1, s2, b.ones << i, b.twos << i)
            else:
                s1, s2 = gf3linalg._add(s1, s2, b.twos << i, b.ones << i)
        return Z3Poly._from_masks(s1, s2)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Z3Poly":
        """Square and multiply, started at the lowest set bit of k, so
        that no product has the unit as a factor."""
        if k < 0:
            raise ValueError("a polynomial has no negative power")
        if not k:
            return Z3Poly._from_masks(1, 0)
        base = self
        while not k & 1:
            base, k = base * base, k >> 1
        out = base
        while k := k >> 1:
            base = base * base
            if k & 1:
                out = out * base
        return out

    def divmod(self, other: "Z3Poly") -> tuple["Z3Poly", "Z3Poly"]:
        """Quotient and remainder; the divisor may be non-monic: for g
        with leading coefficient 2, the quotient by 2g doubled."""
        o = _coerce(other)
        if o is None:
            raise TypeError("divisor must be a polynomial")
        if not o:
            raise DivisionByZeroPoly("division by the zero polynomial")
        monic = o.is_monic
        g1, g2 = (o.ones, o.twos) if monic else (o.twos, o.ones)
        q1, q2, r1, r2 = _divided(self.ones, self.twos, g1, g2)
        if not monic:
            q1, q2 = q2, q1
        return Z3Poly._from_masks(q1, q2), Z3Poly._from_masks(r1, r2)

    __divmod__ = divmod

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def divides(self, other: "Z3Poly") -> bool:
        return not other % self

    def monic(self) -> "Z3Poly":
        if not self:
            raise ZeroPolynomial("zero polynomial cannot be made monic")
        return self if self.is_monic else -self

    def reciprocal(self) -> "Z3Poly":
        """x^deg * f(1/x): each mask's binary numeral, padded to deg + 1
        digits, read backwards."""
        if not self:
            raise ZeroPolynomial("zero polynomial has no reciprocal")
        width = self.degree + 1
        ones, twos = (f"{mask:0{width}b}"[::-1] for mask in (self.ones, self.twos))
        return Z3Poly._from_masks(int(ones, 2), int(twos, 2))

    def derivative(self) -> "Z3Poly":
        """i c_i x^(i-1): the terms at i = 1 mod 3 shifted down as they
        are, those at i = 2 mod 3 doubled (planes swapped), and those at
        i = 0 mod 3 dropped."""
        every_third = ((1 << 3 * (self.degree // 3 + 1)) - 1) // 7  # bits 0, 3, 6, ...
        at1, at2 = every_third << 1, every_third << 2
        return Z3Poly._from_masks(
            (self.ones & at1 | self.twos & at2) >> 1,
            (self.twos & at1 | self.ones & at2) >> 1,
        )

    def evaluate(self, t: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * t + c) % 3
        return acc

    # -- text ------------------------------------------------------------

    def __str__(self) -> str:
        # the terms read off the masks' binary digits in one pass, the top
        # one first (clearing one bit of an int per term is quadratic)
        rest = f"{self.ones | self.twos:b}"
        digits = f"{self.ones:0{len(rest)}b}".replace("0", "2")
        top = len(rest) - 1
        return _joined_terms(
            [(top - i, digits[i]) for i, bit in enumerate(rest) if bit == "1"]
        )

    def __repr__(self) -> str:
        return f"Z3Poly({self})"


def _coerce(other):
    if isinstance(other, Z3Poly):
        return other
    if isinstance(other, int):
        return Z3Poly([other])
    return None


def _divided(r1: int, r2: int, g1: int, g2: int) -> tuple[int, int, int, int]:
    """Quotient and remainder of the bit-sliced polynomial (r1, r2) by a
    monic (g1, g2), as (q1, q2, r1, r2): while the remainder's degree is
    at least deg g, its leading term c x^(deg g + i) is cleared by
    subtracting c x^i g, and c x^i joins the quotient.  A divisor that
    is not monic raises ``ValueError``: its ones plane misreads deg g."""
    d = g1.bit_length() - 1
    if g2.bit_length() > d:
        raise ValueError("the divisor must be monic")
    q1 = q2 = 0
    while (i := (r1 | r2).bit_length() - 1 - d) >= 0:
        if r1 >> (d + i) & 1:
            q1 |= 1 << i
            r1, r2 = gf3linalg._add(r1, r2, g2 << i, g1 << i)
        else:
            q2 |= 1 << i
            r1, r2 = gf3linalg._add(r1, r2, g1 << i, g2 << i)
    return q1, q2, r1, r2


def parse_poly(text: str) -> Z3Poly:
    """Parse ``x^4+2x^3+x+1``, ``2``, ``[1,0,2]`` (ascending), with '-' allowed.

    A term's coefficient is ``1``, ``2`` or none, or the whole term is
    ``0``; bracketed coefficients and ``²`` are refused.  The terms are
    cut by ``ring._terms``, as ``parse_ring_poly``'s are.  An entry of
    ``[a,b,c]`` is an ASCII integer, not another spelling ``int`` reads."""
    s = text.replace(" ", "")
    if s.startswith("[") and s.endswith("]"):
        entries = s[1:-1].split(",") if s[1:-1] else []
        if not all(re.fullmatch(r"[+-]?[0-9]+", t) for t in entries):
            raise ValueError(f"bracket entries must be integers, in {text!r}")
        return Z3Poly(map(int, entries))
    if "²" in s:
        raise ValueError(f"write x^2, not x², in {text!r}")
    coeffs: dict[int, int] = {}
    for negated, coef, power in _terms(s):
        if coef == "0" and power is None:
            continue
        if coef not in (None, "1", "2"):
            raise ValueError(f"bad polynomial coefficient: {coef!r} in {text!r}")
        c, power = int(coef or 1), power or 0
        coeffs[power] = coeffs.get(power, 0) + (-c if negated else c)
    deg = max(coeffs, default=-1)
    return Z3Poly(coeffs.get(i, 0) for i in range(deg + 1))


class ModulusSign(Enum):
    """Which modulus a length-n polynomial code lives under."""

    PLUS = "plus"    # x^n - 1, cyclic
    MINUS = "minus"  # x^n + 1, negacyclic

    @property
    def wrap(self) -> int:
        """Scalar picked up on wrap-around: +1 or -1 (as 1 or 2 mod 3)."""
        return 1 if self is ModulusSign.PLUS else 2

    def __str__(self) -> str:
        return self.value


def modulus(n: int, sign: ModulusSign) -> Z3Poly:
    """x^n - 1 for PLUS, x^n + 1 for MINUS; n is checked by
    ``ring._check_modulus_degree``."""
    _check_modulus_degree(n)
    if sign is ModulusSign.PLUS:
        return Z3Poly._from_masks(1 << n, 1)
    return Z3Poly._from_masks(1 << n | 1, 0)


def gcd(f: Z3Poly, g: Z3Poly) -> Z3Poly:
    """Monic greatest common divisor."""
    if not f and not g:
        raise BothZero("gcd(0, 0) is undefined")
    return Z3Poly._from_masks(*_monic_gcd(f.ones, f.twos, g.ones, g.twos))


def _monic_gcd(a1: int, a2: int, b1: int, b2: int) -> tuple[int, int]:
    """The monic gcd of the bit-sliced polynomials (a1, a2) and (b1, b2),
    not both zero, by Euclid's remainders: each divisor is made monic by
    doubling it (its planes swapped), which leaves the remainder as it is."""
    while b1 | b2:
        if b1.bit_length() < b2.bit_length():
            b1, b2 = b2, b1
        *_, r1, r2 = _divided(a1, a2, b1, b2)
        a1, a2, b1, b2 = b1, b2, r1, r2
    return (a1, a2) if a1.bit_length() > a2.bit_length() else (a2, a1)


class Factorization(Record):
    """unit * product of monic irreducible factors with multiplicities."""

    __slots__ = ("unit", "factors")

    def __init__(self, unit: int, factors: tuple[tuple[Z3Poly, int], ...]):
        self._set(unit=unit, factors=factors)

    def expand(self) -> Z3Poly:
        out = Z3Poly([self.unit])
        for p, e in self.factors:
            out = out * p ** e
        return out

    def divisors(self) -> tuple[Z3Poly, ...]:
        """All monic divisors, canonically sorted.  Each factor p^e
        extends the list by p, p^2, ..., p^e times the divisors so far,
        one product per new divisor."""
        out = [Z3Poly([1])]
        for p, e in self.factors:
            layer = out
            for _ in range(e):
                layer = [d * p for d in layer]
                out = out + layer
        out.sort(key=Z3Poly.sort_key)
        return tuple(out)

    def divisor_degrees(self, max_degree: int) -> set[int]:
        """Degrees up to max_degree that some monic divisor has, found
        without listing the divisors."""
        out = {0}
        for p, e in self.factors:
            out = {
                d + k * p.degree
                for d in out
                for k in range(e + 1)
                if d + k * p.degree <= max_degree
            }
        return out

    def divisor_count(self) -> int:
        out = 1
        for _, e in self.factors:
            out *= e + 1
        return out

    def __str__(self) -> str:
        head = "" if self.unit == 1 else str(self.unit)
        body = "".join(
            f"({p})" + (f"^{e}" if e > 1 else "") for p, e in self.factors
        )
        return (head + body) or "1"


def _frobenius_rows(w: Z3Poly) -> tuple[list[int], list[int]]:
    """Row i of Berlekamp's matrix Q, the coefficients of x^(3i) mod w
    for 0 <= i < deg w, as bit-sliced (ones, twos) masks: each row is the
    one before shifted up by 3 and reduced mod the monic w."""
    ones, twos = [1], [0]
    for _ in range(1, w.degree):
        *_, a1, a2 = _divided(ones[-1] << 3, twos[-1] << 3, w.ones, w.twos)
        ones.append(a1)
        twos.append(a2)
    return ones, twos


def _cycle_kernel(m: int, c: int) -> tuple[list[int], list[int]]:
    """The left kernel of Q - I for w = x^m - c (c = 1 or 2, 3 not
    dividing m), read off the cycles of i -> 3i mod m.  Row i of Q is
    x^(3i) mod w = c^(3i // m) x^(3i mod m), so Q is a signed
    permutation matrix and hQ = h says h at 3i mod m is h_i times that
    sign.  A cycle gives one kernel row, its indicator with the signs
    carried along, exactly when it comes back to its start with sign 1
    (MacWilliams-Sloane ch. 7; Huffman-Pless 4.1): no elimination."""
    seen = bytearray(m)
    ones, twos = [], []
    for start in range(m):
        if seen[start]:
            continue
        h1 = h2 = 0
        i, one = start, True
        while not seen[i]:
            seen[i] = 1
            if one:
                h1 |= 1 << i
            else:
                h2 |= 1 << i
            wraps, i = divmod(3 * i, m)
            if wraps == 1 and c == 2:
                one = not one
        if one:
            ones.append(h1)
            twos.append(h2)
    return ones, twos


def _binomial_factor_count(m: int, c: int) -> int:
    """The number of irreducible factors of x^m - c (c = 1 or 2, 3 not
    dividing m), counted apart from any kernel: Phi_d splits into
    phi(d) / ord_d(3) factors, x^m - 1 is the product of Phi_d over the
    d dividing m, and x^m + 1 that over the d dividing 2m but not m."""
    top = m if c == 1 else 2 * m
    count = 0
    for d in range(1, top + 1):
        if top % d or (c == 2 and not m % d):
            continue
        order, power = 1, 3 % d
        while power != 1 % d:
            order, power = order + 1, 3 * power % d
        count += sum(math.gcd(k, d) == 1 for k in range(d)) // order
    return count


def _berlekamp_split(w: Z3Poly) -> list[Z3Poly]:
    """The monic irreducible factors of a squarefree monic w (Berlekamp):
    the h with h^3 = h mod w are the left kernel of Q - I, where row i of
    Q holds x^(3i) mod w.  Its dimension is the number of factors, and
    each factor g is the product of gcd(g, h - c) over c in GF(3).  For a
    binomial x^m - c the kernel is read off the cycles of i -> 3i mod m
    (``_cycle_kernel``); any other w has Q built and eliminated."""
    if w.degree > MAX_BERLEKAMP_DEGREE:
        raise BudgetExceeded(
            f"a squarefree part of degree {w.degree} is above the budget of "
            f"{MAX_BERLEKAMP_DEGREE} for its Berlekamp matrix"
        )
    n = w.degree
    if w.ones | w.twos == 1 << n | 1:
        c = 3 - w.constant  # w = x^n - c
        kernel_ones, kernel_twos = _cycle_kernel(n, c)
        count, counted = _binomial_factor_count(n, c), "the cyclotomic count"
    else:
        ones, twos = _frobenius_rows(w)
        for i in range(n):  # Q - I: x^i taken off row i
            ones[i], twos[i] = gf3linalg._add(ones[i], twos[i], 0, 1 << i)
        kernel_ones, kernel_twos, rank = gf3linalg._left_kernel(ones, twos, n)
        count, counted = n - rank, "deg - rank(Q - I)"
    kernel = list(zip(kernel_ones, kernel_twos))
    if len(kernel) != count:
        raise SelfCheckFailed(
            f"Berlekamp kernel of {w} has {len(kernel)} rows, not {counted} = {count}"
        )
    # each row is checked apart from how it was found: h(x^3) = h mod w,
    # h(x^3) spread from h's masks (a binary numeral read in octal moves
    # bit i to bit 3i)
    for h1, h2 in kernel:
        *_, r1, r2 = _divided(int(f"{h1:b}", 8), int(f"{h2:b}", 8), w.ones, w.twos)
        if (r1, r2) != (h1, h2):
            raise SelfCheckFailed(f"a Berlekamp kernel row of {w} is not in the kernel")
    factors = [(w.ones, w.twos)]
    for h1, h2 in kernel:
        if len(factors) == len(kernel):
            break
        split = []
        for g1, g2 in factors:
            *_, r1, r2 = _divided(h1, h2, g1, g2)  # a constant when g is irreducible
            if not (r1 | r2) >> 1:
                split.append((g1, g2))
                continue
            # the three gcd(g, h - c) partition g's factors, so once their
            # degrees reach deg g the rest are 1
            left = g1.bit_length() - 1
            for c1, c2 in ((0, 0), (0, 1), (1, 0)):  # minus 0, 1, 2
                p1, p2 = _monic_gcd(g1, g2, *gf3linalg._add(r1, r2, c1, c2))
                if p1 > 1:
                    split.append((p1, p2))
                    left -= p1.bit_length() - 1
                    if not left:
                        break
        factors = split
    if len(factors) != len(kernel):
        raise SelfCheckFailed(
            f"Berlekamp split of {w} gives {len(factors)} factors, not {len(kernel)}"
        )
    return [Z3Poly._from_masks(p1, p2) for p1, p2 in factors]


def _irreducible_factors(f: Z3Poly) -> dict[Z3Poly, int]:
    """The monic irreducible divisors of a monic f, each with its
    multiplicity."""
    if f.degree == 0:
        return {}
    deriv = f.derivative()
    if not deriv:
        # f = g^3, g made of every third coefficient (Frobenius fixes GF(3)):
        # each mask's octal digits are then 0 or 1, and read in binary they
        # move bit 3i to bit i
        root = Z3Poly._from_masks(int(f"{f.ones:o}", 2), int(f"{f.twos:o}", 2))
        return {p: 3 * e for p, e in _irreducible_factors(root).items()}
    g1, g2 = _monic_gcd(f.ones, f.twos, deriv.ones, deriv.twos)
    if g1 == 1:  # gcd(f, f') = 1: f is squarefree
        return dict.fromkeys(_berlekamp_split(f), 1)
    # f / gcd(f, f') is the product of the factors whose multiplicity 3
    # does not divide; each is divided out of f completely, which leaves
    # a cube of the other factors
    squarefree = Z3Poly._from_masks(*_divided(f.ones, f.twos, g1, g2)[:2])
    found = {}
    rest1, rest2 = f.ones, f.twos
    for p in _berlekamp_split(squarefree):
        e = 0
        q1, q2, r1, r2 = _divided(rest1, rest2, p.ones, p.twos)
        while not r1 | r2:
            rest1, rest2, e = q1, q2, e + 1
            q1, q2, r1, r2 = _divided(rest1, rest2, p.ones, p.twos)
        found[p] = e
    found.update(_irreducible_factors(Z3Poly._from_masks(rest1, rest2)))
    return found


def factor(f: Z3Poly) -> Factorization:
    """Canonical factorization of a nonconstant polynomial over GF(3)."""
    if not f:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if f.degree == 0:
        raise ConstantPolynomial("cannot factor a constant")
    found = _irreducible_factors(f.monic())
    parts = sorted(found.items(), key=lambda pe: pe[0].sort_key())
    result = Factorization(f.leading, tuple(parts))
    if result.expand() != f:
        raise SelfCheckFailed(f"factorization {result} does not multiply back to {f}")
    return result


_IRREDUCIBLES: list[list[Z3Poly]] = [[]]  # index = degree; degree 0 empty


def monic_irreducibles(max_degree: int) -> tuple[Z3Poly, ...]:
    """All monic irreducibles of degree 1..max_degree, canonical order.

    Generated by sieve: a candidate is irreducible when no previously
    found irreducible of at most half its degree divides it.  The cache
    only grows; concurrent readers are safe once a degree is built.
    """
    while len(_IRREDUCIBLES) <= max_degree:
        deg = len(_IRREDUCIBLES)
        lower = [p for ps in _IRREDUCIBLES[: deg // 2 + 1] for p in ps]
        batch = []
        for tail in itertools.product(range(3), repeat=deg):
            cand = Z3Poly(list(tail) + [1])
            if all(cand % p for p in lower if 2 * p.degree <= deg):
                batch.append(cand)
        _IRREDUCIBLES.append(batch)
    return tuple(p for ps in _IRREDUCIBLES[1 : max_degree + 1] for p in ps)


def divisors_of_modulus(n: int, sign: ModulusSign) -> tuple[Z3Poly, ...]:
    """All monic divisors of x^n -+ 1, canonically sorted."""
    return factor(modulus(n, sign)).divisors()
