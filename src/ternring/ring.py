"""Arithmetic in the 27-element commutative ring GF(3)[v]/(v^3 - v).

Elements are written ``a + b*v + c*v^2`` with coefficients a, b, c in
{0, 1, 2}.  Since v^3 - v = v(v - 1)(v - 2) splits into distinct linear
factors over GF(3), evaluating at v = 0, 1, 2 is a ring isomorphism
onto GF(3) x GF(3) x GF(3).  We call the image

    gray(a + b*v + c*v^2) = (a, a + b + c, a + 2b + c)

the Gray coordinates of the element.  Almost every structural question
reduces to coordinate arithmetic:

* an element is a unit iff no Gray coordinate is zero -- there are 8
  units and each one squares to 1;
* the Lee weight of an element is the Hamming weight of its coordinate
  triple;
* the coordinate projectors pull back to the orthogonal idempotents
  E1 = 1 + 2v^2, E2 = 2v + 2v^2, E3 = v + 2v^2;
* the coefficient substitution b -> 2b is an order-2 ring automorphism
  (``theta``) that swaps the last two Gray coordinates.

There are exactly 27 ``RingElement`` instances; they are interned, so
equality is identity and all arithmetic is table lookup.
"""

from __future__ import annotations

import itertools
import operator
import re

from ._record import Record
from .errors import BudgetExceeded, NotAUnit

__all__ = [
    "RingElement",
    "element",
    "scalar",
    "from_gray",
    "parse_element",
    "ZERO",
    "ONE",
    "TWO",
    "V",
    "V2",
    "E1",
    "E2",
    "E3",
    "IDEMPOTENTS",
    "UNITS",
    "ELEMENTS",
    "THETA_FIXED_UNITS",
    "ideals",
    "format_ring_poly",
    "parse_ring_poly",
]


def _index_coords(idx: int) -> tuple[int, int, int]:
    a, b, c = idx % 3, (idx // 3) % 3, idx // 9
    return (a, (a + b + c) % 3, (a + 2 * b + c) % 3)


_GRAY = tuple(_index_coords(i) for i in range(27))
_FROM_GRAY = {g: i for i, g in enumerate(_GRAY)}

_ADD = [
    [
        ((x + y) % 3) + 3 * ((x // 3 + y // 3) % 3) + 9 * ((x // 9 + y // 9) % 3)
        for y in range(27)
    ]
    for x in range(27)
]


def _mul_index(x: int, y: int) -> int:
    gx, gy = _GRAY[x], _GRAY[y]
    return _FROM_GRAY[(gx[0] * gy[0] % 3, gx[1] * gy[1] % 3, gx[2] * gy[2] % 3)]


_MUL = [[_mul_index(x, y) for y in range(27)] for x in range(27)]
_NEG = [(-x % 3) + 3 * (-(x // 3) % 3) + 9 * (-(x // 9) % 3) for x in range(27)]
_THETA = [(x % 3) + 3 * ((2 * (x // 3)) % 3) + 9 * (x // 9) for x in range(27)]
_LEE = [sum(1 for g in _GRAY[x] if g) for x in range(27)]
_IS_UNIT = [all(_GRAY[x]) for x in range(27)]


class RingElement(Record):
    """An interned element a + b*v + c*v^2 of GF(3)[v]/(v^3 - v)."""

    __slots__ = ("index",)

    def __new__(cls, a: int = 0, b: int = 0, c: int = 0) -> "RingElement":
        return element(a, b, c)

    def __reduce__(self):
        # unpickles to the interned instance
        return element, self.coeffs

    # -- structure ---------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, int, int]:
        """Coefficient triple (a, b, c)."""
        i = self.index
        return (i % 3, (i // 3) % 3, i // 9)

    @property
    def gray(self) -> tuple[int, int, int]:
        """Gray coordinates (value at v = 0, 1, 2)."""
        return _GRAY[self.index]

    def theta(self) -> "RingElement":
        """Order-2 ring automorphism b -> 2b (swaps Gray coords 2 and 3)."""
        return ELEMENTS[_THETA[self.index]]

    def lee_weight(self) -> int:
        """Number of nonzero Gray coordinates (0..3)."""
        return _LEE[self.index]

    def is_unit(self) -> bool:
        return _IS_UNIT[self.index]

    def inverse(self) -> "RingElement":
        """Multiplicative inverse; every unit here is its own inverse."""
        if not _IS_UNIT[self.index]:
            raise NotAUnit(f"{self} has a zero Gray coordinate")
        return self

    # -- arithmetic --------------------------------------------------

    @staticmethod
    def _coerce(other) -> "RingElement | None":
        if isinstance(other, RingElement):
            return other
        if isinstance(other, int):
            return ELEMENTS[other % 3]
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ELEMENTS[_ADD[self.index][o.index]]

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ELEMENTS[_ADD[self.index][_NEG[o.index]]]

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ELEMENTS[_ADD[o.index][_NEG[self.index]]]

    def __neg__(self):
        return ELEMENTS[_NEG[self.index]]

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ELEMENTS[_MUL[self.index][o.index]]

    __rmul__ = __mul__

    def __pow__(self, k: int):
        """The k-th power, Gray coordinate by coordinate (0^0 = 1); a
        negative power is one of ``inverse()``, refused for a non-unit."""
        base = self.inverse() if k < 0 else self
        return from_gray([pow(t, abs(k), 3) for t in base.gray])

    def __bool__(self) -> bool:
        return self.index != 0

    def __eq__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self.index == o.index

    def __hash__(self):
        return self.index

    # -- text --------------------------------------------------------

    def __str__(self) -> str:
        a, b, c = self.coeffs
        terms = []
        if a:
            terms.append(str(a))
        if b:
            terms.append("v" if b == 1 else "2v")
        if c:
            terms.append("v^2" if c == 1 else "2v^2")
        return "+".join(terms) if terms else "0"

    def __repr__(self) -> str:
        return f"<{self}>"


def _make(idx: int) -> RingElement:
    e = object.__new__(RingElement)
    object.__setattr__(e, "index", idx)
    return e


ELEMENTS: tuple[RingElement, ...] = tuple(_make(i) for i in range(27))


def element(a: int = 0, b: int = 0, c: int = 0) -> RingElement:
    """The element a + b*v + c*v^2 (coefficients reduced mod 3)."""
    return ELEMENTS[(a % 3) + 3 * (b % 3) + 9 * (c % 3)]


def scalar(t: int) -> RingElement:
    """Embed an integer as the constant t mod 3; anything that is not an
    integer (``operator.index``) raises ``TypeError``."""
    return ELEMENTS[operator.index(t) % 3]


def _element(value) -> RingElement:
    """A ring element as given, or an integer as its constant: the one
    coercion of a value to an element outside the arithmetic operators."""
    return value if isinstance(value, RingElement) else scalar(value)


def from_gray(coords) -> RingElement:
    """Inverse of the Gray coordinate map."""
    g1, g2, g3 = coords
    return ELEMENTS[_FROM_GRAY[g1 % 3, g2 % 3, g3 % 3]]


ZERO = ELEMENTS[0]
ONE = ELEMENTS[1]
TWO = ELEMENTS[2]
V = element(0, 1, 0)
V2 = element(0, 0, 1)
E1 = from_gray((1, 0, 0))  # 1 + 2v^2
E2 = from_gray((0, 1, 0))  # 2v + 2v^2
E3 = from_gray((0, 0, 1))  # v + 2v^2
IDEMPOTENTS = (E1, E2, E3)
UNITS = tuple(e for e in ELEMENTS if e.is_unit())
THETA_FIXED_UNITS = tuple(u for u in UNITS if u.theta() is u)


def ideals() -> tuple[frozenset[RingElement], ...]:
    """All 8 ideals of the ring, by size and then by their elements'
    indices.  Under the Gray isomorphism onto GF(3)^3 an ideal is a
    product of ideals of the three fields, each 0 or GF(3): the elements
    whose Gray coordinates vanish off a support, the multiples e*x of the
    idempotent e whose Gray coordinates are 1 on it and 0 off it."""
    out = [
        frozenset(e * x for x in ELEMENTS)
        for e in map(from_gray, itertools.product((0, 1), repeat=3))
    ]
    out.sort(key=lambda s: (len(s), sorted(x.index for x in s)))
    return tuple(out)


# -- polynomials with ring coefficients: shared text helpers ---------
#
# Both the commutative polynomial ring R[x] (rcodes) and the twisted
# one R[x, theta] (skew) print and parse the same way, so the routines
# live here.  Ternary polynomials (poly) and ring elements share them
# too: printing lays out terms with ``_joined_terms``, reading cuts them
# with ``_terms``, and each parser keeps only the terms it accepts
# (``parse_element`` the bare coefficients without x).  Coefficient
# sequences are ascending, like everywhere else in the package.


def format_ring_poly(coeffs) -> str:
    """Render ascending ring coefficients like ``(2v+2v^2)x^2+x+1``."""
    return _joined_terms(
        (i, str(coeffs[i])) for i in range(len(coeffs) - 1, -1, -1) if coeffs[i]
    )


def _joined_terms(terms) -> str:
    """Lay out (exponent, coefficient text) pairs, highest exponent first
    and coefficients nonzero, as ``(2v+2v^2)x^2+x+1``: a coefficient 1
    is left off a power of x, a sum is bracketed, and no term prints
    as ``0``."""
    out = []
    for i, s in terms:
        if not i:
            out.append(s)
            continue
        xpart = "x" if i == 1 else f"x^{i}"
        if s == "1":
            out.append(xpart)
        elif "+" in s:
            out.append(f"({s}){xpart}")
        else:
            out.append(s + xpart)
    return "+".join(out) or "0"


# a bracketed or bare ring coefficient, or none, then a power of x or none
_TERM = re.compile(r"(\([^()]+\)|[012]|2?v(?:\^2)?)?(x(?:\^([0-9]+))?)?")


def _terms(text: str):
    """Yield the terms of polynomial or ring-element text as (negated,
    coefficient text or None, power or None where there is no x), in the
    order written; a bracketed coefficient keeps its brackets.  Spaces
    are dropped, ``²`` reads as ``^2``, and the text is cut at each ``+``
    or ``-`` outside brackets; a leading ``-`` negates the first term.
    Each term must match ``_TERM`` whole, so no text with a newline
    parses, and exponents are ASCII digits.  An empty text or a bad
    term raises ``ValueError``; exponents pass ``_check_exponent``."""
    s = text.replace("²", "^2").replace(" ", "")
    if not s:
        raise ValueError("empty text")
    s = s if s.startswith("-") else "+" + s  # each term follows its sign
    depths = itertools.accumulate((ch == "(") - (ch == ")") for ch in s)
    cuts = [i for i, (ch, d) in enumerate(zip(s, depths)) if ch in "+-" and not d]
    for a, b in zip(cuts, cuts[1:] + [len(s)]):
        m = _TERM.fullmatch(s, a + 1, b)
        if not m or not any(m.group(1, 2)):
            raise ValueError(f"bad term {s[a + 1:b]!r} in {text!r}")
        coef, x, digits = m.groups()
        power = None if x is None else _check_exponent(int(digits)) if digits else 1
        yield s[a] == "-", coef, power


# Largest exponent the polynomial parsers accept: they build a dense
# coefficient tuple up to the highest exponent, so a bound on it is a
# bound on their memory.
MAX_PARSED_EXPONENT = 10**5


def _check_exponent(power: int) -> int:
    if power > MAX_PARSED_EXPONENT:
        raise ValueError(f"exponent {power} is above {MAX_PARSED_EXPONENT}")
    return power


def _check_modulus_degree(n: int) -> None:
    """Refuse x^n -+ c for n < 1, and above degree ``MAX_PARSED_EXPONENT``
    before its dense coefficients are allocated, as the parsers refuse
    such a polynomial."""
    if n < 1:
        raise ValueError("length must be positive")
    if n > MAX_PARSED_EXPONENT:
        raise BudgetExceeded(
            f"a modulus of degree {n} is above the budget of {MAX_PARSED_EXPONENT}"
        )


def parse_element(text: str) -> RingElement:
    """Parse strings like ``1+2v+2v^2``, ``v``, ``2v^2`` or ``0``: terms
    read by ``_terms``, each a bare coefficient without x or ``-``."""
    abc = [0, 0, 0]
    for negated, coef, power in _terms(text):
        if negated or power is not None or coef.startswith("("):
            raise ValueError(f"bad ring element term in {text!r}")
        # the term's power of v (1, v or v^2), times its digit or 1
        abc[("v" in coef) + coef.endswith("^2")] += int(coef.partition("v")[0] or 1)
    return element(*abc)


def parse_ring_poly(text: str) -> tuple[RingElement, ...]:
    """Parse ``(2v+2v^2)x^2+(1+2v+2v^2)x+1`` into ascending coefficients.

    A coefficient is bracketed ring text or a bare ``0``, ``1``, ``2``,
    ``v``, ``2v``, ``v^2`` or ``2v^2``; ``²`` reads as ``^2`` and ``-`` is
    refused.  Returns a tuple with trailing zeros stripped; the zero
    polynomial parses to the empty tuple.
    """
    coeffs: dict[int, RingElement] = {}
    for negated, coef, power in _terms(text):
        if negated:
            raise ValueError("write additive inverses with coefficient 2, not '-'")
        power = power or 0
        coef = ONE if coef is None else parse_element(coef.strip("()"))
        coeffs[power] = coeffs.get(power, ZERO) + coef
    deg = max((p for p, r in coeffs.items() if r), default=-1)
    return tuple(coeffs.get(i, ZERO) for i in range(deg + 1))
