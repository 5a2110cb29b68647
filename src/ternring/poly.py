"""Dense univariate polynomials over GF(3).

Coefficients are stored ascending (index = power of x) with trailing
zeros stripped, so the zero polynomial is the empty tuple and
``degree`` of zero is -1.  Text forms accepted everywhere: descending
sums like ``x^4+2x^3+x+1`` and bracketed ascending coefficient lists
like ``[1,1,0,2,1]``.

Factorization is deterministic: squarefree/cube splitting (this is
characteristic 3), then Berlekamp's algorithm (Knuth, TAOCP vol. 2,
4.6.2) on each squarefree part of degree up to ``MAX_BERLEKAMP_DEGREE``:
one GF(3) kernel, then gcds.  Output is always the canonically sorted
list of monic irreducible factors with multiplicities, so two runs - or
two different correct algorithms - print the same thing.

Berlekamp's matrix is held as bit-sliced Python-int rows
(Boothby-Bradshaw 2009) and its kernel found by ``gf3linalg``'s
elimination on them, so this module never imports numpy (see
``gf3linalg``, where it is first imported).
"""

from __future__ import annotations

import itertools
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
from .ring import MAX_PARSED_EXPONENT, _check_exponent, format_ring_poly

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

# Largest squarefree part factor() splits.  Its Berlekamp matrix is
# degree bit-sliced rows, 2 x degree bits wide with the identity half
# (about 2 MB at degree 2000).  `factor --n 2000 --sign pos` takes 3.6 s
# and `--n 1996` 4.0-4.3 s, most of it in the gcd splitting, and either
# process peaks at 21 MB on a 2-vCPU x86_64 machine.
MAX_BERLEKAMP_DEGREE = 2000


class Z3Poly:
    """A polynomial over GF(3); immutable, compared by coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c % 3 for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Z3Poly is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def monomial(cls, degree: int, coef: int = 1) -> "Z3Poly":
        return cls([0] * degree + [coef])

    # -- structure -----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Z3Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == Z3Poly([other]).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def sort_key(self) -> tuple:
        """Canonical order: by degree, then lexicographic on the
        coefficient sequence read from the leading term down (the order
        the polynomial is printed in)."""
        return (self.degree, tuple(reversed(self.coeffs)))

    def __lt__(self, other: "Z3Poly") -> bool:
        return self.sort_key() < other.sort_key()

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        return Z3Poly([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    __radd__ = __add__

    def __neg__(self):
        return Z3Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return Z3Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Z3Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Z3Poly":
        out, base = Z3Poly([1]), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def divmod(self, other: "Z3Poly") -> tuple["Z3Poly", "Z3Poly"]:
        """Quotient and remainder; the divisor may be non-monic."""
        o = _coerce(other)
        if o is None or not isinstance(o, Z3Poly):
            raise TypeError("divisor must be a polynomial")
        if not o:
            raise DivisionByZeroPoly("division by the zero polynomial")
        rem = list(self.coeffs)
        dq = len(rem) - len(o.coeffs)
        if dq < 0:
            return Z3Poly(), self
        inv_lead = o.coeffs[-1]  # 1 and 2 are their own inverses mod 3
        quot = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            coef = (rem[k + o.degree] * inv_lead) % 3
            if coef:
                quot[k] = coef
                for j, y in enumerate(o.coeffs):
                    rem[k + j] = (rem[k + j] - coef * y) % 3
        return Z3Poly(quot), Z3Poly(rem[: o.degree])

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
        lead = self.coeffs[-1]
        return self if lead == 1 else Z3Poly([lead * c for c in self.coeffs])

    def reciprocal(self) -> "Z3Poly":
        """x^deg * f(1/x): the coefficient tuple reversed."""
        if not self:
            raise ZeroPolynomial("zero polynomial has no reciprocal")
        return Z3Poly(reversed(self.coeffs))

    def derivative(self) -> "Z3Poly":
        return Z3Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, t: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * t + c) % 3
        return acc

    # -- text ------------------------------------------------------------

    def __str__(self) -> str:
        return format_ring_poly(self.coeffs)

    def __repr__(self) -> str:
        return f"Z3Poly({self})"


def _coerce(other):
    if isinstance(other, Z3Poly):
        return other
    if isinstance(other, int):
        return Z3Poly([other])
    return None


_POLY_TERM = re.compile(r"^([12]?)(x(?:\^(\d+))?)?$")


def parse_poly(text: str) -> Z3Poly:
    """Parse ``x^4+2x^3+x+1``, ``2``, ``[1,0,2]`` (ascending), with '-' allowed."""
    s = text.replace(" ", "")
    if s.startswith("[") and s.endswith("]"):
        body = s[1:-1]
        return Z3Poly(int(t) for t in body.split(",")) if body else Z3Poly()
    if not s:
        raise ValueError("empty polynomial")
    coeffs: dict[int, int] = {}
    terms = s.replace("-", "+-").split("+")
    if s.startswith("-"):
        terms = terms[1:]  # the split's empty piece before a leading '-'
    for signed in terms:
        if not signed:
            raise ValueError(f"empty term in {text!r}")
        sign = 1
        term = signed
        if term.startswith("-"):
            sign, term = -1, term[1:]
        if term == "0":
            continue
        m = _POLY_TERM.match(term)
        if not m or (not m.group(1) and not m.group(2)):
            raise ValueError(f"bad polynomial term: {signed!r}")
        coef = int(m.group(1)) if m.group(1) else 1
        if m.group(2) is None:
            power = 0
        else:
            power = _check_exponent(int(m.group(3))) if m.group(3) else 1
        coeffs[power] = coeffs.get(power, 0) + sign * coef
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
    """x^n - 1 for PLUS, x^n + 1 for MINUS.  Raises ``BudgetExceeded``
    above degree ``MAX_PARSED_EXPONENT``, before the dense coefficients
    are allocated, as the parsers refuse such a polynomial."""
    if n < 1:
        raise ValueError("length must be positive")
    if n > MAX_PARSED_EXPONENT:
        raise BudgetExceeded(
            f"a modulus of degree {n} is above the budget of {MAX_PARSED_EXPONENT}"
        )
    tail = -1 if sign is ModulusSign.PLUS else 1
    return Z3Poly([tail] + [0] * (n - 1) + [1])


def gcd(f: Z3Poly, g: Z3Poly) -> Z3Poly:
    """Monic greatest common divisor."""
    if not f and not g:
        raise BothZero("gcd(0, 0) is undefined")
    a, b = f, g
    while b:
        a, b = b, a % b
    return a.monic()


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
        out.sort()
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


def _cube_root(f: Z3Poly) -> Z3Poly:
    # f'(x) = 0 in char 3 means f(x) = g(x)^3 with g made of every
    # third coefficient (Frobenius fixes GF(3)).
    return Z3Poly(f.coeffs[::3])


def _frobenius_rows(w: Z3Poly) -> tuple[list[int], list[int]]:
    """Row i of Berlekamp's matrix Q, the coefficients of x^(3i) mod w
    for 0 <= i < deg w, as bit-sliced (ones, twos) masks: each row is the
    one before shifted up by 3, its terms of degree deg w + k (k < 3)
    folded back in as multiples of x^(deg w + k) mod w."""
    n = w.degree
    wraps = [gf3linalg._row_masks((Z3Poly.monomial(n + k) % w).coeffs) for k in range(3)]
    low = (1 << n) - 1
    ones, twos = [1], [0]
    for _ in range(1, n):
        a1, a2 = ones[-1] << 3, twos[-1] << 3
        for k, (w1, w2) in enumerate(wraps):
            bit = 1 << (n + k)
            if a1 & bit:
                a1, a2 = gf3linalg._add(a1, a2, w1, w2)
            elif a2 & bit:
                a1, a2 = gf3linalg._add(a1, a2, w2, w1)
        ones.append(a1 & low)
        twos.append(a2 & low)
    return ones, twos


def _berlekamp_split(w: Z3Poly) -> list[Z3Poly]:
    """The monic irreducible factors of a squarefree monic w (Berlekamp):
    the h with h^3 = h mod w are the left kernel of Q - I, where row i of
    Q holds x^(3i) mod w.  Its dimension is the number of factors, and
    each factor g is the product of gcd(g, h - c) over c in GF(3)."""
    if w.degree > MAX_BERLEKAMP_DEGREE:
        raise BudgetExceeded(
            f"a squarefree part of degree {w.degree} is above the budget of "
            f"{MAX_BERLEKAMP_DEGREE} for its Berlekamp matrix"
        )
    n = w.degree
    ones, twos = _frobenius_rows(w)
    for i in range(n):  # Q - I: x^i taken off row i
        ones[i], twos[i] = gf3linalg._add(ones[i], twos[i], 0, 1 << i)
    kernel_ones, kernel_twos, rank = gf3linalg._left_kernel(ones, twos, n)
    kernel = list(zip(kernel_ones, kernel_twos))
    if len(kernel) != n - rank:
        raise SelfCheckFailed(
            f"Berlekamp kernel of {w} has {len(kernel)} rows, not "
            f"deg - rank(Q - I) = {n - rank}"
        )
    # the rank comes from the elimination that found the kernel, so each
    # row is also checked against Q - I itself
    for h1, h2 in kernel:
        if gf3linalg._combination(h1, h2, ones, twos) != (0, 0):
            raise SelfCheckFailed(f"a Berlekamp kernel row of {w} is not in the kernel")
    factors = [w]
    for h1, h2 in kernel:
        if len(factors) == len(kernel):
            break
        h = Z3Poly(gf3linalg._row_entries(h1, h2, n))
        split = []
        for g in factors:
            r = h % g  # a constant when g is irreducible
            parts = (gcd(g, r - c) for c in range(3)) if r.degree > 0 else [g]
            split += [s for s in parts if s.degree > 0]
        factors = split
    if len(factors) != len(kernel):
        raise SelfCheckFailed(
            f"Berlekamp split of {w} gives {len(factors)} factors, not {len(kernel)}"
        )
    return factors


def _irreducible_factors(f: Z3Poly) -> dict[Z3Poly, int]:
    """The monic irreducible divisors of a monic f, each with its
    multiplicity."""
    if f.degree == 0:
        return {}
    deriv = f.derivative()
    if not deriv:
        return {p: 3 * e for p, e in _irreducible_factors(_cube_root(f)).items()}
    # f / gcd(f, f') is the product of the factors whose multiplicity 3
    # does not divide; each is divided out of f completely, which leaves
    # a cube of the other factors
    found = {}
    rest = f
    for p in _berlekamp_split(f // gcd(f, deriv)):
        e = 0
        q, r = rest.divmod(p)
        while not r:
            rest, e = q, e + 1
            q, r = rest.divmod(p)
        found[p] = e
    found.update(_irreducible_factors(rest))
    return found


def factor(f: Z3Poly) -> Factorization:
    """Canonical factorization of a nonconstant polynomial over GF(3)."""
    if not f:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if f.degree == 0:
        raise ConstantPolynomial("cannot factor a constant")
    parts = sorted(_irreducible_factors(f.monic()).items())
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
