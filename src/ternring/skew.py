"""Skew polynomials over the 27-element ring and the codes they generate.

The skew ring twists multiplication by the order-2 automorphism:
(a x^i)(b x^j) = a theta^i(b) x^{i+j}.  Right division by polynomials
with unit leading coefficient is exact, which gives:

* right divisors of x^n - lam and the left modules they generate,
* one-generator skew quasi-twisted modules as Gray-coordinate modules,
  skew cyclic codes among them as the case l = 1, lam = 1,
* a Hermitian pairing on the quotient module that detects Euclidean
  orthogonality under all twisted sectioned shifts at once,
* greatest common divisors along right-division Euclidean chains.
"""

from __future__ import annotations

import functools

from .errors import (
    BudgetExceeded,
    EvenLength,
    LengthMismatch,
    NonUnitLeadingCoefficient,
    NotRightDivisor,
    OddS,
    SelfCheckFailed,
    ZeroPolynomial,
)
from .gf3linalg import _add
from .poly import ModulusSign, factor, modulus
from .rcodes import (
    GrayModule,
    _projection_masks,
    _require_unit,
    as_rvector,
    gray_shift,
)
from .ring import (
    ELEMENTS,
    ONE,
    RingElement,
    ZERO,
    MAX_PARSED_EXPONENT,
    format_ring_poly,
    from_gray,
    parse_ring_poly,
    scalar,
)

__all__ = [
    "SkewPoly",
    "parse_skew_poly",
    "skew_right_divmod",
    "power_minus_constant",
    "is_right_divisor",
    "monic_right_divisors",
    "SkewCyclicCode",
    "skew_cyclic_code",
    "count_skew_cyclic",
    "skew_count_formula",
    "odd_equivalence_check",
    "vector_to_polys",
    "polys_to_vector",
    "hermitian_conjugate",
    "hermitian_inner_product",
    "gcld",
    "SkewQCModule",
    "one_generator_sqc",
]


# Most candidate tails one right-divisor sieve divides, one bit of each
# plane a tail: 9^6, the degree-6 sieve that n = 12 and n = 13 need.
MAX_SIEVE_TAILS = 9**6

# Longest vector length s*l of a module the builder closes: the
# elimination of its seeds costs about cubically in it.
# skew_cyclic_code(x+2, 200) and the (50, 4) module of (x+2, ..., x+2),
# bases read, take 0.21-0.22 s and 0.12 s, at 30 MB and 28 MB peak RSS,
# in a fresh process on a 2-vCPU x86_64 machine (Python 3.11).
MAX_MODULE_LENGTH = 200


def _require_module_length(n: int) -> None:
    """Refuse a module longer than ``MAX_MODULE_LENGTH`` before any work
    that grows with its length, division by x^n - lam included."""
    if n > MAX_MODULE_LENGTH:
        raise BudgetExceeded(
            f"a module of length {n} is above the budget of {MAX_MODULE_LENGTH}"
        )


def _as_element(value) -> RingElement:
    return value if isinstance(value, RingElement) else scalar(value)


class SkewPoly:
    """Immutable skew polynomial; coefficients ascending, multiplication
    twisted by the automorphism."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, SkewPoly):
            coeffs = coeffs.coeffs
        coeffs = [_as_element(c) for c in coeffs]
        while coeffs and coeffs[-1] is ZERO:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @classmethod
    def _trusted(cls, coeffs: list) -> "SkewPoly":
        """The polynomial of a list of ``RingElement`` coefficients, which
        it takes over: only the trailing zeros are stripped."""
        while coeffs and coeffs[-1] is ZERO:
            coeffs.pop()
        p = cls.__new__(cls)
        object.__setattr__(p, "coeffs", tuple(coeffs))
        return p

    def __setattr__(self, name, value):
        raise AttributeError("SkewPoly is immutable")

    # -- structure -----------------------------------------------------

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> RingElement:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] is ONE

    def coeff(self, i: int) -> RingElement:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else ZERO

    def __eq__(self, other):
        if not isinstance(other, SkewPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        return format_ring_poly(self.coeffs)

    def __repr__(self):
        return f"SkewPoly({self})"

    def sort_key(self):
        return (self.degree, tuple(reversed([c.index for c in self.coeffs])))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SkewPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return SkewPoly(out)

    def __neg__(self):
        return SkewPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, SkewPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Twisted product: x moves past a coefficient by applying the
        automorphism."""
        if isinstance(other, RingElement):
            other = SkewPoly([other])
        if not isinstance(other, SkewPoly):
            return NotImplemented
        if not self or not other:
            return SkewPoly()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a is ZERO:
                continue
            for j, b in enumerate(other.coeffs):
                tb = b if i % 2 == 0 else b.theta()
                out[i + j] = out[i + j] + a * tb
        return SkewPoly(out)

    def __rmul__(self, other):
        if isinstance(other, RingElement):
            # constants commute past nothing: plain left scaling
            return SkewPoly([other * c for c in self.coeffs])
        return NotImplemented

    def map_theta(self) -> "SkewPoly":
        return SkewPoly([c.theta() for c in self.coeffs])

    def monic(self) -> "SkewPoly":
        """Left-scale by the inverse of the leading coefficient."""
        if not self:
            raise ValueError("cannot normalize the zero polynomial")
        u = self.lead
        if not u.is_unit():
            raise NonUnitLeadingCoefficient(
                f"leading coefficient {u} is not a unit"
            )
        if u is ONE:
            return self
        return u.inverse() * self

    @classmethod
    def x_power(cls, k: int, c=ONE) -> "SkewPoly":
        return cls([ZERO] * k + [_as_element(c)])


def parse_skew_poly(text: str) -> SkewPoly:
    return SkewPoly(parse_ring_poly(text))


def power_minus_constant(n: int, lam) -> SkewPoly:
    """x^n - lam.  Raises ``BudgetExceeded`` above degree
    ``MAX_PARSED_EXPONENT``, before the dense coefficients are
    allocated, as the parsers refuse such a polynomial."""
    if n > MAX_PARSED_EXPONENT:
        raise BudgetExceeded(
            f"a modulus of degree {n} is above the budget of {MAX_PARSED_EXPONENT}"
        )
    lam = _as_element(lam)
    return SkewPoly([-lam] + [ZERO] * (n - 1) + [ONE])


def skew_right_divmod(f: SkewPoly, g: SkewPoly) -> tuple[SkewPoly, SkewPoly]:
    """Quotient and remainder with f = q*g + r, deg r < deg g; the
    divisor must have a unit leading coefficient.

    A zero divisor and a non-unit leading coefficient are refused first;
    then a dividend of lower degree than g is its own remainder, (0, f),
    with no step run.  The results are built from the ring elements of
    the division, with only their trailing zeros stripped."""
    if not g:
        raise ZeroDivisionError("skew division by zero")
    u = g.lead
    if not u.is_unit():
        raise NonUnitLeadingCoefficient(
            f"leading coefficient {u} is not a unit"
        )
    dg = g.degree
    if f.degree < dg:
        return SkewPoly._trusted([]), f
    rem = list(f.coeffs)
    q = [ZERO] * max(len(rem) - dg, 0)
    # (c x^t) * g twists g's coefficients by theta^t, of period 2
    inv = u.inverse()
    u_inv = (inv, inv.theta())
    twisted = (g.coeffs, tuple(b.theta() for b in g.coeffs))
    for top in range(len(rem) - 1, dg - 1, -1):
        if rem[top] is ZERO:
            continue
        t = top - dg
        # leading term of (c x^t) * g is c * theta^t(u) x^top
        c = q[t] = rem[top] * u_inv[t % 2]
        for j, b in enumerate(twisted[t % 2]):
            rem[t + j] = rem[t + j] - c * b
    return SkewPoly._trusted(q), SkewPoly._trusted(rem[:dg])


def is_right_divisor(f: SkewPoly, n: int, lam) -> bool:
    """Whether x^n - lam = q*f for some q."""
    _, r = skew_right_divmod(power_minus_constant(n, lam), f)
    return not r


def monic_right_divisors(n: int, lam) -> tuple[SkewPoly, ...]:
    """All monic right divisors of x^n - lam, in canonical order.

    Only degrees d <= n/2 are sieved.  The first Gray coordinate is
    fixed by the automorphism, so taking it coefficientwise is a
    homomorphism onto ternary polynomials; a right divisor must project
    to a monic divisor of x^n - t where t is the first Gray coordinate
    of lam.  The other two Gray coordinates twist into each other and
    are sieved by one right division over all 9^d tails of digit pairs
    at once, on bit planes with one bit per tail (``_pair_division_sieve``);
    every survivor is confirmed by an actual skew right division, which
    also gives its cofactor q in x^n - lam = q*g.  Division acts on each
    projection separately, so every survivor divides: one that does not
    raises ``SelfCheckFailed``.

    The divisors of degree above n/2 are the mirrored cofactors: the
    anti-automorphism of ``_mirror`` fixes x^n - lam and turns q*g into
    mirror(g)*mirror(q), so mirror(q) is a monic right divisor of degree
    n - d, and g -> mirror(q) is an involution between the degrees d and
    n - d.  Each mirrored divisor is confirmed by right division too.

    Raises ``BudgetExceeded`` when a sieve would divide more than
    ``MAX_SIEVE_TAILS`` tails (every n <= 13 fits).  The sieve degrees
    are read off the ternary factorization, so the refusal comes before
    any divisor is listed or any plane is built."""
    lam = _require_unit(lam)
    m = power_minus_constant(n, lam)
    sign1 = ModulusSign.PLUS if lam.gray[0] == 1 else ModulusSign.MINUS
    fact = factor(modulus(n, sign1))
    degrees = sorted(fact.divisor_degrees(n // 2) - {0})
    if degrees and 9 ** degrees[-1] > MAX_SIEVE_TAILS:
        raise BudgetExceeded(
            f"right divisors of x^{n}-({lam}) need a sieve over "
            f"9^{degrees[-1]} tails, above the budget of {MAX_SIEVE_TAILS}"
        )
    base_divisors = fact.divisors()
    low = [SkewPoly([ONE])]
    for d in degrees:
        survivors = _pair_division_sieve(m, d)
        for head in [g.coeffs for g in base_divisors if g.degree == d]:
            for tail in survivors:
                coeffs = [from_gray((h, *pair)) for h, pair in zip(head, tail)]
                low.append(SkewPoly([*coeffs, ONE]))
    found = []
    for g in low:
        q, r = skew_right_divmod(m, g)
        if r:
            raise SelfCheckFailed(f"sieved candidate {g} does not right-divide {m}")
        found.append(g)
        if 2 * g.degree < n:
            h = _mirror(q)
            if skew_right_divmod(m, h)[1]:
                raise SelfCheckFailed(
                    f"mirrored cofactor {h} of {g} does not right-divide "
                    f"x^{n}-({lam})"
                )
            found.append(h)
    return tuple(sorted(found, key=SkewPoly.sort_key))


def _mirror(p: SkewPoly) -> SkewPoly:
    """The anti-automorphism sum a_i x^i -> sum x^i a_i, that is
    sum theta^i(a_i) x^i: it reverses products and fixes x^n - lam."""
    return SkewPoly([c.theta() if i % 2 else c for i, c in enumerate(p.coeffs)])


def _pair_division_sieve(m: SkewPoly, d: int) -> list[tuple[tuple[int, int], ...]]:
    """The tails of digit pairs whose monic degree-d candidate right-divides
    the last two Gray coordinates of m in the twisted pair ring (products
    componentwise, components swapping when passing x), in increasing r.
    All 9^d tails are divided at once: tail r, with pairs the base-9 digits
    of r, is bit r of every plane, and each digit a (ones, twos) plane pair."""
    size = 9**d
    full = (1 << size) - 1
    planes = []
    for run in [3**j for j in range(2 * d)][::-1]:
        # the digit of weight run is 0, 1, 2 on consecutive runs of r
        ones, width = ((1 << run) - 1) << run, 3 * run
        while width < size:
            ones, width = ones | ones << width, 2 * width
        planes.append((ones & full, ones << run & full))
    rem = [[(full * (c == 1), full * (c == 2)) for c in e.gray[1:]] for e in m.coeffs]
    for t in range(m.degree - d, -1, -1):
        # coefficient t + d, cleared by this step, is not read again
        quotient = rem.pop()
        for i, row in enumerate(rem[t:]):
            for c, (q1, q2) in enumerate(quotient):
                # x^t twists g's components t times; -q*g is q*g, planes swapped
                g1, g2 = planes[2 * i + (c ^ (t & 1))]
                row[c] = _add(*row[c], q1 & g2 | q2 & g1, q1 & g1 | q2 & g2)
    kept = full
    for (a1, a2), (b1, b2) in rem:
        kept &= ~(a1 | a2 | b1 | b2)
    bits = f"{kept:b}"[::-1]
    tails, r = [], bits.find("1")
    while r >= 0:
        tails.append(tuple(divmod(r // 9 ** (d - 1 - i) % 9, 3) for i in range(d)))
        r = bits.find("1", r + 1)
    return tails


# -- skew cyclic codes ------------------------------------------------------


def skew_cyclic_code(f: SkewPoly, n: int) -> SkewCyclicCode:
    """Module generated by a monic right divisor of x^n - 1; spanned by
    f, xf, ..., x^{n-deg f-1}f and closed under the twisted shift."""
    _require_module_length(n)
    f = SkewPoly(f)
    if not f:
        raise ZeroPolynomial("generator must be nonzero")
    f = f.monic()
    if not is_right_divisor(f, n, ONE):
        raise NotRightDivisor(f"{f} does not right-divide x^{n}+2")
    # a right divisor of x^n - 1 is its own common divisor with it
    return _skew_module(SkewCyclicCode, n, 1, ONE, (f,), f)


def count_skew_cyclic(n: int) -> int:
    """Number of twisted cyclic codes of odd length given by the
    product formula over the factorization of x^n - 1."""
    if n % 2 == 0:
        raise EvenLength("the count formula requires odd length")
    return skew_count_formula(n)


def skew_count_formula(n: int) -> int:
    """prod (multiplicity + 1)^3 over the distinct irreducible factors
    of x^n - 1 (the formula value on the canonical factorization): the
    cube of the number of its monic divisors."""
    return factor(modulus(n, ModulusSign.PLUS)).divisor_count() ** 3


def odd_equivalence_check(code: SkewCyclicCode) -> bool:
    """Whether the twisted-shift-closed module is also closed under the
    plain cyclic shift (for odd length this always holds): its closure
    under the Gray form of that shift adds nothing."""
    return code.module.closure([gray_shift(code.n)]) == code.module


# -- vector <-> polynomial tuple maps ---------------------------------------


def vector_to_polys(vec, s: int, l: int) -> tuple[SkewPoly, ...]:
    """Read a length-s*l vector laid out as s blocks of l symbols into l
    polynomials: column j collects the coefficients of the j-th poly."""
    vec = as_rvector(vec)
    if len(vec) != s * l:
        raise LengthMismatch(f"expected length {s * l}, got {len(vec)}")
    return tuple(
        SkewPoly([vec[i * l + j] for i in range(s)]) for j in range(l)
    )


def polys_to_vector(polys, s: int, l: int):
    """Inverse of vector_to_polys; each polynomial must have degree < s."""
    polys = [SkewPoly(p) for p in polys]
    if len(polys) != l:
        raise LengthMismatch(f"expected {l} polynomials, got {len(polys)}")
    if any(p.degree >= s for p in polys):
        raise LengthMismatch(f"polynomial degree must be below {s}")
    return tuple(polys[j].coeff(i) for i in range(s) for j in range(l))


# -- Hermitian pairing ------------------------------------------------------


def _reduce(f: SkewPoly, s: int, lam) -> SkewPoly:
    _, r = skew_right_divmod(f, power_minus_constant(s, lam))
    return r


def hermitian_conjugate(p: SkewPoly, s: int, lam) -> SkewPoly:
    """Conjugation reversing x-powers modulo x^s - lam.

    The term c x^k maps to theta^k(c) w_k x^{(s-k) mod s} with wrap
    constants w_0 = theta(lam), w_k = 1 for odd k, and w_k = lam
    theta(lam) for even k >= 2.  These are the unique termwise factors
    (up to a unit) making each coefficient of a(x) conj(b(x)) a twisted
    Euclidean product of a shifted vector with the other vector, so the
    pairing vanishes exactly when the vectors are orthogonal under the
    twisted sectioned shift applied 1..s times.  When lam is fixed by
    the automorphism every w_k is then a unit multiple of lam^k and the
    shift window 1..s is equivalent to 0..s-1."""
    lam = _as_element(lam)
    tl = lam.theta()
    w_even = lam * tl
    out = [ZERO] * s
    for k, c in enumerate(p.coeffs):
        if c is ZERO:
            continue
        if k == 0:
            out[0] = out[0] + c * tl
        elif k % 2:
            out[s - k] = out[s - k] + c.theta()
        else:
            out[s - k] = out[s - k] + c * w_even
    return SkewPoly(out)


def hermitian_inner_product(a, b, s: int, lam) -> SkewPoly:
    """Sum of a_j(x) * conj(b_j(x)) reduced modulo x^s - lam; zero
    exactly when the underlying vectors stay Euclidean-orthogonal under
    every twisted sectioned shift."""
    if s % 2:
        raise OddS("the Hermitian pairing needs an even number of blocks")
    a = [SkewPoly(p) for p in a]
    b = [SkewPoly(p) for p in b]
    if len(a) != len(b):
        raise LengthMismatch("vectors must have equal length")
    lam = _require_unit(lam)
    acc = SkewPoly()
    for pa, pb in zip(a, b):
        acc = acc + pa * hermitian_conjugate(_reduce(pb, s, lam), s, lam)
    return _reduce(acc, s, lam)


# -- gcld -------------------------------------------------------------------


def _right_gcd(a: SkewPoly, b: SkewPoly) -> SkewPoly:
    while b:
        _, r = skew_right_divmod(a, b)
        a, b = b, r
    return a.monic()


def gcld(polys, s: int, lam) -> SkewPoly:
    """Monic common divisor of the given polynomials and x^s - lam along
    the right-division Euclidean chain: it right-divides every input,
    and every common right divisor with unit leading coefficient
    right-divides it."""
    polys = [SkewPoly(p) for p in polys]
    g = power_minus_constant(s, lam)
    for p in polys:
        if p:
            g = _right_gcd(g, p)
    return g


# -- one-generator quasi-twisted modules ------------------------------------


class SkewQCModule:
    """Module of length-s*l vectors generated by one polynomial vector
    under left multiplication, closed under the twisted sectioned
    shift."""

    __slots__ = ("s", "l", "lam", "generators", "common_divisor", "module")

    def __init__(self, s, l, lam, generators, common_divisor, module):
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "common_divisor", common_divisor)
        object.__setattr__(self, "module", module)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def n(self) -> int:
        return self.s * self.l

    @property
    def gray_dimension(self) -> int:
        return self.module.rank

    @property
    def has_divisor_chain(self) -> bool:
        """Whether the Euclidean chain for the common divisor stayed on
        unit leading coefficients (it need not in a non-domain)."""
        return self.common_divisor is not None

    @property
    def expected_rank(self) -> int:
        if self.common_divisor is None:
            raise NonUnitLeadingCoefficient(
                "the common-divisor chain hit a non-unit leading coefficient"
            )
        return self.s - self.common_divisor.degree

    @property
    def is_free_of_expected_rank(self) -> bool:
        return self.gray_dimension == 3 * self.expected_rank

    def contains(self, vec) -> bool:
        return self.module.contains(vec)

    def __repr__(self):
        gens = ", ".join(str(p) for p in self.generators)
        return (
            f"{type(self).__name__}(s={self.s}, l={self.l}, lam={self.lam}, "
            f"generators=({gens}))"
        )


class SkewCyclicCode(SkewQCModule):
    """The one-generator module with l = 1 and lam = 1: the skew cyclic
    code of length n = s generated by a monic right divisor f of
    x^n - 1."""

    __slots__ = ()

    @property
    def f(self) -> SkewPoly:
        return self.generators[0]

    @property
    def rank(self) -> int:
        return self.expected_rank


def one_generator_sqc(polys, s: int, l: int, lam) -> SkewQCModule:
    """Module generated by (f_1, ..., f_l) under left multiplication by
    ring constants and x; each nonzero f_j must be a monic right divisor
    of x^s - lam.

    x^s - lam is built once, and serves the reduction of each input (run
    only on degree s or more), the divisibility test and the common
    divisor: ``gcld(fs, s, lam)``, or None where its chain meets a
    non-unit leading coefficient."""
    _require_module_length(s * l)
    if s % 2:
        raise OddS("sectioned modules need an even number of blocks")
    lam = _require_unit(lam)
    m = power_minus_constant(s, lam)
    fs = []
    for p in polys:
        p = SkewPoly(p)
        if p.degree >= s:
            p = skew_right_divmod(p, m)[1]
        if p:
            p = p.monic()
            if skew_right_divmod(m, p)[1]:
                raise NotRightDivisor(f"{p} does not right-divide x^{s}-({lam})")
        fs.append(p)
    fs = tuple(fs)
    if len(fs) != l:
        raise LengthMismatch(f"expected {l} polynomials, got {len(fs)}")
    return _skew_module(SkewQCModule, s, l, lam, fs, _divisor_chain(fs, m))


def _divisor_chain(divisors, m: SkewPoly) -> SkewPoly | None:
    """``gcld`` of monic right divisors of m = x^s - lam, or None where
    its chain meets a non-unit leading coefficient.  The chain of gcld
    starts with the gcd of m and the first nonzero divisor, which is that
    divisor, so this one starts there; with no nonzero divisor it is m."""
    g = None
    try:
        for p in divisors:
            if p:
                g = p if g is None else _right_gcd(g, p)
    except NonUnitLeadingCoefficient:
        return None
    return m if g is None else g


@functools.lru_cache(maxsize=256)
def _left_x(n: int, unit: int, l: int):
    """Left multiplication by x on length-n modules of l sections with
    wrap constant lam = ``ELEMENTS[unit]``, a ``GrayShift``: the twisted
    sectioned shift with wrap factor theta(lam), built once per shape."""
    return gray_shift(n, ELEMENTS[unit].theta(), l, twist=True)


def _skew_module(cls, s: int, l: int, lam, generators, common_divisor):
    """Record cls of the module that the generators (each of degree below
    s, or x^s - lam) generate under left multiplication.

    Left multiplication by x is the twisted sectioned shift with wrap
    factor theta(lam): the automorphism passes over the wrapped
    coefficient before x^s = lam applies; ``_left_x`` builds it once
    per shape.  The seeds are the idempotent projections of x^i times
    the generator vector for each i below the rank r the common divisor
    predicts (s if its chain failed); a rank of 0 uses no seed row.
    They are bit-sliced masks read off the generators' Gray coordinates
    and shifted by the mask form of left_x.

    left_x maps the seeds of step i to those of step i + 1, so the span
    M0 of the seeds, extended by the images of the last ones (step r),
    is M1, which contains left_x(M0).  If that adds nothing, M0 is the
    module and no closure round runs, as for most free modules;
    otherwise the module is the closure of M1.  No array is built until
    the module's ``basis`` is read.  The entry points have checked s * l
    against ``MAX_MODULE_LENGTH``."""
    n = s * l
    left_x = _left_x(n, lam.index, l)
    step = _projection_masks([p.coeff(i) for i in range(s) for p in generators])
    ones, twos = [], []
    for _ in range(s if common_divisor is None else s - common_divisor.degree):
        ones += step[0]
        twos += step[1]
        step = left_x.on_masks(*step)
    module = GrayModule._from_masks(ones, twos, n)
    if ones:
        grown = module._extend(*step)
        if grown.rank > module.rank:
            module = grown.closure([left_x])
    return cls(s, l, lam, generators, common_divisor, module)
