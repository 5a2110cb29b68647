"""Independent arithmetic the benchmark checks outputs with.

Nothing here calls ternring.  Polynomials over GF(3) are tuples of
ascending coefficients with no trailing zeros.  A ring element of
R = Z3[v]/(v^3 - v) is its Gray triple (values at v = 0, 1, 2), so ring
products are componentwise and the automorphism theta swaps the last
two coordinates.
"""

from __future__ import annotations

import itertools

import numpy as np

# -- GF(3) polynomials ---------------------------------------------------


def trim(coeffs) -> tuple[int, ...]:
    out = [c % 3 for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def p_mul(a, b) -> tuple[int, ...]:
    if not a or not b:
        return ()
    return trim(np.convolve(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)))


def p_divmod(a, b) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(trim(a))
    inv = b[-1]  # 1 and 2 are their own inverses mod 3
    quot = [0] * max(len(rem) - len(b) + 1, 0)
    for k in range(len(rem) - len(b), -1, -1):
        c = rem[k + len(b) - 1] * inv % 3
        quot[k] = c
        for j, y in enumerate(b):
            rem[k + j] = (rem[k + j] - c * y) % 3
    return trim(quot), trim(rem[: len(b) - 1])


def p_pow(a, e: int) -> tuple[int, ...]:
    out = (1,)
    for _ in range(e):
        out = p_mul(out, a)
    return out


def monic(a) -> tuple[int, ...]:
    return trim(c * a[-1] for c in a)


def reciprocal(a) -> tuple[int, ...]:
    return trim(reversed(trim(a)))


def modulus(n: int, plus: bool) -> tuple[int, ...]:
    """x^n - 1 when plus, else x^n + 1."""
    return trim([2 if plus else 1] + [0] * (n - 1) + [1])


def format_poly(a) -> str:
    """Descending terms like ``2x^3+x+1``, the package's text form."""
    terms = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            xpart = "x" if i == 1 else f"x^{i}"
            terms.append(xpart if c == 1 else f"{c}{xpart}")
    return "+".join(terms) or "0"


def parse_poly(text: str) -> tuple[int, ...]:
    """Inverse of format_poly."""
    coeffs: dict[int, int] = {}
    for term in text.split("+"):
        if "x" not in term:
            coef, deg = int(term), 0
        else:
            head, _, tail = term.partition("x")
            coef = int(head) if head else 1
            deg = int(tail[1:]) if tail else 1
        coeffs[deg] = coeffs.get(deg, 0) + coef
    top = max(coeffs)
    return trim(coeffs.get(i, 0) for i in range(top + 1))


def factor_small(n: int, plus: bool) -> list[tuple[tuple[int, ...], int]]:
    """Irreducible factors of x^n -+ 1 with multiplicity, by trial
    division with monic polynomials of rising degree (the first monic
    divisor of each degree is irreducible).  For small n only."""
    rest = modulus(n, plus)
    out = []
    deg = 1
    while len(rest) > 1:
        if 2 * deg > len(rest) - 1:
            out.append((rest, 1))
            break
        for tail in itertools.product(range(3), repeat=deg):
            cand = trim(tail + (1,))
            e = 0
            while True:
                q, r = p_divmod(rest, cand)
                if r:
                    break
                rest, e = q, e + 1
            if e:
                out.append((cand, e))
        deg += 1
    merged: dict[tuple[int, ...], int] = {}
    for p, e in out:
        merged[p] = merged.get(p, 0) + e
    return sorted(merged.items(), key=lambda pe: (len(pe[0]), pe[0][::-1]))


def divisors(factors) -> list[tuple[int, ...]]:
    """All monic divisors of a product of (irreducible, multiplicity)."""
    out = []
    for exps in itertools.product(*(range(e + 1) for _, e in factors)):
        d = (1,)
        for (p, _), e in zip(factors, exps):
            d = p_mul(d, p_pow(p, e))
        out.append(d)
    return out


def sympy_factors(n: int, plus: bool) -> list[tuple[tuple[int, ...], int]]:
    """Irreducible factors of x^n -+ 1 over GF(3) from sympy."""
    import sympy

    x = sympy.symbols("x")
    poly = sympy.Poly(x**n - 1 if plus else x**n + 1, x, modulus=3)
    _, parts = poly.factor_list()
    out = []
    for p, e in parts:
        coeffs = trim(int(c) for c in reversed(p.all_coeffs()))
        out.append((monic(coeffs), e))
    return out


def eligible(n: int, plus: bool, g) -> bool:
    """g * reciprocal(g) divides the modulus (the dual-containment
    criterion for cyclic and negacyclic codes)."""
    return not p_divmod(modulus(n, plus), p_mul(g, reciprocal(g)))[1]


# -- the ring R and the skew ring R[x; theta] -----------------------------

GRAY_UNITS = tuple(itertools.product((1, 2), repeat=3))


def element_text(gray) -> str:
    """Text a + bv + cv^2 of the element with the given Gray triple
    (values at v = 0, 1, 2, where v^2 = 1 at v = 2)."""
    g1, g2, g3 = gray
    a = g1 % 3
    b = (g3 - g2) % 3
    c = (g2 - a - b) % 3
    terms = []
    if a:
        terms.append(str(a))
    if b:
        terms.append("v" if b == 1 else "2v")
    if c:
        terms.append("v^2" if c == 1 else "2v^2")
    return "+".join(terms) or "0"


def theta(gray):
    return (gray[0], gray[2], gray[1])


def skew_mul(q, f) -> list[tuple[int, int, int]]:
    """Product q*f of skew polynomials given as lists of Gray triples:
    (a x^i)(b x^j) = a theta^i(b) x^(i+j)."""
    out = [(0, 0, 0)] * (len(q) + len(f) - 1)
    for i, a in enumerate(q):
        for j, b in enumerate(f):
            tb = b if i % 2 == 0 else theta(b)
            c = out[i + j]
            out[i + j] = tuple((c[t] + a[t] * tb[t]) % 3 for t in range(3))
    while out and out[-1] == (0, 0, 0):
        out.pop()
    return out


def power_minus(s: int, lam) -> list[tuple[int, int, int]]:
    """x^s - lam as Gray triples."""
    return [tuple(-t % 3 for t in lam)] + [(0, 0, 0)] * (s - 1) + [(1, 1, 1)]


# -- GF(3) linear algebra on Gray rows -------------------------------------


def rank_mod3(rows) -> int:
    a = np.array(rows, dtype=np.int64).reshape(len(rows), -1) % 3
    r = 0
    for c in range(a.shape[1]):
        if r == a.shape[0]:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        a[[r, p]] = a[[p, r]]
        a[r] = a[r] * a[r, c] % 3
        factors = a[:, c].copy()
        factors[r] = 0
        a = (a - np.outer(factors, a[r])) % 3
        r += 1
    return r


def section_shift(rows, n: int, l: int, mu) -> np.ndarray:
    """Gray image of the twisted sectioned shift: rotate the ring vector
    by l places, multiply the wrapped block by mu (a Gray triple), then
    apply theta entrywise, which swaps the last two Gray blocks."""
    rows = np.array(rows, dtype=np.int64).reshape(-1, 3 * n)
    blocks = [rows[:, b * n : (b + 1) * n] for b in range(3)]
    rotated = []
    for b in range(3):
        blk = np.roll(blocks[b], l, axis=1)
        blk[:, :l] = blk[:, :l] * mu[b] % 3
        rotated.append(blk)
    return np.hstack([rotated[0], rotated[2], rotated[1]])


def stable(basis, n: int, l: int, mu) -> bool:
    """The row space holds the image of each of its basis rows."""
    basis = np.asarray(basis)
    if basis.shape[0] == 0:
        return True
    r = rank_mod3(basis)
    return r == basis.shape[0] and rank_mod3(
        np.vstack([basis, section_shift(basis, n, l, mu)])
    ) == r


def spans(basis, rows) -> bool:
    """Every given row lies in the row space of basis."""
    basis = np.asarray(basis)
    r = rank_mod3(basis) if basis.shape[0] else 0
    return rank_mod3(np.vstack([basis, np.asarray(rows)])) == r
