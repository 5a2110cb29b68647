"""Polynomial and ring-element text: ``parse_poly``, ``parse_ring_poly``
and ``parse_element`` read their terms through one scanner,
``ring._terms``.

The three hand-written parsers they replaced are kept below, verbatim, as
oracles: on every short string over the symbols of the notation, and on
random strings of tokens, each parser accepts exactly what its oracle
accepts, with the same value, and refuses the rest with ``ValueError``.
The oracles also read a term that ends in a newline (their patterns end
in ``$``); the scanner matches each term whole, so no text with a
newline parses.
"""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternring.poly import Z3Poly, parse_poly
from ternring.ring import (
    ONE,
    ZERO,
    RingElement,
    _check_exponent,
    element,
    parse_element,
    parse_ring_poly,
)

# -- the oracles: the three parsers as they were, each with its own split --

_ELEMENT_TERM = re.compile(r"^(?:([012])|([2])?v|([2])?v\^2)$")


def oracle_parse_element(text: str) -> RingElement:
    """Parse strings like ``1+2v+2v^2``, ``v``, ``2v^2`` or ``0``."""
    s = text.replace("²", "^2").replace(" ", "")
    if not s:
        raise ValueError("empty ring element")
    a = b = c = 0
    for term in s.split("+"):
        m = _ELEMENT_TERM.match(term)
        if not m:
            raise ValueError(f"bad ring element term: {term!r}")
        if m.group(1) is not None:
            a += int(m.group(1))
        elif term.endswith("^2"):
            c += int(m.group(3) or 1)
        else:
            b += int(m.group(2) or 1)
    return element(a, b, c)


_POLY_TERM = re.compile(r"^([12]?)(x(?:\^(\d+))?)?$")


def oracle_parse_poly(text: str) -> Z3Poly:
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


_RPOLY_TERM = re.compile(
    r"^(?:\(([^()]+)\)|((?:[2]?v(?:\^2)?)|[012]))?(x(?:\^(\d+))?)?$"
)


def oracle_parse_ring_poly(text: str) -> tuple[RingElement, ...]:
    """Parse ``(2v+2v^2)x^2+(1+2v+2v^2)x+1`` into ascending coefficients.

    Returns a tuple with trailing zeros stripped; the zero polynomial
    parses to the empty tuple.
    """
    s = text.replace("²", "^2").replace(" ", "")
    if not s:
        raise ValueError("empty polynomial")
    if "-" in s:
        raise ValueError("write additive inverses with coefficient 2, not '-'")
    # split on '+' outside parentheses
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "+" and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    coeffs: dict[int, RingElement] = {}
    for part in parts:
        if not part:
            raise ValueError(f"empty term in {text!r}")
        m = _RPOLY_TERM.match(part)
        if not m or (m.group(1) is None and m.group(2) is None and m.group(3) is None):
            raise ValueError(f"bad polynomial term: {part!r}")
        if m.group(1) is not None:
            coef = oracle_parse_element(m.group(1))
        elif m.group(2) is not None:
            coef = oracle_parse_element(m.group(2))
        else:
            coef = ONE
        if m.group(3) is None:
            power = 0
        else:
            power = 1 if m.group(4) is None else _check_exponent(int(m.group(4)))
        coeffs[power] = coeffs.get(power, ZERO) + coef
    deg = max((p for p, r in coeffs.items() if r), default=-1)
    return tuple(coeffs.get(i, ZERO) for i in range(deg + 1))


# -- comparison --------------------------------------------------------

PAIRS = [(parse_poly, oracle_parse_poly), (parse_ring_poly, oracle_parse_ring_poly)]

# every symbol of the notation, the space included
ALPHABET = "x^012v+-()²[,] "

TOKENS = [
    "(1+v)", "2v^2", "x^10", "x²", "(1-v)", "3", "x^0", ",", "x", "+", "-",
    "2", "v", "(2v+v^2)", "[", "]", "0", "1", "x^2", " ",
]


def outcome(parse, text):
    """The value's repr, or the refusal; any other exception propagates."""
    try:
        return repr(parse(text))
    except ValueError:
        return ValueError


def test_every_short_string_parses_as_before():
    strings = (
        "".join(t) for k in range(5) for t in itertools.product(ALPHABET, repeat=k)
    )
    count, accepted = 0, [0, 0]
    for text in strings:
        count += 1
        for i, (parse, oracle) in enumerate(PAIRS):
            got = outcome(parse, text)
            assert got == outcome(oracle, text), (parse.__name__, text)
            accepted[i] += got is not ValueError
    assert count == 54241
    assert accepted == [407, 458]  # both reach their accepting paths


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=7))
def test_token_strings_parse_as_before(tokens):
    text = "".join(tokens)
    for parse, oracle in PAIRS:
        assert outcome(parse, text) == outcome(oracle, text), (parse.__name__, text)


# -- the edges of the two languages --------------------------------------


@pytest.mark.parametrize("text", ["0x", "0x^0", "(1)x", "x²", "vx", "3x"])
def test_parse_poly_refuses(text):
    with pytest.raises(ValueError):
        parse_poly(text)


def test_parse_poly_accepts():
    assert parse_poly("-x+1") == Z3Poly([1, 2])
    assert parse_poly("x^0") == Z3Poly([1])
    assert parse_poly("[1,0,2]") == Z3Poly([1, 0, 2])


@pytest.mark.parametrize("text", ["x-1", "-x", "(1-v)x"])
def test_parse_ring_poly_refuses(text):
    with pytest.raises(ValueError):
        parse_ring_poly(text)


def test_parse_ring_poly_accepts():
    assert parse_ring_poly("x²") == (ZERO, ZERO, ONE)
    assert parse_ring_poly("0x") == ()
    assert parse_ring_poly("(1+v)x") == (ZERO, parse_element("1+v"))


@pytest.mark.parametrize("parse", [parse_poly, parse_ring_poly])
@pytest.mark.parametrize(
    "text",
    [
        "", "+x", "x++1", "x+-1", "x^", "x-",
        # exponents in Arabic-Indic or fullwidth digits: "\d" read
        # x^<Arabic-Indic 1> as x and x^<fullwidth 12> as x^12
        "x^\u0661", "x^\u0663", "x^\uff11\uff12", "2x^\u0663+1", "x^1\u0661",
    ],
)
def test_both_refuse(parse, text):
    with pytest.raises(ValueError):
        parse(text)


# -- ring-element text ---------------------------------------------------

# the symbols of the notation, the tab included
ELEMENT_ALPHABET = "012v^+-()²x [,]\t"


def test_every_short_string_reads_as_the_same_element():
    strings = (
        "".join(t)
        for k in range(5)
        for t in itertools.product(ELEMENT_ALPHABET, repeat=k)
    )
    count = accepted = 0
    for text in strings:
        count += 1
        got = outcome(parse_element, text)
        assert got == outcome(oracle_parse_element, text), text
        accepted += got is not ValueError
    assert count == 69905
    assert accepted == 167  # the comparison reaches the accepting path


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=7))
def test_token_strings_read_as_the_same_element(tokens):
    text = "".join(tokens)
    assert outcome(parse_element, text) == outcome(oracle_parse_element, text), text


# -- newlines ----------------------------------------------------------


@pytest.mark.parametrize("parse", [parse_element, parse_poly, parse_ring_poly])
@pytest.mark.parametrize(
    "text", ["1\n", "v^2\n", "1+2v+2v^2\n", "\n", "x\n", "x\n+1", "1\n+x", "[1\n]"]
)
def test_no_text_with_a_newline_parses(parse, text):
    with pytest.raises(ValueError):
        parse(text)


# -- the entries of [a,b,c] --------------------------------------------


@pytest.mark.parametrize(
    "text", ["[1_0]", "[1\n]", "[١]", "[１]", "[1,]", "[+]", "[0x1]", "[1.0]"]
)
def test_bracket_entries_other_than_ascii_integers_are_refused(text):
    with pytest.raises(ValueError):
        parse_poly(text)


def test_bracket_entries_that_are_ascii_integers_keep_their_values():
    assert parse_poly("[+1,-1]") == Z3Poly([1, 2])
    assert parse_poly("[10]") == Z3Poly([1])
    assert parse_poly("[1, 0, 2]") == Z3Poly([1, 0, 2])
    assert parse_poly("[]") == Z3Poly()
