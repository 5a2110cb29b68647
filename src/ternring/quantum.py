"""CSS qutrit-code parameters from dual-containing codes over the ring.

A cyclic or negacyclic code over the ring whose three ternary
components each contain their dual yields, through the Gray image, a
qutrit stabilizer code on N = 3n physical qutrits with logical
dimension exponent K = 2(k1+k2+k3) - 3n and reported distance equal to
the Lee distance of the ring code.  This module checks containment,
derives parameters, scans a length exhaustively for all admissible
component triples, and reproduces a frozen reference table of known
constructions.  The scan orders its rows by distribution into runs of
equal (K, d), one segment per generator and run, and makes each row
once, in its final place, on Python lists, without numpy.

A ternary component with generator g contains its dual exactly when
g * g* divides the modulus x^n -+ 1, g* being the monic reciprocal of
g.  The scan reads the admissible generators straight from the
factorization of the modulus: over its irreducible factors p_j, of
multiplicities m_j, with sigma pairing each factor with its reciprocal,
they are the products of p_j^e_j whose exponent vectors satisfy
e_j + e_sigma(j) <= m_j.
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import gc
import itertools
import math
import operator

from ._record import Record
from .errors import BudgetExceeded, NotDualContaining, SelfCheckFailed
from .poly import ModulusSign, Z3Poly, factor, modulus, parse_poly
from .rcodes import RCode
from .ternary import TernaryPolyCode

__all__ = [
    "QuantumParams",
    "css_params",
    "scan_dual_containing",
    "ReferenceRow",
    "REFERENCE_TABLE",
    "EXPECTED_FLAGS",
    "verify_reference_table",
    "MAX_SCAN_ROWS",
]

# Rows (unordered triples) one scan may build: n = 40 neg makes 2,421,090,
# and a process that runs that scan alone peaks at 249 MB (2-vCPU x86_64,
# Python 3.11); n = 48 pos would make 85,653,600.
MAX_SCAN_ROWS = 3_000_000


class QuantumParams(Record):
    """Stabilizer-code parameters [[N, K, d]] on qutrits: N physical
    qutrits, logical dimension 3^K, distance d."""

    __slots__ = ("N", "K", "d")

    def __init__(self, N: int, K: int, d: int):
        # one per run of a scan, where a small scan's runs hold a row or
        # two each: its slots are written without _set's keyword loop
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "d", d)

    def __str__(self):
        return f"[[{self.N},{self.K},{self.d}]]"

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.N, self.K, self.d)


def css_params(code: RCode, check: bool = True) -> QuantumParams:
    """Parameters of the CSS construction applied to the Gray image:
    [[3n, 2*(k1+k2+k3) - 3n, lee_distance]].

    With ``check`` the three components must each contain their dual
    (divisibility criterion per component); the error reports the
    1-based indices of the failing components.
    """
    if check:
        failing = code.failing_dual_components()
        if failing:
            raise NotDualContaining(failing)
    n = code.n
    return QuantumParams(3 * n, 2 * code.cardinality_log3 - 3 * n, code.lee_distance())


def scan_dual_containing(
    n: int, sign: ModulusSign
) -> list[tuple[Z3Poly, Z3Poly, Z3Poly, QuantumParams]]:
    """All dual-containing component triples of length n, one row per
    unordered triple, sorted by K descending, then d descending, then
    the component generators.

    The admissible component generators are the g = prod p_j^e_j over
    the modulus's irreducible factors whose exponent vectors satisfy
    e_j + e_sigma(j) <= m_j, the criterion for g * g* to divide the
    modulus (Huffman-Pless 4.4; see the module docstring), and every
    triple of them gives a dual-containing ring code.  Its parameters
    depend only on the per-component (k, d), so each generator's code
    is built once, for its distance, and the triples are combined from
    that table: K = 2(k1+k2+k3) - 3n, and d is the least distance over
    the components (the Lee distance of the ring code); ``_ordered_rows``
    puts them in order.  Each code is built trusted
    (``TernaryPolyCode._trusted``), without the constructor's division:
    the generators are products of the modulus's factors, and the chain
    of systematic rows that each distance search starts from proves
    every one of them a divisor, or raises ``SelfCheckFailed``.  Raises
    ``BudgetExceeded`` before any generator is multiplied out when there
    are more than ``MAX_SCAN_ROWS`` triples.
    """
    gens = _dual_containing_generators(n, sign)
    # The zero code never contains its dual (the full space), so every
    # listed component has a distance, and level 1 of every search runs.
    codes = [TernaryPolyCode._trusted(n, sign, g) for g in gens]
    return _ordered_rows(
        n, gens, [code.k for code in codes], [code.min_distance() for code in codes]
    )


def _ordered_rows(n: int, gens: list, ks: list[int], ds: list[int]) -> list[tuple]:
    """One row (gens[i], gens[j], gens[l], params) per triple of indices
    i <= j <= l, ordered by K = 2(k_i + k_j + k_l) - 3n descending, then
    d = min(d_i, d_j, d_l) descending, then the names (``str``) of the
    three generators.

    A distribution sort (Knuth, TAOCP 5.2.5) whose buckets are filled per
    generator, not per row.  The generators are taken in descending index
    order.  For each distance cap c that a generator still to come has,
    the pairs j <= l with j at or after the current generator are held
    in blocks of one j and one key (k_j + k_l, min(c, d_j, d_l)): a
    column of g_j and one of the g_l in name order.  The blocks of a key
    stand in the name order of their j, each inserted at j's name rank
    when j is reached.  Generator i then adds, for each key of its cap
    d_i, one segment to the run of (k_i + k_j + k_l, d): the key's
    blocks, chained as they stand.  The runs are read off by K, then d,
    descending, and the segments of a run by the name of their g_i, so
    each row tuple is made once, by ``zip``, in its final place."""
    names = list(map(str, gens))
    # the lowest index of each cap: below it, no generator reads its table
    lowest = dict(zip(reversed(ds), range(len(ds) - 1, -1, -1)))
    # per cap, key -> the names of the blocks' j, their g_j and g_l columns
    tables = {c: {} for c in lowest}
    later, runs = [], collections.defaultdict(list)
    for i in reversed(range(len(gens))):
        g_i, k_i, d_i, name = gens[i], ks[i], ds[i], names[i]
        bisect.insort(later, i, key=names.__getitem__)
        # the blocks of j = i, by key; the caps of at least d_i share theirs
        blocks = {}
        for c, table in tables.items():
            cap = c if c < d_i else d_i
            groups = blocks.get(cap)
            if groups is None:
                groups = blocks[cap] = {}
                for l in later:
                    d = ds[l]
                    key = k_i + ks[l], d if d < cap else cap
                    groups.setdefault(key, []).append(gens[l])
            for key, g_ls in groups.items():
                g_js = [g_i] * len(g_ls)
                if key not in table:
                    table[key] = ([name], [g_js], [g_ls])
                    continue
                held, firsts, seconds = table[key]
                at = bisect.bisect(held, name)
                held.insert(at, name)
                firsts.insert(at, g_js)
                seconds.insert(at, g_ls)
        # chained now, before the blocks of lower j join the tables
        for (k, d), (_, firsts, seconds) in tables[d_i].items():
            runs[k_i + k, d].append(
                (name, g_i, itertools.chain(*firsts), itertools.chain(*seconds))
            )
        if lowest[d_i] == i:
            del tables[d_i]
    rows = []
    # The rows hold only generators and QuantumParams objects, so they
    # form no cycles, but their allocations would set off collections
    # again and again.
    with collector_paused():
        for (k, d), segments in sorted(runs.items(), reverse=True):
            # Few distinct (K, d) occur, and QuantumParams is immutable,
            # so each run shares one instance, through one endless repeat.
            params = itertools.repeat(QuantumParams(3 * n, 2 * k - 3 * n, d))
            # the names are distinct, so no two segments tie
            for _, g_i, firsts, seconds in sorted(segments):
                rows += zip(itertools.repeat(g_i), firsts, seconds, params)
    return rows


@contextlib.contextmanager
def collector_paused():
    """Pause the cyclic garbage collector for the block, and restore its
    previous state after it (a collector disabled before stays
    disabled)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _dual_containing_generators(n: int, sign: ModulusSign) -> list[Z3Poly]:
    """The monic g with g * g* dividing the modulus, in ``Z3Poly`` order.

    Each orbit of sigma contributes its own exponents: p^e with
    2e <= m for a self-reciprocal factor p of multiplicity m, and
    p^a q^b with a + b <= m for a factor p whose reciprocal is another
    factor q.  The size of the scan is checked against the number of
    exponent vectors before any generator is multiplied out."""
    mod = modulus(n, sign)
    factors = factor(mod).factors
    position = {pm: j for j, pm in enumerate(factors)}
    orbits = []
    for j, (p, mult) in enumerate(factors):
        partner = position.get((p.reciprocal().monic(), mult))
        if partner is None:
            raise SelfCheckFailed(
                f"the reciprocal of the factor {p} of {mod} is not a factor "
                f"of multiplicity {mult}"
            )
        if partner >= j:
            orbits.append((p, factors[partner][0], mult))
    _check_scan_size(
        n,
        math.prod(
            mult // 2 + 1 if p == q else (mult + 1) * (mult + 2) // 2
            for p, q, mult in orbits
        ),
    )
    # the unit first, and no product taken with it
    gens = [Z3Poly._from_masks(1, 0)]
    for p, q, mult in orbits:
        choices = _orbit_choices(p, q, mult)
        gens += choices + [g * h for g in gens[1:] for h in choices]
    gens.sort(key=Z3Poly.sort_key)
    return gens


def _orbit_choices(p: Z3Poly, q: Z3Poly, mult: int) -> list[Z3Poly]:
    """The exponents an orbit allows, but the unit: p^e for 1 <= e <=
    mult/2 when p = q, else p^a q^b for 1 <= a + b <= mult.  Each is one
    product from a smaller one: p^e = p^(e-1) p, p^a q^b = p^a q^(b-1) q."""
    if p == q:
        return list(itertools.accumulate(itertools.repeat(p, mult // 2), operator.mul))
    choices = list(itertools.accumulate(itertools.repeat(q, mult), operator.mul))
    powers = itertools.accumulate(itertools.repeat(p, mult), operator.mul)
    for a, p_a in enumerate(powers, 1):
        choices += itertools.accumulate(
            itertools.repeat(q, mult - a), operator.mul, initial=p_a
        )
    return choices


def _check_scan_size(n: int, m: int) -> None:
    """Refuse a scan of length n over m generators whose triples, one row
    each, are above ``MAX_SCAN_ROWS``."""
    rows = m * (m + 1) * (m + 2) // 6
    if rows > MAX_SCAN_ROWS:
        raise BudgetExceeded(
            f"length {n} keeps {m} dual-containing divisors, whose {rows} "
            f"triples are above the budget of {MAX_SCAN_ROWS} rows"
        )


class ReferenceRow(Record):
    """Outcome of one frozen reference construction.

    ``status`` is "ok" when the derived parameters match the expected
    ones, "flag" when the construction fails in a known, documented way
    (``flag_id`` names it and ``notes`` explain), and "fail" otherwise.
    """

    __slots__ = (
        "label", "n", "sign", "generators", "expected", "params", "status",
        "flag_id", "notes",
    )

    def __init__(
        self,
        label: str,
        n: int,
        sign: ModulusSign,
        generators: tuple[str, str, str],
        expected: tuple[int, int, int] | None,
        params: QuantumParams | None,
        status: str,
        flag_id: str | None = None,
        notes: tuple[str, ...] = (),
    ):
        self._set(
            label=label, n=n, sign=sign, generators=generators, expected=expected,
            params=params, status=status, flag_id=flag_id, notes=notes,
        )


# Frozen reference constructions: (label, n, sign, generators,
# expected [[N,K,d]] or None, expected flag id or None).  The n = 8
# row is listed with the parameters it is sometimes claimed to give;
# x^8 - 1 is squarefree over GF(3), so (x^2+1)^2 cannot divide it and
# the triple fails the dual-containment criterion.
REFERENCE_TABLE: tuple[tuple, ...] = (
    ("[[18,6,2]]", 6, ModulusSign.PLUS,
     ("x^2+2", "x^2+2", "2x^2+1"), (18, 6, 2), None),
    ("[[36,18,2]]", 12, ModulusSign.PLUS,
     ("x^3+x^2+x+1",) * 3, (36, 18, 2), None),
    ("[[81,45,2]]", 27, ModulusSign.PLUS,
     ("x^6+x^3+1",) * 3, (81, 45, 2), None),
    ("[[90,66,2]]", 30, ModulusSign.PLUS,
     ("x^4+x^3+x^2+x+1", "x^4+2x^3+x^2+2x+1", "x^4+x^3+x^2+x+1"),
     (90, 66, 2), None),
    ("[[9,3,2]]", 3, ModulusSign.MINUS,
     ("x+1", "x+1", "x+1"), (9, 3, 2), None),
    ("[[30,6,4]]", 10, ModulusSign.MINUS,
     ("x^4+x^3+2x+1", "x^4+2x^3+x+1", "x^4+2x^3+x+1"), (30, 6, 4), None),
    ("[[36,24,2]]", 12, ModulusSign.MINUS,
     ("x^2+x+2", "2x^2+x+1", "x^2+2x+2"), (36, 24, 2), None),
    ("[[24,12,2]] (claimed)", 8, ModulusSign.PLUS,
     ("x^2+1", "x^2+1", "x^2+1"), None, "cyclic-n8-dual-containment"),
)

EXPECTED_FLAGS = tuple(flag for *_, flag in REFERENCE_TABLE if flag is not None)


def verify_reference_table() -> list[ReferenceRow]:
    """Rebuild every reference construction from scratch and report one
    row each; a run is clean when every status is "ok" or an expected
    "flag"."""
    report = []
    for label, n, sign, gens, expected, flag_id in REFERENCE_TABLE:
        code = RCode.from_sign(n, sign, tuple(parse_poly(g) for g in gens))
        try:
            params = css_params(code, check=True)
        except NotDualContaining as err:
            params, status = None, "flag" if flag_id else "fail"
            failing = ", ".join(str(i) for i in err.failing)
            notes = (
                f"components {failing} do not contain their dual: "
                "f * reciprocal(f) does not divide the modulus, "
                "so the CSS construction does not apply",
            )
        else:
            status, flag_id, notes = "ok", None, ()
            if params.as_tuple() != expected:
                status = "fail"
                notes = (f"expected {expected}, derived {params.as_tuple()}",)
        canonical = tuple(str(c.g) for c in code.components)
        report.append(
            ReferenceRow(
                label, n, sign, canonical, expected, params, status, flag_id, notes
            )
        )
    return report
