"""CSS qutrit-code parameters from dual-containing codes over the ring.

A cyclic or negacyclic code over the ring whose three ternary
components each contain their dual yields, through the Gray image, a
qutrit stabilizer code on N = 3n physical qutrits with logical
dimension exponent K = 2(k1+k2+k3) - 3n and reported distance equal to
the Lee distance of the ring code.  This module checks containment,
derives parameters, scans a length exhaustively for all admissible
component triples, and reproduces a frozen reference table of known
constructions.  The scan orders its rows in one stable pass over their
runs of equal (K, d), on Python lists, without numpy.

A ternary component with generator g contains its dual exactly when
g * g* divides the modulus x^n -+ 1, g* being the monic reciprocal of
g.  The scan reads the admissible generators straight from the
factorization of the modulus: over its irreducible factors p_j, of
multiplicities m_j, with sigma pairing each factor with its reciprocal,
they are the products of p_j^e_j whose exponent vectors satisfy
e_j + e_sigma(j) <= m_j.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import gc
import itertools
import math

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
        self._set(N=N, K=K, d=d)

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
    puts them in order.  Raises ``BudgetExceeded`` before any generator
    is multiplied out when there are more than ``MAX_SCAN_ROWS`` triples.
    """
    gens = _dual_containing_generators(n, sign)
    # The zero code never contains its dual (the full space), so every
    # listed component has a distance.
    codes = [TernaryPolyCode(n, sign, g) for g in gens]
    return _ordered_rows(
        n, gens, [code.k for code in codes], [code.min_distance() for code in codes]
    )


def _ordered_rows(n: int, gens: list, ks: list[int], ds: list[int]) -> list[tuple]:
    """One row (gens[i], gens[j], gens[l], params) per triple of indices
    i <= j <= l, ordered by K = 2(k_i + k_j + k_l) - 3n descending, then
    d = min(d_i, d_j, d_l) descending, then the names (``str``) of the
    three generators.

    A distribution sort (Knuth, TAOCP 5.2.5): the triples are visited
    with i, j and l each taken in name order, and each is appended to
    the run of its (K, d), so every run is in name order as it fills,
    and the runs are read off by K, then d, descending.  The generators
    l >= j fall, for a pair of least distance d, into groups of equal
    (k_l, min(d, d_l)), each in name order and each bound whole for one
    run; the groups are formed once per (j, d), and a run is held as
    its three generator columns until it is read."""
    by_name = sorted(range(len(gens)), key=lambda x: str(gens[x]))
    later = [[l for l in by_name if l >= j] for j in range(len(gens))]

    @functools.cache
    def tails(j: int, d: int) -> list[tuple[int, int, list, int]]:
        groups = {}
        for l in later[j]:
            groups.setdefault((ks[l], min(d, ds[l])), []).append(gens[l])
        return [(k, d_l, group, len(group)) for (k, d_l), group in groups.items()]

    runs = collections.defaultdict(lambda: ([], [], []))
    for i in by_name:
        g_i, k_i, d_i = [gens[i]], ks[i], ds[i]
        for j in later[i]:
            g_j, k_ij = [gens[j]], k_i + ks[j]
            for k_l, d, group, size in tails(j, min(d_i, ds[j])):
                first, second, third = runs[k_ij + k_l, d]
                # a repeated one-item list extends faster than itertools.repeat
                first += g_i * size
                second += g_j * size
                third += group
    rows = []
    # The rows hold only generators and QuantumParams objects, so they
    # form no cycles, but their allocations would set off collections
    # again and again.
    with collector_paused():
        for k, d in sorted(runs, reverse=True):
            # Few distinct (K, d) occur, and QuantumParams is immutable,
            # so each run shares one instance.
            params = QuantumParams(3 * n, 2 * k - 3 * n, d)
            rows += zip(*runs.pop((k, d)), itertools.repeat(params))
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
    gens = [Z3Poly([1])]
    for p, q, mult in orbits:
        if p == q:
            choices = [p**e for e in range(mult // 2 + 1)]
        else:
            choices = [p**a * q**b for a in range(mult + 1) for b in range(mult + 1 - a)]
        gens = [g * h for g in gens for h in choices]
    gens.sort(key=Z3Poly.sort_key)
    return gens


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

EXPECTED_FLAGS = ("cyclic-n8-dual-containment",)


def verify_reference_table() -> list[ReferenceRow]:
    """Rebuild every reference construction from scratch and report one
    row each; a run is clean when every status is "ok" or an expected
    "flag"."""
    report = []
    for label, n, sign, gens, expected, flag_id in REFERENCE_TABLE:
        code = RCode.from_sign(n, sign, tuple(parse_poly(g) for g in gens))
        canonical = tuple(str(c.g) for c in code.components)
        try:
            params = css_params(code, check=True)
        except NotDualContaining as err:
            failing = ", ".join(str(i) for i in err.failing)
            status = "flag" if flag_id else "fail"
            report.append(
                ReferenceRow(
                    label, n, sign, canonical, expected, None, status,
                    flag_id=flag_id,
                    notes=(
                        f"components {failing} do not contain their dual: "
                        "f * reciprocal(f) does not divide the modulus, "
                        "so the CSS construction does not apply",
                    ),
                )
            )
            continue
        if expected is not None and params.as_tuple() == expected:
            status, notes = "ok", ()
        else:
            status = "fail"
            notes = (f"expected {expected}, derived {params.as_tuple()}",)
        report.append(
            ReferenceRow(
                label, n, sign, canonical, expected, params, status,
                notes=notes,
            )
        )
    return report
