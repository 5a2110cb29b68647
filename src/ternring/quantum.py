"""CSS qutrit-code parameters from dual-containing codes over the ring.

A cyclic or negacyclic code over the ring whose three ternary
components each contain their dual yields, through the Gray image, a
qutrit stabilizer code on N = 3n physical qutrits with logical
dimension exponent K = 2(k1+k2+k3) - 3n and reported distance equal to
the Lee distance of the ring code.  This module checks containment,
derives parameters, scans a length exhaustively for all admissible
component triples, and reproduces a frozen reference table of known
constructions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, NotDualContaining
from .poly import ModulusSign, Z3Poly, divisors_of_modulus, parse_poly
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

# Rows (unordered triples) one scan may build: n = 40 neg makes 2,421,090
# and peaks at 310 MB; n = 48 pos would make 85,653,600.
MAX_SCAN_ROWS = 3_000_000


@dataclass(frozen=True)
class QuantumParams:
    """Stabilizer-code parameters [[N, K, d]] on qutrits: N physical
    qutrits, logical dimension 3^K, distance d."""

    N: int
    K: int
    d: int

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

    A component generator f is admissible when f * reciprocal(f)
    divides the modulus; every triple of admissible generators gives a
    dual-containing ring code.  Its parameters depend only on the
    per-component (k, d), so each divisor is examined once and the
    triples are combined from that table: K = 2(k1+k2+k3) - 3n, and d
    is the least distance over the nonzero components (the Lee distance
    of the ring code).  Raises ``BudgetExceeded`` before any distance is
    computed when there are more than ``MAX_SCAN_ROWS`` triples.
    """
    table = [
        code
        for code in (TernaryPolyCode(n, sign, g) for g in divisors_of_modulus(n, sign))
        if code.contains_dual()
    ]
    m = len(table)
    rows = m * (m + 1) * (m + 2) // 6
    if rows > MAX_SCAN_ROWS:
        raise BudgetExceeded(
            f"length {n} keeps {m} dual-containing divisors, whose {rows} "
            f"triples are above the budget of {MAX_SCAN_ROWS} rows"
        )
    gens = [code.g for code in table]
    # The zero code never contains its dual (the full space), so every
    # listed component has a distance.  The sort's index arrays are freed
    # before the rows are built, which keeps the peak memory down.
    first, second, third, runs = _sorted_triples(
        n,
        [code.k for code in table],
        [code.min_distance() for code in table],
        [str(g) for g in gens],
    )
    # Few distinct (K, d) occur, and QuantumParams is immutable, so each
    # run of equal parameters shares one instance.
    params = itertools.chain.from_iterable(
        itertools.repeat(QuantumParams(3 * n, K, d), count) for K, d, count in runs
    )
    pick = gens.__getitem__
    return list(zip(map(pick, first), map(pick, second), map(pick, third), params))


def _sorted_triples(
    n: int, ks: list[int], ds: list[int], names: list[str]
) -> tuple[list[int], list[int], list[int], list[tuple[int, int, int]]]:
    """Every unordered triple i <= j <= l of table indices, ordered by
    K = 2(k_i + k_j + k_l) - 3n descending, then min(d_i, d_j, d_l)
    descending, then (names[i], names[j], names[l]).  Returns the three
    index columns as lists and the (K, d, count) runs of the order."""
    m = len(ks)
    k = np.array(ks, dtype=np.intp)
    d = np.array(ds, dtype=np.intp)
    # Names are distinct, so their ranks order the triples as the names do.
    rank = np.empty(m, dtype=np.intp)
    rank[sorted(range(m), key=names.__getitem__)] = np.arange(m)
    triples = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations_with_replacement(range(m), 3)),
        dtype=np.intp,
    ).reshape(-1, 3)
    K = 2 * k[triples].sum(axis=1) - 3 * n
    dist = d[triples].min(axis=1)
    r = rank[triples]
    order = np.lexsort((r[:, 2], r[:, 1], r[:, 0], -dist, -K))
    triples, K, dist = triples[order], K[order], dist[order]
    new_run = np.ones(len(K), dtype=bool)
    new_run[1:] = (K[1:] != K[:-1]) | (dist[1:] != dist[:-1])
    starts = np.flatnonzero(new_run)
    counts = np.diff(starts, append=len(K))
    runs = list(zip(K[starts].tolist(), dist[starts].tolist(), counts.tolist()))
    return (*(column.tolist() for column in triples.T), runs)


@dataclass(frozen=True)
class ReferenceRow:
    """Outcome of one frozen reference construction.

    ``status`` is "ok" when the derived parameters match the expected
    ones, "flag" when the construction fails in a known, documented way
    (``flag_id`` names it and ``notes`` explain), and "fail" otherwise.
    """

    label: str
    n: int
    sign: ModulusSign
    generators: tuple[str, str, str]
    expected: tuple[int, int, int] | None
    params: QuantumParams | None
    status: str
    flag_id: str | None = None
    notes: tuple[str, ...] = ()


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
