"""Command line front end for the workbench.

Subcommands expose factorization, ring-code construction and duals,
Gray images, distances, dual-containment checks, constacyclic
transport and classification, twisted (skew) code utilities, CSS
parameter derivation with exhaustive scans, and a self-test that
rebuilds the frozen reference constructions.

Output is deterministic: identical invocations produce byte-identical
stdout.  JSON (``--json``) is the machine format; the default text
rendering is a derived view.  Exit codes: 0 for success (including
documented expected flags), 1 for domain errors, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import TernringError
from .poly import ModulusSign, factor, modulus, parse_poly
from .quantum import (
    EXPECTED_FLAGS,
    css_params,
    scan_dual_containing,
    verify_reference_table,
)
from .rcodes import (
    RCode,
    classify_constacyclic,
    constacyclic_shift,
    constacyclic_transport,
    cyclic_shift,
    decompose_generator,
    gray_shift,
    gray_vector,
    section_shift,
    skew_cyclic_shift,
)
from .ring import ELEMENTS, format_ring_poly, parse_element
from .skew import (
    count_skew_cyclic,
    gcld,
    monic_right_divisors,
    parse_skew_poly,
    skew_count_formula,
    skew_cyclic_code,
)

# Flags that a clean run is allowed to raise: known discrepancies in
# published displays, documented so regressions stand out.  The quantum
# reference table names its own.
SELFTEST_EXPECTED_FLAGS = (
    "factor-display-n6",
    *EXPECTED_FLAGS,
    "skew-count-n12",
    "quantum-logical-exponent",
)


@dataclass
class CommandResult:
    """Outcome of one command: ok / flag / error, a JSON-ready payload,
    and human-readable discrepancy notes (nonempty exactly when the
    status is flag)."""

    status: str
    payload: object
    notes: list[str] = field(default_factory=list)
    human: list[str] = field(default_factory=list)


def _sign(text: str) -> ModulusSign:
    return ModulusSign.PLUS if text == "pos" else ModulusSign.MINUS


def _sign_name(sign: ModulusSign) -> str:
    return "pos" if sign is ModulusSign.PLUS else "neg"


def _build_rcode(args) -> RCode:
    return RCode.from_sign(args.n, _sign(args.sign), (args.f1, args.f2, args.f3))


def _render_rcode(code: RCode) -> dict:
    return {
        "n": code.n,
        "kind": code.kind,
        "lam": str(code.lam),
        "f": [str(c.g) for c in code.components],
        "k": list(code.dims),
        "cardinality_log3": code.cardinality_log3,
        "d_lee": None if code.is_zero else code.lee_distance(),
    }


def _rcode_lines(payload: dict) -> list[str]:
    return [
        f"n={payload['n']} kind={payload['kind']} lam={payload['lam']}",
        "f = (" + ", ".join(payload["f"]) + ")",
        f"k = {tuple(payload['k'])}  |C| = 3^{payload['cardinality_log3']}"
        f"  d_lee = {payload['d_lee']}",
    ]


# -- factor ------------------------------------------------------------------


def cmd_factor(args) -> CommandResult:
    sign = _sign(args.sign)
    fac = factor(modulus(args.n, sign))
    display = str(fac)
    payload = {
        "n": args.n,
        "sign": _sign_name(sign),
        "modulus": str(modulus(args.n, sign)),
        "factors": [[str(p), m] for p, m in fac.factors],
        "display": display,
    }
    notes = []
    if (args.n, sign) == (6, ModulusSign.PLUS):
        notes.append(
            "a published display factors x^6-1 into three quadratics "
            "(2x^2+2)(x^2+2)(2x^2+1); that product equals "
            "x^6+2x^4+2x^2+1, not x^6-1, and the factors are neither "
            "monic nor irreducible -- the canonical factorization is "
            "(x+1)^3 (x+2)^3"
        )
    human = [f"{payload['modulus']} = {display}"] + [f"note: {n}" for n in notes]
    return CommandResult("flag" if notes else "ok", payload, notes, human)


# -- code --------------------------------------------------------------------


def cmd_code(args) -> CommandResult:
    code = _build_rcode(args)
    if args.action == "build":
        payload = _render_rcode(code)
        return CommandResult("ok", payload, [], _rcode_lines(payload))
    if args.action == "dual":
        dual = code.dual()
        payload = _render_rcode(dual)
        payload["combined_generator"] = (
            format_ring_poly(dual.combined_generator())
            if not dual.is_zero
            else "0"
        )
        lines = _rcode_lines(payload)
        lines.append(f"combined generator = {payload['combined_generator']}")
        return CommandResult("ok", payload, [], lines)
    if args.action == "gray":
        rows = ["".join(str(int(x)) for x in row) for row in code.gray_image()]
        payload = {"n": code.n, "rows": rows}
        return CommandResult("ok", payload, [], rows or ["(zero code)"])
    if args.action == "distance":
        payload = {
            "d_lee": None if code.is_zero else code.lee_distance(),
            "components": [
                None if c.k == 0 else c.min_distance() for c in code.components
            ],
        }
        return CommandResult(
            "ok",
            payload,
            [],
            [f"d_lee = {payload['d_lee']} components = {payload['components']}"],
        )
    # check-dc
    failing = code.failing_dual_components()
    payload = {"dual_containing": not failing, "failing": list(failing)}
    text = (
        "dual-containing"
        if not failing
        else "NOT dual-containing; failing components: "
        + ", ".join(str(i) for i in failing)
    )
    return CommandResult("ok", payload, [], [text])


# -- constacyclic ------------------------------------------------------------


def cmd_constacyclic(args) -> CommandResult:
    lam = args.lam
    if args.action == "classify":
        kinds = classify_constacyclic(lam)
        payload = {"lam": str(lam), "components": list(kinds)}
        return CommandResult(
            "ok", payload, [], [f"lam={lam}: " + ", ".join(kinds)]
        )
    source = RCode.cyclic(args.n, (args.f1, args.f2, args.f3))
    target = constacyclic_transport(source, lam)
    payload = {
        "lam": str(lam),
        "source": _render_rcode(source),
        "target": _render_rcode(target),
    }
    lines = (
        ["source:"]
        + ["  " + s for s in _rcode_lines(payload["source"])]
        + [f"target (lam={lam}):"]
        + ["  " + s for s in _rcode_lines(payload["target"])]
    )
    return CommandResult("ok", payload, [], lines)


# -- skew --------------------------------------------------------------------


def cmd_skew(args) -> CommandResult:
    if args.action == "count":
        count = count_skew_cyclic(args.n)
        payload = {"n": args.n, "count": count}
        return CommandResult("ok", payload, [], [f"count({args.n}) = {count}"])
    if args.action == "divisors":
        divs = [str(d) for d in monic_right_divisors(args.s, args.lam)]
        payload = {
            "s": args.s,
            "lam": str(args.lam),
            "count": len(divs),
            "divisors": divs,
        }
        return CommandResult(
            "ok", payload, [], [f"{len(divs)} monic right divisors:"] + divs
        )
    if args.action == "gcld":
        g = gcld(args.polys, args.s, args.lam)
        payload = {"s": args.s, "lam": str(args.lam), "gcld": str(g)}
        return CommandResult("ok", payload, [], [f"gcld = {g}"])
    # code
    code = skew_cyclic_code(args.f, args.n)
    payload = {
        "n": args.n,
        "f": str(code.f),
        "rank": code.rank,
        "gray_dimension": code.gray_dimension,
    }
    return CommandResult(
        "ok",
        payload,
        [],
        [f"f = {code.f}  rank = {code.rank}  gray dimension = {code.gray_dimension}"],
    )


# -- quantum -----------------------------------------------------------------


def _quantum_row(code: RCode, params) -> dict:
    return {
        "n": code.n,
        "sign": _sign_name(code.sign),
        "f": [str(c.g) for c in code.components],
        "k": list(code.dims),
        "N": params.N,
        "K": params.K,
        "d": params.d,
        "dual_containing": True,
        "flags": [],
    }


def cmd_quantum(args) -> CommandResult:
    if args.action == "params":
        code = _build_rcode(args)
        params = css_params(code, check=True)
        payload = _quantum_row(code, params)
        return CommandResult(
            "ok", payload, [], [f"{params}  f = ({', '.join(payload['f'])})"]
        )
    if args.action == "scan":
        sign = _sign(args.sign)
        rows = scan_dual_containing(args.n, sign)
        if args.limit is not None:
            rows = rows[: args.limit]
        payload = {
            "n": args.n,
            "sign": _sign_name(sign),
            "rows": [
                {
                    "f": [str(f) for f in (a, b, c)],
                    "N": p.N,
                    "K": p.K,
                    "d": p.d,
                }
                for a, b, c, p in rows
            ],
        }
        lines = [
            f"[[{r['N']},{r['K']},{r['d']}]]  f = ({', '.join(r['f'])})"
            for r in payload["rows"]
        ]
        return CommandResult("ok", payload, [], lines or ["(no rows)"])
    # verify-paper
    report = verify_reference_table()
    payload = []
    lines = []
    notes = []
    status = "ok"
    for row in report:
        payload.append(
            {
                "label": row.label,
                "n": row.n,
                "sign": _sign_name(row.sign),
                "f": list(row.generators),
                "expected": list(row.expected) if row.expected else None,
                "derived": list(row.params.as_tuple()) if row.params else None,
                "status": row.status,
                "flag": row.flag_id,
                "notes": list(row.notes),
            }
        )
        mark = row.status
        detail = str(row.params) if row.params else (row.notes[0] if row.notes else "")
        lines.append(f"{mark:4s} {row.label:24s} {detail}")
        if row.status == "flag":
            notes.extend(row.notes)
            status = "flag"
        elif row.status != "ok":
            status = "error"
    ok = sum(1 for row in report if row.status == "ok")
    flagged = sum(1 for row in report if row.status == "flag")
    lines.append(f"{ok} constructions reproduced, {flagged} flagged (expected)")
    return CommandResult(status, payload, notes, lines)


# -- selftest ----------------------------------------------------------------


def _diagram_suites(rng, trials):
    """Commuting-diagram property suites at reduced trial counts; each
    returns the number of failures."""

    def rand_vec(n):
        return tuple(rng.choice(ELEMENTS) for _ in range(n))

    def gray_isometry():
        bad = 0
        for _ in range(trials):
            v = rand_vec(rng.randrange(1, 17))
            lee = sum(e.lee_weight() for e in v)
            bad += lee != int(np.count_nonzero(gray_vector(v)))
        return bad

    def cyclic_diagram():
        bad = 0
        for _ in range(trials):
            v = rand_vec(rng.randrange(1, 17))
            bad += not np.array_equal(
                gray_vector(cyclic_shift(v)),
                gray_shift(len(v))(gray_vector(v)),
            )
        return bad

    def section_diagram():
        bad = 0
        for _ in range(trials):
            s = rng.randrange(1, 5)
            l = rng.randrange(1, 5)
            v = rand_vec(s * l)
            bad += not np.array_equal(
                gray_vector(section_shift(v, s, l)),
                gray_shift(s * l, l=l)(gray_vector(v)),
            )
        return bad

    def twisted_diagram():
        bad = 0
        for _ in range(trials):
            v = rand_vec(rng.randrange(1, 17))
            bad += not np.array_equal(
                gray_vector(skew_cyclic_shift(v)),
                gray_shift(len(v), twist=True)(gray_vector(v)),
            )
        return bad

    def constacyclic_diagram():
        units = [e for e in ELEMENTS if e.is_unit()]
        bad = 0
        for _ in range(trials):
            lam = rng.choice(units)
            v = rand_vec(rng.randrange(1, 17))
            bad += not np.array_equal(
                gray_vector(constacyclic_shift(v, lam)),
                gray_shift(len(v), lam)(gray_vector(v)),
            )
        return bad

    return [
        ("gray-isometry", gray_isometry),
        ("cyclic-diagram", cyclic_diagram),
        ("section-diagram", section_diagram),
        ("twisted-diagram", twisted_diagram),
        ("constacyclic-diagram", constacyclic_diagram),
    ]


def cmd_selftest(args) -> CommandResult:
    rng = random.Random(args.seed)
    items = []

    # frozen reference constructions
    for row in verify_reference_table():
        detail = str(row.params) if row.params else (row.notes[0] if row.notes else "")
        items.append(
            {
                "name": f"quantum {row.label}",
                "status": row.status,
                "flag": row.flag_id,
                "detail": detail,
            }
        )

    # cardinality reference codes
    length3 = decompose_generator(
        [parse_element(t) for t in ("1", "1+2v+2v^2", "2v+2v^2")],
        3,
        ModulusSign.MINUS,
    )
    items.append(
        {
            "name": "cardinality-length-3",
            "status": "ok" if length3.cardinality_log3 == 5 else "fail",
            "flag": None,
            "detail": f"|C| = 3^{length3.cardinality_log3}",
        }
    )
    length10 = decompose_generator(
        [parse_element(t) for t in ("1", "2v", "1+2v^2", "v", "v^2")],
        10,
        ModulusSign.MINUS,
    )
    dual_str = format_ring_poly(length10.dual().combined_generator())
    ok10 = length10.cardinality_log3 == 20 and dual_str == (
        "(1+2v^2)x^8+(2+2v^2)x^6+vx^5+x^4+(2+2v^2)x^2+2vx+1"
    )
    items.append(
        {
            "name": "cardinality-length-10",
            "status": "ok" if ok10 else "fail",
            "flag": None,
            "detail": f"|C| = 3^{length10.cardinality_log3}, dual generator {dual_str}",
        }
    )

    # commuting diagrams at reduced trial counts
    for name, suite in _diagram_suites(rng, trials=200):
        bad = suite()
        items.append(
            {
                "name": name,
                "status": "ok" if bad == 0 else "fail",
                "flag": None,
                "detail": f"{bad} failures in 200 trials",
            }
        )

    # documented discrepancies
    items.append(
        {
            "name": "factor-display-n6",
            "status": "flag",
            "flag": "factor-display-n6",
            "detail": (
                "canonical factorization of x^6-1 is (x+1)^3 (x+2)^3; a "
                "published three-quadratic display does not multiply back "
                "to x^6-1"
            ),
        }
    )
    items.append(
        {
            "name": "skew-count-n12",
            "status": "flag",
            "flag": "skew-count-n12",
            "detail": (
                "the count formula needs odd length and the canonical "
                f"factorization; on n=12 it gives {skew_count_formula(12)} "
                "(= 4^9), whereas a published count built on a coarser, "
                "non-irreducible factorization gives 4^6"
            ),
        }
    )
    items.append(
        {
            "name": "quantum-logical-exponent",
            "status": "flag",
            "flag": "quantum-logical-exponent",
            "detail": (
                "logical dimension exponent implemented as "
                "2(k1+k2+k3)-3n, which reproduces every reference row; "
                "a published formula weights the components 3:2:1"
            ),
        }
    )

    failures = [i for i in items if i["status"] == "fail"]
    unexpected = [
        i
        for i in items
        if i["status"] == "flag" and i["flag"] not in SELFTEST_EXPECTED_FLAGS
    ]
    status = "error" if failures or unexpected else (
        "flag" if any(i["status"] == "flag" for i in items) else "ok"
    )
    lines = [
        f"{i['status']:4s} {i['name']:28s} {i['detail']}" for i in items
    ]
    ok_count = sum(1 for i in items if i["status"] == "ok")
    flag_count = sum(1 for i in items if i["status"] == "flag")
    lines.append(
        f"{ok_count} checks passed, {flag_count} expected flags, "
        f"{len(failures)} failures"
    )
    notes = [i["detail"] for i in items if i["status"] == "flag"]
    return CommandResult(status, items, notes, lines)


# -- parser / driver ---------------------------------------------------------


def _int_at_least(text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
    return value


def positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _parsed(parse):
    """An argparse type that reports malformed text as a usage error."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(f"{text!r}: {err}") from None

    return convert


ring_element = _parsed(parse_element)
ternary_poly = _parsed(parse_poly)
skew_poly = _parsed(parse_skew_poly)


def _add_generator_args(p):
    for name in ("--f1", "--f2", "--f3"):
        p.add_argument(name, type=ternary_poly, required=True)


def _add_code_args(p):
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--sign", choices=("pos", "neg"), required=True)
    _add_generator_args(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ternring",
        description="Coding workbench over the 27-element ring "
        "Z3 + vZ3 + v^2Z3 with v^3 = v.",
    )
    parser.add_argument("--json", action="store_true", help="machine output")
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for randomized property trials"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="canonical factorization of x^n -+ 1")
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("--sign", choices=("pos", "neg"), required=True)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("code", help="ring codes from component generators")
    psub = p.add_subparsers(dest="action", required=True)
    for action in ("build", "dual", "gray", "distance", "check-dc"):
        pp = psub.add_parser(action)
        _add_code_args(pp)
        pp.set_defaults(func=cmd_code, action=action)

    p = sub.add_parser("constacyclic", help="unit-multiplier shift structure")
    psub = p.add_subparsers(dest="action", required=True)
    pp = psub.add_parser("transport")
    pp.add_argument("--n", type=positive_int, required=True)
    pp.add_argument("--lambda", dest="lam", type=ring_element, required=True)
    _add_generator_args(pp)
    pp.set_defaults(func=cmd_constacyclic, action="transport")
    pp = psub.add_parser("classify")
    pp.add_argument("--lambda", dest="lam", type=ring_element, required=True)
    pp.set_defaults(func=cmd_constacyclic, action="classify")

    p = sub.add_parser("skew", help="twisted polynomial codes")
    psub = p.add_subparsers(dest="action", required=True)
    pp = psub.add_parser("count")
    pp.add_argument("--n", type=positive_int, required=True)
    pp.set_defaults(func=cmd_skew, action="count")
    pp = psub.add_parser("divisors")
    pp.add_argument("--s", type=positive_int, required=True)
    pp.add_argument("--lambda", dest="lam", type=ring_element, required=True)
    pp.set_defaults(func=cmd_skew, action="divisors")
    pp = psub.add_parser("gcld")
    pp.add_argument("--s", type=positive_int, required=True)
    pp.add_argument("--lambda", dest="lam", type=ring_element, required=True)
    pp.add_argument("polys", type=skew_poly, nargs="+")
    pp.set_defaults(func=cmd_skew, action="gcld")
    pp = psub.add_parser("code")
    pp.add_argument("--n", type=positive_int, required=True)
    pp.add_argument("--f", type=skew_poly, required=True)
    pp.set_defaults(func=cmd_skew, action="code")

    p = sub.add_parser("quantum", help="CSS construction over the Gray image")
    psub = p.add_subparsers(dest="action", required=True)
    pp = psub.add_parser("params")
    _add_code_args(pp)
    pp.set_defaults(func=cmd_quantum, action="params")
    pp = psub.add_parser("scan")
    pp.add_argument("--n", type=positive_int, required=True)
    pp.add_argument("--sign", choices=("pos", "neg"), required=True)
    pp.add_argument("--limit", type=non_negative_int, default=None)
    pp.set_defaults(func=cmd_quantum, action="scan")
    pp = psub.add_parser("verify-paper")
    pp.set_defaults(func=cmd_quantum, action="verify-paper")

    p = sub.add_parser("selftest", help="rebuild the reference constructions")
    psub = p.add_subparsers(dest="action", required=True)
    pp = psub.add_parser("paper")
    pp.set_defaults(func=cmd_selftest, action="paper")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
    except TernringError as err:
        if args.json:
            print(
                json.dumps(
                    {
                        "status": "error",
                        "error": type(err).__name__,
                        "detail": str(err),
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    if args.json:
        print(
            json.dumps(
                {
                    "status": result.status,
                    "payload": result.payload,
                    "notes": result.notes,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for line in result.human:
            print(line)
    return 0 if result.status in ("ok", "flag") else 1


if __name__ == "__main__":
    sys.exit(main())
