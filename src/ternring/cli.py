"""Command line front end for the workbench.

Subcommands expose factorization, ring-code construction and duals,
Gray images, distances, dual-containment checks, constacyclic
transport and classification, twisted (skew) code utilities, CSS
parameter derivation with exhaustive scans, and a self-test that
rebuilds the frozen reference constructions.

The parser is built from two tables.  ``ARGUMENTS`` declares every
command argument once, and ``COMMANDS`` maps each leaf command (a
top-level command, or a command and its action) to its handler and the
arguments it takes, in order; ``main`` builds the parser once per
process.  Each handler returns a ``CommandResult``; ``main`` renders it.

Output is deterministic: identical invocations produce byte-identical
stdout.  JSON (``--json``) is the machine format; the default text
rendering is a derived view.  Exit codes: 0 for success (including
documented expected flags), 1 for domain errors, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from collections.abc import Iterable

from ._record import Record
from .errors import TernringError
from .poly import ModulusSign, factor, modulus, parse_poly
from .quantum import (
    EXPECTED_FLAGS,
    collector_paused,
    css_params,
    scan_dual_containing,
    verify_reference_table,
)
from .rcodes import (
    RCode,
    _gray_masks,
    classify_constacyclic,
    constacyclic_shift,
    constacyclic_transport,
    cyclic_shift,
    decompose_generator,
    gray_shift,
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

# Known discrepancies with published displays, raised by every clean
# self-test as expected flags so that regressions stand out.  The
# skew-count detail is completed with the formula's value on n = 12.
DOCUMENTED_FLAGS = {
    "factor-display-n6": (
        "canonical factorization of x^6-1 is (x+1)^3 (x+2)^3; a "
        "published three-quadratic display does not multiply back "
        "to x^6-1"
    ),
    "skew-count-n12": (
        "the count formula needs odd length and the canonical "
        "factorization; on n=12 it gives {count} "
        "(= 4^9), whereas a published count built on a coarser, "
        "non-irreducible factorization gives 4^6"
    ),
    "quantum-logical-exponent": (
        "logical dimension exponent implemented as "
        "2(k1+k2+k3)-3n, which reproduces every reference row; "
        "a published formula weights the components 3:2:1"
    ),
}

# Flags that a clean self-test is allowed to raise; the quantum
# reference table names its own.
SELFTEST_EXPECTED_FLAGS = (*DOCUMENTED_FLAGS, *EXPECTED_FLAGS)

# Trials per randomized property suite in the self-test.
SELFTEST_TRIALS = 200


class CommandResult(Record):
    """Outcome of one command: a JSON-ready payload, its text lines,
    the status ok / flag / error, and human-readable discrepancy notes
    (nonempty exactly when the status is flag)."""

    __slots__ = ("payload", "human", "status", "notes")

    def __init__(
        self,
        payload: object,
        human: Iterable[str],
        status: str = "ok",
        notes: list[str] | None = None,
    ):
        self._set(payload=payload, human=human, status=status, notes=notes or [])


def _status(statuses) -> str:
    """Overall status of itemized checks: error if any failed, else
    flag if any was flagged, else ok."""
    statuses = set(statuses)
    return "error" if "fail" in statuses else "flag" if "flag" in statuses else "ok"


def _sign(text: str) -> ModulusSign:
    return ModulusSign.PLUS if text == "pos" else ModulusSign.MINUS


def _sign_name(sign: ModulusSign) -> str:
    return "pos" if sign is ModulusSign.PLUS else "neg"


def _generators(args) -> tuple:
    return (args.f1, args.f2, args.f3)


def _rcode(args) -> RCode:
    return RCode.from_sign(args.n, _sign(args.sign), _generators(args))


def _lee_distance(code: RCode) -> int | None:
    return None if code.is_zero else code.lee_distance()


def _render_rcode(code: RCode) -> dict:
    return {
        "n": code.n,
        "kind": code.kind,
        "lam": str(code.lam),
        "f": [str(c.g) for c in code.components],
        "k": list(code.dims),
        "cardinality_log3": code.cardinality_log3,
        "d_lee": _lee_distance(code),
    }


def _rcode_lines(payload: dict) -> list[str]:
    return [
        f"n={payload['n']} kind={payload['kind']} lam={payload['lam']}",
        "f = (" + ", ".join(payload["f"]) + ")",
        f"k = {tuple(payload['k'])}  |C| = 3^{payload['cardinality_log3']}"
        f"  d_lee = {payload['d_lee']}",
    ]


def _row_detail(row) -> str:
    """Text detail of a reference row: its parameters, else its first note."""
    return str(row.params) if row.params else (row.notes[0] if row.notes else "")


# -- factor ------------------------------------------------------------------


def cmd_factor(args) -> CommandResult:
    m = modulus(args.n, _sign(args.sign))
    fac = factor(m)
    display = str(fac)
    payload = {
        "n": args.n,
        "sign": args.sign,
        "modulus": str(m),
        "factors": [[str(p), e] for p, e in fac.factors],
        "display": display,
    }
    notes = []
    if (args.n, args.sign) == (6, "pos"):
        notes.append(
            "a published display factors x^6-1 into three quadratics "
            "(2x^2+2)(x^2+2)(2x^2+1); that product equals "
            "x^6+2x^4+2x^2+1, not x^6-1, and the factors are neither "
            "monic nor irreducible -- the canonical factorization is "
            "(x+1)^3 (x+2)^3"
        )
    human = [f"{payload['modulus']} = {display}"] + [f"note: {n}" for n in notes]
    return CommandResult(payload, human, "flag" if notes else "ok", notes)


# -- code --------------------------------------------------------------------


def cmd_code_build(args) -> CommandResult:
    payload = _render_rcode(_rcode(args))
    return CommandResult(payload, _rcode_lines(payload))


def cmd_code_dual(args) -> CommandResult:
    dual = _rcode(args).dual()
    payload = _render_rcode(dual)
    payload["combined_generator"] = (
        "0" if dual.is_zero else format_ring_poly(dual.combined_generator())
    )
    lines = _rcode_lines(payload)
    lines.append(f"combined generator = {payload['combined_generator']}")
    return CommandResult(payload, lines)


def cmd_code_gray(args) -> CommandResult:
    code = _rcode(args)
    # the entries 0, 1, 2 as the digits' character codes
    text = (code.gray_image() + ord("0")).tobytes().decode()
    width = 3 * code.n
    rows = [text[i : i + width] for i in range(0, len(text), width)]
    return CommandResult({"n": code.n, "rows": rows}, rows or ["(zero code)"])


def cmd_code_distance(args) -> CommandResult:
    code = _rcode(args)
    payload = {
        "d_lee": _lee_distance(code),
        "components": [
            None if c.k == 0 else c.min_distance() for c in code.components
        ],
    }
    return CommandResult(
        payload, [f"d_lee = {payload['d_lee']} components = {payload['components']}"]
    )


def cmd_code_check_dc(args) -> CommandResult:
    failing = _rcode(args).failing_dual_components()
    payload = {"dual_containing": not failing, "failing": list(failing)}
    text = (
        "dual-containing"
        if not failing
        else "NOT dual-containing; failing components: "
        + ", ".join(str(i) for i in failing)
    )
    return CommandResult(payload, [text])


# -- constacyclic ------------------------------------------------------------


def cmd_constacyclic_transport(args) -> CommandResult:
    source = RCode.cyclic(args.n, _generators(args))
    target = constacyclic_transport(source, args.lam)
    payload = {
        "lam": str(args.lam),
        "source": _render_rcode(source),
        "target": _render_rcode(target),
    }
    lines = (
        ["source:"]
        + ["  " + s for s in _rcode_lines(payload["source"])]
        + [f"target (lam={args.lam}):"]
        + ["  " + s for s in _rcode_lines(payload["target"])]
    )
    return CommandResult(payload, lines)


def cmd_constacyclic_classify(args) -> CommandResult:
    kinds = classify_constacyclic(args.lam)
    payload = {"lam": str(args.lam), "components": list(kinds)}
    return CommandResult(payload, [f"lam={args.lam}: " + ", ".join(kinds)])


# -- skew --------------------------------------------------------------------


def cmd_skew_count(args) -> CommandResult:
    count = count_skew_cyclic(args.n)
    return CommandResult(
        {"n": args.n, "count": count}, [f"count({args.n}) = {count}"]
    )


def cmd_skew_divisors(args) -> CommandResult:
    divs = [str(d) for d in monic_right_divisors(args.s, args.lam)]
    payload = {
        "s": args.s,
        "lam": str(args.lam),
        "count": len(divs),
        "divisors": divs,
    }
    return CommandResult(payload, [f"{len(divs)} monic right divisors:"] + divs)


def cmd_skew_gcld(args) -> CommandResult:
    g = gcld(args.polys, args.s, args.lam)
    payload = {"s": args.s, "lam": str(args.lam), "gcld": str(g)}
    return CommandResult(payload, [f"gcld = {g}"])


def cmd_skew_code(args) -> CommandResult:
    code = skew_cyclic_code(args.f, args.n)
    payload = {
        "n": args.n,
        "f": str(code.f),
        "rank": code.rank,
        "gray_dimension": code.gray_dimension,
    }
    return CommandResult(
        payload,
        [f"f = {code.f}  rank = {code.rank}  gray dimension = {code.gray_dimension}"],
    )


# -- quantum -----------------------------------------------------------------


def cmd_quantum_params(args) -> CommandResult:
    code = _rcode(args)
    params = css_params(code, check=True)
    payload = {
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
    return CommandResult(payload, [f"{params}  f = ({', '.join(payload['f'])})"])


def cmd_quantum_scan(args) -> CommandResult:
    rows = scan_dual_containing(args.n, _sign(args.sign))[: args.limit]
    # a scan names a few hundred generators in up to millions of rows
    name = functools.cache(str)
    # the row dicts form no cycles; see scan_dual_containing
    with collector_paused():
        payload = {
            "n": args.n,
            "sign": args.sign,
            "rows": [
                {"f": [name(a), name(b), name(c)], "N": p.N, "K": p.K, "d": p.d}
                for a, b, c, p in rows
            ],
        }
    lines = (
        f"[[{r['N']},{r['K']},{r['d']}]]  f = ({', '.join(r['f'])})"
        for r in payload["rows"]
    )
    return CommandResult(payload, lines if rows else ["(no rows)"])


def cmd_quantum_verify_paper(args) -> CommandResult:
    report = verify_reference_table()
    payload = [
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
        for row in report
    ]
    lines = [f"{row.status:4s} {row.label:24s} {_row_detail(row)}" for row in report]
    statuses = [row.status for row in report]
    lines.append(
        f"{statuses.count('ok')} constructions reproduced, "
        f"{statuses.count('flag')} flagged (expected)"
    )
    notes = [note for row in report if row.status == "flag" for note in row.notes]
    return CommandResult(payload, lines, _status(statuses), notes)


# -- selftest ----------------------------------------------------------------


def _property_failures(rng, trials):
    """Yield (suite name, failures) for the randomized property suites:
    the Gray map is a Lee-to-Hamming isometry, and for each shift family
    gray(shift(v)) equals the Gray-side shift of gray(v).  Gray images
    are read as bit-sliced masks and shifted by the maps' ``on_masks``."""

    def vector(n):
        return tuple(rng.choice(ELEMENTS) for _ in range(n))

    bad = 0
    for _ in range(trials):
        v = vector(rng.randrange(1, 17))
        ones, twos = _gray_masks(v)
        bad += sum(e.lee_weight() for e in v) != (ones | twos).bit_count()
    yield "gray-isometry", bad

    # each draw returns (v, its ring-side shift, the Gray-side map)
    def cyclic():
        v = vector(rng.randrange(1, 17))
        return v, cyclic_shift(v), gray_shift(len(v))

    def section():
        s, l = rng.randrange(1, 5), rng.randrange(1, 5)
        v = vector(s * l)
        return v, section_shift(v, s, l), gray_shift(s * l, l=l)

    def twisted():
        v = vector(rng.randrange(1, 17))
        return v, skew_cyclic_shift(v), gray_shift(len(v), twist=True)

    units = [e for e in ELEMENTS if e.is_unit()]

    def constacyclic():
        lam = rng.choice(units)
        v = vector(rng.randrange(1, 17))
        return v, constacyclic_shift(v, lam), gray_shift(len(v), lam)

    for name, draw in (
        ("cyclic-diagram", cyclic),
        ("section-diagram", section),
        ("twisted-diagram", twisted),
        ("constacyclic-diagram", constacyclic),
    ):
        bad = 0
        for _ in range(trials):
            v, shifted, gray_map = draw()
            ones, twos = _gray_masks(v)
            (image1,), (image2,) = gray_map.on_masks([ones], [twos])
            bad += (image1, image2) != _gray_masks(shifted)
        yield name, bad


def _item(name: str, status: str, detail: str, flag: str | None = None) -> dict:
    return {"name": name, "status": status, "flag": flag, "detail": detail}


def cmd_selftest_paper(args) -> CommandResult:
    # frozen reference constructions
    items = [
        _item(f"quantum {row.label}", row.status, _row_detail(row), row.flag_id)
        for row in verify_reference_table()
    ]

    # cardinality reference codes
    length3 = decompose_generator(
        [parse_element(t) for t in ("1", "1+2v+2v^2", "2v+2v^2")],
        3,
        ModulusSign.MINUS,
    )
    items.append(
        _item(
            "cardinality-length-3",
            "ok" if length3.cardinality_log3 == 5 else "fail",
            f"|C| = 3^{length3.cardinality_log3}",
        )
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
        _item(
            "cardinality-length-10",
            "ok" if ok10 else "fail",
            f"|C| = 3^{length10.cardinality_log3}, dual generator {dual_str}",
        )
    )

    # commuting diagrams at reduced trial counts
    for name, bad in _property_failures(random.Random(args.seed), SELFTEST_TRIALS):
        items.append(
            _item(
                name,
                "ok" if bad == 0 else "fail",
                f"{bad} failures in {SELFTEST_TRIALS} trials",
            )
        )

    # documented discrepancies
    count12 = skew_count_formula(12)
    for flag, detail in DOCUMENTED_FLAGS.items():
        items.append(_item(flag, "flag", detail.format(count=count12), flag))

    statuses = [i["status"] for i in items]
    unexpected = any(
        i["status"] == "flag" and i["flag"] not in SELFTEST_EXPECTED_FLAGS
        for i in items
    )
    lines = [f"{i['status']:4s} {i['name']:28s} {i['detail']}" for i in items]
    lines.append(
        f"{statuses.count('ok')} checks passed, {statuses.count('flag')} "
        f"expected flags, {statuses.count('fail')} failures"
    )
    notes = [i["detail"] for i in items if i["status"] == "flag"]
    status = "error" if unexpected else _status(statuses)
    return CommandResult(items, lines, status, notes)


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

# Every command argument, declared once.
ARGUMENTS = {
    "--n": {"type": positive_int, "required": True},
    "--s": {"type": positive_int, "required": True},
    "--sign": {"choices": ("pos", "neg"), "required": True},
    "--lambda": {"dest": "lam", "type": ring_element, "required": True},
    "--f1": {"type": ternary_poly, "required": True},
    "--f2": {"type": ternary_poly, "required": True},
    "--f3": {"type": ternary_poly, "required": True},
    "--f": {"type": skew_poly, "required": True},
    "--limit": {"type": non_negative_int, "default": None},
    "polys": {"type": skew_poly, "nargs": "+"},
}

GENERATORS = ("--f1", "--f2", "--f3")
CODE = ("--n", "--sign", *GENERATORS)

GROUP_HELP = {
    "factor": "canonical factorization of x^n -+ 1",
    "code": "ring codes from component generators",
    "constacyclic": "unit-multiplier shift structure",
    "skew": "twisted polynomial codes",
    "quantum": "CSS construction over the Gray image",
    "selftest": "rebuild the reference constructions",
}

# Leaf command -> (handler, its arguments in order).  The order of the
# entries is the order of the choices in usage and help text.
COMMANDS = {
    ("factor",): (cmd_factor, ("--n", "--sign")),
    ("code", "build"): (cmd_code_build, CODE),
    ("code", "dual"): (cmd_code_dual, CODE),
    ("code", "gray"): (cmd_code_gray, CODE),
    ("code", "distance"): (cmd_code_distance, CODE),
    ("code", "check-dc"): (cmd_code_check_dc, CODE),
    ("constacyclic", "transport"): (
        cmd_constacyclic_transport,
        ("--n", "--lambda", *GENERATORS),
    ),
    ("constacyclic", "classify"): (cmd_constacyclic_classify, ("--lambda",)),
    ("skew", "count"): (cmd_skew_count, ("--n",)),
    ("skew", "divisors"): (cmd_skew_divisors, ("--s", "--lambda")),
    ("skew", "gcld"): (cmd_skew_gcld, ("--s", "--lambda", "polys")),
    ("skew", "code"): (cmd_skew_code, ("--n", "--f")),
    ("quantum", "params"): (cmd_quantum_params, CODE),
    ("quantum", "scan"): (cmd_quantum_scan, ("--n", "--sign", "--limit")),
    ("quantum", "verify-paper"): (cmd_quantum_verify_paper, ()),
    ("selftest", "paper"): (cmd_selftest_paper, ()),
}


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
    groups = {}
    for (group, *action), (func, names) in COMMANDS.items():
        if group not in groups:
            groups[group] = sub.add_parser(group, help=GROUP_HELP[group])
            if action:
                groups[group] = groups[group].add_subparsers(
                    dest="action", required=True
                )
        leaf = groups[group].add_parser(action[0]) if action else groups[group]
        for name in names:
            leaf.add_argument(name, **ARGUMENTS[name])
        leaf.set_defaults(func=func)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call: a parser holds no
    state between parses, and its help and errors are formatted and
    written when they are printed."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        result = args.func(args)
    except TernringError as err:
        name = type(err).__name__
        doc = {"status": "error", "error": name, "detail": str(err)}
        lines, stream, code = [f"error: {name}: {err}"], sys.stderr, 1
    else:
        doc = {
            "status": result.status,
            "payload": result.payload,
            "notes": result.notes,
        }
        lines, stream = result.human, sys.stdout
        code = 0 if result.status in ("ok", "flag") else 1
    if args.json:
        # json.dumps would hold every chunk of a large scan at once
        sys.stdout.writelines(json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc))
        print()
    else:
        for line in lines:
            print(line, file=stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
