"""Seeded inputs, operations and output checks of each workload.

A job is a generator of operations.  The worker runs them in a closed
loop: it starts an operation only after the previous one returned, and
stores each result on its operation, so a later operation can build on
an earlier result (the skew job derives its code inputs from the
divisors it computed).  Checks run after the timed phase and rest on
invariants, not on byte equality with the output of one version.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import itertools
import json
import random
import signal
import subprocess
import time

import oracle

SCAN_CASES = {
    "qscan": tuple((n, plus) for n in range(9, 17) for plus in (True, False)),
    # One scan of about 20 s that builds about 270,000 code objects.  It
    # is a workload of its own so that qscan can repeat its 16 shorter
    # scans several times in a run: a single pass of all 17 gave one
    # sample of each scan, and the median scan time then moved with the
    # machine's speed at one instant.
    "qscan24": ((24, True),),
}
# The skew job stops at s = 6: the 9^d tail grid of monic_right_divisors
# peaks at 326 MB there, s = 7 took 12.7 s and 3.0 GB, and s = 8 ran out
# of memory at 7.9 GB on an 8 GB machine.
SKEW_DIVISOR_S = (2, 4, 5, 6)
SKEW_CODE_N = (1, 2, 3, 4, 5, 6)
SKEW_SQC_SHAPES = ((2, 1), (2, 2), (4, 1), (4, 2), (6, 1))
SKEW_SQC_PER_UNIT = 25
CLI_ROUNDS = 4
CLI_MALFORMED = (
    ("factor", "--n", "0", "--sign", "pos"),
    ("quantum", "scan", "--n", "-1", "--sign", "neg"),
)
CLI_TIMEOUT_S = 120


class Op:
    """One operation: ``run`` returns the output, ``check`` returns an
    error message or None, ``digest`` a short canonical hash of the
    output.  A probe of the input contract has ``contract`` set: its
    outcome is reported on its own, not as a failed operation."""

    __slots__ = ("label", "run", "check", "digest", "contract", "result", "latency")

    def __init__(self, label, run, check, digest, contract=False):
        self.label = label
        self.run = run
        self.check = check
        self.digest = digest
        self.contract = contract
        self.result = None
        self.latency = None


def short_hash(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _sign(plus: bool) -> str:
    return "pos" if plus else "neg"


# -- qscan, qscan24 ---------------------------------------------------------


def scan_inputs(workload: str, seed: int) -> list[tuple[int, bool]]:
    """Every (n, sign) of the workload's sweep once, in a seeded order."""
    cases = list(SCAN_CASES[workload])
    random.Random(seed).shuffle(cases)
    return cases


def scan_warm_up(tr) -> None:
    # Lengths disjoint from the timed ones, so no cached distance is
    # reused by the timed phase.
    for n in (5, 6):
        for sign in (tr.ModulusSign.PLUS, tr.ModulusSign.MINUS):
            tr.scan_dual_containing(n, sign)


def _scan_rows(rows):
    return [
        (f1.coeffs, f2.coeffs, f3.coeffs, p.N, p.K, p.d) for f1, f2, f3, p in rows
    ]


def _check_scan(tr, n: int, plus: bool, rows) -> str | None:
    sign = tr.ModulusSign.PLUS if plus else tr.ModulusSign.MINUS
    table = _scan_rows(rows)
    for f1, f2, f3, N, K, d in table:
        ks = [n - (len(f) - 1) for f in (f1, f2, f3)]
        if N != 3 * n or K != 2 * sum(ks) - 3 * n or d < 1:
            return f"row {f1, f2, f3} has [[{N},{K},{d}]]"
    keys = [(-K, -d, tuple(str(f) for f in row[:3])) for row, (*_, K, d) in zip(rows, table)]
    if keys != sorted(keys):
        return "rows are not sorted by K, d, generators"
    eligible = [
        g
        for g in oracle.divisors(oracle.sympy_factors(n, plus))
        if tr.TernaryPolyCode(n, sign, tr.Z3Poly(g)).contains_dual_by_subset()
    ]
    want = collections.Counter(
        tuple(sorted(t)) for t in itertools.combinations_with_replacement(eligible, 3)
    )
    got = collections.Counter(tuple(sorted(row[:3])) for row in table)
    if got != want:
        return f"{sum(got.values())} rows, expected the {sum(want.values())} eligible triples"
    return None


def scan_job(tr, cases):
    for n, plus in cases:
        sign = tr.ModulusSign.PLUS if plus else tr.ModulusSign.MINUS
        yield Op(
            f"scan n={n} {_sign(plus)}",
            lambda n=n, sign=sign: tr.scan_dual_containing(n, sign),
            lambda rows, n=n, plus=plus: _check_scan(tr, n, plus, rows),
            lambda rows: short_hash(_scan_rows(rows)),
        )


# -- skew -------------------------------------------------------------------


def skew_inputs(seed: int) -> dict:
    """Seeded order of the wrap constants (1 first: the code builds need
    its divisors) and the seed that orders and samples the operations."""
    rng = random.Random(seed)
    later = list(range(1, 8))
    rng.shuffle(later)
    return {"units": [0] + later, "order": rng.randrange(2**32)}


def skew_warm_up(tr) -> None:
    # Shapes disjoint from the timed ones: s = 3 with wrap constants
    # other than 1, and l = 3 modules built from the trivial divisors.
    for lam in tr.UNITS[1:3]:
        tr.monic_right_divisors(3, lam)
    lam = tr.UNITS[1]
    trivial = (tr.SkewPoly([tr.ONE]), tr.power_minus_constant(2, lam))
    for tup in itertools.product(trivial, repeat=3):
        tr.one_generator_sqc(tup, 2, 3, lam)


def _gray(poly, length: int):
    return [poly.coeff(i).gray for i in range(length)]


def _check_divisors(tr, s: int, lam, divs) -> str | None:
    m = tr.power_minus_constant(s, lam)
    target = oracle.power_minus(s, lam.gray)
    if list(divs) != sorted(set(divs), key=tr.SkewPoly.sort_key):
        return "divisors are not distinct and sorted"
    if tr.SkewPoly([tr.ONE]) not in divs or m not in divs:
        return "1 or x^s - lam itself is missing"
    for f in divs:
        if f.lead != tr.ONE:
            return f"{f} is not monic"
        q, r = tr.skew_right_divmod(m, f)
        if r or oracle.skew_mul(_gray(q, q.degree + 1), _gray(f, f.degree + 1)) != target:
            return f"q*({f}) != x^{s} - ({lam})"
    return None


def _projections(vector_gray, n: int):
    """Gray rows of e1*c, e2*c, e3*c for a ring vector c."""
    rows = []
    for b in range(3):
        row = [0] * (3 * n)
        for i, g in enumerate(vector_gray):
            row[b * n + i] = g[b]
        rows.append(row)
    return rows


def _check_code(n: int, f, code) -> str | None:
    basis = code.module.basis
    if not oracle.stable(basis, n, 1, (1, 1, 1)):
        return f"code of {f} is not stable under the twisted shift"
    if f.degree < n and not oracle.spans(basis, _projections(_gray(f, n), n)):
        return f"code of {f} does not contain {f}"
    return None


def _check_module(tr, s: int, l: int, lam, module) -> str | None:
    n = s * l
    basis = module.module.basis
    if not oracle.stable(basis, n, l, oracle.theta(lam.gray)):
        return "module is not stable under left multiplication by x"
    if any(module.generators):
        seed = [e.gray for e in tr.polys_to_vector(module.generators, s, l)]
        if not oracle.spans(basis, _projections(seed, n)):
            return "module does not contain its generator"
    return None


def _output(op):
    """An earlier operation's output, or nothing if it raised."""
    return () if isinstance(op.result, BaseException) else op.result


def _divisor_op(tr, s: int, lam) -> Op:
    return Op(
        f"divisors s={s} lam={lam}",
        lambda: tr.monic_right_divisors(s, lam),
        lambda divs: _check_divisors(tr, s, lam, divs),
        lambda divs: short_hash([str(f) for f in divs]),
    )


def _code_op(tr, n: int, f) -> Op:
    return Op(
        f"skew code n={n} f={f}",
        lambda: tr.skew_cyclic_code(f, n),
        lambda code: _check_code(n, f, code),
        lambda code: short_hash((code.n, str(code.f), code.module.basis.tobytes())),
    )


def _module_op(tr, tup, s: int, l: int, lam) -> Op:
    return Op(
        f"module s={s} l={l} lam={lam}",
        lambda: tr.one_generator_sqc(tup, s, l, lam),
        lambda m: _check_module(tr, s, l, lam, m),
        lambda m: short_hash((m.gray_dimension, m.module.basis.tobytes(), str(m.common_divisor))),
    )


def skew_job(tr, spec):
    """One round per wrap constant: its divisor computations, then the
    modules drawn from those divisors and an eighth of the code builds,
    so the short operations spread over the whole pass."""
    if tr.UNITS[0] != tr.ONE:
        raise RuntimeError("the code builds read unit index 0 as 1")
    rng = random.Random(spec["order"])
    codes = []
    for round_no, u in enumerate(spec["units"]):
        lam = tr.UNITS[u]
        sizes = list(SKEW_DIVISOR_S)
        if u == 0:
            sizes += [n for n in SKEW_CODE_N if n not in SKEW_DIVISOR_S]
        rng.shuffle(sizes)
        found = {}
        for s in sizes:
            op = _divisor_op(tr, s, lam)
            yield op
            found[s] = _output(op)
        if u == 0:
            codes = [_code_op(tr, n, f) for n in SKEW_CODE_N for f in found[n]]
            rng.shuffle(codes)
        short = codes[round_no :: len(spec["units"])]
        for s, l in SKEW_SQC_SHAPES:
            pool = list(itertools.product(found[s], repeat=l))
            for tup in rng.sample(pool, min(len(pool), SKEW_SQC_PER_UNIT)):
                short.append(_module_op(tr, tup, s, l, lam))
        rng.shuffle(short)
        yield from short


# -- cli ----------------------------------------------------------------------


CLI_LENGTHS = tuple(range(1, 13))
CLI_ODD_LENGTHS = (1, 3, 5, 7, 9, 11)


@functools.lru_cache(maxsize=None)
def _small_divisors(n: int, plus: bool) -> tuple[tuple[int, ...], ...]:
    return tuple(oracle.divisors(oracle.factor_small(n, plus)))


def _divisor_text(rng, n: int, plus: bool) -> str:
    return oracle.format_poly(rng.choice(_small_divisors(n, plus)))


def _unit_text(rng) -> str:
    return oracle.element_text(rng.choice(oracle.GRAY_UNITS))


def _pick(rng, values, stratum: int):
    """A seeded choice from the stratum-th of CLI_ROUNDS consecutive
    slices of values, so each pass holds every size range once per kind
    and its total work varies little between seeds."""
    lo = stratum * len(values) // CLI_ROUNDS
    hi = max((stratum + 1) * len(values) // CLI_ROUNDS, lo + 1)
    return rng.choice(values[lo:hi])


def _cli_command(kind: str, rng, stratum: int) -> tuple[str, ...]:
    n, plus = _pick(rng, CLI_LENGTHS, stratum), rng.random() < 0.5
    if kind == "factor":
        return ("factor", "--n", str(n), "--sign", _sign(plus))
    if kind.startswith("code "):
        gens = [_divisor_text(rng, n, plus) for _ in range(3)]
        return (*kind.split(), "--n", str(n), "--sign", _sign(plus),
                "--f1", gens[0], "--f2", gens[1], "--f3", gens[2])
    if kind == "constacyclic classify":
        return ("constacyclic", "classify", "--lambda", _unit_text(rng))
    if kind == "constacyclic transport":
        odd = _pick(rng, CLI_ODD_LENGTHS, stratum)
        gens = [_divisor_text(rng, odd, True) for _ in range(3)]
        return ("constacyclic", "transport", "--n", str(odd), "--lambda", _unit_text(rng),
                "--f1", gens[0], "--f2", gens[1], "--f3", gens[2])
    if kind == "skew count":
        return ("skew", "count", "--n", str(_pick(rng, CLI_ODD_LENGTHS, stratum)))
    if kind == "skew divisors":
        s = _pick(rng, (1, 2, 3, 4), stratum)
        return ("skew", "divisors", "--s", str(s), "--lambda", _unit_text(rng))
    if kind == "skew gcld":
        s = _pick(rng, (2, 4), stratum)
        polys = [
            oracle.format_poly(oracle.trim([rng.randrange(3) for _ in range(d)] + [1]))
            for d in (rng.randint(1, s), rng.randint(1, s))
        ]
        return ("skew", "gcld", "--s", str(s), "--lambda", _unit_text(rng), *polys)
    if kind == "skew code":
        m = _pick(rng, tuple(range(2, 11)), stratum)
        return ("skew", "code", "--n", str(m), "--f", _divisor_text(rng, m, True))
    if kind == "quantum params":
        # Never empty: g = 1 (the full code) always contains its dual.
        pool = [g for g in _small_divisors(n, plus) if oracle.eligible(n, plus, g)]
        gens = [oracle.format_poly(rng.choice(pool)) for _ in range(3)]
        return ("quantum", "params", "--n", str(n), "--sign", _sign(plus),
                "--f1", gens[0], "--f2", gens[1], "--f3", gens[2])
    if kind == "quantum scan":
        return ("quantum", "scan", "--n", str(n), "--sign", _sign(plus))
    return tuple(kind.split())


CLI_KINDS = (
    "factor",
    "code build",
    "code dual",
    "code distance",
    "code check-dc",
    "constacyclic classify",
    "constacyclic transport",
    "skew count",
    "skew divisors",
    "skew gcld",
    "skew code",
    "quantum params",
    "quantum scan",
    "quantum verify-paper",
    "selftest paper",
)


def cli_inputs(seed: int) -> list[tuple[str, ...]]:
    """CLI_ROUNDS seeded commands of each kind of the README list at
    small sizes, one per size range, plus the malformed inputs, in a
    seeded order."""
    rng = random.Random(seed)
    cmds = [_cli_command(kind, rng, r) for r in range(CLI_ROUNDS) for kind in CLI_KINDS]
    cmds += list(CLI_MALFORMED)
    rng.shuffle(cmds)
    return cmds


def _arg(cmd, flag):
    return cmd[cmd.index(flag) + 1]


def _generator_dims(cmd) -> list[int]:
    n = int(_arg(cmd, "--n"))
    return [n - (len(oracle.parse_poly(_arg(cmd, f))) - 1) for f in ("--f1", "--f2", "--f3")]


def _check_payload(cmd, status: str, payload) -> str | None:
    """Invariants of the JSON payload of one well-formed command."""
    kind = " ".join(cmd[:2]) if cmd[0] != "factor" else "factor"
    if kind == "factor":
        n, plus = int(_arg(cmd, "--n")), _arg(cmd, "--sign") == "pos"
        product = (1,)
        for p, e in payload["factors"]:
            f = oracle.parse_poly(p)
            if f != oracle.monic(f):
                return f"factor {p} is not monic"
            product = oracle.p_mul(product, oracle.p_pow(f, e))
        if product != oracle.modulus(n, plus):
            return "factors do not multiply to the modulus"
    elif kind in ("code build", "code dual"):
        ks = _generator_dims(cmd)
        n = int(_arg(cmd, "--n"))
        want = ks if kind == "code build" else [n - k for k in ks]
        if payload["k"] != want or payload["cardinality_log3"] != sum(want):
            return f"dimensions {payload['k']}, expected {want}"
    elif kind == "code distance":
        ks = _generator_dims(cmd)
        comps = payload["components"]
        live = [d for d, k in zip(comps, ks) if k]
        if [d is None for d in comps] != [k == 0 for k in ks] or any(d < 1 for d in live):
            return "component distances do not match the dimensions"
        if payload["d_lee"] != (min(live) if live else None):
            return "Lee distance is not the least component distance"
    elif kind == "code check-dc":
        n, plus = int(_arg(cmd, "--n")), _arg(cmd, "--sign") == "pos"
        want = all(
            oracle.eligible(n, plus, oracle.parse_poly(_arg(cmd, f))) for f in ("--f1", "--f2", "--f3")
        )
        if payload["dual_containing"] != want:
            return f"dual_containing is {payload['dual_containing']}, expected {want}"
    elif kind == "constacyclic transport":
        if payload["target"]["k"] != payload["source"]["k"]:
            return "transport changed the component dimensions"
    elif kind == "skew divisors":
        if payload["count"] != len(payload["divisors"]) or "1" not in payload["divisors"]:
            return "divisor list is inconsistent"
    elif kind == "skew code":
        n = int(_arg(cmd, "--n"))
        rank = n - (len(oracle.parse_poly(_arg(cmd, "--f"))) - 1)
        if payload["rank"] != rank or not 0 <= payload["gray_dimension"] <= 3 * n:
            return "rank or Gray dimension out of range"
    elif kind in ("quantum params", "quantum scan"):
        n = int(_arg(cmd, "--n"))
        rows = [payload] if kind == "quantum params" else payload["rows"]
        for row in rows:
            ks = [n - (len(oracle.parse_poly(f)) - 1) for f in row["f"]]
            if row["N"] != 3 * n or row["K"] != 2 * sum(ks) - 3 * n or row["d"] < 1:
                return f"row {row['f']} has [[{row['N']},{row['K']},{row['d']}]]"
        if kind == "quantum scan":
            plus = _arg(cmd, "--sign") == "pos"
            e = sum(oracle.eligible(n, plus, g) for g in _small_divisors(n, plus))
            if len(rows) != e * (e + 1) * (e + 2) // 6:
                return f"{len(rows)} rows from {e} eligible divisors"
    elif kind == "quantum verify-paper":
        states = collections.Counter(row["status"] for row in payload)
        if status != "flag" or states != {"ok": 7, "flag": 1}:
            return f"verify-paper gave {status} {dict(states)}"
    elif kind == "selftest paper":
        states = collections.Counter(item["status"] for item in payload)
        summary = (states["ok"], states["flag"], states["fail"])
        if status != "flag" or summary != (14, 4, 0):
            return "selftest: {} checks passed, {} expected flags, {} failures".format(*summary)
    return None


def check_cli(cmd, outcome) -> str | None:
    code, stdout, stderr = outcome
    if "Traceback" in stderr:
        return f"exit {code} with a traceback"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return f"exit {code} without JSON output"
    if code == 1 and doc.get("status") == "error" and doc.get("error"):
        # A typed domain error is a valid outcome where the input has no
        # answer (a skew Euclidean chain meeting a non-unit leading
        # coefficient, for instance).
        return None if cmd[:2] == ("skew", "gcld") else f"domain error {doc['error']}"
    if code != 0 or doc.get("status") not in ("ok", "flag"):
        return f"exit {code} status {doc.get('status')}"
    return _check_payload(cmd, doc["status"], doc["payload"])


def check_usage_contract(outcome) -> str | None:
    """A malformed input must end as usage exit 2 without a traceback."""
    code, _, stderr = outcome
    if code == 2 and "Traceback" not in stderr:
        return None
    return f"exit {code}" + (" with a traceback" if "Traceback" in stderr else "")


def exit_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit, so that cleanup runs: subprocess.run
    then kills the child it waits for."""

    def handler(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def run_command(argv, env) -> tuple[int, str, str]:
    done = subprocess.run(
        argv, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
    )
    return done.returncode, done.stdout, done.stderr


def cli_job(launch, cmds):
    """launch(argv) runs one CLI process and returns (exit, stdout, stderr)."""
    for cmd in cmds:
        malformed = cmd in CLI_MALFORMED
        yield Op(
            " ".join(cmd),
            lambda argv=("--json",) + cmd: launch(argv),
            check_usage_contract if malformed else (lambda out, cmd=cmd: check_cli(cmd, out)),
            lambda out: short_hash((out[0], out[1])),
            contract=malformed,
        )


def cli_warm_up(launch) -> None:
    # A length outside the timed range: loads the interpreter, numpy and
    # the package into the page cache without sharing a timed input.
    launch(("--json", "factor", "--n", "13", "--sign", "pos"))


def run_timed(job, run_op):
    """Run the job's operations in a closed loop; returns the operations
    and the wall time of the loop."""
    ops = []
    t0 = time.perf_counter()
    for op in job:
        start = time.perf_counter()
        try:
            op.result = run_op(len(ops), op)
        except Exception as err:  # counted as a failed operation
            op.result = err
        op.latency = time.perf_counter() - start
        ops.append(op)
    return ops, time.perf_counter() - t0
