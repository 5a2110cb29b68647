"""In-memory span tracer wrapped around the public functions of each
ternring module.

Each wrapped call records one span (name, start, end, parent span, op
id).  The benchmark records one root span per operation, so every span
of one operation shares its op id.  Spans are kept in flat arrays while
the operation runs and written out once, when the traced process ends.
A span's self time is its duration minus the time its child spans cover.

A function is reached through every module namespace that imported it
(``from .ring import from_gray`` in rcodes and skew, ``from .poly import
factor`` in cli and skew), so ``install`` replaces every binding that
refers to the original object, in every loaded ternring module.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute path).  Dunder methods are named without
# underscores: RingElement.__mul__ records as ring.RingElement.mul.
TRACED = (
    ("ring.from_gray", "ring", "from_gray"),
    ("ring.RingElement.mul", "ring", "RingElement.__mul__"),
    ("poly.factor", "poly", "factor"),
    ("poly.gcd", "poly", "gcd"),
    ("poly.Z3Poly.divmod", "poly", "Z3Poly.divmod"),
    ("poly.Z3Poly.mul", "poly", "Z3Poly.__mul__"),
    ("gf3linalg.min_weight", "gf3linalg", "min_weight"),
    ("gf3linalg.rref", "gf3linalg", "rref"),
    ("gf3linalg.row_space_contains", "gf3linalg", "row_space_contains"),
    ("ternary.TernaryPolyCode.init", "ternary", "TernaryPolyCode.__init__"),
    ("ternary.TernaryPolyCode.min_distance", "ternary", "TernaryPolyCode.min_distance"),
    ("rcodes.GrayModule.closure", "rcodes", "GrayModule.closure"),
    ("rcodes.gray_vector", "rcodes", "gray_vector"),
    ("rcodes.ungray_vector", "rcodes", "ungray_vector"),
    ("rcodes.RCode.init", "rcodes", "RCode.__init__"),
    ("skew.monic_right_divisors", "skew", "monic_right_divisors"),
    ("skew.skew_right_divmod", "skew", "skew_right_divmod"),
    ("skew.one_generator_sqc", "skew", "one_generator_sqc"),
    ("skew.skew_cyclic_code", "skew", "skew_cyclic_code"),
    ("skew.gcld", "skew", "gcld"),
    ("quantum.scan_dual_containing", "quantum", "scan_dual_containing"),
    ("quantum.css_params", "quantum", "css_params"),
    ("quantum.verify_reference_table", "quantum", "verify_reference_table"),
    ("cli.main", "cli", "main"),
)

MIN_WEIGHT = "gf3linalg.min_weight"
MIN_DISTANCE = "ternary.TernaryPolyCode.min_distance"
DIVISORS = "skew.monic_right_divisors"
RIGHT_DIVMOD = "skew.skew_right_divmod"
GCLD = "skew.gcld"


def _min_weight_words(args, kwargs, result):
    """Codewords enumerated, computed from the generator's row count
    (every caller passes a basis)."""
    generator = args[0] if args else kwargs["generator"]
    return 3 ** np.atleast_2d(np.asarray(generator)).shape[0]


def _code_key(args, kwargs, result):
    code = args[0]
    return (code.n, code.sign.name, tuple(code.g.coeffs), code.k)


def _divisor_count(args, kwargs, result):
    return len(result)


# Values read from a call's arguments or result, never from internals.
PROBES = {
    MIN_WEIGHT: _min_weight_words,
    MIN_DISTANCE: _code_key,
    DIVISORS: _divisor_count,
}


class Tracer:
    """Spans of one process, recorded only while ``enabled`` is set."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.probed: dict[str, list] = {}
        self._stack = [-1]
        self.op_id = -1
        self.enabled = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.raised.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, raised: bool) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if raised:
            self.raised[idx] = 1

    def run_op(self, op_id: int, label: str, fn):
        """Call fn() as operation op_id under a root span named label."""
        self.op_id = op_id
        idx = self._open(self.name_id(label))
        raised = True
        try:
            result = fn()
            raised = False
            return result
        finally:
            self._close(idx, raised)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        probe = PROBES.get(name)
        if probe is not None:
            self.probed[name] = []

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                self._close(idx, raised)
            if probe is not None:
                self.probed[name].append(probe(args, kwargs, result))
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def write(self, path) -> None:
        """Write every span and the name table to an .npz file."""
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


def _ternring_modules():
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "ternring" or key.startswith("ternring."))
    ]


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the loaded ternring modules, in
    every namespace that binds it."""
    modules = _ternring_modules()
    for name, module, path in TRACED:
        mod = sys.modules.get(f"ternring.{module}")
        if mod is None:
            continue
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            cls = getattr(mod, owner_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(tracer.wrap(name, original.__func__))
            else:
                replacement = tracer.wrap(name, original)
            for key, value in list(cls.__dict__.items()):
                if value is original:
                    setattr(cls, key, replacement)
        else:
            original = getattr(mod, attr)
            replacement = tracer.wrap(name, original)
            for namespace in modules:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, replacement)


def self_times(parent, start, end) -> tuple[np.ndarray, np.ndarray]:
    """Per-span duration and self time: duration minus the durations of
    direct children.  Parents open before their children, so a parent
    index is always smaller than its child's, and -1 marks a root."""
    parent = np.asarray(parent)
    duration = np.asarray(end) - np.asarray(start)
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration, duration - covered


def summarize(tracer: Tracer) -> dict:
    """Mergeable per-layer totals of one traced process."""
    a = tracer.arrays()
    _, own = self_times(a["parent"], a["start"], a["end"])
    names = tracer.names
    calls = np.bincount(a["name"], minlength=len(names))
    busy = np.bincount(a["name"], weights=own, minlength=len(names))
    summary = {
        "calls": {n: int(calls[i]) for i, n in enumerate(names)},
        "self_s": {n: float(busy[i]) for i, n in enumerate(names)},
    }

    keys = tracer.probed.get(MIN_DISTANCE, [])
    seen, repeats = set(), 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    summary["min_distance_repeats"] = repeats
    summary["min_distance_k_over_14"] = sorted(
        repr(key[:3]) for key in seen if key[3] > 14
    )
    summary["min_weight_words"] = int(sum(tracer.probed.get(MIN_WEIGHT, [])))
    summary["divisors_found"] = int(sum(tracer.probed.get(DIVISORS, [])))

    divmods_under = 0
    if DIVISORS in tracer._ids and RIGHT_DIVMOD in tracer._ids:
        target, divmod_id = tracer._ids[DIVISORS], tracer._ids[RIGHT_DIVMOD]
        parent, name = a["parent"], a["name"]
        for idx in np.nonzero(name == divmod_id)[0]:
            p = parent[idx]
            while p >= 0 and name[p] != target:
                p = parent[p]
            divmods_under += p >= 0
    summary["divisor_divmods"] = int(divmods_under)
    gcld_id = tracer._ids.get(GCLD)
    summary["gcld_errors"] = (
        0 if gcld_id is None else int(np.count_nonzero(a["raised"][a["name"] == gcld_id]))
    )
    return summary


_COUNTERS = (
    "min_distance_repeats",
    "min_weight_words",
    "divisors_found",
    "divisor_divmods",
    "gcld_errors",
)


def merge(summaries) -> dict:
    """Combine the summaries of several traced processes."""
    out = {"calls": {}, "self_s": {}, "min_distance_k_over_14": [], **dict.fromkeys(_COUNTERS, 0)}
    for s in summaries:
        for table in ("calls", "self_s"):
            for name, value in s[table].items():
                out[table][name] = out[table].get(name, 0) + value
        for key in _COUNTERS:
            out[key] += s[key]
        out["min_distance_k_over_14"] += s["min_distance_k_over_14"]
    return out


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json that come from spans."""
    calls, busy = summary["calls"], summary["self_s"]
    out = {}
    for name, _, _ in TRACED:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = busy.get(name, 0.0)
    md_calls = calls.get(MIN_DISTANCE, 0)
    out[f"{MIN_DISTANCE}.repeat_ratio"] = (
        summary["min_distance_repeats"] / md_calls if md_calls else 0.0
    )
    out[f"{MIN_DISTANCE}.k_over_14"] = len(set(summary["min_distance_k_over_14"]))
    out[f"{MIN_WEIGHT}.words"] = summary["min_weight_words"]
    divmods = summary["divisor_divmods"]
    out[f"{DIVISORS}.yield"] = summary["divisors_found"] / divmods if divmods else 0.0
    out[f"{GCLD}.errors"] = summary["gcld_errors"]
    return out
