"""The package namespace: its public names are the modules' own lists,
and the names the benchmark harness binds to exist."""

import importlib
from pathlib import Path

import pytest

import ternring
from ternring import poly, quantum, rcodes, ring, skew, ternary

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def test_all_is_the_union_of_module_lists():
    modules = (ring, poly, ternary, rcodes, skew, quantum)
    union = ["errors", *(name for m in modules for name in m.__all__), "__version__"]
    assert ternring.__all__ == union
    assert len(set(union)) == len(union)
    for m in modules:
        for name in m.__all__:
            assert getattr(ternring, name) is getattr(m, name)
    assert ternring.parse_poly is poly.parse_poly


@pytest.fixture
def harness(monkeypatch):
    """The benchmark's tracer and workload modules, imported from the
    benchmark directory of this checkout."""
    monkeypatch.syspath_prepend(str(BENCHMARK))
    return importlib.import_module("tracer"), importlib.import_module("workloads")


def test_every_traced_path_resolves(harness):
    # the tracer wraps a method found in its class's own namespace, and
    # a function found on its module
    tracer, _ = harness
    for name, module, path in tracer.TRACED:
        mod = importlib.import_module(f"ternring.{module}")
        owner, _, attr = path.rpartition(".")
        if owner:
            assert attr in vars(getattr(mod, owner)), name
        else:
            assert callable(getattr(mod, attr)), name


def test_skew_job_reads_existing_result_attributes(harness):
    # one pass of the skew workload: every operation runs, and its check
    # and digest read the attributes they need from its result
    _, workloads = harness
    job = workloads.skew_job(ternring, workloads.skew_inputs(1))
    ops, _ = workloads.run_timed(job, lambda i, op: op.run())
    assert ops
    for op in ops:
        assert not isinstance(op.result, BaseException), (op.label, op.result)
        assert op.check(op.result) is None, op.label
        assert op.digest(op.result)
