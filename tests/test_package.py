"""The package namespace: its public names are the modules' own lists,
and the names the benchmark harness binds to exist."""

import copy
import importlib
import inspect
import pickle
import pkgutil
from pathlib import Path

import pytest

import ternring
from ternring import cli, poly, quantum, rcodes, ring, skew, ternary
from ternring._record import Record
from ternring.poly import ModulusSign, parse_poly

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


# -- the value contract: every immutable class is a _record.Record ----------


def _value_factories():
    """One factory per value class; two calls build equal objects."""
    P, S, PLUS = parse_poly, skew.parse_skew_poly, ModulusSign.PLUS
    return {
        "RingElement": lambda: ring.V,
        "Z3Poly": lambda: P("x^2+2"),
        "Factorization": lambda: poly.factor(P("x^4+2")),
        "TernaryPolyCode": lambda: ternary.TernaryPolyCode(6, PLUS, P("x^2+2")),
        "RCode": lambda: rcodes.RCode.cyclic(3, [P("x+2")] * 3),
        "GrayShift": lambda: skew._left_x(4, ring.ONE.index, 2),
        "GrayModule": lambda: rcodes.GrayModule.from_rvectors([(ring.V, ring.ONE, 0)]),
        "SkewPoly": lambda: S("x+v"),
        "SkewQCModule": lambda: skew.one_generator_sqc([S("x+1"), S("x^2+2")], 2, 2, 1),
        "SkewCyclicCode": lambda: skew.skew_cyclic_code(S("x+2"), 6),
        "QuantumParams": lambda: quantum.QuantumParams(18, 6, 3),
        "ReferenceRow": lambda: quantum.ReferenceRow(
            "row", 6, PLUS, ("x+2",) * 3, (18, 6, 3),
            quantum.QuantumParams(18, 6, 3), "ok",
        ),
        "CommandResult": lambda: cli.CommandResult({"n": 6}, ["n = 6"]),
    }


VALUES = sorted(_value_factories())


@pytest.mark.parametrize("name", VALUES)
def test_value_fields_can_be_neither_set_nor_deleted(name):
    value = _value_factories()[name]()
    fields = [
        field
        for cls in type(value).__mro__
        for field in vars(cls).get("__slots__", ())
        if field != "__weakref__"
    ]
    assert fields
    before = [getattr(value, field) for field in fields]
    for field in fields:
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.unknown = None
    assert [getattr(value, field) for field in fields] == before


@pytest.mark.parametrize("name", VALUES)
def test_values_compare_by_class_and_fields(name):
    factory = _value_factories()[name]
    a, b = factory(), factory()
    assert a == b and not a != b
    if name == "CommandResult":
        # its payload and notes are a dict and a list: it declares itself
        # unhashable
        assert type(a).__hash__ is None
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert a != object()
    others = [f() for other, f in _value_factories().items() if other != name]
    assert all(a != other for other in others)


def test_skew_codes_compare_by_their_module_fields():
    S = skew.parse_skew_poly
    code = skew.skew_cyclic_code(S("x+2"), 6)
    assert code != skew.skew_cyclic_code(S("x^2+2"), 6)
    assert code != skew.skew_cyclic_code(S("x+2"), 4)
    # the l = 1 module of the same generator has the same six fields, but
    # is of another class
    module = skew.one_generator_sqc([S("x+2")], 6, 1, 1)
    assert module._fields() == code._fields()
    assert module != code and code != module


@pytest.mark.parametrize("name", VALUES)
def test_values_pickle_to_equal_values(name):
    value = _value_factories()[name]()
    if name == "GrayShift":
        # its on_masks is a closure, which pickle refuses
        with pytest.raises((AttributeError, pickle.PicklingError)):
            pickle.dumps(value)
        return
    restored = pickle.loads(pickle.dumps(value))
    assert type(restored) is type(value)
    assert restored == value
    assert restored._fields() == value._fields()


def test_ring_elements_unpickle_to_their_interned_instances():
    for i, e in enumerate(ring.ELEMENTS):
        assert pickle.loads(pickle.dumps(e)) is e
        assert copy.copy(e) is e and copy.deepcopy(e) is e
        assert e.index == i


def test_only_record_defines_the_immutability_and_two_classes_their_equality():
    own_equality = set()
    for info in pkgutil.iter_modules(ternring.__path__):
        module = importlib.import_module(f"ternring.{info.name}")
        for cls in vars(module).values():
            if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                continue
            if cls is Record:
                continue
            if "__slots__" in vars(cls):
                assert issubclass(cls, Record), cls
            assert "__setattr__" not in vars(cls), cls
            assert "__delattr__" not in vars(cls), cls
            if "__eq__" in vars(cls):
                own_equality.add(cls.__name__)
    # both compare equal to ints
    assert own_equality == {"Z3Poly", "RingElement"}
