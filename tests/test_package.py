"""The package namespace: its public names are the modules' own lists."""

import ternring
from ternring import poly, quantum, rcodes, ring, skew, ternary


def test_all_is_the_union_of_module_lists():
    modules = (ring, poly, ternary, rcodes, skew, quantum)
    union = ["errors", *(name for m in modules for name in m.__all__), "__version__"]
    assert ternring.__all__ == union
    assert len(set(union)) == len(union)
    for m in modules:
        for name in m.__all__:
            assert getattr(ternring, name) is getattr(m, name)
    assert ternring.parse_poly is poly.parse_poly
