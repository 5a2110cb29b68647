"""Coding-theory workbench over the ternary ring GF(3)[v]/(v^3 - v)."""

__version__ = "0.1.0"

from . import errors, poly, quantum, rcodes, ring, skew, ternary
from .poly import *
from .quantum import *
from .rcodes import *
from .ring import *
from .skew import *
from .ternary import *

# the public names are each module's own __all__, listed once there
__all__ = [
    "errors",
    *ring.__all__,
    *poly.__all__,
    *ternary.__all__,
    *rcodes.__all__,
    *skew.__all__,
    *quantum.__all__,
    "__version__",
]
