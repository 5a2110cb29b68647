"""``Record``, the one base of the package's immutable value classes.

It stands in for frozen dataclasses: the ``dataclasses`` module imports
``inspect``, about 12 ms of the start of every command line process.
A value class gets from it fields that can be neither set nor deleted,
equality and hashing by class and fields, the ``Name(field=value, ...)``
form, and pickling that rebuilds it without running its constructor.
A record that carries a mutable field is unhashable, and says so with
``__hash__ = None``.
The small records set their fields through ``_set``; the classes built
in hot loops write their slots with ``object.__setattr__``: through
``_set``, ``GrayModule._hold`` and ``SkewQCModule`` made the ``skew``
benchmark's median operation 4-6 % slower (2-vCPU x86_64, 4/4 pairs).
"""

from __future__ import annotations


class Record:
    """An immutable record whose fields are the ``__slots__`` of its class
    and its bases (``__weakref__`` aside), in order."""

    __slots__ = ()
    _field_names: tuple[str, ...] = ()

    def __init_subclass__(cls):
        slots = [n for c in reversed(cls.__mro__) for n in vars(c).get("__slots__", ())]
        cls._field_names = tuple(n for n in slots if n != "__weakref__")

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._field_names)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._field_names)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return _rebuilt, (type(self), self._fields())


def _rebuilt(cls, fields: tuple) -> Record:
    """The record of class cls with these fields, its constructor, which
    may derive or check fields, not run."""
    record = object.__new__(cls)
    record._set(**dict(zip(cls._field_names, fields)))
    return record
