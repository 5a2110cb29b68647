"""``Record``, the base of the package's small immutable value classes.

It stands in for frozen dataclasses: the ``dataclasses`` module imports
``inspect``, about 12 ms of the start of every command line process.
"""

from __future__ import annotations


class Record:
    """An immutable record whose fields are the subclass's ``__slots__``,
    set once by its ``__init__`` through ``_set``.  Two records are equal
    when they are of the same class and their fields are equal; a record
    hashes as the tuple of its fields and prints as
    ``Name(field=value, ...)``."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # __init__ takes the fields in slot order
        return type(self), self._fields()
