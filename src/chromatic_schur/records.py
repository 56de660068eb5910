"""Plain ``__slots__`` records for the package's small value classes.

They stand in for dataclasses: importing ``dataclasses`` (with ``inspect``)
and generating each class's methods cost every command-line process more
than the rest of the package's import.  A record is equal to another of
its own class when the fields named in ``_fields`` are equal, hashes those
fields, shows them in its repr and pickles by passing them back to its
constructor.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    """A record whose attributes cannot be assigned or deleted once its
    constructor has set them with ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
