"""The base of the immutable records that a named tuple cannot carry.

These are the records that validate in their constructor, cache a
``functools.cached_property`` or define their own equality.  A ``Record``
subclass names its fields in ``__slots__``, plus ``"__dict__"`` when it
caches, and repeats them as bare annotations.  Its ``__init__`` takes the
fields in that order and sets each once through ``object.__setattr__``.

A plain value record subclasses a ``collections.namedtuple`` base instead,
with ``__slots__ = ()`` and its fields repeated as bare annotations: under
postponed evaluation an annotation creates no class attribute, and no
module of the package imports ``typing`` at run time.
"""

from __future__ import annotations


class Record:
    """Immutable fields, value equality and hash, a repr, and copies rebuilt by ``__init__``."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name != "__dict__")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        names = (name for name in self.__slots__ if name != "__dict__")
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, self._fields()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        # copy and pickle would otherwise restore the slots through __setattr__.
        return type(self), self._fields()
