"""The immutable record base, and the check records every command reports.

``Record`` is the base of the records that a named tuple cannot carry: those
that validate in their constructor, cache a
``functools.cached_property`` or define their own equality.  A ``Record``
subclass names its fields in ``__slots__``, plus ``"__dict__"`` when it
caches, and repeats them as bare annotations.  Its ``__init__`` takes the
fields in that order and sets each once through ``object.__setattr__``.

A plain value record subclasses a ``collections.namedtuple`` base instead,
with ``__slots__ = ()`` and its fields repeated as bare annotations: under
postponed evaluation an annotation creates no class attribute, and no
module of the package imports ``typing`` at run time.

``Check`` and ``CheckReport`` are the one verdict record and the one run of
verdicts, from the library's verifiers to the command line's output, and
``InternalConsistencyError`` is what the engine raises when a fact that holds
by construction fails.  They live here because every command runs this
module, so reading them executes no other.
"""

from __future__ import annotations

from collections import namedtuple


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


class InternalConsistencyError(RuntimeError):
    """A structural fact that must hold by construction failed to hold."""


class Check(Record):
    """One verdict: which suite ran it, what was checked, and the outcome.

    ``status`` is "pass", "fail" or "skip"; a skip is never a pass, but it
    does not fail a report either.
    """

    __slots__ = ("suite", "name", "status", "detail")
    suite: str
    name: str
    status: str
    detail: str

    def __init__(self, suite: str, name: str, status: str, detail: str) -> None:
        if status not in ("pass", "fail", "skip"):
            raise ValueError(f"check status must be pass, fail or skip, got {status!r}")
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "detail", detail)

    @staticmethod
    def of(suite: str, name: str, ok: bool, detail: str) -> "Check":
        return Check(suite, name, "pass" if ok else "fail", detail)


class CheckReport(namedtuple("CheckReport", "results")):
    """An ordered run of checks; it passes when none of them failed."""

    __slots__ = ()
    results: tuple[Check, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.status != "fail" for c in self.results)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.results if c.status == "fail")
