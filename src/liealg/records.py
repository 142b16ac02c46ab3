"""The one immutable record type, and the check records every command reports.

Every record of the package subclasses ``Record``.  A record names its
fields in ``__slots__``, plus ``"__dict__"`` when it caches a
``functools.cached_property``, and repeats them as bare annotations: under
postponed evaluation an annotation creates no class attribute, and no
module of the package imports ``typing`` at run time.  ``Record.__init__``
takes the fields in slot order, by position or by keyword, and sets each
once; a record that validates its input or supplies defaults defines its
own ``__init__``, which ends in ``super().__init__``.  A record is not a
tuple: it equals only a record of its own type with equal fields, and it
cannot be iterated.  ``weyl.WeylGroup`` is the one exception: it is also a
``Set``, equal to the frozenset of its elements.

``Check`` and ``CheckReport`` are the one verdict record and the one run of
verdicts, from the library's verifiers to the command line's output, and
``InternalConsistencyError`` is what the engine raises when a fact that holds
by construction fails.  They live here because every command runs this
module, so reading them executes no other.
"""

from __future__ import annotations

from collections.abc import Iterable


class Record:
    """Immutable fields, value equality and hash, a repr, and copies rebuilt by ``__init__``."""

    __slots__ = ()
    _names: tuple[str, ...]
    # A record is not a sequence, even one that defines __getitem__ for its entries.
    __iter__ = None

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._names = tuple(name for name in cls.__slots__ if name != "__dict__")

    def __init__(self, *values: object, **named: object) -> None:
        names = self._names
        if named or len(values) != len(names):
            fields = {**dict(zip(names, values)), **named}
            if len(values) + len(named) != len(names) or fields.keys() != set(names):
                raise TypeError(f"{type(self).__name__} takes the fields ({', '.join(names)}); "
                                f"got {len(values)} by position and {list(named)} by keyword")
            values = tuple(fields[name] for name in names)
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._names)

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
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._names, self._fields()))
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
        super().__init__(suite, name, status, detail)

    @staticmethod
    def of(suite: str, name: str, ok: bool, detail: str) -> "Check":
        return Check(suite, name, "pass" if ok else "fail", detail)


class CheckReport(Record):
    """An ordered run of checks, stored as a tuple; it passes when none of them failed."""

    __slots__ = ("results",)
    results: tuple[Check, ...]

    def __init__(self, results: Iterable[Check]) -> None:
        super().__init__(tuple(results))

    @property
    def all_passed(self) -> bool:
        return all(c.status != "fail" for c in self.results)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.results if c.status == "fail")
