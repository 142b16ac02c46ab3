"""The records of a Serre presentation: its relations and the presentation.

A relation is data, a bracket word equal to a multiple of one generator or
to 0, and evaluates itself on given matrices for the generators.
``dynkin.serre_presentation`` reads the relations off a Cartan matrix, and
``dynkin.verify_serre`` checks them on the triples of the fundamental roots.
Only ``serre`` and ``verify ... serre|all`` run this module.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import dynkin, edges
from .records import Record


class SerreRelation(Record):
    """One defining relation: a bracket word equal to a multiple of a generator, or 0.

    A generator is a letter "H", "X" or "Y" and a 0-based index.  ``word``
    (g_1, ..., g_k) is the right-nested bracket [g_1,[g_2,[...,g_k]]].  The
    relation states word = coefficient * target; it states word = 0 when
    ``target`` is None, and word = target when ``coefficient`` is None.  Both
    default to None.  The word is nonempty, every index an int >= 0, and the
    coefficient None or an int, given only with a target.
    """

    __slots__ = ("word", "target", "coefficient")
    word: tuple[tuple[str, int], ...]
    target: tuple[str, int] | None
    coefficient: int | None

    def __init__(self, word, target=None, coefficient=None) -> None:
        word = tuple(map(_generator, word))
        if not word:
            raise ValueError("a Serre relation needs a nonempty word")
        if coefficient is not None and type(coefficient) is not int:
            raise TypeError(f"Serre coefficient must be an int, got {type(coefficient).__name__}")
        if coefficient is not None and target is None:
            raise ValueError("a Serre relation with no target takes no coefficient")
        super().__init__(word, None if target is None else _generator(target), coefficient)

    def describe(self) -> str:
        name = lambda g: f"{g[0]}{g[1] + 1}"
        body = name(self.word[-1])
        for g in reversed(self.word[:-1]):
            body = f"[{name(g)},{body}]"
        if self.target is None:
            return f"{body} = 0"
        if self.coefficient is None:
            return f"{body} = {name(self.target)}"
        return f"{body} = {self.coefficient} {name(self.target)}"

    def holds(self, generators: dict[str, Sequence[edges.EdgeMatrix]]) -> bool:
        """Evaluate the relation exactly on matrices for each letter."""
        value_of = lambda g: generators[g[0]][g[1]]
        value = value_of(self.word[-1])
        for g in reversed(self.word[:-1]):
            value = edges.mat_bracket(value_of(g), value)
        if self.target is None:
            return value.is_zero()
        target = value_of(self.target)
        return value == (target if self.coefficient is None else target.scale(self.coefficient))


def _generator(g: Sequence) -> tuple[str, int]:
    letter, index = g
    if type(index) is not int:
        raise TypeError(f"Serre generator index must be an int, got {type(index).__name__}")
    if letter not in ("H", "X", "Y") or index < 0:
        raise ValueError(f"Serre generator {g!r} is not a letter H, X or Y and an index >= 0")
    return letter, index


class SerrePresentation(Record):
    """Generators H_i, X_i, Y_i, i below the rank of ``cartan``, and a tuple of relations."""

    __slots__ = ("cartan", "relations")
    cartan: dynkin.CartanMatrix
    relations: tuple[SerreRelation, ...]

    def __init__(self, cartan: dynkin.CartanMatrix, relations: tuple[SerreRelation, ...]) -> None:
        if type(cartan) is not dynkin.CartanMatrix:
            raise TypeError(f"SerrePresentation needs a CartanMatrix, got {type(cartan).__name__}")
        if type(relations) is not tuple or any(type(r) is not SerreRelation for r in relations):
            raise TypeError("Serre relations must be a tuple of SerreRelation")
        for rel in relations:
            named = rel.word if rel.target is None else (*rel.word, rel.target)
            if any(i >= cartan.rank for _, i in named):
                raise ValueError(f"{rel.describe()} names a generator beyond rank {cartan.rank}")
        super().__init__(cartan, relations)

    @property
    def rank(self) -> int:
        return self.cartan.rank
