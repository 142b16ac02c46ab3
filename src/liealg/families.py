"""The four classical families and their numeric bookkeeping: the closed forms
of Lie rank, root count and Weyl group order, and the dimension they give."""

from __future__ import annotations

import enum
from math import factorial

from .records import Record


class AlgebraFamily(enum.Enum):
    """Closed enumeration of the classical matrix Lie algebra families."""

    SL = "sl"
    SP = "sp"
    SO_EVEN = "so-even"
    SO_ODD = "so-odd"

    @property
    def cli_name(self) -> str:
        return self.value

    @staticmethod
    def from_name(name: str) -> "AlgebraFamily":
        for fam in AlgebraFamily:
            if fam.value == name:
                return fam
        raise ValueError(f"unknown family {name!r} (expected sl, sp, so-even, so-odd)")


class AlgebraSpec(Record):
    """One algebra: a family plus its defining parameter n.

    The parameter n follows the classical naming: sl_n, sp_2n, so_2n,
    so_2n+1.  For sl the Lie-theoretic rank is n-1; for the other families it
    equals n.  The two are kept distinct throughout.
    """

    __slots__ = ("family", "rank")
    family: AlgebraFamily
    rank: int

    def __init__(self, family: AlgebraFamily, rank: int) -> None:
        if type(family) is not AlgebraFamily:
            raise TypeError(f"family must be an AlgebraFamily, got {type(family).__name__}")
        if type(rank) is not int:
            raise TypeError(f"n must be an int, got {type(rank).__name__}")
        minimum = 2 if family in (AlgebraFamily.SL, AlgebraFamily.SO_EVEN) else 1
        if rank < minimum:
            raise ValueError(f"{family.cli_name} requires n >= {minimum}, got {rank}")
        super().__init__(family, rank)

    @property
    def realization_dim(self) -> int:
        n = self.rank
        if self.family is AlgebraFamily.SL:
            return n
        if self.family is AlgebraFamily.SO_ODD:
            return 2 * n + 1
        return 2 * n

    @property
    def lie_rank(self) -> int:
        return self.rank - 1 if self.family is AlgebraFamily.SL else self.rank

    @property
    def dimension(self) -> int:
        """Dimension of the algebra as a vector space: the Cartan plus one line per root."""
        return self.lie_rank + root_count(self)

    @property
    def name(self) -> str:
        prefix = {
            AlgebraFamily.SL: "sl",
            AlgebraFamily.SP: "sp",
            AlgebraFamily.SO_EVEN: "so",
            AlgebraFamily.SO_ODD: "so",
        }[self.family]
        return f"{prefix}_{self.realization_dim}"

    def __str__(self) -> str:
        return self.name


def _require_spec(spec: object) -> None:
    """Raise TypeError naming the type of anything that is not an ``AlgebraSpec``."""
    if type(spec) is not AlgebraSpec:
        raise TypeError(f"spec must be an AlgebraSpec, got {type(spec).__name__}")


def root_count(spec: AlgebraSpec) -> int:
    """Closed-form size of the root system."""
    _require_spec(spec)
    n = spec.rank
    if spec.family is AlgebraFamily.SL:
        return n * (n - 1)
    if spec.family is AlgebraFamily.SO_EVEN:
        return 2 * n * (n - 1)
    return 2 * n * n


def weyl_order_formula(spec: AlgebraSpec) -> int:
    """Closed-form Weyl group order for a classical family."""
    _require_spec(spec)
    n = spec.rank
    if spec.family is AlgebraFamily.SL:
        return factorial(n)
    if spec.family is AlgebraFamily.SO_EVEN:
        return 2 ** (n - 1) * factorial(n)
    return 2**n * factorial(n)
