"""Basic invariant polynomials of the classical reflection groups.

Each family carries its classical generating set: power sums for the
symmetric group (acting on one extra variable, restricted to the sum-zero
hyperplane where the action is effective), even power sums for the signed
permutation groups, and even power sums plus the full product for the
even-sign subgroup.  Algebraic independence is certified exactly through the
Jacobian criterion: the determinant of the partial-derivative matrix is not
the zero polynomial.  A nonzero exact value of that determinant at one
rational point proves it (Schwartz 1980, Zippel 1979).  The classical suites
have one at (1, ..., m): their Jacobians are constant multiples of products
of x_i, x_j - x_i, x_j + x_i and sums of coordinates with positive
coefficients (``tests/test_invariants.py`` checks each closed form), none of
which vanishes there.  A zero value proves nothing, so only then is the
determinant expanded symbolically.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import prod

from . import exact, weyl
from .families import AlgebraFamily
from .matrices import determinant
from .polynomials import Exponent, MultiPoly, poly_det
from .records import Record


class InvariantSuite(Record):
    """An ordered generating set for one family's invariant ring: ``MultiPoly``s on ``nvars``
    variables, one per effective variable (``nvars - 1`` for sl), so the Jacobian is square."""

    __slots__ = ("family", "nvars", "polys")
    family: AlgebraFamily
    nvars: int
    polys: tuple[MultiPoly, ...]

    def __init__(self, family: AlgebraFamily, nvars: int, polys: tuple[MultiPoly, ...]) -> None:
        if type(family) is not AlgebraFamily:
            raise TypeError(f"family must be an AlgebraFamily, got {type(family).__name__}")
        if type(nvars) is not int:
            raise TypeError(f"nvars must be an int, got {type(nvars).__name__}")
        least = 2 if family is AlgebraFamily.SL else 1
        if nvars < least:
            raise ValueError(f"a {family.cli_name} suite needs nvars >= {least}, got {nvars}")
        if type(polys) is not tuple or any(type(p) is not MultiPoly for p in polys):
            raise TypeError("suite polynomials must be a tuple of MultiPoly")
        if any(p.nvars != nvars for p in polys):
            raise ValueError(f"suite polynomials must be on {nvars} variables")
        if len(polys) != nvars - least + 1:
            raise ValueError("suite size must match the effective variable count")
        super().__init__(family, nvars, polys)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(p.degree() for p in self.polys)

    def degree_product(self) -> int:
        return prod(self.degrees)


def _expo(nvars: int, i: int, power: int = 1) -> Exponent:
    """The exponent vector of x_i^power (0-indexed)."""
    return tuple(power if k == i else 0 for k in range(nvars))


def _power_sum(nvars: int, power: int) -> MultiPoly:
    return MultiPoly(nvars, {_expo(nvars, i, power): 1 for i in range(nvars)})


def full_product(nvars: int) -> MultiPoly:
    """The monomial x_1 x_2 ... x_n."""
    return MultiPoly.monomial(nvars, (1,) * nvars)


def build_suite(family: AlgebraFamily, n: int) -> InvariantSuite:
    """The classical basic invariants for Weyl type A_n, B_n/C_n, or D_n.

    ``n`` is the rank of the reflection group (the Lie rank); the A-family
    suite lives on n+1 variables, the others on n.  ``n`` must be an int (a
    bool is not), as ``AlgebraSpec`` requires of its rank; ``InvariantSuite``
    rejects a rank below 1 and a family that is not an ``AlgebraFamily``.
    """
    if type(n) is not int:
        raise TypeError(f"n must be an int, got {type(n).__name__}")
    if family is AlgebraFamily.SL:
        nvars = n + 1
        polys = tuple(_power_sum(nvars, k) for k in range(2, n + 2))
    elif family is AlgebraFamily.SO_EVEN:
        if n < 2:
            raise ValueError("the even orthogonal family needs rank >= 2")
        nvars = n
        polys = tuple(_power_sum(nvars, 2 * k) for k in range(1, n)) + (full_product(nvars),)
    else:
        nvars = n
        polys = tuple(_power_sum(nvars, 2 * k) for k in range(1, n + 1))
    return InvariantSuite(family=family, nvars=nvars, polys=polys)


def check_invariance(s: InvariantSuite, gens: Sequence[weyl.Window]) -> bool:
    """True iff every polynomial is fixed by every generator.

    Fixing the generators fixes the whole group they generate, since the
    action is by algebra automorphisms.
    """
    for g in gens:
        if len(g) != s.nvars:
            raise ValueError(
                f"generator acts on {len(g)} coordinates, suite has {s.nvars} variables"
            )
    return all(p.transform(g) == p for p in s.polys for g in gens)


def _restrict_to_effective(s: InvariantSuite) -> tuple[MultiPoly, ...]:
    """For the A family, substitute x_{n+1} = -(x_1 + ... + x_n)."""
    if s.family is not AlgebraFamily.SL:
        return s.polys
    nv = s.nvars - 1
    replacement = MultiPoly(nv, {_expo(nv, i): -1 for i in range(nv)})
    return tuple(p.eliminate_last(replacement) for p in s.polys)


def jacobian(s: InvariantSuite) -> MultiPoly:
    """Exact determinant of the partial-derivative matrix of the suite.

    The A-family polynomials are restricted to the effective hyperplane
    first, so the matrix is square in every family.
    """
    polys = _restrict_to_effective(s)
    nv = polys[0].nvars
    matrix = [[p.derivative(j) for j in range(nv)] for p in polys]
    return poly_det(matrix)


def _jacobian_at_point(s: InvariantSuite) -> exact.Scalar:
    """The Jacobian determinant of the suite at the point (1, ..., m).

    m is the effective variable count.  For the A family the point is
    (1, ..., m, -(1 + ... + m)) on the sum-zero hyperplane, and column j of
    the restricted matrix is d_j f - d_(m+1) f there (the chain rule), so
    the polynomials are never restricted symbolically.
    """
    nv = s.nvars
    m = len(s.polys)
    point = list(range(1, m + 1))
    if m < nv:
        point.append(-sum(point))
    rows = []
    for p in s.polys:
        gradient = [p.derivative(j).eval(point) for j in range(nv)]
        rows.append([d - gradient[-1] for d in gradient[:m]] if m < nv else gradient)
    return determinant(rows)


def jacobian_criterion(s: InvariantSuite) -> bool:
    """Algebraic independence: the Jacobian is not the zero polynomial.

    A nonzero value at the point of ``_jacobian_at_point`` proves it without
    expanding the determinant.  A zero value proves nothing, since a nonzero
    polynomial can vanish at one point, so the verdict then comes from the
    symbolic ``jacobian``; the answer is the symbolic one for every suite.
    """
    return bool(_jacobian_at_point(s)) or not jacobian(s).is_zero()
