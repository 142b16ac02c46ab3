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
coefficients (see the closed forms below), none of which vanishes there.  A
zero value proves nothing, so only then is the determinant expanded
symbolically.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from math import prod

from . import weyl
from .exact import Scalar, ratio
from .families import AlgebraFamily
from .matrices import determinant
from .polynomials import MultiPoly, poly_det


class InvariantSuite(namedtuple("InvariantSuite", "family nvars polys")):
    """An ordered generating set for one family's invariant ring."""

    __slots__ = ()
    family: AlgebraFamily
    nvars: int
    polys: tuple[MultiPoly, ...]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(p.degree() for p in self.polys)

    def degree_product(self) -> int:
        return prod(self.degrees)


def _power_sum(nvars: int, power: int) -> MultiPoly:
    out = MultiPoly.zero(nvars)
    for i in range(nvars):
        expo = tuple(power if k == i else 0 for k in range(nvars))
        out = out + MultiPoly.monomial(nvars, expo)
    return out


def build_suite(family: AlgebraFamily, n: int) -> InvariantSuite:
    """The classical basic invariants for Weyl type A_n, B_n/C_n, or D_n.

    ``n`` is the rank of the reflection group (the Lie rank); the A-family
    suite lives on n+1 variables, the others on n.
    """
    if n < 1:
        raise ValueError("rank must be at least 1")
    if family is AlgebraFamily.SL:
        nvars = n + 1
        polys = tuple(_power_sum(nvars, k) for k in range(2, n + 2))
    elif family in (AlgebraFamily.SP, AlgebraFamily.SO_ODD):
        nvars = n
        polys = tuple(_power_sum(nvars, 2 * k) for k in range(1, n + 1))
    elif family is AlgebraFamily.SO_EVEN:
        if n < 2:
            raise ValueError("the even orthogonal family needs rank >= 2")
        nvars = n
        product = MultiPoly.monomial(nvars, (1,) * nvars)
        polys = tuple(_power_sum(nvars, 2 * k) for k in range(1, n)) + (product,)
    else:
        raise ValueError(f"unknown family {family}")
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
    replacement = MultiPoly.zero(nv)
    for i in range(nv):
        replacement = replacement - MultiPoly.variable(nv, i)
    return tuple(p.eliminate_last(replacement) for p in s.polys)


def jacobian(s: InvariantSuite) -> MultiPoly:
    """Exact determinant of the partial-derivative matrix of the suite.

    The A-family polynomials are restricted to the effective hyperplane
    first, so the matrix is square in every family.
    """
    polys = _restrict_to_effective(s)
    nv = polys[0].nvars
    if len(polys) != nv:
        raise ValueError("suite size must match the effective variable count")
    matrix = [[p.derivative(j) for j in range(nv)] for p in polys]
    return poly_det(matrix)


def _jacobian_at_point(s: InvariantSuite) -> Scalar:
    """The Jacobian determinant of the suite at the point (1, ..., m).

    m is the effective variable count.  For the A family the point is
    (1, ..., m, -(1 + ... + m)) on the sum-zero hyperplane, and column j of
    the restricted matrix is d_j f - d_(m+1) f there (the chain rule), so
    the polynomials are never restricted symbolically.
    """
    if s.family is AlgebraFamily.SL:
        nv = s.nvars
        m = nv - 1
    else:
        nv = s.polys[0].nvars
        m = nv
    if m < 1 or len(s.polys) != m:
        raise ValueError("suite size must match the effective variable count")
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


# ---------------------------------------------------------------------------
# Closed forms for comparison and the exact constant between them.
# ---------------------------------------------------------------------------


def vandermonde_squares(nvars: int) -> MultiPoly:
    """Product over i < j of (x_j^2 - x_i^2)."""
    out = MultiPoly.constant(nvars, 1)
    for i in range(nvars):
        for j in range(i + 1, nvars):
            xi2 = MultiPoly.monomial(nvars, tuple(2 if k == i else 0 for k in range(nvars)))
            xj2 = MultiPoly.monomial(nvars, tuple(2 if k == j else 0 for k in range(nvars)))
            out = out * (xj2 - xi2)
    return out


def vandermonde(nvars: int) -> MultiPoly:
    """Product over i < j of (x_j - x_i)."""
    out = MultiPoly.constant(nvars, 1)
    for i in range(nvars):
        for j in range(i + 1, nvars):
            out = out * (MultiPoly.variable(nvars, j) - MultiPoly.variable(nvars, i))
    return out


def full_product(nvars: int) -> MultiPoly:
    """The monomial x_1 x_2 ... x_n."""
    return MultiPoly.monomial(nvars, (1,) * nvars)


def doubled_coordinate_forms(nvars: int) -> MultiPoly:
    """Product over i of (x_1 + ... + 2 x_i + ... + x_n)."""
    out = MultiPoly.constant(nvars, 1)
    total = MultiPoly.zero(nvars)
    for k in range(nvars):
        total = total + MultiPoly.variable(nvars, k)
    for i in range(nvars):
        out = out * (total + MultiPoly.variable(nvars, i))
    return out


def constant_ratio(p: MultiPoly, q: MultiPoly) -> Scalar | None:
    """The scalar c with p = c q, or None when no such constant exists."""
    if q.is_zero():
        return None
    expo, coeff = next(iter(q.terms.items()))
    c = ratio(p.terms.get(expo, 0), coeff)
    return c if p == q.scale(c) else None
