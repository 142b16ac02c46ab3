"""Killing forms, the induced inner product on weights, and Cartan matrices.

The Killing form is computed by two independent routes: the trace of composed
adjoint matrices, and the sum over roots of a(x)a(y).  On the Cartan
subalgebra the two agree identically, which the test suite pins down.

Two transposed Cartan matrix conventions are in circulation.  This package
exposes both:

* ``cartan_matrix``       A_ij = 2<a_i, a_j> / <a_j, a_j>,
  the convention of the classical printed matrices (C_n has -2 in its final
  row, B_n has -2 in its final column);
* ``coroot_pairing_matrix``   P_ij = a_j(h_i),
  its transpose, the matrix whose entries appear in the Serre relations
  [H_i, X_j] = P_ij X_j of the matrix realizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .catalog import (
    AlgebraRealization,
    InternalConsistencyError,
    Weight,
    ad_matrix,
    check_membership,
    span_solver,
)
from .matrices import EdgeMatrix, dot, solve_linear
from .roots import Inner, RootDatum

__all__ = [
    "CartanMatrix",
    "killing_form_ad",
    "killing_form_roots",
    "cartan_killing_gram",
    "cartan_killing_gram_ad",
    "weight_inner",
    "cartan_entries",
    "cartan_matrix",
    "coroot_pairing_matrix",
    "root_lengths",
    "killing_coefficients",
]


def _trace_of_product(ax: list[list[Fraction]], ay: list[list[Fraction]]) -> Fraction:
    """tr(ax ay) of two square matrices given as dense rows."""
    total = Fraction(0)
    for i, row in enumerate(ax):
        for k, value in enumerate(row):
            if value:
                total += value * ay[k][i]
    return total


def killing_form_ad(r: AlgebraRealization, x: EdgeMatrix, y: EdgeMatrix) -> Fraction:
    """Trace of ad(x) composed with ad(y) in the canonical basis."""
    for m in (x, y):
        if not check_membership(m, r.spec):
            raise ValueError(f"matrix is not a member of {r.spec}")
    solver = span_solver(r)
    return _trace_of_product(ad_matrix(r, x, solver), ad_matrix(r, y, solver))


def cartan_killing_gram_ad(r: AlgebraRealization) -> list[list[Fraction]]:
    """``killing_form_ad`` on every pair of Cartan basis elements.

    One span solver and one ad(h) per basis element serve all the pairs;
    nothing is read from the roots.
    """
    solver = span_solver(r)
    ads = [ad_matrix(r, h, solver) for h in r.cartan_basis]
    return [[_trace_of_product(ax, ay) for ay in ads] for ax in ads]


def killing_form_roots(rd: RootDatum, x: EdgeMatrix, y: EdgeMatrix) -> Fraction:
    """Sum over all roots of a(x) a(y); x and y must be Cartan elements."""
    r = rd.realization
    cx = r.diag_coords(x)
    cy = r.diag_coords(y)
    total = Fraction(0)
    for root in rd.roots:
        total += dot(root, cx) * dot(root, cy)
    return total


def cartan_killing_gram(rd: RootDatum) -> list[list[Fraction]]:
    """Gram matrix of the Killing form on the Cartan basis.

    This is the ad-trace form: ad(h) is diagonal in the canonical basis with
    the root values as eigenvalues, so tr(ad(h) ad(h')) is accumulated
    directly from those eigenvalues.
    """
    r = rd.realization
    coords = [r.diag_coords(h) for h in r.cartan_basis]
    size = len(coords)
    eigen = [[dot(root, c) for root in rd.roots] for c in coords]
    gram = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            value = sum(
                (ei * ej for ei, ej in zip(eigen[i], eigen[j])), Fraction(0)
            )
            gram[i][j] = value
            gram[j][i] = value
    return gram


def weight_inner(rd: RootDatum) -> Inner:
    """The inner product on weights induced by the Killing form.

    A weight evaluates on the Cartan basis; transporting through the
    isomorphism h -> h* given by the Killing form yields
    <u, v> = eval(u) . K^-1 eval(v) with K the Cartan Gram matrix.
    """
    r = rd.realization
    coords = [r.diag_coords(h) for h in r.cartan_basis]
    gram = cartan_killing_gram(rd)
    cache: dict[Weight, list[Fraction]] = {}

    def solve(weight: Weight) -> list[Fraction]:
        key = tuple(Fraction(c) for c in weight)
        if key not in cache:
            evaluation = [dot(key, c) for c in coords]
            cache[key] = solve_linear(gram, evaluation)
        return cache[key]

    def inner(u: Weight, v: Weight) -> Fraction:
        evaluation = [dot(tuple(Fraction(c) for c in u), c) for c in coords]
        return dot(evaluation, solve(v))

    return inner


@dataclass(frozen=True)
class CartanMatrix:
    """Integer matrix with diagonal 2 and nonpositive off-diagonal entries."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n == 0 or any(len(row) != n for row in self.entries):
            raise ValueError("Cartan matrix must be square and nonempty")
        for i in range(n):
            if self.entries[i][i] != 2:
                raise ValueError("Cartan matrix diagonal entries must equal 2")
            for j in range(n):
                if i == j:
                    continue
                a = self.entries[i][j]
                if a not in (0, -1, -2, -3):
                    raise ValueError(
                        f"off-diagonal Cartan entry {a} outside {{0,-1,-2,-3}}"
                    )
                if (a == 0) != (self.entries[j][i] == 0):
                    raise ValueError("Cartan entries A_ij and A_ji must vanish together")

    @property
    def rank(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "CartanMatrix":
        return CartanMatrix(tuple(zip(*self.entries)))


def cartan_entries(
    fundamental: Sequence[Weight], inner: Inner
) -> tuple[tuple[int, ...], ...]:
    """Entries 2<a_i,a_j>/<a_j,a_j>; a non-integer one is an internal inconsistency."""
    size = len(fundamental)
    norms = [inner(a, a) for a in fundamental]
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            value = 2 * inner(fundamental[i], fundamental[j]) / norms[j]
            if value.denominator != 1:
                raise InternalConsistencyError(
                    f"Cartan entry ({i + 1},{j + 1}) = {value} is not an integer"
                )
            row.append(int(value))
        rows.append(tuple(row))
    return tuple(rows)


def cartan_matrix(rd: RootDatum) -> CartanMatrix:
    """Cartan matrix A_ij = 2<a_i,a_j>/<a_j,a_j> over the Killing inner product.

    Non-integer ratios abort: integrality is a theorem, so a violation means
    the inner product is wrong.
    """
    return CartanMatrix(cartan_entries(rd.fundamental_roots, weight_inner(rd)))


def coroot_pairing_matrix(rd: RootDatum) -> CartanMatrix:
    """The pairing P_ij = a_j(h_i) of fundamental roots against coroots.

    This is the transpose of ``cartan_matrix`` and is the matrix under which
    the Serre relations hold verbatim in the realization.
    """
    r = rd.realization
    coords = [r.diag_coords(h) for h in rd.fundamental_coroots]
    rows = []
    for i in range(len(coords)):
        row = []
        for j, root in enumerate(rd.fundamental_roots):
            value = dot(root, coords[i])
            if value.denominator != 1:
                raise InternalConsistencyError(
                    f"coroot pairing ({i + 1},{j + 1}) = {value} is not an integer"
                )
            row.append(int(value))
        rows.append(tuple(row))
    return CartanMatrix(tuple(rows))


def root_lengths(rd: RootDatum) -> tuple[Fraction, ...]:
    """Squared lengths <a_i, a_i> of the fundamental roots."""
    inner = weight_inner(rd)
    return tuple(inner(a, a) for a in rd.fundamental_roots)


@dataclass(frozen=True)
class KillingCoefficients:
    """Killing form on the Cartan as multiples of two reference forms.

    ``sigma`` is the coefficient against sum_i x_i y_i in the diagonal
    coordinates; ``trace`` is the coefficient against tr(xy) of the matrices
    themselves.  For the doubled realizations (sp, so) tr(xy) is twice the
    coordinate sum, so the two coefficients differ by a factor 2.
    """

    sigma: Fraction
    trace: Fraction


def killing_coefficients(rd: RootDatum) -> KillingCoefficients:
    """Exact fit of the Cartan Killing form against both reference forms."""
    r = rd.realization
    cartan = r.cartan_basis
    coords = [r.diag_coords(h) for h in cartan]
    gram = cartan_killing_gram(rd)
    size = len(cartan)

    sigma: Fraction | None = None
    trace: Fraction | None = None
    for i in range(size):
        for j in range(size):
            ref_sigma = dot(coords[i], coords[j])
            ref_trace = (cartan[i] @ cartan[j]).trace()
            if sigma is None and ref_sigma:
                sigma = gram[i][j] / ref_sigma
            if trace is None and ref_trace:
                trace = gram[i][j] / ref_trace
    if sigma is None or trace is None:
        raise InternalConsistencyError("degenerate reference forms on the Cartan")
    for i in range(size):
        for j in range(size):
            if gram[i][j] != sigma * dot(coords[i], coords[j]):
                raise InternalConsistencyError(
                    "Killing form is not proportional to the coordinate sum form"
                )
            if gram[i][j] != trace * (cartan[i] @ cartan[j]).trace():
                raise InternalConsistencyError(
                    "Killing form is not proportional to the trace form"
                )
    return KillingCoefficients(sigma=sigma, trace=trace)
