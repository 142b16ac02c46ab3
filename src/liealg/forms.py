"""Killing forms, the induced inner product on weights, and Cartan matrices.

The Killing form is computed by two independent routes: tr(ad x @ ad y), with
each ad an ``EdgeMatrix`` over the basis (``catalog.ad_matrix``), and the sum
over roots of a(x)a(y).  On the Cartan subalgebra the two agree
identically, which the test suite pins down.

The root-sum Gram on the Cartan basis is summed once per root datum, in
integers, and certified there to be sigma times the coordinate sum form
sum_i x_i y_i: ``RootDatum.killing_metric``, the one Killing record
``roots.KillingMetric`` (``gram``, ``sigma``, ``trace``).  The induced inner
product on weights is therefore <u, v> = u.v / sigma, taken on the sum-zero
lifts for sl; no Gram matrix is inverted.

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

from collections.abc import Iterable, Sequence

from . import catalog, families, roots
from .exact import Inner, Scalar, Weight, canonical, ratio
from .matrices import EdgeMatrix, dot
from .records import InternalConsistencyError, Record


def killing_form_ad(r: catalog.AlgebraRealization, x: EdgeMatrix, y: EdgeMatrix) -> Scalar:
    """Trace of ad(x) composed with ad(y) in the canonical basis."""
    for m in (x, y):
        if not catalog.check_membership(m, r.spec):
            raise ValueError(f"matrix is not a member of {r.spec}")
    return (catalog.ad_matrix(r, x) @ catalog.ad_matrix(r, y)).trace()


def cartan_killing_gram_ad(r: catalog.AlgebraRealization) -> tuple[tuple[Scalar, ...], ...]:
    """``killing_form_ad`` on every pair of Cartan basis elements.

    One ad(h) per basis element, over the realization's one basis
    elimination, serves all the pairs; nothing is read from the roots.
    """
    ads = [catalog.ad_matrix(r, h) for h in r.cartan_basis]
    return tuple(tuple((ax @ ay).trace() for ay in ads) for ax in ads)


# No caller in src/; kept because bench/traced.py spans it by name.
def killing_form_roots(rd: roots.RootDatum, x: EdgeMatrix, y: EdgeMatrix) -> Scalar:
    """Sum over all roots of a(x) a(y); x and y must be Cartan elements."""
    r = rd.realization
    cx = r.diag_coords(x)
    cy = r.diag_coords(y)
    return canonical(sum(dot(root, cx) * dot(root, cy) for root in rd.roots))


def weight_inner(rd: roots.RootDatum) -> Inner:
    """The inner product on weights induced by the Killing form.

    Transporting through the isomorphism h -> h* given by the Killing form
    yields <u, v> = eval(u) . K^-1 eval(v), with K the Cartan Gram.  Since K
    is certified to be sigma times the coordinate sum form, this is
    u.v / sigma.  For sl the Cartan is the sum-zero hyperplane, so u and v
    are first projected onto it: <u, v> = (u.v - (sum u)(sum v)/n) / sigma,
    which equals the inverse-Gram value on every input.
    """
    sigma = rd.killing_metric.sigma
    if rd.spec.family is not families.AlgebraFamily.SL:
        return lambda u, v: ratio(dot(u, v), sigma)
    n = rd.spec.rank

    def inner(u: Weight, v: Weight) -> Scalar:
        return ratio(dot(u, v) * n - sum(u) * sum(v), n * sigma)

    return inner


class CartanMatrix(Record):
    """Integer matrix with diagonal 2 and nonpositive off-diagonal entries."""

    __slots__ = ("entries",)
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries: tuple[tuple[int, ...], ...]) -> None:
        n = len(entries)
        if n == 0 or any(len(row) != n for row in entries):
            raise ValueError("Cartan matrix must be square and nonempty")
        for i in range(n):
            if entries[i][i] != 2:
                raise ValueError("Cartan matrix diagonal entries must equal 2")
            for j in range(n):
                if i == j:
                    continue
                a = entries[i][j]
                if a not in (0, -1, -2, -3):
                    raise ValueError(f"off-diagonal Cartan entry {a} outside {{0,-1,-2,-3}}")
                if (a == 0) != (entries[j][i] == 0):
                    raise ValueError("Cartan entries A_ij and A_ji must vanish together")
        super().__init__(entries)

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
    norms = [inner(a, a) for a in fundamental]
    return _integer_rows(
        "Cartan entry",
        ((ratio(2 * inner(a, b), norm) for b, norm in zip(fundamental, norms)) for a in fundamental),
    )


def _integer_rows(what: str, rows: Iterable[Iterable[Scalar]]) -> tuple[tuple[int, ...], ...]:
    """The rows of canonical values, checked in order to be ints; a non-integer
    entry is an internal inconsistency."""
    out = []
    for i, row in enumerate(rows, 1):
        out.append([])
        for j, value in enumerate(row, 1):
            if type(value) is not int:
                raise InternalConsistencyError(f"{what} ({i},{j}) = {value} is not an integer")
            out[-1].append(value)
    return tuple(map(tuple, out))


def cartan_matrix(rd: roots.RootDatum) -> CartanMatrix:
    """Cartan matrix A_ij = 2<a_i,a_j>/<a_j,a_j> over the Killing inner product.

    Non-integer ratios abort: integrality is a theorem, so a violation means
    the inner product is wrong.
    """
    return CartanMatrix(cartan_entries(rd.fundamental_roots, weight_inner(rd)))


def coroot_pairing_matrix(rd: roots.RootDatum) -> CartanMatrix:
    """The pairing P_ij = a_j(h_i) of fundamental roots against coroots.

    This is the transpose of ``cartan_matrix`` and is the matrix under which
    the Serre relations hold verbatim in the realization.
    """
    coords = [rd.realization.diag_coords(h) for h in rd.fundamental_coroots]
    return CartanMatrix(
        _integer_rows(
            "coroot pairing", ((dot(a, c) for a in rd.fundamental_roots) for c in coords)
        )
    )


def root_lengths(rd: roots.RootDatum) -> tuple[Scalar, ...]:
    """Squared lengths <a_i, a_i> of the fundamental roots."""
    inner = weight_inner(rd)
    return tuple(inner(a, a) for a in rd.fundamental_roots)


def killing_coefficients(rd: roots.RootDatum) -> roots.KillingMetric:
    """The root datum's certified Killing metric: its Gram, ``sigma`` and ``trace``."""
    return rd.killing_metric
