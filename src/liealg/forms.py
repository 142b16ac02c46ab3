"""Killing forms, the induced inner product on weights, and Cartan matrices.

The Killing form is computed by two independent routes: tr(ad x @ ad y), with
each ad an ``EdgeMatrix`` over the basis (``adjoint``, which ``killing_form_ad``
calls), and the sum over roots of a(x)a(y).  On the Cartan subalgebra the two
agree identically, which ``verify ... killing`` checks and the test suite pins
down.

The root-sum Gram on the Cartan basis is summed and certified here to be
sigma times the coordinate sum form sum_i x_i y_i (``killing_coefficients``),
once per root datum: ``RootDatum.killing_metric`` caches the one Killing
record ``KillingMetric`` (``gram``, ``sigma``, ``trace``).  The induced inner
product on weights is therefore <u, v> = u.v / sigma, taken on the sum-zero
lifts for sl; no Gram matrix is inverted.

Two transposed Cartan matrix conventions are in circulation.  This package
builds both, as ``dynkin.CartanMatrix`` records:

* ``cartan_matrix``       A_ij = 2<a_i, a_j> / <a_j, a_j>,
  the convention of the classical printed matrices (C_n has -2 in its final
  row, B_n has -2 in its final column);
* ``coroot_pairing_matrix``   P_ij = a_j(h_i),
  its transpose, the matrix whose entries appear in the Serre relations
  [H_i, X_j] = P_ij X_j of the matrix realizations.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import adjoint, catalog, dynkin, edges, families, roots
from .exact import Inner, Scalar, Weight, canonical, ratio
from .matrices import dot
from .records import InternalConsistencyError, Record


def killing_form_ad(
    r: catalog.AlgebraRealization, x: edges.EdgeMatrix, y: edges.EdgeMatrix
) -> Scalar:
    """Trace of ad(x) composed with ad(y) in the canonical basis."""
    for m in (x, y):
        if not catalog.check_membership(m, r.spec):
            raise ValueError(f"matrix is not a member of {r.spec}")
    return (adjoint.ad_matrix(r, x) @ adjoint.ad_matrix(r, y)).trace()


# No caller in src/; kept because bench/traced.py spans it by name.
def killing_form_roots(rd: roots.RootDatum, x: edges.EdgeMatrix, y: edges.EdgeMatrix) -> Scalar:
    """Sum over all roots of a(x) a(y); x and y must be Cartan elements."""
    r = rd.realization
    cx = r.diag_coords(x)
    cy = r.diag_coords(y)
    return canonical(sum(dot(root, cx) * dot(root, cy) for root in rd.roots))


class KillingMetric(Record):
    """The Killing form on the Cartan basis h_1..h_r of one root datum.

    ``gram`` holds K(h_i, h_j) = sum over roots a(h_i) a(h_j), the ad-trace
    form, since ad(h) is diagonal in the canonical basis with the root values
    as eigenvalues.  It is certified to be exactly ``sigma`` (x_i . x_j) and
    ``trace`` tr(h_i h_j), with sigma nonzero; for the doubled realizations
    (sp, so) tr(xy) is twice the coordinate sum, so trace = sigma / 2.
    """

    __slots__ = ("gram", "sigma", "trace")
    gram: tuple[tuple[Scalar, ...], ...]
    sigma: Scalar
    trace: Scalar


def killing_coefficients(rd: roots.RootDatum) -> KillingMetric:
    """Sum the Cartan Gram over the root eigenvalues and prove it proportional."""
    r = rd.realization
    cartan = r.cartan_basis
    coords = [r.diag_coords(h) for h in cartan]
    eigen = [[dot(a, x) for a in rd.roots] for x in coords]
    gram = tuple(tuple(dot(ei, ej) for ej in eigen) for ei in eigen)
    sigma = _proportion(gram, [[dot(x, y) for y in coords] for x in coords], "coordinate sum form")
    trace = _proportion(gram, [[(x @ y).trace() for y in cartan] for x in cartan], "trace form")
    return KillingMetric(gram, sigma, trace)


def _proportion(
    gram: Sequence[Sequence[Scalar]], reference: Sequence[Sequence[Scalar]], form: str
) -> Scalar:
    """The nonzero c with gram = c * reference entrywise; raises if there is none."""
    pairs = [(i, j) for i in range(len(gram)) for j in range(len(gram))]
    c = next((ratio(gram[i][j], reference[i][j]) for i, j in pairs if reference[i][j]), None)
    if c is None:
        raise InternalConsistencyError("degenerate reference forms on the Cartan")
    if not c:
        raise InternalConsistencyError("Killing form vanishes on the Cartan")
    if any(gram[i][j] != c * reference[i][j] for i, j in pairs):
        raise InternalConsistencyError(f"Killing form is not proportional to the {form}")
    return c


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


def cartan_matrix(rd: roots.RootDatum) -> dynkin.CartanMatrix:
    """Cartan matrix A_ij = 2<a_i,a_j>/<a_j,a_j> over the Killing inner product.

    Non-integer ratios abort: integrality is a theorem, so a violation means
    the inner product is wrong.
    """
    return dynkin.CartanMatrix(dynkin.cartan_entries(rd.fundamental_roots, weight_inner(rd)))


def coroot_pairing_matrix(rd: roots.RootDatum) -> dynkin.CartanMatrix:
    """The pairing P_ij = a_j(h_i) of fundamental roots against coroots.

    This is the transpose of ``cartan_matrix`` and is the matrix under which
    the Serre relations hold verbatim in the realization.
    """
    return dynkin.CartanMatrix(
        dynkin.integer_rows(
            "coroot pairing",
            ((dot(a, h) for a in rd.fundamental_roots) for h in rd.fundamental_coroots),
        )
    )


def root_lengths(rd: roots.RootDatum) -> tuple[Scalar, ...]:
    """Squared lengths <a_i, a_i> of the fundamental roots."""
    inner = weight_inner(rd)
    return tuple(inner(a, a) for a in rd.fundamental_roots)
