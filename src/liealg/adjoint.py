"""The adjoint representation over a realization's basis, and the Killing form
read off it with no root.

``ad_matrix`` gives ad(x) = [x, .] as an ``EdgeMatrix`` over the basis: entry
(j, k) is the coefficient of b_j in [x, b_k], expanded over the realization's
one basis elimination.  ``cartan_killing_gram_ad`` takes tr(ad x ad y) on the
Cartan basis, the route that ``verify ... killing`` compares with the root
sum of ``forms.killing_coefficients``; ``forms.killing_form_ad`` is the same
form on one pair.  Only those two run this module.
"""

from __future__ import annotations

from . import catalog
from .edges import EdgeMatrix, mat_bracket
from .exact import Scalar, canonical
from .records import InternalConsistencyError


def ad_matrix(r: catalog.AlgebraRealization, x: EdgeMatrix) -> EdgeMatrix:
    """ad(x) = [x, .] over the basis of r.

    Entry (j, k) is the coefficient of b_j in [x, b_k], expanded over
    ``r.span``.
    """
    edges = {}
    for k, (_, b) in enumerate(r.basis):
        try:
            column = r.span.expand(mat_bracket(x, b).edges)
        except ValueError as exc:
            raise InternalConsistencyError(
                "adjoint image falls outside the span of the basis"
            ) from exc
        edges.update(((j, k), c) for j, c in column.items())
    return EdgeMatrix(r.dimension, edges)


def cartan_killing_gram_ad(r: catalog.AlgebraRealization) -> tuple[tuple[Scalar, ...], ...]:
    """tr(ad h_i ad h_j) on every pair of Cartan basis elements.

    One ad(h) per basis element, over the realization's one basis
    elimination, serves all the pairs; nothing is read from the roots.  The
    trace of a product AB is the sum over A's edges (i, k) of A_ik B_ki, so
    no product is formed.
    """
    ads = [ad_matrix(r, h).edges for h in r.cartan_basis]
    return tuple(
        tuple(canonical(sum(a * b.get((k, i), 0) for (i, k), a in ax.items())) for b in ads)
        for ax in ads
    )
