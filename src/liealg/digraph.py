"""Directed-edge view of matrices and the opposite-graph antimorphism.

A matrix over n vertices is a combination of edges i -> j (1-indexed).  Each
classical family carries a linear map T sending a matrix built from edges to
a signed combination of the reversed edges.  T is fixed per family so that it
is an antimorphism, an involution, and carries each root space g_a onto
g_(-a) of the canonical realization.
"""

from __future__ import annotations

from . import matrices
from .families import AlgebraFamily


def vertex_signs(family: AlgebraFamily, dim: int) -> tuple[int, ...]:
    """Vertex sign vector defining this family's opposite-graph map.

    For sp and even so the sign is -1 on the second block of vertices, so an
    edge picks up -1 exactly when it crosses the block boundary.  For sl and
    odd so all signs are +1 (for the odd orthogonal realization a crossing
    sign cannot map the border root vectors onto their opposites, so the
    plain transpose is the map satisfying the contract).
    """
    if family is AlgebraFamily.SL:
        if dim < 1:
            raise ValueError("sl needs dimension >= 1")
        return (1,) * dim
    if family in (AlgebraFamily.SP, AlgebraFamily.SO_EVEN):
        if dim < 2 or dim % 2:
            raise ValueError(f"{family.cli_name} needs even dimension, got {dim}")
        half = dim // 2
        return (1,) * half + (-1,) * half
    if family is AlgebraFamily.SO_ODD:
        if dim < 3 or dim % 2 == 0:
            raise ValueError(f"so-odd needs odd dimension >= 3, got {dim}")
        return (1,) * dim
    raise ValueError(f"unknown family {family}")


def opposite_antimorphism(
    x: matrices.EdgeMatrix, family: AlgebraFamily
) -> matrices.EdgeMatrix:
    """Send each edge to its reverse with the family's sign rule.

    Antimorphism on products (T(ab) = T(b)T(a)) and an involution; on each
    canonical realization it maps the root vector for a to a nonzero multiple
    of the root vector for -a.
    """
    return x.signed_transpose(vertex_signs(family, x.dim))
