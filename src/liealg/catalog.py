"""Canonical matrix realizations of the classical families.

Each realization carries a labelled basis in a fixed deterministic order:
the diagonal Cartan elements first, then one vector per positive root
(sorted by root coordinates), then their images under the opposite-graph
antimorphism, which span the negative root spaces.

Every Cartan subalgebra is diagonal, so each edge i -> j of a matrix
carries its own weight, chi_i - chi_j (``AlgebraRealization.edge_weight``).
ad(x) is an ``EdgeMatrix`` over the basis too: entry (j, k) is the
coefficient of b_j in [x, b_k].
"""

from __future__ import annotations

from functools import cache, cached_property

from .digraph import opposite_antimorphism
from .exact import Scalar, Weight, canonical, format_weight
from .families import AlgebraFamily, AlgebraSpec
from .edges import EdgeMatrix, mat_bracket
from .matrices import SpanSolver
from .records import InternalConsistencyError, Record


class AlgebraRealization(Record):
    """A concrete algebra: labelled basis and Cartan choice."""

    __slots__ = ("spec", "basis", "__dict__")
    spec: AlgebraSpec
    basis: tuple[tuple[str, EdgeMatrix], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def cartan_indices(self) -> tuple[int, ...]:
        return tuple(range(self.spec.lie_rank))  # the Cartan elements come first

    @property
    def cartan_basis(self) -> tuple[EdgeMatrix, ...]:
        return tuple(self.basis[i][1] for i in self.cartan_indices)

    @cached_property
    def span(self) -> SpanSolver:
        """The basis edges, eliminated once on first use.

        ``build`` reads the rank from it and ``ad_matrix`` expands over it.
        """
        return SpanSolver(mat.edges for _, mat in self.basis)

    def diag_coords(self, h: EdgeMatrix) -> tuple[Scalar, ...]:
        """Coordinates x_1..x_n of a Cartan element; validates its shape.

        The Cartan subalgebras are diagonal: diag(x) for sl (sum zero),
        diag(x, -x) for sp and even so, diag(x, -x, 0) for odd so.  The
        coordinates are h's diagonal entries, so they are canonical scalars:
        ints for every coroot of the classical families.
        """
        n = self.spec.rank
        if h.dim != self.spec.realization_dim:
            raise ValueError("dimension mismatch with realization")
        if any(r != c for (r, c) in h.edges):
            raise ValueError("not a Cartan element: off-diagonal entries present")
        diag = h.diagonal()
        if self.spec.family is AlgebraFamily.SL:
            if sum(diag):
                raise ValueError("not a Cartan element: nonzero trace")
            return tuple(diag)
        coords = diag[:n]
        if any(diag[n + i] != -coords[i] for i in range(n)):
            raise ValueError("not a Cartan element: blocks are not opposite")
        if self.spec.family is AlgebraFamily.SO_ODD and diag[2 * n]:
            raise ValueError("not a Cartan element: last diagonal entry nonzero")
        return tuple(coords)

    def edge_weight(self, i: int, j: int) -> Weight:
        """The weight chi_i - chi_j of the edge i -> j (0-indexed slots).

        chi_k reads slot k as ``diag_coords`` does: x_k in the first n slots,
        -x_(k-n) in the next n, and 0 in the last slot of odd so.
        """
        return _edge_weight(self.spec.rank, i, j)


def _edge_weight(n: int, i: int, j: int) -> Weight:
    chi = lambda k: [(k == s) - (k == s + n) for s in range(n)]
    return tuple(a - b for a, b in zip(chi(i), chi(j)))


def _positive_root_table(spec: AlgebraSpec) -> list[tuple[Weight, EdgeMatrix]]:
    """Positive roots with their canonical edge-basis vectors, sorted.

    Each root is read off its vector's edges.
    """
    n = spec.rank
    E = lambda i, j: EdgeMatrix.unit(spec.realization_dim, i, j)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if spec.family is AlgebraFamily.SL:
        mats = [E(i, j) for i, j in pairs]
    else:
        mats = [E(i, j) - E(n + j, n + i) for i, j in pairs]
        if spec.family is AlgebraFamily.SP:
            mats += [E(i, n + j) + E(j, n + i) for i, j in pairs]
            mats += [E(i, n + i) for i in range(1, n + 1)]
        else:
            mats += [E(i, n + j) - E(j, n + i) for i, j in pairs]
            if spec.family is AlgebraFamily.SO_ODD:
                mats += [E(2 * n + 1, n + i) - E(i, 2 * n + 1) for i in range(1, n + 1)]
    table = [(_edge_weight(n, *min(mat.edges)), mat) for mat in mats]
    table.sort(key=lambda item: item[0], reverse=True)
    return table


@cache
def structure_form(spec: AlgebraSpec) -> EdgeMatrix | None:
    """The defining bilinear form S (none for sl), built once per spec."""
    n = spec.rank
    if spec.family is AlgebraFamily.SL:
        return None
    lower_sign = -1 if spec.family is AlgebraFamily.SP else 1
    edges = {}
    for i in range(n):
        edges[(i, n + i)] = 1
        edges[(n + i, i)] = lower_sign
    if spec.family is AlgebraFamily.SO_ODD:
        edges[(2 * n, 2 * n)] = 1
    return EdgeMatrix(spec.realization_dim, edges)


def build(spec: AlgebraSpec) -> AlgebraRealization:
    """Construct the canonical basis and Cartan subalgebra for a family."""
    n = spec.rank
    d = spec.realization_dim
    E = lambda i, j: EdgeMatrix.unit(d, i, j)

    basis: list[tuple[str, EdgeMatrix]] = []
    if spec.family is AlgebraFamily.SL:
        for i in range(1, n):
            basis.append((f"h{i}", E(i, i) - E(i + 1, i + 1)))
    else:
        for i in range(1, n + 1):
            basis.append((f"h{i}", E(i, i) - E(n + i, n + i)))

    positives = _positive_root_table(spec)
    for root, mat in positives:
        basis.append((f"x({format_weight(root)})", mat))
    for root, mat in positives:
        neg = tuple(-c for c in root)
        basis.append(
            (f"x({format_weight(neg)})", opposite_antimorphism(mat, spec.family))
        )

    realization = AlgebraRealization(spec, tuple(basis))

    if realization.dimension != spec.dimension:
        raise InternalConsistencyError(
            f"{spec}: built {realization.dimension} basis elements, "
            f"expected {spec.dimension}"
        )
    for label, mat in realization.basis:
        if not check_membership(mat, spec):
            raise InternalConsistencyError(f"{spec}: basis element {label} not a member")
    rank = len(realization.span.independent)
    if rank != spec.dimension:
        raise InternalConsistencyError(
            f"{spec}: basis has rank {rank}, expected {spec.dimension}"
        )
    return realization


def check_membership(x: EdgeMatrix, spec: AlgebraSpec) -> bool:
    """Exact test of the defining relation: trace 0, or X^t S + S X = 0.

    For sp and so, S is a signed involution: row p holds sigma_p in column
    pi(p), and pi is its own inverse.  Entry (p, q) of X^t S + S X is then
    sigma_pi(q) X[pi(q), p] + sigma_p X[pi(p), q], so the relation holds
    exactly when X[pi(c), pi(r)] = -sigma_pi(r) sigma_pi(c) X[r, c] on every
    edge r -> c of X: a relabelling of the edges, with no matrix product.
    Every entry is read through ``canonical``, so a float or a bool raises
    TypeError in every family.
    """
    if x.dim != spec.realization_dim:
        raise ValueError(
            f"dimension mismatch: matrix has dim {x.dim}, "
            f"{spec} is realized in dim {spec.realization_dim}"
        )
    edges = {rc: canonical(v) for rc, v in x.edges.items()}
    if spec.family is AlgebraFamily.SL:
        return x.trace() == 0
    pi, sigma = _signed_involution(spec)
    return all(
        edges.get((pi[c], pi[r]), 0) == -sigma[pi[r]] * sigma[pi[c]] * v
        for (r, c), v in edges.items()
    )


@cache
def _signed_involution(spec: AlgebraSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """pi and sigma of S, read off ``structure_form``: S[p, pi(p)] = sigma_p."""
    S = structure_form(spec)
    assert S is not None
    pi = [0] * S.dim
    sigma = [0] * S.dim
    for (p, q), s in S.edges.items():
        pi[p], sigma[p] = q, s
    return tuple(pi), tuple(sigma)


def ad_matrix(r: AlgebraRealization, x: EdgeMatrix) -> EdgeMatrix:
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
