"""Canonical matrix realizations of the classical families.

Each realization carries a labelled basis in a fixed deterministic order:
the diagonal Cartan elements first, then one vector per positive root
(sorted by root coordinates), then one per negative root in the same order.
In the paper's picture x(-a) is x(a) with every edge reversed: the orbit of
the reversed edge, which is the transpose of x(a).

Every Cartan subalgebra is diagonal, so each edge i -> j of a matrix
carries its own weight, chi_i - chi_j (``AlgebraRealization.edge_weight``).
ad(x) is an ``EdgeMatrix`` over the basis too: entry (j, k) is the
coefficient of b_j in [x, b_k].

sp and so are read off one signed involution (pi, sigma), the structure
form S with S[p, pi(p)] = sigma_p: slot i pairs with slot n + i, sigma is
-1 on sp's second block, and odd so fixes its last slot.  S relabels each
edge r -> c as its partner pi(c) -> pi(r) at sign -sigma_pi(r) sigma_pi(c),
and the members are exactly the combinations that this relabelling fixes.
So the orbit of one edge, the edge plus its partner, is a member; an edge
that is its own partner stands alone at sign +1 and is in no member at -1.
"""

from __future__ import annotations

from functools import cache, cached_property

from .exact import Scalar, Weight, format_weight, is_positive, negate
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

        The Cartan subalgebras are the diagonal members, which
        ``check_membership`` validates: diag(x) for sl (sum zero); for sp and so
        the orbit of edge i -> i pairs x_i with -x_i in slot n + i, and odd so's
        last slot, its own partner at sign -1, holds 0.  The coordinates are
        h's first n diagonal entries: ints for every coroot of the classical
        families.
        """
        if any(r != c for (r, c) in h.edges):
            raise ValueError("not a Cartan element: off-diagonal entries present")
        if not check_membership(h, self.spec):
            raise ValueError(f"not a Cartan element: diagonal is not in {self.spec}")
        return h.diagonal()[: self.spec.rank]

    def edge_weight(self, i: int, j: int) -> Weight:
        """The weight chi_i - chi_j of the edge i -> j (0-indexed slots).

        chi_k reads slot k as ``diag_coords`` does: x_k in the first n slots,
        -x_(k-n) in the next n, and 0 in the last slot of odd so.  Raises
        TypeError unless both slots are ints (a bool is not), and ValueError
        for a slot outside the realization.
        """
        for slot in (i, j):
            if type(slot) is not int:
                raise TypeError(f"slot must be an int, got {type(slot).__name__}")
            if not 0 <= slot < self.spec.realization_dim:
                raise ValueError(f"slot {slot} is outside 0..{self.spec.realization_dim - 1}")
        return _edge_weight(self.spec.rank, i, j)


def _edge_weight(n: int, i: int, j: int) -> Weight:
    weight = [0] * n
    for k, sign in ((i, 1), (j, -1)):
        if k < 2 * n:  # odd so's last slot reads 0
            weight[k % n] += sign if k < n else -sign
    return tuple(weight)


def build(spec: AlgebraSpec) -> AlgebraRealization:
    """Construct the canonical basis and Cartan subalgebra for a family.

    sl takes the differences of adjacent diagonal entries as its Cartan
    elements.  sp and so take the orbits of the diagonal edges of the first n
    slots, an edge plus its partner pi(c) -> pi(r) at sign
    -sigma_pi(r) sigma_pi(c).  The positive root vectors are the orbits of the
    upper edges r < c of positive weight, each orbit once; for sl an orbit
    is the edge alone.  x(-a) is the orbit of the reversed edge c -> r, the
    transpose of x(a): the partner pi(r) -> pi(c) carries the same sign.
    """
    n = spec.rank
    d = spec.realization_dim
    involution = _signed_involution(spec)

    if involution is None:
        cartan = [EdgeMatrix(d, {(i, i): 1, (i + 1, i + 1): -1}) for i in range(n - 1)]
    else:
        cartan = [EdgeMatrix(d, _orbit(involution, i, i)) for i in range(n)]
    basis = [(f"h{i}", h) for i, h in enumerate(cartan, 1)]

    positives = []
    for r in range(d):
        for c in range(r + 1, d):
            # The orbit test comes first: it is cheaper than the weight.
            orbit = _orbit(involution, r, c)
            if orbit and min(orbit) == (r, c) and is_positive(root := _edge_weight(n, r, c)):
                positives.append((root, r, c))
    positives.sort(reverse=True)  # the roots are distinct, so the edges never decide
    for root, r, c in positives:
        basis.append((f"x({format_weight(root)})", EdgeMatrix(d, _orbit(involution, r, c))))
    for root, r, c in positives:
        basis.append(
            (f"x({format_weight(negate(root))})", EdgeMatrix(d, _orbit(involution, c, r)))
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
    edge r -> c of X: X holds each of its edges with its partner at that
    sign, and no edge that is its own partner at sign -1.  A relabelling of
    the edges, with no matrix product.
    """
    if x.dim != spec.realization_dim:
        raise ValueError(
            f"dimension mismatch: matrix has dim {x.dim}, "
            f"{spec} is realized in dim {spec.realization_dim}"
        )
    if spec.family is AlgebraFamily.SL:
        return x.trace() == 0
    pi, sigma = _signed_involution(spec)
    return all(
        x.edges.get((pi[c], pi[r]), 0) == -sigma[pi[r]] * sigma[pi[c]] * v
        for (r, c), v in x.edges.items()
    )


Involution = tuple[tuple[int, ...], tuple[int, ...]]


@cache
def _signed_involution(spec: AlgebraSpec) -> Involution | None:
    """pi and sigma of the structure form S, S[p, pi(p)] = sigma_p; None for sl.

    Slot i pairs with slot n + i, sigma is -1 on sp's second block and +1
    elsewhere, and odd so's last slot is its own pair.
    """
    if spec.family is AlgebraFamily.SL:
        return None
    n, d = spec.rank, spec.realization_dim
    pi = (*range(n, 2 * n), *range(n), *range(2 * n, d))
    second = -1 if spec.family is AlgebraFamily.SP else 1
    return pi, (1,) * n + (second,) * n + (1,) * (d - 2 * n)


def _orbit(involution: Involution | None, r: int, c: int) -> dict[tuple[int, int], int]:
    """The edges of the smallest member that holds the edge r -> c at 1.

    For sl (r != c) that is the edge alone.  For sp and so it is the edge
    and its partner; an edge that is its own partner stands alone at sign +1,
    and at sign -1 no member holds it, so the orbit is empty.
    """
    if involution is None:
        return {(r, c): 1}
    pi, sigma = involution
    partner, sign = (pi[c], pi[r]), -sigma[pi[r]] * sigma[pi[c]]
    if partner != (r, c):
        return {(r, c): 1, partner: sign}
    return {(r, c): 1} if sign == 1 else {}


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
