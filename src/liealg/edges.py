"""Matrices in the paper's edge notation, and their bracket.

``EdgeMatrix`` is the one exact matrix type: every algebra realization, its
ad matrices and its sl2 triples are rational combinations of edges i -> j.
It is immutable, its operations cost time in proportion to the nonzeros
they touch, and its product composes edges, (i -> k)(k -> j) = (i -> j).
``mat_bracket`` is the commutator.  Elimination is left to ``matrices``;
the root-axiom checks and ``classify`` build no matrix, so they never run
this module.
"""

from __future__ import annotations

from .exact import Scalar, canonical
from .records import Record

Position = tuple[int, int]  # (row, column), 0-indexed


class EdgeMatrix(Record):
    """Immutable square matrix over exact rationals, stored by its edges.

    The name records the reading: the elementary matrix with a 1 in row i,
    column j is the directed edge i -> j, and a general matrix is a rational
    linear combination of such edges.  ``edges`` maps (row, column),
    0-indexed, to the nonzero entries only and must not be mutated.  Only the
    constructor checks and normalizes them: a dim that is not an int >= 1 or
    an edge outside the matrix is a ValueError, entries go through
    ``canonical`` and zeros drop out.  So operations hand it raw sums, and
    equal matrices have equal maps.
    """

    __slots__ = ("dim", "edges")
    dim: int
    edges: dict[Position, Scalar]

    def __init__(self, dim: int, edges: dict[Position, Scalar]) -> None:
        if type(dim) is not int or dim < 1:
            raise ValueError(f"matrix dimension must be an int >= 1, got {dim!r}")
        clean: dict[Position, Scalar] = {}
        for (r, c), x in edges.items():
            if not (type(r) is int and type(c) is int and 0 <= r < dim and 0 <= c < dim):
                raise ValueError(f"edge {(r, c)!r} lies outside a {dim}x{dim} matrix")
            if x := canonical(x):
                clean[r, c] = x
        super().__init__(dim, clean)

    def __getitem__(self, rc: Position) -> Scalar:
        return self.edges.get(rc, 0)

    def __hash__(self) -> int:
        return hash((self.dim, frozenset(self.edges.items())))

    def __add__(self, other: "EdgeMatrix") -> "EdgeMatrix":
        return self._plus(other, 1)

    def __sub__(self, other: "EdgeMatrix") -> "EdgeMatrix":
        return self._plus(other, -1)

    def _plus(self, other: "EdgeMatrix", sign: int) -> "EdgeMatrix":
        """self + sign * other."""
        self._require_same_dim(other)
        edges = dict(self.edges)
        for rc, x in other.edges.items():
            edges[rc] = edges.get(rc, 0) + sign * x
        return EdgeMatrix(self.dim, edges)

    def __neg__(self) -> "EdgeMatrix":
        return EdgeMatrix(self.dim, {rc: -x for rc, x in self.edges.items()})

    def scale(self, c: Scalar) -> "EdgeMatrix":
        c = canonical(c)
        return EdgeMatrix(self.dim, {rc: c * x for rc, x in self.edges.items()})

    def __matmul__(self, other: "EdgeMatrix") -> "EdgeMatrix":
        """Product; on edges, (i->k)(k->j) = (i->j), and 0 when the ends differ."""
        self._require_same_dim(other)
        out_of: dict[int, list[tuple[int, Scalar]]] = {}
        for (k, j), b in other.edges.items():
            out_of.setdefault(k, []).append((j, b))
        acc: dict[Position, Scalar] = {}
        for (i, k), a in self.edges.items():
            for j, b in out_of.get(k, ()):
                acc[(i, j)] = acc.get((i, j), 0) + a * b
        return EdgeMatrix(self.dim, acc)

    def trace(self) -> Scalar:
        """Sum of diagonal entries; an edge i->j contributes iff i = j."""
        return canonical(sum(x for (r, c), x in self.edges.items() if r == c))

    def diagonal(self) -> tuple[Scalar, ...]:
        """The diagonal entries, in canonical form (ints when integral)."""
        return tuple(self.edges.get((i, i), 0) for i in range(self.dim))

    def is_zero(self) -> bool:
        return not self.edges

    def _require_same_dim(self, other: "EdgeMatrix") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")


def mat_bracket(a: EdgeMatrix, b: EdgeMatrix) -> EdgeMatrix:
    """Commutator ab - ba."""
    return a @ b - b @ a
