"""Sparse square matrices over exact rationals, plus one exact echelon kernel.

The matrix type is the workhorse for every algebra realization.  It stores
only its nonzero entries, as a map from (row, column) edges to exact
rationals, each in the form of ``exact.canonical`` (an int when integral);
it is immutable, and all operations are pure and cost time in proportion to
the nonzeros they touch.

Every linear computation runs through one sparse echelon kernel with no
pivot tolerance: a pivot is zero exactly or not at all.  Its rows and
combinations keep the canonical form too, so integral inputs with pivots
+-1 are eliminated in int arithmetic throughout.  ``SpanSolver`` is
its one expansion front-end, for the rank and the ad coordinates of an
algebra's basis, the fundamental-root expansions, ``solve_linear`` (the
fundamental weights) and the independent roots of the root-axiom verifier;
``determinant`` and ``is_positive_definite`` read the pivots directly.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from .exact import Scalar, canonical, ratio
from .records import Record

Position = tuple[int, int]  # (row, column), 0-indexed


def _add_multiple(acc: dict, row: Mapping, factor: Scalar) -> None:
    """acc += factor * row in place, dropping entries that cancel to zero."""
    for key, value in row.items():
        new = acc.get(key, 0) + factor * value
        if new:
            acc[key] = canonical(new)
        else:
            acc.pop(key, None)


class EdgeMatrix(Record):
    """Immutable square matrix over exact rationals, stored by its edges.

    The name records the reading: the elementary matrix with a 1 in row i,
    column j is the directed edge i -> j, and a general matrix is a rational
    linear combination of such edges.  ``edges`` maps (row, column),
    0-indexed, to the nonzero entries only and must not be mutated; every
    operation keeps explicit zeros out, so equal matrices have equal maps,
    and returns each entry in canonical form: an int when it is an integer,
    a Fraction otherwise.
    """

    __slots__ = ("dim", "edges")
    dim: int
    edges: dict[Position, Scalar]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]]) -> "EdgeMatrix":
        dim = len(rows)
        if dim == 0:
            raise ValueError("matrix must have positive dimension")
        edges: dict[Position, Scalar] = {}
        for r, row in enumerate(rows):
            if len(row) != dim:
                raise ValueError("matrix must be square")
            for c, x in enumerate(row):
                if x := canonical(x):
                    edges[(r, c)] = x
        return EdgeMatrix(dim, edges)

    @staticmethod
    def zero(dim: int) -> "EdgeMatrix":
        if dim <= 0:
            raise ValueError("matrix must have positive dimension")
        return EdgeMatrix(dim, {})

    @staticmethod
    def identity(dim: int) -> "EdgeMatrix":
        if dim <= 0:
            raise ValueError("matrix must have positive dimension")
        return EdgeMatrix(dim, {(i, i): 1 for i in range(dim)})

    @staticmethod
    def unit(dim: int, i: int, j: int) -> "EdgeMatrix":
        """Elementary matrix with a single 1 at (row i, column j), 1-indexed."""
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise ValueError(f"unit index ({i},{j}) out of range for dim {dim}")
        return EdgeMatrix(dim, {(i - 1, j - 1): 1})

    @property
    def rows(self) -> tuple[tuple[Scalar, ...], ...]:
        """Read-only dense view, zeros filled in."""
        dense = [[0] * self.dim for _ in range(self.dim)]
        for (r, c), x in self.edges.items():
            dense[r][c] = x
        return tuple(tuple(row) for row in dense)

    def __getitem__(self, rc: Position) -> Scalar:
        return self.edges.get(rc, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeMatrix):
            return NotImplemented
        return self.dim == other.dim and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.dim, frozenset(self.edges.items())))

    def __add__(self, other: "EdgeMatrix") -> "EdgeMatrix":
        self._require_same_dim(other)
        edges = dict(self.edges)
        _add_multiple(edges, other.edges, 1)
        return EdgeMatrix(self.dim, edges)

    def __sub__(self, other: "EdgeMatrix") -> "EdgeMatrix":
        self._require_same_dim(other)
        edges = dict(self.edges)
        _add_multiple(edges, other.edges, -1)
        return EdgeMatrix(self.dim, edges)

    def __neg__(self) -> "EdgeMatrix":
        return EdgeMatrix(self.dim, {rc: -x for rc, x in self.edges.items()})

    def scale(self, c: Scalar) -> "EdgeMatrix":
        if not (c := canonical(c)):
            return EdgeMatrix(self.dim, {})
        return EdgeMatrix(self.dim, {rc: canonical(c * x) for rc, x in self.edges.items()})

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
        return EdgeMatrix(self.dim, {rc: canonical(x) for rc, x in acc.items() if x})

    def transpose(self) -> "EdgeMatrix":
        return EdgeMatrix(self.dim, {(c, r): x for (r, c), x in self.edges.items()})

    def signed_transpose(self, signs: Sequence[int]) -> "EdgeMatrix":
        """Transpose with each entry (i,j) multiplied by signs[i]*signs[j]."""
        if len(signs) != self.dim:
            raise ValueError("sign vector length must equal matrix dimension")
        return EdgeMatrix(
            self.dim,
            {(c, r): signs[r] * signs[c] * x for (r, c), x in self.edges.items()},
        )

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


# ---------------------------------------------------------------------------
# The exact echelon kernel on sparse rows.
# ---------------------------------------------------------------------------


class _Echelon:
    """Sparse rows in echelon form, each stored under its pivot (least key).

    A stored row is scaled so its pivot entry is 1; a pivot of +-1 is its
    own inverse, so an int row stays an int row.  Stored rows are read only
    through ``_add_multiple``, which returns canonical values.  A row may
    carry a combination {input index: coefficient}; reducing the row adds
    the same multiples of the stored rows' combinations to it, so a caller
    that starts from {k: 1} for input k can read every row as a combination
    of the inputs.
    """

    def __init__(self) -> None:
        self.rows: dict = {}  # pivot -> (row, combination)

    def reduce(self, row: Mapping, combination: dict | None = None) -> dict:
        """Subtract stored rows until the pivot is new; returns the residual.

        ``combination`` is updated in place.
        """
        row = dict(row)
        while row:
            pivot = min(row)
            stored = self.rows.get(pivot)
            if stored is None:
                break
            factor = -row[pivot]
            _add_multiple(row, stored[0], factor)
            if combination is not None:
                _add_multiple(combination, stored[1], factor)
        return row

    def add(self, row: Mapping, combination: dict | None = None) -> dict:
        """Reduce the row and store the residual when nonzero; returns it."""
        residual = self.reduce(row, combination)
        if residual:
            pivot = min(residual)
            value = residual[pivot]
            inverse = value if value in (1, -1) else ratio(1, value)
            self.rows[pivot] = (
                {key: inverse * x for key, x in residual.items()},
                {key: inverse * x for key, x in (combination or {}).items()},
            )
        return residual


def sparse_vector(values: Iterable[Scalar]) -> dict[int, Scalar]:
    """The nonzero entries {index: value} of a dense vector, in canonical form."""
    return {i: f for i, x in enumerate(values) if (f := canonical(x))}


class SpanSolver:
    """Exact expansion over an ordered family of sparse vectors.

    A vector is a mapping from orderable keys (matrix edges, coordinate
    indices) to exact rationals.  The family is eliminated once, in order:
    ``independent`` holds the indices of the members that are not
    combinations of earlier ones.  Each expansion then costs one reduction.
    """

    def __init__(self, family: Iterable[Mapping]):
        self._echelon = _Echelon()
        self.independent = tuple(
            k for k, v in enumerate(family) if self._echelon.add(v, {k: 1})
        )

    def expand(self, v: Mapping) -> dict[int, Scalar]:
        """The nonzero coefficients {k: c_k}, k in ``independent``, with
        v = sum c_k family_k.

        Raises ValueError if v is not in the span.
        """
        combination: dict[int, Scalar] = {}
        if self._echelon.reduce(v, combination):
            raise ValueError("vector does not lie in the span of the family")
        # The residual 0 = v + sum c_k family_k.
        return {k: -c for k, c in combination.items()}


def solve_linear(
    matrix: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]
) -> list[Scalar]:
    """The unique exact x with ``matrix`` x = rhs: rhs expanded over the columns.

    Raises ValueError on a malformed, inconsistent or underdetermined system,
    checked in that order.
    """
    ncols = len(matrix[0]) if matrix else 0
    if not matrix or len(rhs) != len(matrix) or any(len(row) != ncols for row in matrix):
        raise ValueError("malformed linear system")
    columns = SpanSolver(sparse_vector(column) for column in zip(*matrix))
    try:
        solution = columns.expand(sparse_vector(rhs))
    except ValueError:
        raise ValueError("inconsistent linear system") from None
    if len(columns.independent) < ncols:
        raise ValueError("underdetermined linear system")
    return [solution.get(j, 0) for j in range(ncols)]


def determinant(matrix: Sequence[Sequence[Scalar]]) -> Scalar:
    """Exact determinant by echelon reduction of the rows.

    It is the product of the pivots times the sign of the order in which
    their columns occur.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant requires a square matrix")
    echelon = _Echelon()
    det = 1
    columns: list[int] = []
    for row in matrix:
        residual = echelon.add(sparse_vector(row))
        if not residual:
            return 0
        columns.append(min(residual))
        det = canonical(det * residual[columns[-1]])
    inversions = sum(a > b for i, a in enumerate(columns) for b in columns[i + 1 :])
    return -det if inversions % 2 else det


def is_positive_definite(matrix: Sequence[Sequence[Scalar]]) -> bool:
    """Sylvester test, all leading principal minors D_k > 0, in one elimination.

    The rows are added in order.  Row k, reduced by the rows before it, must
    keep its pivot in column k, and that pivot is D_k / D_(k-1).
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("positive definiteness requires a square matrix")
    echelon = _Echelon()
    for k, row in enumerate(matrix):
        residual = echelon.add(sparse_vector(row))
        if not residual or min(residual) != k or residual[k] <= 0:
            return False
    return True


def dot(x: Sequence[Scalar], y: Sequence[Scalar]) -> Scalar:
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    return canonical(sum(a * b for a, b in zip(x, y)))
