"""One exact echelon kernel on sparse vectors, and its front-ends.

Every linear computation runs through one sparse echelon kernel with no
pivot tolerance: a pivot is zero exactly or not at all.  A vector is a
mapping from orderable keys (matrix edges, coordinate indices) to exact
rationals.  Rows and combinations keep the canonical form of
``exact.canonical``, so integral inputs with pivots +-1 are eliminated in
int arithmetic throughout.  ``SpanSolver`` is the one expansion front-end,
for the rank and the ad coordinates of an algebra's basis, the
fundamental-root expansions, ``solve_linear`` (the fundamental weights, all
over one elimination) and the independent roots of the root-axiom verifier,
which reads every root's expansion off the elimination itself;
``determinant`` and ``is_positive_definite`` read the pivots directly.

The matrix type of the realizations is ``edges.EdgeMatrix``.  This module
builds no matrix, so the root-axiom checks and ``classify`` run it alone.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from .exact import Scalar, canonical, ratio


def _add_multiple(acc: dict, row: Mapping, factor: Scalar) -> None:
    """acc += factor * row in place, dropping entries that cancel to zero."""
    for key, value in row.items():
        new = acc.get(key, 0) + factor * value
        if new:
            acc[key] = canonical(new)
        else:
            acc.pop(key, None)


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

    The family is eliminated once, in order: ``independent`` holds the
    indices of the members that are not combinations of earlier ones.  Each
    expansion then costs one reduction, and a member's own expansion none
    (``expand_member``).
    """

    def __init__(self, family: Iterable[Mapping]):
        self._echelon = _Echelon()
        # Per member k: None if it is independent, else the combination {j: c_j}
        # it reduced to, kept as built: 0 = sum c_j family_j, with c_k = 1.
        self._relations: list[dict | None] = []
        for k, v in enumerate(family):
            combination = {k: 1}
            self._relations.append(None if self._echelon.add(v, combination) else combination)
        self.independent = tuple(k for k, r in enumerate(self._relations) if r is None)

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

    def expand_member(self, k: int) -> dict[int, Scalar]:
        """``expand(family[k])``, read off the elimination with no reduction.

        An independent member is its own expansion; a dependent one reduced
        to 0 in the same steps that ``expand`` would take.  Raises IndexError
        for an index outside the family.
        """
        if not 0 <= k < len(self._relations):
            raise IndexError(f"member {k} of a family of {len(self._relations)}")
        relation = self._relations[k]
        if relation is None:
            return {k: 1}
        return {j: -c for j, c in relation.items() if j != k}


def solve_linear(
    matrix: Sequence[Sequence[Scalar]], *rhs: Sequence[Scalar]
) -> list[list[Scalar]]:
    """The unique exact x with ``matrix`` x = b, for each right-hand side b.

    The columns are eliminated once, and each b is expanded over them.
    Raises ValueError on a malformed, inconsistent or underdetermined system,
    checked in that order over all the right-hand sides.
    """
    ncols = len(matrix[0]) if matrix else 0
    if (not matrix or any(len(b) != len(matrix) for b in rhs)
            or any(len(row) != ncols for row in matrix)):
        raise ValueError("malformed linear system")
    columns = SpanSolver(sparse_vector(column) for column in zip(*matrix))
    try:
        solutions = [columns.expand(sparse_vector(b)) for b in rhs]
    except ValueError:
        raise ValueError("inconsistent linear system") from None
    if len(columns.independent) < ncols:
        raise ValueError("underdetermined linear system")
    return [[solution.get(j, 0) for j in range(ncols)] for solution in solutions]


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
