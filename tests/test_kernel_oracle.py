"""The exact kernels against sympy on seeded random input.

Matrices are sparse rationals, some singular by construction (a product of
thinner factors) and some permuted triangular, so pivots turn up in every
column order and the determinant's sign rule is exercised.  The polynomial
determinant gets matrices of sparse polynomials, some with a row that is a
polynomial multiple of another.
"""

import random
from fractions import Fraction

import pytest

from liealg.matrices import determinant, solve_linear, sparse_rank
from liealg.polynomials import MultiPoly, poly_det

sympy = pytest.importorskip("sympy")


def rational(rng: random.Random) -> Fraction:
    if rng.random() < 0.35:
        return Fraction(0)
    return Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 4))


def random_matrix(rng, nrows, ncols, rank=None):
    """Random rational matrix; with ``rank``, the product of two thinner factors."""
    if rank is None:
        return [[rational(rng) for _ in range(ncols)] for _ in range(nrows)]
    left = random_matrix(rng, nrows, rank)
    right = random_matrix(rng, rank, ncols)
    return [
        [sum((row[k] * right[k][j] for k in range(rank)), Fraction(0)) for j in range(ncols)]
        for row in left
    ]


def permuted_triangular(rng, n):
    rows = [
        [rng.choice((-3, -2, -1, 1, 2, 3)) if i == j else rational(rng) if j > i else 0
         for j in range(n)]
        for i in range(n)
    ]
    rng.shuffle(rows)
    return rows


def to_sympy(rows):
    return sympy.Matrix(
        [[sympy.Rational(Fraction(x).numerator, Fraction(x).denominator) for x in row]
         for row in rows]
    )


def from_sympy(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def square_cases():
    rng = random.Random(20261017)
    cases = []
    for trial in range(90):
        n = rng.randint(1, 6)
        kind = trial % 3
        if kind == 0:
            rows = random_matrix(rng, n, n)
            rng.shuffle(rows)
        elif kind == 1:
            rows = random_matrix(rng, n, n, rank=rng.randint(0, n - 1))
        else:
            rows = permuted_triangular(rng, n)
        cases.append(rows)
    return cases


def rectangular_cases():
    rng = random.Random(17102026)
    cases = []
    for trial in range(90):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rank = None if trial % 2 else rng.randint(0, min(nrows, ncols))
        rows = random_matrix(rng, nrows, ncols, rank)
        if trial % 3:
            x = [rational(rng) for _ in range(ncols)]
            rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in rows]
        else:
            rhs = [rational(rng) for _ in range(nrows)]
        cases.append((rows, rhs))
    return cases


def test_determinant_matches_sympy():
    cases = square_cases()
    assert any(determinant(rows) == 0 for rows in cases)
    assert any(determinant(rows) < 0 for rows in cases)
    for rows in cases:
        assert determinant(rows) == from_sympy(to_sympy(rows).det()), rows


def test_rank_matches_sympy():
    for rows, _ in rectangular_cases():
        sparse_rows = [{j: x for j, x in enumerate(row) if x} for row in rows]
        assert sparse_rank(sparse_rows) == to_sympy(rows).rank(), rows


def test_solve_linear_matches_sympy():
    outcomes = set()
    for rows, rhs in rectangular_cases():
        try:
            solution, params = to_sympy(rows).gauss_jordan_solve(to_sympy([[b] for b in rhs]))
        except ValueError:
            outcomes.add("inconsistent")
            with pytest.raises(ValueError, match="inconsistent"):
                solve_linear(rows, rhs)
            continue
        if params.shape[0]:
            outcomes.add("underdetermined")
            with pytest.raises(ValueError, match="underdetermined"):
                solve_linear(rows, rhs)
        else:
            outcomes.add("unique")
            assert solve_linear(rows, rhs) == [from_sympy(x) for x in solution], (rows, rhs)
    assert outcomes == {"inconsistent", "underdetermined", "unique"}


def random_poly(rng, nvars):
    """Up to three terms of degree at most 2; zero about a fifth of the time."""
    terms = {}
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        expo = tuple(rng.randint(0, 1) for _ in range(nvars))
        if sum(expo) < 2 and rng.random() < 0.5:
            expo = tuple(e + (k == 0) for k, e in enumerate(expo))
        terms[expo] = rational(rng) or Fraction(1)
    return MultiPoly(nvars, terms)


def poly_cases():
    rng = random.Random(20261018)
    cases = []
    for trial in range(40):
        n, nvars = rng.randint(1, 4), rng.randint(1, 3)
        rows = [[random_poly(rng, nvars) for _ in range(n)] for _ in range(n)]
        if n > 1 and trial % 3 == 0:
            factor = random_poly(rng, nvars)
            rows[-1] = [factor * x for x in rows[0]]
        cases.append((nvars, rows))
    return cases


def poly_terms_from_sympy(expr, symbols):
    poly = sympy.Poly(expr, *symbols)
    return {expo: from_sympy(c) for expo, c in poly.as_dict().items()}


def test_poly_det_matches_sympy():
    outcomes = set()
    for nvars, rows in poly_cases():
        symbols = sympy.symbols(f"x0:{nvars}")
        matrix = sympy.Matrix(
            [[sum((sympy.Rational(c.numerator, c.denominator)
                   * sympy.Mul(*(s**e for s, e in zip(symbols, expo)))
                   for expo, c in p.terms.items()), sympy.Integer(0)) for p in row]
             for row in rows]
        )
        expected = poly_terms_from_sympy(matrix.det(method="berkowitz"), symbols)
        got = poly_det(rows)
        assert got.terms == expected, rows
        outcomes.add("zero" if got.is_zero() else "nonzero")
    assert outcomes == {"zero", "nonzero"}
