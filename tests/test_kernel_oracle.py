"""The exact kernels against sympy on seeded random input.

Matrices are sparse rationals, some singular by construction (a product of
thinner factors) and some permuted triangular, so pivots turn up in every
column order and the determinant's sign rule is exercised.  The span solver
gets sparse families with dependent members, keyed by edges, and vectors
inside and outside their span; the positive-definiteness test gets symmetric
matrices, positive definite, semidefinite and indefinite.  The polynomial
determinant gets matrices of sparse polynomials, some with a row that is a
polynomial multiple of another.
"""

import random
from fractions import Fraction

import pytest

from liealg.matrices import SpanSolver, determinant, is_positive_definite, solve_linear
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
        assert len(SpanSolver(sparse_rows).independent) == to_sympy(rows).rank(), rows


def span_cases():
    """Families of sparse vectors keyed by edges (i, j), with dependent members."""
    rng = random.Random(20261019)
    cases = []
    for trial in range(60):
        size, width = rng.randint(1, 7), rng.randint(1, 3)
        keys = [(i, j) for i in range(width) for j in range(width)]
        if trial % 2:
            rows = random_matrix(rng, size, len(keys), rank=rng.randint(0, min(size, len(keys))))
        else:
            rows = random_matrix(rng, size, len(keys))
            for k in range(1, size):
                if rng.random() < 0.4:
                    a, b = rational(rng), rational(rng)
                    rows[k] = [a * x + b * y for x, y in zip(rows[rng.randrange(k)], rows[k - 1])]
        targets = [[rational(rng) for _ in keys] for _ in range(3)]
        for _ in range(3):
            weights = [rational(rng) for _ in rows]
            targets.append(
                [sum((w * row[c] for w, row in zip(weights, rows)), Fraction(0))
                 for c in range(len(keys))]
            )
        cases.append((keys, rows, targets))
    return cases


def test_span_solver_matches_sympy():
    outcomes = set()
    for keys, rows, targets in span_cases():
        family = [{key: x for key, x in zip(keys, row) if x} for row in rows]
        solver = SpanSolver(family)
        ranks = [to_sympy(rows[:k]).rank() if k else 0 for k in range(len(rows) + 1)]
        rank = ranks[-1]
        assert len(solver.independent) == rank, rows
        # Greedy in order: member k is kept exactly when it raises the rank.
        assert solver.independent == tuple(k for k in range(len(rows)) if ranks[k + 1] > ranks[k])
        for target in targets:
            v = {key: x for key, x in zip(keys, target) if x}
            inside = to_sympy(rows + [target]).rank() == rank
            if not inside:
                outcomes.add("outside")
                with pytest.raises(ValueError):
                    solver.expand(v)
                continue
            outcomes.add("inside")
            coefficients = solver.expand(v)
            assert set(coefficients) <= set(solver.independent)
            assert all(coefficients.values())
            rebuilt = {key: sum((c * family[k].get(key, 0) for k, c in coefficients.items()),
                                Fraction(0)) for key in keys}
            assert {key: x for key, x in rebuilt.items() if x} == v, (rows, target)
        for k in solver.independent:
            assert solver.expand(family[k]) == {k: 1}
    assert outcomes == {"inside", "outside"}


def symmetric_cases():
    """Symmetric rational matrices: random, Gram (semidefinite), and shifted Gram."""
    rng = random.Random(20261020)
    cases = []
    for trial in range(150):
        n = rng.randint(1, 6)
        kind = trial % 3
        if kind == 0:
            upper = random_matrix(rng, n, n)
            rows = [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        else:
            factor = random_matrix(rng, rng.randint(1, n + 1), n)
            rows = [
                [sum((row[i] * row[j] for row in factor), Fraction(0)) for j in range(n)]
                for i in range(n)
            ]
            if kind == 2:
                shift = Fraction(rng.randint(-2, 3), rng.randint(1, 3))
                rows = [[x + shift * (i == j) for j, x in enumerate(row)]
                        for i, row in enumerate(rows)]
        cases.append(rows)
    return cases


def test_is_positive_definite_matches_sympy_leading_minors():
    outcomes = set()
    for rows in symmetric_cases():
        matrix = to_sympy(rows)
        expected = all(matrix[:k, :k].det() > 0 for k in range(1, len(rows) + 1))
        assert is_positive_definite(rows) == expected, rows
        outcomes.add(expected)
    assert outcomes == {True, False}


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
            assert solve_linear(rows, rhs) == [[from_sympy(x) for x in solution]], (rows, rhs)
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


def signed_window(rng, nvars):
    return [v * rng.choice((1, -1)) for v in rng.sample(range(1, nvars + 1), nvars)]


def arithmetic_cases():
    """Pairs (p, q) of seeded random polynomials; a third made to cancel against p,
    as q = r - p (so p + q = r) or q = -p, and a third that are p under a signed
    window, so (x + y)(x - y) style products lose their cross terms."""
    rng = random.Random(20261021)
    cases = []
    for trial in range(240):
        nvars = rng.randint(1, 3)
        p = random_poly(rng, nvars) + random_poly(rng, nvars)
        kind = trial % 3
        if kind == 0:
            q = random_poly(rng, nvars) + random_poly(rng, nvars)
        elif kind == 1:
            q = (random_poly(rng, nvars) if trial % 2 else MultiPoly.zero(nvars)) - p
        else:
            q = p.transform(signed_window(rng, nvars))
        cases.append((nvars, p, q, signed_window(rng, nvars)))
    return cases


def poly_expr(p, symbols):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(s**e for s, e in zip(symbols, expo)))
                for expo, c in p.terms.items()), sympy.Integer(0))


def assert_canonical(p):
    """No stored zero, and every coefficient an int when integral."""
    for c in p.terms.values():
        assert c != 0
        assert type(c) is int if c.denominator == 1 else type(c) is Fraction


def test_multipoly_arithmetic_matches_sympy():
    cancelled = set()
    for nvars, p, q, window in arithmetic_cases():
        symbols = sympy.symbols(f"x0:{nvars}")
        ep, eq = poly_expr(p, symbols), poly_expr(q, symbols)
        moved = ep.subs({symbols[abs(v) - 1]: (1 if v > 0 else -1) * symbols[k]
                         for k, v in enumerate(window)}, simultaneous=True)
        results = [(p + q, ep + eq), (p - q, ep - eq), (p * q, ep * eq),
                   (p.transform(window), moved)]
        results += [(p.derivative(j), sympy.diff(ep, s)) for j, s in enumerate(symbols)]
        for got, expr in results:
            assert got.nvars == nvars
            assert got.terms == poly_terms_from_sympy(sympy.expand(expr), symbols), (p, q)
            assert_canonical(got)
        raw_sum = set(p.terms) | set(q.terms)
        raw_product = {tuple(map(sum, zip(a, b))) for a in p.terms for b in q.terms}
        if len((p + q).terms) < len(raw_sum):
            cancelled.add("sum")
        if (p + q).is_zero() and not p.is_zero():
            cancelled.add("sum to zero")
        if len((p * q).terms) < len(raw_product):
            cancelled.add("product")
    assert cancelled == {"sum", "sum to zero", "product"}
