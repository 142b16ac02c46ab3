"""Sparse polynomial arithmetic and the polynomial determinant."""

import random
from fractions import Fraction

import pytest

from liealg.matrices import determinant
from liealg.polynomials import MultiPoly, poly_det


def var(nvars, i):
    return MultiPoly.variable(nvars, i)


class TestEvaluation:
    def test_sum_of_squares(self):
        p = var(2, 0) ** 2 + var(2, 1) ** 2
        assert p.eval([1, 2]) == 5

    def test_zero_polynomial(self):
        z = MultiPoly.zero(3)
        assert z.eval([7, -2, Fraction(1, 3)]) == 0

    def test_product_of_variables(self):
        p = var(3, 0) * var(3, 1) * var(3, 2)
        assert p.eval([1, -1, 2]) == -2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            var(2, 0).eval([1])


class TestArithmetic:
    def test_canonical_terms(self):
        p = var(2, 0) - var(2, 0)
        assert p.is_zero() and p.terms == {}

    def test_power(self):
        p = (var(1, 0) + MultiPoly.constant(1, 1)) ** 3
        assert p.eval([2]) == 27
        assert p.terms[(2,)] == 3

    def test_derivative(self):
        p = var(2, 0) ** 3 * var(2, 1)
        dp = p.derivative(0)
        assert dp == MultiPoly.monomial(2, (2, 1), 3)
        assert p.derivative(1) == MultiPoly.monomial(2, (3, 0))

    def test_eliminate_last(self):
        # x^2 + y^2 with y = -x becomes 2x^2
        p = var(2, 0) ** 2 + var(2, 1) ** 2
        q = p.eliminate_last(-var(1, 0))
        assert q == MultiPoly.monomial(1, (2,), 2)

    def test_transform_signed_permutation(self):
        # p(x1,x2) = x1^2 x2 under swap becomes x2^2 x1
        p = MultiPoly.monomial(2, (2, 1))
        swapped = p.transform((2, 1))
        assert swapped == MultiPoly.monomial(2, (1, 2))
        flipped = p.transform((1, -2))
        assert flipped == MultiPoly.monomial(2, (2, 1), -1)

    def test_str_is_deterministic(self):
        p = var(2, 0) ** 2 - var(2, 1).scale(3) + MultiPoly.constant(2, 1)
        assert str(p) == "x1^2 - 3*x2 + 1"


class TestPolyDet:
    def test_1x1(self):
        p = var(2, 0) + var(2, 1)
        assert poly_det([[p]]) == p

    def test_diagonal(self):
        x, y = var(2, 0), var(2, 1)
        zero = MultiPoly.zero(2)
        assert poly_det([[x, zero], [zero, y]]) == x * y

    def test_2x2_expansion(self):
        x, y = var(2, 0), var(2, 1)
        assert poly_det([[x, y], [y, x]]) == x * x - y * y

    def test_non_square_rejected(self):
        x = var(1, 0)
        with pytest.raises(ValueError):
            poly_det([[x, x]])

    def test_against_evaluation_oracle(self):
        # Exact scalar determinant of the evaluated matrix is the oracle.
        rng = random.Random(991)
        for size in range(2, 5):
            nvars = 3
            matrix = []
            for _ in range(size):
                row = []
                for _ in range(size):
                    terms = {}
                    for _ in range(3):
                        expo = tuple(rng.randint(0, 2) for _ in range(nvars))
                        terms[expo] = terms.get(expo, Fraction(0)) + Fraction(
                            rng.randint(-4, 4)
                        )
                    row.append(MultiPoly(nvars, terms))
                matrix.append(row)
            det_poly = poly_det(matrix)
            for _ in range(5):
                point = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(nvars)]
                evaluated = [[entry.eval(point) for entry in row] for row in matrix]
                assert det_poly.eval(point) == determinant(evaluated)
