"""Sparse polynomial arithmetic and the polynomial determinant."""

import random
from fractions import Fraction

import pytest

from conftest import variable as var

from liealg.matrices import determinant
from liealg.polynomials import MultiPoly, poly_det


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


class TestConstructor:
    @pytest.mark.parametrize("nvars", [2.0, True, Fraction(2)])
    def test_a_variable_count_that_is_not_an_int_raises(self, nvars):
        # True would equal 1, and 2.0 would construct.
        with pytest.raises(TypeError, match="nvars must be an int"):
            MultiPoly(nvars, {(1,) * int(nvars): 1})

    @pytest.mark.parametrize("expo", [(1.5, 0), (1.0, 0), (0, True), (Fraction(1), 0)])
    def test_an_exponent_that_is_not_an_int_raises(self, expo):
        # (1.5, 0) would report degree 1.5.
        with pytest.raises(TypeError, match=r"^bad exponent vector \(.*\) for 2 variables$"):
            MultiPoly(2, {expo: 1})


class TestArithmetic:
    def test_canonical_terms(self):
        p = var(2, 0) - var(2, 0)
        assert p.is_zero() and p.terms == {}

    def test_power(self):
        p = (var(1, 0) + MultiPoly.constant(1, 1)) ** 3
        assert p.eval([2]) == 27
        assert p.terms[(2,)] == 3

    @pytest.mark.parametrize("power,products", [(0, 0), (1, 1), (2, 2), (3, 3), (8, 4)])
    def test_power_squares_only_while_bits_remain(self, power, products, monkeypatch):
        # Square-and-multiply needs one squaring per bit below the top one.
        p = var(2, 0) + var(2, 1)
        expected = MultiPoly.constant(2, 1)
        for _ in range(power):
            expected = expected * p
        calls = []
        mul = MultiPoly.__mul__
        monkeypatch.setattr(MultiPoly, "__mul__",
                            lambda self, other: calls.append(1) or mul(self, other))
        assert p ** power == expected
        assert len(calls) == products

    def test_derivative(self):
        p = var(2, 0) ** 3 * var(2, 1)
        dp = p.derivative(0)
        assert dp == MultiPoly.monomial(2, (2, 1), 3)
        assert p.derivative(1) == MultiPoly.monomial(2, (3, 0))

    @pytest.mark.parametrize("power", [True, 2.0, Fraction(2)])
    def test_a_power_that_is_not_an_int_raises(self, power):
        # True would return p itself, as the first power.
        with pytest.raises(TypeError, match="power must be an int"):
            var(2, 0) ** power

    @pytest.mark.parametrize("index", [True, False, 1.0, Fraction(0)])
    def test_a_variable_index_that_is_not_an_int_raises(self, index):
        # True would differentiate by x2, and Fraction(0) by x1.
        p = MultiPoly(2, {(1, 1): 1})
        with pytest.raises(TypeError, match="variable index must be an int"):
            p.derivative(index)

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

    @pytest.mark.parametrize("window", [(1, 1), (2, 2), (0, 1), (1, 3)])
    def test_transform_rejects_a_window_that_is_not_a_signed_permutation(self, window):
        p = var(2, 0) - var(2, 1)
        with pytest.raises(ValueError, match=r"not a signed permutation of 1\.\.2"):
            p.transform(window)

    @pytest.mark.parametrize("window", [(True, 2), (1.0, 2), (2, Fraction(1))])
    def test_transform_rejects_a_window_entry_that_is_not_an_int(self, window):
        with pytest.raises(TypeError, match="window entries must be ints"):
            MultiPoly.monomial(2, (1, 0)).transform(window)

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
