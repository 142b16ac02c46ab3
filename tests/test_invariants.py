"""Invariant suites, invariance checks, Jacobians, and degree products."""

import math
import random
from fractions import Fraction

import pytest

from conftest import family_ranks, root_datum, weyl_group

import liealg as L
from liealg import AlgebraFamily
from liealg.invariants import (
    InvariantSuite,
    build_suite,
    check_invariance,
    constant_ratio,
    doubled_coordinate_forms,
    full_product,
    jacobian,
    jacobian_criterion,
    vandermonde,
    vandermonde_squares,
)
from liealg.matrices import determinant
from liealg.polynomials import MultiPoly
from liealg.weyl import SignedPermutation, simple_reflections


def hand_suite(polys):
    """A non-sl suite holding exactly ``polys``, so ``jacobian`` takes them as given."""
    return InvariantSuite(
        AlgebraFamily.SP, len(polys), polys[0].nvars, tuple(polys),
        tuple(p.degree() for p in polys),
    )


class TestSuites:
    def test_a2_degrees(self):
        s = build_suite(AlgebraFamily.SL, 2)
        assert s.nvars == 3
        assert s.degrees == (2, 3)
        assert s.degree_product() == 6 == math.factorial(3)

    def test_c3_degrees(self):
        s = build_suite(AlgebraFamily.SP, 3)
        assert s.degrees == (2, 4, 6)
        assert s.degree_product() == 48

    def test_d3_degrees(self):
        s = build_suite(AlgebraFamily.SO_EVEN, 3)
        assert s.degrees == (2, 4, 3)
        assert s.degree_product() == 24

    def test_b_suite_equals_c_suite(self):
        assert build_suite(AlgebraFamily.SO_ODD, 3).polys == build_suite(
            AlgebraFamily.SP, 3
        ).polys

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            build_suite(AlgebraFamily.SP, 0)
        with pytest.raises(ValueError):
            build_suite(AlgebraFamily.SO_EVEN, 1)

    @pytest.mark.parametrize("family,n", family_ranks(6))
    def test_degree_product_equals_weyl_formula(self, family, n):
        rd = root_datum(family, n)
        s = build_suite(family, rd.spec.lie_rank)
        assert s.degree_product() == L.weyl_order_formula(rd.spec)


class TestInvariance:
    @pytest.mark.parametrize("family,n", family_ranks(4))
    def test_fixed_by_simple_reflections(self, family, n):
        rd = root_datum(family, n)
        s = build_suite(family, rd.spec.lie_rank)
        assert check_invariance(s, simple_reflections(rd))

    def test_fixed_by_entire_group_small_ranks(self):
        for family, n in (
            (AlgebraFamily.SL, 3),
            (AlgebraFamily.SP, 2),
            (AlgebraFamily.SO_EVEN, 3),
            (AlgebraFamily.SO_ODD, 2),
        ):
            rd = root_datum(family, n)
            s = build_suite(family, rd.spec.lie_rank)
            assert check_invariance(s, list(weyl_group(family, n)))

    def test_single_sign_flip_breaks_product(self):
        product = MultiPoly.monomial(2, (1, 1))
        suite = build_suite(AlgebraFamily.SO_EVEN, 2)
        flip = SignedPermutation((0, 1), (-1, 1))
        assert product.transform(flip.perm, flip.signs) == product.scale(-1)
        bad = suite.polys[-1].transform(flip.perm, flip.signs)
        assert bad != suite.polys[-1]

    def test_carrier_size_mismatch(self):
        s = build_suite(AlgebraFamily.SP, 3)
        with pytest.raises(ValueError):
            check_invariance(s, [SignedPermutation.identity(2)])


class TestJacobians:
    def test_c_family_exact_closed_form(self):
        for n in range(1, 5):
            s = build_suite(AlgebraFamily.SP, n)
            expected = (
                full_product(n) * vandermonde_squares(n)
            ).scale(2**n * math.factorial(n))
            assert jacobian(s) == expected

    def test_d_family_ratio_to_closed_form(self):
        # The difference-of-squares product divides exactly; the constant is
        # recorded and compared with (-2)^(n-1) (n-1)!.
        for n in range(2, 5):
            s = build_suite(AlgebraFamily.SO_EVEN, n)
            ratio = constant_ratio(jacobian(s), vandermonde_squares(n))
            assert ratio is not None and ratio != 0
            assert ratio == Fraction((-2) ** (n - 1) * math.factorial(n - 1))

    def test_a_family_ratio_to_closed_form(self):
        for n in range(1, 4):
            s = build_suite(AlgebraFamily.SL, n)
            closed = vandermonde(n) * doubled_coordinate_forms(n)
            ratio = constant_ratio(jacobian(s), closed)
            assert ratio is not None and ratio != 0
            assert ratio == math.factorial(n + 1)

    def test_a1_restricted_jacobian(self):
        s = build_suite(AlgebraFamily.SL, 1)
        assert jacobian(s) == MultiPoly.monomial(1, (1,), 4)

    @pytest.mark.parametrize("family,n", family_ranks(4))
    def test_criterion_nonzero_for_families(self, family, n):
        rd = root_datum(family, n)
        s = build_suite(family, rd.spec.lie_rank)
        assert jacobian_criterion(s)

    def test_dependent_pair_fails_criterion(self):
        p2 = MultiPoly.monomial(2, (2, 0)) + MultiPoly.monomial(2, (0, 2))
        assert jacobian(hand_suite([p2, p2 * p2])).is_zero()

    def test_coordinate_pair_passes(self):
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        assert jacobian(hand_suite([x, y])) == MultiPoly.constant(2, 1)

    def test_evaluation_consistency(self):
        # The Jacobian polynomial evaluated at points equals the scalar
        # determinant of the evaluated derivative matrix.
        rng = random.Random(20240518)
        for family, lie_rank in (
            (AlgebraFamily.SP, 3),
            (AlgebraFamily.SO_EVEN, 3),
            (AlgebraFamily.SL, 2),
        ):
            s = build_suite(family, lie_rank)
            polys = s.polys
            if family is AlgebraFamily.SL:
                nv = s.nvars - 1
                repl = MultiPoly.zero(nv)
                for i in range(nv):
                    repl = repl - MultiPoly.variable(nv, i)
                polys = tuple(p.eliminate_last(repl) for p in polys)
            J = jacobian(s)
            nv = polys[0].nvars
            for _ in range(5):
                point = [
                    Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(nv)
                ]
                rows = [[p.derivative(j).eval(point) for j in range(nv)] for p in polys]
                assert J.eval(point) == determinant(rows)


class TestDegreeProductsAgainstEnumeration:
    def test_products_match_enumerated_orders(self):
        # Cross-module: suite degree products equal BFS-enumerated |W|
        # for every family and rank with |W| <= 50000.
        cases = [
            (AlgebraFamily.SL, range(2, 9)),
            (AlgebraFamily.SP, range(1, 7)),
            (AlgebraFamily.SO_EVEN, range(2, 7)),
            (AlgebraFamily.SO_ODD, range(1, 7)),
        ]
        for family, ranks in cases:
            for n in ranks:
                rd = root_datum(family, n)
                if L.weyl_order_formula(rd.spec) > 50_000:
                    continue
                s = build_suite(family, rd.spec.lie_rank)
                assert s.degree_product() == len(weyl_group(family, n))
