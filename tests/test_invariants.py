"""Invariant suites, invariance checks, Jacobians, and degree products."""

import math
import random
from fractions import Fraction

import pytest

from conftest import (
    constant_ratio,
    doubled_coordinate_forms,
    family_ranks,
    root_datum,
    vandermonde,
    variable,
    weyl_group,
)

import liealg as L
from liealg import AlgebraFamily, AlgebraSpec, invariants
from liealg.invariants import (
    InvariantSuite,
    _jacobian_at_point,
    build_suite,
    check_invariance,
    full_product,
    jacobian,
    jacobian_criterion,
)
from liealg.matrices import determinant
from liealg.polynomials import MultiPoly
from liealg.weyl import simple_reflections


def hand_suite(polys):
    """A non-sl suite holding exactly ``polys``, so ``jacobian`` takes them as given."""
    return InvariantSuite(AlgebraFamily.SP, polys[0].nvars, tuple(polys))


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

    @pytest.mark.parametrize("n", [True, 2.0, Fraction(2)])
    @pytest.mark.parametrize("family", list(AlgebraFamily))
    def test_a_rank_that_is_not_an_int_raises(self, family, n):
        # True would build a rank-1 suite, and 2.0 fail inside range() without naming n.
        with pytest.raises(TypeError, match="n must be an int"):
            build_suite(family, n)

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
        flip = (-1, 2)
        assert product.transform(flip) == product.scale(-1)
        bad = suite.polys[-1].transform(flip)
        assert bad != suite.polys[-1]

    def test_carrier_size_mismatch(self):
        s = build_suite(AlgebraFamily.SP, 3)
        with pytest.raises(ValueError):
            check_invariance(s, [(1, 2)])


class TestJacobians:
    def test_c_family_exact_closed_form(self):
        for n in range(1, 5):
            s = build_suite(AlgebraFamily.SP, n)
            expected = (
                full_product(n) * vandermonde(n, 2)
            ).scale(2**n * math.factorial(n))
            assert jacobian(s) == expected

    def test_d_family_ratio_to_closed_form(self):
        # The difference-of-squares product divides exactly; the constant is
        # recorded and compared with (-2)^(n-1) (n-1)!.
        for n in range(2, 5):
            s = build_suite(AlgebraFamily.SO_EVEN, n)
            ratio = constant_ratio(jacobian(s), vandermonde(n, 2))
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
        x, y = variable(2, 0), variable(2, 1)
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
                    repl = repl - variable(nv, i)
                polys = tuple(p.eliminate_last(repl) for p in polys)
            J = jacobian(s)
            nv = polys[0].nvars
            for _ in range(5):
                point = [
                    Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(nv)
                ]
                rows = [[p.derivative(j).eval(point) for j in range(nv)] for p in polys]
                assert J.eval(point) == determinant(rows)


def lie_ranks(max_lie_rank):
    """(family, Lie rank) for every family up to ``max_lie_rank``."""
    return [
        (family, AlgebraSpec(family, n).lie_rank)
        for family, n in family_ranks(max_lie_rank + 1)
        if AlgebraSpec(family, n).lie_rank <= max_lie_rank
    ]


@pytest.fixture
def no_symbolic_jacobian(monkeypatch):
    """Make the symbolic determinant raise, so only the point route can answer."""

    def refuse(*args, **kwargs):
        raise AssertionError("symbolic Jacobian called")

    monkeypatch.setattr(invariants, "jacobian", refuse)
    monkeypatch.setattr(invariants, "poly_det", refuse)


class TestPointCertificate:
    @pytest.mark.parametrize("family,lie_rank", lie_ranks(4))
    def test_point_value_is_the_symbolic_jacobian_at_the_point(self, family, lie_rank):
        # For sl, jacobian() is already restricted to the sum-zero
        # hyperplane, so it is evaluated at (1, ..., m) in the m effective
        # variables, which is the point (1, ..., m, -(1 + ... + m)).
        s = build_suite(family, lie_rank)
        value = _jacobian_at_point(s)
        assert value != 0
        assert value == jacobian(s).eval(list(range(1, lie_rank + 1)))

    @pytest.mark.parametrize("family,lie_rank", lie_ranks(8))
    def test_nonzero_without_the_symbolic_route(self, family, lie_rank, no_symbolic_jacobian):
        s = build_suite(family, lie_rank)
        assert _jacobian_at_point(s) != 0
        assert jacobian_criterion(s) is True

    def test_dependent_suites_fall_back_and_fail(self):
        x, y = variable(2, 0), variable(2, 1)
        p2 = x * x + y * y
        for polys in ([p2, p2 * p2], [x, x]):
            s = hand_suite(polys)
            assert _jacobian_at_point(s) == 0
            assert jacobian_criterion(s) is False

    def test_zero_at_the_point_is_not_zero_everywhere(self, monkeypatch):
        # d/dy (y - 2)^2 vanishes at y = 2, so the value at (1, 2) is 0; the
        # symbolic Jacobian 2(y - 2) is nonzero and decides.
        x, y = variable(2, 0), variable(2, 1)
        s = hand_suite([x, (y - MultiPoly.constant(2, 2)) ** 2])
        assert _jacobian_at_point(s) == 0
        calls = []
        symbolic = invariants.jacobian
        monkeypatch.setattr(invariants, "jacobian", lambda t: calls.append(t) or symbolic(t))
        assert jacobian_criterion(s) is True
        assert calls == [s]

    def test_suite_size_must_match_the_effective_variables(self):
        x, y = variable(2, 0), variable(2, 1)
        with pytest.raises(ValueError, match="effective variable count"):
            jacobian_criterion(hand_suite([x, y, x * y]))
        with pytest.raises(ValueError, match="effective variable count"):
            jacobian_criterion(InvariantSuite(AlgebraFamily.SL, 2, (x, y)))
        with pytest.raises(ValueError):
            jacobian_criterion(InvariantSuite(AlgebraFamily.SL, 1, ()))


class TestDegreeProductsAgainstEnumeration:
    def test_products_match_enumerated_orders(self):
        # Cross-module: suite degree products equal the enumerated |W|
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
