"""Elementary edge matrices and the opposite-graph antimorphism per family."""

import pytest

from conftest import basis_of, family_ranks, realization, root_datum

import liealg as L
from liealg import AlgebraFamily
from liealg.digraph import opposite_antimorphism
from liealg.exact import negate
from liealg.matrices import EdgeMatrix
from liealg.roots import weight_of


class TestEdges:
    def test_single_entry(self):
        assert EdgeMatrix.unit(2, 1, 2) == EdgeMatrix.from_rows([[0, 1], [0, 0]])

    def test_dim_one_loop(self):
        assert EdgeMatrix.unit(1, 1, 1) == EdgeMatrix.from_rows([[1]])

    def test_lower_entry(self):
        m = EdgeMatrix.unit(3, 3, 1)
        assert m.edges == {(2, 0): 1}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            EdgeMatrix.unit(2, 0, 1)
        with pytest.raises(ValueError):
            EdgeMatrix.unit(2, 1, 3)


class TestOppositeAntimorphism:
    def test_sl_is_plain_transpose(self):
        e12 = EdgeMatrix.unit(2, 1, 2)
        assert opposite_antimorphism(e12, AlgebraFamily.SL) == EdgeMatrix.unit(2, 2, 1)

    def test_dimension_parity_enforced(self):
        with pytest.raises(ValueError):
            opposite_antimorphism(EdgeMatrix.identity(3), AlgebraFamily.SP)
        with pytest.raises(ValueError):
            opposite_antimorphism(EdgeMatrix.identity(4), AlgebraFamily.SO_ODD)

    @pytest.mark.parametrize("family,n", family_ranks(4))
    def test_antimorphism_on_canonical_basis(self, family, n):
        r = realization(family, n)
        mats = basis_of(r)
        for a in mats:
            for b in mats:
                assert opposite_antimorphism(a @ b, family) == opposite_antimorphism(
                    b, family
                ) @ opposite_antimorphism(a, family)

    @pytest.mark.parametrize("family,n", family_ranks(4))
    def test_involution(self, family, n):
        r = realization(family, n)
        for _, m in r.basis:
            assert opposite_antimorphism(opposite_antimorphism(m, family), family) == m

    @pytest.mark.parametrize("family,n", family_ranks(4))
    def test_maps_root_space_to_opposite(self, family, n):
        r = realization(family, n)
        rd = root_datum(family, n)
        for root in rd.roots:
            image = opposite_antimorphism(rd.root_vector(root), family)
            assert weight_of(r, image) == negate(root)

    def test_sp4_double_root_example(self):
        # The adjoint eigenvalue of T(x_{2a_1}) is -2a_1.
        rd = root_datum(AlgebraFamily.SP, 2)
        r = rd.realization
        from fractions import Fraction

        two_a1 = (Fraction(2), Fraction(0))
        image = opposite_antimorphism(rd.root_vector(two_a1), AlgebraFamily.SP)
        assert weight_of(r, image) == (Fraction(-2), Fraction(0))
        assert L.check_membership(image, r.spec)
