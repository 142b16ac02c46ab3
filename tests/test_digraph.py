"""The opposite root vectors as the reversed edges."""

import pytest

from conftest import basis_of, family_ranks, realization, root_datum, root_vector, transpose, unit

import liealg as L
from liealg import AlgebraFamily
from liealg.exact import negate
from liealg.roots import weight_of


class TestReversedEdges:
    """x(-a) is x(a) with every edge reversed: the plain transpose, in every family."""

    @pytest.mark.parametrize("family,n", family_ranks(6))
    def test_transpose_maps_each_root_vector_to_the_opposite_one(self, family, n):
        rd = root_datum(family, n)
        for root in rd.roots:
            assert transpose(root_vector(rd, root)) == root_vector(rd, negate(root)), root

    @pytest.mark.parametrize("family,n", family_ranks(6))
    def test_transpose_keeps_every_basis_vector_a_member(self, family, n):
        r = realization(family, n)
        for label, m in r.basis:
            assert L.check_membership(transpose(m), r.spec), label

    @pytest.mark.parametrize("family,n", family_ranks(6))
    def test_antimorphism_on_canonical_basis(self, family, n):
        mats = basis_of(realization(family, n))
        for a in mats:
            for b in mats:
                assert transpose(a @ b) == transpose(b) @ transpose(a)

    @pytest.mark.parametrize("family,n", family_ranks(6))
    def test_involution(self, family, n):
        for m in basis_of(realization(family, n)):
            assert transpose(transpose(m)) == m

    def test_sl_reverses_the_edge(self):
        assert transpose(unit(2, 1, 2)) == unit(2, 2, 1)

    def test_sp4_double_root_example(self):
        # The opposite of x(2a_1) is its transpose, of weight -2a_1.
        rd = root_datum(AlgebraFamily.SP, 2)
        r = rd.realization
        image = transpose(root_vector(rd, (2, 0)))
        assert weight_of(r, image) == (-2, 0)
        assert image == root_vector(rd, (-2, 0))
