"""Realization construction: dimensions, membership, Cartan choice."""

from fractions import Fraction

import pytest

from conftest import (
    basis_of, dense, family_ranks, identity, realization, structure_constants, unit,
)

import liealg as L
from liealg import AlgebraFamily, AlgebraSpec
from liealg.adjoint import ad_matrix
from liealg.catalog import _signed_involution
from liealg.edges import EdgeMatrix, mat_bracket
from liealg.matrices import SpanSolver


EXPECTED_DIMENSION = {
    AlgebraFamily.SL: lambda n: n * n - 1,
    AlgebraFamily.SP: lambda n: n * (2 * n + 1),
    AlgebraFamily.SO_EVEN: lambda n: n * (2 * n - 1),
    AlgebraFamily.SO_ODD: lambda n: n * (2 * n + 1),
}


class TestSpec:
    def test_family_minimums(self):
        with pytest.raises(ValueError):
            AlgebraSpec(AlgebraFamily.SL, 1)
        with pytest.raises(ValueError):
            AlgebraSpec(AlgebraFamily.SO_EVEN, 1)
        assert AlgebraSpec(AlgebraFamily.SP, 1).realization_dim == 2
        assert AlgebraSpec(AlgebraFamily.SO_ODD, 1).realization_dim == 3

    @pytest.mark.parametrize("n", [2.0, True, Fraction(2), "2"], ids=repr)
    def test_n_that_is_not_an_int_raises_naming_n(self, n):
        # A float once constructed, and build then failed with an opaque TypeError.
        with pytest.raises(TypeError, match="^n must be an int"):
            AlgebraSpec(AlgebraFamily.SL, n)

    @pytest.mark.parametrize("family", ["sl", None, 0], ids=repr)
    def test_a_family_that_is_not_an_algebra_family_raises(self, family):
        # "sl" was accepted with realization_dim 6 and lie_rank 3, and str() and build
        # then raised KeyError.
        name = type(family).__name__
        with pytest.raises(TypeError, match=f"^family must be an AlgebraFamily, got {name}$"):
            AlgebraSpec(family, 3)

    @pytest.mark.parametrize("call", [
        L.build, L.root_count, L.weyl_order_formula,
        lambda spec: L.check_membership(EdgeMatrix(2, {}), spec),
    ], ids=["build", "root_count", "weyl_order_formula", "check_membership"])
    @pytest.mark.parametrize("spec", [3, "sl", None, (AlgebraFamily.SL, 3)], ids=repr)
    def test_a_spec_that_is_not_an_algebra_spec_raises(self, call, spec):
        # Each raised AttributeError on the first field it read.
        name = type(spec).__name__
        with pytest.raises(TypeError, match=f"^spec must be an AlgebraSpec, got {name}$"):
            call(spec)

    def test_sl_rank_bookkeeping(self):
        spec = AlgebraSpec(AlgebraFamily.SL, 4)
        assert spec.realization_dim == 4
        assert spec.lie_rank == 3
        assert spec.name == "sl_4"


class TestBuild:
    @pytest.mark.parametrize("family,n", family_ranks(8))
    def test_dimension_formula_and_independence(self, family, n):
        r = realization(family, n)
        expected = EXPECTED_DIMENSION[family](n)
        assert r.dimension == expected
        assert len(SpanSolver(m.edges for _, m in r.basis).independent) == expected

    def test_sl2_shape(self):
        r = realization(AlgebraFamily.SL, 2)
        assert r.dimension == 3
        assert len(r.cartan_basis) == 1

    def test_sp4_shape(self):
        r = realization(AlgebraFamily.SP, 2)
        assert r.dimension == 10
        assert len(r.cartan_basis) == 2

    def test_so7_shape(self):
        r = realization(AlgebraFamily.SO_ODD, 3)
        assert r.dimension == 21
        assert r.spec.realization_dim == 7

    @pytest.mark.parametrize("family,n", family_ranks(4))
    def test_bracket_closure(self, family, n):
        r = realization(family, n)
        mats = basis_of(r)
        for a in mats:
            for b in mats:
                assert L.check_membership(mat_bracket(a, b), r.spec)

    @pytest.mark.parametrize("family,n", family_ranks(4))
    def test_cartan_is_maximal_abelian_in_basis(self, family, n):
        r = realization(family, n)
        cartan = r.cartan_basis
        for h1 in cartan:
            for h2 in cartan:
                assert mat_bracket(h1, h2).is_zero()
        for _, m in r.basis[len(cartan):]:
            assert any(not mat_bracket(h, m).is_zero() for h in cartan)


class TestEdgeWeight:
    def test_reads_each_slot_as_diag_coords_does(self):
        r = realization(AlgebraFamily.SO_ODD, 2)
        assert r.edge_weight(0, 1) == (1, -1)
        assert r.edge_weight(0, 3) == (1, 1)
        assert r.edge_weight(4, 2) == (1, 0)

    @pytest.mark.parametrize("i,j", [(5, 0), (0, 3), (-1, 0), (0, -3)])
    def test_a_slot_outside_the_realization_raises(self, i, j):
        # sl 3 has slots 0..2; unchecked, slot 5 would read as slot 2 and -1 as slot 2.
        slot = i if not 0 <= i < 3 else j
        with pytest.raises(ValueError, match=rf"^slot {slot} is outside 0\.\.2$"):
            realization(AlgebraFamily.SL, 3).edge_weight(i, j)

    @pytest.mark.parametrize("i,j", [(True, 0), (0, 1.0), (Fraction(1), 0)])
    def test_a_slot_that_is_not_an_int_raises(self, i, j):
        with pytest.raises(TypeError, match="slot must be an int"):
            realization(AlgebraFamily.SL, 3).edge_weight(i, j)


class TestMembership:
    def test_identity_not_in_sl(self):
        spec = AlgebraSpec(AlgebraFamily.SL, 3)
        assert not L.check_membership(identity(3), spec)

    def test_so_even_diagonal_b_block_entry(self):
        # E_{1,n+1} sits on the diagonal of block B, which must be
        # antisymmetric, so it is not a member.
        for n in (2, 3, 4):
            spec = AlgebraSpec(AlgebraFamily.SO_EVEN, n)
            m = unit(spec.realization_dim, 1, n + 1)
            assert not L.check_membership(m, spec)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            L.check_membership(identity(5), AlgebraSpec(AlgebraFamily.SL, 3))

    def test_structure_forms_as_printed(self):
        def structure_form(spec):
            """S rebuilt from the signed involution: S[p, pi(p)] = sigma_p; None for sl."""
            if (involution := _signed_involution(spec)) is None:
                return None
            pi, sigma = involution
            return EdgeMatrix(len(pi), {(p, q): sigma[p] for p, q in enumerate(pi)})

        assert structure_form(AlgebraSpec(AlgebraFamily.SL, 3)) is None
        sp = structure_form(AlgebraSpec(AlgebraFamily.SP, 2))
        assert dense(sp) == ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))
        so = structure_form(AlgebraSpec(AlgebraFamily.SO_EVEN, 2))
        assert dense(so) == ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
        so_odd = structure_form(AlgebraSpec(AlgebraFamily.SO_ODD, 1))
        assert dense(so_odd) == ((0, 1, 0), (1, 0, 0), (0, 0, 1))


class TestStructureConstants:
    def test_sl2_classical_table(self):
        r = realization(AlgebraFamily.SL, 2)
        labels = [lab for lab, _ in r.basis]
        c = structure_constants(r)
        h, e, f = 0, 1, 2  # cartan, positive, negative in basis order
        assert labels[h].startswith("h")
        # [e,f] = h, [h,e] = 2e, [h,f] = -2f
        assert c[e][f][h] == 1 and not any(c[e][f][k] for k in (e, f))
        assert c[h][e][e] == 2 and not any(c[h][e][k] for k in (h, f))
        assert c[h][f][f] == -2 and not any(c[h][f][k] for k in (h, e))

    def test_antisymmetry_diagonal(self):
        r = realization(AlgebraFamily.SP, 2)
        c = structure_constants(r)
        for i in range(r.dimension):
            assert not any(c[i][i])

    @pytest.mark.parametrize("family,n", family_ranks(3))
    def test_jacobi_contraction(self, family, n):
        r = realization(family, n)
        c = structure_constants(r)
        dim = r.dimension
        # Sparse view: nonzero (k, value) per bracket pair.
        sparse = {
            (i, j): [(k, v) for k, v in enumerate(c[i][j]) if v]
            for i in range(dim)
            for j in range(dim)
        }

        def ad_pair(i, pairs):
            out: dict[int, Fraction] = {}
            for m, v in pairs:
                for k, w in sparse[i, m]:
                    out[k] = out.get(k, Fraction(0)) + v * w
            return {k: v for k, v in out.items() if v}

        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    left = ad_pair(i, sparse[j, k])
                    right = ad_pair(j, sparse[i, k])
                    mid = ad_pair(k, sparse[i, j])  # [[i,j],k] = -[k,[i,j]]
                    combined = dict(right)
                    for key, value in mid.items():
                        combined[key] = combined.get(key, Fraction(0)) - value
                    combined = {key: v for key, v in combined.items() if v}
                    assert left == combined


LIE_RANK_UP_TO_3 = [
    (family, n) for family, n in family_ranks(4) if AlgebraSpec(family, n).lie_rank <= 3
]


class TestAdMatrix:
    @pytest.mark.parametrize("family,n", LIE_RANK_UP_TO_3)
    def test_entries_are_the_structure_constants(self, family, n):
        # ad(b_i) b_j = [b_i, b_j] = sum_k c[i][j][k] b_k: column j, row k.  A trace
        # cannot tell ad(x) from its transpose, so this pins the orientation.
        r = realization(family, n)
        c = structure_constants(r)
        dim = r.dimension
        for i, (_, b) in enumerate(r.basis):
            ad = ad_matrix(r, b)
            assert ad.dim == dim
            assert dense(ad) == tuple(
                tuple(c[i][j][k] for j in range(dim)) for k in range(dim)
            )


class TestCheckReport:
    def test_of_maps_verdict_to_status(self):
        assert L.Check.of("s", "n", True, "d").status == "pass"
        assert L.Check.of("s", "n", False, "d").status == "fail"

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            L.Check("s", "n", "PASS", "d")

    def test_skip_neither_passes_nor_fails(self):
        skipped = L.Check("s", "skipped", "skip", "d")
        failed = L.Check.of("s", "failed", False, "d")
        assert L.CheckReport((skipped,)).all_passed
        assert L.CheckReport((skipped,)).failures() == ()
        report = L.CheckReport((skipped, failed, L.Check.of("s", "ok", True, "d")))
        assert not report.all_passed
        assert report.failures() == (failed,)
