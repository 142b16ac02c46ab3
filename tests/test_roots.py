"""Root systems, coroots, fundamental weights, and the root-system axioms."""

from fractions import Fraction

import pytest

from conftest import family_ranks, realization, replace, root_datum

import liealg as L
from liealg import AlgebraFamily, AlgebraSpec
from liealg.axioms import simple_roots, verify_root_axioms, verify_sl2_triple
from liealg.exact import is_positive, negate
from liealg.matrices import EdgeMatrix, dot
from liealg.roots import expand_in_fundamental, root_count


def unit(n, i, value=1):
    return tuple(Fraction(value if k == i else 0) for k in range(n))


def pair(n, i, j, vi, vj):
    return tuple(Fraction(vi if k == i else vj if k == j else 0) for k in range(n))


def expected_roots(family: AlgebraFamily, n: int) -> set:
    out = set()
    if family is AlgebraFamily.SL:
        for i in range(n):
            for j in range(n):
                if i != j:
                    out.add(pair(n, i, j, 1, -1))
        return out
    for i in range(n):
        for j in range(i + 1, n):
            out.add(pair(n, i, j, 1, -1))
            out.add(pair(n, i, j, -1, 1))
            out.add(pair(n, i, j, 1, 1))
            out.add(pair(n, i, j, -1, -1))
    if family is AlgebraFamily.SP:
        for i in range(n):
            out.add(unit(n, i, 2))
            out.add(unit(n, i, -2))
    elif family is AlgebraFamily.SO_ODD:
        for i in range(n):
            out.add(unit(n, i, 1))
            out.add(unit(n, i, -1))
    return out


class TestRootSystems:
    @pytest.mark.parametrize("family,n", family_ranks(4))
    def test_roots_match_classical_lists(self, family, n):
        rd = root_datum(family, n)
        assert set(rd.roots) == expected_roots(family, n)

    @pytest.mark.parametrize("family,n", family_ranks(4))
    def test_root_count_oracle(self, family, n):
        rd = root_datum(family, n)
        assert len(rd.roots) == root_count(rd.spec)
        assert len(set(rd.root_vectors.values())) == len(rd.roots)
        assert set(rd.roots) == {negate(w) for w in rd.roots}

    def test_root_count_closed_forms(self):
        assert root_count(AlgebraSpec(AlgebraFamily.SL, 3)) == 6
        assert root_count(AlgebraSpec(AlgebraFamily.SP, 3)) == 18
        assert root_count(AlgebraSpec(AlgebraFamily.SO_EVEN, 4)) == 24
        assert root_count(AlgebraSpec(AlgebraFamily.SO_ODD, 2)) == 8

    def test_sl2_root_system(self):
        rd = root_datum(AlgebraFamily.SL, 2)
        alpha = (Fraction(1), Fraction(-1))
        assert set(rd.roots) == {alpha, negate(alpha)}
        assert rd.fundamental_roots == (alpha,)

    def test_sp_has_doubled_roots_and_last_simple_root(self):
        for n in (1, 2, 3):
            rd = root_datum(AlgebraFamily.SP, n)
            assert unit(n, n - 1, 2) in set(rd.roots)
            assert rd.fundamental_roots[-1] == unit(n, n - 1, 2)

    def test_so_odd_short_roots_and_coroots(self):
        rd = root_datum(AlgebraFamily.SO_ODD, 3)
        r = rd.realization
        for i in range(3):
            a = unit(3, i)
            assert a in set(rd.roots)
            # the coroot of a_i is 2 h_i
            coords = r.diag_coords(rd.coroot(a))
            assert coords == unit(3, i, 2)

    @pytest.mark.parametrize("family,n", family_ranks(4))
    def test_positive_roots_expand_in_fundamental(self, family, n):
        rd = root_datum(family, n)
        assert set(rd.roots) == set(rd.positive_roots) | {
            negate(w) for w in rd.positive_roots
        }
        expansions = expand_in_fundamental(rd.positive_roots, rd.fundamental_roots)
        assert len(expansions) == len(rd.positive_roots)
        for root, coeffs in zip(rd.positive_roots, expansions):
            assert is_positive(root)
            assert all(c >= 0 for c in coeffs)

    @pytest.mark.parametrize("family,n", family_ranks(4))
    def test_coroot_normalization(self, family, n):
        rd = root_datum(family, n)
        r = rd.realization
        for root in rd.roots:
            assert dot(root, r.diag_coords(rd.coroot(root))) == 2

    @pytest.mark.parametrize("family,n", family_ranks(4))
    def test_weight_duality(self, family, n):
        rd = root_datum(family, n)
        r = rd.realization
        for i, w in enumerate(rd.fundamental_weights):
            for j, h in enumerate(rd.fundamental_coroots):
                assert dot(w, r.diag_coords(h)) == (1 if i == j else 0)

    def test_so_even_half_integral_weight(self):
        rd = root_datum(AlgebraFamily.SO_EVEN, 4)
        half = Fraction(1, 2)
        assert rd.fundamental_weights[-1] == (half, half, half, half)
        assert rd.fundamental_weights[-2] == (half, half, half, -half)

    def test_sl_weights_are_sum_zero(self):
        rd = root_datum(AlgebraFamily.SL, 4)
        for w in rd.fundamental_weights:
            assert sum(w) == 0
        for root in rd.roots:
            assert sum(root) == 0


class TestSimpleRoots:
    @pytest.mark.parametrize("family,n", family_ranks(4))
    def test_recovers_fundamental_roots(self, family, n):
        rd = root_datum(family, n)
        assert set(simple_roots(rd.roots)) == set(rd.fundamental_roots)


class TestAxioms:
    @pytest.mark.parametrize("family,n", family_ranks(4))
    def test_generated_systems_pass_with_killing_inner(self, family, n):
        rd = root_datum(family, n)
        report = verify_root_axioms(
            rd.roots, L.weight_inner(rd), expected_dim=rd.spec.lie_rank
        )
        assert report.all_passed, report.failures()
        spanning = report.results[0]
        assert spanning.name == "spanning"
        assert f"dimension {rd.spec.lie_rank} " in spanning.detail

    def test_double_multiple_fails(self):
        roots = [(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0)), (Fraction(2), Fraction(0)), (Fraction(-2), Fraction(0))]
        report = verify_root_axioms(roots, dot)
        failed = {c.name for c in report.failures()}
        assert "multiples" in failed

    def test_missing_negative_fails(self):
        report = verify_root_axioms([(Fraction(1), Fraction(0))], dot)
        failed = {c.name for c in report.failures()}
        assert "multiples" in failed

    def test_non_integral_pair_fails_integrality(self):
        third = (Fraction(1, 3), Fraction(0))
        roots = [(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0)), third, negate(third)]
        report = verify_root_axioms(roots, dot)
        failed = {c.name for c in report.failures()}
        assert "multiples" in failed or "integrality" in failed

    def test_expected_dim_mismatch_fails_spanning(self):
        roots = [(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))]
        report = verify_root_axioms(roots, dot, expected_dim=2)
        failed = {c.name for c in report.failures()}
        assert "spanning" in failed

    def test_indefinite_inner_fails_euclidean(self):
        def lorentz(u, v):
            return u[0] * v[0] - u[1] * v[1]

        roots = [
            (Fraction(2), Fraction(1)),
            (Fraction(-2), Fraction(-1)),
            (Fraction(1), Fraction(2)),
            (Fraction(-1), Fraction(-2)),
        ]
        report = verify_root_axioms(roots, lorentz)
        failed = {c.name for c in report.failures()}
        assert "euclidean" in failed

    def test_numbers_over_the_str_limit_are_reported_by_length(self):
        # 2<b,a>/<b,b> = 2/(N**2 + 1) has a 6000-digit denominator, over
        # Python's 4300-digit str(int) limit; the report must still be built.
        big = 10**3000 + 7
        a = (Fraction(1, big), Fraction(0))
        b = (Fraction(big), Fraction(1))
        report = verify_root_axioms([a, negate(a), b, negate(b)], dot)
        checks = {c.name: c for c in report.results}
        assert checks["integrality"].status == "fail"
        assert checks["integrality"].detail.endswith(">/<a,a> = 1/<6000 digits>")
        assert checks["reflection"].status == "fail"

    @pytest.mark.parametrize("half", [0.5, True])
    def test_float_and_bool_coordinates_are_rejected(self, half):
        # Fraction(0.5) would pass all five checks; the verifier takes exact scalars only.
        with pytest.raises(TypeError, match="exact scalar expected"):
            verify_root_axioms([(half, 0), (-half, 0)], dot)


class TestSl2Triples:
    def test_sl2_with_pictured_coroot(self):
        rd = root_datum(AlgebraFamily.SL, 2)
        alpha = (Fraction(1), Fraction(-1))
        assert verify_sl2_triple(rd, alpha)
        h = rd.coroot(alpha)
        assert h.edges == {(0, 0): 1, (1, 1): -1}

    @pytest.mark.parametrize("family,n", family_ranks(4))
    def test_every_root_carries_a_triple(self, family, n):
        rd = root_datum(family, n)
        for root in rd.roots:
            assert verify_sl2_triple(rd, root)

    def test_non_root_rejected(self):
        rd = root_datum(AlgebraFamily.SP, 2)
        with pytest.raises(ValueError):
            verify_sl2_triple(rd, (Fraction(3), Fraction(0)))

    @pytest.mark.parametrize("alpha", [(1.0, -1.0), (True, -1)])
    def test_float_and_bool_coordinates_are_rejected(self, alpha):
        with pytest.raises(TypeError, match="exact scalar expected"):
            verify_sl2_triple(root_datum(AlgebraFamily.SL, 2), alpha)


class TestWeightOf:
    def test_decompose_rejects_a_non_diagonal_cartan(self):
        # The edge rule reads roots correctly only when every Cartan element is diagonal.
        r = realization(AlgebraFamily.SL, 3)
        label, h = r.basis[0]
        skewed = ((label, h + EdgeMatrix.unit(3, 1, 2)), *r.basis[1:])
        with pytest.raises(L.InternalConsistencyError, match="Cartan basis element h1"):
            L.cartan_decompose(replace(r, basis=skewed))

    def test_rejects_non_eigenvector(self):
        r = realization(AlgebraFamily.SL, 3)
        mixed = r.basis[1][1] + r.basis[2][1]  # two different root vectors
        with pytest.raises(L.InternalConsistencyError):
            L.weight_of(r, mixed)

    def test_rejects_zero(self):
        r = realization(AlgebraFamily.SL, 2)
        with pytest.raises(ValueError):
            L.weight_of(r, r.basis[0][1] - r.basis[0][1])
