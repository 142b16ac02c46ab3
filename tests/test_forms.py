"""Killing form routes, proportionality constants, Cartan matrices, reflections."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from conftest import (
    basis_of, family_ranks, identity, realization, reflect, root_datum, root_vector,
)

import liealg as L
from liealg import AlgebraFamily, AlgebraSpec, adjoint, forms
from liealg.dynkin import CartanMatrix, cartan_entries
from liealg.edges import mat_bracket
from liealg.matrices import SpanSolver, dot


SIGMA = {
    AlgebraFamily.SL: lambda n: 2 * n,
    AlgebraFamily.SP: lambda n: 4 * (n + 1),
    AlgebraFamily.SO_EVEN: lambda n: 4 * (n - 1),
    AlgebraFamily.SO_ODD: lambda n: 4 * n - 2,
}


class TestKillingForm:
    def test_sl2_value_and_trace_multiple(self):
        r = realization(AlgebraFamily.SL, 2)
        h = r.cartan_basis[0]
        assert L.killing_form_ad(r, h, h) == 8
        assert L.killing_form_ad(r, h, h) == 4 * (h @ h).trace()

    def test_zero_argument(self):
        r = realization(AlgebraFamily.SP, 2)
        zero = r.basis[0][1] - r.basis[0][1]
        assert L.killing_form_ad(r, r.basis[1][1], zero) == 0

    def test_symmetry_on_sampled_pairs(self):
        r = realization(AlgebraFamily.SO_ODD, 2)
        rng = random.Random(7)
        mats = basis_of(r)
        for _ in range(10):
            x = rng.choice(mats)
            y = rng.choice(mats)
            assert L.killing_form_ad(r, x, y) == L.killing_form_ad(r, y, x)

    def test_rejects_non_members(self):
        r = realization(AlgebraFamily.SL, 2)
        with pytest.raises(ValueError):
            L.killing_form_ad(r, identity(2), r.basis[0][1])

    def test_roots_route_rejects_non_cartan(self):
        rd = root_datum(AlgebraFamily.SP, 2)
        x = root_vector(rd, rd.positive_roots[0])
        with pytest.raises(ValueError):
            L.killing_form_roots(rd, x, x)

    @pytest.mark.parametrize("family,n", family_ranks(4))
    def test_two_routes_agree_on_cartan(self, family, n):
        r = realization(family, n)
        rd = root_datum(family, n)
        for x in r.cartan_basis:
            for y in r.cartan_basis:
                assert L.killing_form_ad(r, x, y) == L.killing_form_roots(rd, x, y)

    @pytest.mark.parametrize("family,n", family_ranks(3))
    def test_cartan_gram_ad_is_pairwise_route_with_one_solver(self, family, n, monkeypatch):
        builds = []
        init = SpanSolver.__init__
        monkeypatch.setattr(
            SpanSolver, "__init__", lambda self, family: builds.append(1) or init(self, family)
        )
        r = L.build(AlgebraSpec(family, n))
        gram = adjoint.cartan_killing_gram_ad(r)
        # The one elimination of the basis is the rank check in build.
        assert len(builds) == 1
        cartan = r.cartan_basis
        assert gram == tuple(tuple(L.killing_form_ad(r, x, y) for y in cartan) for x in cartan)

    @pytest.mark.parametrize("family,n", family_ranks(6))
    def test_sigma_and_trace_coefficients(self, family, n):
        rd = root_datum(family, n)
        coeffs = L.killing_coefficients(rd)
        assert coeffs.sigma == SIGMA[family](n)
        r = rd.realization
        for x in r.cartan_basis:
            for y in r.cartan_basis:
                assert L.killing_form_roots(rd, x, y) == coeffs.trace * (x @ y).trace()

    def test_invariance_under_bracket(self):
        # kappa([x,y],z) + kappa(y,[x,z]) = 0 on sampled basis triples.
        rng = random.Random(41)
        for family, n in ((AlgebraFamily.SL, 3), (AlgebraFamily.SP, 2)):
            r = realization(family, n)
            mats = basis_of(r)
            for _ in range(6):
                x, y, z = (rng.choice(mats) for _ in range(3))
                lhs = L.killing_form_ad(r, mat_bracket(x, y), z)
                rhs = L.killing_form_ad(r, y, mat_bracket(x, z))
                assert lhs + rhs == 0


def expected_cartan(family: AlgebraFamily, lie_rank: int) -> tuple[tuple[int, ...], ...]:
    """The classical printed matrices, built independently of the engine."""
    m = lie_rank
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = 2
    for i in range(m - 1):
        rows[i][i + 1] = -1
        rows[i + 1][i] = -1
    if family is AlgebraFamily.SP and m >= 2:
        rows[m - 1][m - 2] = -2  # final row of the C-family matrix
    elif family is AlgebraFamily.SO_ODD and m >= 2:
        rows[m - 2][m - 1] = -2  # final column of the B-family matrix
    elif family is AlgebraFamily.SO_EVEN:
        for i, j in ((m - 2, m - 1), (m - 1, m - 2)):
            rows[i][j] = 0
        for i, j in ((m - 3, m - 1), (m - 1, m - 3)):
            rows[i][j] = -1
    return tuple(tuple(row) for row in rows)


class TestCartanMatrices:
    @pytest.mark.parametrize(
        "family,n",
        [
            (fam, n)
            for fam, n in family_ranks(8)
            if not (fam is AlgebraFamily.SL and n < 3)
            and not (fam is AlgebraFamily.SO_EVEN and n < 3)
            and not (fam is AlgebraFamily.SP and n < 2)
            and not (fam is AlgebraFamily.SO_ODD and n < 2)
        ],
    )
    def test_printed_patterns(self, family, n):
        rd = root_datum(family, n)
        A = L.cartan_matrix(rd)
        assert A.entries == expected_cartan(family, rd.spec.lie_rank)

    def test_sl3_matrix(self):
        A = L.cartan_matrix(root_datum(AlgebraFamily.SL, 3))
        assert A.entries == ((2, -1), (-1, 2))

    def test_sp_final_row(self):
        for n in range(2, 7):
            A = L.cartan_matrix(root_datum(AlgebraFamily.SP, n))
            assert A.entries[n - 1][n - 2] == -2
            assert A.entries[n - 2][n - 1] == -1

    def test_so_odd_final_column(self):
        for n in range(2, 7):
            A = L.cartan_matrix(root_datum(AlgebraFamily.SO_ODD, n))
            assert A.entries[n - 2][n - 1] == -2
            assert A.entries[n - 1][n - 2] == -1

    def test_so_even_trailing_block(self):
        for n in range(3, 7):
            A = L.cartan_matrix(root_datum(AlgebraFamily.SO_EVEN, n))
            block = tuple(tuple(A.entries[i][j] for j in range(n - 3, n)) for i in range(n - 3, n))
            assert block == ((2, -1, -1), (-1, 2, 0), (-1, 0, 2))

    @pytest.mark.parametrize("family,n", family_ranks(5))
    def test_pairing_is_transpose(self, family, n):
        rd = root_datum(family, n)
        A = L.cartan_matrix(rd)
        P = L.coroot_pairing_matrix(rd)
        assert P.entries == tuple(zip(*A.entries))

    @pytest.mark.parametrize("family,n", family_ranks(5))
    def test_products_bounded(self, family, n):
        A = L.cartan_matrix(root_datum(family, n))
        m = A.rank
        for i in range(m):
            for j in range(m):
                if i != j:
                    assert A[i, j] * A[j, i] in (0, 1, 2, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            CartanMatrix(((1,),))
        with pytest.raises(ValueError):
            CartanMatrix(((2, 1), (-1, 2)))
        with pytest.raises(ValueError):
            CartanMatrix(((2, -4), (-1, 2)))
        with pytest.raises(ValueError):
            CartanMatrix(((2, -1), (0, 2)))

    def test_non_integral_ratio_aborts(self):
        def skew(u, v):
            return dot(u, v) + Fraction(1, 3) * u[0] * v[1]

        fundamental = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        with pytest.raises(
            L.InternalConsistencyError, match=r"^Cartan entry \(1,2\) = 2/3 is not an integer$"
        ):
            cartan_entries(fundamental, skew)

    def test_non_integral_coroot_pairing_aborts(self):
        rd = SimpleNamespace(
            fundamental_coroots=((1, 0), (0, 1)),
            fundamental_roots=((2, -1), (Fraction(1, 2), 2)),
        )
        with pytest.raises(
            L.InternalConsistencyError, match=r"^coroot pairing \(1,2\) = 1/2 is not an integer$"
        ):
            forms.coroot_pairing_matrix(rd)


class TestReflect:
    def test_reflects_to_negative(self):
        a = (Fraction(1), Fraction(-1))
        assert reflect(dot, a, a) == (Fraction(-1), Fraction(1))

    def test_fixes_orthogonal(self):
        a = (Fraction(1), Fraction(0))
        b = (Fraction(0), Fraction(2))
        assert reflect(dot, a, b) == b

    def test_sl3_simple_reflection_example(self):
        rd = root_datum(AlgebraFamily.SL, 3)
        inner = L.weight_inner(rd)
        a1, a2 = rd.fundamental_roots
        image = reflect(inner, a1, a2)
        assert image == tuple(x + y for x, y in zip(a1, a2))

    def test_involution(self):
        rng = random.Random(5)
        for _ in range(20):
            a = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
            b = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
            if not any(a):
                continue
            assert reflect(dot, a, reflect(dot, a, b)) == b

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            reflect(dot, (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))
