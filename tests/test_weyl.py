"""Signed permutations as windows, simple reflections, and group enumeration."""

from fractions import Fraction
from math import prod

import pytest

from conftest import family_ranks, root_datum, weyl_group

import liealg as L
from liealg import AlgebraFamily, WeylOverflowError
from liealg.weyl import apply, compose, generate, simple_reflections


def identity(n):
    return tuple(range(1, n + 1))


def is_identity(g):
    return g == identity(len(g))


def inverse(g):
    """g sends e_k to sign * e_i, so its inverse sends e_i to sign * e_k."""
    out = [0] * len(g)
    for k, v in enumerate(g, start=1):
        out[abs(v) - 1] = k if v > 0 else -k
    return tuple(out)


def sign_product(g):
    return prod(1 if v > 0 else -1 for v in g)


def element_order(g, cap=64):
    """Smallest k <= cap with g^k the identity."""
    power = g
    for order in range(1, cap + 1):
        if is_identity(power):
            return order
        power = compose(power, g)
    raise AssertionError(f"element order exceeds {cap}")


def flip(n, index):
    """e_index -> -e_index (0-based index)."""
    return tuple(-k if k == index + 1 else k for k in range(1, n + 1))


def transposition(n, i, j):
    """e_i <-> e_j (0-based indices)."""
    window = list(identity(n))
    window[i], window[j] = window[j], window[i]
    return tuple(window)


class TestGroupLaw:
    def test_identity_composition(self):
        g = transposition(3, 0, 1)
        e = identity(3)
        assert compose(e, g) == g
        assert compose(g, e) == g

    def test_inverse(self):
        g = compose(flip(3, 2), transposition(3, 0, 2))
        assert is_identity(compose(g, inverse(g)))
        assert is_identity(compose(inverse(g), g))

    def test_sign_flips_square_to_identity(self):
        f = flip(4, 1)
        assert is_identity(compose(f, f))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compose(flip(2, 0), flip(3, 0))

    def test_semidirect_law_matches_action(self):
        # (a,p)(b,q) acting on x equals (a,p) acting on (b,q) x.
        g = compose(flip(3, 0), transposition(3, 0, 2))
        h = compose(flip(3, 1), transposition(3, 1, 2))
        x = (Fraction(2), Fraction(-3), Fraction(5))
        assert apply(compose(g, h), x) == apply(g, apply(h, x))


class TestAction:
    def test_transposition_action(self):
        g = transposition(3, 0, 1)
        assert apply(g, (1, 2, 3)) == (2, 1, 3)

    def test_sign_flip_action(self):
        g = flip(3, 2)
        assert apply(g, (1, 2, 3)) == (1, 2, -3)

    def test_identity_action(self):
        assert apply(identity(2), (5, 7)) == (5, 7)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply(flip(2, 0), (1, 2, 3))


class TestSimpleReflections:
    def test_sl_reflections_are_adjacent_transpositions(self):
        rd = root_datum(AlgebraFamily.SL, 4)
        gens = simple_reflections(rd)
        for i, g in enumerate(gens):
            assert g == transposition(4, i, i + 1)

    def test_sp_last_reflection_is_sign_flip(self):
        for n in (1, 2, 3):
            rd = root_datum(AlgebraFamily.SP, n)
            gens = simple_reflections(rd)
            assert gens[-1] == flip(n, n - 1)

    def test_so_odd_last_reflection_is_sign_flip(self):
        rd = root_datum(AlgebraFamily.SO_ODD, 3)
        assert simple_reflections(rd)[-1] == flip(3, 2)

    def test_so_even_last_reflection_swaps_and_flips(self):
        rd = root_datum(AlgebraFamily.SO_EVEN, 3)
        last = simple_reflections(rd)[-1]
        expected = compose(
            compose(flip(3, 1), flip(3, 2)), transposition(3, 1, 2)
        )
        assert last == expected

    @pytest.mark.parametrize("family,n", family_ranks(4))
    def test_generators_have_order_two(self, family, n):
        for g in simple_reflections(root_datum(family, n)):
            assert element_order(g) == 2

    @pytest.mark.parametrize("family,n", family_ranks(4))
    def test_braid_orders_match_cartan(self, family, n):
        rd = root_datum(family, n)
        gens = simple_reflections(rd)
        A = L.cartan_matrix(rd)
        expected_order = {0: 2, 1: 3, 2: 4, 3: 6}
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                product = A[i, j] * A[j, i]
                assert element_order(compose(gens[i], gens[j])) == expected_order[product]


class TestGenerate:
    def test_a2_order(self):
        assert len(weyl_group(AlgebraFamily.SL, 3)) == 6

    def test_c3_order(self):
        assert len(weyl_group(AlgebraFamily.SP, 3)) == 48

    def test_d4_order(self):
        assert len(weyl_group(AlgebraFamily.SO_EVEN, 4)) == 192

    def test_b2_order(self):
        assert len(weyl_group(AlgebraFamily.SO_ODD, 2)) == 8

    @pytest.mark.parametrize("window", [(1, 1), (0, 2), (3, 1)])
    def test_rejects_window_that_is_not_a_signed_permutation(self, window):
        with pytest.raises(ValueError, match="not a signed permutation"):
            generate([(2, -1), window])

    def test_rejects_generators_of_mixed_lengths(self):
        with pytest.raises(ValueError, match="one carrier size"):
            generate([(2, 1), (1, -2, 3)])

    def test_cap_overflow_raises(self):
        rd = root_datum(AlgebraFamily.SP, 3)
        with pytest.raises(WeylOverflowError):
            generate(simple_reflections(rd), cap=47)

    def test_b_and_c_generate_identical_sets(self):
        for n in (2, 3, 4):
            b = weyl_group(AlgebraFamily.SO_ODD, n)
            c = weyl_group(AlgebraFamily.SP, n)
            assert b == c

    def test_so_even_elements_have_even_sign_changes(self):
        for n in (2, 3, 4):
            group = weyl_group(AlgebraFamily.SO_EVEN, n)
            assert all(sign_product(g) == 1 for g in group)

    @pytest.mark.parametrize("family,n", family_ranks(4))
    def test_generators_permute_roots(self, family, n):
        rd = root_datum(family, n)
        gens = simple_reflections(rd)
        root_set = set(rd.roots)
        for g in gens:
            image = {apply(g, root) for root in rd.roots}
            assert image == root_set

    def test_sl_action_preserves_sum_zero(self):
        rd = root_datum(AlgebraFamily.SL, 4)
        for g in simple_reflections(rd):
            assert all(v > 0 for v in g)
            assert sum(apply(g, (1, 2, 3, -6))) == 0
