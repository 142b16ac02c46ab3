"""Signed permutations as windows, simple reflections, and group enumeration."""

import tracemalloc
from collections.abc import Set
from fractions import Fraction
from math import factorial, prod

import pytest

from conftest import family_ranks, replace, root_datum, weyl_group

import liealg as L
from liealg import AlgebraFamily, AlgebraSpec, WeylOverflowError, weyl
from liealg.edges import EdgeMatrix
from liealg.records import InternalConsistencyError
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

    @pytest.mark.parametrize("x", [(2, 1), (3, 0)], ids=["two-entries", "entry-minus-two"])
    def test_rejects_a_reflection_that_is_not_a_signed_permutation(self, x):
        # s(e_1) = e_1 - a_1 x with a = (1, 0): x = (2, 1) gives a column with
        # two entries -1, x = (3, 0) a single entry -2.  Each trips one
        # condition of the guard alone.
        rd = root_datum(AlgebraFamily.SP, 2)
        diagonal = (x[0], x[1], -x[0], -x[1])
        coroot = EdgeMatrix(4, {(k, k): v for k, v in enumerate(diagonal) if v})
        broken = replace(rd, fundamental_roots=((1, 0),), fundamental_coroots=(coroot,))
        with pytest.raises(InternalConsistencyError, match="not a signed permutation"):
            simple_reflections(broken)

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

    def test_rejects_generators_of_carrier_size_zero(self):
        with pytest.raises(ValueError, match="at least one coordinate"):
            generate([()])

    @pytest.mark.parametrize("gens", [[(1,)], [(2, 1)]])
    @pytest.mark.parametrize("cap", [0, -1])
    def test_rejects_a_cap_below_one(self, gens, cap):
        # A cap of 0 must not pass as a group of order 1, nor overflow later.
        with pytest.raises(ValueError, match="cap must be positive"):
            generate(gens, cap=cap)

    @pytest.mark.parametrize("window", [(True, 2), (2.0, 1), (2, Fraction(1))])
    def test_rejects_a_window_entry_that_is_not_an_int(self, window):
        # Each passes the signed-permutation check by value.
        with pytest.raises(TypeError, match="window entries must be ints"):
            generate([(2, -1), window])

    @pytest.mark.parametrize("cap", [1.5, 2.0, True, Fraction(2)])
    def test_rejects_a_cap_that_is_not_an_int(self, cap):
        # Compared as a number, 1.5 would read as a cap in an overflow message and True as 1.
        with pytest.raises(TypeError, match="cap must be an int"):
            generate([(2, 1)], cap=cap)

    def test_cap_overflow_raises(self):
        rd = root_datum(AlgebraFamily.SP, 3)
        with pytest.raises(WeylOverflowError):
            generate(simple_reflections(rd), cap=47)

    def test_default_cap_is_100000(self):
        # |W(A8)| = 9! = 362880 is above the default cap.
        gens = simple_reflections(root_datum(AlgebraFamily.SL, 9))
        with pytest.raises(WeylOverflowError, match="cap 100000$"):
            generate(gens)

    def test_b_and_c_generate_identical_sets(self):
        for n in (1, 2, 3, 4):
            b = weyl_group(AlgebraFamily.SO_ODD, n)
            c = weyl_group(AlgebraFamily.SP, n)
            assert b == c and hash(b) == hash(c)

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


def formed_by(monkeypatch) -> list[int]:
    """A one-entry counter of the elements ``generate`` forms from now on: each is one
    call of a map that ``weyl._source`` returns."""
    count = [0]
    source = weyl._source

    def counting(positions):
        getter = source(positions)

        def read(w):
            count[0] += 1
            return getter(w)

        return read

    monkeypatch.setattr(weyl, "_source", counting)
    return count


@pytest.mark.parametrize("family,n", [(family, n) for family, n in family_ranks(5)
                                      if 2 <= AlgebraSpec(family, n).lie_rank <= 4])
def test_each_element_is_formed_once(family, n, monkeypatch):
    # The identity is seeded, not formed.  ``generate`` forms the group H of every
    # generator but the last, which has order (Lie rank)! here.  Measured: 1, 5, 23 at
    # Lie rank 2, 3, 4 in every family; then iterating forms the other cosets, for
    # |W| - 1 in all: sl 5, 23, 119; sp and so-odd 7, 47, 383; so-even 3, 23, 191.
    gens = simple_reflections(root_datum(family, n))
    count = formed_by(monkeypatch)
    group = generate(gens)
    assert count[0] == factorial(AlgebraSpec(family, n).lie_rank) - 1 == len(group.subgroup) - 1
    elements = frozenset(group)
    assert len(elements) == len(group) == L.weyl_order_formula(AlgebraSpec(family, n))
    assert count[0] == len(group) - 1


def test_an_overflow_forms_the_subgroup_and_no_other_coset(monkeypatch):
    # H = W(A6), |H| = 7! = 5040, is formed (5039 elements, the identity seeded);
    # the second representative of W(A7) brings |H| * 2 = 10080 over the cap.
    gens = simple_reflections(root_datum(AlgebraFamily.SL, 8))
    count = formed_by(monkeypatch)
    with pytest.raises(WeylOverflowError):
        generate(gens, cap=10_000)
    assert count[0] == 5039 <= 10_000


def traced(function):
    """The result of one call of ``function`` and its tracemalloc peak in MB."""
    tracemalloc.start()
    try:
        result = function()
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_generate_holds_only_the_subgroup():
    # |W(D6)| = 23,040, |H| = 6! = 720: measured 0.19 MB, where holding every
    # element took 5.04 MB.
    gens = simple_reflections(root_datum(AlgebraFamily.SO_EVEN, 6))
    group, peak = traced(lambda: generate(gens))
    assert len(group) == 23_040 and peak < 1


def test_generate_reaches_a8_in_bounded_memory():
    # |W(A8)| = 9! = 362,880 with H = W(A7), |H| = 40,320: measured 6.8 MB, where
    # holding every element took 71 MB.
    gens = simple_reflections(root_datum(AlgebraFamily.SL, 9))
    group, peak = traced(lambda: generate(gens, cap=362_880))
    assert len(group) == 362_880 and len(group.representatives) == 9
    assert peak < 16


class TestWeylGroupIsASet:
    def test_equal_to_and_hashed_like_the_frozenset_of_its_elements(self):
        group = weyl_group(AlgebraFamily.SO_EVEN, 4)
        elements = frozenset(group)
        assert isinstance(group, Set)
        assert group == elements and elements == group
        assert not group != elements and not elements != group
        assert hash(group) == hash(elements)
        assert group | elements == elements and group - elements == frozenset()

    def test_other_generators_of_one_group_give_an_equal_group(self):
        # Record equality would compare the fields, which differ here.
        gens = simple_reflections(root_datum(AlgebraFamily.SP, 3))
        ordered, reversed_ = generate(gens), generate(gens[::-1])
        assert ordered.subgroup != reversed_.subgroup
        assert ordered == reversed_ and hash(ordered) == hash(reversed_)

    @pytest.mark.parametrize("value", [[1, 2], (1, 2, 3), (1,), (1.0, 2), (True, 2),
                                       (Fraction(1), 2), ("a", 2), None],
                             ids=["list", "long", "short", "float", "bool", "fraction",
                                  "str", "none"])
    def test_what_is_not_a_window_of_the_carrier_size_is_not_a_member(self, value):
        # Every signed permutation of size 2 is in W(B2); the list, float, bool and
        # Fraction values equal (1, 2) as a list or by value.
        group = weyl_group(AlgebraFamily.SP, 2)
        assert (1, 2) in group and (-2, 1) in group
        assert value not in group

    def test_its_length_forms_nothing(self, monkeypatch):
        gens = simple_reflections(root_datum(AlgebraFamily.SO_EVEN, 5))
        group = generate(gens)
        count = formed_by(monkeypatch)
        assert len(group) == 1920
        assert count[0] == 0
