"""The Weyl closure against a reference breadth-first search built on ``compose``.

``generate`` enumerates the group by whole cosets (Dimino's algorithm): each
coset H r of the group H of the earlier generators is one index map applied
to H, or to a doubled copy (h, -h) of it when r negates a coordinate.  The
reference below is the plain closure, one ``compose(element, g)`` per
candidate; both must give the same set of windows, and ``generate`` must
overflow exactly when the group is larger than the cap.  Membership in the
``WeylGroup`` that ``generate`` returns, a subgroup and its coset
representatives, must agree with the reference set on every signed
permutation of carrier size <= 4.  The generators are the simple
reflections of every family with |W| <= 10^5, then shuffled lists, every
order of the generators of A3, B3 and D4, lists with repeated, identity and
redundant generators, random words in them, and arbitrary signed
permutations, so that the negated positions fall anywhere in the window.
Overflow is decided between cosets, so the caps include |G_i| - 1, |G_i| and
|G_i| + 1 for the group G_i of each prefix of the generators.
"""

import itertools
import random

import pytest

from conftest import root_datum

import liealg as L
from liealg import AlgebraFamily, AlgebraSpec, WeylOverflowError
from liealg.weyl import compose, generate, simple_reflections

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

FAMILY_SIZES = (
    [(AlgebraFamily.SL, n) for n in range(2, 9)]
    + [(AlgebraFamily.SP, n) for n in range(1, 6)]
    + [(AlgebraFamily.SO_ODD, n) for n in range(1, 6)]
    + [(AlgebraFamily.SO_EVEN, n) for n in range(2, 7)]
)
SMALL = [(family, n) for family, n in FAMILY_SIZES
         if L.weyl_order_formula(AlgebraSpec(family, n)) <= 4000]


def reference_generate(gens, cap=100_000):
    """Breadth-first closure with one ``compose`` call per candidate."""
    n = len(gens[0])
    identity = tuple(range(1, n + 1))
    seen = {identity}
    frontier = [identity]
    while frontier:
        next_frontier = []
        for element in frontier:
            for g in gens:
                candidate = compose(element, g)
                if candidate not in seen:
                    seen.add(candidate)
                    if len(seen) > cap:
                        raise WeylOverflowError(f"group order exceeds cap {cap}")
                    next_frontier.append(candidate)
        frontier = next_frontier
    return frozenset(seen)


def word(gens, letters, n):
    element = tuple(range(1, n + 1))
    for i in letters:
        element = compose(element, gens[i])
    return element


@pytest.mark.parametrize("family,n", FAMILY_SIZES)
def test_simple_reflections_close_to_the_reference_group(family, n):
    gens = simple_reflections(root_datum(family, n))
    order = L.weyl_order_formula(AlgebraSpec(family, n))
    assert order <= 100_000
    group = generate(gens)
    assert group == reference_generate(gens)
    assert len(group) == order
    assert all(isinstance(w, tuple) and len(w) == n for w in group)
    assert generate(gens, cap=order) == group
    with pytest.raises(WeylOverflowError, match=f"cap {order - 1}$"):
        generate(gens, cap=order - 1)


def signed_permutations(n):
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield tuple(sign * v for sign, v in zip(signs, perm))


@pytest.mark.parametrize("family,n", [(family, n) for family, n in FAMILY_SIZES if n <= 4])
def test_membership_matches_the_reference_on_every_signed_permutation(family, n):
    gens = simple_reflections(root_datum(family, n))
    for order in (gens, gens[::-1]):
        group, expected = generate(order), reference_generate(order)
        assert all((w in group) == (w in expected) for w in signed_permutations(n))


@pytest.mark.parametrize("family,n", SMALL)
def test_shuffled_generators_give_the_same_group(family, n):
    gens = simple_reflections(root_datum(family, n))
    rng = random.Random(f"{family.value}-{n}")
    for _ in range(3):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert generate(shuffled) == reference_generate(gens)


def outcome(enumerate_group, gens, cap):
    """The group, or the overflow message."""
    try:
        return enumerate_group(gens, cap)
    except WeylOverflowError as error:
        return str(error)


# A3, B3 and D4, whose generators are tried in every order.
ORDERED = [(AlgebraFamily.SL, 4), (AlgebraFamily.SO_ODD, 3), (AlgebraFamily.SO_EVEN, 4)]


@pytest.mark.parametrize("family,n", ORDERED)
def test_every_order_of_the_generators_gives_the_same_group(family, n):
    gens = simple_reflections(root_datum(family, n))
    expected = reference_generate(gens)
    for order in itertools.permutations(gens):
        assert generate(list(order)) == expected


@pytest.mark.parametrize("family,n", ORDERED)
def test_repeated_identity_and_redundant_generators(family, n):
    gens = simple_reflections(root_datum(family, n))
    identity = tuple(range(1, n + 1))
    product = compose(gens[0], gens[1])
    expected = reference_generate(gens)
    for padded in (
        [gens[0], *gens],
        [*gens, gens[-1]],
        [identity, *gens],
        [gens[0], identity, *gens[1:], identity],
        [gens[0], gens[1], product, *gens[2:]],
        [*gens, product, compose(product, gens[-1])],
    ):
        assert generate(padded) == expected
    assert generate([identity]) == {identity}
    assert generate([gens[0], gens[0]]) == {identity, gens[0]}


@pytest.mark.parametrize("family,n", ORDERED)
def test_overflow_between_cosets_matches_the_reference(family, n):
    gens = simple_reflections(root_datum(family, n))
    for order in (gens, gens[::-1]):
        for i in range(1, len(order) + 1):
            size = len(reference_generate(order[:i]))
            for cap in (size - 1, size, size + 1):
                if cap < 1:
                    continue
                for tried in (order, order[:i]):
                    assert outcome(generate, tried, cap) == outcome(reference_generate, tried, cap)


@st.composite
def generator_sets(draw):
    """Random words in the simple reflections, or arbitrary signed permutations."""
    if draw(st.booleans()):
        family, n = draw(st.sampled_from(SMALL))
        simple = simple_reflections(root_datum(family, n))
        letters = st.lists(st.integers(0, len(simple) - 1), max_size=8)
        gens = [word(simple, draw(letters), n) for _ in range(draw(st.integers(1, 4)))]
    else:
        n = draw(st.integers(1, 4))
        signed = st.tuples(st.permutations(range(1, n + 1)),
                           st.lists(st.booleans(), min_size=n, max_size=n))
        gens = [tuple(-v if flip else v for v, flip in zip(perm, flips))
                for perm, flips in draw(st.lists(signed, min_size=1, max_size=3))]
    return gens, draw(st.integers(1, 400))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(generator_sets())
def test_random_generators_match_the_reference_under_every_cap(case):
    gens, cap = case
    try:
        expected = reference_generate(gens, cap)
    except WeylOverflowError:
        with pytest.raises(WeylOverflowError, match=f"cap {cap}$"):
            generate(gens, cap)
    else:
        assert generate(gens, cap) == expected
