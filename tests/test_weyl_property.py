"""Weyl group elements, as words in the simple reflections, are isometries of
the root system.

For every family up to Lie rank 4, random words g and h in the simple
reflections must each map the root set onto itself, preserve the Killing
inner product on every pair of roots, and (for so-even) change an even number
of signs; the window product must act as the composite of the actions.
"""

from fractions import Fraction
from functools import reduce
from math import prod

import pytest

from conftest import family_ranks, root_datum

import liealg as L
from liealg import AlgebraFamily, AlgebraSpec
from liealg.weyl import apply, compose, simple_reflections

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

CASES = [(family, n) for family, n in family_ranks(5) if AlgebraSpec(family, n).lie_rank <= 4]

_INNER_TABLES = {}


def inner_table(family, n):
    """weight_inner on every ordered pair of roots, computed once per algebra."""
    if (family, n) not in _INNER_TABLES:
        rd = root_datum(family, n)
        inner = L.weight_inner(rd)
        _INNER_TABLES[family, n] = {(a, b): inner(a, b) for a in rd.roots for b in rd.roots}
    return _INNER_TABLES[family, n]


def word_element(gens, word, n):
    return reduce(compose, (gens[i] for i in word), tuple(range(1, n + 1)))


@st.composite
def words(draw):
    family, n = draw(st.sampled_from(CASES))
    letters = st.lists(st.integers(0, AlgebraSpec(family, n).lie_rank - 1), max_size=12)
    x = draw(st.lists(st.fractions(-5, 5, max_denominator=6), min_size=n, max_size=n))
    return family, n, draw(letters), draw(letters), tuple(x)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(words())
def test_words_in_simple_reflections_are_root_system_isometries(case):
    family, n, word_g, word_h, x = case
    rd = root_datum(family, n)
    gens = simple_reflections(rd)
    g, h = word_element(gens, word_g, n), word_element(gens, word_h, n)
    table = inner_table(family, n)
    for w in (g, h, compose(g, h)):
        image = {root: apply(w, root) for root in rd.roots}
        assert set(image.values()) == set(rd.roots)
        assert all(table[image[a], image[b]] == value for (a, b), value in table.items())
        if family is AlgebraFamily.SO_EVEN:
            assert prod(1 if v > 0 else -1 for v in w) == 1
    assert apply(compose(g, h), x) == apply(g, apply(h, x))
    assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in apply(g, x))
