"""The Killing form is ad-invariant: K([z, x], y) = -K(x, [z, y]).

For every family up to Lie rank 3, x, y and z are random rational
combinations of basis elements, and both sides go through the ad-trace
route ``killing_form_ad``.
"""

from fractions import Fraction
from functools import reduce

import pytest

from conftest import basis_of, family_ranks, realization

import liealg as L
from liealg import AlgebraSpec
from liealg.edges import mat_bracket

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

CASES = [(family, n) for family, n in family_ranks(4) if AlgebraSpec(family, n).lie_rank <= 3]


def combinations(dim):
    """Lists of (basis index, coefficient) terms, summed into one element."""
    term = st.tuples(st.integers(0, dim - 1), st.fractions(-3, 3, max_denominator=4))
    return st.lists(term, min_size=2, max_size=dim)


@pytest.mark.parametrize("family,n", CASES)
def test_killing_form_is_ad_invariant(family, n):
    r = realization(family, n)
    mats = basis_of(r)
    terms = combinations(len(mats))

    @settings(derandomize=True, max_examples=8, deadline=None, database=None)
    @given(terms, terms, terms)
    def check(tx, ty, tz):
        x, y, z = (reduce(lambda a, b: a + b, (mats[i].scale(c) for i, c in t))
                   for t in (tx, ty, tz))
        lhs = L.killing_form_ad(r, mat_bracket(z, x), y)
        rhs = L.killing_form_ad(r, x, mat_bracket(z, y))
        assert type(lhs) is int or (type(lhs) is Fraction and lhs.denominator > 1)
        assert lhs == -rhs

    check()
