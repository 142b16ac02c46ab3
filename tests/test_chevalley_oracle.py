"""Chevalley's structure-constant identity, an oracle on the built root vectors.

Take X_a = ``root_vector(a)`` for a positive root a and X_-a = ``partners[a]``,
so that [X_a, X_-a] = h_a for every root a, negative ones included.  For roots
a, b with a + b a root write [X_a, X_b] = N_ab X_(a+b).  Then

    N_ab * N_(-a)(-b) = -(p + 1)^2,

where p is the largest integer with b - p a a root (Chevalley 1955; Humphreys
1972, *Introduction to Lie Algebras and Representation Theory*, section 25).
The identity does not depend on how the root vectors are scaled, so it ties
the basis, the partners and the coroots together without fixing a
normalization.  Every pair is checked in every family at Lie rank <= 6.
"""

import pytest

from conftest import family_ranks, root_datum

from liealg import AlgebraFamily, AlgebraSpec
from liealg.edges import mat_bracket
from liealg.exact import negate, ratio


def vectors(rd):
    """X_a for every root a: the root vector when a is positive, else the partner of -a."""
    positive = set(rd.positive_roots)
    return {a: rd.root_vector(a) if a in positive else rd.partners[negate(a)]
            for a in rd.roots}


def constant(bracket, target):
    """N with bracket = N * target; fails unless the two are proportional."""
    edge = next(iter(target.edges))
    n = ratio(bracket[edge], target[edge])
    assert bracket == target.scale(n), "the bracket is not a multiple of X_(a+b)"
    return n


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def string_below(a, b, roots):
    """The largest p with b - p a a root."""
    p = 0
    while tuple(y - (p + 1) * x for x, y in zip(a, b)) in roots:
        p += 1
    return p


@pytest.mark.parametrize("family,n", [(family, n) for family, n in family_ranks(7)
                                      if AlgebraSpec(family, n).lie_rank <= 6])
def test_n_ab_times_n_minus_a_minus_b_is_minus_p_plus_one_squared(family, n):
    rd = root_datum(family, n)
    roots = set(rd.roots)
    x = vectors(rd)
    for a in rd.positive_roots:
        assert mat_bracket(x[a], x[negate(a)]) == rd.coroots[a]
    n_ab = {(a, b): constant(mat_bracket(x[a], x[b]), x[add(a, b)])
            for a in rd.roots for b in rd.roots if add(a, b) in roots}
    for (a, b), value in n_ab.items():
        p = string_below(a, b, roots)
        assert value * n_ab[negate(a), negate(b)] == -(p + 1) ** 2, (a, b)
    # Only A1 and D2 = A1 x A1 have no two roots whose sum is a root.
    assert n_ab or rd.spec.lie_rank == 1 or (family, n) == (AlgebraFamily.SO_EVEN, 2)
