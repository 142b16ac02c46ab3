"""``check_membership`` against the product form of the defining relation.

For sp and so, ``check_membership`` relabels the edges of X through the
signed involution of the structure form S instead of forming X^t S + S X.
The reference below forms the products with the hand-written S of
``conftest.structure_form`` and tests them for zero; for sl it sums the
dense diagonal.  Both must agree on random members (rational
combinations of the basis) and on random non-members (a member with one
edge added or changed, a sparse random matrix, the transpose of a member),
for every family up to n = 5.
"""

import random
from fractions import Fraction

import pytest

from conftest import basis_of, family_ranks, realization, structure_form, transpose, unit

import liealg as L
from liealg import AlgebraFamily
from liealg.edges import EdgeMatrix

SCALARS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))


def reference_membership(x, spec):
    if spec.family is AlgebraFamily.SL:
        return sum(x[i, i] for i in range(x.dim)) == 0
    S = structure_form(spec)
    return (transpose(x) @ S + S @ x).is_zero()


def random_member(rng, basis):
    out = EdgeMatrix(basis[0].dim, {})
    for b in rng.sample(basis, rng.randint(1, min(4, len(basis)))):
        out = out + b.scale(rng.choice(SCALARS))
    return out


def candidates(rng, basis):
    """Members and non-members, 100 of each kind of draw."""
    dim = basis[0].dim
    for _ in range(100):
        member = random_member(rng, basis)
        yield member
        edge = unit(dim, rng.randint(1, dim), rng.randint(1, dim))
        yield member + edge.scale(rng.choice(SCALARS))
        yield EdgeMatrix(dim, {
            (rng.randrange(dim), rng.randrange(dim)): rng.choice(SCALARS)
            for _ in range(rng.randint(1, 4))
        })
        yield transpose(member)


@pytest.mark.parametrize("family,n", family_ranks(5))
def test_membership_matches_the_product_form(family, n):
    r = realization(family, n)
    rng = random.Random(f"{family.value}-{n}")
    verdicts = []
    for x in candidates(rng, list(basis_of(r))):
        expected = reference_membership(x, r.spec)
        assert L.check_membership(x, r.spec) == expected, x.edges
        verdicts.append(expected)
    assert True in verdicts and False in verdicts
