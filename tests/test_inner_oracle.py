"""The certified weight inner product against the inverse-Gram route it replaced.

``cartan_killing_gram`` and ``weight_inner`` below are the Fraction-arithmetic
Gram and the inverse-Gram inner product that the library used before the
Killing metric was certified once per root datum, kept verbatim as an
oracle.  For every family up to Lie rank 7 the library's u.v/sigma must
equal the oracle on every pair of roots and fundamental weights, and on
seeded random rational pairs, sl vectors off the sum-zero hyperplane
included.
"""

import random
from fractions import Fraction

import pytest

from conftest import family_ranks, replace, root_datum, run_cli

import liealg as L
from liealg import AlgebraFamily, AlgebraSpec, forms
from liealg.exact import Inner, Weight
from liealg.matrices import dot, solve_linear
from liealg.records import InternalConsistencyError
from liealg.roots import RootDatum

CASES = [(family, n) for family, n in family_ranks(8) if AlgebraSpec(family, n).lie_rank <= 7]


def cartan_killing_gram(rd: RootDatum) -> list[list[Fraction]]:
    """Gram matrix of the Killing form on the Cartan basis.

    This is the ad-trace form: ad(h) is diagonal in the canonical basis with
    the root values as eigenvalues, so tr(ad(h) ad(h')) is accumulated
    directly from those eigenvalues.
    """
    r = rd.realization
    coords = [r.diag_coords(h) for h in r.cartan_basis]
    size = len(coords)
    eigen = [[dot(root, c) for root in rd.roots] for c in coords]
    gram = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            value = sum(
                (ei * ej for ei, ej in zip(eigen[i], eigen[j])), Fraction(0)
            )
            gram[i][j] = value
            gram[j][i] = value
    return gram


def weight_inner(rd: RootDatum) -> Inner:
    """The inner product on weights induced by the Killing form.

    A weight evaluates on the Cartan basis; transporting through the
    isomorphism h -> h* given by the Killing form yields
    <u, v> = eval(u) . K^-1 eval(v) with K the Cartan Gram matrix.
    """
    r = rd.realization
    coords = [r.diag_coords(h) for h in r.cartan_basis]
    gram = cartan_killing_gram(rd)
    cache: dict[Weight, list[Fraction]] = {}

    def solve(weight: Weight) -> list[Fraction]:
        key = tuple(Fraction(c) for c in weight)
        if key not in cache:
            evaluation = [dot(key, c) for c in coords]
            [cache[key]] = solve_linear(gram, evaluation)
        return cache[key]

    def inner(u: Weight, v: Weight) -> Fraction:
        evaluation = [dot(tuple(Fraction(c) for c in u), c) for c in coords]
        return dot(evaluation, solve(v))

    return inner


@pytest.mark.parametrize("family,n", CASES)
def test_gram_equals_fraction_route(family, n):
    rd = root_datum(family, n)
    assert list(map(list, rd.killing_metric.gram)) == cartan_killing_gram(rd)


@pytest.mark.parametrize("family,n", CASES)
def test_inner_equals_inverse_gram_on_roots_and_weights(family, n):
    rd = root_datum(family, n)
    new, old = L.weight_inner(rd), weight_inner(rd)
    vectors = (*rd.roots, *rd.fundamental_weights)
    for u in vectors:
        for v in vectors:
            value = new(u, v)
            assert type(value) is int or (type(value) is Fraction and value.denominator > 1)
            assert value == old(u, v), (u, v)


@pytest.mark.parametrize("family,n", CASES)
def test_inner_equals_inverse_gram_on_random_rationals(family, n):
    rd = root_datum(family, n)
    new, old = L.weight_inner(rd), weight_inner(rd)
    rng = random.Random(f"{family.cli_name} {n}")

    def vector():
        return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n))

    pairs = [(vector(), vector()) for _ in range(40)]
    # Most random vectors lie off the sum-zero hyperplane, where the sl
    # inner product projects first; make sure of a few.
    assert sum(1 for u, _ in pairs if sum(u)) >= 30
    for u, v in pairs:
        assert new(u, v) == old(u, v), (u, v)


@pytest.mark.parametrize("family,n", [(AlgebraFamily.SL, 4), (AlgebraFamily.SP, 3),
                                      (AlgebraFamily.SO_EVEN, 4), (AlgebraFamily.SO_ODD, 3)])
def test_gram_scales_exactly_on_fractional_roots(family, n):
    # Real roots have integer coordinates; halved ones exercise the common
    # denominator of the integer sums.
    rd = root_datum(family, n)
    halved = replace(rd, roots=tuple(tuple(Fraction(c, 2) for c in w) for w in rd.roots))
    assert list(map(list, halved.killing_metric.gram)) == cartan_killing_gram(halved)
    assert forms.killing_coefficients(halved).sigma == forms.killing_coefficients(rd).sigma / 4


@pytest.mark.parametrize("keep,message", [(slice(1, None), "not proportional"),
                                          (slice(0, 0), "vanishes")])
def test_certificate_rejects_a_wrong_gram(keep, message):
    rd = root_datum(AlgebraFamily.SP, 2)
    with pytest.raises(InternalConsistencyError, match=message):
        forms.killing_coefficients(replace(rd, roots=rd.roots[keep]))


@pytest.mark.parametrize("argv", [["info", "sp", "3"], ["info", "sl", "5", "--format", "json"],
                                  ["verify", "so-odd", "3", "all"]])
def test_one_command_sums_the_gram_once(argv, monkeypatch):
    calls = []
    metric = forms.killing_coefficients
    monkeypatch.setattr(forms, "killing_coefficients", lambda rd: calls.append(rd) or metric(rd))
    code, _ = run_cli(argv)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [["serre", "sp", "3"], ["verify", "sl", "4", "weyl"],
                                  ["invariants", "so-even", "3"]])
def test_commands_without_inner_products_never_sum_the_gram(argv, monkeypatch):
    calls = []
    monkeypatch.setattr(forms, "killing_coefficients", lambda rd: calls.append(rd))
    code, _ = run_cli(argv)
    assert code == 0
    assert calls == []
