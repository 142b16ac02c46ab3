"""The scalar rule: an integral value is a Python int, everywhere.

Every basis entry, root coordinate, coroot coordinate and Cartan integer of
the four families is an integer, so each must be typed ``int``; a
fundamental weight coordinate is an int or a Fraction that is not integral.
A ``Fraction(...)`` wrapper brought back anywhere on the path fails here,
not only as a slower benchmark.  The derived values (Killing metric, weight
inner products, root lengths, determinants, Weyl images, invariant
polynomials and parsed rationals) must be canonical in the same sense, and
every entry point that reads a scalar must reject a float or a bool.

A matrix's entries are read once, by the ``EdgeMatrix`` constructor: it
stores each entry as an int when it is integral and as a Fraction otherwise,
drops zeros, and rejects a float or a bool entry, a dimension that is not an
int >= 1 and an edge outside the matrix.  The matrix rows of
``SCALAR_READERS`` (``a + b``, ``a @ b``, ``weight_of``, ``check_membership``,
``diag_coords``) raise because they build a matrix.  On matrices whose
entries mix ints, proper Fractions and integral Fractions, ``+``, ``-``,
``@``, ``scale`` and ``mat_bracket`` must return canonical entries and agree
with the same operation computed densely on all-Fraction rows in the test.
"""

import re
from fractions import Fraction
from operator import add, sub

import pytest

from conftest import dense, family_ranks, from_rows, realization, root_datum, variable

from liealg import (AlgebraFamily, AlgebraSpec, check_membership, dynkin, forms, invariants,
                    weight_of)
from liealg.dynkin import check_positive_definite
from liealg.exact import parse_rational, ratio
from liealg.edges import EdgeMatrix, mat_bracket
from liealg.matrices import determinant
from liealg.polynomials import MultiPoly
from liealg.weyl import apply, simple_reflections

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# Every family at Lie rank up to 8.
CASES = [(family, n) for family, n in family_ranks(9) if AlgebraSpec(family, n).lie_rank <= 8]


def is_canonical(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


@pytest.mark.parametrize("family,n", CASES)
def test_integral_values_are_ints(family, n):
    r = realization(family, n)
    rd = root_datum(family, n)
    entries = [x for _, m in r.basis for x in m.edges.values()]
    roots = [c for a in (*rd.roots, *rd.fundamental_roots) for c in a]
    coroots = [c for h in rd.coroots.values() for c in r.diag_coords(h)]
    cartan = [a for row in forms.cartan_matrix(rd).entries for a in row]
    # Every pivot of the basis elimination is +-1, so its stored rows stay ints.
    eliminated = [x for row, combination in r.span._echelon.rows.values()
                  for x in (*row.values(), *combination.values())]
    for what, values in (("basis entry", entries), ("root coordinate", roots),
                         ("coroot coordinate", coroots), ("Cartan entry", cartan),
                         ("eliminated basis entry", eliminated)):
        bad = [x for x in values if type(x) is not int]
        assert not bad, f"{what} not an int: {bad[:3]}"


@pytest.mark.parametrize("family,n", CASES)
def test_fundamental_weights_are_canonical(family, n):
    weights = [c for w in root_datum(family, n).fundamental_weights for c in w]
    assert all(map(is_canonical, weights)), weights


# Fraction(k, d) is integral whenever d divides k.
scalars = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def matrix_pairs(draw):
    dim = draw(st.integers(1, 4))
    rows = st.lists(st.lists(scalars, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
    return draw(rows), draw(rows), draw(scalars)


def dense_product(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)]


def entrywise(op, a, b):
    return [[op(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(matrix_pairs())
def test_operations_return_canonical_exact_values(case):
    rows_a, rows_b, c = case
    a, b = from_rows(rows_a), from_rows(rows_b)
    fa = [[Fraction(x) for x in row] for row in rows_a]
    fb = [[Fraction(x) for x in row] for row in rows_b]
    ab, ba = dense_product(fa, fb), dense_product(fb, fa)
    expected = [
        (a, fa),
        (a + b, entrywise(add, fa, fb)),
        (a - b, entrywise(sub, fa, fb)),
        (a @ b, ab),
        (a.scale(c), [[Fraction(c) * x for x in row] for row in fa]),
        (mat_bracket(a, b), entrywise(sub, ab, ba)),
    ]
    for result, reference in expected:
        assert all(map(is_canonical, result.edges.values())), result.edges
        assert [list(row) for row in dense(result)] == reference


@pytest.mark.parametrize("family,n", CASES)
def test_derived_values_are_canonical(family, n):
    rd = root_datum(family, n)
    metric = forms.killing_coefficients(rd)
    inner = forms.weight_inner(rd)
    vectors = (*rd.roots, *rd.fundamental_weights)
    cartan = forms.cartan_matrix(rd).entries
    images = [c for g in simple_reflections(rd) for a in rd.roots for c in apply(g, a)]
    suite = invariants.build_suite(family, AlgebraSpec(family, n).lie_rank)
    for what, values in (
        ("Killing gram", [x for row in metric.gram for x in row]),
        ("Killing sigma and trace", [metric.sigma, metric.trace]),
        ("weight inner product", [inner(u, v) for u in vectors for v in vectors]),
        ("root length", forms.root_lengths(rd)),
        ("Cartan determinant", [determinant(cartan)]),
        ("Weyl image", images),
        ("Jacobian point value", [invariants._jacobian_at_point(suite)]),
        ("invariant coefficient", [c for p in suite.polys for c in p.terms.values()]),
    ):
        bad = [x for x in values if not is_canonical(x)]
        assert not bad, f"{what} not canonical: {bad[:3]}"


def test_parsed_rationals_are_canonical():
    assert type(parse_rational("6/3")) is int and parse_rational("6/3") == 2
    assert parse_rational("-3/6") == Fraction(-1, 2)


def test_ratio_is_the_canonical_quotient():
    assert type(ratio(6, 3)) is int and ratio(6, 3) == 2
    assert ratio(Fraction(3, 2), Fraction(1, 2)) == 3 and type(ratio(Fraction(3, 2), Fraction(1, 2))) is int
    assert ratio(1, -2) == Fraction(-1, 2)
    with pytest.raises(ZeroDivisionError):
        ratio(1, 0)


A2 = dynkin.CartanMatrix(((2, -1), (-1, 2)))


def scaled_root_vector_membership(family: AlgebraFamily, x) -> bool:
    """Membership of x E_12 in sl_3, or of x (E_12 - E_43) at Lie rank 2 in the
    other families: a root vector scaled by x, with no entry on the diagonal."""
    spec = AlgebraSpec(family, 3 if family is AlgebraFamily.SL else 2)
    edges = {(0, 1): x} if family is AlgebraFamily.SL else {(0, 1): x, (3, 2): -x}
    return check_membership(EdgeMatrix(spec.realization_dim, edges), spec)


SCALAR_READERS = {
    "ratio numerator": lambda x: ratio(x, 1),
    "ratio denominator": lambda x: ratio(1, x),
    "weyl.apply": lambda x: apply((2, 1), (x, 1)),
    "MultiPoly": lambda x: MultiPoly(1, {(1,): x}),
    "MultiPoly.scale": lambda x: variable(1, 0).scale(x),
    "MultiPoly.eval": lambda x: variable(1, 0).eval([x]),
    "CartanMatrix": lambda x: dynkin.CartanMatrix(((x, -1), (-1, 2))),
    "check_positive_definite": lambda x: check_positive_definite(A2, [x, 2]),
    **{f"check_membership {family.value}": lambda x, family=family:
       scaled_root_vector_membership(family, x) for family in AlgebraFamily},
    "EdgeMatrix": lambda x: EdgeMatrix(2, {(0, 1): x}),
    "weight_of": lambda x: weight_of(realization(AlgebraFamily.SL, 2), EdgeMatrix(2, {(0, 1): x})),
    "diag_coords": lambda x: realization(AlgebraFamily.SL, 2).diag_coords(
        EdgeMatrix(2, {(0, 0): x, (1, 1): -x})),
    "a + b": lambda x: EdgeMatrix(2, {(0, 0): x}) + EdgeMatrix(2, {(0, 1): 1}),
    "a - b": lambda x: EdgeMatrix(2, {(0, 0): x}) - EdgeMatrix(2, {}),
    "b - a": lambda x: EdgeMatrix(2, {}) - EdgeMatrix(2, {(0, 0): x}),
    "a.scale": lambda x: EdgeMatrix(2, {(0, 0): x}).scale(3),
    "a @ b": lambda x: EdgeMatrix(2, {(0, 0): x}) @ EdgeMatrix(2, {(0, 1): 1}),
    "b @ a": lambda x: EdgeMatrix(2, {(0, 1): 1}) @ EdgeMatrix(2, {(1, 1): x}),
}


@pytest.mark.parametrize("bad", [2.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("reader", SCALAR_READERS)
def test_float_and_bool_scalars_raise(reader, bad):
    with pytest.raises(TypeError):
        SCALAR_READERS[reader](bad)


def test_the_constructor_normalizes_entries():
    m = EdgeMatrix(2, {(0, 0): Fraction(4, 2), (0, 1): 0, (1, 0): Fraction(1, 2)})
    assert m.edges == {(0, 0): 2, (1, 0): Fraction(1, 2)}
    assert all(map(is_canonical, m.edges.values()))
    assert EdgeMatrix(2, {(0, 0): 0}).is_zero()
    assert m == EdgeMatrix(2, {(0, 0): 2, (1, 0): Fraction(1, 2)})


@pytest.mark.parametrize("dim", [0, -1, True, 2.0, Fraction(2), "2"])
def test_a_dimension_that_is_not_an_int_of_at_least_one_raises(dim):
    with pytest.raises(ValueError, match="matrix dimension must be an int >= 1"):
        EdgeMatrix(dim, {})


@pytest.mark.parametrize("edge", [(5, 5), (2, 0), (0, 2), (-1, 0), (0, -1), (0.0, 1), (0, True)])
def test_an_edge_outside_the_matrix_raises(edge):
    with pytest.raises(ValueError, match=f"edge {re.escape(repr(edge))} lies outside a 2x2 matrix"):
        EdgeMatrix(2, {edge: 1})
