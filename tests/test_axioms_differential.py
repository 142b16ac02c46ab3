"""The root-axiom verifier against a pairwise reference on random and edge inputs.

``reference_verify_root_axioms`` is the straightforward verifier: it calls
the inner product for every ordered pair of roots and reflects in exact
rationals.  The library's verifier works in integer coordinates over a Gram
matrix instead; both must return identical reports (names, verdicts, detail
strings, order) on textbook systems A-G moved by coordinate permutations,
sign flips, rational rescaling and shuffling, on broken variants of them,
under an indefinite form, and under the Killing inner product of every
family up to Lie rank 5.

The reflection and integrality verdicts come from one search over a few
generators, with a lattice basis only where the search does not prove both;
the later sections check that route against the reference on systems A-G in
skewed coordinates, perturbed or not, on pinned failing sets, and bound its
work by counting the products of its integer pairings.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, product
from unittest import mock

import pytest

from conftest import family_ranks, root_datum

import liealg as L
from liealg import axioms
from liealg.axioms import verify_root_axioms
from liealg.exact import format_weight, negate
from liealg.matrices import _Echelon, dot, is_positive_definite, solve_linear
from liealg.records import Check, CheckReport

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _parallel(a, b):
    """The ratio k with b = k a, or None if not parallel."""
    ratio = None
    for x, y in zip(a, b):
        if not x:
            if y:
                return None
            continue
        r = Fraction(y) / Fraction(x)
        if ratio is None:
            ratio = r
        elif ratio != r:
            return None
    return ratio


def reference_verify_root_axioms(roots, inner, expected_dim=None):
    root_set = {tuple(Fraction(c) for c in w) for w in roots}
    checks = []

    ordered = sorted(root_set, reverse=True)
    echelon = _Echelon()
    independent = [w for w in ordered if echelon.add({i: c for i, c in enumerate(w) if c})]
    span_dim = len(independent)

    nonzero = bool(root_set) and all(any(c for c in w) for w in root_set)
    spans = nonzero and (expected_dim is None or span_dim == expected_dim)
    checks.append(
        Check.of(
            "axioms",
            "spanning",
            spans,
            f"finite nonzero set spanning a space of dimension {span_dim}"
            + (f" (expected {expected_dim})" if expected_dim is not None else ""),
        )
    )

    euclidean = True
    if independent:
        gram = [[inner(u, v) for v in independent] for u in independent]
        euclidean = is_positive_definite(gram)
    checks.append(
        Check.of(
            "axioms", "euclidean", euclidean, "inner product is positive definite on the span"
        )
    )

    bad_multiple = None
    for a in root_set:
        if negate(a) not in root_set:
            bad_multiple = f"-({format_weight(a)}) missing"
            break
        for b in root_set:
            k = _parallel(a, b)
            if k is not None and k not in (1, -1):
                bad_multiple = f"{format_weight(b)} = {k} * ({format_weight(a)})"
                break
        if bad_multiple:
            break
    checks.append(
        Check.of(
            "axioms",
            "multiples",
            bad_multiple is None,
            bad_multiple or "contains -a for each a; only +-1 multiples occur",
        )
    )

    bad_reflection = None
    bad_integral = None
    for a in ordered:
        norm = Fraction(inner(a, a))
        if not norm:
            bad_reflection = f"{format_weight(a)} has zero norm"
            break
        for b in ordered:
            # One call of the form per pair: S_a(b) = b - (2<a,b>/<a,a>) a.
            cartan_integer = 2 * Fraction(inner(a, b)) / norm
            image = tuple(y - cartan_integer * x for x, y in zip(a, b))
            if image not in root_set and bad_reflection is None:
                bad_reflection = f"S_{{{format_weight(a)}}}({format_weight(b)}) leaves the set"
            if cartan_integer.denominator != 1 and bad_integral is None:
                bad_integral = f"2<{format_weight(a)},{format_weight(b)}>/<a,a> = {cartan_integer}"
    checks.append(
        Check.of(
            "axioms",
            "reflection",
            bad_reflection is None,
            bad_reflection or "every reflection permutes the set",
        )
    )
    checks.append(
        Check.of(
            "axioms",
            "integrality",
            bad_integral is None,
            bad_integral or "all Cartan integers are integers",
        )
    )
    return CheckReport(tuple(checks))


def lorentz(u, v):
    """An indefinite symmetric bilinear form: + on the first coordinate, - on the rest."""
    return u[0] * v[0] - sum(x * y for x, y in zip(u[1:], v[1:]))


def assert_same_report(roots, inner, expected_dim=None):
    expected = reference_verify_root_axioms(roots, inner, expected_dim)
    assert verify_root_axioms(roots, inner, expected_dim) == expected


# ---------------------------------------------------------------------------
# Textbook root systems in Euclidean coordinates (the dot product).
# ---------------------------------------------------------------------------


def vector(entries):
    return tuple(Fraction(c) for c in entries)


def signed_pairs(n, signs):
    """s e_i + t e_j for i < j and (s, t) in ``signs``."""
    out = []
    for i, j in combinations(range(n), 2):
        for s, t in signs:
            v = [0] * n
            v[i], v[j] = s, t
            out.append(vector(v))
    return out


def axis(n, values):
    return [vector([c if k == i else 0 for k in range(n)]) for i in range(n) for c in values]


BOTH_SIGNS = list(product((1, -1), repeat=2))
HALF = Fraction(1, 2)


def e8():
    half = [
        vector(c)
        for c in product((HALF, -HALF), repeat=8)
        if sum(1 for x in c if x < 0) % 2 == 0
    ]
    return signed_pairs(8, BOTH_SIGNS) + half


def textbook(letter, r):
    if letter == "A":
        return signed_pairs(r + 1, [(1, -1), (-1, 1)])
    if letter == "B":
        return signed_pairs(r, BOTH_SIGNS) + axis(r, (1, -1))
    if letter == "C":
        return signed_pairs(r, BOTH_SIGNS) + axis(r, (2, -2))
    if letter == "D":
        return signed_pairs(r, BOTH_SIGNS)
    if letter == "G":
        short = signed_pairs(3, [(1, -1), (-1, 1)])
        long = [vector([2 * s if k == i else -s for k in range(3)]) for i in range(3) for s in (1, -1)]
        return short + long
    if letter == "F":
        return textbook("B", 4) + [vector(c) for c in product((HALF, -HALF), repeat=4)]
    # E6: the roots of E8 orthogonal to the A2 spanned by e6 - e7 and e7 - e8.
    return [w for w in e8() if w[5] == w[6] == w[7]]


TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 4),
         ("G", 2), ("F", 4), ("E", 6)]
ROOT_COUNTS = {("A", 1): 2, ("A", 2): 6, ("A", 3): 12, ("B", 2): 8, ("B", 3): 18,
               ("C", 3): 18, ("D", 4): 24, ("G", 2): 12, ("F", 4): 48, ("E", 6): 72}


@pytest.mark.parametrize("letter,r", TYPES)
def test_textbook_systems_pass(letter, r):
    roots = textbook(letter, r)
    assert len(set(roots)) == ROOT_COUNTS[(letter, r)]
    report = verify_root_axioms(roots, dot, expected_dim=r)
    assert report.all_passed, report.failures()
    assert report == reference_verify_root_axioms(roots, dot, expected_dim=r)


MUTATIONS = ("none", "drop", "double", "third", "zero", "duplicate")


@st.composite
def moved_systems(draw):
    """A textbook system, moved by an isometry and a rescaling, then maybe broken."""
    letter, r = draw(st.sampled_from(TYPES[:-1]))  # E6 runs once, in the test above
    roots = textbook(letter, r)
    width = len(roots[0])
    perm = draw(st.permutations(range(width)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=width, max_size=width))
    scale = Fraction(draw(st.sampled_from((1, -1, 2, 3))), draw(st.sampled_from((1, 2, 5))))
    roots = [tuple(scale * signs[k] * w[perm[k]] for k in range(width)) for w in roots]
    roots = draw(st.permutations(roots))
    mutation = draw(st.sampled_from(MUTATIONS))
    pick = draw(st.integers(0, len(roots) - 1))
    a = roots[pick]
    if mutation == "drop":
        roots = roots[:pick] + roots[pick + 1 :]
    elif mutation == "double":
        roots = roots + [tuple(2 * c for c in a)]
    elif mutation == "third":
        roots = roots + [tuple(c / 3 for c in a), tuple(-c / 3 for c in a)]
    elif mutation == "zero":
        roots = roots + [(Fraction(0),) * width]
    elif mutation == "duplicate":
        roots = roots + [a, a]
    inner = draw(st.sampled_from((dot, lorentz)))
    expected_dim = draw(st.sampled_from((None, r)))
    return roots, inner, expected_dim


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(moved_systems())
def test_matches_reference(case):
    roots, inner, expected_dim = case
    assert_same_report(roots, inner, expected_dim)


EDGE_CASES = {
    "empty": [],
    "all zero": [(0, 0), (0, 0)],
    "zero among roots": [(1,), (-1,), (0,)],
    "missing negative": [(1, 1), (-1, -1), (1, -1), (-1, 1), (2, 0)],
    "third of a root": [(1, 0), (-1, 0), (Fraction(1, 3), 0), (Fraction(-1, 3), 0)],
    "double of a root": [(1,), (-1,), (2,), (-2,)],
    "non-integral, reflection closed": [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1),
                                        (1, -1), (-1, 1), (2, 0), (-2, 0)],
    # B2 with its long roots tripled: still closed under reflections, but
    # 2<a,b>/<a,a> = 1/3 for a long and b short.
    "reflection closed, one length scaled": [(1, 0), (-1, 0), (0, 1), (0, -1), (3, 3),
                                             (-3, -3), (3, -3), (-3, 3)],
    "isotropic under lorentz": [(1, 1), (-1, -1), (1, -1), (-1, 1)],
    "indefinite": [(2, 1), (-2, -1), (1, 2), (-1, -2)],
}


@pytest.mark.parametrize("inner", [dot, lorentz], ids=["dot", "lorentz"])
@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_cases_match_reference(name, inner):
    roots = [vector(w) for w in EDGE_CASES[name]]
    assert_same_report(roots, inner)
    assert_same_report(roots, inner, expected_dim=2)


@pytest.mark.parametrize(
    "family,n",
    [(f, n) for f, n in family_ranks(6) if L.AlgebraSpec(f, n).lie_rank <= 5],
)
def test_killing_inner_matches_reference(family, n):
    rd = root_datum(family, n)
    inner = L.weight_inner(rd)
    calls = []

    def counted(u, v):
        calls.append(None)
        return inner(u, v)

    rank = rd.spec.lie_rank
    report = verify_root_axioms(rd.roots, counted, expected_dim=rank)
    assert len(calls) == rank * rank
    assert report.all_passed
    assert report == reference_verify_root_axioms(rd.roots, inner, expected_dim=rank)


# ---------------------------------------------------------------------------
# One route for reflection and integrality, against the pair loop.
# ---------------------------------------------------------------------------


PERTURBATIONS = ("none", "drop", "add", "scale", "move")


def pulled_back(form, columns):
    """The form (u, v) -> form(M^-1 u, M^-1 v), for M given by its columns'
    inverse images: ``columns[i]`` is M^-1 e_i.  M^-1 u is computed once per
    u, since the reference calls the form on every pair."""

    @cache
    def inverse(u):
        return tuple(sum(c * x for c, x in zip(u, row)) for row in zip(*columns))

    return lambda u, v: form(inverse(u), inverse(v))


@st.composite
def perturbed_systems(draw):
    """A textbook system in coordinates x -> M x, then maybe perturbed.

    M is a signed permutation times a unitriangular matrix, so it is
    invertible, and the inner product is carried along; the change of
    coordinates changes which roots come first in order.  A perturbation
    drops a root, adds a sum of two roots, scales a root or moves one by a
    unit vector.
    """
    letter, r = draw(st.sampled_from(TYPES))
    roots = textbook(letter, r)
    width = len(roots[0])
    shear = [[int(i == j) if i >= j else draw(st.sampled_from((0, 0, 1, -1)))
              for j in range(width)] for i in range(width)]
    perm = draw(st.permutations(range(width)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=width, max_size=width))
    M = [[signs[i] * c for c in shear[perm[i]]] for i in range(width)]
    columns = solve_linear(M, *([int(i == j) for j in range(width)] for i in range(width)))
    roots = [tuple(sum(m * c for m, c in zip(row, w)) for row in M) for w in roots]
    perturbation = draw(st.sampled_from(PERTURBATIONS))
    pick, other = draw(st.integers(0, len(roots) - 1)), draw(st.integers(0, len(roots) - 1))
    a = roots[pick]
    if perturbation == "drop":
        roots = roots[:pick] + roots[pick + 1 :]
    elif perturbation == "add":
        roots = roots + [tuple(x + y for x, y in zip(a, roots[other]))]
    elif perturbation == "scale":
        factor = draw(st.sampled_from((2, -2, 3, HALF)))
        roots[pick] = tuple(factor * c for c in a)
    elif perturbation == "move":
        k = other % width
        roots[pick] = tuple(c + (i == k) for i, c in enumerate(a))
    form = draw(st.sampled_from((dot, lorentz)))
    return roots, pulled_back(form, columns), (perturbation, form)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(perturbed_systems())
def test_perturbed_systems_match_reference(case):
    roots, inner, drawn = case
    report = verify_root_axioms(roots, inner)
    assert report == reference_verify_root_axioms(roots, inner)
    # Under the Lorentz form a root may have norm 0.
    if drawn == ("none", dot):
        assert report.all_passed


@pytest.mark.parametrize("letter,r", TYPES)
def test_textbook_systems_are_decided_by_the_search_alone(letter, r):
    roots = textbook(letter, r)
    with mock.patch.object(axioms, "_lattice_basis", side_effect=AssertionError):
        report = verify_root_axioms(roots, dot)
    assert report.all_passed
    assert report == reference_verify_root_axioms(roots, dot)


# B3 in coordinates x -> M x, under the form u.G.v that makes it the usual
# B3.  The first three roots are long, and reflections in long roots map long
# roots to long roots, so the search takes the first short root, (1, 0, 0),
# as a fourth generator.  (No B2 does this: in any lexicographic order the
# first two roots of B2 are a long and a short root, since a short root lies
# halfway between two long roots on its line.)
B3_GRAM = ((1, 1, 1), (1, 2, 1), (1, 1, 2))
B3_SKEWED = [(2, 0, -1), (2, -1, 0), (2, -1, -1), (1, 0, 0), (1, 0, -1), (1, -1, 0),
             (0, 1, 0), (0, 1, -1), (0, 0, 1), (0, 0, -1), (0, -1, 1), (0, -1, 0),
             (-1, 1, 0), (-1, 0, 1), (-1, 0, 0), (-2, 1, 1), (-2, 1, 0), (-2, 0, 1)]


def gram_form(gram):
    return lambda u, v: sum(u[i] * gram[i][j] * v[j] for i in range(3) for j in range(3))


def test_the_search_reaches_the_short_roots_from_a_fourth_generator():
    inner = gram_form(B3_GRAM)
    norms = {w: inner(w, w) for w in B3_SKEWED}
    assert [norms[w] for w in B3_SKEWED[:3]] == [2, 2, 2]
    assert sorted(norms.values()) == [1] * 6 + [2] * 12
    generators = []
    twice_row = axioms._twice_row
    with mock.patch.object(axioms, "_twice_row",
                           lambda x, gram: generators.append(x) or twice_row(x, gram)):
        report = verify_root_axioms(B3_SKEWED, inner)
    assert report.all_passed
    # Coordinates over the independent roots, scaled to integers: the fourth
    # generator is (1, 0, 0), whose coordinates are not a unit vector.
    assert generators == [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, -1)]
    assert report == reference_verify_root_axioms(B3_SKEWED, inner)


def test_an_asymmetric_form_raises():
    """The route needs reflections that are isometries.  Under this form the
    roots a1+a2 and a1 reflect as in A2 and reach every root, but s_{a2}
    does not permute the set."""
    roots = [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)]

    def skew(u, v):
        return 4 * u[0] * v[0] - 2 * u[0] * v[1] - 3 * u[1] * v[0] + 3 * u[1] * v[1]

    assert reference_verify_root_axioms(roots, skew).results[3].detail == (
        "S_{a2}(a1) leaves the set"
    )
    with pytest.raises(ValueError, match="not symmetric"):
        verify_root_axioms(roots, skew)


def skewed(roots):
    """The roots in coordinates x -> M x, M upper unitriangular with every
    entry above the diagonal 1, and the dot product carried along: M^-1
    takes the differences of neighbouring coordinates."""

    @cache
    def back(u):
        return tuple(x - y for x, y in zip(u, u[1:] + (0,)))

    moved = [tuple(sum(w[i:]) for i in range(len(w))) for w in roots]
    return moved, lambda u, v: dot(back(u), back(v))


def dropped(roots, k=0):
    return roots[:k] + roots[k + 1 :]


def doubled(roots, k=0):
    return roots + [tuple(2 * c for c in roots[k])]


# Each case with its (reflection, integrality) statuses.
PINNED = {
    # (3, 0) fails both axioms first, but the loop reports the zero norm of
    # the later a1+a2 for reflection, and stops its integrality scan there.
    "zero norm after a failing root": (([(3, 0), (-3, 0), (1, 1), (-1, -1)], lorentz),
                                       ("fail", "fail")),
    "A7 dropped, skewed": (skewed(dropped(textbook("A", 7), 5)), ("fail", "pass")),
    "A7 doubled, skewed": (skewed(doubled(textbook("A", 7), 9)), ("fail", "fail")),
    "D5 dropped, skewed": (skewed(dropped(textbook("D", 5), 17)), ("fail", "pass")),
    "D5 doubled, skewed": (skewed(doubled(textbook("D", 5), 2)), ("fail", "fail")),
    # Every reflection permutes the set, so the search reaches every root,
    # but a long generator has a Cartan integer 1/3.
    "reflection closed, one length scaled": (
        ([vector(w) for w in EDGE_CASES["reflection closed, one length scaled"]], dot),
        ("pass", "fail"),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_cases_match_reference(name):
    (roots, inner), statuses = PINNED[name]
    report = verify_root_axioms(roots, inner)
    assert report == reference_verify_root_axioms(roots, inner)
    assert (report.results[3].status, report.results[4].status) == statuses


def test_the_zero_norm_root_overrides_the_earlier_failure():
    (roots, inner), _ = PINNED["zero norm after a failing root"]
    report = verify_root_axioms(roots, inner)
    assert report.results[3].detail == "a1+a2 has zero norm"
    assert report.results[4].detail == "2<3a1,a1+a2>/<a,a> = 2/3"


# ---------------------------------------------------------------------------
# Work, counted as the products in the integer pairings: every
# sum(map(mul, ...)) in axioms reads axioms.mul.
# ---------------------------------------------------------------------------


def multiplications(roots):
    """``verify_root_axioms``'s report on the roots under the dot product, and
    the number of products its integer pairings form."""
    count = 0

    def counted(x, y):
        nonlocal count
        count += 1
        return x * y

    with mock.patch.object(axioms, "mul", counted):
        report = verify_root_axioms(roots, dot)
    return report, count


# Each with the dimension d of its span.
LARGE = {"A15": ("A", 15), "D8": ("D", 8), "E8": ("E", 8)}
# Measured: 15, 8 and 9 generators, each |Phi| d + d^2 + d products.
PASSING_MULTIPLICATIONS = {"A15": 57_600, "D8": 7_744, "E8": 17_928}


def large(name):
    letter, d = LARGE[name]
    return (e8() if letter == "E" else textbook(letter, d)), d


@pytest.mark.parametrize("name", sorted(LARGE))
def test_a_passing_system_costs_no_more_than_its_generators(name):
    roots, _ = large(name)
    report, count = multiplications(roots)
    assert report.all_passed
    assert count <= PASSING_MULTIPLICATIONS[name]


@pytest.mark.parametrize("change", [dropped, doubled], ids=["dropped", "doubled"])
@pytest.mark.parametrize("name", sorted(LARGE))
def test_a_failing_system_costs_at_most_four_roots_times_d_squared(name, change):
    roots, d = large(name)
    roots = change(roots)
    report, count = multiplications(roots)
    assert report.results[3].status == "fail"
    # Measured: 2.13-2.18 |Phi| d^2 dropped, 1.07-1.14 doubled.  The pair loop
    # took 15-31.
    assert count <= 4 * len(roots) * d * d


@pytest.mark.parametrize("inner", [dot, lambda u, v: sum(x * y for x, y in zip(u, v))],
                         ids=["dot", "zip"])
def test_ragged_roots_raise(inner):
    # Before, under a form that zips, the short vectors read as zero-padded and all
    # five axioms passed.
    with pytest.raises(ValueError, match="same length"):
        verify_root_axioms([(1, 0), (-1, 0), (0, 1, 5), (0, -1, -5)], inner)
