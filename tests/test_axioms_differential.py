"""The root-axiom verifier against a pairwise reference on random and edge inputs.

``reference_verify_root_axioms`` is the straightforward verifier: it calls
the inner product for every ordered pair of roots and reflects in exact
rationals.  The library's verifier works in integer coordinates over a Gram
matrix instead; both must return identical reports (names, verdicts, detail
strings, order) on textbook systems A-G moved by coordinate permutations,
sign flips, rational rescaling and shuffling, on broken variants of them,
under an indefinite form, and under the Killing inner product of every
family up to Lie rank 5.
"""

from fractions import Fraction
from itertools import combinations, product

import pytest

from conftest import family_ranks, reflect, root_datum

import liealg as L
from liealg.axioms import verify_root_axioms
from liealg.exact import format_weight, negate
from liealg.matrices import _Echelon, dot, is_positive_definite
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
            image = reflect(inner, a, b)
            if image not in root_set and bad_reflection is None:
                bad_reflection = f"S_{{{format_weight(a)}}}({format_weight(b)}) leaves the set"
            cartan_integer = 2 * Fraction(inner(a, b)) / norm
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
