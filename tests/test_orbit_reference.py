"""The orbit-built basis and ``diag_coords`` against the hand-written tables.

``catalog.build`` reads every sp and so member off one signed involution:
the orbit of an edge r -> c is the edge plus its partner, and x(-a) is the
orbit of the reversed edge.  The reference is the basis that the
hand-written root-vector table of ``conftest`` gives (Cartan elements, then
the sorted positive table, then its images under the opposite-graph map of
``conftest``), checked against the hand-written structure form S.  For every
family up to n = 6 the two bases must have the same labels in the same
order, the same vectors up to sign, with the sign flipped exactly at odd
so's short roots x(+-a_i) and at sp's and even so's x(-(e_i + e_j)), i <= j:
the reference map negates the edges that cross the two blocks, the orbit of
the reversed edge is the plain transpose.  The roots, coroots and
fundamental weights must be the same.

``diag_coords`` validates a Cartan element with ``check_membership``; the
reference is its earlier block, trace and last-slot checks, kept verbatim
below, on the entries as stored.  On random diagonal matrices both must raise
``ValueError`` on the same inputs and otherwise return the same coordinates,
each in canonical form: an integral ``Fraction`` comes back as an int.
"""

import random
from fractions import Fraction

import pytest

from conftest import (
    _positive_root_table,
    family_ranks,
    opposite_antimorphism,
    realization,
    root_datum,
    structure_form,
    transpose,
    unit,
)

import liealg as L
from liealg import AlgebraFamily, AlgebraSpec
from liealg.catalog import AlgebraRealization
from liealg.edges import EdgeMatrix
from liealg.exact import Weight, canonical, format_weight, negate


def reference_basis(spec: AlgebraSpec) -> list[tuple[str, Weight | None, EdgeMatrix]]:
    """(label, root, vector) in basis order, the root None for a Cartan element."""
    n, d = spec.rank, spec.realization_dim
    E = lambda i, j: unit(d, i, j)
    if spec.family is AlgebraFamily.SL:
        cartan = [E(i, i) - E(i + 1, i + 1) for i in range(1, n)]
    else:
        cartan = [E(i, i) - E(n + i, n + i) for i in range(1, n + 1)]
    out = [(f"h{i}", None, h) for i, h in enumerate(cartan, 1)]
    positives = _positive_root_table(spec)
    out += [(f"x({format_weight(root)})", root, mat) for root, mat in positives]
    out += [(f"x({format_weight(negate(root))})", negate(root),
             opposite_antimorphism(mat, spec.family)) for root, mat in positives]
    return out


def is_short_so_odd_root(spec: AlgebraSpec, root) -> bool:
    return spec.family is AlgebraFamily.SO_ODD and root is not None and sum(map(abs, root)) == 1


def is_crossing_negative_root(spec: AlgebraSpec, root) -> bool:
    """-(e_i + e_j), i <= j, in sp or even so: its vector lives on edges across the blocks."""
    return (spec.family in (AlgebraFamily.SP, AlgebraFamily.SO_EVEN) and root is not None
            and sum(root) == -2)


@pytest.mark.parametrize("family,n", family_ranks(6))
def test_basis_matches_the_hand_written_table(family, n):
    r = realization(family, n)
    reference = reference_basis(r.spec)
    assert [label for label, _ in r.basis] == [label for label, _, _ in reference]
    for (label, mat), (_, root, ref) in zip(r.basis, reference):
        flipped = is_short_so_odd_root(r.spec, root) or is_crossing_negative_root(r.spec, root)
        expected = -ref if flipped else ref
        assert mat == expected, label


@pytest.mark.parametrize("family,n", family_ranks(6))
def test_basis_satisfies_the_hand_written_form(family, n):
    r = realization(family, n)
    S = structure_form(r.spec)
    for label, mat in r.basis:
        if S is None:
            assert mat.trace() == 0, label
        else:
            assert (transpose(mat) @ S + S @ mat).is_zero(), label


@pytest.mark.parametrize("family,n", family_ranks(6))
def test_root_datum_matches_the_hand_written_basis(family, n):
    spec = AlgebraSpec(family, n)
    basis = tuple((label, mat) for label, _, mat in reference_basis(spec))
    reference = L.cartan_decompose(AlgebraRealization(spec, basis))
    rd = root_datum(family, n)
    assert rd.roots == reference.roots
    assert rd.coroots == reference.coroots
    assert rd.fundamental_weights == reference.fundamental_weights


# ---------------------------------------------------------------------------
# diag_coords against its earlier per-family checks.
# ---------------------------------------------------------------------------


def reference_diag_coords(spec: AlgebraSpec, h: EdgeMatrix):
    n = spec.rank
    if h.dim != spec.realization_dim:
        raise ValueError("dimension mismatch with realization")
    if any(r != c for (r, c) in h.edges):
        raise ValueError("not a Cartan element: off-diagonal entries present")
    diag = [h[i, i] for i in range(h.dim)]
    if spec.family is AlgebraFamily.SL:
        if sum(diag):
            raise ValueError("not a Cartan element: nonzero trace")
        return tuple(map(canonical, diag))
    coords = diag[:n]
    if any(diag[n + i] != -coords[i] for i in range(n)):
        raise ValueError("not a Cartan element: blocks are not opposite")
    if spec.family is AlgebraFamily.SO_ODD and diag[2 * n]:
        raise ValueError("not a Cartan element: last diagonal entry nonzero")
    return tuple(map(canonical, coords))


# Fraction(4, 2) is integral but typed Fraction: its coordinate comes back as the int 2.
SCALARS = (0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 2))


def outcome(diag_coords, h):
    try:
        coords = diag_coords(h)
    except ValueError:
        return "ValueError"
    return [(type(c), c) for c in coords]


def candidates(rng, spec):
    """Diagonal members, each with a broken copy, and random diagonals."""
    n, d = spec.rank, spec.realization_dim
    for _ in range(150):
        x = [rng.choice(SCALARS) for _ in range(n)]
        if spec.family is AlgebraFamily.SL:
            diag = [*x[:-1], -sum(x[:-1])]
        else:
            diag = [*x, *(-c for c in x), *[0] * (d - 2 * n)]
        yield diag
        broken = list(diag)
        broken[rng.randrange(d)] = rng.choice(SCALARS)
        yield broken
        yield [rng.choice(SCALARS) for _ in range(d)]


@pytest.mark.parametrize("family,n", family_ranks(5))
def test_diag_coords_matches_the_per_family_checks(family, n):
    r = realization(family, n)
    rng = random.Random(f"diag-{family.value}-{n}")
    d = r.spec.realization_dim
    misfits = [EdgeMatrix(d, {(0, d - 1): 1}), EdgeMatrix(d + 1, {(0, 0): 1, (1, 1): -1})]
    verdicts = set()
    for h in [*(EdgeMatrix(d, {(i, i): v for i, v in enumerate(diag) if v})
                for diag in candidates(rng, r.spec)), *misfits]:
        expected = outcome(lambda m: reference_diag_coords(r.spec, m), h)
        assert outcome(r.diag_coords, h) == expected, h.edges
        verdicts.add(expected == "ValueError")
    assert verdicts == {True, False}


def test_diag_coords_reads_an_integral_fraction_as_an_int():
    coords = realization(AlgebraFamily.SL, 2).diag_coords(
        EdgeMatrix(2, {(0, 0): Fraction(4, 2), (1, 1): -2}))
    assert [(type(c), c) for c in coords] == [(int, 2), (int, -2)]
