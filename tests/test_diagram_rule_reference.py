"""DynkinDiagram and check_positive_definite against the code that took the
root lengths as well.

``build_diagram(A, lengths)`` once drew each multiple edge's arrow toward the
root of smaller given length, and rejected a multiple edge between equal
lengths.  Its body is kept below, verbatim but for returning the
multiplicity table and arrow list it stored.  ``check_positive_definite(A,
lengths)`` once symmetrized A by the given lengths and checked that the
result was symmetric; its body is kept verbatim too.  Both now read A alone.
On every Cartan matrix of rank 1-4 with each off-diagonal pair (A_ij, A_ji)
from ``PAIRS`` whose lengths ``lengths_from_cartan`` finds, and on the
matrix and root lengths of every classical family up to n = 8, the builders
must raise the same ValueError text or agree on every multiplicity and
arrow, and the two definiteness checks must agree.  A matrix of rank at most
3 whose lengths cannot be found must make ``check_positive_definite`` raise.
"""

from collections import Counter
from itertools import combinations, product

import pytest

from conftest import arrows, family_ranks, multiplicities, root_datum

import liealg as L
from liealg.dynkin import (
    CartanMatrix,
    DynkinDiagram,
    check_positive_definite,
    lengths_from_cartan,
)
from liealg.exact import canonical
from liealg.matrices import is_positive_definite

PAIRS = ((0, 0), (-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1), (-2, -2))


def reference_build(A, lengths):
    n = A.rank
    if len(lengths) != n:
        raise ValueError("lengths must match the Cartan matrix rank")
    lens = [canonical(x) for x in lengths]
    if any(x <= 0 for x in lens):
        raise ValueError("root lengths must be positive")
    mult = [[0] * n for _ in range(n)]
    arrows = []
    for i in range(n):
        for j in range(i + 1, n):
            m = A[i, j] * A[j, i]
            if m > 3:
                raise ValueError(
                    f"edge multiplicity {m} between vertices {i + 1},{j + 1} exceeds 3"
                )
            mult[i][j] = mult[j][i] = m
            if m >= 2:
                if lens[i] == lens[j]:
                    raise ValueError(
                        f"multiple edge between equal-length roots {i + 1},{j + 1}"
                    )
                longer, shorter = (i, j) if lens[i] > lens[j] else (j, i)
                arrows.append((longer, shorter))
    return tuple(tuple(row) for row in mult), tuple(sorted(arrows))


def reference_positive_definite(A, lengths):
    n = A.rank
    if len(lengths) != n:
        raise ValueError("Cartan matrix and lengths must agree in size")
    lens = [canonical(x) for x in lengths]
    sym = [[A[i, j] * lens[j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if sym[i][j] != sym[j][i]:
                raise ValueError("lengths are inconsistent with the Cartan matrix")
    return is_positive_definite(sym)


def library_build(A):
    d = DynkinDiagram(A)
    return multiplicities(d), arrows(d)


def outcome(build, *args):
    """What ``build`` returns, or the text of the ValueError it raises."""
    try:
        return build(*args)
    except ValueError as exc:
        return str(exc)


def cartan_matrices(rank: int):
    pairs = list(combinations(range(rank), 2))
    for choice in product(PAIRS, repeat=len(pairs)):
        rows = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        for (i, j), (aij, aji) in zip(pairs, choice):
            rows[i][j], rows[j][i] = aij, aji
        yield CartanMatrix(rows)


# rank -> (matrices compared, of which both builders rejected, of which both
# found positive definite, matrices with no lengths); the counts pin that the
# sweep reaches every outcome.
COMPARED = {
    1: (1, 0, 1, 0),
    2: (7, 1, 6, 0),
    3: (159, 55, 31, 184),
    4: (8_301, 4_605, 254, 109_348),
}


@pytest.mark.parametrize("rank", sorted(COMPARED))
def test_every_small_cartan_matrix(rank):
    tally = Counter()
    for A in cartan_matrices(rank):
        try:
            lengths = lengths_from_cartan(A)
        except ValueError:
            tally["no lengths"] += 1
            if rank <= 3:
                with pytest.raises(ValueError, match="^Cartan matrix implies inconsistent"):
                    check_positive_definite(A)
            continue
        expected = outcome(reference_build, A, lengths)
        assert outcome(library_build, A) == expected, A
        definite = check_positive_definite(A)
        assert definite == reference_positive_definite(A, lengths), A
        tally["compared"] += 1
        tally["rejected"] += isinstance(expected, str)
        tally["definite"] += definite
    counts = tuple(tally[k] for k in ("compared", "rejected", "definite", "no lengths"))
    assert counts == COMPARED[rank]


@pytest.mark.parametrize("family,n", family_ranks(8))
def test_classical_families(family, n):
    rd = root_datum(family, n)
    A = L.cartan_matrix(rd)
    lengths = L.root_lengths(rd)
    assert library_build(A) == reference_build(A, lengths)
    assert check_positive_definite(A) is reference_positive_definite(A, lengths) is True
