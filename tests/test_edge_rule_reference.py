"""Reference copies of the bracket-route root reader, the simple-root coordinate
table and the kind-dispatch Serre code.

``weight_of`` (with its sl lift), ``SerreRelation``, ``serre_presentation``,
``verify_serre`` and ``_relation_holds`` are the package's previous
implementations, kept verbatim as oracles, except that ``EdgeMatrix.ratio``,
which no library code needs any more, is the module function ``ratio`` here,
that the sl lift expands over a ``SpanSolver`` instead of the deleted
``LinearSolver``, and that Y_i starts from the transpose of X_i instead of
the deleted opposite-graph map (the rescaling absorbs the sign).
``fundamental_root_list`` is verbatim the table of coordinate vectors that
the simple roots were before each became the weight of one edge.
The edge-rule ``roots.weight_of`` and ``roots.fundamental_root_list`` and the
bracket-word Serre code must agree with them: the same weights, the same
errors, the same relation texts and the same verdicts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import pytest

from conftest import basis_of, family_ranks, realization, root_datum, root_vector, transpose

import liealg as L
from liealg import AlgebraFamily, AlgebraSpec, dynkin, roots
from liealg.catalog import AlgebraRealization
from liealg.exact import Weight
from liealg.dynkin import CartanMatrix
from liealg.edges import EdgeMatrix, mat_bracket
from liealg.matrices import SpanSolver, sparse_vector
from liealg.records import Check, CheckReport, InternalConsistencyError
from liealg.roots import RootDatum

# ---------------------------------------------------------------------------
# Reference code.
# ---------------------------------------------------------------------------


def ratio(self: EdgeMatrix, other: EdgeMatrix) -> Fraction | None:
    """The t with self = t * other, or None when there is none (or other is 0)."""
    if not other.edges:
        return None
    key = min(other.edges)
    t = Fraction(self.edges.get(key, 0)) / other.edges[key]
    return t if self == other.scale(t) else None


def weight_of(r: AlgebraRealization, m: EdgeMatrix) -> Weight:
    """The functional a with [h, m] = a(h) m for all Cartan h.

    Raises InternalConsistencyError if m is not a simultaneous eigenvector.
    """
    if m.is_zero():
        raise ValueError("zero matrix has no well-defined weight")
    eigenvalues: list[Fraction] = []
    for h in r.cartan_basis:
        lam = ratio(mat_bracket(h, m), m)
        if lam is None:
            raise InternalConsistencyError(
                "matrix is not a simultaneous eigenvector of the Cartan subalgebra"
            )
        eigenvalues.append(lam)
    return _eigenvalues_to_coords(r.spec, eigenvalues)


def _eigenvalues_to_coords(spec: AlgebraSpec, eigenvalues: Sequence[Fraction]) -> Weight:
    """Convert eigenvalues on the Cartan basis to coordinates in a_1..a_n."""
    if spec.family is not AlgebraFamily.SL:
        return tuple(Fraction(v) for v in eigenvalues)
    lift = _sum_zero_lift(spec.rank).expand(sparse_vector([*eigenvalues, 0]))
    return tuple(lift.get(k, Fraction(0)) for k in range(spec.rank))


@lru_cache(maxsize=None)
def _sum_zero_lift(n: int) -> SpanSolver:
    """The sl system: the basis is h_k = E_kk - E_(k+1,k+1); pick the sum-zero lift.

    The solution is the right-hand side expanded over the system's columns.
    One solver per n serves every root vector; ``expand`` leaves it unchanged.
    """
    rows = [[1 if i == k else -1 if i == k + 1 else 0 for i in range(n)] for k in range(n - 1)]
    rows.append([1] * n)
    return SpanSolver(map(sparse_vector, zip(*rows)))


@dataclass(frozen=True)
class SerreRelation:
    """One defining relation of the presentation, in evaluable form."""

    kind: str  # cartan-commute | pair-h | pair-zero | h-x | h-y | nilp-x | nilp-y
    i: int
    j: int | None = None
    coefficient: int | None = None
    depth: int | None = None

    def describe(self) -> str:
        i1 = self.i + 1
        j1 = None if self.j is None else self.j + 1
        if self.kind == "cartan-commute":
            return f"[H{i1},H{j1}] = 0"
        if self.kind == "pair-h":
            return f"[X{i1},Y{i1}] = H{i1}"
        if self.kind == "pair-zero":
            return f"[X{i1},Y{j1}] = 0"
        if self.kind == "h-x":
            return f"[H{i1},X{j1}] = {self.coefficient} X{j1}"
        if self.kind == "h-y":
            return f"[H{i1},Y{j1}] = {-self.coefficient} Y{j1}"
        letter = "X" if self.kind == "nilp-x" else "Y"
        body = f"{letter}{j1}"
        for _ in range(self.depth or 0):
            body = f"[{letter}{i1},{body}]"
        return f"{body} = 0"


@dataclass(frozen=True)
class SerrePresentation:
    """Generators H_i, X_i, Y_i and the full tagged relation list."""

    cartan: CartanMatrix
    relations: tuple[SerreRelation, ...]

    @property
    def rank(self) -> int:
        return self.cartan.rank


def serre_presentation(A: CartanMatrix) -> SerrePresentation:
    """The defining relations read off a Cartan matrix.

    The nilpotency depth for an off-diagonal entry A_ij is 1 - A_ij nested
    brackets of the outer generator around the inner one.
    """
    n = A.rank
    relations: list[SerreRelation] = []
    for i in range(n):
        for j in range(i + 1, n):
            relations.append(SerreRelation("cartan-commute", i, j))
    for i in range(n):
        relations.append(SerreRelation("pair-h", i))
    for i in range(n):
        for j in range(n):
            if i != j:
                relations.append(SerreRelation("pair-zero", i, j))
    for i in range(n):
        for j in range(n):
            relations.append(SerreRelation("h-x", i, j, coefficient=A[i, j]))
    for i in range(n):
        for j in range(n):
            relations.append(SerreRelation("h-y", i, j, coefficient=A[i, j]))
    for kind in ("nilp-x", "nilp-y"):
        for i in range(n):
            for j in range(n):
                if i != j:
                    relations.append(
                        SerreRelation(kind, i, j, coefficient=A[i, j], depth=1 - A[i, j])
                    )
    return SerrePresentation(cartan=A, relations=tuple(relations))


def verify_serre(
    r: AlgebraRealization, rd: RootDatum, p: SerrePresentation
) -> CheckReport:
    """Substitute the canonical triples into a presentation and check it.

    H_i is the i-th fundamental coroot, X_i the fundamental root vector, and
    Y_i the transpose of X_i rescaled so that [X_i, Y_i] = H_i; the
    rescaling decouples the verdicts from the sign of the opposite root
    vector.
    """
    if p.rank != r.spec.lie_rank:
        raise ValueError(
            f"presentation rank {p.rank} does not match Lie rank {r.spec.lie_rank}"
        )
    H = [rd.sl2_triple(a)[2] for a in rd.fundamental_roots]
    X = [root_vector(rd, a) for a in rd.fundamental_roots]
    Y = []
    for h, x in zip(H, X):
        image = transpose(x)
        bracket = mat_bracket(x, image)
        scale = ratio(bracket, h)
        if scale is None or not scale:
            raise InternalConsistencyError(
                "cannot scale the opposite root vector: [x, T(x)] is not a "
                "nonzero multiple of the coroot"
            )
        Y.append(image.scale(1 / scale))

    return CheckReport(
        tuple(
            Check.of(
                "serre",
                rel.describe(),
                _relation_holds(rel, p.cartan, H, X, Y),
                "exact matrix identity",
            )
            for rel in p.relations
        )
    )


def _relation_holds(
    rel: SerreRelation,
    A: CartanMatrix,
    H: list[EdgeMatrix],
    X: list[EdgeMatrix],
    Y: list[EdgeMatrix],
) -> bool:
    i, j = rel.i, rel.j
    if rel.kind == "cartan-commute":
        return mat_bracket(H[i], H[j]).is_zero()
    if rel.kind == "pair-h":
        return mat_bracket(X[i], Y[i]) == H[i]
    if rel.kind == "pair-zero":
        return mat_bracket(X[i], Y[j]).is_zero()
    if rel.kind == "h-x":
        return mat_bracket(H[i], X[j]) == X[j].scale(A[i, j])
    if rel.kind == "h-y":
        return mat_bracket(H[i], Y[j]) == Y[j].scale(-A[i, j])
    gens = X if rel.kind == "nilp-x" else Y
    value = gens[j]
    for _ in range(rel.depth or 0):
        value = mat_bracket(gens[i], value)
    return value.is_zero()


def fundamental_root_list(spec: AlgebraSpec) -> tuple[Weight, ...]:
    """The simple roots of each family, in their standard order."""
    n = spec.rank
    out: list[Weight] = []

    def vec(pairs: dict[int, int]) -> Weight:
        base = [0] * n
        for idx, val in pairs.items():
            base[idx - 1] = val
        return tuple(base)

    for i in range(1, n):
        out.append(vec({i: 1, i + 1: -1}))
    if spec.family is AlgebraFamily.SP:
        out.append(vec({n: 2}))
    elif spec.family is AlgebraFamily.SO_EVEN:
        out.append(vec({n - 1: 1, n: 1}))
    elif spec.family is AlgebraFamily.SO_ODD:
        out.append(vec({n: 1}))
    return tuple(out)


# ---------------------------------------------------------------------------
# The edge rule against the bracket route and the coordinate table.
# ---------------------------------------------------------------------------


def lie_ranks(top: int, bottom: int = 1) -> list[tuple[AlgebraFamily, int]]:
    return [
        (family, n)
        for family, n in family_ranks(top + 1)
        if bottom <= AlgebraSpec(family, n).lie_rank <= top
    ]


def outcome(fn, *args):
    """What fn returns, or the type of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, InternalConsistencyError) as exc:
        return type(exc)


@pytest.mark.parametrize("family,n", lie_ranks(5))
def test_weight_of_agrees_on_basis_vectors_and_cartan_elements(family, n):
    r = realization(family, n)
    rd = root_datum(family, n)
    for m in (*basis_of(r), *(rd.sl2_triple(a)[2] for a in rd.roots)):
        assert roots.weight_of(r, m) == weight_of(r, m)
    zero = EdgeMatrix(r.spec.realization_dim, {})
    assert outcome(roots.weight_of, r, zero) is outcome(weight_of, r, zero) is ValueError


def test_simple_roots_are_the_coordinate_table():
    for family, n in family_ranks(40):
        spec = AlgebraSpec(family, n)
        assert roots.fundamental_root_list(spec) == fundamental_root_list(spec), (family, n)


@pytest.mark.parametrize("family,n", lie_ranks(5))
def test_weight_of_raises_on_the_same_mixed_sums(family, n):
    r = realization(family, n)
    for a, b in combinations(basis_of(r), 2):
        got = outcome(roots.weight_of, r, a + b)
        assert got == outcome(weight_of, r, a + b)
        assert (got is InternalConsistencyError) == (weight_of(r, a) != weight_of(r, b))


# ---------------------------------------------------------------------------
# Bracket-word Serre relations against the kind dispatch.
# ---------------------------------------------------------------------------


def assert_serre_agrees(rd: RootDatum, A: CartanMatrix) -> bool:
    """Equal relation texts and verdicts under A; returns whether all hold."""
    new, old = dynkin.serre_presentation(A), serre_presentation(A)
    assert [rel.describe() for rel in new.relations] == [rel.describe() for rel in old.relations]
    report = dynkin.verify_serre(rd, new)
    assert report.results == verify_serre(rd.realization, rd, old).results
    return report.all_passed


RANK_TWO = [
    CartanMatrix(((2, a), (b, 2)))
    for a in (0, -1, -2, -3)
    for b in (0, -1, -2, -3)
    if (a == 0) == (b == 0)
]


def random_cartan(rng: random.Random, size: int) -> CartanMatrix:
    entries = [[2] * size for _ in range(size)]
    for i, j in combinations(range(size), 2):
        entries[i][j] = rng.choice((0, -1, -2, -3))
        entries[j][i] = rng.choice((-1, -2, -3)) if entries[i][j] else 0
    return CartanMatrix(tuple(map(tuple, entries)))


@pytest.mark.parametrize("family,n", lie_ranks(4))
def test_serre_agrees_under_the_pairing_matrix(family, n):
    rd = root_datum(family, n)
    assert assert_serre_agrees(rd, L.coroot_pairing_matrix(rd))


@pytest.mark.parametrize("family,n", lie_ranks(2, 2))
def test_serre_agrees_under_every_rank_two_matrix(family, n):
    rd = root_datum(family, n)
    assert len(RANK_TWO) == 10
    verdicts = [assert_serre_agrees(rd, A) for A in RANK_TWO]
    assert verdicts.count(True) == 1


@pytest.mark.parametrize("family,n", lie_ranks(3, 3))
def test_serre_agrees_on_a_seeded_rank_three_sample(family, n):
    rd = root_datum(family, n)
    rng = random.Random(7)
    for _ in range(12):
        assert_serre_agrees(rd, random_cartan(rng, 3))
