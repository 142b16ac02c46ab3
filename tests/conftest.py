"""Shared fixtures: cached realizations, root data, Weyl enumerations, the
reference reflection used by the forms tests, the dense
structure-constant table used by the catalog tests, the basis vector of a
root, a field-replacing copy of a record, a Dynkin diagram's multiplicity
table and arrow list, the 1-indexed
elementary matrix, dense and transposed views of a matrix, the closed forms
that the invariant Jacobians are compared with, the hand-written root-vector table
and structure forms that ``catalog`` used before it read every sp and so
member off one signed involution, kept as the reference for that reading,
and the per-family sign table and opposite-graph antimorphism that gave each
negative root vector before it was the orbit of the reversed edge.

The repository-root ``conftest.py`` keeps a test run from writing bytecode
into src/."""

from __future__ import annotations

import io
import os
from contextlib import redirect_stdout
from fractions import Fraction
from functools import cache
from itertools import combinations
from pathlib import Path

import liealg as L
from liealg import AlgebraFamily, AlgebraSpec
from liealg.dynkin import _shorter
from liealg.edges import EdgeMatrix, mat_bracket
from liealg.exact import Scalar, Weight, canonical, ratio
from liealg.polynomials import MultiPoly
from liealg.records import InternalConsistencyError

_REALIZATIONS: dict[tuple[AlgebraFamily, int], L.AlgebraRealization] = {}
_ROOT_DATA: dict[tuple[AlgebraFamily, int], L.RootDatum] = {}
_WEYL_GROUPS: dict[tuple[AlgebraFamily, int], frozenset[tuple[int, ...]]] = {}

ALL_FAMILIES = tuple(AlgebraFamily)
SRC = Path(__file__).resolve().parent.parent / "src"
# The environment of a benchmark child, a copy of bench/run.py's CHILD_ENV; a test in
# test_startup keeps the two equal.
CHILD_ENV = {
    "PATH": os.defpath,
    "PYTHONPATH": "src",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
    "LC_ALL": "C.UTF-8",
}


def spec_of(family: AlgebraFamily, n: int) -> AlgebraSpec:
    return AlgebraSpec(family, n)


def realization(family: AlgebraFamily, n: int) -> L.AlgebraRealization:
    key = (family, n)
    if key not in _REALIZATIONS:
        _REALIZATIONS[key] = L.build(AlgebraSpec(family, n))
    return _REALIZATIONS[key]


def root_datum(family: AlgebraFamily, n: int) -> L.RootDatum:
    key = (family, n)
    if key not in _ROOT_DATA:
        _ROOT_DATA[key] = L.cartan_decompose(realization(family, n))
    return _ROOT_DATA[key]


def weyl_group(family: AlgebraFamily, n: int, cap: int = 100_000):
    key = (family, n)
    if key not in _WEYL_GROUPS:
        gens = L.simple_reflections(root_datum(family, n))
        _WEYL_GROUPS[key] = L.generate(gens, cap=cap)
    return _WEYL_GROUPS[key]


def replace(record, **changes):
    """A new record of the same type, with the named fields changed.

    It goes through the constructor, so validation runs again and no cached
    value is carried over.
    """
    fields = {name: getattr(record, name) for name in record._names}
    return type(record)(**{**fields, **changes})


def multiplicities(d: L.DynkinDiagram) -> tuple[tuple[int, ...], ...]:
    """The table of edge multiplicities, zero on the diagonal."""
    n = d.nvertices
    return tuple(tuple(d.multiplicity(i, j) for j in range(n)) for i in range(n))


def arrows(d: L.DynkinDiagram) -> tuple[tuple[int, int], ...]:
    """The (longer, shorter) pair of each multiple edge, sorted, as ``classify`` and
    ``ascii_diagram`` read it."""
    out = []
    for u, v in combinations(range(d.nvertices), 2):
        if d.multiplicity(u, v) >= 2:
            shorter = _shorter(d, u, v)
            out.append((u + v - shorter, shorter))
    return tuple(sorted(out))


def reflect(inner, alpha, beta):
    """Reflection of beta in the hyperplane orthogonal to alpha."""
    norm = Fraction(inner(alpha, alpha))
    if not norm:
        raise ValueError("cannot reflect in an isotropic or zero vector")
    factor = 2 * Fraction(inner(alpha, beta)) / norm
    return tuple(b - factor * a for a, b in zip(alpha, beta))


def from_rows(rows) -> EdgeMatrix:
    """The square matrix with these dense rows, each entry canonical."""
    edges = {(r, c): v for r, row in enumerate(rows) for c, x in enumerate(row)
             if (v := canonical(x))}
    return EdgeMatrix(len(rows), edges)


def unit(dim: int, i: int, j: int) -> EdgeMatrix:
    """The elementary matrix with a single 1 at (row i, column j), 1-indexed."""
    return EdgeMatrix(dim, {(i - 1, j - 1): 1})


def dense(m: EdgeMatrix) -> tuple[tuple[Scalar, ...], ...]:
    """The rows of m, zeros filled in."""
    return tuple(tuple(m[r, c] for c in range(m.dim)) for r in range(m.dim))


def identity(dim: int) -> EdgeMatrix:
    return EdgeMatrix(dim, {(i, i): 1 for i in range(dim)})


def transpose(m: EdgeMatrix) -> EdgeMatrix:
    return EdgeMatrix(m.dim, {(c, r): x for (r, c), x in m.edges.items()})


def variable(nvars: int, i: int) -> MultiPoly:
    """The polynomial x_i (0-indexed)."""
    return MultiPoly.monomial(nvars, [int(k == i) for k in range(nvars)])


def vandermonde(nvars: int, power: int = 1) -> MultiPoly:
    """Product over i < j of (x_j^power - x_i^power)."""
    out = MultiPoly.constant(nvars, 1)
    for i in range(nvars):
        for j in range(i + 1, nvars):
            out = out * (variable(nvars, j) ** power - variable(nvars, i) ** power)
    return out


def doubled_coordinate_forms(nvars: int) -> MultiPoly:
    """Product over i of (x_1 + ... + 2 x_i + ... + x_n)."""
    coordinates = [variable(nvars, i) for i in range(nvars)]
    total = sum(coordinates[1:], coordinates[0])
    out = MultiPoly.constant(nvars, 1)
    for x in coordinates:
        out = out * (total + x)
    return out


def constant_ratio(p: MultiPoly, q: MultiPoly) -> Scalar | None:
    """The scalar c with p = c q, or None when no such constant exists."""
    if q.is_zero():
        return None
    expo, coeff = next(iter(q.terms.items()))
    c = ratio(p.terms.get(expo, 0), coeff)
    return c if p == q.scale(c) else None


def basis_of(r: L.AlgebraRealization) -> tuple[EdgeMatrix, ...]:
    """The basis elements of a realization, without their labels."""
    return tuple(m for _, m in r.basis)


def root_vector(rd: L.RootDatum, root: Weight) -> EdgeMatrix:
    """The basis vector x_a of the root a, read off the basis with no triple formed."""
    return rd.realization.basis[rd.root_vectors[root]][1]


def structure_constants(
    r: L.AlgebraRealization,
) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    """c[i][j][k] with [b_i, b_j] = sum_k c[i][j][k] b_k, solved exactly."""
    mats = basis_of(r)
    solver = r.span
    dim = len(mats)
    out = []
    for i in range(dim):
        row = []
        for j in range(dim):
            if i == j:
                row.append((Fraction(0),) * dim)
                continue
            bracket = mat_bracket(mats[i], mats[j])
            try:
                coeffs = solver.expand(bracket.edges)
            except ValueError as exc:
                raise InternalConsistencyError(
                    f"bracket of basis elements {i},{j} falls outside the span"
                ) from exc
            row.append(tuple(coeffs.get(k, Fraction(0)) for k in range(dim)))
        out.append(tuple(row))
    return tuple(out)


def family_ranks(max_rank: int):
    """All (family, n) pairs with n up to max_rank, honoring family minimums."""
    out = []
    for family in ALL_FAMILIES:
        start = 2 if family in (AlgebraFamily.SL, AlgebraFamily.SO_EVEN) else 1
        for n in range(start, max_rank + 1):
            out.append((family, n))
    return out


def src_env() -> dict[str, str]:
    """The environment with src/ first on PYTHONPATH and no bytecode writing,
    for child interpreters."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process, returning (exit code, captured stdout)."""
    from liealg.cli import main

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buffer.getvalue()


# The reference basis: verbatim copies of the hand-written tables that
# ``catalog`` held before it built sp and so members as edge orbits.


def _edge_weight(n: int, i: int, j: int) -> Weight:
    chi = lambda k: [(k == s) - (k == s + n) for s in range(n)]
    return tuple(a - b for a, b in zip(chi(i), chi(j)))


def _positive_root_table(spec: AlgebraSpec) -> list[tuple[Weight, EdgeMatrix]]:
    """Positive roots with their canonical edge-basis vectors, sorted.

    Each root is read off its vector's edges.
    """
    n = spec.rank
    E = lambda i, j: unit(spec.realization_dim, i, j)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if spec.family is AlgebraFamily.SL:
        mats = [E(i, j) for i, j in pairs]
    else:
        mats = [E(i, j) - E(n + j, n + i) for i, j in pairs]
        if spec.family is AlgebraFamily.SP:
            mats += [E(i, n + j) + E(j, n + i) for i, j in pairs]
            mats += [E(i, n + i) for i in range(1, n + 1)]
        else:
            mats += [E(i, n + j) - E(j, n + i) for i, j in pairs]
            if spec.family is AlgebraFamily.SO_ODD:
                mats += [E(2 * n + 1, n + i) - E(i, 2 * n + 1) for i in range(1, n + 1)]
    table = [(_edge_weight(n, *min(mat.edges)), mat) for mat in mats]
    table.sort(key=lambda item: item[0], reverse=True)
    return table


@cache
def structure_form(spec: AlgebraSpec) -> EdgeMatrix | None:
    """The defining bilinear form S (none for sl), built once per spec."""
    n = spec.rank
    if spec.family is AlgebraFamily.SL:
        return None
    lower_sign = -1 if spec.family is AlgebraFamily.SP else 1
    edges = {}
    for i in range(n):
        edges[(i, n + i)] = 1
        edges[(n + i, i)] = lower_sign
    if spec.family is AlgebraFamily.SO_ODD:
        edges[(2 * n, 2 * n)] = 1
    return EdgeMatrix(spec.realization_dim, edges)


# The opposite-graph map: verbatim copies of ``digraph.vertex_signs`` and
# ``digraph.opposite_antimorphism``, which gave x(-a) before ``catalog`` built it
# as the orbit of the reversed edge, with the one call of the deleted
# ``EdgeMatrix.signed_transpose`` written out.


def vertex_signs(family: AlgebraFamily, dim: int) -> tuple[int, ...]:
    """Vertex sign vector defining this family's opposite-graph map.

    For sp and even so the sign is -1 on the second block of vertices, so an
    edge picks up -1 exactly when it crosses the block boundary.  For sl and
    odd so all signs are +1 (for the odd orthogonal realization a crossing
    sign cannot map the border root vectors onto their opposites, so the
    plain transpose is the map satisfying the contract).
    """
    if family is AlgebraFamily.SL:
        if dim < 1:
            raise ValueError("sl needs dimension >= 1")
        return (1,) * dim
    if family in (AlgebraFamily.SP, AlgebraFamily.SO_EVEN):
        if dim < 2 or dim % 2:
            raise ValueError(f"{family.cli_name} needs even dimension, got {dim}")
        half = dim // 2
        return (1,) * half + (-1,) * half
    if family is AlgebraFamily.SO_ODD:
        if dim < 3 or dim % 2 == 0:
            raise ValueError(f"so-odd needs odd dimension >= 3, got {dim}")
        return (1,) * dim
    raise ValueError(f"unknown family {family}")


def opposite_antimorphism(x: EdgeMatrix, family: AlgebraFamily) -> EdgeMatrix:
    """Send each edge to its reverse with the family's sign rule.

    Antimorphism on products (T(ab) = T(b)T(a)) and an involution; on each
    canonical realization it maps the root vector for a to a nonzero multiple
    of the root vector for -a.
    """
    signs = vertex_signs(family, x.dim)
    return EdgeMatrix(
        x.dim,
        {(c, r): signs[r] * signs[c] * canonical(v) for (r, c), v in x.edges.items()},
    )
