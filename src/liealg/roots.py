"""Root systems read off the edges of the root vectors.

The Cartan subalgebras are diagonal, so ad(h) scales each edge i -> j by
its weight chi_i - chi_j (``AlgebraRealization.edge_weight``).  A non-Cartan
basis vector is a simultaneous eigenvector of ad(h) exactly when all its
edges carry one weight, and that weight is its root; the engine asserts
this (a failure means the basis is wrong).  Each simple root is the weight of
one edge.  The sl2 triple (x_a, y_a, h_a) of a root a is formed where it is
read, by ``form_triple``: h_a is the normalized bracket of opposite root
vectors, y_a the opposite root vector scaled so that [x_a, y_a] = h_a.
``cartan_decompose`` forms the triples of the fundamental roots only and
keeps each coroot h_a as its coordinates, read once by ``diag_coords``;
``RootDatum.sl2_triple`` forms any triple on each call, and holds none.
Fundamental weights come from the duality equations, all solved by one
``matrices.solve_linear`` over one elimination; the expansion over the
fundamental roots is one ``matrices.SpanSolver``.

This module is the derivation only.  The axiom checks, which read any set of
vectors and no realization, are in ``axioms``.

``RootDatum.killing_metric`` caches the one Killing record, which
``forms.killing_coefficients`` sums and certifies.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

from . import axioms, catalog, forms
from .exact import Weight, format_weight, is_positive, negate, ratio
from .families import AlgebraFamily, AlgebraSpec
from .edges import EdgeMatrix, mat_bracket
from .matrices import SpanSolver, dot, solve_linear, sparse_vector
from .records import InternalConsistencyError, Record


def weight_of(r: catalog.AlgebraRealization, m: EdgeMatrix) -> Weight:
    """The functional a with [h, m] = a(h) m for all Cartan h.

    For diagonal h, [h, E_ij] = (h_ii - h_jj) E_ij, so a is the common
    weight of m's edges.  Raises InternalConsistencyError if the edges carry
    more than one weight: m is then not a simultaneous eigenvector.
    """
    if m.dim != r.spec.realization_dim:
        raise ValueError(f"dimension mismatch: {r.spec.realization_dim} vs {m.dim}")
    # A stored edge lies inside the matrix, so it skips edge_weight's slot check.
    weights = {catalog._edge_weight(r.spec.rank, i, j) for i, j in m.edges}
    if not weights:
        raise ValueError("zero matrix has no well-defined weight")
    if len(weights) != 1:
        raise InternalConsistencyError(
            "matrix is not a simultaneous eigenvector of the Cartan subalgebra"
        )
    return weights.pop()


def fundamental_root_list(spec: AlgebraSpec) -> tuple[Weight, ...]:
    """The simple roots in their standard order: the weights of the chain edges
    i -> i+1 (0-indexed slots), then of the edge that closes sp's or so's chain,
    the least of its orbit and so an edge of the simple root vector itself."""
    n = spec.rank
    closing = {
        AlgebraFamily.SP: [(n - 1, 2 * n - 1)],  # 2e_n
        AlgebraFamily.SO_EVEN: [(n - 2, 2 * n - 1)],  # e_(n-1) + e_n
        AlgebraFamily.SO_ODD: [(n - 1, 2 * n)],  # e_n
    }.get(spec.family, [])
    chain = [(i, i + 1) for i in range(n - 1)]
    return tuple(catalog._edge_weight(n, i, j) for i, j in chain + closing)


class RootDatum(Record):
    """Roots and fundamental roots/coroots/weights of one realization.

    The triple of any root a is ``sl2_triple(a)``: [x_a, y_a] = h_a and
    a(h_a) = 2.  ``fundamental_coroots[i]`` holds the coordinates of h_(a_i),
    the coroot of the i-th fundamental root.
    """

    __slots__ = (
        "realization", "roots", "root_vectors", "positive_roots", "fundamental_roots",
        "fundamental_coroots", "fundamental_weights", "__dict__",
    )
    realization: catalog.AlgebraRealization
    roots: tuple[Weight, ...]
    root_vectors: dict[Weight, int]
    positive_roots: tuple[Weight, ...]
    fundamental_roots: tuple[Weight, ...]
    fundamental_coroots: tuple[Weight, ...]
    fundamental_weights: tuple[Weight, ...]

    @property
    def spec(self) -> AlgebraSpec:
        return self.realization.spec

    def sl2_triple(self, root: Weight) -> tuple[EdgeMatrix, EdgeMatrix, EdgeMatrix]:
        """(x_a, y_a, h_a) of the root a, formed on each call by ``form_triple``."""
        if root not in self.root_vectors:
            raise ValueError(f"{format_weight(root)} is not a root of {self.spec}")
        return form_triple(self.realization, self.root_vectors, root)

    @cached_property
    def killing_metric(self) -> forms.KillingMetric:
        """The Killing form on the Cartan basis, summed and certified on first use."""
        return forms.killing_coefficients(self)


def cartan_decompose(r: catalog.AlgebraRealization) -> RootDatum:
    """Read off the root system and derive sl2 triples and fundamental weights."""
    spec = r.spec

    root_vectors: dict[Weight, int] = {}
    for index, (label, mat) in enumerate(r.basis):
        if index < spec.lie_rank:
            # The edge rule of weight_of holds only for a diagonal Cartan.
            try:
                r.diag_coords(mat)
            except ValueError as exc:
                raise InternalConsistencyError(f"Cartan basis element {label}: {exc}") from exc
            continue
        root = weight_of(r, mat)
        if not any(root):
            raise InternalConsistencyError(f"basis element {label} has zero weight")
        if root in root_vectors:
            raise InternalConsistencyError(
                f"root {format_weight(root)} appears twice; root spaces must be 1-dimensional"
            )
        root_vectors[root] = index

    roots = tuple(sorted(root_vectors, reverse=True))
    positive = tuple(w for w in roots if is_positive(w))
    if set(roots) != set(positive) | {negate(w) for w in positive}:
        raise InternalConsistencyError("root system is not symmetric under negation")

    fundamental = fundamental_root_list(spec)
    for root in fundamental:
        if root not in root_vectors:
            raise InternalConsistencyError(
                f"expected fundamental root {format_weight(root)} is not a root"
            )
    expand_in_fundamental(positive, fundamental)

    coroots = tuple(r.diag_coords(form_triple(r, root_vectors, a)[2]) for a in fundamental)

    return RootDatum(
        realization=r,
        roots=roots,
        root_vectors=root_vectors,
        positive_roots=positive,
        fundamental_roots=fundamental,
        fundamental_coroots=coroots,
        fundamental_weights=_solve_fundamental_weights(spec, coroots),
    )


def form_triple(
    r: catalog.AlgebraRealization, root_vectors: dict[Weight, int], root: Weight
) -> tuple[EdgeMatrix, EdgeMatrix, EdgeMatrix]:
    """The sl2 triple (x_a, y_a, h_a) of the root a, read off its root vectors.

    With t = [x_a, x_-a], h_a = 2t / a(t) and y_a = 2x_-a / a(t), so that
    [x_a, y_a] = h_a and a(h_a) = 2.  Raises InternalConsistencyError if
    a(t) = 0, a zero bracket included.
    """
    x_pos = r.basis[root_vectors[root]][1]
    x_neg = r.basis[root_vectors[negate(root)]][1]
    bracket = mat_bracket(x_pos, x_neg)
    value = dot(root, r.diag_coords(bracket))
    if not value:
        raise InternalConsistencyError(f"a([x_a, x_-a]) = 0 for a = {format_weight(root)}")
    factor = ratio(2, value)
    return x_pos, x_neg.scale(factor), bracket.scale(factor)


def expand_in_fundamental(
    roots: Sequence[Weight], fundamental: Sequence[Weight]
) -> list[tuple[int, ...]]:
    """Integer coefficients of each root over the fundamental roots.

    The fundamental roots are eliminated once.  The coefficients must be
    integers, all nonnegative or all nonpositive; anything else is an
    internal inconsistency.
    """
    solver = SpanSolver(map(sparse_vector, fundamental))
    if len(solver.independent) < len(fundamental):
        raise InternalConsistencyError("the fundamental roots are linearly dependent")
    expansions = []
    for root in roots:
        coeffs = solver.expand(sparse_vector(root))
        if any(type(c) is not int for c in coeffs.values()):
            raise InternalConsistencyError(
                f"root {format_weight(root)} is not an integer combination of the fundamental roots"
            )
        ints = tuple(coeffs.get(k, 0) for k in range(len(fundamental)))
        if not (all(c >= 0 for c in ints) or all(c <= 0 for c in ints)):
            raise InternalConsistencyError(
                f"root {format_weight(root)} mixes signs over the fundamental roots"
            )
        expansions.append(ints)
    return expansions


def _solve_fundamental_weights(spec: AlgebraSpec, coroots: Sequence[Weight]) -> tuple[Weight, ...]:
    """Solve w_i(h_j) = delta_ij for the dual basis of the coroots.

    The square system's rows are the coroot coordinates, and for sl the
    all-ones row (w_i sums to zero); w_i solves it against e_i, and all the
    e_i are solved over one elimination.  A singular system raises.
    """
    rows = list(coroots)
    if spec.family is AlgebraFamily.SL:
        rows.append((1,) * spec.rank)
    units = ([int(i == j) for j in range(len(rows))] for i in range(len(coroots)))
    return tuple(map(tuple, solve_linear(rows, *units)))


def __getattr__(name: str):
    # Only the benchmark tracer (bench/traced.py) reads these two names here, as the
    # spans roots.verify_root_axioms and roots.verify_sl2_triple.  ROADMAP item 1,
    # which lets the tracer name axioms itself, deletes this alias.
    if name in ("verify_root_axioms", "verify_sl2_triple"):
        return getattr(axioms, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
