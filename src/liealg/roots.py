"""Root systems read off the edges of the root vectors.

The Cartan subalgebras are diagonal, so ad(h) scales each edge i -> j by
its weight chi_i - chi_j (``AlgebraRealization.edge_weight``).  A non-Cartan
basis vector is a simultaneous eigenvector of ad(h) exactly when all its
edges carry one weight, and that weight is its root; the engine asserts
this (a failure means the basis is wrong).  Each root a gets one sl2 triple
(x_a, y_a, h_a), built once: h_a is the normalized bracket of opposite root
vectors, y_a the opposite root vector scaled so that [x_a, y_a] = h_a.
Fundamental weights come from the duality equations.  Every expansion here
(over the fundamental roots or the duality equations' columns) is one
``matrices.SpanSolver``.

This module is the derivation only.  The axiom checks, which read any set of
vectors and no realization, are in ``axioms``.

``KillingMetric`` is the one Killing record: the Cartan Gram and its certified
coefficients ``sigma`` and ``trace``, built once as ``RootDatum.killing_metric``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property

from . import axioms, catalog
from .exact import Scalar, Weight, format_weight, is_positive, negate, ratio
from .families import AlgebraFamily, AlgebraSpec
from .matrices import EdgeMatrix, SpanSolver, dot, mat_bracket, sparse_vector
from .records import InternalConsistencyError, Record


def weight_of(r: catalog.AlgebraRealization, m: EdgeMatrix) -> Weight:
    """The functional a with [h, m] = a(h) m for all Cartan h.

    For diagonal h, [h, E_ij] = (h_ii - h_jj) E_ij, so a is the common
    weight of m's edges.  Raises InternalConsistencyError if the edges carry
    more than one weight: m is then not a simultaneous eigenvector.
    """
    if m.is_zero():
        raise ValueError("zero matrix has no well-defined weight")
    if m.dim != r.spec.realization_dim:
        raise ValueError(f"dimension mismatch: {r.spec.realization_dim} vs {m.dim}")
    weights = {r.edge_weight(i, j) for i, j in m.edges}
    if len(weights) != 1:
        raise InternalConsistencyError(
            "matrix is not a simultaneous eigenvector of the Cartan subalgebra"
        )
    return weights.pop()


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


class RootDatum(Record):
    """Roots, sl2 triples, fundamental roots/coroots/weights of one realization.

    The triple of a root a is (``root_vector(a)``, ``partners[a]``,
    ``coroots[a]``): [x_a, y_a] = h_a and a(h_a) = 2.
    """

    __slots__ = (
        "realization", "roots", "root_vectors", "positive_roots", "fundamental_roots",
        "coroots", "partners", "fundamental_coroots", "fundamental_weights", "__dict__",
    )
    realization: catalog.AlgebraRealization
    roots: tuple[Weight, ...]
    root_vectors: dict[Weight, int]
    positive_roots: tuple[Weight, ...]
    fundamental_roots: tuple[Weight, ...]
    coroots: dict[Weight, EdgeMatrix]
    partners: dict[Weight, EdgeMatrix]
    fundamental_coroots: tuple[EdgeMatrix, ...]
    fundamental_weights: tuple[Weight, ...]

    def __init__(
        self,
        realization: catalog.AlgebraRealization,
        roots: tuple[Weight, ...],
        root_vectors: dict[Weight, int],
        positive_roots: tuple[Weight, ...],
        fundamental_roots: tuple[Weight, ...],
        coroots: dict[Weight, EdgeMatrix],
        partners: dict[Weight, EdgeMatrix],
        fundamental_coroots: tuple[EdgeMatrix, ...],
        fundamental_weights: tuple[Weight, ...],
    ) -> None:
        object.__setattr__(self, "realization", realization)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "root_vectors", root_vectors)
        object.__setattr__(self, "positive_roots", positive_roots)
        object.__setattr__(self, "fundamental_roots", fundamental_roots)
        object.__setattr__(self, "coroots", coroots)
        object.__setattr__(self, "partners", partners)
        object.__setattr__(self, "fundamental_coroots", fundamental_coroots)
        object.__setattr__(self, "fundamental_weights", fundamental_weights)

    @property
    def spec(self) -> AlgebraSpec:
        return self.realization.spec

    def root_vector(self, root: Weight) -> EdgeMatrix:
        if root not in self.root_vectors:
            raise ValueError(f"{format_weight(root)} is not a root of {self.spec}")
        return self.realization.basis[self.root_vectors[root]][1]

    def coroot(self, root: Weight) -> EdgeMatrix:
        if root not in self.coroots:
            raise ValueError(f"{format_weight(root)} is not a root of {self.spec}")
        return self.coroots[root]

    @cached_property
    def killing_metric(self) -> KillingMetric:
        """The Killing form on the Cartan basis, summed and certified on first use."""
        return _killing_metric(self)


class KillingMetric(namedtuple("KillingMetric", "gram sigma trace")):
    """The Killing form on the Cartan basis h_1..h_r of one root datum.

    ``gram`` holds K(h_i, h_j) = sum over roots a(h_i) a(h_j), the ad-trace
    form, since ad(h) is diagonal in the canonical basis with the root values
    as eigenvalues.  It is certified to be exactly ``sigma`` (x_i . x_j) and
    ``trace`` tr(h_i h_j), with sigma nonzero; for the doubled realizations
    (sp, so) tr(xy) is twice the coordinate sum, so trace = sigma / 2.
    """

    __slots__ = ()
    gram: tuple[tuple[Scalar, ...], ...]
    sigma: Scalar
    trace: Scalar


def _killing_metric(rd: RootDatum) -> KillingMetric:
    """Sum the Cartan Gram over the root eigenvalues and prove it proportional."""
    r = rd.realization
    cartan = r.cartan_basis
    coords = [r.diag_coords(h) for h in cartan]
    eigen = [[dot(a, x) for a in rd.roots] for x in coords]
    gram = tuple(tuple(dot(ei, ej) for ej in eigen) for ei in eigen)
    sigma = _proportion(gram, [[dot(x, y) for y in coords] for x in coords], "coordinate sum form")
    trace = _proportion(gram, [[(x @ y).trace() for y in cartan] for x in cartan], "trace form")
    return KillingMetric(gram, sigma, trace)


def _proportion(
    gram: Sequence[Sequence[Scalar]], reference: Sequence[Sequence[Scalar]], form: str
) -> Scalar:
    """The nonzero c with gram = c * reference entrywise; raises if there is none."""
    pairs = [(i, j) for i in range(len(gram)) for j in range(len(gram))]
    c = next((ratio(gram[i][j], reference[i][j]) for i, j in pairs if reference[i][j]), None)
    if c is None:
        raise InternalConsistencyError("degenerate reference forms on the Cartan")
    if not c:
        raise InternalConsistencyError("Killing form vanishes on the Cartan")
    if any(gram[i][j] != c * reference[i][j] for i, j in pairs):
        raise InternalConsistencyError(f"Killing form is not proportional to the {form}")
    return c


def cartan_decompose(r: catalog.AlgebraRealization) -> RootDatum:
    """Read off the root system and derive sl2 triples and fundamental weights."""
    spec = r.spec
    cartan_set = set(r.cartan_indices)

    root_vectors: dict[Weight, int] = {}
    for index, (label, mat) in enumerate(r.basis):
        if index in cartan_set:
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

    coroots: dict[Weight, EdgeMatrix] = {}
    partners: dict[Weight, EdgeMatrix] = {}
    for root in roots:
        x_pos = r.basis[root_vectors[root]][1]
        x_neg = r.basis[root_vectors[negate(root)]][1]
        bracket = mat_bracket(x_pos, x_neg)
        # A zero bracket fails here too: a(0) = 0.
        value = dot(root, r.diag_coords(bracket))
        if not value:
            raise InternalConsistencyError(
                f"a([x_a, x_-a]) = 0 for a = {format_weight(root)}"
            )
        factor = ratio(2, value)
        coroots[root] = bracket.scale(factor)
        partners[root] = x_neg.scale(factor)

    fundamental_coroots = tuple(coroots[a] for a in fundamental)
    weights = _solve_fundamental_weights(r, fundamental_coroots)

    return RootDatum(
        realization=r,
        roots=roots,
        root_vectors=root_vectors,
        positive_roots=positive,
        fundamental_roots=fundamental,
        coroots=coroots,
        partners=partners,
        fundamental_coroots=fundamental_coroots,
        fundamental_weights=weights,
    )


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


def _solve_fundamental_weights(
    r: catalog.AlgebraRealization, fundamental_coroots: Sequence[EdgeMatrix]
) -> tuple[Weight, ...]:
    """Solve w_i(h_j) = delta_ij for the dual basis of the coroots.

    w_i is e_i expanded over the columns of the square system whose rows are
    the coroot coordinates, and for sl the all-ones row (w_i sums to zero).
    Dependent columns leave some e_i outside their span: expand raises.
    """
    n = r.spec.rank
    rows = [r.diag_coords(h) for h in fundamental_coroots]
    if r.spec.family is AlgebraFamily.SL:
        rows.append((1,) * n)
    columns = SpanSolver(map(sparse_vector, zip(*rows)))
    expansions = [columns.expand({i: 1}) for i in range(len(fundamental_coroots))]
    return tuple(tuple(w.get(k, 0) for k in range(n)) for w in expansions)


def root_count(spec: AlgebraSpec) -> int:
    """Closed-form size of the root system."""
    n = spec.rank
    if spec.family is AlgebraFamily.SL:
        return n * (n - 1)
    if spec.family is AlgebraFamily.SO_EVEN:
        return 2 * n * (n - 1)
    return 2 * n * n


def __getattr__(name: str):
    # Only the benchmark tracer (bench/traced.py) reads these two names here, as the
    # spans roots.verify_root_axioms and roots.verify_sl2_triple.  ROADMAP item 1,
    # which lets the tracer name axioms itself, deletes this alias.
    if name in ("verify_root_axioms", "verify_sl2_triple"):
        return getattr(axioms, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
